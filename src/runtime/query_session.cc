#include "runtime/query_session.h"

#include <algorithm>
#include <array>
#include <memory>
#include <string>
#include <utility>

#include "core/match_pass.h"
#include "core/window_scheduler.h"
#include "obs/metrics.h"
#include "query/isomorphism.h"
#include "util/timer.h"

namespace dualsim {
namespace {

struct SessionMetrics {
  obs::Counter* runs;
  obs::Counter* runs_failed;
  obs::Counter* cancellations;
  obs::Histogram* run_millis;
};

SessionMetrics& Metrics() {
  static SessionMetrics m{
      obs::Metrics().GetCounter("session.runs"),
      obs::Metrics().GetCounter("session.runs_failed"),
      obs::Metrics().GetCounter("session.cancellations"),
      obs::Metrics().GetHistogram("session.run_millis"),
  };
  return m;
}

}  // namespace

QuerySession::QuerySession(Runtime* runtime, SessionOptions options)
    : runtime_(runtime), options_(std::move(options)) {}

StatusOr<EngineStats> QuerySession::Run(const QueryGraph& q) {
  return Run(q, FullEmbeddingFn{});
}

StatusOr<EngineStats> QuerySession::Run(const QueryGraph& q,
                                        const FullEmbeddingFn& visitor) {
  Metrics().runs->Increment();
  obs::TraceSpan run_span(options_.trace, "session.run");
  WallTimer run_timer;

  // Preparation step — or a plan-cache hit skipping it entirely.
  WallTimer lookup_timer;
  const CanonicalQuery canonical = CanonicalizeQuery(q);
  std::shared_ptr<const QueryPlan> plan;
  bool cache_hit = false;
  {
    obs::TraceSpan prepare_span(options_.trace, "session.prepare");
    auto plan_or = runtime_->plan_cache().GetOrPrepare(canonical, options_.plan,
                                                       &cache_hit);
    if (!plan_or.ok()) {
      Metrics().runs_failed->Increment();
      return plan_or.status();
    }
    plan = std::move(plan_or).value();
  }
  const double lookup_millis = lookup_timer.ElapsedMillis();

  DiskGraph* disk = runtime_->disk();
  const std::uint8_t levels = plan->NumLevels();

  // Large-degree vertices (adjacency lists spanning MaxVertexPages pages)
  // are kept whole within a window, overshooting the per-level budget by
  // up to mvp-1 frames; the quota reserves that slack per level.
  const std::size_t slack =
      static_cast<std::size_t>(disk->MaxVertexPages() - 1) *
      static_cast<std::size_t>(levels);
  const std::size_t min_frames =
      static_cast<std::size_t>(levels) * 2 +
      static_cast<std::size_t>(
          std::max(1, runtime_->options().io_threads)) +
      2 + slack;

  // EngineOptions validation: an explicit frame budget (runtime num_frames
  // or session max_frames) below the plan's minimum — its level count plus
  // the last level's 2 x num_threads read-ahead reserve — is rejected here
  // instead of misbehaving deep inside the window loop. Derived budgets
  // (buffer_fraction) are grown to the minimum by admission instead.
  if (options_.max_frames != 0 && options_.max_frames < min_frames) {
    Metrics().runs_failed->Increment();
    return Status::InvalidArgument(
        "SessionOptions::max_frames=" + std::to_string(options_.max_frames) +
        " is below the " + std::to_string(min_frames) +
        " frames a " + std::to_string(levels) +
        "-level plan requires (2 per level + io_threads + 2 + multi-page "
        "slack; the last level also wants 2 x num_threads frames)");
  }

  auto lease_or = [&] {
    obs::TraceSpan admit_span(options_.trace, "session.admit");
    return runtime_->Admit(min_frames, options_.max_frames);
  }();
  if (!lease_or.ok()) {
    Metrics().runs_failed->Increment();
    return lease_or.status();
  }
  Runtime::FrameLease lease = std::move(lease_or).value();

  // A filter forces per-embedding materialization even on counting-only
  // runs: the filter sees the caller-order mapping, survivors are counted
  // here (stats.embeddings below) and passed on to any caller visitor.
  std::atomic<std::uint64_t> filter_survivors{0};
  FullEmbeddingFn filtered;
  if (options_.embedding_filter) {
    const FullEmbeddingFn* inner = visitor ? &visitor : nullptr;
    filtered = [this, &filter_survivors,
                inner](std::span<const VertexId> m) {
      if (!options_.embedding_filter(m)) return;
      filter_survivors.fetch_add(1, std::memory_order_relaxed);
      if (inner != nullptr) (*inner)(m);
    };
  }
  const FullEmbeddingFn& effective = filtered ? filtered : visitor;

  // Undo the canonical relabeling before the caller's visitor sees a
  // mapping: the plan enumerates the canonical graph, whose vertex u is
  // the caller's to_canonical^-1(u).
  const FullEmbeddingFn* vis = effective ? &effective : nullptr;
  FullEmbeddingFn remapped;
  if (vis != nullptr && !canonical.identity) {
    const std::uint8_t n = q.NumVertices();
    const QueryPermutation to_canonical = canonical.to_canonical;
    remapped = [&effective, to_canonical, n](std::span<const VertexId> m) {
      std::array<VertexId, kMaxQueryVertices> original;
      for (QueryVertex u = 0; u < n; ++u) {
        original[u] = m[to_canonical[u]];
      }
      effective({original.data(), n});
    };
    vis = &remapped;
  }

  ExecContext ctx;
  ctx.disk = disk;
  ctx.plan = plan.get();
  ctx.cancel = cancel_.get();
  ctx.trace = options_.trace;
  ctx.progress = options_.progress ? &options_.progress : nullptr;
  ctx.visitor = vis;
  ctx.cpu_pool = &runtime_->cpu_pool();
  ctx.pool = lease.pool();
  ctx.levels = levels;
  ctx.num_groups = plan->groups.size();
  ctx.data_labels = disk->Labels();
  ctx.candidate_filter = options_.candidate_filter;
  TaskGroup tasks(ctx.cpu_pool);
  ctx.tasks = &tasks;

  // Per-run I/O counters: delta over the shared pool (the pool persists
  // across runs and sessions; under concurrency the delta attributes
  // overlapping sessions' reads approximately — exact totals live in
  // RuntimeStats).
  const IoStats io_before = ctx.pool->stats();

  WallTimer timer;
  MatchPass match(&ctx);
  WindowScheduler scheduler(&ctx, &match, lease.frames() - slack,
                            options_.paper_buffer_allocation);
  Status exec_status = scheduler.Execute();
  if (!exec_status.ok()) {
    if (exec_status.code() == StatusCode::kCancelled) {
      // Consume the request: the session stays usable for later runs.
      cancel_->store(false, std::memory_order_relaxed);
      Metrics().cancellations->Increment();
    } else {
      Metrics().runs_failed->Increment();
    }
    return exec_status;
  }

  EngineStats stats;
  stats.internal_embeddings = match.internal_embeddings();
  stats.external_embeddings = match.external_embeddings();
  stats.embeddings = options_.embedding_filter
                         ? filter_survivors.load(std::memory_order_relaxed)
                         : stats.internal_embeddings +
                               stats.external_embeddings;
  stats.red_assignments = match.red_assignments();
  stats.io = ctx.pool->stats() - io_before;
  stats.elapsed_seconds = timer.ElapsedSeconds();
  stats.prepare_millis = cache_hit ? lookup_millis : plan->prepare_millis;
  stats.num_frames = scheduler.frames_needed();
  stats.frames_per_level = scheduler.budgets();
  stats.level_stats = ctx.level_stats;
  const PlanCache::CacheStats cache_stats = runtime_->plan_cache().stats();
  stats.plan_cache_hits = cache_stats.hits;
  stats.plan_cache_misses = cache_stats.misses;
  stats.plan_cached = cache_hit;
  Metrics().run_millis->Record(
      static_cast<std::uint64_t>(stats.elapsed_seconds * 1e3));
  return stats;
}

}  // namespace dualsim
