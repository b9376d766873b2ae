#include "core/match_pass.h"

#include <algorithm>
#include <array>
#include <memory>

#include "core/enumerator.h"
#include "obs/metrics.h"
#include "util/logging.h"

namespace dualsim {
namespace {

/// Accumulates solutions from one enumeration task, then flushes into the
/// execution-wide atomics (one atomic op per task, not per embedding).
struct TaskCounters {
  std::uint64_t embeddings = 0;
  std::uint64_t red_assignments = 0;
  std::uint64_t vgroup_expansions = 0;
};

struct MatchMetrics {
  obs::Counter* embeddings_internal;
  obs::Counter* embeddings_external;
  obs::Counter* red_assignments;
  obs::Counter* vgroup_expansions;
};

MatchMetrics& Metrics() {
  static MatchMetrics m{
      obs::Metrics().GetCounter("match.embeddings_internal"),
      obs::Metrics().GetCounter("match.embeddings_external"),
      obs::Metrics().GetCounter("match.red_assignments"),
      obs::Metrics().GetCounter("match.vgroup_expansions"),
  };
  return m;
}

/// Flushes one task's locally accumulated counters into the obs registry
/// (a few relaxed adds per task, never per embedding).
void FlushTaskMetrics(const TaskCounters& c, bool internal) {
  obs::Counter* embeddings =
      internal ? Metrics().embeddings_internal : Metrics().embeddings_external;
  if (c.embeddings > 0) embeddings->Increment(c.embeddings);
  if (c.red_assignments > 0) {
    Metrics().red_assignments->Increment(c.red_assignments);
  }
  if (c.vgroup_expansions > 0) {
    Metrics().vgroup_expansions->Increment(c.vgroup_expansions);
  }
}

/// RedEmitter that maps every member full-order sequence of the v-group to
/// the emitted data sequence and extends it over the non-red vertices.
class ExtendingEmitter : public RedEmitter {
 public:
  ExtendingEmitter(const QueryPlan& plan, std::size_t g,
                   std::span<const LabelId> data_labels,
                   const FullEmbeddingFn* visitor, TaskCounters* counters)
      : plan_(plan),
        group_(plan.groups[g]),
        slots_(plan.ivory_slots[g]),
        data_labels_(data_labels),
        visitor_(visitor),
        counters_(counters) {
    mapping_.fill(kNoVertex);
  }

  void Emit(std::span<const VertexId> vertex_by_position,
            std::span<const std::span<const VertexId>> adjacency_by_position)
      override {
    ++counters_->red_assignments;
    counters_->vgroup_expansions += group_.members.size();
    const std::uint8_t num_q = plan_.rbi.query.NumVertices();
    // Ivory lists depend only on this red assignment: members sharing a
    // slot reuse the list its first user computed.
    ivory_.Reset(slots_.NumSlots());
    for (std::size_t m = 0; m < group_.members.size(); ++m) {
      const FullOrderSequence& qs = group_.members[m];
      // Position k of qs maps red-graph vertex qs[k] to the k-th data
      // vertex; translate to original query-vertex indexing.
      for (std::uint8_t k = 0; k < qs.size(); ++k) {
        const QueryVertex u = plan_.rbi.red[qs[k]];
        mapping_[u] = vertex_by_position[k];
        red_adjacency_[u] = adjacency_by_position[k];
      }
      counters_->embeddings += ExtendNonRed(
          plan_.rbi, plan_.nonred_order, slots_.member_slots[m],
          {mapping_.data(), num_q}, {red_adjacency_.data(), num_q},
          data_labels_, &ivory_, visitor_);
      for (std::uint8_t k = 0; k < qs.size(); ++k) {
        mapping_[plan_.rbi.red[qs[k]]] = kNoVertex;
      }
    }
  }

 private:
  const QueryPlan& plan_;
  const VGroupSequence& group_;
  const IvorySlotTable& slots_;
  std::span<const LabelId> data_labels_;
  const FullEmbeddingFn* visitor_;
  TaskCounters* counters_;
  std::array<VertexId, kMaxQueryVertices> mapping_;
  std::array<std::span<const VertexId>, kMaxQueryVertices> red_adjacency_;
  IvoryLists ivory_;
};

}  // namespace

void MatchPass::LaunchInternalTasks() {
  const LevelState& st = ctx_.level[0];
  const std::vector<WindowIndex::Entry>& entries = st.index.entries();
  if (entries.empty()) return;
  const std::size_t chunk = std::max<std::size_t>(
      1, entries.size() / (ctx_.cpu_pool->num_threads() * 4));
  for (std::size_t g = 0; g < ctx_.num_groups; ++g) {
    for (std::size_t begin = 0; begin < entries.size(); begin += chunk) {
      const std::size_t end = std::min(entries.size(), begin + chunk);
      ctx_.tasks->Run(
          [this, g, begin, end] { RunInternalChunk(g, begin, end); });
    }
  }
}

void MatchPass::RunInternalChunk(std::size_t g, std::size_t begin,
                                 std::size_t end) {
  const LevelState& st = ctx_.level[0];
  const QueryPlan& plan = *ctx_.plan;
  TaskCounters counters;
  std::array<LevelDomain, kMaxQueryVertices> domains;
  for (std::uint8_t j = 0; j < ctx_.levels; ++j) {
    domains[j].index = &st.index;
    domains[j].candidates = nullptr;
    // The internal pass has no cvs bitmaps, so the per-level label
    // constraint rides on the domain directly.
    domains[j].label = plan.groups[g].position_label[plan.matching_order[j]];
  }
  GroupMatchInput input;
  input.group = &plan.groups[g];
  input.matching_order = &plan.matching_order;
  input.domains = {domains.data(), ctx_.levels};
  input.level_order = plan.internal_level_order[g];
  input.seeds = {st.index.entries().data() + begin, end - begin};
  input.data_labels = ctx_.data_labels;
  ExtendingEmitter emitter(plan, g, ctx_.data_labels, ctx_.visitor,
                           &counters);
  MatchGroup(input, emitter);
  internal_embeddings_.fetch_add(counters.embeddings);
  red_assignments_.fetch_add(counters.red_assignments);
  FlushTaskMetrics(counters, /*internal=*/true);
}

struct MatchPass::Run {
  std::vector<PageId> pages;
  std::vector<const std::byte*> data;
  std::size_t owned = 0;  // frames charged to the gate
  std::atomic<std::size_t> remaining{0};
  std::atomic<bool> starved{false};
  std::atomic<bool> fatal{false};
};

void MatchPass::ProcessLastLevelWindow(std::uint8_t l,
                                       const std::vector<PageId>& pages) {
  // Split the (ascending) window page list into runs and stream each one
  // through the gate as soon as its frames are free.
  for (std::size_t i = 0; i < pages.size() && !ctx_.ShouldStop();) {
    auto run = std::make_shared<Run>();
    run->pages.push_back(pages[i]);
    while (i + 1 < pages.size() && pages[i + 1] == pages[i] + 1 &&
           ctx_.disk->SpansBeyond(pages[i])) {
      run->pages.push_back(pages[++i]);
    }
    ++i;
    run->data.assign(run->pages.size(), nullptr);
    run->remaining.store(run->pages.size());
    for (PageId pid : run->pages) {
      if (!ctx_.PinnedByAncestor(pid, l)) ++run->owned;
    }
    AdmitRun(l, run->owned);
    ctx_.pool->PinMany(run->pages, [this, l, run](std::size_t k, Status s,
                                                  const std::byte* data) {
      if (!s.ok()) {
        // Failed pins hold no frame; nothing to unpin. Starvation is
        // recoverable (the drain hands the run back for re-dispatch);
        // anything else is fatal for the whole run.
        if (s.code() == StatusCode::kResourceExhausted) {
          run->starved.store(true, std::memory_order_relaxed);
        } else {
          run->fatal.store(true, std::memory_order_relaxed);
          ctx_.SetError(s);
        }
      } else {
        run->data[k] = data;
      }
      if (run->remaining.fetch_sub(1) == 1) {
        ctx_.tasks->Run([this, l, run] { FinishRun(l, *run); });
      }
    });
  }
}

void MatchPass::AdmitRun(std::uint8_t l, std::size_t owned) {
  const std::size_t budget = ctx_.level[l].budget;
  std::unique_lock<std::mutex> lock(gate_mutex_);
  gate_cv_.wait(lock, [&] {
    return gate_frames_ == 0 || gate_frames_ + owned <= budget;
  });
  gate_frames_ += owned;
  ++gate_runs_;
  DS_CHECK(gate_frames_ <= budget || gate_frames_ == owned);
  LevelStats& stats = ctx_.level_stats[l];
  stats.max_frames_in_flight =
      std::max<std::uint64_t>(stats.max_frames_in_flight, gate_frames_);
}

void MatchPass::FinishRun(std::uint8_t l, Run& run) {
  const bool starved = run.starved.load(std::memory_order_relaxed);
  const bool fatal = run.fatal.load(std::memory_order_relaxed);
  if (!starved && !fatal && !ctx_.ShouldStop()) {
    EnumerateLastLevelRun(l, run.data);
  }
  for (std::size_t j = 0; j < run.pages.size(); ++j) {
    if (run.data[j] != nullptr) ctx_.pool->Unpin(run.pages[j]);
  }
  std::lock_guard<std::mutex> lock(gate_mutex_);
  if (starved && !fatal) {
    starved_.insert(starved_.end(), run.pages.begin(), run.pages.end());
  }
  gate_frames_ -= run.owned;
  --gate_runs_;
  gate_cv_.notify_all();
}

std::vector<PageId> MatchPass::DrainLastLevel() {
  std::unique_lock<std::mutex> lock(gate_mutex_);
  gate_cv_.wait(lock, [this] { return gate_runs_ == 0; });
  std::vector<PageId> starved;
  starved.swap(starved_);
  std::sort(starved.begin(), starved.end());
  return starved;
}

void MatchPass::EnumerateLastLevelRun(
    std::uint8_t l, const std::vector<const std::byte*>& run_data) {
  const QueryPlan& plan = *ctx_.plan;
  WindowIndex page_index;
  for (const std::byte* data : run_data) {
    page_index.AddPage(data, ctx_.disk->page_size());
  }
  TaskCounters counters;
  for (std::size_t g = 0; g < ctx_.num_groups; ++g) {
    std::array<LevelDomain, kMaxQueryVertices> domains;
    for (std::uint8_t j = 0; j < ctx_.levels; ++j) {
      domains[j].index = j == l ? &page_index : &ctx_.level[j].index;
      const GroupLevelState& gl = ctx_.level[j].per_group[g];
      domains[j].candidates = gl.is_root ? nullptr : &gl.cvs;
      domains[j].label = plan.groups[g].position_label[plan.matching_order[j]];
    }
    GroupMatchInput input;
    input.group = &plan.groups[g];
    input.matching_order = &plan.matching_order;
    input.domains = {domains.data(), ctx_.levels};
    input.level_order = plan.external_level_order[g];
    input.seeds = page_index.entries();
    input.first_page = ctx_.disk->FirstPageMap();
    input.data_labels = ctx_.data_labels;
    input.skip_if_all_pages_in = &ctx_.level[0].window_pages;
    ExtendingEmitter emitter(plan, g, ctx_.data_labels, ctx_.visitor,
                             &counters);
    MatchGroup(input, emitter);
  }
  external_embeddings_.fetch_add(counters.embeddings);
  red_assignments_.fetch_add(counters.red_assignments);
  FlushTaskMetrics(counters, /*internal=*/false);
}

}  // namespace dualsim
