#ifndef DUALSIM_RUNTIME_QUERY_SESSION_H_
#define DUALSIM_RUNTIME_QUERY_SESSION_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>

#include "core/engine_stats.h"
#include "core/extension.h"
#include "core/plan.h"
#include "obs/trace.h"
#include "query/query_graph.h"
#include "runtime/runtime.h"
#include "util/status.h"

namespace dualsim {

/// Predicate over a full embedding (mapping indexed by query vertex of the
/// query as given). Returning false suppresses the embedding: it is not
/// counted in EngineStats::embeddings and the visitor never sees it.
/// Called concurrently from worker threads; must be thread-safe.
using EmbeddingFilterFn = std::function<bool(std::span<const VertexId>)>;

/// Per-session (per-query-stream) knobs; resource knobs live in
/// RuntimeOptions.
struct SessionOptions {
  /// Paper's buffer allocation strategy (§5); false = equal split
  /// (the OPT [17] strategy; ablation + Figure 17).
  bool paper_buffer_allocation = true;
  /// Cap on this session's frame quota. 0 = take every frame that is not
  /// reserved by another session at admission time. Sessions meant to run
  /// concurrently should set a cap so they fit side by side; a cap below
  /// a plan's minimum is an InvalidArgument.
  std::size_t max_frames = 0;
  /// Label-driven candidate page filter (see EngineOptions::
  /// candidate_filter); false disables page skipping only, per-vertex
  /// label checks always stay on.
  bool candidate_filter = true;
  /// Preparation-step options (RBI choice, v-grouping, matching order).
  PlanOptions plan;
  /// Optional trace sink: each Run() records spans (prepare, admit,
  /// execute) into it. Must outlive the session's runs; nullptr disables
  /// tracing. No-op under DUALSIM_NO_METRICS.
  obs::TraceContext* trace = nullptr;
  /// Optional progress sink: invoked serially from the scheduling thread
  /// as inner windows retire and last-level windows are dispatched, with
  /// the monotone running embedding count. Empty disables progress
  /// reporting.
  ProgressFn progress;
  /// Optional per-embedding veto (partition-scoped workers report only
  /// embeddings touching their partition). When set, every full embedding
  /// is materialized even on counting-only runs, and EngineStats::
  /// embeddings counts survivors — internal/external_embeddings keep the
  /// unfiltered engine totals, so embeddings may be smaller than their
  /// sum. Progress counts stay unfiltered (they are window-retire
  /// telemetry, not results).
  EmbeddingFilterFn embedding_filter;
};

/// One query stream against a shared Runtime. Each Run() canonicalizes
/// the query, fetches its plan from the runtime's plan cache (preparing on
/// a miss), is admitted with a frame quota, and executes the window loop
/// with a private TaskGroup on the shared CPU pool — so Run() calls on
/// *different* sessions of one runtime may be issued concurrently from
/// different threads. A single session is still one stream: serialize
/// Run() calls on the same session.
class QuerySession {
 public:
  explicit QuerySession(Runtime* runtime, SessionOptions options = {});

  /// Enumerates all embeddings of `q` (counting only).
  StatusOr<EngineStats> Run(const QueryGraph& q);

  /// Enumerates all embeddings, invoking `visitor` per embedding with the
  /// mapping indexed by query vertex (of `q` as given — canonical
  /// relabeling is undone before the visitor sees a mapping). The visitor
  /// is called concurrently from worker threads and must be thread-safe.
  StatusOr<EngineStats> Run(const QueryGraph& q,
                            const FullEmbeddingFn& visitor);

  /// Requests cancellation of this session's in-flight Run() — or, when
  /// none is in flight, of the next one. Safe to call from any thread.
  /// The run stops at the next window boundary, joins its tasks, releases
  /// every pinned frame, and returns Status with code kCancelled; sibling
  /// sessions of the same runtime are unaffected. A cancelled Run() clears
  /// the request on return, so the session stays usable.
  void Cancel() { cancel_->store(true, std::memory_order_relaxed); }

  /// True while a cancellation request is pending.
  bool cancel_requested() const {
    return cancel_->load(std::memory_order_relaxed);
  }

  const SessionOptions& options() const { return options_; }
  Runtime* runtime() { return runtime_; }

 private:
  Runtime* runtime_;
  SessionOptions options_;
  // Heap-allocated so worker tasks may outlive a moved-from session safely.
  std::shared_ptr<std::atomic<bool>> cancel_ =
      std::make_shared<std::atomic<bool>>(false);
};

}  // namespace dualsim

#endif  // DUALSIM_RUNTIME_QUERY_SESSION_H_
