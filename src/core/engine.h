#ifndef DUALSIM_CORE_ENGINE_H_
#define DUALSIM_CORE_ENGINE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "core/engine_stats.h"
#include "core/extension.h"
#include "core/plan.h"
#include "graph/graph.h"
#include "query/query_graph.h"
#include "storage/buffer_pool.h"
#include "storage/disk_graph.h"
#include "util/status.h"

namespace dualsim {

class Runtime;
class QuerySession;

/// Engine configuration. Defaults mirror the paper's experimental setup
/// (buffer = 15% of the data graph, paper buffer allocation strategy).
struct EngineOptions {
  /// Buffer frames. 0 = derive from `buffer_fraction` of the page count.
  /// An explicit value too small for a query's plan (its level count plus
  /// the 2 x num_threads last-level reserve) makes Run() return
  /// InvalidArgument; a derived value is grown to the minimum instead.
  std::size_t num_frames = 0;
  /// Fraction of the data-graph size kept in the buffer (Table 2: buf).
  double buffer_fraction = 0.15;
  /// Worker threads for enumeration. 0 = hardware concurrency.
  int num_threads = 0;
  /// Threads servicing asynchronous page reads.
  int io_threads = 2;
  /// Injected latency per physical read (device simulation; 0 = none).
  std::uint32_t read_latency_us = 0;
  /// Extra read attempts after a transient IOError before the failure is
  /// surfaced to the query (0 = fail fast).
  int max_read_retries = 2;
  /// Backoff before the first read retry, doubled per further attempt.
  std::uint32_t retry_backoff_us = 100;
  /// Paper's buffer allocation strategy (§5: 2 frames x #threads for the
  /// last level, 2/3 of the rest for level 1, remainder split over middle
  /// levels). When false, frames are split equally per level (the OPT [17]
  /// strategy; ablation + Figure 17).
  bool paper_buffer_allocation = true;
  /// Label-driven candidate filter (DESIGN.md §12): when true (default),
  /// label-constrained levels intersect the catalog's label index with
  /// candidate pages before windows form, skipping pages with zero
  /// candidates. False disables only the page skipping — per-vertex label
  /// checks stay on (they are correctness, not optimization). This is the
  /// bench_candidate_filter ablation axis.
  bool candidate_filter = true;
  /// Preparation-step options (RBI choice, v-grouping, matching order).
  PlanOptions plan;
};

/// DUALSIM (Algorithm 1): disk-based, parallel subgraph enumeration on a
/// single machine via the dual approach.
///
/// This class is a thin facade over the runtime layer: it owns a private
/// Runtime (CPU pool, I/O pool, buffer pool, plan cache — see
/// runtime/runtime.h) plus one QuerySession, and delegates Run() to the
/// session. One engine instance can run many queries against the same
/// on-disk graph; pools persist across runs, so a repeated query runs hot
/// and skips preparation via the plan cache. Callers needing *concurrent*
/// queries share one Runtime across several QuerySessions instead of
/// using this facade (runtime/query_session.h); runs on a single engine
/// are still serialized by the caller as before.
///
/// The data graph must be degree-ordered (preprocessing). Multi-page
/// adjacency lists are supported (§5.2 large-degree handling).
class DualSimEngine {
 public:
  explicit DualSimEngine(DiskGraph* disk, EngineOptions options = {});
  ~DualSimEngine();

  /// Enumerates all embeddings of `q` (counting only).
  StatusOr<EngineStats> Run(const QueryGraph& q);

  /// Enumerates all embeddings, invoking `visitor` per embedding with the
  /// mapping indexed by query vertex. The visitor is called concurrently
  /// from worker threads and must be thread-safe.
  StatusOr<EngineStats> Run(const QueryGraph& q,
                            const FullEmbeddingFn& visitor);

  const EngineOptions& options() const { return options_; }

  /// The runtime backing this engine (created on the first Run). Exposed
  /// so callers can attach additional sessions or read aggregated stats.
  Runtime* runtime() { return runtime_.get(); }

  /// Per-level frame budgets the current options yield for a plan with
  /// `levels` levels and `total` frames (exposed for tests/benches).
  /// Delegates to WindowScheduler::ComputeFrameBudgets.
  static std::vector<std::size_t> ComputeFrameBudgets(std::uint8_t levels,
                                                      std::size_t total,
                                                      int num_threads,
                                                      bool paper_allocation);

 private:
  DiskGraph* disk_;
  EngineOptions options_;
  // Lazily created on the first Run() and reused afterwards, preserving
  // the historical behaviour of not spawning threads at construction.
  std::shared_ptr<Runtime> runtime_;
  std::unique_ptr<QuerySession> session_;
};

}  // namespace dualsim

#endif  // DUALSIM_CORE_ENGINE_H_
