#ifndef DUALSIM_CORE_ENGINE_STATS_H_
#define DUALSIM_CORE_ENGINE_STATS_H_

#include <cstdint>
#include <vector>

#include "storage/buffer_pool.h"

namespace dualsim {

/// Per-level traversal counters.
struct LevelStats {
  std::uint64_t windows = 0;         // current windows formed
  std::uint64_t owned_pages = 0;     // pages charged to this level's budget
  std::uint64_t borrowed_pages = 0;  // pages shared with ancestor windows
  std::uint64_t degraded_windows = 0;  // windows split under frame pressure
};

/// Counters of one engine run.
struct EngineStats {
  std::uint64_t embeddings = 0;           // total solutions
  std::uint64_t internal_embeddings = 0;  // found by the internal pass
  std::uint64_t external_embeddings = 0;  // found by the external pass
  std::uint64_t red_assignments = 0;      // vertex-level red matches
  IoStats io;                             // buffer-pool counters (this run)
  double elapsed_seconds = 0.0;           // execution step only
  double prepare_millis = 0.0;            // preparation step (Table 6);
                                          // ~0 on a plan-cache hit
  std::size_t num_frames = 0;             // frames actually used
  std::vector<std::size_t> frames_per_level;
  std::vector<LevelStats> level_stats;    // one per v-group-forest level
  /// Cumulative plan-cache counters of the runtime serving this run, read
  /// after the lookup: a first run reports misses=1, a repeat hits>=1.
  std::uint64_t plan_cache_hits = 0;
  std::uint64_t plan_cache_misses = 0;
  /// True when this run's plan came from the plan cache.
  bool plan_cached = false;
};

}  // namespace dualsim

#endif  // DUALSIM_CORE_ENGINE_STATS_H_
