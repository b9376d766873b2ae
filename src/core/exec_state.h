#ifndef DUALSIM_CORE_EXEC_STATE_H_
#define DUALSIM_CORE_EXEC_STATE_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/engine_stats.h"
#include "core/extension.h"
#include "core/plan.h"
#include "core/window_index.h"
#include "obs/trace.h"
#include "storage/buffer_pool.h"
#include "storage/disk_graph.h"
#include "util/bitmap.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dualsim {

/// Per-(v-group, level) candidate state.
struct GroupLevelState {
  bool is_root = false;
  Bitmap cvs;  // candidate vertices (unused for roots)
  Bitmap cps;  // candidate pages (all-ones for roots)
};

/// Per-level window state.
struct LevelState {
  std::size_t budget = 0;
  Bitmap window_pages;               // pages of the current window
  std::vector<PageId> pinned_pages;  // to unpin when the window retires
  WindowIndex index;
  PageId min_page = 0;
  PageId max_page = 0;
  bool has_window = false;
  std::vector<GroupLevelState> per_group;
};

/// State shared by the WindowScheduler (window formation and candidate
/// maintenance) and the MatchPass (internal/external enumeration) of one
/// query execution. Owned by the caller (QuerySession::Run); both
/// components hold a pointer for the duration of the run.
///
/// The CPU pool and buffer pool may be shared with concurrent executions;
/// everything else here is private to one run. Tasks are joined through
/// `tasks` (a per-run TaskGroup), never via ThreadPool::WaitIdle(), so
/// concurrent sessions cannot block on each other's work.
struct ExecContext {
  DiskGraph* disk = nullptr;
  const QueryPlan* plan = nullptr;
  const FullEmbeddingFn* visitor = nullptr;
  ThreadPool* cpu_pool = nullptr;
  BufferPool* pool = nullptr;
  TaskGroup* tasks = nullptr;
  std::uint8_t levels = 0;
  std::size_t num_groups = 0;
  /// Per-vertex data labels (DiskGraph::Labels); empty when the database
  /// is unlabeled (every data vertex then behaves as label 0).
  std::span<const LabelId> data_labels;
  /// When false, the label-driven candidate *page* filter (skipping whole
  /// pages the root level cannot match) is disabled; per-vertex label
  /// checks always stay on — they are correctness, the page filter is the
  /// I/O optimization (the bench_candidate_filter ablation axis).
  bool candidate_filter = true;
  /// Session-owned cancellation flag (may be set from any thread while the
  /// run is in flight); nullptr when the run is not cancellable.
  const std::atomic<bool>* cancel = nullptr;
  /// Optional per-run trace sink; nullptr disables span recording.
  obs::TraceContext* trace = nullptr;
  /// Optional progress sink, invoked by the scheduler as windows retire
  /// with the running embedding count; nullptr disables progress.
  const ProgressFn* progress = nullptr;

  std::vector<LevelState> level;        // indexed by level
  std::vector<LevelStats> level_stats;  // indexed by level

  /// True when `pid` is pinned by the current window of a level above `l`
  /// (such a page costs level `l` no frame).
  bool PinnedByAncestor(PageId pid, std::uint8_t l) const {
    for (std::uint8_t a = 0; a < l; ++a) {
      if (level[a].has_window && level[a].window_pages.Test(pid)) return true;
    }
    return false;
  }

  bool Cancelled() const {
    return cancel != nullptr && cancel->load(std::memory_order_relaxed);
  }

  /// True when the run should wind down: a fatal error was recorded or the
  /// session was cancelled. Checked at window boundaries and between
  /// enumeration chunks, so stopping never leaves pinned frames behind.
  bool ShouldStop() { return Cancelled() || HasError(); }

  bool HasError() {
    std::lock_guard<std::mutex> lock(error_mutex_);
    return !first_error_.ok();
  }

  void SetError(const Status& status) {
    std::lock_guard<std::mutex> lock(error_mutex_);
    if (first_error_.ok()) first_error_ = status;
  }

  Status first_error() {
    std::lock_guard<std::mutex> lock(error_mutex_);
    return first_error_;
  }

 private:
  std::mutex error_mutex_;
  Status first_error_;
};

}  // namespace dualsim

#endif  // DUALSIM_CORE_EXEC_STATE_H_
