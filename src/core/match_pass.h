#ifndef DUALSIM_CORE_MATCH_PASS_H_
#define DUALSIM_CORE_MATCH_PASS_H_

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <vector>

#include "core/exec_state.h"

namespace dualsim {

/// The enumeration half of one query execution: vertex-level red matching
/// plus non-red extension, run as tasks on the shared CPU pool. Internal
/// enumeration (over the level-0 window) and external enumeration (over
/// last-level runs) submit to the same pool through the run's TaskGroup,
/// so when one side drains its tasks the workers pick up the other side's
/// remaining work — the paper's thread morphing (§5.3).
///
/// The WindowScheduler drives it: LaunchInternalTasks() whenever a fresh
/// level-0 window is indexed, ProcessLastLevelWindow() for each last-level
/// window, DrainLastLevel() once the parent window's last-level windows
/// are all dispatched. Thread-safe counters accumulate across all tasks of
/// the run.
class MatchPass {
 public:
  explicit MatchPass(ExecContext* ctx) : ctx_(*ctx) {}

  /// Internal pass over the current level-0 window, split into per-chunk
  /// tasks sharing the CPU pool with external enumeration.
  void LaunchInternalTasks();

  /// Last level: streams the window's runs into enumeration without
  /// waiting for the window. A run is one page, or the consecutive pages
  /// carrying one spilling vertex. Each run passes the frame gate (at most
  /// the level's budget of owned frames in flight; pages pinned by an
  /// ancestor window cost none), is pinned, is enumerated on a task the
  /// moment all its pages are resident, and is unpinned; its frames then
  /// admit the next run, which may belong to a later window of the same
  /// parent window. Blocks only while the gate is full.
  ///
  /// A run whose pins failed with ResourceExhausted (frame starvation) is
  /// not enumerated; DrainLastLevel() hands its pages back. Fatal pin
  /// failures are recorded in the ExecContext.
  void ProcessLastLevelWindow(std::uint8_t l, const std::vector<PageId>& pages);

  /// The last level's one barrier, taken when every window of the current
  /// parent window has been dispatched (ancestor indexes and candidate
  /// bitmaps stay fixed until it returns): blocks until every admitted run
  /// has been enumerated and unpinned, then returns the pages of the runs
  /// that starved, ascending. Runs that did enumerate are never
  /// returned, so re-dispatching the pages cannot double count.
  std::vector<PageId> DrainLastLevel();

  std::uint64_t internal_embeddings() const {
    return internal_embeddings_.load();
  }
  std::uint64_t external_embeddings() const {
    return external_embeddings_.load();
  }
  std::uint64_t red_assignments() const { return red_assignments_.load(); }

 private:
  struct Run;

  void RunInternalChunk(std::size_t g, std::size_t begin, std::size_t end);
  void EnumerateLastLevelRun(std::uint8_t l,
                             const std::vector<const std::byte*>& run_data);

  /// Blocks until `owned` more frames fit the last level's budget (or the
  /// gate is empty: a lone oversize run may exceed it), then charges them.
  void AdmitRun(std::uint8_t l, std::size_t owned);

  /// Task body once every page of `run` arrived: enumerate, unpin, and
  /// return the run's frames to the gate.
  void FinishRun(std::uint8_t l, Run& run);

  ExecContext& ctx_;
  std::atomic<std::uint64_t> internal_embeddings_{0};
  std::atomic<std::uint64_t> external_embeddings_{0};
  std::atomic<std::uint64_t> red_assignments_{0};

  // Last-level frame gate, shared by every run of the query.
  std::mutex gate_mutex_;
  std::condition_variable gate_cv_;
  std::size_t gate_frames_ = 0;  // owned frames held by admitted runs
  std::size_t gate_runs_ = 0;    // admitted runs not yet finished
  std::vector<PageId> starved_;  // pages of starved runs since the drain
};

}  // namespace dualsim

#endif  // DUALSIM_CORE_MATCH_PASS_H_
