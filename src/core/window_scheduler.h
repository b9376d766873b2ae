#ifndef DUALSIM_CORE_WINDOW_SCHEDULER_H_
#define DUALSIM_CORE_WINDOW_SCHEDULER_H_

#include <cstdint>
#include <vector>

#include "core/exec_state.h"
#include "core/match_pass.h"

namespace dualsim {

/// The window half of one query execution: per-level frame budgets, the
/// level-wise window loop (Algorithm 1 lines 7-17 / Algorithm 2),
/// total-order page pruning against ancestor windows (Lemma 1), candidate
/// vertex/page sequence maintenance (Algorithm 3), and asynchronous window
/// loading. Hands finished windows to the MatchPass for enumeration.
///
/// The last level is a stream: its windows go to the MatchPass without
/// waiting, and their runs flow through a frame gate of the level's
/// budget. The level's one barrier is the drain at the end of each
/// ProcessLevel(last), i.e. once per parent window, where ancestor
/// indexes and candidate bitmaps are about to change.
///
/// Graceful degradation: when pinning fails with ResourceExhausted (frame
/// starvation — e.g. concurrent sessions hold the pool's unpinned frames
/// while latency injection keeps reads in flight), the scheduler shrinks
/// or retries the work instead of aborting the run. An inner window is
/// split at a span-safe point (multi-page adjacency chains stay whole) and
/// each half is dispatched as its own window. Starved last-level runs are
/// collected at the drain and re-dispatched with backoff. Disjoint windows
/// over the same candidate pages enumerate the same embeddings, so
/// degradation affects only performance, never answers.
class WindowScheduler {
 public:
  /// `total_frames` is this run's frame quota minus the multi-page slack;
  /// the per-level budgets are carved out of it.
  WindowScheduler(ExecContext* ctx, MatchPass* match, std::size_t total_frames,
                  bool paper_allocation);

  /// Sets up level/group state and runs the full window loop. Joins all
  /// enumeration tasks before returning. Returns the first error raised by
  /// any task (Status::OK on success).
  Status Execute();

  const std::vector<std::size_t>& budgets() const { return budgets_; }

  /// Sum of the per-level budgets — the frames this run actually uses.
  std::size_t frames_needed() const { return frames_needed_; }

  /// Per-level frame budgets for a plan with `levels` levels and `total`
  /// frames (the paper's §5 allocation strategy, or the OPT equal split).
  static std::vector<std::size_t> ComputeFrameBudgets(std::uint8_t levels,
                                                      std::size_t total,
                                                      int num_threads,
                                                      bool paper_allocation);

  /// Bounded blocking retries for a window that cannot shrink any further
  /// (or for starved last-level runs) before the run gives up with
  /// ResourceExhausted.
  static constexpr int kMaxStarvedAttempts = 3;

 private:
  /// True when `l` is the last level of a multi-level plan, whose windows
  /// stream through the MatchPass's frame gate.
  bool IsStreamed(std::uint8_t l) const {
    return l + 1 == ctx_.levels && ctx_.levels > 1;
  }

  /// The window loop for level `l`.
  void ProcessLevel(std::uint8_t l);

  /// The last level's barrier: drains the stream and sends starved runs
  /// through DegradeAndRetry until none remain or the run stops.
  void DrainLastLevel(std::uint8_t l);

  /// Installs `pages` as level `l`'s current window (bitmap, min/max) and
  /// runs it; an inner window degrades via DegradeAndRetry on frame
  /// starvation, a last-level window is handed to the stream.
  void DispatchWindow(std::uint8_t l, const std::vector<PageId>& pages,
                      int attempt);

  /// Shrink-and-continue: splits a starved inner window span-safely and
  /// re-dispatches the halves; an unsplittable window, or the starved
  /// pages of the last level, is retried with backoff up to
  /// kMaxStarvedAttempts before failing the run.
  void DegradeAndRetry(std::uint8_t l, const std::vector<PageId>& pages,
                       int attempt);

  /// Span-safe split index for an ascending window page list (never inside
  /// a multi-page adjacency chain). 0 = cannot split.
  std::size_t SplitPoint(const std::vector<PageId>& pages) const;

  /// Loads a non-last-level window, computes child candidate sequences,
  /// recurses (and, at level 0, runs the internal pass concurrently).
  /// Returns ResourceExhausted — with no pins held and nothing enumerated
  /// — when frame starvation prevented loading the window; other failures
  /// are recorded in the ExecContext and returned.
  Status ProcessInnerWindow(std::uint8_t l, const std::vector<PageId>& pages);

  /// Recomputes cvs/cps for every child of level `l` in group `g` from the
  /// group's current vertex window at `l` (Algorithm 3).
  void ComputeChildCandidates(std::uint8_t l, std::size_t g);
  void ClearChildCandidates(std::uint8_t l, std::size_t g);

  /// Reports the running embedding count to ctx_.progress (if set). Called
  /// from the scheduling thread as inner windows retire and last-level
  /// windows are dispatched, so calls are serial.
  void NotifyProgress();

  ExecContext& ctx_;
  MatchPass& match_;
  const std::size_t total_frames_;
  const bool paper_allocation_;
  std::vector<std::size_t> budgets_;
  std::size_t frames_needed_ = 0;
};

}  // namespace dualsim

#endif  // DUALSIM_CORE_WINDOW_SCHEDULER_H_
