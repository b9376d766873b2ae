#include "core/window_scheduler.h"

#include <algorithm>
#include <chrono>
#include <latch>
#include <thread>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "util/logging.h"

namespace dualsim {
namespace {

struct SchedulerMetrics {
  obs::Counter* windows;
  obs::Counter* windows_degraded;
  obs::Counter* windows_split;
  obs::Counter* candidate_vertices;
  obs::Histogram* window_pages;
  // Label-driven candidate filter (DESIGN.md §12): pages dropped from
  // root candidate-page sequences because no record in them carries the
  // level's required label, and adjacency entries dropped from child
  // candidate sets for the same reason.
  obs::Counter* pages_skipped;
  obs::Counter* vertices_filtered;
};

SchedulerMetrics& Metrics() {
  static SchedulerMetrics m{
      obs::Metrics().GetCounter("scheduler.windows"),
      obs::Metrics().GetCounter("scheduler.windows_degraded"),
      obs::Metrics().GetCounter("scheduler.windows_split"),
      obs::Metrics().GetCounter("scheduler.candidate_vertices"),
      obs::Metrics().GetHistogram("scheduler.window_pages"),
      obs::Metrics().GetCounter("candidate.pages_skipped"),
      obs::Metrics().GetCounter("candidate.vertices_filtered"),
  };
  return m;
}

}  // namespace

WindowScheduler::WindowScheduler(ExecContext* ctx, MatchPass* match,
                                 std::size_t total_frames,
                                 bool paper_allocation)
    : ctx_(*ctx),
      match_(*match),
      total_frames_(total_frames),
      paper_allocation_(paper_allocation) {}

Status WindowScheduler::Execute() {
  obs::TraceSpan span(ctx_.trace, "scheduler.execute");
  const PageId num_pages = ctx_.disk->num_pages();
  const std::uint32_t num_vertices = ctx_.disk->num_vertices();

  // Frame budgets per level (buffer allocation strategy).
  budgets_ = ComputeFrameBudgets(ctx_.levels, total_frames_,
                                 static_cast<int>(ctx_.cpu_pool->num_threads()),
                                 paper_allocation_);
  frames_needed_ = 0;
  for (std::size_t b : budgets_) frames_needed_ += b;
  DS_CHECK_LE(frames_needed_, total_frames_);

  // Level / group state.
  ctx_.level.resize(ctx_.levels);
  for (std::uint8_t l = 0; l < ctx_.levels; ++l) {
    LevelState& st = ctx_.level[l];
    st.budget = budgets_[l];
    st.window_pages.Resize(num_pages);
    st.per_group.resize(ctx_.num_groups);
    for (std::size_t g = 0; g < ctx_.num_groups; ++g) {
      GroupLevelState& gl = st.per_group[g];
      gl.is_root = ctx_.plan->forests[g].parent_level[l] < 0;
      gl.cps.Resize(num_pages);
      if (gl.is_root) {
        gl.cps.SetAll();  // InitializeCandidateSequences for roots
        // Candidate filter: a root level with a concrete label constraint
        // can only match records in pages that hold at least one vertex
        // of that label — intersect with the catalog's label index before
        // any window is formed (the page-skipping half of DESIGN.md §12).
        const LabelId label =
            ctx_.plan->groups[g].position_label[ctx_.plan->matching_order[l]];
        if (ctx_.candidate_filter && label != kAnyLabel) {
          gl.cps.Intersect(ctx_.disk->PagesWithLabel(label));
          const std::size_t kept = gl.cps.Count();
          if (kept < num_pages) {
            Metrics().pages_skipped->Increment(num_pages - kept);
          }
        }
      } else {
        gl.cvs.Resize(num_vertices);
      }
    }
  }
  ctx_.level_stats.assign(ctx_.levels, LevelStats{});

  ProcessLevel(0);
  ctx_.tasks->Wait();
  Status result = ctx_.first_error();
  if (result.ok() && ctx_.Cancelled()) {
    return Status::Cancelled("query session cancelled");
  }
  return result;
}

void WindowScheduler::ProcessLevel(std::uint8_t l) {
  LevelState& st = ctx_.level[l];
  const PageId num_pages = ctx_.disk->num_pages();

  // Merged candidate page sequence for this level across all v-groups.
  Bitmap merged(num_pages);
  for (std::size_t g = 0; g < ctx_.num_groups; ++g) {
    merged.Union(st.per_group[g].cps);
  }

  // Total-order page pruning against ancestor windows: position order
  // implies non-decreasing page order (Lemma 1).
  std::size_t lo = 0;
  std::size_t hi = num_pages == 0 ? 0 : num_pages - 1;
  const std::uint8_t pos_l = ctx_.plan->matching_order[l];
  for (std::uint8_t a = 0; a < l; ++a) {
    const std::uint8_t pos_a = ctx_.plan->matching_order[a];
    if (pos_l < pos_a) {
      hi = std::min<std::size_t>(hi, ctx_.level[a].max_page);
    } else {
      lo = std::max<std::size_t>(lo, ctx_.level[a].min_page);
    }
  }

  std::size_t next = merged.FindNext(lo);
  while (next <= hi && next < merged.size() && !ctx_.ShouldStop()) {
    // Form one window: up to `budget` non-borrowed pages plus any pages
    // pinned by ancestor windows (they cost no frame — the paper's
    // variably-sized disjoint windows). A vertex whose adjacency spans
    // several pages is never split across windows: its continuation
    // pages are pulled in with its head page (§5.2 large-degree case),
    // overshooting the budget by at most MaxVertexPages()-1 frames,
    // which the pool reserves as slack.
    st.window_pages.ClearAll();  // scratch for dedupe during formation
    st.pinned_pages.clear();
    std::vector<PageId> window_list;
    std::size_t owned = 0;
    auto add_page = [&](PageId pid, bool borrowed) {
      st.window_pages.Set(pid);
      window_list.push_back(pid);
      if (borrowed) {
        ++ctx_.level_stats[l].borrowed_pages;
      } else {
        ++owned;
        ++ctx_.level_stats[l].owned_pages;
      }
    };
    while (next <= hi && next < merged.size()) {
      const PageId pid = static_cast<PageId>(next);
      if (!st.window_pages.Test(pid)) {
        const bool borrowed = ctx_.PinnedByAncestor(pid, l);
        if (!borrowed && owned >= st.budget) break;
        add_page(pid, borrowed);
        for (PageId cont = pid; ctx_.disk->SpansBeyond(cont);) {
          ++cont;
          if (!st.window_pages.Test(cont)) {
            add_page(cont, ctx_.PinnedByAncestor(cont, l));
          }
        }
      }
      next = merged.FindNext(next + 1);
    }
    if (window_list.empty()) break;
    DispatchWindow(l, window_list, /*attempt=*/0);
  }
  if (IsStreamed(l)) DrainLastLevel(l);
}

void WindowScheduler::DrainLastLevel(std::uint8_t l) {
  // Every round re-dispatches the previous round's starved runs, so round
  // `attempt` drains the runs dispatched at that attempt.
  for (int attempt = 0;; ++attempt) {
    const std::vector<PageId> starved = match_.DrainLastLevel();
    if (starved.empty()) return;
    DegradeAndRetry(l, starved, attempt);
  }
}

void WindowScheduler::DispatchWindow(std::uint8_t l,
                                     const std::vector<PageId>& pages,
                                     int attempt) {
  if (pages.empty() || ctx_.ShouldStop()) return;
  LevelState& st = ctx_.level[l];
  st.window_pages.ClearAll();
  for (PageId pid : pages) st.window_pages.Set(pid);
  st.min_page = pages.front();
  st.max_page = pages.back();
  ++ctx_.level_stats[l].windows;
  Metrics().windows->Increment();
  Metrics().window_pages->Record(pages.size());
  st.has_window = true;

  if (IsStreamed(l)) {
    // Starved runs come back from the drain at the end of ProcessLevel.
    match_.ProcessLastLevelWindow(l, pages);
    st.has_window = false;
    NotifyProgress();
    return;
  }
  const Status result = ProcessInnerWindow(l, pages);
  st.has_window = false;
  if (result.ok()) NotifyProgress();
  if (result.code() == StatusCode::kResourceExhausted) {
    DegradeAndRetry(l, pages, attempt);
  }
  // Fatal statuses were already recorded in the ExecContext; the level
  // loops unwind via ShouldStop().
}

void WindowScheduler::DegradeAndRetry(std::uint8_t l,
                                      const std::vector<PageId>& pages,
                                      int attempt) {
  if (ctx_.ShouldStop()) return;
  ++ctx_.level_stats[l].degraded_windows;
  Metrics().windows_degraded->Increment();
  // Streamed runs already pass the frame gate one by one, so a starved
  // last-level page list has nothing left to shrink.
  const std::size_t split = IsStreamed(l) ? 0 : SplitPoint(pages);
  if (split == 0) {
    // Cannot shrink any further (a single page, one unbreakable
    // multi-page adjacency chain, or streamed runs). Back off — sibling
    // sessions may be about to release frames — and retry a bounded
    // number of times.
    if (attempt >= kMaxStarvedAttempts) {
      ctx_.SetError(Status::ResourceExhausted(
          "level " + std::to_string(l) + " window of " +
          std::to_string(pages.size()) +
          " page(s) could not be pinned after " +
          std::to_string(kMaxStarvedAttempts) + " degraded attempts"));
      return;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1 << attempt));
    DispatchWindow(l, pages, attempt + 1);
    return;
  }
  // Shrink the window and continue: each half is a valid (smaller)
  // disjoint window over the same candidate pages.
  Metrics().windows_split->Increment();
  std::vector<PageId> first(pages.begin(),
                            pages.begin() + static_cast<std::ptrdiff_t>(split));
  std::vector<PageId> second(pages.begin() + static_cast<std::ptrdiff_t>(split),
                             pages.end());
  DispatchWindow(l, first, attempt);
  DispatchWindow(l, second, attempt);
}

std::size_t WindowScheduler::SplitPoint(
    const std::vector<PageId>& pages) const {
  if (pages.size() < 2) return 0;
  // pages[i-1] chains into pages[i] when one vertex's adjacency continues
  // across the page boundary; such chains must stay in one window.
  auto chained = [&](std::size_t i) {
    return pages[i] == pages[i - 1] + 1 && ctx_.disk->SpansBeyond(pages[i - 1]);
  };
  std::size_t split = pages.size() / 2;
  while (split < pages.size() && chained(split)) ++split;
  if (split < pages.size()) return split;
  split = pages.size() / 2;
  while (split > 0 && chained(split)) --split;
  return split;
}

Status WindowScheduler::ProcessInnerWindow(std::uint8_t l,
                                           const std::vector<PageId>& pages) {
  LevelState& st = ctx_.level[l];

  // Pin everything (async; borrowed pages are hits) and build the index.
  struct Arrival {
    PageId pid;
    Status status;
    const std::byte* data = nullptr;
  };
  std::vector<Arrival> arrivals(pages.size());
  std::latch arrived(static_cast<std::ptrdiff_t>(pages.size()));
  for (std::size_t i = 0; i < pages.size(); ++i) arrivals[i].pid = pages[i];
  // One batched submit for the whole window: the backend sees the page
  // set at once (the paper's per-window AsyncRead).
  ctx_.pool->PinMany(pages, [&arrivals, &arrived](std::size_t i, Status s,
                                                  const std::byte* data) {
    arrivals[i].status = std::move(s);
    arrivals[i].data = data;
    arrived.count_down();
  });
  arrived.wait();
  Status fatal;
  Status starved;
  for (const Arrival& a : arrivals) {
    if (a.status.ok()) continue;
    if (a.status.code() == StatusCode::kResourceExhausted) {
      if (starved.ok()) starved = a.status;
    } else if (fatal.ok()) {
      fatal = a.status;
    }
  }
  if (!fatal.ok() || !starved.ok() || ctx_.ShouldStop()) {
    // Release whatever arrived; nothing was enumerated, so a starved
    // window can be re-dispatched (smaller) without double counting.
    for (const Arrival& a : arrivals) {
      if (a.data != nullptr) ctx_.pool->Unpin(a.pid);
    }
    if (!fatal.ok()) {
      ctx_.SetError(fatal);
      return fatal;
    }
    return starved;  // OK when we are merely stopping
  }
  st.index.Clear();
  for (const Arrival& a : arrivals) {
    st.pinned_pages.push_back(a.pid);
    st.index.AddPage(a.data, ctx_.disk->page_size());
  }

  // ComputeCandidateSequences: recompute cvs/cps of every child level
  // from this window's current vertex windows.
  for (std::size_t g = 0; g < ctx_.num_groups; ++g) {
    ComputeChildCandidates(l, g);
  }

  if (l == 0) {
    match_.LaunchInternalTasks();
    if (ctx_.levels > 1) ProcessLevel(1);
    ctx_.tasks->Wait();  // join internal (and any external) tasks
  } else {
    ProcessLevel(static_cast<std::uint8_t>(l + 1));
  }

  // ClearCandidateSequences for children + release the window.
  for (std::size_t g = 0; g < ctx_.num_groups; ++g) {
    ClearChildCandidates(l, g);
  }
  for (PageId pid : st.pinned_pages) ctx_.pool->Unpin(pid);
  st.pinned_pages.clear();
  return Status::OK();
}

void WindowScheduler::ComputeChildCandidates(std::uint8_t l, std::size_t g) {
  const VGroupForest& forest = ctx_.plan->forests[g];
  const GroupLevelState& parent_state = ctx_.level[l].per_group[g];
  std::vector<std::uint8_t> children;
  for (std::uint8_t c = static_cast<std::uint8_t>(l + 1); c < ctx_.levels;
       ++c) {
    if (forest.parent_level[c] == static_cast<int>(l)) children.push_back(c);
  }
  if (children.empty()) return;
  for (std::uint8_t c : children) {
    GroupLevelState& child = ctx_.level[c].per_group[g];
    child.cvs.ClearAll();
    child.cps.ClearAll();
  }
  const std::uint8_t pos_parent = ctx_.plan->matching_order[l];
  const std::span<const PageId> first_page = ctx_.disk->FirstPageMap();
  const std::span<const LabelId> data_labels = ctx_.data_labels;
  std::uint64_t candidates = 0;
  std::uint64_t filtered = 0;
  for (const WindowIndex::Entry& e : ctx_.level[l].index.entries()) {
    // Current vertex window: resident vertices passing the level's cvs.
    if (!parent_state.is_root &&
        (e.vertex >= parent_state.cvs.size() ||
         !parent_state.cvs.Test(e.vertex))) {
      continue;
    }
    for (std::uint8_t c : children) {
      GroupLevelState& child = ctx_.level[c].per_group[g];
      const bool child_larger = ctx_.plan->matching_order[c] > pos_parent;
      // Candidate filter: adjacency entries whose data label cannot match
      // the child level's constraint never enter cvs/cps, so pages only
      // reachable through them are never windowed at the child level.
      const LabelId child_label =
          ctx_.candidate_filter
              ? ctx_.plan->groups[g]
                    .position_label[ctx_.plan->matching_order[c]]
              : kAnyLabel;
      for (VertexId w : e.adjacency) {
        if (child_larger ? (w > e.vertex) : (w < e.vertex)) {
          if (child_label != kAnyLabel) {
            const LabelId wl =
                data_labels.empty() ? LabelId{0} : data_labels[w];
            if (wl != child_label) {
              ++filtered;
              continue;
            }
          }
          child.cvs.Set(w);
          child.cps.Set(first_page[w]);
          ++candidates;
        }
      }
    }
  }
  if (candidates > 0) Metrics().candidate_vertices->Increment(candidates);
  if (filtered > 0) Metrics().vertices_filtered->Increment(filtered);
}

void WindowScheduler::NotifyProgress() {
  if (ctx_.progress == nullptr) return;
  // Both counters are monotone and this thread reads them serially, so
  // successive reports never decrease (in-flight tasks may make a report
  // stale, never wrong).
  (*ctx_.progress)(match_.internal_embeddings() + match_.external_embeddings());
}

void WindowScheduler::ClearChildCandidates(std::uint8_t l, std::size_t g) {
  const VGroupForest& forest = ctx_.plan->forests[g];
  for (std::uint8_t c = static_cast<std::uint8_t>(l + 1); c < ctx_.levels;
       ++c) {
    if (forest.parent_level[c] != static_cast<int>(l)) continue;
    GroupLevelState& child = ctx_.level[c].per_group[g];
    child.cvs.ClearAll();
    child.cps.ClearAll();
  }
}

std::vector<std::size_t> WindowScheduler::ComputeFrameBudgets(
    std::uint8_t levels, std::size_t total, int num_threads,
    bool paper_allocation) {
  DS_CHECK_GE(levels, 1);
  std::vector<std::size_t> budgets(levels, 1);
  if (levels == 1) {
    budgets[0] = std::max<std::size_t>(1, total);
    return budgets;
  }
  if (!paper_allocation) {
    const std::size_t each = std::max<std::size_t>(1, total / levels);
    std::fill(budgets.begin(), budgets.end(), each);
    return budgets;
  }
  // Paper strategy: last level gets 2 frames per thread (one being read,
  // one in flight); level 0 gets two thirds of the rest; middle levels
  // split the final third equally.
  std::size_t last = std::min<std::size_t>(
      std::max<std::size_t>(2, 2 * static_cast<std::size_t>(num_threads)),
      total / 2);
  last = std::max<std::size_t>(last, 1);
  const std::size_t rest = total > last ? total - last : 1;
  budgets[levels - 1] = last;
  if (levels == 2) {
    budgets[0] = std::max<std::size_t>(1, rest);
    return budgets;
  }
  const std::size_t first = std::max<std::size_t>(1, rest * 2 / 3);
  const std::size_t middle_total = rest > first ? rest - first : 0;
  const std::size_t num_middle = static_cast<std::size_t>(levels) - 2;
  const std::size_t each_middle =
      std::max<std::size_t>(1, middle_total / num_middle);
  budgets[0] = first;
  for (std::uint8_t l = 1; l + 1 < levels; ++l) budgets[l] = each_middle;
  // Rounding may have pushed the sum past `total` (middle floors of 1);
  // shave the largest budgets until the split fits.
  std::size_t sum = 0;
  for (std::size_t b : budgets) sum += b;
  while (sum > total) {
    auto it = std::max_element(budgets.begin(), budgets.end());
    DS_CHECK_GT(*it, 1u);
    --*it;
    --sum;
  }
  return budgets;
}

}  // namespace dualsim
