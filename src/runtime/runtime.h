#ifndef DUALSIM_RUNTIME_RUNTIME_H_
#define DUALSIM_RUNTIME_RUNTIME_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>

#include "runtime/plan_cache.h"
#include "storage/buffer_pool.h"
#include "storage/disk_graph.h"
#include "storage/io_backend.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dualsim::incr {
struct IncrState;
}  // namespace dualsim::incr

namespace dualsim {

/// Configuration of the shared execution substrate (resource knobs only;
/// per-query knobs live in SessionOptions / EngineOptions).
struct RuntimeOptions {
  /// Buffer frames. 0 = derive from `buffer_fraction` of the page count.
  /// An explicit value is a hard budget: a query whose plan needs more
  /// frames fails with InvalidArgument instead of growing the pool.
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
  /// Plan-cache capacity (distinct canonical queries kept hot).
  std::size_t plan_cache_capacity = PlanCache::kDefaultCapacity;
};

/// Checks a RuntimeOptions for degenerate values (io_threads < 1,
/// num_threads < 0, a non-positive buffer_fraction with no explicit
/// num_frames, negative max_read_retries), returning InvalidArgument with
/// a description of the first offending knob. Front ends call this before
/// constructing a Runtime; the constructor also records the result (see
/// init_status()) so a misconfigured runtime fails admission instead of
/// building a degenerate pool.
Status ValidateRuntimeOptions(const RuntimeOptions& options);

/// Aggregated counters across every session the runtime has served.
struct RuntimeStats {
  IoStats io;  // buffer-pool totals (survives pool growth)
  std::uint64_t sessions_completed = 0;
  std::size_t num_frames = 0;
  PlanCache::CacheStats plan_cache;
};

/// One machine's execution substrate for one on-disk graph: the CPU pool,
/// the I/O pool, the buffer pool, and the plan cache, shared by all query
/// sessions (the paper's setup owns these once per machine, not once per
/// query). Concurrent QuerySession::Run calls are safe: each session is
/// admitted with a frame quota (Admit), carves its per-level budgets out
/// of that quota with the paper's allocation strategy, and joins only its
/// own tasks via a TaskGroup, so sessions share the pools without sharing
/// fate.
///
/// Frame admission: quotas are reservations against the pool. A session
/// whose minimum does not fit waits until running sessions release their
/// quotas; when the pool itself is too small for a plan's minimum it is
/// grown — but only while no session is active (growth replaces the pool),
/// and never past an explicitly configured `num_frames`.
class Runtime {
 public:
  explicit Runtime(DiskGraph* disk, RuntimeOptions options = {});
  ~Runtime();

  Runtime(const Runtime&) = delete;
  Runtime& operator=(const Runtime&) = delete;

  DiskGraph* disk() { return disk_; }
  const RuntimeOptions& options() const { return options_; }

  /// ValidateRuntimeOptions verdict recorded at construction. A runtime
  /// built from invalid options clamps its pools to safe minimums (the
  /// constructor cannot fail) but refuses every Admit() with this status —
  /// check it up front to surface the configuration error early.
  const Status& init_status() const { return init_status_; }
  ThreadPool& cpu_pool() { return *cpu_pool_; }
  ThreadPool& io_pool() { return *io_pool_; }
  PlanCache& plan_cache() { return plan_cache_; }

  /// Current pool size in frames (may grow between runs).
  std::size_t num_frames() const;

  /// A session's frame reservation; releases itself on destruction. The
  /// buffer-pool pointer is stable for the lease's lifetime (the pool is
  /// only replaced while no lease is outstanding).
  class FrameLease {
   public:
    FrameLease() = default;
    FrameLease(FrameLease&& other) noexcept { *this = std::move(other); }
    FrameLease& operator=(FrameLease&& other) noexcept;
    ~FrameLease() { Release(); }

    FrameLease(const FrameLease&) = delete;
    FrameLease& operator=(const FrameLease&) = delete;

    std::size_t frames() const { return frames_; }
    BufferPool* pool() const { return pool_; }

   private:
    friend class Runtime;
    FrameLease(Runtime* runtime, BufferPool* pool, std::size_t frames)
        : runtime_(runtime), pool_(pool), frames_(frames) {}
    void Release();

    Runtime* runtime_ = nullptr;
    BufferPool* pool_ = nullptr;
    std::size_t frames_ = 0;
  };

  /// Admits one session run: reserves between `min_frames` and
  /// `max_frames` frames (max_frames = 0 grants everything unreserved).
  /// Blocks while other sessions hold too many frames; grows the pool when
  /// it is smaller than `min_frames` (waiting for running sessions first).
  /// Fails with InvalidArgument when an explicit `num_frames` budget is
  /// smaller than `min_frames`.
  StatusOr<FrameLease> Admit(std::size_t min_frames, std::size_t max_frames);

  RuntimeStats stats() const;

  /// Evolving-graph state (delta log + overlay over disk()), created
  /// lazily on first use and shared by every connection of a service. One
  /// instance per runtime: its mutex is the serialization point for the
  /// update pipeline (incr/incr_state.h).
  incr::IncrState& incr_state();

 private:
  /// Replaces the buffer pool with one of >= `min_frames` frames.
  /// Requires the admission lock held and no active sessions.
  void GrowPoolLocked(std::size_t min_frames);

  void Release(std::size_t frames);

  DiskGraph* disk_;
  RuntimeOptions options_;
  Status init_status_;
  std::unique_ptr<ThreadPool> cpu_pool_;
  std::unique_ptr<ThreadPool> io_pool_;
  std::unique_ptr<IoBackend> io_backend_;
  PlanCache plan_cache_;

  mutable std::mutex mutex_;
  std::condition_variable admission_cv_;
  // Destruction order (explicit in ~Runtime): the buffer pool drains its
  // in-flight reads before the backend dies, and the backend drains before
  // the I/O pool dies.
  std::unique_ptr<BufferPool> buffer_pool_;
  std::size_t pool_frames_ = 0;
  std::size_t base_frames_ = 0;  // derived sizing floor for growth
  std::size_t reserved_ = 0;
  std::size_t active_sessions_ = 0;
  std::uint64_t sessions_completed_ = 0;
  IoStats retired_io_;  // stats of replaced pools

  std::once_flag incr_once_;
  std::unique_ptr<incr::IncrState> incr_state_;
};

}  // namespace dualsim

#endif  // DUALSIM_RUNTIME_RUNTIME_H_
