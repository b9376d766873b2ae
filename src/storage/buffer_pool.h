#ifndef DUALSIM_STORAGE_BUFFER_POOL_H_
#define DUALSIM_STORAGE_BUFFER_POOL_H_

#include <algorithm>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <functional>
#include <list>
#include <memory>
#include <mutex>
#include <span>
#include <unordered_map>
#include <vector>

#include "storage/io_backend.h"
#include "storage/page.h"
#include "storage/page_file.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace dualsim {

/// Counters maintained by the buffer pool. `physical_reads` is the number
/// the paper's I/O cost model (Eq. 1) counts; experiments report it next to
/// elapsed time.
struct IoStats {
  std::uint64_t physical_reads = 0;
  std::uint64_t logical_hits = 0;
  std::uint64_t evictions = 0;
  std::uint64_t bytes_read = 0;
  std::uint64_t read_retries = 0;   // extra attempts after a failed read
  std::uint64_t failed_reads = 0;   // reads that failed after all retries

  IoStats& operator+=(const IoStats& other) {
    physical_reads += other.physical_reads;
    logical_hits += other.logical_hits;
    evictions += other.evictions;
    bytes_read += other.bytes_read;
    read_retries += other.read_retries;
    failed_reads += other.failed_reads;
    return *this;
  }
};

/// Counter delta `a - b` (for per-run stats over a shared, persistent
/// pool: snapshot before, subtract after). Saturates at zero per field so
/// a concurrent ResetStats cannot underflow the delta.
inline IoStats operator-(IoStats a, const IoStats& b) {
  a.physical_reads -= std::min(a.physical_reads, b.physical_reads);
  a.logical_hits -= std::min(a.logical_hits, b.logical_hits);
  a.evictions -= std::min(a.evictions, b.evictions);
  a.bytes_read -= std::min(a.bytes_read, b.bytes_read);
  a.read_retries -= std::min(a.read_retries, b.read_retries);
  a.failed_reads -= std::min(a.failed_reads, b.failed_reads);
  return a;
}

/// Options controlling simulated device behaviour. The paper evaluates on
/// HDD and SSD; injecting a fixed per-read latency on top of real pread()
/// lets a small database exhibit the same CPU/I-O overlap trade-offs.
struct BufferPoolOptions {
  /// Extra microseconds added to each physical page read (0 = none).
  std::uint32_t read_latency_us = 0;
  /// Extra read attempts after an IOError before the failure is surfaced
  /// (0 = fail fast). Transient device errors — and injected transient
  /// faults — are absorbed here instead of killing the query.
  int max_read_retries = 2;
  /// Backoff before the first retry, doubled per further attempt.
  std::uint32_t retry_backoff_us = 100;
};

/// Frame-based buffer pool over one PageFile, with synchronous and
/// asynchronous (callback-on-arrival) pinning. DualSim drives all disk
/// access through AsyncPin: Algorithm 1/2 issue AsyncRead(pid, callback)
/// and overlap enumeration with the in-flight reads.
///
/// Every physical read goes through the IoBackend (storage/io_backend.h),
/// which runs it on the shared I/O thread pool.
///
/// Replacement is LRU over unpinned frames, but DualSim pins whole windows
/// and unpins them when a window is done, so eviction order is effectively
/// dictated by the engine (as in the paper, which sizes windows to the
/// per-level budget and never relies on the replacement policy for
/// correctness).
class BufferPool {
 public:
  /// Reads through `backend` (not owned; must outlive the pool). This is
  /// the runtime's constructor — the backend is shared across pool
  /// regrowth.
  BufferPool(PageFile* file, std::size_t num_frames, IoBackend* backend,
             BufferPoolOptions options = {});

  /// Convenience constructor: builds and owns a backend over `io_pool`
  /// (tests and tools use this).
  BufferPool(PageFile* file, std::size_t num_frames, ThreadPool* io_pool,
             BufferPoolOptions options = {});
  ~BufferPool();

  BufferPool(const BufferPool&) = delete;
  BufferPool& operator=(const BufferPool&) = delete;

  std::size_t num_frames() const { return frames_.size(); }
  std::size_t page_size() const { return file_->page_size(); }

  /// Pins `pid`, reading it synchronously if absent. On success `*data`
  /// points at the frame contents, valid until the matching Unpin.
  Status Pin(PageId pid, const std::byte** data);

  /// Callback receives the page bytes once resident; the page arrives
  /// pinned and the callee (or its continuation) must Unpin it.
  using PinCallback = std::function<void(Status, PageId, const std::byte*)>;

  /// Pins `pid` asynchronously. If the page is already resident the
  /// callback runs inline on the calling thread; otherwise it runs on a
  /// backend completion thread as soon as the read arrives (the paper's
  /// AsyncRead).
  void PinAsync(PageId pid, PinCallback callback);

  /// Per-element completion for PinMany: the element's index in `pids`,
  /// the pin status, and the frame bytes (nullptr on error). Each element
  /// completes exactly once; hits complete inline on the calling thread.
  using PinManyCallback =
      std::function<void(std::size_t index, Status, const std::byte*)>;

  /// Window-granularity AsyncRead: classifies the whole page set under one
  /// lock pass and hands every miss to the backend as a single batched
  /// submit. Elements that are resident complete inline; duplicates are
  /// legal (the second occurrence piggybacks on the first one's read, each
  /// getting its own pin).
  void PinMany(std::span<const PageId> pids, PinManyCallback callback);

  /// Releases one pin. The data pointer must no longer be used once the
  /// pin count may have reached zero.
  void Unpin(PageId pid);

  /// True when `pid` is resident (regardless of pin state). Used to build
  /// variably-sized windows: pages already in the buffer do not consume a
  /// window slot (paper §5.1).
  bool Contains(PageId pid) const;

  /// Number of frames whose pin count is zero or that are empty, i.e. how
  /// many new pages could be pinned right now.
  std::size_t AvailableFrames() const;

  IoStats stats() const;
  void ResetStats();

 private:
  enum class FrameState { kEmpty, kLoading, kReady };

  struct Frame {
    PageId page = kInvalidPage;
    FrameState state = FrameState::kEmpty;
    std::uint32_t pins = 0;
    std::vector<PinCallback> waiters;  // async pins issued while loading
    std::list<std::uint32_t>::iterator lru_it;
    bool in_lru = false;
  };

  void InitFrames(std::size_t num_frames);

  /// Finds a frame for a new page: a free frame or an LRU victim.
  /// Returns frames_.size() when everything is pinned. Requires lock held.
  std::uint32_t AllocateFrameLocked();

  /// One physical read with bounded retry-with-backoff on IOError (other
  /// codes fail fast) plus the simulated device latency. `*retries`
  /// reports the extra attempts for the caller to fold into stats_.
  Status ReadWithRetry(PageId pid, std::byte* out, std::uint64_t* retries);

  /// Builds the backend request for one async frame load (attempt 0) or a
  /// retry (attempt > 0).
  IoReadRequest MakeLoadRequest(std::uint32_t frame_id, PageId pid,
                                int attempt,
                                std::chrono::steady_clock::time_point start);

  /// Backend completion for an async frame load: resubmits retriable
  /// IOErrors (bounded backoff), then marks the frame ready (or drops it)
  /// and dispatches the waiters. Runs on a backend completion thread.
  void OnLoadComplete(std::uint32_t frame_id, PageId pid, int attempt,
                      std::chrono::steady_clock::time_point start,
                      Status status);

  std::byte* FrameData(std::uint32_t frame_id) {
    return storage_.get() + static_cast<std::size_t>(frame_id) * page_size();
  }

  struct ArenaDeleter {
    void operator()(std::byte* p) const;
  };

  PageFile* file_;
  std::unique_ptr<IoBackend> owned_backend_;  // legacy ctor only
  IoBackend* backend_;
  BufferPoolOptions options_;

  mutable std::mutex mutex_;
  std::condition_variable ready_cv_;
  std::vector<Frame> frames_;
  std::unique_ptr<std::byte[], ArenaDeleter> storage_;
  std::unordered_map<PageId, std::uint32_t> page_table_;
  std::list<std::uint32_t> lru_;  // front = oldest unpinned
  std::vector<std::uint32_t> free_frames_;

  IoStats stats_;
  std::uint64_t inflight_ = 0;
  std::condition_variable inflight_cv_;
};

}  // namespace dualsim

#endif  // DUALSIM_STORAGE_BUFFER_POOL_H_
