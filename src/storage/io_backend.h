#ifndef DUALSIM_STORAGE_IO_BACKEND_H_
#define DUALSIM_STORAGE_IO_BACKEND_H_

#include <condition_variable>
#include <cstddef>
#include <functional>
#include <mutex>
#include <string>
#include <vector>

#include "storage/page.h"
#include "util/status.h"

namespace dualsim {

class PageFile;
class ThreadPool;

namespace obs {
class Counter;
class Histogram;
}  // namespace obs

/// One asynchronous page read: page `pid` into `dst` (page_size bytes),
/// then `done(status)` exactly once.
struct IoReadRequest {
  PageId pid = kInvalidPage;
  std::byte* dst = nullptr;
  std::function<void(Status)> done;
};

/// The physical-read engine behind PageFile/BufferPool: every read —
/// synchronous pins, async pins, whole-window batches — is a positional
/// pread on a worker of the shared I/O thread pool, and its completion
/// runs on that worker. This is the paper's AsyncRead: enumeration keeps
/// running while the pool's threads wait on the device.
///
/// Contract:
///  - every submitted request's `done` runs exactly once, on an I/O pool
///    thread;
///  - each read goes through PageFile::ReadPage, which consults the fault
///    plan before touching the device and maintains the pagefile.*
///    metrics (so pagefile.reads >= bufferpool.misses holds);
///  - destruction drains: outstanding completions run before the
///    destructor returns.
///
/// Observability: io.threadpool.reads_submitted / _completed / _failed /
/// reads_batched counters, io.threadpool.batches, log2 histograms of batch
/// size and submit-to-complete latency, and the io.backend label
/// ("threadpool") that bench_e2e uses to find the latency histogram.
///
/// `file` and `io_pool` must outlive the backend.
class IoBackend {
 public:
  IoBackend(PageFile* file, ThreadPool* io_pool);
  ~IoBackend();

  IoBackend(const IoBackend&) = delete;
  IoBackend& operator=(const IoBackend&) = delete;

  /// Synchronous read of one page, consulting the fault plan. The calling
  /// thread blocks until the read completes (BufferPool::Pin path).
  Status ReadPage(PageId pid, std::byte* dst);

  /// Asynchronous read of one page. Never blocks: the request is queued
  /// on the I/O pool, so completion handlers may resubmit
  /// (retry-with-backoff) without deadlocking.
  void SubmitRead(IoReadRequest request);

  /// Batched submission: one pool task per page. This is the
  /// window-granular AsyncRead path — BufferPool::PinMany funnels a
  /// scheduler window's missing pages here in one call.
  void SubmitReads(std::vector<IoReadRequest> batch);

  /// Blocks until every submitted read has completed.
  void Drain();

 private:
  struct Metrics {
    obs::Counter* submitted;
    obs::Counter* completed;
    obs::Counter* failed;
    obs::Counter* batches;
    obs::Counter* batched_reads;
    obs::Histogram* batch_size;
    obs::Histogram* submit_to_complete_us;
  };

  void Dispatch(IoReadRequest request);

  PageFile* file_;
  ThreadPool* pool_;
  Metrics metrics_;

  std::mutex mutex_;
  std::condition_variable drained_cv_;
  std::size_t inflight_ = 0;
};

namespace io_internal {

/// Full-length positional read with EINTR retry and short-read looping —
/// the single place a raw pread lives. Used by PageFile for page reads and
/// for the short-read prefix of an injected fault.
Status PreadFull(int fd, const std::string& path, std::byte* out,
                 std::size_t len, long long offset);

}  // namespace io_internal

}  // namespace dualsim

#endif  // DUALSIM_STORAGE_IO_BACKEND_H_
