#include "storage/io_backend.h"

#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <utility>

#include "obs/metrics.h"
#include "storage/page_file.h"
#include "util/thread_pool.h"

namespace dualsim {

namespace io_internal {

Status PreadFull(int fd, const std::string& path, std::byte* out,
                 std::size_t len, long long offset) {
  std::size_t done = 0;
  while (done < len) {
    const ssize_t n =
        ::pread(fd, out + done, len - done,
                static_cast<off_t>(offset) + static_cast<off_t>(done));
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("pread " + path + ": " + std::strerror(errno));
    }
    if (n == 0) {
      return Status::IOError("short read from " + path);
    }
    done += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace io_internal

IoBackend::IoBackend(PageFile* file, ThreadPool* io_pool)
    : file_(file),
      pool_(io_pool),
      metrics_{
          obs::Metrics().GetCounter("io.threadpool.reads_submitted"),
          obs::Metrics().GetCounter("io.threadpool.reads_completed"),
          obs::Metrics().GetCounter("io.threadpool.reads_failed"),
          obs::Metrics().GetCounter("io.threadpool.batches"),
          obs::Metrics().GetCounter("io.threadpool.reads_batched"),
          obs::Metrics().GetHistogram("io.threadpool.batch_size"),
          obs::Metrics().GetHistogram("io.threadpool.submit_to_complete_us"),
      } {
  obs::Metrics().SetLabel("io.backend", "threadpool");
}

IoBackend::~IoBackend() { Drain(); }

Status IoBackend::ReadPage(PageId pid, std::byte* dst) {
  return file_->ReadPage(pid, dst);
}

void IoBackend::SubmitRead(IoReadRequest request) {
  metrics_.submitted->Increment();
  Dispatch(std::move(request));
}

void IoBackend::SubmitReads(std::vector<IoReadRequest> batch) {
  if (batch.empty()) return;
  metrics_.submitted->Increment(batch.size());
  metrics_.batches->Increment();
  metrics_.batched_reads->Increment(batch.size());
  metrics_.batch_size->Record(batch.size());
  for (IoReadRequest& request : batch) Dispatch(std::move(request));
}

void IoBackend::Drain() {
  std::unique_lock<std::mutex> lock(mutex_);
  drained_cv_.wait(lock, [this] { return inflight_ == 0; });
}

void IoBackend::Dispatch(IoReadRequest request) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    ++inflight_;
  }
  const auto start = std::chrono::steady_clock::now();
  pool_->Enqueue([this, start, request = std::move(request)]() {
    Status status = file_->ReadPage(request.pid, request.dst);
    metrics_.completed->Increment();
    if (!status.ok()) metrics_.failed->Increment();
    metrics_.submit_to_complete_us->Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - start)
            .count()));
    request.done(std::move(status));
    {
      std::lock_guard<std::mutex> lock(mutex_);
      --inflight_;
      if (inflight_ == 0) drained_cv_.notify_all();
    }
  });
}

}  // namespace dualsim
