#include "storage/buffer_pool.h"

#include <chrono>
#include <new>
#include <thread>

#include "obs/metrics.h"
#include "util/logging.h"

namespace dualsim {
namespace {

/// obs counters, resolved once per process. Invariant kept by every pin
/// path: lookups == hits + misses + starved (each Pin/PinAsync/PinMany
/// element is classified exactly once; a waiter piggybacking on an
/// in-flight read counts as a hit because it triggers no new physical
/// read).
struct PoolMetrics {
  obs::Counter* lookups;
  obs::Counter* hits;
  obs::Counter* misses;
  obs::Counter* starved;
  obs::Counter* evictions;
  obs::Counter* retries;
  obs::Histogram* read_latency_us;
  obs::Histogram* retry_latency_us;
};

PoolMetrics& Metrics() {
  static PoolMetrics m{
      obs::Metrics().GetCounter("bufferpool.lookups"),
      obs::Metrics().GetCounter("bufferpool.hits"),
      obs::Metrics().GetCounter("bufferpool.misses"),
      obs::Metrics().GetCounter("bufferpool.starved"),
      obs::Metrics().GetCounter("bufferpool.evictions"),
      obs::Metrics().GetCounter("bufferpool.retries"),
      obs::Metrics().GetHistogram("bufferpool.read_latency_us"),
      obs::Metrics().GetHistogram("bufferpool.retry_latency_us"),
  };
  return m;
}

/// Frame-arena alignment: every 4 KiB-multiple frame starts on a page
/// boundary.
constexpr std::size_t kArenaAlign = 4096;

}  // namespace

void BufferPool::ArenaDeleter::operator()(std::byte* p) const {
  ::operator delete[](p, std::align_val_t{kArenaAlign});
}

BufferPool::BufferPool(PageFile* file, std::size_t num_frames,
                       IoBackend* backend, BufferPoolOptions options)
    : file_(file), backend_(backend), options_(options) {
  InitFrames(num_frames);
}

BufferPool::BufferPool(PageFile* file, std::size_t num_frames,
                       ThreadPool* io_pool, BufferPoolOptions options)
    : file_(file),
      owned_backend_(std::make_unique<IoBackend>(file, io_pool)),
      backend_(owned_backend_.get()),
      options_(options) {
  InitFrames(num_frames);
}

void BufferPool::InitFrames(std::size_t num_frames) {
  DS_CHECK_GE(num_frames, 1u);
  frames_.resize(num_frames);
  storage_.reset(static_cast<std::byte*>(::operator new[](
      num_frames * file_->page_size(), std::align_val_t{kArenaAlign})));
  free_frames_.reserve(num_frames);
  for (std::uint32_t i = 0; i < num_frames; ++i) {
    free_frames_.push_back(static_cast<std::uint32_t>(num_frames - 1 - i));
  }
}

BufferPool::~BufferPool() {
  // Wait for in-flight async reads so their callbacks don't touch a dead
  // pool.
  std::unique_lock<std::mutex> lock(mutex_);
  inflight_cv_.wait(lock, [this] { return inflight_ == 0; });
}

std::uint32_t BufferPool::AllocateFrameLocked() {
  if (!free_frames_.empty()) {
    const std::uint32_t id = free_frames_.back();
    free_frames_.pop_back();
    return id;
  }
  if (!lru_.empty()) {
    const std::uint32_t victim = lru_.front();
    lru_.pop_front();
    Frame& f = frames_[victim];
    DS_CHECK_EQ(f.pins, 0u);
    DS_CHECK(f.state == FrameState::kReady);
    page_table_.erase(f.page);
    f.page = kInvalidPage;
    f.state = FrameState::kEmpty;
    f.in_lru = false;
    ++stats_.evictions;
    Metrics().evictions->Increment();
    return victim;
  }
  return static_cast<std::uint32_t>(frames_.size());
}

Status BufferPool::ReadWithRetry(PageId pid, std::byte* out,
                                 std::uint64_t* retries) {
  const auto start = std::chrono::steady_clock::now();
  *retries = 0;
  Status status = backend_->ReadPage(pid, out);
  std::uint32_t backoff = options_.retry_backoff_us;
  for (int attempt = 0; attempt < options_.max_read_retries &&
                        status.code() == StatusCode::kIOError;
       ++attempt) {
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
      backoff *= 2;
    }
    ++*retries;
    status = backend_->ReadPage(pid, out);
  }
  if (options_.read_latency_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.read_latency_us));
  }
  const auto elapsed_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  Metrics().read_latency_us->Record(elapsed_us);
  if (*retries > 0) {
    Metrics().retries->Increment(*retries);
    Metrics().retry_latency_us->Record(elapsed_us);
  }
  return status;
}

IoReadRequest BufferPool::MakeLoadRequest(
    std::uint32_t frame_id, PageId pid, int attempt,
    std::chrono::steady_clock::time_point start) {
  IoReadRequest req;
  req.pid = pid;
  req.dst = FrameData(frame_id);
  req.done = [this, frame_id, pid, attempt, start](Status status) {
    OnLoadComplete(frame_id, pid, attempt, start, std::move(status));
  };
  return req;
}

void BufferPool::OnLoadComplete(std::uint32_t frame_id, PageId pid,
                                int attempt,
                                std::chrono::steady_clock::time_point start,
                                Status status) {
  if (status.code() == StatusCode::kIOError &&
      attempt < options_.max_read_retries) {
    // Retry-with-backoff inside the completion. SubmitRead never blocks,
    // so resubmitting from a completion thread cannot deadlock.
    const std::uint32_t backoff = options_.retry_backoff_us << attempt;
    if (backoff > 0) {
      std::this_thread::sleep_for(std::chrono::microseconds(backoff));
    }
    Metrics().retries->Increment();
    {
      std::lock_guard<std::mutex> lock(mutex_);
      ++stats_.read_retries;
    }
    backend_->SubmitRead(MakeLoadRequest(frame_id, pid, attempt + 1, start));
    return;
  }
  if (options_.read_latency_us > 0) {
    std::this_thread::sleep_for(
        std::chrono::microseconds(options_.read_latency_us));
  }
  const auto elapsed_us = static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
  Metrics().read_latency_us->Record(elapsed_us);
  if (attempt > 0) Metrics().retry_latency_us->Record(elapsed_us);

  std::vector<PinCallback> callbacks;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    Frame& f = frames_[frame_id];
    ++stats_.physical_reads;
    stats_.bytes_read += page_size();
    if (!status.ok()) ++stats_.failed_reads;
    if (status.ok()) {
      f.state = FrameState::kReady;
    } else {
      // Failed read: drop the frame; waiters get the error.
      page_table_.erase(pid);
      f.page = kInvalidPage;
      f.state = FrameState::kEmpty;
      // Pins were credited optimistically at request time; undo them.
      f.pins = 0;
      free_frames_.push_back(frame_id);
    }
    callbacks.swap(f.waiters);
    --inflight_;
    if (inflight_ == 0) inflight_cv_.notify_all();
  }
  ready_cv_.notify_all();
  const std::byte* data = status.ok() ? FrameData(frame_id) : nullptr;
  for (PinCallback& cb : callbacks) cb(status, pid, data);
}

Status BufferPool::Pin(PageId pid, const std::byte** data) {
  Metrics().lookups->Increment();
  std::unique_lock<std::mutex> lock(mutex_);
  while (true) {
    auto it = page_table_.find(pid);
    if (it != page_table_.end()) {
      Frame& f = frames_[it->second];
      if (f.state == FrameState::kLoading) {
        // Another thread is reading this page: wait for it.
        ready_cv_.wait(lock);
        continue;  // re-lookup: the load may have failed
      }
      if (f.pins == 0 && f.in_lru) {
        lru_.erase(f.lru_it);
        f.in_lru = false;
      }
      ++f.pins;
      ++stats_.logical_hits;
      Metrics().hits->Increment();
      *data = FrameData(it->second);
      return Status::OK();
    }
    const std::uint32_t frame_id = AllocateFrameLocked();
    if (frame_id == frames_.size()) {
      Metrics().starved->Increment();
      return Status::ResourceExhausted("all buffer frames pinned");
    }
    Frame& f = frames_[frame_id];
    f.page = pid;
    f.state = FrameState::kLoading;
    f.pins = 1;
    page_table_.emplace(pid, frame_id);
    Metrics().misses->Increment();
    lock.unlock();

    std::uint64_t retries = 0;
    const Status status = ReadWithRetry(pid, FrameData(frame_id), &retries);

    lock.lock();
    ++stats_.physical_reads;
    stats_.bytes_read += page_size();
    stats_.read_retries += retries;
    if (!status.ok()) ++stats_.failed_reads;
    std::vector<PinCallback> callbacks;
    callbacks.swap(f.waiters);
    if (!status.ok()) {
      page_table_.erase(pid);
      f.page = kInvalidPage;
      f.state = FrameState::kEmpty;
      f.pins = 0;
      free_frames_.push_back(frame_id);
      lock.unlock();
      ready_cv_.notify_all();
      for (PinCallback& cb : callbacks) cb(status, pid, nullptr);
      return status;
    }
    f.state = FrameState::kReady;
    *data = FrameData(frame_id);
    lock.unlock();
    ready_cv_.notify_all();
    for (PinCallback& cb : callbacks) cb(status, pid, FrameData(frame_id));
    return Status::OK();
  }
}

void BufferPool::PinAsync(PageId pid, PinCallback callback) {
  Metrics().lookups->Increment();
  std::unique_lock<std::mutex> lock(mutex_);
  auto it = page_table_.find(pid);
  if (it != page_table_.end()) {
    Frame& f = frames_[it->second];
    if (f.state == FrameState::kLoading) {
      ++f.pins;  // credited now; OnLoadComplete hands the pin to callback
      f.waiters.push_back(std::move(callback));
      Metrics().hits->Increment();
      return;
    }
    if (f.pins == 0 && f.in_lru) {
      lru_.erase(f.lru_it);
      f.in_lru = false;
    }
    ++f.pins;
    ++stats_.logical_hits;
    Metrics().hits->Increment();
    const std::byte* data = FrameData(it->second);
    lock.unlock();
    callback(Status::OK(), pid, data);
    return;
  }
  const std::uint32_t frame_id = AllocateFrameLocked();
  if (frame_id == frames_.size()) {
    Metrics().starved->Increment();
    lock.unlock();
    callback(Status::ResourceExhausted("all buffer frames pinned"), pid,
             nullptr);
    return;
  }
  Frame& f = frames_[frame_id];
  f.page = pid;
  f.state = FrameState::kLoading;
  f.pins = 1;
  f.waiters.push_back(std::move(callback));
  page_table_.emplace(pid, frame_id);
  Metrics().misses->Increment();
  ++inflight_;
  lock.unlock();
  backend_->SubmitRead(MakeLoadRequest(frame_id, pid, /*attempt=*/0,
                                       std::chrono::steady_clock::now()));
}

void BufferPool::PinMany(std::span<const PageId> pids,
                         PinManyCallback callback) {
  if (pids.empty()) return;
  Metrics().lookups->Increment(pids.size());

  // Inline completions (hits and starvation) delivered after the lock is
  // released; misses collected into one batched submit.
  struct Inline {
    std::size_t index;
    Status status;
    const std::byte* data;
  };
  std::vector<Inline> inline_done;
  std::vector<std::uint32_t> miss_frames;
  std::vector<std::size_t> miss_indices;

  {
    std::unique_lock<std::mutex> lock(mutex_);
    for (std::size_t i = 0; i < pids.size(); ++i) {
      const PageId pid = pids[i];
      auto it = page_table_.find(pid);
      if (it != page_table_.end()) {
        Frame& f = frames_[it->second];
        if (f.state == FrameState::kLoading) {
          ++f.pins;
          f.waiters.push_back(
              [callback, i](Status s, PageId, const std::byte* data) {
                callback(i, std::move(s), data);
              });
          Metrics().hits->Increment();
          continue;
        }
        if (f.pins == 0 && f.in_lru) {
          lru_.erase(f.lru_it);
          f.in_lru = false;
        }
        ++f.pins;
        ++stats_.logical_hits;
        Metrics().hits->Increment();
        inline_done.push_back({i, Status::OK(), FrameData(it->second)});
        continue;
      }
      const std::uint32_t frame_id = AllocateFrameLocked();
      if (frame_id == frames_.size()) {
        Metrics().starved->Increment();
        inline_done.push_back(
            {i, Status::ResourceExhausted("all buffer frames pinned"),
             nullptr});
        continue;
      }
      Frame& f = frames_[frame_id];
      f.page = pid;
      f.state = FrameState::kLoading;
      f.pins = 1;
      f.waiters.push_back(
          [callback, i](Status s, PageId, const std::byte* data) {
            callback(i, std::move(s), data);
          });
      page_table_.emplace(pid, frame_id);
      Metrics().misses->Increment();
      ++inflight_;
      miss_frames.push_back(frame_id);
      miss_indices.push_back(i);
    }
  }

  for (Inline& d : inline_done) {
    callback(d.index, std::move(d.status), d.data);
  }
  if (miss_frames.empty()) return;

  const auto start = std::chrono::steady_clock::now();
  std::vector<IoReadRequest> batch;
  batch.reserve(miss_frames.size());
  for (std::size_t k = 0; k < miss_frames.size(); ++k) {
    batch.push_back(MakeLoadRequest(miss_frames[k], pids[miss_indices[k]],
                                    /*attempt=*/0, start));
  }
  backend_->SubmitReads(std::move(batch));
}

void BufferPool::Unpin(PageId pid) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = page_table_.find(pid);
  DS_CHECK(it != page_table_.end());
  Frame& f = frames_[it->second];
  DS_CHECK_GT(f.pins, 0u);
  if (--f.pins == 0 && f.state == FrameState::kReady) {
    lru_.push_back(it->second);
    f.lru_it = std::prev(lru_.end());
    f.in_lru = true;
  }
}

bool BufferPool::Contains(PageId pid) const {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = page_table_.find(pid);
  return it != page_table_.end() &&
         frames_[it->second].state == FrameState::kReady;
}

std::size_t BufferPool::AvailableFrames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return free_frames_.size() + lru_.size();
}

IoStats BufferPool::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void BufferPool::ResetStats() {
  std::lock_guard<std::mutex> lock(mutex_);
  stats_ = IoStats{};
}

}  // namespace dualsim
