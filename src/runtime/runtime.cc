#include "runtime/runtime.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "incr/incr_state.h"
#include "obs/metrics.h"

namespace dualsim {
namespace {

struct RuntimeMetrics {
  obs::Counter* admissions;
  obs::Counter* admission_waits;
  obs::Counter* pool_growths;
  obs::Counter* sessions_completed;
  obs::Histogram* admission_wait_us;
};

RuntimeMetrics& Metrics() {
  static RuntimeMetrics m{
      obs::Metrics().GetCounter("runtime.admissions"),
      obs::Metrics().GetCounter("runtime.admission_waits"),
      obs::Metrics().GetCounter("runtime.pool_growths"),
      obs::Metrics().GetCounter("runtime.sessions_completed"),
      obs::Metrics().GetHistogram("runtime.admission_wait_us"),
  };
  return m;
}

}  // namespace

Status ValidateRuntimeOptions(const RuntimeOptions& options) {
  if (options.io_threads < 1) {
    return Status::InvalidArgument(
        "RuntimeOptions::io_threads=" + std::to_string(options.io_threads) +
        " (need >= 1: asynchronous page reads require an I/O thread)");
  }
  if (options.num_threads < 0) {
    return Status::InvalidArgument(
        "RuntimeOptions::num_threads=" + std::to_string(options.num_threads) +
        " (need >= 0; 0 means hardware concurrency)");
  }
  if (options.num_frames == 0 && options.buffer_fraction <= 0.0) {
    return Status::InvalidArgument(
        "RuntimeOptions::buffer_fraction=" +
        std::to_string(options.buffer_fraction) +
        " (need > 0 when num_frames is derived from it)");
  }
  if (options.max_read_retries < 0) {
    return Status::InvalidArgument(
        "RuntimeOptions::max_read_retries=" +
        std::to_string(options.max_read_retries) + " (need >= 0)");
  }
  return Status::OK();
}

Runtime::Runtime(DiskGraph* disk, RuntimeOptions options)
    : disk_(disk),
      options_(options),
      init_status_(ValidateRuntimeOptions(options)),
      plan_cache_(options.plan_cache_capacity) {
  cpu_pool_ = std::make_unique<ThreadPool>(
      options_.num_threads > 0
          ? static_cast<std::size_t>(options_.num_threads)
          : std::max(1u, std::thread::hardware_concurrency()));
  io_pool_ = std::make_unique<ThreadPool>(
      static_cast<std::size_t>(std::max(1, options_.io_threads)));

  io_backend_ = std::make_unique<IoBackend>(&disk_->file(), io_pool_.get());

  base_frames_ = options_.num_frames;
  if (base_frames_ == 0) {
    base_frames_ = static_cast<std::size_t>(
        static_cast<double>(disk_->num_pages()) * options_.buffer_fraction);
  }
  base_frames_ = std::max<std::size_t>(base_frames_, 1);
  pool_frames_ = base_frames_;
  buffer_pool_ = std::make_unique<BufferPool>(
      &disk_->file(), pool_frames_, io_backend_.get(),
      BufferPoolOptions{options_.read_latency_us, options_.max_read_retries,
                        options_.retry_backoff_us});
}

Runtime::~Runtime() {
  // The buffer pool drains its in-flight reads before the backend dies;
  // the backend before the I/O pool.
  buffer_pool_.reset();
  io_backend_.reset();
  io_pool_.reset();
  cpu_pool_.reset();
}

std::size_t Runtime::num_frames() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return pool_frames_;
}

incr::IncrState& Runtime::incr_state() {
  std::call_once(incr_once_, [this] {
    incr_state_ = std::make_unique<incr::IncrState>();
    incr_state_->overlay = std::make_unique<incr::GraphOverlay>(disk_);
  });
  return *incr_state_;
}

Runtime::FrameLease& Runtime::FrameLease::operator=(
    FrameLease&& other) noexcept {
  if (this != &other) {
    Release();
    runtime_ = other.runtime_;
    pool_ = other.pool_;
    frames_ = other.frames_;
    other.runtime_ = nullptr;
    other.pool_ = nullptr;
    other.frames_ = 0;
  }
  return *this;
}

void Runtime::FrameLease::Release() {
  if (runtime_ != nullptr) {
    runtime_->Release(frames_);
    runtime_ = nullptr;
    pool_ = nullptr;
    frames_ = 0;
  }
}

void Runtime::GrowPoolLocked(std::size_t min_frames) {
  Metrics().pool_growths->Increment();
  retired_io_ += buffer_pool_->stats();
  buffer_pool_.reset();  // drain before replacing
  pool_frames_ = std::max(base_frames_, min_frames);
  buffer_pool_ = std::make_unique<BufferPool>(
      &disk_->file(), pool_frames_, io_backend_.get(),
      BufferPoolOptions{options_.read_latency_us, options_.max_read_retries,
                        options_.retry_backoff_us});
}

StatusOr<Runtime::FrameLease> Runtime::Admit(std::size_t min_frames,
                                             std::size_t max_frames) {
  min_frames = std::max<std::size_t>(1, min_frames);
  // A runtime built from invalid options never admits work; the pools
  // were clamped to safe minimums only so destruction stays orderly.
  DUALSIM_RETURN_IF_ERROR(init_status_);
  std::unique_lock<std::mutex> lock(mutex_);
  if (options_.num_frames != 0 && min_frames > options_.num_frames) {
    return Status::InvalidArgument(
        "num_frames=" + std::to_string(options_.num_frames) +
        " is below the " + std::to_string(min_frames) +
        " frames this query's plan requires");
  }
  const auto wait_start = std::chrono::steady_clock::now();
  bool waited = false;
  for (;;) {
    if (pool_frames_ < min_frames) {
      // Growing replaces the pool, which invalidates other sessions'
      // pins — wait until the runtime is idle.
      if (active_sessions_ == 0) {
        GrowPoolLocked(min_frames);
        continue;
      }
    } else if (reserved_ + min_frames <= pool_frames_) {
      break;
    }
    waited = true;
    admission_cv_.wait(lock);
  }
  Metrics().admissions->Increment();
  if (waited) {
    Metrics().admission_waits->Increment();
    Metrics().admission_wait_us->Record(static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - wait_start)
            .count()));
  }
  std::size_t grant = pool_frames_ - reserved_;
  if (max_frames != 0) {
    grant = std::min(grant, std::max(max_frames, min_frames));
  }
  reserved_ += grant;
  ++active_sessions_;
  return FrameLease(this, buffer_pool_.get(), grant);
}

void Runtime::Release(std::size_t frames) {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    reserved_ -= frames;
    --active_sessions_;
    ++sessions_completed_;
    Metrics().sessions_completed->Increment();
  }
  admission_cv_.notify_all();
}

RuntimeStats Runtime::stats() const {
  RuntimeStats out;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    out.io = retired_io_;
    out.io += buffer_pool_->stats();
    out.sessions_completed = sessions_completed_;
    out.num_frames = pool_frames_;
  }
  out.plan_cache = plan_cache_.stats();
  return out;
}

}  // namespace dualsim
