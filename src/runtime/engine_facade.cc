/// DualSimEngine is kept as a thin facade over the runtime layer so the
/// original single-query API (and every test/bench built on it) works
/// unchanged: one private Runtime plus one QuerySession per engine.

#include "core/engine.h"

#include "core/window_scheduler.h"
#include "runtime/query_session.h"
#include "runtime/runtime.h"

namespace dualsim {

DualSimEngine::DualSimEngine(DiskGraph* disk, EngineOptions options)
    : disk_(disk), options_(options) {}

DualSimEngine::~DualSimEngine() = default;

StatusOr<EngineStats> DualSimEngine::Run(const QueryGraph& q) {
  return Run(q, FullEmbeddingFn{});
}

StatusOr<EngineStats> DualSimEngine::Run(const QueryGraph& q,
                                         const FullEmbeddingFn& visitor) {
  if (runtime_ == nullptr) {
    RuntimeOptions runtime_options;
    runtime_options.num_frames = options_.num_frames;
    runtime_options.buffer_fraction = options_.buffer_fraction;
    runtime_options.num_threads = options_.num_threads;
    runtime_options.io_threads = options_.io_threads;
    runtime_options.read_latency_us = options_.read_latency_us;
    runtime_options.max_read_retries = options_.max_read_retries;
    runtime_options.retry_backoff_us = options_.retry_backoff_us;
    runtime_ = std::make_shared<Runtime>(disk_, runtime_options);

    SessionOptions session_options;
    session_options.paper_buffer_allocation = options_.paper_buffer_allocation;
    session_options.candidate_filter = options_.candidate_filter;
    session_options.plan = options_.plan;
    session_ = std::make_unique<QuerySession>(runtime_.get(), session_options);
  }
  return session_->Run(q, visitor);
}

std::vector<std::size_t> DualSimEngine::ComputeFrameBudgets(
    std::uint8_t levels, std::size_t total, int num_threads,
    bool paper_allocation) {
  return WindowScheduler::ComputeFrameBudgets(levels, total, num_threads,
                                              paper_allocation);
}

}  // namespace dualsim
