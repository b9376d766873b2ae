#include "storage/io_backend.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <latch>
#include <unistd.h>
#include <vector>

#include "obs/metrics.h"
#include "storage/fault_injection.h"
#include "storage/page_file.h"
#include "util/thread_pool.h"

namespace dualsim {
namespace {

constexpr std::size_t kPage = 256;
constexpr PageId kPages = 64;

/// Instantiated once, for the one page reader, under the name its
/// io.backend metrics label reports, so case ids read
/// Backends/IoBackendTest.<Case>/threadpool.
class IoBackendTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dualsim_io_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    auto file = PageFile::Create((dir_ / "io.pages").string(), kPage);
    ASSERT_TRUE(file.ok());
    file_ = std::move(*file);
    std::vector<std::byte> page(kPage);
    for (PageId pid = 0; pid < kPages; ++pid) {
      std::memset(page.data(), static_cast<int>(pid % 251 + 1), kPage);
      ASSERT_TRUE(file_->WritePage(pid, page.data()).ok());
    }
    io_ = std::make_unique<ThreadPool>(2);
  }
  void TearDown() override {
    file_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::unique_ptr<IoBackend> MakeBackend() {
    return std::make_unique<IoBackend>(file_.get(), io_.get());
  }

  static int Expected(PageId pid) { return static_cast<int>(pid % 251 + 1); }

  std::filesystem::path dir_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<ThreadPool> io_;
};

TEST_P(IoBackendTest, SynchronousReadPage) {
  auto backend = MakeBackend();
  std::vector<std::byte> buf(kPage);
  ASSERT_TRUE(backend->ReadPage(5, buf.data()).ok());
  EXPECT_EQ(static_cast<int>(buf[0]), Expected(5));
  EXPECT_EQ(static_cast<int>(buf[kPage - 1]), Expected(5));
}

TEST_P(IoBackendTest, BatchedSubmitCompletesEveryRequestWithItsOwnBuffer) {
  auto backend = MakeBackend();
  // One distinct destination per request: a reader that crosses wires
  // (wrong completion for a slot) corrupts a specific buffer.
  std::vector<std::vector<std::byte>> bufs(kPages,
                                           std::vector<std::byte>(kPage));
  std::latch done(kPages);
  std::atomic<int> failures{0};
  std::vector<IoReadRequest> batch;
  for (PageId pid = 0; pid < kPages; ++pid) {
    IoReadRequest req;
    req.pid = pid;
    req.dst = bufs[pid].data();
    req.done = [&, pid](Status s) {
      if (!s.ok()) failures.fetch_add(1);
      done.count_down();
    };
    batch.push_back(std::move(req));
  }
  backend->SubmitReads(std::move(batch));
  done.wait();
  EXPECT_EQ(failures.load(), 0);
  for (PageId pid = 0; pid < kPages; ++pid) {
    EXPECT_EQ(static_cast<int>(bufs[pid][0]), Expected(pid)) << pid;
    EXPECT_EQ(static_cast<int>(bufs[pid][kPage - 1]), Expected(pid)) << pid;
  }
}

TEST_P(IoBackendTest, QueueDepthSaturationParksOverflow) {
  // Far more in-flight reads than the I/O pool has threads (its queue
  // depth): the backend must queue the overflow and complete everything
  // (never block the submitter, never drop a request).
  auto backend = MakeBackend();
  constexpr int kRounds = 8;
  std::vector<std::vector<std::byte>> bufs(kPages,
                                           std::vector<std::byte>(kPage));
  std::latch done(kPages * kRounds);
  std::atomic<int> failures{0};
  for (int round = 0; round < kRounds; ++round) {
    std::vector<IoReadRequest> batch;
    for (PageId pid = 0; pid < kPages; ++pid) {
      IoReadRequest req;
      req.pid = pid;
      req.dst = bufs[pid].data();
      req.done = [&](Status s) {
        if (!s.ok()) failures.fetch_add(1);
        done.count_down();
      };
      batch.push_back(std::move(req));
    }
    backend->SubmitReads(std::move(batch));
  }
  done.wait();
  EXPECT_EQ(failures.load(), 0);
  backend->Drain();
}

TEST_P(IoBackendTest, DrainOnDestructionRunsEveryCompletion) {
  std::atomic<int> completions{0};
  // bufs outlives the backend: the destructor's drain guarantee is what
  // makes the in-flight writes into them safe.
  std::vector<std::vector<std::byte>> bufs(kPages,
                                           std::vector<std::byte>(kPage));
  {
    auto backend = MakeBackend();
    std::vector<IoReadRequest> batch;
    for (PageId pid = 0; pid < kPages; ++pid) {
      IoReadRequest req;
      req.pid = pid;
      req.dst = bufs[pid].data();
      req.done = [&](Status) { completions.fetch_add(1); };
      batch.push_back(std::move(req));
    }
    backend->SubmitReads(std::move(batch));
    // No Drain(): the destructor itself must not return before every
    // in-flight completion ran.
  }
  EXPECT_EQ(completions.load(), static_cast<int>(kPages));
}

TEST_P(IoBackendTest, OutOfBoundsReadFailsInline) {
  auto backend = MakeBackend();
  std::vector<std::byte> buf(kPage);
  EXPECT_EQ(backend->ReadPage(kPages + 7, buf.data()).code(),
            StatusCode::kInvalidArgument);
  std::latch done(1);
  Status async;
  IoReadRequest req;
  req.pid = kPages + 7;
  req.dst = buf.data();
  req.done = [&](Status s) {
    async = std::move(s);
    done.count_down();
  };
  backend->SubmitRead(std::move(req));
  done.wait();
  EXPECT_EQ(async.code(), StatusCode::kInvalidArgument);
}

TEST_P(IoBackendTest, MetricsCountSubmissions) {
  obs::Metrics().ResetAll();
  auto backend = MakeBackend();
  std::vector<std::vector<std::byte>> bufs(2, std::vector<std::byte>(kPage));
  std::latch done(2);
  std::vector<IoReadRequest> batch;
  for (PageId pid : {PageId{1}, PageId{2}}) {
    IoReadRequest req;
    req.pid = pid;
    req.dst = bufs[pid - 1].data();
    req.done = [&](Status) { done.count_down(); };
    batch.push_back(std::move(req));
  }
  backend->SubmitReads(std::move(batch));
  done.wait();
  backend->Drain();
  const obs::MetricsSnapshot snap = obs::Metrics().Snapshot();
#ifndef DUALSIM_NO_METRICS
  EXPECT_EQ(snap.counter("io.threadpool.reads_submitted"), 2u);
  EXPECT_EQ(snap.counter("io.threadpool.reads_completed"), 2u);
  EXPECT_EQ(snap.counter("io.threadpool.batches"), 1u);
  EXPECT_EQ(snap.counter("io.threadpool.reads_batched"), 2u);
  // bench_e2e finds the latency histogram through this label.
  EXPECT_EQ(snap.label("io.backend"), "threadpool");
#else
  (void)snap;
#endif
}

TEST_P(IoBackendTest, FaultInjectionInterceptsSubmittedReads) {
  // The fault seam must fire on the batched path: an injected permanent
  // error surfaces through done(status) while the rest of the window
  // completes normally.
  auto injector = std::make_shared<FaultInjector>();
  injector->FailReadForever(3);
  file_->SetFaultInjector(injector);
  auto backend = MakeBackend();

  std::vector<std::vector<std::byte>> bufs(kPages,
                                           std::vector<std::byte>(kPage));
  std::latch done(kPages);
  std::atomic<int> failed_pid{-1};
  std::atomic<int> failures{0};
  std::vector<IoReadRequest> batch;
  for (PageId pid = 0; pid < kPages; ++pid) {
    IoReadRequest req;
    req.pid = pid;
    req.dst = bufs[pid].data();
    req.done = [&, pid](Status s) {
      if (!s.ok()) {
        failures.fetch_add(1);
        failed_pid.store(static_cast<int>(pid));
      }
      done.count_down();
    };
    batch.push_back(std::move(req));
  }
  backend->SubmitReads(std::move(batch));
  done.wait();
  EXPECT_EQ(failures.load(), 1);
  EXPECT_EQ(failed_pid.load(), 3);
  for (PageId pid = 0; pid < kPages; ++pid) {
    if (pid == 3) continue;
    EXPECT_EQ(static_cast<int>(bufs[pid][0]), Expected(pid)) << pid;
    EXPECT_EQ(static_cast<int>(bufs[pid][kPage - 1]), Expected(pid)) << pid;
  }
  EXPECT_GE(injector->stats().read_faults, 1u);
  file_->SetFaultInjector(nullptr);
}

INSTANTIATE_TEST_SUITE_P(Backends, IoBackendTest,
                         ::testing::Values("threadpool"),
                         [](const auto& info) { return info.param; });

/// PreadFull's short-read guard: a read past EOF fails instead of looping.
TEST(IoBackendFallbackTest, PreadFullReportsShortReads) {
  auto dir = std::filesystem::temp_directory_path() /
             ("dualsim_io_pf_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  auto file = PageFile::Create((dir / "pf.pages").string(), kPage);
  ASSERT_TRUE(file.ok());
  std::vector<std::byte> page(kPage, std::byte{0x5a});
  ASSERT_TRUE((*file)->WritePage(0, page.data()).ok());
  std::vector<std::byte> buf(kPage);
  // In-bounds read succeeds...
  EXPECT_TRUE(io_internal::PreadFull((*file)->fd(), "pf.pages", buf.data(),
                                     kPage, 0)
                  .ok());
  EXPECT_EQ(buf[0], std::byte{0x5a});
  // ...a read past EOF hits the short-read guard instead of looping.
  EXPECT_EQ(io_internal::PreadFull((*file)->fd(), "pf.pages", buf.data(),
                                   kPage, kPage * 100)
                .code(),
            StatusCode::kIOError);
  file->reset();
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dualsim
