#include "storage/buffer_pool.h"

#include <gtest/gtest.h>

#include <atomic>
#include <cstring>
#include <filesystem>
#include <latch>
#include <thread>
#include <unistd.h>

#include "obs/metrics.h"
#include "storage/io_backend.h"
#include "util/thread_pool.h"

namespace dualsim {
namespace {

constexpr std::size_t kPage = 128;

/// Instantiated once, for the one page reader, under the name its
/// io.backend metrics label reports, so case ids read
/// Backends/BufferPoolTest.<Case>/threadpool.
class BufferPoolTest : public ::testing::TestWithParam<std::string> {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::temp_directory_path() /
           ("dualsim_bp_test_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    auto file = PageFile::Create((dir_ / "p.pages").string(), kPage);
    ASSERT_TRUE(file.ok());
    file_ = std::move(*file);
    std::vector<std::byte> page(kPage);
    for (PageId pid = 0; pid < 16; ++pid) {
      std::memset(page.data(), static_cast<int>(pid + 1), kPage);
      ASSERT_TRUE(file_->WritePage(pid, page.data()).ok());
    }
    io_ = std::make_unique<ThreadPool>(2);
    backend_ = std::make_unique<IoBackend>(file_.get(), io_.get());
  }
  void TearDown() override {
    backend_.reset();
    file_.reset();
    std::filesystem::remove_all(dir_);
  }

  std::filesystem::path dir_;
  std::unique_ptr<PageFile> file_;
  std::unique_ptr<ThreadPool> io_;
  std::unique_ptr<IoBackend> backend_;
};

TEST_P(BufferPoolTest, PinReadsCorrectPage) {
  BufferPool pool(file_.get(), 4, backend_.get());
  const std::byte* data = nullptr;
  ASSERT_TRUE(pool.Pin(3, &data).ok());
  EXPECT_EQ(static_cast<std::uint8_t>(data[0]), 4u);
  pool.Unpin(3);
  EXPECT_EQ(pool.stats().physical_reads, 1u);
}

TEST_P(BufferPoolTest, SecondPinIsLogicalHit) {
  BufferPool pool(file_.get(), 4, backend_.get());
  const std::byte* a = nullptr;
  const std::byte* b = nullptr;
  ASSERT_TRUE(pool.Pin(5, &a).ok());
  ASSERT_TRUE(pool.Pin(5, &b).ok());
  EXPECT_EQ(a, b);
  EXPECT_EQ(pool.stats().physical_reads, 1u);
  EXPECT_EQ(pool.stats().logical_hits, 1u);
  pool.Unpin(5);
  pool.Unpin(5);
}

TEST_P(BufferPoolTest, EvictsLruWhenFull) {
  BufferPool pool(file_.get(), 2, backend_.get());
  const std::byte* data = nullptr;
  ASSERT_TRUE(pool.Pin(0, &data).ok());
  pool.Unpin(0);
  ASSERT_TRUE(pool.Pin(1, &data).ok());
  pool.Unpin(1);
  // Frame count is 2; pinning a third page must evict page 0 (oldest).
  ASSERT_TRUE(pool.Pin(2, &data).ok());
  pool.Unpin(2);
  EXPECT_TRUE(pool.Contains(1));
  EXPECT_TRUE(pool.Contains(2));
  EXPECT_FALSE(pool.Contains(0));
  EXPECT_EQ(pool.stats().evictions, 1u);
}

TEST_P(BufferPoolTest, AllPinnedIsResourceExhausted) {
  BufferPool pool(file_.get(), 2, backend_.get());
  const std::byte* data = nullptr;
  ASSERT_TRUE(pool.Pin(0, &data).ok());
  ASSERT_TRUE(pool.Pin(1, &data).ok());
  EXPECT_EQ(pool.Pin(2, &data).code(), StatusCode::kResourceExhausted);
  pool.Unpin(0);
  pool.Unpin(1);
}

TEST_P(BufferPoolTest, AsyncPinDeliversData) {
  BufferPool pool(file_.get(), 4, backend_.get());
  std::latch done(1);
  std::atomic<int> value{-1};
  pool.PinAsync(7, [&](Status s, PageId pid, const std::byte* data) {
    ASSERT_TRUE(s.ok());
    EXPECT_EQ(pid, 7u);
    value = static_cast<int>(data[0]);
    done.count_down();
  });
  done.wait();
  EXPECT_EQ(value.load(), 8);
  pool.Unpin(7);
}

TEST_P(BufferPoolTest, ConcurrentAsyncPinsOfSamePage) {
  BufferPool pool(file_.get(), 4, backend_.get());
  constexpr int kPins = 32;
  std::latch done(kPins);
  std::atomic<int> ok_count{0};
  for (int i = 0; i < kPins; ++i) {
    pool.PinAsync(2, [&](Status s, PageId, const std::byte* data) {
      if (s.ok() && static_cast<std::uint8_t>(data[0]) == 3u) {
        ok_count.fetch_add(1);
      }
      done.count_down();
    });
  }
  done.wait();
  EXPECT_EQ(ok_count.load(), kPins);
  // Only one physical read despite 32 pins.
  EXPECT_EQ(pool.stats().physical_reads, 1u);
  for (int i = 0; i < kPins; ++i) pool.Unpin(2);
}

TEST_P(BufferPoolTest, ParallelMixedWorkload) {
  BufferPool pool(file_.get(), 8, backend_.get());
  ThreadPool workers(6);
  std::atomic<int> errors{0};
  ParallelFor(workers, 500, [&](std::size_t i) {
    const PageId pid = static_cast<PageId>(i % 16);
    const std::byte* data = nullptr;
    Status s = pool.Pin(pid, &data);
    if (!s.ok()) {
      // Transient exhaustion is possible with 6 concurrent pins max 8
      // frames; anything else is a bug.
      if (s.code() != StatusCode::kResourceExhausted) errors.fetch_add(1);
      return;
    }
    if (static_cast<std::uint8_t>(data[0]) != pid + 1) errors.fetch_add(1);
    pool.Unpin(pid);
  });
  EXPECT_EQ(errors.load(), 0);
}

TEST_P(BufferPoolTest, StatsResetWorks) {
  BufferPool pool(file_.get(), 4, backend_.get());
  const std::byte* data = nullptr;
  ASSERT_TRUE(pool.Pin(0, &data).ok());
  pool.Unpin(0);
  EXPECT_GT(pool.stats().physical_reads, 0u);
  pool.ResetStats();
  EXPECT_EQ(pool.stats().physical_reads, 0u);
}

TEST_P(BufferPoolTest, AsyncStressWithConcurrentResets) {
  // Hammer PinAsync/Unpin from many threads while another thread calls
  // ResetStats — the counters may be clobbered mid-run but the pool must
  // stay consistent (correct bytes, no lost callbacks). TSan target.
  BufferPool pool(file_.get(), 8, backend_.get());
  ThreadPool workers(6);
  constexpr int kRounds = 400;
  std::atomic<int> errors{0};
  std::atomic<bool> stop{false};
  std::thread resetter([&] {
    while (!stop.load(std::memory_order_acquire)) {
      pool.ResetStats();
      (void)pool.stats();
      std::this_thread::yield();
    }
  });
  ParallelFor(workers, kRounds, [&](std::size_t i) {
    const PageId pid = static_cast<PageId>((i * 7) % 16);
    std::latch done(1);
    std::atomic<bool> pinned{false};
    pool.PinAsync(pid, [&](Status s, PageId got, const std::byte* data) {
      if (s.ok()) {
        if (got != pid || static_cast<std::uint8_t>(data[0]) != pid + 1) {
          errors.fetch_add(1);
        }
        pinned.store(true, std::memory_order_release);
      } else if (s.code() != StatusCode::kResourceExhausted) {
        // Transient exhaustion is legal with 6 pinners on 8 frames.
        errors.fetch_add(1);
      }
      done.count_down();
    });
    done.wait();
    if (pinned.load(std::memory_order_acquire)) pool.Unpin(pid);
  });
  stop.store(true, std::memory_order_release);
  resetter.join();
  EXPECT_EQ(errors.load(), 0);
  // Every frame must be unpinned again: the whole pool is evictable.
  EXPECT_EQ(pool.AvailableFrames(), 8u);
}

TEST_P(BufferPoolTest, AvailableFramesTracksPins) {
  BufferPool pool(file_.get(), 3, backend_.get());
  EXPECT_EQ(pool.AvailableFrames(), 3u);
  const std::byte* data = nullptr;
  ASSERT_TRUE(pool.Pin(0, &data).ok());
  EXPECT_EQ(pool.AvailableFrames(), 2u);
  pool.Unpin(0);
  EXPECT_EQ(pool.AvailableFrames(), 3u);  // resident but unpinned
}

TEST_P(BufferPoolTest, PinManyDeliversWholeWindow) {
  BufferPool pool(file_.get(), 8, backend_.get());
  const std::vector<PageId> pids = {1, 4, 9, 12, 15};
  std::latch done(pids.size());
  std::vector<std::atomic<int>> values(pids.size());
  for (auto& v : values) v = -1;
  pool.PinMany(pids, [&](std::size_t i, Status s, const std::byte* data) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    values[i] = static_cast<int>(data[0]);
    done.count_down();
  });
  done.wait();
  for (std::size_t i = 0; i < pids.size(); ++i) {
    EXPECT_EQ(values[i].load(), static_cast<int>(pids[i] + 1)) << i;
  }
  EXPECT_EQ(pool.stats().physical_reads, pids.size());
  for (PageId pid : pids) pool.Unpin(pid);
}

TEST_P(BufferPoolTest, PinManyMixesHitsMissesAndDuplicates) {
  BufferPool pool(file_.get(), 8, backend_.get());
  // Make page 3 resident so the window mixes an inline hit with misses,
  // and repeat page 6 so the duplicate piggybacks on the first read.
  const std::byte* warm = nullptr;
  ASSERT_TRUE(pool.Pin(3, &warm).ok());
  const std::vector<PageId> pids = {3, 6, 6, 11};
  std::latch done(pids.size());
  std::vector<std::atomic<int>> values(pids.size());
  for (auto& v : values) v = -1;
  pool.PinMany(pids, [&](std::size_t i, Status s, const std::byte* data) {
    ASSERT_TRUE(s.ok()) << s.ToString();
    values[i] = static_cast<int>(data[0]);
    done.count_down();
  });
  done.wait();
  for (std::size_t i = 0; i < pids.size(); ++i) {
    EXPECT_EQ(values[i].load(), static_cast<int>(pids[i] + 1)) << i;
  }
  // One read warmed page 3; the window added only pages 6 and 11 — the
  // resident hit cost nothing and the duplicate 6 shared one read.
  EXPECT_EQ(pool.stats().physical_reads, 3u);
  EXPECT_EQ(pool.stats().logical_hits, 1u);  // the resident page 3
  pool.Unpin(3);
  for (PageId pid : pids) pool.Unpin(pid);
}

TEST_P(BufferPoolTest, PinManyLargerThanPoolReportsStarvation) {
  // 2 frames cannot hold a 5-page window: the overflow elements must
  // complete (with ResourceExhausted), never hang.
  BufferPool pool(file_.get(), 2, backend_.get());
  const std::vector<PageId> pids = {0, 1, 2, 3, 4};
  std::latch done(pids.size());
  std::atomic<int> ok{0};
  std::atomic<int> starved{0};
  std::atomic<int> other{0};
  std::mutex mu;
  std::vector<PageId> pinned;
  pool.PinMany(pids, [&](std::size_t i, Status s, const std::byte*) {
    if (s.ok()) {
      ok.fetch_add(1);
      std::lock_guard<std::mutex> lock(mu);
      pinned.push_back(pids[i]);
    } else if (s.code() == StatusCode::kResourceExhausted) {
      starved.fetch_add(1);
    } else {
      other.fetch_add(1);
    }
    done.count_down();
  });
  done.wait();
  EXPECT_EQ(other.load(), 0);
  EXPECT_EQ(ok.load() + starved.load(), static_cast<int>(pids.size()));
  EXPECT_LE(ok.load(), 2);
  for (PageId pid : pinned) pool.Unpin(pid);
}

TEST_P(BufferPoolTest, LegacyThreadPoolCtorStillWorks) {
  // The convenience constructor (pool owns its backend) is the surface
  // tests and tools rely on.
  BufferPool pool(file_.get(), 4, io_.get());
  const std::byte* data = nullptr;
  ASSERT_TRUE(pool.Pin(9, &data).ok());
  EXPECT_EQ(static_cast<std::uint8_t>(data[0]), 10u);
  pool.Unpin(9);
}

TEST_P(BufferPoolTest, BackendNameMatchesParam) {
  BufferPool pool(file_.get(), 4, backend_.get());
  const std::byte* data = nullptr;
  ASSERT_TRUE(pool.Pin(1, &data).ok());
  pool.Unpin(1);
#ifndef DUALSIM_NO_METRICS
  EXPECT_EQ(obs::Metrics().Snapshot().label("io.backend"), GetParam());
#endif
}

INSTANTIATE_TEST_SUITE_P(Backends, BufferPoolTest,
                         ::testing::Values("threadpool"),
                         [](const auto& info) { return info.param; });

}  // namespace
}  // namespace dualsim
