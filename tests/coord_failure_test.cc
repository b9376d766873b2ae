/// Worker-failure suite for the coordinator (DESIGN.md §13): a worker
/// SIGKILLed mid-dispatch must produce a *typed* degraded answer — a
/// PARTIAL_RESULT frame plus a RESULT carrying kPartialResult whose count
/// covers exactly the surviving partitions — or, with a retry budget, a
/// respawned worker and the full count. A hung worker must never turn
/// drain or a deadline into a hang: the coordinator's watchdog cancels,
/// then severs the connection after the abort grace. Every scenario here
/// is wall-clock bounded; a hang is itself the failure.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "baseline/bruteforce.h"
#include "distsim/partitioner.h"
#include "graph/generators.h"
#include "graph/reorder.h"
#include "query/parser.h"
#include "query/symmetry_breaking.h"
#include "service/client.h"
#include "service/protocol.h"
#include "storage/disk_graph.h"
#include "testkit/coord_fixture.h"
#include "testkit/metrics_util.h"

namespace dualsim::coord {
namespace {

using service::WireCode;
using testkit::CoordHarness;
using testkit::MetricsProbe;

/// q1 (triangle) golden over ReorderByDegree(ErdosRenyi(200, 1000, 42)).
constexpr std::uint64_t kGoldenQ1 = 151;

Graph FixtureGraph() { return ReorderByDegree(ErdosRenyi(200, 1000, 42)); }

/// How many q1 embeddings the merge can still cover when `dead_part` is
/// lost: those owned by any surviving partition.
std::uint64_t SurvivingOwnerCount(const Graph& g, int num_parts,
                                  int dead_part) {
  auto q = ParseQuery("q1");
  EXPECT_TRUE(q.ok());
  std::uint64_t survivors = 0;
  EnumerateBruteForce(g, *q, FindPartialOrders(*q), [&](const Embedding& m) {
    if (EmbeddingOwner({m.data(), m.size()}, num_parts, /*seed=*/0) !=
        dead_part) {
      ++survivors;
    }
  });
  return survivors;
}

/// SIGKILLs `pid` and waits for the kernel to tear the process down (its
/// listen socket with it), so the dispatch that follows the seam sees a
/// dead endpoint, not a half-alive race.
void KillWorker(pid_t pid) {
  ASSERT_GT(pid, 0);
  ASSERT_EQ(::kill(pid, SIGKILL), 0);
  // The coordinator owns the reaping (waitpid in its respawn path); here
  // just give the kernel a beat to close the sockets.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
}

TEST(CoordFailureTest, KilledWorkerYieldsTypedPartialResult) {
  const Graph g = FixtureGraph();
  constexpr int kParts = 3;
  constexpr int kDeadPart = 1;

  CoordHarness harness;
  std::atomic<bool> killed{false};
  Status s = harness.Start(g, kParts, [&](CoordinatorOptions& opt) {
    opt.max_retries = 0;  // first failure is final: partial, not retry
    opt.on_dispatch = [&](int part, int attempt) {
      if (part == kDeadPart && attempt == 0 &&
          !killed.exchange(true)) {
        KillWorker(harness.coordinator().workers()[kDeadPart].pid);
      }
    };
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  MetricsProbe probe;
  auto client = harness.Connect();
  const auto start = std::chrono::steady_clock::now();
  auto result = client->Run({.query = "q1", .deadline_ms = 30'000});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // Typed, never a hang: kPartialResult well before the deadline.
  EXPECT_EQ(result->code, WireCode::kPartialResult) << result->message;
  EXPECT_LT(elapsed, std::chrono::seconds(25));
  ASSERT_TRUE(result->partial.has_value());
  EXPECT_EQ(result->partial->total_parts, static_cast<std::uint32_t>(kParts));
  ASSERT_EQ(result->partial->failed_parts.size(), 1u);
  EXPECT_EQ(result->partial->failed_parts[0],
            static_cast<std::uint32_t>(kDeadPart));
  EXPECT_FALSE(result->partial->message.empty());

  // The degraded count is exactly the surviving owners' share — an
  // honest partial, not a silently wrong total.
  const std::uint64_t survivors = SurvivingOwnerCount(g, kParts, kDeadPart);
  EXPECT_EQ(result->embeddings, survivors);
  EXPECT_EQ(result->partial->merged_embeddings, survivors);
  EXPECT_LT(survivors, kGoldenQ1);  // the lost part owned something

  testkit::ExpectMetricDelta(probe, "coord.partial_results", 1);
  testkit::ExpectMetricDelta(probe, "coord.worker_failures", 1);

  // The failed dispatch respawned the worker even though the retry budget
  // was exhausted for *this* request — the next request heals to the full
  // golden count.
  std::uint64_t full = 0;
  for (int i = 0; i < 50; ++i) {
    auto again = harness.Connect()->Run({.query = "q1"});
    ASSERT_TRUE(again.ok()) << again.status().ToString();
    if (again->code == WireCode::kOk) {
      full = again->embeddings;
      break;
    }
    // Respawn may still be in flight; a partial here is acceptable.
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  EXPECT_EQ(full, kGoldenQ1);
}

TEST(CoordFailureTest, RetryRespawnsWorkerAndRecoversFullCount) {
  const Graph g = FixtureGraph();
  constexpr int kParts = 2;
  constexpr int kDeadPart = 1;

  CoordHarness harness;
  std::atomic<bool> killed{false};
  Status s = harness.Start(g, kParts, [&](CoordinatorOptions& opt) {
    opt.max_retries = 2;
    opt.on_dispatch = [&](int part, int attempt) {
      if (part == kDeadPart && attempt == 0 &&
          !killed.exchange(true)) {
        KillWorker(harness.coordinator().workers()[kDeadPart].pid);
      }
    };
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  MetricsProbe probe;
  auto client = harness.Connect();
  auto result = client->Run({.query = "q1", .deadline_ms = 30'000});
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // The retry hit a freshly respawned worker: full count, no partial.
  EXPECT_EQ(result->code, WireCode::kOk) << result->message;
  EXPECT_EQ(result->embeddings, kGoldenQ1);
  EXPECT_FALSE(result->partial.has_value());
  EXPECT_TRUE(killed.load());

  if (obs::kMetricsEnabled) {
    EXPECT_GE(probe.Delta("coord.worker_retries"), 1u);
    EXPECT_GE(probe.Delta("coord.worker_respawns"), 1u);
    EXPECT_EQ(probe.Delta("coord.worker_failures"), 0u);
    EXPECT_EQ(probe.Delta("coord.partial_results"), 0u);
  }
}

TEST(CoordFailureTest, DrainWithHungWorkerIsBounded) {
  const Graph g = FixtureGraph();
  CoordHarness harness;
  Status s = harness.Start(g, 2, [&](CoordinatorOptions& opt) {
    // Every worker stalls each request 60s — far past every timeout here;
    // only the watchdog's cancel->abort ladder can end the request.
    opt.worker_args = {"--test-stall-ms", "60000"};
    opt.drain_timeout_ms = 200;
    opt.abort_grace_ms = 200;
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto submitter = harness.Connect();
  ASSERT_TRUE(submitter->Submit({.query = "q1"}).ok());

  // Await on a side thread; the drain must force its RESULT out.
  StatusOr<service::ClientResult> hung_result =
      Status::IOError("await never returned");
  std::thread awaiter(
      [&] { hung_result = submitter->Await(); });

  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  auto controller = harness.Connect();
  const auto start = std::chrono::steady_clock::now();
  Status drained = controller->Shutdown();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  awaiter.join();

  EXPECT_TRUE(drained.ok()) << drained.ToString();
  EXPECT_LT(elapsed, std::chrono::seconds(20));
  ASSERT_TRUE(hung_result.ok()) << hung_result.status().ToString();
  EXPECT_EQ(hung_result->code, WireCode::kShuttingDown)
      << hung_result->message;
  EXPECT_TRUE(harness.coordinator().WaitForShutdown(/*timeout_ms=*/5000));
}

TEST(CoordFailureTest, DeadlineEnforcedPastHungWorker) {
  const Graph g = FixtureGraph();
  CoordHarness harness;
  Status s = harness.Start(g, 2, [&](CoordinatorOptions& opt) {
    opt.worker_args = {"--test-stall-ms", "60000"};
    opt.abort_grace_ms = 200;
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  MetricsProbe probe;
  auto client = harness.Connect();
  const auto start = std::chrono::steady_clock::now();
  auto result = client->Run({.query = "q1", .deadline_ms = 300});
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok()) << result.status().ToString();

  // "Never a hang past the deadline": the watchdog cancelled, then cut
  // the worker connections after the grace — well inside the 60s stall.
  EXPECT_EQ(result->code, WireCode::kDeadlineExceeded) << result->message;
  EXPECT_GE(elapsed, std::chrono::milliseconds(300));
  EXPECT_LT(elapsed, std::chrono::seconds(20));
  testkit::ExpectMetricDelta(probe, "coord.requests_deadline_expired", 1);
}

TEST(CoordFailureTest, ClientCancelFansOutToWorkers) {
  const Graph g = FixtureGraph();
  CoordHarness harness;
  Status s = harness.Start(g, 2, [&](CoordinatorOptions& opt) {
    opt.worker_args = {"--test-stall-ms", "60000"};
    opt.abort_grace_ms = 200;
  });
  ASSERT_TRUE(s.ok()) << s.ToString();

  auto client = harness.Connect();
  ASSERT_TRUE(client->Submit({.query = "q1"}).ok());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  ASSERT_TRUE(client->Cancel().ok());

  const auto start = std::chrono::steady_clock::now();
  auto result = client->Await();
  const auto elapsed = std::chrono::steady_clock::now() - start;
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->code, WireCode::kCancelled) << result->message;
  EXPECT_LT(elapsed, std::chrono::seconds(20));
}

TEST(CoordFailureTest, FailedStartReapsSpawnedWorkers) {
  // Hold a listening socket on the port the coordinator will ask for, so
  // Start fails at bind — after it spawned and handshook its workers.
  const int blocker = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(blocker, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  ASSERT_EQ(::bind(blocker, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  ASSERT_EQ(::listen(blocker, 1), 0);
  socklen_t len = sizeof(addr);
  ::getsockname(blocker, reinterpret_cast<sockaddr*>(&addr), &len);

  const std::filesystem::path dir =
      std::filesystem::temp_directory_path() /
      ("dualsim_coord_failed_start_" + std::to_string(::getpid()));
  std::filesystem::create_directories(dir);
  const std::string db = (dir / "g.db").string();
  ASSERT_TRUE(BuildDiskGraph(FixtureGraph(), db, /*page_size=*/512).ok());

  CoordinatorOptions opt;
  opt.db_path = db;
  opt.num_parts = 2;
  opt.worker_binary = testkit::ServeBinaryPath();
  opt.port = ntohs(addr.sin_port);
  Coordinator coordinator(opt);
  const Status started = coordinator.Start();
  EXPECT_EQ(started.code(), StatusCode::kIOError) << started.ToString();
  const std::vector<WorkerEndpoint> workers = coordinator.workers();
  coordinator.Stop();
  ::close(blocker);

  ASSERT_EQ(workers.size(), 2u);
  for (const WorkerEndpoint& w : workers) {
    ASSERT_GT(w.pid, 0);
    // Stop reaped the worker, so its pid no longer names a process.
    EXPECT_NE(::kill(w.pid, 0), 0) << "worker " << w.pid
                                   << " outlived a failed Start";
    if (::kill(w.pid, SIGKILL) == 0) ::waitpid(w.pid, nullptr, 0);
  }
  std::filesystem::remove_all(dir);
}

}  // namespace
}  // namespace dualsim::coord
