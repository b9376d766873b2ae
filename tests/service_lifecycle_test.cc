/// Request-lifecycle suite over the serving shell both front ends share
/// (service/front_end.h), run once against a QueryService and once against
/// a Coordinator over 2 spawned dualsim_serve workers. A seeded mix of
/// plain and streaming SUBMITs, mid-run CANCELs and 1 ms deadlines runs on
/// several raw connections while a SHUTDOWN drains the endpoint. Every
/// SUBMIT must end in exactly one terminal frame (REJECTED or RESULT), and
/// the admission ledger must balance: received == admitted + rejected_*,
/// and after the drain admitted == completed + failed + cancelled +
/// deadline_expired.

#include <arpa/inet.h>
#include <gtest/gtest.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <filesystem>
#include <iterator>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/generators.h"
#include "graph/reorder.h"
#include "runtime/runtime.h"
#include "service/client.h"
#include "service/protocol.h"
#include "service/query_service.h"
#include "storage/disk_graph.h"
#include "testkit/coord_fixture.h"
#include "testkit/fuzz_util.h"
#include "util/random.h"

namespace dualsim::service {
namespace {

enum class FrontEndKind { kQueryService, kCoordinator };

/// Either front end behind one face: start over a graph, port, ledger,
/// teardown.
class FrontEndUnderTest {
 public:
  ~FrontEndUnderTest() { Stop(); }

  Status Start(FrontEndKind kind, const Graph& g) {
    if (kind == FrontEndKind::kCoordinator) {
      return harness_.Start(g, /*num_parts=*/2);
    }
    dir_ = std::filesystem::temp_directory_path() /
           ("dualsim_lifecycle_" + std::to_string(::getpid()));
    std::filesystem::create_directories(dir_);
    const std::string path = (dir_ / "g.db").string();
    DUALSIM_RETURN_IF_ERROR(BuildDiskGraph(g, path, /*page_size=*/512));
    DUALSIM_ASSIGN_OR_RETURN(disk_, OpenServedGraph(path));
    RuntimeOptions ropt;
    ropt.num_frames = 64;
    ropt.num_threads = 4;
    ropt.io_threads = 2;
    runtime_ = std::make_unique<Runtime>(disk_.get(), ropt);
    ServiceOptions sopt;
    sopt.num_workers = 2;
    sopt.max_queue_depth = 4;  // small enough that the mix sees OVERLOADED
    sopt.session_max_frames = 20;
    service_ = std::make_unique<QueryService>(runtime_.get(), sopt);
    return service_->Start();
  }

  std::uint16_t port() {
    return service_ != nullptr ? service_->port() : harness_.port();
  }

  StatusInfo Snapshot() {
    return service_ != nullptr ? service_->Snapshot()
                               : harness_.coordinator().Snapshot();
  }

  void Stop() {
    service_.reset();
    runtime_.reset();
    disk_.reset();
    harness_.Stop();
    if (!dir_.empty()) std::filesystem::remove_all(dir_);
    dir_.clear();
  }

 private:
  testkit::CoordHarness harness_;
  std::filesystem::path dir_;
  std::unique_ptr<DiskGraph> disk_;
  std::unique_ptr<Runtime> runtime_;
  std::unique_ptr<QueryService> service_;
};

int ConnectRaw(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// One client connection: a writer that submits its seeded plan and a
/// reader that tallies terminal frames by request id.
struct ClientConn {
  explicit ClientConn(std::atomic<int>* accepted_total)
      : accepted(accepted_total) {}

  int fd = -1;
  std::atomic<int>* accepted;  // ACCEPTED frames over every connection
  std::thread reader;
  std::mutex mu;
  std::condition_variable cv;
  std::uint64_t sent = 0;                        // SUBMITs written
  std::map<std::uint64_t, int> terminals;        // id -> terminal frames
  std::vector<std::string> unexpected;           // frames no SUBMIT explains

  void Read() {
    for (;;) {
      auto frame = ReadFrame(fd);
      if (!frame.ok()) return;  // closed by Stop()
      std::uint64_t id = 0;
      bool terminal = false;
      if (frame->type == FrameType::kRejected) {
        RejectFrame reject;
        terminal = DecodeReject(frame->payload, &reject).ok();
        id = reject.request_id;
      } else if (frame->type == FrameType::kResult) {
        ResultFrame result;
        terminal = DecodeResult(frame->payload, &result).ok();
        id = result.request_id;
      } else if (frame->type == FrameType::kAccepted) {
        accepted->fetch_add(1);
        continue;
      } else if (frame->type == FrameType::kProgress ||
                 frame->type == FrameType::kEmbeddings ||
                 frame->type == FrameType::kPartialResult) {
        continue;  // a PARTIAL_RESULT precedes its request's RESULT
      }
      std::lock_guard<std::mutex> lock(mu);
      if (terminal) {
        ++terminals[id];
      } else {
        unexpected.push_back(FrameTypeName(frame->type));
      }
      cv.notify_all();
    }
  }
};

constexpr const char* kQueries[] = {"q1", "q2", "q3", "q4", "q5"};

class ServiceLifecycleTest : public ::testing::TestWithParam<FrontEndKind> {};

TEST_P(ServiceLifecycleTest, SeededMixEndsEverySubmitOnceAndBalancesLedger) {
  const testkit::FuzzConfig cfg =
      testkit::FuzzConfigFromEnv(/*default_seed=*/36, /*default_iters=*/16);
  const std::string repro = testkit::ReproHint(cfg.seed);
  constexpr int kClients = 3;
  const int ops_per_client = cfg.iters;

  FrontEndUnderTest fe;
  Status started = fe.Start(GetParam(),
                            ReorderByDegree(ErdosRenyi(200, 1000, 42)));
  ASSERT_TRUE(started.ok()) << started.ToString();

  std::atomic<int> accepted{0};
  std::atomic<int> writers_done{0};
  std::vector<std::unique_ptr<ClientConn>> clients;
  for (int c = 0; c < kClients; ++c) {
    auto client = std::make_unique<ClientConn>(&accepted);
    client->fd = ConnectRaw(fe.port());
    ASSERT_GE(client->fd, 0);
    client->reader = std::thread([raw = client.get()] { raw->Read(); });
    clients.push_back(std::move(client));
  }

  // SHUTDOWN lands once a third of the plan was admitted, with requests
  // still in flight and more to come (those must be REJECTED, not
  // dropped).
  Status shutdown_status = Status::Internal("SHUTDOWN never sent");
  std::thread shutter([&] {
    while (accepted.load() < kClients * ops_per_client / 3 &&
           writers_done.load() < kClients) {
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    QueryClient client;
    shutdown_status = client.Connect("127.0.0.1", fe.port());
    if (shutdown_status.ok()) shutdown_status = client.Shutdown();
  });

  std::vector<std::thread> writers;
  for (int c = 0; c < kClients; ++c) {
    writers.emplace_back([&, c] {
      ClientConn& conn = *clients[c];
      Random rng(cfg.seed * 31 + static_cast<std::uint64_t>(c));
      for (int i = 0; i < ops_per_client; ++i) {
        SubmitRequest submit;
        submit.request_id = static_cast<std::uint64_t>(i) + 1;
        submit.query = kQueries[rng.Uniform(std::size(kQueries))];
        submit.stream_embeddings = rng.Bernoulli(0.3);
        submit.max_embeddings = static_cast<std::uint32_t>(rng.Uniform(50));
        const std::uint64_t action = rng.Uniform(3);  // plain/cancel/deadline
        if (action == 2) submit.deadline_ms = 1;
        if (!WriteFrame(conn.fd, FrameType::kSubmit, EncodeSubmit(submit))
                 .ok()) {
          break;
        }
        {
          std::lock_guard<std::mutex> lock(conn.mu);
          ++conn.sent;
        }
        if (action == 1) {
          std::this_thread::sleep_for(
              std::chrono::microseconds(rng.Uniform(2000)));
          WriteFrame(conn.fd, FrameType::kCancel,
                     EncodeCancel(submit.request_id));
        }
        std::this_thread::sleep_for(
            std::chrono::microseconds(rng.Uniform(1000)));
      }
      writers_done.fetch_add(1);
    });
  }
  for (std::thread& w : writers) w.join();
  shutter.join();
  ASSERT_TRUE(shutdown_status.ok()) << shutdown_status.ToString();

  // Wait (bounded) until every written SUBMIT has a terminal frame.
  std::uint64_t total_sent = 0;
  for (const auto& client : clients) {
    std::unique_lock<std::mutex> lock(client->mu);
    EXPECT_TRUE(client->cv.wait_for(lock, std::chrono::seconds(60), [&] {
      return client->terminals.size() >= client->sent;
    })) << "a SUBMIT never got its terminal frame; " << repro;
    total_sent += client->sent;
  }
  EXPECT_EQ(total_sent,
            static_cast<std::uint64_t>(kClients) * ops_per_client);

  const StatusInfo info = fe.Snapshot();
  EXPECT_TRUE(info.draining);
  EXPECT_EQ(info.received, total_sent) << repro;
  EXPECT_EQ(info.received, info.admitted + info.rejected_overload +
                               info.rejected_draining + info.rejected_invalid)
      << repro;
  EXPECT_EQ(info.admitted, info.completed + info.failed + info.cancelled +
                               info.deadline_expired)
      << repro;
  EXPECT_EQ(info.active_requests, 0u);
  EXPECT_EQ(info.queue_depth, 0u);

  // Teardown closes every connection, so the readers see every frame the
  // endpoint ever sent — a late duplicate terminal included.
  fe.Stop();
  for (auto& client : clients) {
    client->reader.join();
    ::close(client->fd);
    EXPECT_TRUE(client->unexpected.empty())
        << "unexpected " << client->unexpected.front() << "; " << repro;
    EXPECT_EQ(client->terminals.size(), client->sent) << repro;
    for (const auto& [id, count] : client->terminals) {
      EXPECT_GE(id, 1u);
      EXPECT_LE(id, client->sent);
      EXPECT_EQ(count, 1) << "request " << id << " got " << count
                          << " terminal frames; " << repro;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    FrontEnds, ServiceLifecycleTest,
    ::testing::Values(FrontEndKind::kQueryService, FrontEndKind::kCoordinator),
    [](const ::testing::TestParamInfo<FrontEndKind>& info) {
      return info.param == FrontEndKind::kQueryService ? "QueryService"
                                                       : "Coordinator";
    });

}  // namespace
}  // namespace dualsim::service
