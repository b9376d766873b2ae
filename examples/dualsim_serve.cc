/// TCP query server over a slotted-page graph database:
///
///   dualsim_serve <db_path> [--port N] [--workers N] [--queue-depth N]
///                 [--buffer-fraction F] [--metrics metrics.json]
///                 [--port-file path] [--drain-timeout-ms N]
///
/// Binds 127.0.0.1:<port> (an ephemeral port when 0 or omitted; the bound
/// port is printed either way), serves SUBMIT/CANCEL/STATUS/SHUTDOWN
/// frames (see src/service/protocol.h), and exits after a client sends
/// SHUTDOWN — draining in-flight queries and flushing metrics first.
/// --port-file atomically publishes the bound port (write + rename) so a
/// parent process — the coordinator below — can discover an ephemeral
/// port without parsing stdout.
///
/// Coordinator mode (DESIGN.md §13):
///
///   dualsim_serve <db_path> --coordinator --workers N
///                 [--partition-seed S] [--retries N]
///                 [--worker-binary path] [--worker-arg flag]...
///                 [--attach host:port,host:port,...]
///                 [--port N] [--port-file path] [--metrics metrics.json]
///
/// Spawns N worker processes (this binary, worker mode, each over the
/// same db) — or attaches to the --attach endpoints — and serves the same
/// client protocol, fanning each query out as partition-scoped
/// sub-queries and merging the streams with owner-side deduplication.
///
/// Exit codes: 0 clean shutdown, 1 runtime failure, 2 usage,
/// 3 missing/unreadable graph database.

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "coord/coordinator.h"
#include "runtime/runtime.h"
#include "service/client.h"
#include "service/query_service.h"

namespace {

using namespace dualsim;

int Usage() {
  std::fprintf(
      stderr,
      "usage: dualsim_serve <db_path> [--port N] [--workers N] "
      "[--queue-depth N] [--buffer-fraction F] [--metrics metrics.json] "
      "[--port-file path] [--drain-timeout-ms N]\n"
      "       dualsim_serve <db_path> --coordinator --workers N "
      "[--partition-seed S] [--retries N] [--worker-binary path] "
      "[--worker-arg flag]... [--attach host:port,...] [--port N] "
      "[--port-file path] [--metrics metrics.json]\n");
  return 2;
}

/// Publishes the bound port atomically: a reader never sees a torn file.
bool WritePortFile(const std::string& path, std::uint16_t port) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "w");
  if (f == nullptr) return false;
  std::fprintf(f, "%u\n", port);
  std::fclose(f);
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::vector<std::string> SplitCommas(const std::string& s) {
  std::vector<std::string> out;
  std::size_t start = 0;
  while (start <= s.size()) {
    const std::size_t comma = s.find(',', start);
    if (comma == std::string::npos) {
      out.push_back(s.substr(start));
      break;
    }
    out.push_back(s.substr(start, comma - start));
    start = comma + 1;
  }
  return out;
}

int RunCoordinator(const std::string& db_path, int argc, char** argv) {
  coord::CoordinatorOptions copt;
  copt.db_path = db_path;
  copt.worker_binary = argv[0];  // workers are this binary, worker mode
  std::string port_file;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--coordinator") continue;
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--port") {
      copt.port = static_cast<std::uint16_t>(std::atoi(value));
    } else if (flag == "--workers") {
      copt.num_parts = std::atoi(value);
    } else if (flag == "--partition-seed") {
      copt.partition_seed = static_cast<std::uint64_t>(std::atoll(value));
    } else if (flag == "--retries") {
      copt.max_retries = std::atoi(value);
    } else if (flag == "--worker-binary") {
      copt.worker_binary = value;
    } else if (flag == "--worker-arg") {
      copt.worker_args.push_back(value);
    } else if (flag == "--attach") {
      copt.attach_endpoints = SplitCommas(value);
    } else if (flag == "--metrics") {
      copt.metrics_path = value;
    } else if (flag == "--port-file") {
      port_file = value;
    } else {
      return Usage();
    }
  }

  coord::Coordinator coordinator(std::move(copt));
  if (Status s = coordinator.Start(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return s.code() == StatusCode::kNotFound ? service::kGraphLoadExitCode
                                             : 1;
  }
  std::printf("coordinating %d partition(s) of %s on 127.0.0.1:%u\n",
              static_cast<int>(coordinator.workers().size()),
              db_path.c_str(), coordinator.port());
  for (const auto& w : coordinator.workers()) {
    std::printf("  worker %s:%u%s\n", w.host.c_str(), w.port,
                w.pid >= 0 ? " (spawned)" : " (attached)");
  }
  std::fflush(stdout);
  if (!port_file.empty() && !WritePortFile(port_file, coordinator.port())) {
    std::fprintf(stderr, "error: cannot write port file '%s'\n",
                 port_file.c_str());
    coordinator.Stop();
    return 1;
  }

  while (!coordinator.WaitForShutdown(/*timeout_ms=*/60'000)) {
  }
  coordinator.Stop();
  std::printf("coordinator shutdown complete\n");
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  const std::string db_path = argv[1];

  for (int i = 2; i < argc; ++i) {
    if (std::strcmp(argv[i], "--coordinator") == 0) {
      return RunCoordinator(db_path, argc, argv);
    }
  }

  service::ServiceOptions sopt;
  RuntimeOptions ropt;
  std::string port_file;
  std::uint32_t test_stall_ms = 0;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) return Usage();
    const char* value = argv[++i];
    if (flag == "--port") {
      sopt.port = static_cast<std::uint16_t>(std::atoi(value));
    } else if (flag == "--workers") {
      sopt.num_workers = std::atoi(value);
    } else if (flag == "--queue-depth") {
      sopt.max_queue_depth = static_cast<std::size_t>(std::atoi(value));
    } else if (flag == "--buffer-fraction") {
      ropt.buffer_fraction = std::atof(value);
    } else if (flag == "--metrics") {
      sopt.metrics_path = value;
    } else if (flag == "--port-file") {
      port_file = value;
    } else if (flag == "--drain-timeout-ms") {
      sopt.drain_timeout_ms = static_cast<std::uint32_t>(std::atoi(value));
    } else if (flag == "--test-stall-ms") {
      // Fault-injection seam for the coordinator failure tests: every
      // request stalls this long before its session starts.
      test_stall_ms = static_cast<std::uint32_t>(std::atoi(value));
    } else {
      return Usage();
    }
  }
  if (test_stall_ms > 0) {
    sopt.on_request_start = [test_stall_ms](std::uint64_t) {
      std::this_thread::sleep_for(std::chrono::milliseconds(test_stall_ms));
    };
  }

  if (Status s = ValidateRuntimeOptions(ropt); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }

  auto disk = service::OpenServedGraph(db_path);
  if (!disk.ok()) {
    std::fprintf(stderr, "error: %s\n", disk.status().ToString().c_str());
    return service::kGraphLoadExitCode;
  }
  std::printf("serving %s: %u vertices, %llu edges, %u pages\n",
              db_path.c_str(), (*disk)->num_vertices(),
              static_cast<unsigned long long>((*disk)->num_edges()),
              (*disk)->num_pages());

  Runtime runtime(disk->get(), ropt);
  service::QueryService svc(&runtime, sopt);
  if (Status s = svc.Start(); !s.ok()) {
    std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("listening on 127.0.0.1:%u (%d workers, queue depth %zu)\n",
              svc.port(), sopt.num_workers, sopt.max_queue_depth);
  std::fflush(stdout);
  if (!port_file.empty() && !WritePortFile(port_file, svc.port())) {
    std::fprintf(stderr, "error: cannot write port file '%s'\n",
                 port_file.c_str());
    svc.Stop();
    return 1;
  }

  // Serve until a client's SHUTDOWN frame completes its drain.
  while (!svc.WaitForShutdown(/*timeout_ms=*/60'000)) {
  }
  svc.Stop();
  std::printf("shutdown complete\n");
  return 0;
}
