#include "coord/coordinator.h"

#include <signal.h>
#include <spawn.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "distsim/partitioner.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "service/client.h"
#include "service/query_service.h"

extern char** environ;

namespace dualsim::coord {
namespace {

using namespace dualsim::service;

/// The coordinator's metrics beyond the shell's shared `coord.*` set.
struct CoordMetrics {
  obs::Counter* dispatches;
  obs::Counter* merge_accepted;
  obs::Counter* merge_duplicates_dropped;
  obs::Counter* worker_retries;
  obs::Counter* worker_respawns;
  obs::Counter* worker_failures;
  obs::Counter* partial_results;
  obs::Histogram* worker_latency_us;
  obs::Histogram* fanout_spread_us;
};

CoordMetrics& Metrics() {
  static CoordMetrics m{
      obs::Metrics().GetCounter("coord.dispatches"),
      obs::Metrics().GetCounter("coord.merge_accepted"),
      obs::Metrics().GetCounter("coord.merge_duplicates_dropped"),
      obs::Metrics().GetCounter("coord.worker_retries"),
      obs::Metrics().GetCounter("coord.worker_respawns"),
      obs::Metrics().GetCounter("coord.worker_failures"),
      obs::Metrics().GetCounter("coord.partial_results"),
      obs::Metrics().GetHistogram("coord.worker_latency_us"),
      obs::Metrics().GetHistogram("coord.fanout_spread_us"),
  };
  return m;
}

}  // namespace

/// One in-flight client request being fanned out.
struct Coordinator::CoordRequest {
  std::uint64_t id = 0;
  std::shared_ptr<Connection> conn;
  std::string query_text;
  std::uint8_t arity = 0;
  bool stream_embeddings = false;
  std::uint32_t max_embeddings = 0;
  bool has_deadline = false;
  Clock::time_point deadline{};
  Clock::time_point received_at{};
  std::atomic<int> cancel_reason{kReasonNone};
  /// Microseconds after received_at when a client CANCEL armed this
  /// request (-1 = never); the watchdog severs the worker connections
  /// once the abort grace elapses past it, so a cancel cannot hang
  /// behind an unresponsive worker any more than a deadline can.
  std::atomic<std::int64_t> cancel_armed_us{-1};
  /// One-shot: worker connections already severed by the watchdog.
  std::atomic<bool> aborted{false};
  /// Per-partition worker connections, set while a dispatch attempt is in
  /// flight; guarded by wmu so CANCEL/abort fan-outs never race a
  /// client's teardown.
  std::mutex wmu;
  std::vector<std::shared_ptr<QueryClient>> worker_clients;
};

/// What one partition's dispatch produced.
struct Coordinator::PartOutcome {
  bool ok = false;
  int attempts = 0;
  WireCode code = WireCode::kInternalError;
  std::string message;
  std::uint64_t reported = 0;    // worker's touched-embedding count
  std::uint64_t accepted = 0;    // owner == this part
  std::uint64_t duplicates = 0;  // owner elsewhere; dropped
  std::uint64_t physical_reads = 0;
  std::uint64_t logical_hits = 0;
  std::uint64_t elapsed_us = 0;
  /// Flattened owner-accepted embeddings (arity-strided), kept only when
  /// the client asked for streaming.
  std::vector<VertexId> owned;
};

Coordinator::Coordinator(CoordinatorOptions options)
    : options_(std::move(options)),
      shell_("coord", options_.metrics_path,
             {[this](const std::shared_ptr<Connection>& conn,
                     const Frame& frame) { return HandleFrame(conn, frame); },
              [this] { DrainInFlight(); }, [this] { EnforceDeadlines(); },
              /*on_close=*/{},
              [this](StatusInfo* info) {
                // No admission queue: requests fan out on arrival.
                std::lock_guard<std::mutex> lock(mu_);
                info->active_requests =
                    static_cast<std::uint32_t>(active_.size());
              }}) {}

Coordinator::~Coordinator() { Stop(); }

std::vector<WorkerEndpoint> Coordinator::workers() const {
  std::lock_guard<std::mutex> lock(workers_mu_);
  return workers_;
}

Status Coordinator::SpawnWorker(int part) {
  // workers_mu_ held by callers.
  std::string port_file;
  {
    const char* tmp = std::getenv("TMPDIR");
    port_file = std::string(tmp != nullptr ? tmp : "/tmp") +
                "/dualsim_coord_" + std::to_string(::getpid()) + "_p" +
                std::to_string(part) + "_" + std::to_string(spawn_counter_++) +
                ".port";
  }
  ::unlink(port_file.c_str());

  std::vector<std::string> args = {options_.worker_binary, options_.db_path,
                                   "--port", "0", "--port-file", port_file};
  args.insert(args.end(), options_.worker_args.begin(),
              options_.worker_args.end());
  std::vector<char*> argv;
  argv.reserve(args.size() + 1);
  for (std::string& a : args) argv.push_back(a.data());
  argv.push_back(nullptr);

  pid_t pid = -1;
  const int rc = ::posix_spawn(&pid, options_.worker_binary.c_str(), nullptr,
                               nullptr, argv.data(), environ);
  if (rc != 0) {
    return Status::IOError("posix_spawn '" + options_.worker_binary +
                           "': " + std::strerror(rc));
  }

  // The worker writes "<port>\n" via rename, so a readable file is
  // complete. Poll it, watching for an early death.
  const Clock::time_point spawn_deadline =
      Clock::now() +
      std::chrono::milliseconds(options_.worker_spawn_timeout_ms);
  std::uint16_t port = 0;
  for (;;) {
    if (std::FILE* f = std::fopen(port_file.c_str(), "r"); f != nullptr) {
      unsigned p = 0;
      if (std::fscanf(f, "%u", &p) == 1 && p > 0 && p < 65536) {
        port = static_cast<std::uint16_t>(p);
      }
      std::fclose(f);
      if (port != 0) break;
    }
    int wstatus = 0;
    if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
      ::unlink(port_file.c_str());
      return Status::IOError("worker for partition " + std::to_string(part) +
                             " exited before publishing its port");
    }
    if (Clock::now() >= spawn_deadline) {
      ::kill(pid, SIGKILL);
      ::waitpid(pid, &wstatus, 0);
      ::unlink(port_file.c_str());
      return Status::IOError("worker for partition " + std::to_string(part) +
                             " did not publish a port within " +
                             std::to_string(options_.worker_spawn_timeout_ms) +
                             "ms");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ::unlink(port_file.c_str());

  workers_[static_cast<std::size_t>(part)] = WorkerEndpoint{
      "127.0.0.1", port, pid};
  return Status::OK();
}

void Coordinator::MaybeRespawnWorker(int part) {
  std::lock_guard<std::mutex> lock(workers_mu_);
  WorkerEndpoint& w = workers_[static_cast<std::size_t>(part)];
  if (w.pid < 0) return;  // attached: the owner restarts it, we reconnect
  int wstatus = 0;
  const pid_t reaped = ::waitpid(w.pid, &wstatus, WNOHANG);
  if (reaped != w.pid && ::kill(w.pid, 0) == 0) {
    return;  // still alive — the failure was the connection, not the process
  }
  if (Status s = SpawnWorker(part); s.ok()) {
    Metrics().worker_respawns->Increment();
  }
}

Status Coordinator::Start() {
  if (disk_ != nullptr) {
    return Status::FailedPrecondition("coordinator already started");
  }
  if (options_.num_parts < 1) {
    return Status::InvalidArgument(
        "CoordinatorOptions::num_parts=" +
        std::to_string(options_.num_parts) + " (need >= 1)");
  }
  const bool attach = !options_.attach_endpoints.empty();
  if (attach && options_.attach_endpoints.size() !=
                    static_cast<std::size_t>(options_.num_parts)) {
    return Status::InvalidArgument(
        "attach_endpoints has " +
        std::to_string(options_.attach_endpoints.size()) + " entries for " +
        std::to_string(options_.num_parts) + " partitions");
  }
  if (!attach && options_.worker_binary.empty()) {
    return Status::InvalidArgument(
        "either worker_binary (spawn mode) or attach_endpoints (attach "
        "mode) is required");
  }

  auto disk = OpenServedGraph(options_.db_path);
  if (!disk.ok()) return disk.status();
  disk_ = std::move(disk).value();

  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    workers_.assign(static_cast<std::size_t>(options_.num_parts), {});
    for (int p = 0; p < options_.num_parts; ++p) {
      if (attach) {
        const std::string& ep = options_.attach_endpoints[
            static_cast<std::size_t>(p)];
        const std::size_t colon = ep.rfind(':');
        if (colon == std::string::npos) {
          return Status::InvalidArgument("attach endpoint '" + ep +
                                         "' is not host:port");
        }
        workers_[static_cast<std::size_t>(p)] = WorkerEndpoint{
            ep.substr(0, colon),
            static_cast<std::uint16_t>(
                std::atoi(ep.substr(colon + 1).c_str())),
            -1};
      } else {
        DUALSIM_RETURN_IF_ERROR(SpawnWorker(p));
      }
    }
  }

  // Shape + version handshake against every worker before serving:
  // merging counts from the wrong graph must fail here, not corrupt
  // results.
  for (int p = 0; p < options_.num_parts; ++p) {
    const WorkerEndpoint w = workers()[static_cast<std::size_t>(p)];
    QueryClient probe;
    DUALSIM_RETURN_IF_ERROR(probe.Connect(w.host, w.port));
    WorkerHello hello;
    hello.coordinator_id = static_cast<std::uint64_t>(::getpid());
    hello.num_vertices = disk_->num_vertices();
    hello.num_edges = static_cast<std::uint64_t>(disk_->num_edges());
    auto ack = probe.Hello(hello);
    if (!ack.ok()) {
      return Status(ack.status().code(),
                    "worker " + std::to_string(p) + " handshake: " +
                        ack.status().message());
    }
    if (ack->version != kWorkerHelloVersion) {
      return Status::FailedPrecondition(
          "worker " + std::to_string(p) + " speaks hello v" +
          std::to_string(ack->version) + ", coordinator speaks v" +
          std::to_string(kWorkerHelloVersion));
    }
    if (ack->num_vertices != disk_->num_vertices() ||
        ack->num_edges != static_cast<std::uint64_t>(disk_->num_edges())) {
      return Status::FailedPrecondition(
          "worker " + std::to_string(p) + " serves a different graph (" +
          std::to_string(ack->num_vertices) + "v/" +
          std::to_string(ack->num_edges) + "e, expected " +
          std::to_string(disk_->num_vertices()) + "v/" +
          std::to_string(disk_->num_edges()) + "e)");
    }
  }

  return shell_.Start(options_.bind_address, options_.port);
}

bool Coordinator::HandleFrame(const std::shared_ptr<Connection>& conn,
                              const Frame& frame) {
  switch (frame.type) {
    case FrameType::kSubmit:
      HandleSubmit(conn, frame.payload);
      return true;
    case FrameType::kCancel:
      HandleCancel(conn, frame.payload);
      return true;
    default:
      return false;
  }
}

void Coordinator::HandleSubmit(const std::shared_ptr<Connection>& conn,
                               std::string_view payload) {
  SubmitRequest submit;
  if (Status s = DecodeSubmit(payload, &submit); !s.ok()) {
    conn->SendProtocolError(s.message());
    return;
  }
  shell_.CountReceived();

  if (submit.partition.has_value()) {
    shell_.Reject(*conn, submit.request_id, WireCode::kProtocolError,
                  "coordinator does not accept partition-scoped SUBMITs (it "
                  "issues them)");
    return;
  }

  // Parse locally so an invalid query is rejected here instead of N times
  // by the workers (and the arity is known for relaying embeddings).
  auto query = ParseQuery(submit.query);
  if (!query.ok()) {
    shell_.Reject(*conn, submit.request_id, WireCode::kInvalidQuery,
                  query.status().message());
    return;
  }

  auto req = std::make_shared<CoordRequest>();
  req->id = submit.request_id;
  req->conn = conn;
  req->query_text = submit.query;
  req->arity = query->NumVertices();
  req->stream_embeddings = submit.stream_embeddings;
  req->max_embeddings = submit.max_embeddings;
  req->received_at = Clock::now();
  if (submit.deadline_ms > 0) {
    req->has_deadline = true;
    req->deadline =
        req->received_at + std::chrono::milliseconds(submit.deadline_ms);
  }
  req->worker_clients.assign(static_cast<std::size_t>(options_.num_parts),
                             nullptr);

  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shell_.draining()) {
      shell_.Reject(*conn, req->id, WireCode::kShuttingDown,
                    "coordinator is draining");
      return;
    }
    shell_.CountAdmitted();
    conn->Send(FrameType::kAccepted, EncodeAccepted(req->id));
    active_.push_back(req);
    shell_.metrics().active_requests->Set(
        static_cast<std::int64_t>(active_.size()));
    ++runner_count_;
  }
  // Detached runner; runner_count_ (not joinability) gates teardown, so a
  // slow fan-out never blocks the connection thread from reading CANCEL.
  std::thread([this, req]() mutable { RunRequest(std::move(req)); }).detach();
}

void Coordinator::HandleCancel(const std::shared_ptr<Connection>& conn,
                               std::string_view payload) {
  std::uint64_t id = 0;
  if (Status s = DecodeCancel(payload, &id); !s.ok()) {
    conn->SendProtocolError(s.message());
    return;
  }
  std::shared_ptr<CoordRequest> target;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& req : active_) {
      if (req->conn == conn && req->id == id) {
        target = req;
        break;
      }
    }
  }
  // Unknown ids are a CANCEL/RESULT race, not a protocol violation.
  if (target == nullptr) return;
  int expected = kReasonNone;
  if (target->cancel_reason.compare_exchange_strong(expected,
                                                    kReasonClient)) {
    target->cancel_armed_us.store(
        static_cast<std::int64_t>(ElapsedUs(target->received_at)),
        std::memory_order_relaxed);
  }
  CancelWorkers(target);
}

void Coordinator::DispatchPartition(const std::shared_ptr<CoordRequest>& req,
                                    int part, PartOutcome* out) {
  const int max_attempts = std::max(0, options_.max_retries) + 1;
  for (int attempt = 0; attempt < max_attempts; ++attempt) {
    if (req->cancel_reason.load(std::memory_order_relaxed) != kReasonNone) {
      out->code = CodeForReason(
          req->cancel_reason.load(std::memory_order_relaxed));
      out->message = "dispatch stopped by cancellation";
      return;
    }
    if (attempt > 0) Metrics().worker_retries->Increment();
    ++out->attempts;
    if (options_.on_dispatch) options_.on_dispatch(part, attempt);
    Metrics().dispatches->Increment();

    const Clock::time_point attempt_start = Clock::now();
    WorkerEndpoint endpoint;
    {
      std::lock_guard<std::mutex> lock(workers_mu_);
      endpoint = workers_[static_cast<std::size_t>(part)];
    }

    auto client = std::make_shared<QueryClient>();
    Status s = client->Connect(endpoint.host, endpoint.port);
    if (!s.ok()) {
      out->code = WireCode::kInternalError;
      out->message = s.message();
      MaybeRespawnWorker(part);
      continue;
    }

    // Publish for the cancel/abort fan-outs; honor a reason that raced in
    // before publication.
    {
      std::lock_guard<std::mutex> lock(req->wmu);
      req->worker_clients[static_cast<std::size_t>(part)] = client;
    }

    ClientRequest sub;
    sub.query = req->query_text;
    sub.stream_embeddings = true;  // the merge needs every touched embedding
    sub.max_embeddings = 0;
    sub.partition = PartitionScope{
        static_cast<std::uint32_t>(options_.num_parts),
        static_cast<std::uint32_t>(part), options_.partition_seed};
    if (req->has_deadline) {
      // Propagate the *remaining* budget so the worker's own watchdog
      // cancels its session even if this coordinator dies.
      const auto left = std::chrono::duration_cast<std::chrono::milliseconds>(
          req->deadline - Clock::now());
      sub.deadline_ms =
          static_cast<std::uint32_t>(std::max<long long>(1, left.count()));
    }

    // Per-attempt merge state: a retried worker must not double-count.
    std::uint64_t accepted = 0;
    std::uint64_t duplicates = 0;
    std::vector<VertexId> owned;

    StatusOr<ClientResult> result = Status::IOError("not submitted");
    s = client->Submit(sub);
    if (!s.ok()) {
      result = s;
    } else {
      if (req->cancel_reason.load(std::memory_order_relaxed) !=
          kReasonNone) {
        client->Cancel();  // raced in between publication and submit
      }
      result = client->Await(
          /*on_progress=*/{},
          [&](const std::vector<VertexId>& mapping) {
            const int owner = EmbeddingOwner(
                {mapping.data(), mapping.size()}, options_.num_parts,
                options_.partition_seed);
            if (owner != part) {
              ++duplicates;
              return;
            }
            ++accepted;
            if (req->stream_embeddings) {
              owned.insert(owned.end(), mapping.begin(), mapping.end());
            }
          });
    }

    {
      std::lock_guard<std::mutex> lock(req->wmu);
      req->worker_clients[static_cast<std::size_t>(part)] = nullptr;
    }

    if (!result.ok()) {
      // Transport failure: dead worker, severed connection, mid-frame
      // close. Whatever was merged this attempt is discarded.
      out->code = WireCode::kInternalError;
      out->message = result.status().message();
      if (req->cancel_reason.load(std::memory_order_relaxed) !=
          kReasonNone) {
        // The watchdog's Abort severed us on purpose; not a retry case.
        out->code = CodeForReason(
            req->cancel_reason.load(std::memory_order_relaxed));
        return;
      }
      MaybeRespawnWorker(part);
      continue;
    }

    if (result->code == WireCode::kOk) {
      out->ok = true;
      out->code = WireCode::kOk;
      out->reported = result->embeddings;
      out->accepted = accepted;
      out->duplicates = duplicates;
      out->physical_reads = result->physical_reads;
      out->logical_hits = result->logical_hits;
      out->elapsed_us = ElapsedUs(attempt_start);
      out->owned = std::move(owned);
      Metrics().merge_accepted->Increment(accepted);
      Metrics().merge_duplicates_dropped->Increment(duplicates);
      Metrics().worker_latency_us->Record(out->elapsed_us);
      return;
    }

    out->code = result->code;
    out->message = result->message;
    if (result->code == WireCode::kCancelled ||
        result->code == WireCode::kDeadlineExceeded ||
        result->code == WireCode::kShuttingDown) {
      // Typed stop — ours (fan-out cancel) or the worker's own deadline;
      // retrying would just stop again.
      return;
    }
    // Typed worker-side failure (overload, internal error): retry.
  }
  Metrics().worker_failures->Increment();
}

void Coordinator::RunRequest(std::shared_ptr<CoordRequest> req) {
  std::vector<PartOutcome> outcomes(
      static_cast<std::size_t>(options_.num_parts));
  {
    std::vector<std::thread> dispatchers;
    dispatchers.reserve(outcomes.size());
    for (int p = 0; p < options_.num_parts; ++p) {
      dispatchers.emplace_back([this, &req, p, &outcomes] {
        DispatchPartition(req, p, &outcomes[static_cast<std::size_t>(p)]);
      });
    }
    for (std::thread& t : dispatchers) t.join();
  }

  ResultFrame out;
  out.request_id = req->id;
  out.elapsed_us = ElapsedUs(req->received_at);

  const int reason = req->cancel_reason.load(std::memory_order_relaxed);
  std::vector<std::uint32_t> failed_parts;
  std::uint64_t merged = 0;
  std::uint64_t min_part_us = ~0ull, max_part_us = 0;
  for (std::size_t p = 0; p < outcomes.size(); ++p) {
    const PartOutcome& po = outcomes[p];
    if (po.ok) {
      merged += po.accepted;
      out.physical_reads += po.physical_reads;
      out.logical_hits += po.logical_hits;
      min_part_us = std::min(min_part_us, po.elapsed_us);
      max_part_us = std::max(max_part_us, po.elapsed_us);
    } else {
      failed_parts.push_back(static_cast<std::uint32_t>(p));
    }
  }

  if (reason != kReasonNone) {
    out.code = CodeForReason(reason);
    out.message = "request stopped (" + std::string(WireCodeName(out.code)) +
                  ") before the merge completed";
  } else if (!failed_parts.empty()) {
    out.code = WireCode::kPartialResult;
    out.embeddings = merged;
    std::string parts;
    for (std::uint32_t p : failed_parts) {
      if (!parts.empty()) parts += ",";
      parts += std::to_string(p);
      if (!outcomes[p].message.empty()) {
        parts += " (" + outcomes[p].message + ")";
      }
    }
    out.message = "partitions " + parts + " failed after " +
                  std::to_string(std::max(0, options_.max_retries) + 1) +
                  " attempt(s); count covers the surviving partitions only";
    PartialResultFrame partial;
    partial.request_id = req->id;
    partial.total_parts = static_cast<std::uint32_t>(options_.num_parts);
    partial.failed_parts = failed_parts;
    partial.merged_embeddings = merged;
    partial.message = out.message;
    Metrics().partial_results->Increment();
    req->conn->Send(FrameType::kPartialResult, EncodePartialResult(partial));
  } else {
    out.code = WireCode::kOk;
    out.embeddings = merged;
    if (max_part_us >= min_part_us) {
      Metrics().fanout_spread_us->Record(max_part_us - min_part_us);
    }
    // Relay the merged (owner-deduplicated) embeddings, re-batched, only
    // on a complete merge: a partial stream would not be trustworthy.
    if (req->stream_embeddings && req->arity > 0) {
      EmbeddingBatcher batcher(req->conn.get(), req->id, req->arity,
                               req->max_embeddings,
                               shell_.metrics().embeddings_streamed);
      for (const PartOutcome& po : outcomes) {
        const std::span<const VertexId> owned(po.owned);
        for (std::size_t i = 0; i + req->arity <= owned.size();
             i += req->arity) {
          if (!batcher.Add(owned.subspan(i, req->arity))) break;
        }
      }
      batcher.Flush();
    }
  }

  shell_.CountResult(out.code);
  shell_.metrics().request_latency_us->Record(out.elapsed_us);
  {
    std::lock_guard<std::mutex> lock(mu_);
    active_.erase(std::find(active_.begin(), active_.end(), req));
    shell_.metrics().active_requests->Set(
        static_cast<std::int64_t>(active_.size()));
  }
  req->conn->Send(FrameType::kResult, EncodeResult(out));
  idle_cv_.notify_all();
  {
    std::lock_guard<std::mutex> lock(mu_);
    --runner_count_;
  }
  runners_cv_.notify_all();
}

void Coordinator::CancelWorkers(const std::shared_ptr<CoordRequest>& req) {
  std::lock_guard<std::mutex> lock(req->wmu);
  for (const auto& client : req->worker_clients) {
    if (client != nullptr) client->Cancel();  // best effort
  }
}

void Coordinator::AbortWorkers(const std::shared_ptr<CoordRequest>& req) {
  bool expected = false;
  if (!req->aborted.compare_exchange_strong(expected, true)) return;
  std::lock_guard<std::mutex> lock(req->wmu);
  for (const auto& client : req->worker_clients) {
    if (client != nullptr) client->Abort();
  }
}

void Coordinator::EnforceDeadlines() {
  std::vector<std::shared_ptr<CoordRequest>> to_cancel;
  std::vector<std::shared_ptr<CoordRequest>> to_abort;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Clock::time_point now = Clock::now();
    for (const auto& req : active_) {
      if (req->has_deadline && now >= req->deadline) {
        int expected = kReasonNone;
        if (req->cancel_reason.compare_exchange_strong(expected,
                                                       kReasonDeadline)) {
          to_cancel.push_back(req);
        }
        // Cancel asks nicely; past the grace window the workers'
        // connections are severed so Await() cannot outlive the deadline.
        if (now >= req->deadline +
                       std::chrono::milliseconds(options_.abort_grace_ms)) {
          to_abort.push_back(req);
        }
      }
      // A client CANCEL gets the same ladder: workers still holding the
      // request past the abort grace are severed (AbortWorkers is
      // one-shot, so overlap with the deadline branch is harmless).
      const std::int64_t armed =
          req->cancel_armed_us.load(std::memory_order_relaxed);
      if (armed >= 0 &&
          ElapsedUs(req->received_at) >=
              static_cast<std::uint64_t>(armed) +
                  static_cast<std::uint64_t>(options_.abort_grace_ms) *
                      1000) {
        to_abort.push_back(req);
      }
    }
  }
  for (const auto& req : to_cancel) CancelWorkers(req);
  for (const auto& req : to_abort) AbortWorkers(req);
}

void Coordinator::DrainInFlight() {
  const auto grace = std::chrono::milliseconds(options_.drain_timeout_ms);
  std::vector<std::shared_ptr<CoordRequest>> stragglers;
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait_for(lock, grace, [this] { return active_.empty(); });
    for (const auto& req : active_) {
      int expected = kReasonNone;
      req->cancel_reason.compare_exchange_strong(expected, kReasonDrain);
      stragglers.push_back(req);
    }
  }
  for (const auto& req : stragglers) CancelWorkers(req);
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait_for(lock,
                      std::chrono::milliseconds(options_.abort_grace_ms),
                      [this] { return active_.empty(); });
  }
  // Workers that ignored the cancel get their connections severed; the
  // dispatch threads then fail out and the runners answer the clients.
  for (const auto& req : stragglers) AbortWorkers(req);
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait_for(lock, grace, [this] { return active_.empty(); });
  // Runner threads are detached; wait for the count, not joinability.
  runners_cv_.wait_for(lock, grace, [this] { return runner_count_ == 0; });
}

void Coordinator::Stop() {
  shell_.Stop();
  // Stop spawned workers: SIGTERM, short grace, SIGKILL, reap. Attached
  // workers belong to whoever started them.
  {
    std::lock_guard<std::mutex> lock(workers_mu_);
    for (WorkerEndpoint& w : workers_) {
      if (w.pid < 0) continue;
      ::kill(w.pid, SIGTERM);
    }
    const Clock::time_point kill_at =
        Clock::now() + std::chrono::milliseconds(500);
    for (WorkerEndpoint& w : workers_) {
      if (w.pid < 0) continue;
      int wstatus = 0;
      while (::waitpid(w.pid, &wstatus, WNOHANG) == 0) {
        if (Clock::now() >= kill_at) {
          ::kill(w.pid, SIGKILL);
          ::waitpid(w.pid, &wstatus, 0);
          break;
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
      w.pid = -1;
    }
  }
}

}  // namespace dualsim::coord
