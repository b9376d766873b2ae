#include "service/query_service.h"

#include <algorithm>
#include <chrono>
#include <utility>

#include "distsim/partitioner.h"
#include "incr/delta_match_pass.h"
#include "incr/incr_state.h"
#include "obs/metrics.h"
#include "query/parser.h"
#include "query/symmetry_breaking.h"
#include "runtime/query_session.h"

namespace dualsim::service {
namespace {

/// The service's metrics beyond the shell's shared `service.*` set.
struct ServiceMetrics {
  obs::Counter* progress_frames;
  obs::Counter* subscriptions;
  obs::Counter* updates;
  obs::Counter* delta_frames;
  obs::Gauge* queue_depth;
  obs::Gauge* subscriptions_active;
  obs::Histogram* queue_wait_us;
};

ServiceMetrics& Metrics() {
  static ServiceMetrics m{
      obs::Metrics().GetCounter("service.progress_frames"),
      obs::Metrics().GetCounter("service.subscriptions"),
      obs::Metrics().GetCounter("service.updates"),
      obs::Metrics().GetCounter("service.delta_frames"),
      obs::Metrics().GetGauge("service.queue_depth"),
      obs::Metrics().GetGauge("service.subscriptions_active"),
      obs::Metrics().GetHistogram("service.queue_wait_us"),
  };
  return m;
}

/// Vertex ids per DELTA chunk (added + retracted combined); keeps every
/// chunk far below kMaxFramePayload.
constexpr std::size_t kDeltaChunkVertices = 16 * 1024;

SessionOptions SessionOptionsFor(const ServiceOptions& options) {
  SessionOptions sopt;
  sopt.max_frames = options.session_max_frames;
  sopt.paper_buffer_allocation = options.paper_buffer_allocation;
  sopt.plan = options.plan;
  return sopt;
}

}  // namespace

StatusOr<std::unique_ptr<DiskGraph>> OpenServedGraph(const std::string& path) {
  auto disk = DiskGraph::Open(path, /*bypass_os_cache=*/false);
  if (!disk.ok()) {
    const Status& st = disk.status();
    return Status(st.code(), "cannot load graph database '" + path +
                                 "': " + st.message());
  }
  return disk;
}

/// One admitted (or about-to-be-admitted) SUBMIT.
struct QueryService::Request {
  std::uint64_t id = 0;
  std::shared_ptr<Connection> conn;
  QueryGraph query{1};
  bool has_deadline = false;
  Clock::time_point deadline{};
  bool stream_embeddings = false;
  std::uint32_t max_embeddings = 0;
  /// SUBMIT scope: count/stream only embeddings touching this part.
  std::optional<PartitionScope> partition = std::nullopt;
  Clock::time_point received_at{};
  /// CancelReason (service/front_end.h).
  std::atomic<int> cancel_reason{kReasonNone};
  /// Set by the worker while the session runs; guarded by the service's
  /// mu_ so CANCEL / the watchdog never race the session's destruction.
  QuerySession* session = nullptr;
};

/// One live continuous query. Registered under the service's mu_; its
/// DELTA chains are pushed while the updater's connection thread holds the
/// IncrState mutex, so chains for successive batches never interleave.
struct QueryService::Subscription {
  std::uint64_t id = 0;
  std::shared_ptr<Connection> conn;
  QueryGraph query{1};
  std::vector<PartialOrder> orders;
  /// DELTA chains sent (one per batch). Written under IncrState::mu, read
  /// by unsubscribe/drain paths that hold only the service's mu_.
  std::atomic<std::uint64_t> diffs_pushed{0};
  Clock::time_point received_at{};
};

QueryService::QueryService(Runtime* runtime, ServiceOptions options)
    : runtime_(runtime),
      options_(std::move(options)),
      shell_("service", options_.metrics_path,
             {[this](const std::shared_ptr<Connection>& conn,
                     const Frame& frame) { return HandleFrame(conn, frame); },
              [this] { DrainInFlight(); }, [this] { ExpireDeadlines(); },
              [this](const std::shared_ptr<Connection>& conn) {
                // A silently-closed connection takes its subscriptions with
                // it; nobody is listening for their terminal frames.
                DropSubscriptionsOf(conn);
              },
              [this](StatusInfo* info) { FillStatus(info); }}) {}

QueryService::~QueryService() { Stop(); }

Status QueryService::Start() {
  if (!workers_.empty()) {
    return Status::FailedPrecondition("service already started");
  }
  if (runtime_ == nullptr) {
    return Status::InvalidArgument("QueryService requires a Runtime");
  }
  DUALSIM_RETURN_IF_ERROR(runtime_->init_status());
  if (options_.num_workers < 1) {
    return Status::InvalidArgument(
        "ServiceOptions::num_workers=" +
        std::to_string(options_.num_workers) + " (need >= 1)");
  }
  if (options_.max_queue_depth < 1) {
    return Status::InvalidArgument(
        "ServiceOptions::max_queue_depth must be >= 1 (load shedding needs "
        "at least one queue slot)");
  }
  DUALSIM_RETURN_IF_ERROR(
      shell_.Start(options_.bind_address, options_.port));
  workers_.reserve(static_cast<std::size_t>(options_.num_workers));
  for (int i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void QueryService::Stop() {
  shell_.Stop([this] {
    {
      // Under mu_, no worker sits between its predicate check and its wait.
      std::lock_guard<std::mutex> lock(mu_);
      work_cv_.notify_all();
    }
    for (std::thread& w : workers_) {
      if (w.joinable()) w.join();
    }
  });
}

bool QueryService::HandleFrame(const std::shared_ptr<Connection>& conn,
                               const Frame& frame) {
  switch (frame.type) {
    case FrameType::kSubmit:
      HandleSubmit(conn, frame.payload);
      return true;
    case FrameType::kCancel:
      HandleCancel(conn, frame.payload);
      return true;
    case FrameType::kWorkerHello:
      HandleWorkerHello(*conn, frame.payload);
      return true;
    case FrameType::kSubscribe:
      HandleSubscribe(conn, frame.payload);
      return true;
    case FrameType::kUpdate:
      HandleUpdate(*conn, frame.payload);
      return true;
    case FrameType::kUnsubscribe:
      HandleUnsubscribe(conn, frame.payload);
      return true;
    default:
      return false;
  }
}

void QueryService::HandleSubmit(const std::shared_ptr<Connection>& conn,
                                std::string_view payload) {
  SubmitRequest submit;
  if (Status s = DecodeSubmit(payload, &submit); !s.ok()) {
    conn->SendProtocolError(s.message());
    return;
  }
  shell_.CountReceived();

  auto query = ParseQuery(submit.query);
  if (!query.ok()) {
    shell_.Reject(*conn, submit.request_id, WireCode::kInvalidQuery,
                  query.status().message());
    return;
  }

  auto req = std::make_shared<Request>();
  req->id = submit.request_id;
  req->conn = conn;
  req->query = std::move(query).value();
  req->received_at = Clock::now();
  if (submit.deadline_ms > 0) {
    req->has_deadline = true;
    req->deadline =
        req->received_at + std::chrono::milliseconds(submit.deadline_ms);
  }
  req->stream_embeddings = submit.stream_embeddings;
  req->max_embeddings = submit.max_embeddings;
  req->partition = submit.partition;

  // Admission decision and its announcement are atomic under mu_ so the
  // client always sees ACCEPTED before any frame a worker emits for the
  // same request (lock order: mu_ -> Connection::write_mu).
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shell_.draining()) {
      shell_.Reject(*conn, req->id, WireCode::kShuttingDown,
                    "service is draining");
      return;
    }
    if (queue_.size() >= options_.max_queue_depth) {
      shell_.Reject(*conn, req->id, WireCode::kOverloaded,
                    "admission queue full (depth " +
                        std::to_string(queue_.size()) + ")");
      return;
    }
    shell_.CountAdmitted();
    conn->Send(FrameType::kAccepted, EncodeAccepted(req->id));
    queue_.push_back(std::move(req));
    Metrics().queue_depth->Set(static_cast<std::int64_t>(queue_.size()));
  }
  work_cv_.notify_one();
}

void QueryService::HandleCancel(const std::shared_ptr<Connection>& conn,
                                std::string_view payload) {
  std::uint64_t id = 0;
  if (Status s = DecodeCancel(payload, &id); !s.ok()) {
    conn->SendProtocolError(s.message());
    return;
  }
  std::shared_ptr<Request> queued;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = queue_.begin(); it != queue_.end(); ++it) {
      if ((*it)->conn == conn && (*it)->id == id) {
        queued = *it;
        queue_.erase(it);
        Metrics().queue_depth->Set(static_cast<std::int64_t>(queue_.size()));
        break;
      }
    }
    if (queued == nullptr) {
      for (const auto& req : active_) {
        if (req->conn == conn && req->id == id) {
          int expected = kReasonNone;
          req->cancel_reason.compare_exchange_strong(expected, kReasonClient);
          if (req->session != nullptr) req->session->Cancel();
          break;
        }
      }
      // Unknown ids are ignored: the request may simply have finished —
      // a CANCEL/RESULT race, not a protocol violation.
      return;
    }
    queued->cancel_reason.store(kReasonClient, std::memory_order_relaxed);
  }
  FinishWithoutRun(queued, WireCode::kCancelled, "cancelled before start");
  idle_cv_.notify_all();
}

void QueryService::HandleWorkerHello(Connection& conn,
                                     std::string_view payload) {
  WorkerHello hello;
  if (Status s = DecodeWorkerHello(payload, &hello); !s.ok()) {
    conn.SendProtocolError(s.message());
    return;
  }
  // The ack always states *this* worker's truth; shape or version skew is
  // the coordinator's call to make (it refuses to merge, we keep serving).
  WorkerHelloAck ack;
  ack.version = kWorkerHelloVersion;
  ack.num_vertices = runtime_->disk()->num_vertices();
  ack.num_edges = static_cast<std::uint64_t>(runtime_->disk()->num_edges());
  conn.Send(FrameType::kWorkerHelloAck, EncodeWorkerHelloAck(ack));
}

namespace {

/// Flattens a diff side into the wire's vertex array.
std::vector<VertexId> Flatten(const std::vector<Embedding>& set) {
  std::vector<VertexId> flat;
  if (!set.empty()) flat.reserve(set.size() * set.front().size());
  for (const Embedding& m : set) flat.insert(flat.end(), m.begin(), m.end());
  return flat;
}

}  // namespace

void QueryService::HandleSubscribe(const std::shared_ptr<Connection>& conn,
                                   std::string_view payload) {
  SubscribeRequest request;
  if (Status s = DecodeSubscribe(payload, &request); !s.ok()) {
    conn->SendProtocolError(s.message());
    return;
  }
  shell_.CountReceived();
  Metrics().subscriptions->Increment();

  auto query = ParseQuery(request.query);
  if (!query.ok()) {
    shell_.Reject(*conn, request.request_id, WireCode::kInvalidQuery,
                  query.status().message());
    return;
  }

  auto sub = std::make_shared<Subscription>();
  sub->id = request.request_id;
  sub->conn = conn;
  sub->query = std::move(query).value();
  sub->orders = FindPartialOrders(sub->query);
  sub->received_at = Clock::now();

  // Registration and the initial run are one atomic step against the
  // update pipeline (IncrState::mu): every batch lands either in the
  // initial results or in a DELTA chain, never both, never neither.
  // Lock order: incr.mu -> mu_ -> Connection::write_mu.
  incr::IncrState& incr = runtime_->incr_state();
  std::lock_guard<std::mutex> incr_lock(incr.mu);
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (shell_.draining()) {
      shell_.Reject(*conn, sub->id, WireCode::kShuttingDown,
                    "service is draining");
      return;
    }
    if (subscriptions_.size() >= options_.max_subscriptions) {
      shell_.Reject(*conn, sub->id, WireCode::kOverloaded,
                    "subscription cap reached (" +
                        std::to_string(subscriptions_.size()) + " live)");
      return;
    }
    shell_.CountAdmitted();
    conn->Send(FrameType::kAccepted, EncodeAccepted(sub->id));
    subscriptions_.push_back(sub);
    Metrics().subscriptions_active->Set(
        static_cast<std::int64_t>(subscriptions_.size()));
  }

  StatusOr<std::uint64_t> initial =
      RunInitialSubscription(sub, request.initial_embeddings);
  if (!initial.ok()) {
    {
      std::lock_guard<std::mutex> lock(mu_);
      auto it = std::find(subscriptions_.begin(), subscriptions_.end(), sub);
      if (it != subscriptions_.end()) subscriptions_.erase(it);
      Metrics().subscriptions_active->Set(
          static_cast<std::int64_t>(subscriptions_.size()));
    }
    FailSubscription(*sub, initial.status());
    return;
  }
  // Go-live marker: the initial count; everything after this frame is
  // DELTA chains and the terminal RESULT.
  Metrics().progress_frames->Increment();
  conn->Send(FrameType::kProgress, EncodeProgress({sub->id, *initial}));
}

StatusOr<std::uint64_t> QueryService::RunInitialSubscription(
    const std::shared_ptr<Subscription>& sub, bool stream) {
  incr::IncrState& incr = runtime_->incr_state();
  if (!incr.overlay->dirty()) {
    // Pristine overlay: the composed view IS the base graph, so the
    // initial run goes through a regular QuerySession — full engine,
    // plan cache, paper buffer allocation.
    QuerySession session(runtime_, SessionOptionsFor(options_));
    if (!stream) {
      DUALSIM_ASSIGN_OR_RETURN(EngineStats stats, session.Run(sub->query));
      return stats.embeddings;
    }
    EmbeddingBatcher batcher(sub->conn.get(), sub->id,
                             sub->query.NumVertices(), /*cap=*/0,
                             shell_.metrics().embeddings_streamed);
    auto run = session.Run(
        sub->query, [&](std::span<const VertexId> m) { batcher.Add(m); });
    DUALSIM_RETURN_IF_ERROR(run.status());
    batcher.Flush();
    return run->embeddings;
  }

  // Dirty overlay: enumerate the composed view with the incremental
  // machinery under a small frame lease (the engine reads base pages
  // only, so it cannot serve the overlayed view).
  DUALSIM_ASSIGN_OR_RETURN(Runtime::FrameLease lease,
                           runtime_->Admit(1, options_.incr_max_frames));
  incr::DeltaMatchPass pass(
      incr.overlay.get(), lease.pool(),
      {options_.incr_window_pages, options_.incr_dirty_window_filter});
  DUALSIM_ASSIGN_OR_RETURN(std::vector<Embedding> all,
                           pass.EnumerateAll(sub->query, sub->orders));
  if (stream) {
    EmbeddingBatcher batcher(sub->conn.get(), sub->id,
                             sub->query.NumVertices(), /*cap=*/0,
                             shell_.metrics().embeddings_streamed);
    for (const Embedding& m : all) batcher.Add(m);
    batcher.Flush();
  }
  return static_cast<std::uint64_t>(all.size());
}

std::uint64_t QueryService::SendDeltaChain(const Subscription& sub,
                                           std::uint64_t sequence,
                                           const incr::EmbeddingDiff& diff) {
  const std::uint8_t arity = sub.query.NumVertices();
  const std::vector<VertexId> added = Flatten(diff.added);
  const std::vector<VertexId> retracted = Flatten(diff.retracted);
  // Embedding-aligned chunk capacity (>= one embedding per chunk).
  const std::size_t cap =
      std::max<std::size_t>(kDeltaChunkVertices / arity, 1) * arity;

  std::uint64_t frames = 0;
  std::size_t a = 0;
  std::size_t r = 0;
  for (;;) {
    DeltaFrame frame;
    frame.request_id = sub.id;
    frame.sequence = sequence;
    frame.arity = arity;
    std::size_t room = cap;
    const std::size_t take_a = std::min(room, added.size() - a);
    frame.added.assign(added.begin() + a, added.begin() + a + take_a);
    a += take_a;
    room -= take_a;
    const std::size_t take_r = std::min(room, retracted.size() - r);
    frame.retracted.assign(retracted.begin() + r,
                           retracted.begin() + r + take_r);
    r += take_r;
    const bool final = a == added.size() && r == retracted.size();
    frame.flags = final ? kDeltaFlagFinal : 0;
    if (final) {
      // Stats ride on the final chunk only.
      frame.windows_rerun = diff.stats.windows_rerun;
      frame.windows_skipped = diff.stats.windows_skipped;
      frame.pages_read = diff.stats.pages_read;
    }
    sub.conn->Send(FrameType::kDelta, EncodeDelta(frame));
    ++frames;
    if (final) break;
  }
  delta_frames_sent_.fetch_add(frames, std::memory_order_relaxed);
  Metrics().delta_frames->Increment(frames);
  return frames;
}

void QueryService::HandleUpdate(Connection& conn, std::string_view payload) {
  UpdateRequest update;
  if (Status s = DecodeUpdate(payload, &update); !s.ok()) {
    conn.SendProtocolError(s.message());
    return;
  }
  updates_received_.fetch_add(1, std::memory_order_relaxed);
  Metrics().updates->Increment();

  // The whole pipeline — flush, apply, fan out — runs on this connection
  // thread under the IncrState mutex with a bounded frame lease: updates
  // serialize with each other and with initial subscription runs, and
  // never occupy a worker or more than incr_max_frames frames.
  incr::IncrState& incr = runtime_->incr_state();
  std::lock_guard<std::mutex> incr_lock(incr.mu);
  incr.log.Append(update.deltas);
  const incr::DeltaBatch batch = incr.log.Flush();

  auto lease = runtime_->Admit(1, options_.incr_max_frames);
  if (!lease.ok()) {
    conn.Send(FrameType::kError,
               EncodeReject({update.request_id, WireCode::kInternalError,
                             lease.status().ToString()}));
    return;
  }
  auto applied = incr.overlay->ApplyBatch(batch, lease->pool());
  if (!applied.ok()) {
    conn.Send(FrameType::kError,
               EncodeReject({update.request_id,
                             WireCodeFor(applied.status()),
                             applied.status().message()}));
    return;
  }

  UpdateAck ack;
  ack.request_id = update.request_id;
  ack.sequence = applied->sequence;
  ack.applied = static_cast<std::uint32_t>(applied->applied.size());
  ack.ignored = static_cast<std::uint32_t>(applied->ignored);
  ack.dirty_pages = applied->dirty_pages.Count();

  // Live snapshot; no subscription can register while incr.mu is held.
  std::vector<std::shared_ptr<Subscription>> subs;
  {
    std::lock_guard<std::mutex> lock(mu_);
    subs = subscriptions_;
  }

  std::vector<std::shared_ptr<Subscription>> broken;
  for (const auto& sub : subs) {
    incr::DeltaMatchPass pass(
        incr.overlay.get(), lease->pool(),
        {options_.incr_window_pages, options_.incr_dirty_window_filter});
    auto diff = pass.Run(sub->query, sub->orders, *applied);
    if (!diff.ok()) {
      broken.push_back(sub);
      FailSubscription(*sub, diff.status());
      continue;
    }
    SendDeltaChain(*sub, applied->sequence, *diff);
    sub->diffs_pushed.fetch_add(1, std::memory_order_relaxed);
    ack.windows_rerun += diff->stats.windows_rerun;
    ack.windows_skipped += diff->stats.windows_skipped;
    ack.pages_read += diff->stats.pages_read;
    ++ack.subscriptions_notified;
  }
  if (!broken.empty()) {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& sub : broken) {
      auto it = std::find(subscriptions_.begin(), subscriptions_.end(), sub);
      if (it != subscriptions_.end()) subscriptions_.erase(it);
    }
    Metrics().subscriptions_active->Set(
        static_cast<std::int64_t>(subscriptions_.size()));
  }
  conn.Send(FrameType::kUpdateAck, EncodeUpdateAck(ack));
}

void QueryService::HandleUnsubscribe(const std::shared_ptr<Connection>& conn,
                                     std::string_view payload) {
  std::uint64_t id = 0;
  if (Status s = DecodeUnsubscribe(payload, &id); !s.ok()) {
    conn->SendProtocolError(s.message());
    return;
  }
  std::shared_ptr<Subscription> found;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = subscriptions_.begin(); it != subscriptions_.end(); ++it) {
      if ((*it)->conn == conn && (*it)->id == id) {
        found = *it;
        subscriptions_.erase(it);
        break;
      }
    }
    Metrics().subscriptions_active->Set(
        static_cast<std::int64_t>(subscriptions_.size()));
  }
  // Unknown ids are ignored, like CANCEL: the subscription may already
  // have ended (drain / error) — a race, not a protocol violation.
  if (found == nullptr) return;
  ResultFrame out;
  out.request_id = id;
  out.code = WireCode::kOk;
  out.embeddings =
      found->diffs_pushed.load(std::memory_order_relaxed);  // chains sent
  out.elapsed_us = ElapsedUs(found->received_at);
  shell_.CountResult(WireCode::kOk);
  conn->Send(FrameType::kResult, EncodeResult(out));
}

void QueryService::DropSubscriptionsOf(
    const std::shared_ptr<Connection>& conn) {
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (auto it = subscriptions_.begin(); it != subscriptions_.end();) {
      if ((*it)->conn == conn) {
        it = subscriptions_.erase(it);
        ++dropped;
      } else {
        ++it;
      }
    }
    Metrics().subscriptions_active->Set(
        static_cast<std::int64_t>(subscriptions_.size()));
  }
  for (std::size_t i = 0; i < dropped; ++i) {
    shell_.CountResult(WireCode::kCancelled);
  }
}

void QueryService::EndAllSubscriptions(WireCode code,
                                       const std::string& message) {
  std::vector<std::shared_ptr<Subscription>> ended;
  {
    std::lock_guard<std::mutex> lock(mu_);
    ended.swap(subscriptions_);
    Metrics().subscriptions_active->Set(0);
  }
  for (const auto& sub : ended) {
    ResultFrame out;
    out.request_id = sub->id;
    out.code = code;
    out.message = message;
    out.embeddings = sub->diffs_pushed.load(std::memory_order_relaxed);
    out.elapsed_us = ElapsedUs(sub->received_at);
    shell_.CountResult(code);
    sub->conn->Send(FrameType::kResult, EncodeResult(out));
  }
}

void QueryService::FailSubscription(const Subscription& sub,
                                    const Status& status) {
  ResultFrame out;
  out.request_id = sub.id;
  out.code = WireCodeFor(status);
  if (out.code == WireCode::kOk) out.code = WireCode::kInternalError;
  out.message = status.ToString();
  out.elapsed_us = ElapsedUs(sub.received_at);
  shell_.CountResult(out.code);
  sub.conn->Send(FrameType::kResult, EncodeResult(out));
}

void QueryService::WorkerLoop() {
  for (;;) {
    std::shared_ptr<Request> req;
    {
      std::unique_lock<std::mutex> lock(mu_);
      work_cv_.wait(
          lock, [this] { return shell_.stopping() || !queue_.empty(); });
      if (queue_.empty()) return;  // stopping and drained
      req = queue_.front();
      queue_.pop_front();
      Metrics().queue_depth->Set(static_cast<std::int64_t>(queue_.size()));
      active_.push_back(req);
      shell_.metrics().active_requests->Set(
          static_cast<std::int64_t>(active_.size()));
    }
    const std::string result_payload = RunRequest(req);
    {
      std::lock_guard<std::mutex> lock(mu_);
      active_.erase(std::find(active_.begin(), active_.end(), req));
      shell_.metrics().active_requests->Set(
          static_cast<std::int64_t>(active_.size()));
    }
    req->conn->Send(FrameType::kResult, result_payload);
    idle_cv_.notify_all();
  }
}

std::string QueryService::RunRequest(const std::shared_ptr<Request>& req) {
  Metrics().queue_wait_us->Record(ElapsedUs(req->received_at));
  if (options_.on_request_start) options_.on_request_start(req->id);

  // Cancelled (or expired) while queued/held: never start the session.
  if (int reason = req->cancel_reason.load(std::memory_order_relaxed);
      reason != kReasonNone) {
    const WireCode code = CodeForReason(reason);
    shell_.CountResult(code);
    ResultFrame out;
    out.request_id = req->id;
    out.code = code;
    out.message = "request stopped before execution";
    out.elapsed_us = ElapsedUs(req->received_at);
    return EncodeResult(out);
  }

  SessionOptions sopt = SessionOptionsFor(options_);
  if (req->partition.has_value()) {
    // Partition-scoped sub-query: report only embeddings with a matched
    // vertex homed in this part. Pure in (num_parts, seed), so the
    // coordinator's owner-side dedup sees a deterministic report set.
    const PartitionScope scope = *req->partition;
    sopt.embedding_filter = [scope](std::span<const VertexId> m) {
      return EmbeddingTouches(m, static_cast<int>(scope.part_id),
                              static_cast<int>(scope.num_parts), scope.seed);
    };
  }

  // Progress streaming: the scheduler invokes this serially from the
  // session's window loop each time a last-level window retires.
  std::atomic<std::int64_t> last_progress_us{-1'000'000};
  const std::int64_t interval_us =
      static_cast<std::int64_t>(options_.progress_interval_ms) * 1000;
  const Clock::time_point start = Clock::now();
  sopt.progress = [&](std::uint64_t embeddings) {
    const std::int64_t now_us = static_cast<std::int64_t>(ElapsedUs(start));
    const std::int64_t last = last_progress_us.load(std::memory_order_relaxed);
    if (now_us - last < interval_us) return;
    last_progress_us.store(now_us, std::memory_order_relaxed);
    Metrics().progress_frames->Increment();
    req->conn->Send(FrameType::kProgress,
                    EncodeProgress({req->id, embeddings}));
  };

  QuerySession session(runtime_, std::move(sopt));
  {
    // Publish the session for CANCEL / the watchdog; a reason recorded
    // before publication is honored here.
    std::lock_guard<std::mutex> lock(mu_);
    req->session = &session;
    if (req->cancel_reason.load(std::memory_order_relaxed) != kReasonNone) {
      session.Cancel();
    }
  }

  StatusOr<EngineStats> result = [&] {
    if (!req->stream_embeddings) return session.Run(req->query);
    EmbeddingBatcher batcher(req->conn.get(), req->id,
                             req->query.NumVertices(), req->max_embeddings,
                             shell_.metrics().embeddings_streamed);
    auto run = session.Run(
        req->query, [&](std::span<const VertexId> m) { batcher.Add(m); });
    batcher.Flush();
    return run;
  }();

  {
    // Unpublish before the session dies; CANCEL after this point is a
    // no-op on this request.
    std::lock_guard<std::mutex> lock(mu_);
    req->session = nullptr;
  }

  ResultFrame out;
  out.request_id = req->id;
  out.elapsed_us = ElapsedUs(req->received_at);
  if (result.ok()) {
    out.code = WireCode::kOk;
    out.embeddings = result->embeddings;
    out.physical_reads = result->io.physical_reads;
    out.logical_hits = result->io.logical_hits;
    out.plan_cached = result->plan_cached;
  } else if (result.status().code() == StatusCode::kCancelled) {
    out.code = CodeForReason(
        req->cancel_reason.load(std::memory_order_relaxed));
    out.message = result.status().message();
  } else {
    out.code = WireCodeFor(result.status());
    out.message = result.status().ToString();
  }
  shell_.CountResult(out.code);
  shell_.metrics().request_latency_us->Record(out.elapsed_us);
  return EncodeResult(out);
}

void QueryService::FinishWithoutRun(const std::shared_ptr<Request>& req,
                                    WireCode code, std::string message) {
  shell_.CountResult(code);
  ResultFrame out;
  out.request_id = req->id;
  out.code = code;
  out.message = std::move(message);
  out.elapsed_us = ElapsedUs(req->received_at);
  req->conn->Send(FrameType::kResult, EncodeResult(out));
}

void QueryService::ExpireDeadlines() {
  std::vector<std::shared_ptr<Request>> expired;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const Clock::time_point now = Clock::now();
    // Expired in the queue: remove and answer without running.
    for (auto it = queue_.begin(); it != queue_.end();) {
      if ((*it)->has_deadline && now >= (*it)->deadline) {
        (*it)->cancel_reason.store(kReasonDeadline, std::memory_order_relaxed);
        expired.push_back(*it);
        it = queue_.erase(it);
      } else {
        ++it;
      }
    }
    if (!expired.empty()) {
      Metrics().queue_depth->Set(static_cast<std::int64_t>(queue_.size()));
    }
    // Expired while running: map the deadline onto QuerySession::Cancel.
    for (const auto& req : active_) {
      if (req->has_deadline && now >= req->deadline) {
        int expected = kReasonNone;
        if (req->cancel_reason.compare_exchange_strong(expected,
                                                       kReasonDeadline) &&
            req->session != nullptr) {
          req->session->Cancel();
        }
      }
    }
  }
  if (expired.empty()) return;
  for (const auto& req : expired) {
    FinishWithoutRun(req, WireCode::kDeadlineExceeded,
                     "deadline expired while queued");
  }
  idle_cv_.notify_all();
}

void QueryService::DrainInFlight() {
  // Subscriptions are not in-flight work — they are standing state; end
  // each with its terminal RESULT before waiting out the queue.
  EndAllSubscriptions(WireCode::kShuttingDown, "service is draining");
  const auto grace = std::chrono::milliseconds(options_.drain_timeout_ms);
  std::vector<std::shared_ptr<Request>> flushed;
  {
    std::unique_lock<std::mutex> lock(mu_);
    idle_cv_.wait_for(lock, grace, [this] {
      return queue_.empty() && active_.empty();
    });
    // Grace expired: flush the queue and cancel the running sessions.
    for (const auto& req : queue_) {
      req->cancel_reason.store(kReasonDrain, std::memory_order_relaxed);
      flushed.push_back(req);
    }
    queue_.clear();
    Metrics().queue_depth->Set(0);
    for (const auto& req : active_) {
      int expected = kReasonNone;
      if (req->cancel_reason.compare_exchange_strong(expected, kReasonDrain) &&
          req->session != nullptr) {
        req->session->Cancel();
      }
    }
  }
  for (const auto& req : flushed) {
    FinishWithoutRun(req, WireCode::kShuttingDown, "service drained");
  }
  idle_cv_.notify_all();
  // Cancellation stops at the next window boundary; give it the same
  // grace again before teardown proceeds regardless.
  std::unique_lock<std::mutex> lock(mu_);
  idle_cv_.wait_for(lock, grace,
                    [this] { return queue_.empty() && active_.empty(); });
}

void QueryService::FillStatus(StatusInfo* info) const {
  info->updates_received = updates_received_.load(std::memory_order_relaxed);
  info->delta_frames_sent =
      delta_frames_sent_.load(std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mu_);
  info->queue_depth = static_cast<std::uint32_t>(queue_.size());
  info->active_requests = static_cast<std::uint32_t>(active_.size());
  info->subscriptions_active =
      static_cast<std::uint32_t>(subscriptions_.size());
}

}  // namespace dualsim::service
