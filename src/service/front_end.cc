#include "service/front_end.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstdlib>
#include <cstring>
#include <utility>

namespace dualsim::service {
namespace {

/// Embeddings streamed per EMBEDDINGS frame.
constexpr std::size_t kEmbeddingBatchSize = 64;

/// One ledger entry and its registry mirror.
void Bump(std::atomic<std::uint64_t>& entry, obs::Counter* metric) {
  entry.fetch_add(1, std::memory_order_relaxed);
  metric->Increment();
}

}  // namespace

WireCode CodeForReason(int reason) {
  switch (reason) {
    case kReasonDeadline:
      return WireCode::kDeadlineExceeded;
    case kReasonDrain:
      return WireCode::kShuttingDown;
    default:
      return WireCode::kCancelled;
  }
}

std::uint64_t ElapsedUs(Clock::time_point since) {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                            since)
          .count());
}

Connection::~Connection() {
  if (fd >= 0) ::close(fd);
}

Status Connection::Send(FrameType type, std::string_view payload) {
  std::lock_guard<std::mutex> lock(write_mu);
  if (!open.load(std::memory_order_relaxed)) {
    return Status::IOError("connection closed");
  }
  Status s = WriteFrame(fd, type, payload);
  if (!s.ok()) open.store(false, std::memory_order_relaxed);
  return s;
}

void Connection::SendProtocolError(std::string message) {
  Send(FrameType::kError,
       EncodeReject({0, WireCode::kProtocolError, std::move(message)}));
}

void Connection::ShutdownSocket() {
  open.store(false, std::memory_order_relaxed);
  ::shutdown(fd, SHUT_RDWR);
}

EmbeddingBatcher::EmbeddingBatcher(Connection* conn, std::uint64_t request_id,
                                   std::uint8_t arity, std::uint32_t cap,
                                   obs::Counter* streamed)
    : conn_(conn),
      streamed_(streamed),
      cap_(cap == 0 ? ~0ull : cap) {
  batch_.request_id = request_id;
  batch_.arity = arity;
}

bool EmbeddingBatcher::Add(std::span<const VertexId> embedding) {
  std::lock_guard<std::mutex> lock(mu_);
  if (taken_ >= cap_) return false;
  ++taken_;
  batch_.vertices.insert(batch_.vertices.end(), embedding.begin(),
                         embedding.end());
  if (batch_.vertices.size() >= kEmbeddingBatchSize * batch_.arity) {
    FlushLocked();
  }
  return true;
}

void EmbeddingBatcher::Flush() {
  std::lock_guard<std::mutex> lock(mu_);
  FlushLocked();
}

void EmbeddingBatcher::FlushLocked() {
  if (batch_.vertices.empty()) return;
  streamed_->Increment(batch_.vertices.size() / batch_.arity);
  conn_->Send(FrameType::kEmbeddings, EncodeEmbeddings(batch_));
  batch_.vertices.clear();
}

FrontEndMetrics::FrontEndMetrics(const std::string& prefix)
    : received(obs::Metrics().GetCounter(prefix + ".requests_received")),
      admitted(obs::Metrics().GetCounter(prefix + ".requests_admitted")),
      rejected_overload(
          obs::Metrics().GetCounter(prefix + ".requests_rejected_overload")),
      rejected_draining(
          obs::Metrics().GetCounter(prefix + ".requests_rejected_draining")),
      rejected_invalid(
          obs::Metrics().GetCounter(prefix + ".requests_rejected_invalid")),
      completed(obs::Metrics().GetCounter(prefix + ".requests_completed")),
      failed(obs::Metrics().GetCounter(prefix + ".requests_failed")),
      cancelled(obs::Metrics().GetCounter(prefix + ".requests_cancelled")),
      deadline_expired(
          obs::Metrics().GetCounter(prefix + ".requests_deadline_expired")),
      connections(obs::Metrics().GetCounter(prefix + ".connections")),
      drains(obs::Metrics().GetCounter(prefix + ".drains")),
      embeddings_streamed(
          obs::Metrics().GetCounter(prefix + ".embeddings_streamed")),
      active_requests(obs::Metrics().GetGauge(prefix + ".active_requests")),
      request_latency_us(
          obs::Metrics().GetHistogram(prefix + ".request_latency_us")) {}

FrontEnd::FrontEnd(const std::string& metric_prefix, std::string metrics_path,
                   Handlers handlers)
    : metrics_(metric_prefix),
      metrics_path_(std::move(metrics_path)),
      handlers_(std::move(handlers)) {}

Status FrontEnd::Start(const std::string& bind_address, std::uint16_t port) {
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  Status s;
  if (::inet_pton(AF_INET, bind_address.c_str(), &addr.sin_addr) != 1) {
    s = Status::InvalidArgument("bad bind address '" + bind_address + "'");
  } else if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr),
                    sizeof(addr)) != 0) {
    s = Status::IOError("bind " + bind_address + ":" + std::to_string(port) +
                        ": " + std::strerror(errno));
  } else if (::listen(listen_fd_, 64) != 0) {
    s = Status::IOError(std::string("listen: ") + std::strerror(errno));
  }
  if (!s.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  sockaddr_in bound{};
  socklen_t len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  started_.store(true);
  acceptor_ = std::thread([this] { AcceptorLoop(); });
  watchdog_ = std::thread([this] { WatchdogLoop(); });
  return Status::OK();
}

void FrontEnd::AcceptorLoop() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      // BeginDrain shuts the listening socket down; every other error on
      // a healthy listener is transient.
      if (draining_.load() || stopping_.load()) return;
      continue;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    metrics_.connections->Increment();
    auto conn = std::make_shared<Connection>(fd);
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load()) {
      conn->ShutdownSocket();
      continue;
    }
    connections_.push_back(conn);
    conn_threads_.emplace_back(
        [this, conn]() mutable { ConnectionLoop(std::move(conn)); });
  }
}

void FrontEnd::ConnectionLoop(std::shared_ptr<Connection> conn) {
  for (;;) {
    auto frame_or = ReadFrame(conn->fd);
    if (!frame_or.ok()) {
      // NotFound = clean close; anything else poisons the connection. An
      // oversized header gets a parting ERROR so the client knows why.
      if (frame_or.status().code() == StatusCode::kInvalidArgument) {
        conn->SendProtocolError(frame_or.status().message());
      }
      break;
    }
    const Frame& frame = frame_or.value();
    if (frame.type == FrameType::kStatus) {
      conn->Send(FrameType::kStatusInfo, EncodeStatusInfo(Snapshot()));
    } else if (frame.type == FrameType::kShutdown) {
      HandleShutdown(*conn);
    } else if (!handlers_.on_frame(conn, frame)) {
      conn->SendProtocolError(std::string("unexpected frame ") +
                              FrameTypeName(frame.type));
    }
  }
  conn->ShutdownSocket();
  if (handlers_.on_close) handlers_.on_close(conn);
}

void FrontEnd::WatchdogLoop() {
  std::unique_lock<std::mutex> lock(mu_);
  for (;;) {
    watchdog_cv_.wait_for(lock, std::chrono::milliseconds(2),
                          [this] { return stopping_.load(); });
    if (stopping_.load()) return;
    lock.unlock();
    handlers_.on_tick();
    lock.lock();
  }
}

void FrontEnd::HandleShutdown(Connection& conn) {
  BeginDrain();
  handlers_.drain();
  FlushMetricsOnce();
  conn.Send(FrameType::kShutdownAck, {});
  {
    std::lock_guard<std::mutex> lock(mu_);
    shutdown_requested_ = true;
  }
  shutdown_cv_.notify_all();
}

bool FrontEnd::WaitForShutdown(std::uint32_t timeout_ms) {
  std::unique_lock<std::mutex> lock(mu_);
  return shutdown_cv_.wait_for(lock, std::chrono::milliseconds(timeout_ms),
                               [this] { return shutdown_requested_; });
}

void FrontEnd::BeginDrain() {
  bool expected = false;
  if (!draining_.compare_exchange_strong(expected, true)) return;
  metrics_.drains->Increment();
  // Unblocks accept(); the fd is closed in Stop after the acceptor joins.
  if (listen_fd_ >= 0) ::shutdown(listen_fd_, SHUT_RDWR);
}

void FrontEnd::Stop(const std::function<void()>& join_owned) {
  if (!started_.load()) return;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (stopped_) return;
    stopped_ = true;
  }
  BeginDrain();
  handlers_.drain();
  {
    std::lock_guard<std::mutex> lock(mu_);
    stopping_.store(true);
    watchdog_cv_.notify_all();
  }
  if (join_owned) join_owned();
  if (acceptor_.joinable()) acceptor_.join();
  if (watchdog_.joinable()) watchdog_.join();
  // Unblock and join the connection readers. The acceptor is gone, so
  // conn_threads_ is no longer mutated.
  {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& conn : connections_) conn->ShutdownSocket();
  }
  for (std::thread& t : conn_threads_) {
    if (t.joinable()) t.join();
  }
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  FlushMetricsOnce();
}

void FrontEnd::FlushMetricsOnce() {
  bool expected = false;
  if (!metrics_flushed_.compare_exchange_strong(expected, true)) return;
  std::string path = metrics_path_;
  if (path.empty()) {
    const char* env = std::getenv("DUALSIM_METRICS_OUT");
    if (env != nullptr) path = env;
  }
  if (!path.empty()) obs::WriteMetricsJsonFile(path);
}

void FrontEnd::CountReceived() {
  Bump(ledger_.received, metrics_.received);
}

void FrontEnd::CountAdmitted() {
  Bump(ledger_.admitted, metrics_.admitted);
}

void FrontEnd::Reject(Connection& conn, std::uint64_t request_id,
                      WireCode code, std::string message) {
  switch (code) {
    case WireCode::kShuttingDown:
      Bump(ledger_.rejected_draining, metrics_.rejected_draining);
      break;
    case WireCode::kOverloaded:
      Bump(ledger_.rejected_overload, metrics_.rejected_overload);
      break;
    default:
      Bump(ledger_.rejected_invalid, metrics_.rejected_invalid);
      break;
  }
  conn.Send(FrameType::kRejected,
            EncodeReject({request_id, code, std::move(message)}));
}

void FrontEnd::CountResult(WireCode code) {
  switch (code) {
    case WireCode::kOk:
      Bump(ledger_.completed, metrics_.completed);
      break;
    case WireCode::kDeadlineExceeded:
      Bump(ledger_.deadline_expired, metrics_.deadline_expired);
      break;
    case WireCode::kCancelled:
    case WireCode::kShuttingDown:
      Bump(ledger_.cancelled, metrics_.cancelled);
      break;
    default:  // kPartialResult and harder failures
      Bump(ledger_.failed, metrics_.failed);
      break;
  }
}

StatusInfo FrontEnd::Snapshot() const {
  StatusInfo info;
  info.received = ledger_.received.load(std::memory_order_relaxed);
  info.admitted = ledger_.admitted.load(std::memory_order_relaxed);
  info.rejected_overload =
      ledger_.rejected_overload.load(std::memory_order_relaxed);
  info.rejected_draining =
      ledger_.rejected_draining.load(std::memory_order_relaxed);
  info.rejected_invalid =
      ledger_.rejected_invalid.load(std::memory_order_relaxed);
  info.completed = ledger_.completed.load(std::memory_order_relaxed);
  info.failed = ledger_.failed.load(std::memory_order_relaxed);
  info.cancelled = ledger_.cancelled.load(std::memory_order_relaxed);
  info.deadline_expired =
      ledger_.deadline_expired.load(std::memory_order_relaxed);
  handlers_.fill_status(&info);
  info.draining = draining_.load(std::memory_order_relaxed);
  return info;
}

}  // namespace dualsim::service
