#ifndef DUALSIM_SERVICE_FRONT_END_H_
#define DUALSIM_SERVICE_FRONT_END_H_

/// The serving shell shared by QueryService and coord::Coordinator
/// (DESIGN.md §9 "Front ends"): everything a TCP front end does before and
/// after its own request handling. A front end owns one FrontEnd and hands
/// it a frame handler; the shell owns the listen socket, the acceptor and
/// per-connection reader threads, the frame loop (STATUS and SHUTDOWN are
/// answered here), the admission ledger with its `<prefix>.*` metrics, the
/// 2 ms watchdog tick, the drain/SHUTDOWN sequence, and the EMBEDDINGS
/// batcher.

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "graph/graph.h"
#include "obs/metrics.h"
#include "service/protocol.h"
#include "util/status.h"

namespace dualsim::service {

using Clock = std::chrono::steady_clock;

/// Why a request was asked to stop; first writer wins (CAS from
/// kReasonNone), and the reason — not the engine's generic Cancelled —
/// picks the terminal code, identically in every front end.
enum CancelReason : int {
  kReasonNone = 0,
  kReasonClient = 1,    // CANCEL frame
  kReasonDeadline = 2,  // per-request deadline expired
  kReasonDrain = 3,     // shutdown drain gave up waiting
};

WireCode CodeForReason(int reason);

std::uint64_t ElapsedUs(Clock::time_point since);

/// One accepted TCP connection. Frames may be written by the reader
/// thread, request runners and the watchdog; write_mu keeps each frame
/// atomic on the wire. Lock order: a front end's own mutex before
/// write_mu (Send never takes another lock).
struct Connection {
  explicit Connection(int fd_in) : fd(fd_in) {}
  ~Connection();

  Status Send(FrameType type, std::string_view payload);

  /// ERROR frame with PROTOCOL_ERROR and request id 0 (malformed payload).
  void SendProtocolError(std::string message);

  /// Unblocks the reader thread; the fd itself is closed by ~Connection.
  void ShutdownSocket();

  int fd;
  std::mutex write_mu;
  std::atomic<bool> open{true};
};

/// Batches streamed embeddings into EMBEDDINGS frames of 64 mappings.
/// Thread-safe: the engine's visitor calls Add from several worker tasks
/// at once. Nothing is allocated until the first Add.
class EmbeddingBatcher {
 public:
  /// `cap` bounds the embeddings taken (0 = all); `streamed` counts the
  /// embeddings sent.
  EmbeddingBatcher(Connection* conn, std::uint64_t request_id,
                   std::uint8_t arity, std::uint32_t cap,
                   obs::Counter* streamed);

  /// Queues one embedding of `arity` ids, sending a full batch; false
  /// (and nothing queued) once `cap` embeddings were taken.
  bool Add(std::span<const VertexId> embedding);

  /// Sends the partial batch; call once after the last Add.
  void Flush();

 private:
  void FlushLocked();

  std::mutex mu_;
  Connection* conn_;
  obs::Counter* streamed_;
  std::uint64_t cap_;
  std::uint64_t taken_ = 0;
  EmbeddingBatch batch_;
};

/// The `<prefix>.*` registry metrics every front end keeps.
struct FrontEndMetrics {
  explicit FrontEndMetrics(const std::string& prefix);

  obs::Counter* received;
  obs::Counter* admitted;
  obs::Counter* rejected_overload;
  obs::Counter* rejected_draining;
  obs::Counter* rejected_invalid;
  obs::Counter* completed;
  obs::Counter* failed;
  obs::Counter* cancelled;
  obs::Counter* deadline_expired;
  obs::Counter* connections;
  obs::Counter* drains;
  obs::Counter* embeddings_streamed;
  obs::Gauge* active_requests;
  obs::Histogram* request_latency_us;
};

/// Lifecycle: construct -> Start() -> (serve) -> Stop(). The owner calls
/// Stop() before it destroys anything its Handlers touch.
class FrontEnd {
 public:
  /// What the owning front end contributes. Every callback may run
  /// concurrently with the others.
  struct Handlers {
    /// Every frame but STATUS and SHUTDOWN, on the connection's reader
    /// thread; false = a type this front end does not take (answered with
    /// a PROTOCOL_ERROR frame).
    std::function<bool(const std::shared_ptr<Connection>&, const Frame&)>
        on_frame;
    /// Finishes or cancels in-flight work after the drain began (the
    /// SHUTDOWN frame and Stop()).
    std::function<void()> drain;
    /// Deadline watchdog, every 2 ms while serving.
    std::function<void()> on_tick;
    /// The connection's peer is gone (reader exiting). Optional.
    std::function<void(const std::shared_ptr<Connection>&)> on_close;
    /// Fills the STATUS fields the ledger does not hold (queue, active and
    /// subscription counts, update counters).
    std::function<void(StatusInfo*)> fill_status;
  };

  /// `metrics_path` is the drain-time metrics JSON target (empty =
  /// DUALSIM_METRICS_OUT, or no flush).
  FrontEnd(const std::string& metric_prefix, std::string metrics_path,
           Handlers handlers);

  FrontEnd(const FrontEnd&) = delete;
  FrontEnd& operator=(const FrontEnd&) = delete;

  /// Binds and listens (TCP_NODELAY on each accepted socket), then starts
  /// the acceptor and watchdog threads.
  Status Start(const std::string& bind_address, std::uint16_t port);

  std::uint16_t port() const { return port_; }
  bool draining() const { return draining_.load(std::memory_order_relaxed); }
  /// True once Stop() has drained; the owner's worker loops exit on it.
  bool stopping() const { return stopping_.load(); }

  /// Blocks up to `timeout_ms` for a SHUTDOWN drain to complete.
  bool WaitForShutdown(std::uint32_t timeout_ms);

  /// Stops accepting and marks the endpoint draining (idempotent).
  void BeginDrain();

  /// Drain + teardown, idempotent: BeginDrain, Handlers::drain, then
  /// `join_owned` (the owner wakes and joins its own threads; stopping()
  /// is already true), then the shell's threads and sockets, then the
  /// metrics flush.
  void Stop(const std::function<void()>& join_owned = {});

  const FrontEndMetrics& metrics() const { return metrics_; }

  /// Ledger: one SUBMIT (or SUBSCRIBE) arrived with a decodable payload.
  void CountReceived();
  /// Ledger: admitted; the caller sends ACCEPTED.
  void CountAdmitted();
  /// Counts a rejection by `code` (SHUTTING_DOWN -> draining, OVERLOADED
  /// -> overload, anything else -> invalid) and sends the REJECTED frame.
  void Reject(Connection& conn, std::uint64_t request_id, WireCode code,
              std::string message);
  /// Counts one terminal RESULT by its code.
  void CountResult(WireCode code);

  /// Point-in-time ledger (the STATUS response).
  StatusInfo Snapshot() const;

 private:
  void AcceptorLoop();
  void ConnectionLoop(std::shared_ptr<Connection> conn);
  void WatchdogLoop();
  void HandleShutdown(Connection& conn);
  void FlushMetricsOnce();

  FrontEndMetrics metrics_;
  std::string metrics_path_;
  Handlers handlers_;

  int listen_fd_ = -1;
  std::uint16_t port_ = 0;
  std::atomic<bool> started_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> stopping_{false};
  std::atomic<bool> metrics_flushed_{false};

  std::thread acceptor_;
  std::thread watchdog_;

  mutable std::mutex mu_;
  std::condition_variable shutdown_cv_;  // WaitForShutdown
  std::condition_variable watchdog_cv_;  // watchdog tick / stop
  bool shutdown_requested_ = false;      // guarded by mu_
  bool stopped_ = false;                 // guarded by mu_
  std::vector<std::shared_ptr<Connection>> connections_;  // guarded by mu_
  std::vector<std::thread> conn_threads_;                 // guarded by mu_

  /// Instance-scoped ledger (the obs registry is process-wide; STATUS
  /// reports this endpoint alone).
  struct Ledger {
    std::atomic<std::uint64_t> received{0};
    std::atomic<std::uint64_t> admitted{0};
    std::atomic<std::uint64_t> rejected_overload{0};
    std::atomic<std::uint64_t> rejected_draining{0};
    std::atomic<std::uint64_t> rejected_invalid{0};
    std::atomic<std::uint64_t> completed{0};
    std::atomic<std::uint64_t> failed{0};
    std::atomic<std::uint64_t> cancelled{0};
    std::atomic<std::uint64_t> deadline_expired{0};
  };
  Ledger ledger_;
};

}  // namespace dualsim::service

#endif  // DUALSIM_SERVICE_FRONT_END_H_
