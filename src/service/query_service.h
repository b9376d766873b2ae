#ifndef DUALSIM_SERVICE_QUERY_SERVICE_H_
#define DUALSIM_SERVICE_QUERY_SERVICE_H_

/// TCP query service over a shared Runtime (DESIGN.md §9): a framed
/// binary protocol (service/protocol.h), a bounded admission queue that
/// sheds load with a typed OVERLOADED rejection instead of blocking,
/// per-request deadlines mapped onto QuerySession::Cancel, incremental
/// PROGRESS / EMBEDDINGS streaming as enumeration windows complete, and
/// graceful drain on SHUTDOWN (stop accepting, finish or cancel in-flight
/// sessions, flush metrics).
///
/// Continuous queries (DESIGN.md §14): SUBSCRIBE registers a query that
/// outlives its initial run — the service streams the initial results,
/// then pushes one DELTA chain per UPDATE batch applied to the served
/// graph's delta overlay. One-shot SUBMITs keep running against the
/// immutable base snapshot, so their counts are stable under churn; only
/// subscriptions see the composed (base ∘ overlay) view. Update work runs
/// on the updating client's connection thread with a small bounded frame
/// lease — never on the worker pool — so delta churn cannot starve
/// one-shot queries of workers or frames.
///
/// The same service doubles as a distributed *worker* (DESIGN.md §13): it
/// answers WORKER_HELLO with the served graph's shape, and a
/// partition-scoped SUBMIT runs with an embedding filter so only
/// embeddings touching the scope's partition are counted and streamed.

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/plan.h"
#include "incr/delta_match_pass.h"
#include "runtime/runtime.h"
#include "service/front_end.h"
#include "service/protocol.h"
#include "storage/disk_graph.h"
#include "util/status.h"

namespace dualsim::service {

/// Process exit code for a missing/unreadable graph database, shared by
/// dualsim_cli and dualsim_serve (distinct from 1 = generic failure and
/// 2 = usage error). Codes 6 (I/O backend) and 7 (intersection kernel)
/// belonged to selection knobs that no longer exist; they are not reused.
inline constexpr int kGraphLoadExitCode = 3;

/// Exit code for "the graph database opened but failed verification"
/// (dualsim_cli verify: adjacency/catalog cross-checks on the slotted
/// pages and the label index). Distinct from kGraphLoadExitCode so
/// scripts can tell "unreadable file" from "readable but corrupt".
inline constexpr int kGraphVerifyExitCode = 8;

/// Opens the graph database a front end is about to serve, wrapping
/// storage errors with an actionable message. kNotFound (missing path)
/// keeps its typed code so callers can map it to kGraphLoadExitCode.
StatusOr<std::unique_ptr<DiskGraph>> OpenServedGraph(const std::string& path);

struct ServiceOptions {
  /// Loopback by default; the service is not authenticated.
  std::string bind_address = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  std::uint16_t port = 0;
  /// Worker threads running query sessions — the concurrency of admitted
  /// work. Each worker drives one QuerySession at a time on the shared
  /// Runtime, which arbitrates frames between them.
  int num_workers = 2;
  /// Bounded admission queue: submissions beyond this many *queued* (not
  /// yet running) requests are shed with a typed OVERLOADED rejection —
  /// the service never blocks a connection on admission.
  std::size_t max_queue_depth = 16;
  /// Grace period for in-flight and queued sessions on drain before they
  /// are cancelled.
  std::uint32_t drain_timeout_ms = 10'000;
  /// Minimum gap between PROGRESS frames per request (0 = every window).
  std::uint32_t progress_interval_ms = 10;
  /// Per-session frame cap (SessionOptions::max_frames); 0 = whatever is
  /// unreserved at admission. Set this when num_workers > 1 so sessions
  /// fit side by side.
  std::size_t session_max_frames = 0;
  /// Forwarded to each request's SessionOptions.
  bool paper_buffer_allocation = true;
  PlanOptions plan;
  /// Metrics JSON flush target on drain; empty = DUALSIM_METRICS_OUT env
  /// var, or no flush.
  std::string metrics_path;
  /// Live SUBSCRIBE cap; further subscriptions are shed with OVERLOADED
  /// (0 disables continuous queries entirely).
  std::size_t max_subscriptions = 64;
  /// Pages per incremental re-execution window (incr::IncrOptions).
  std::uint32_t incr_window_pages = 64;
  /// Ablation knob: false re-runs every window on each update instead of
  /// only the dirty ones. The streamed diffs are identical either way.
  bool incr_dirty_window_filter = true;
  /// Frame-lease cap for overlay application and delta re-execution; the
  /// starvation guard that keeps update churn from draining the pool.
  std::size_t incr_max_frames = 8;
  /// Test seam: invoked on the worker thread immediately before a
  /// request's session runs (loopback tests use it to hold a worker and
  /// provoke queueing / overload / deadline paths deterministically).
  std::function<void(std::uint64_t request_id)> on_request_start;
};

/// One serving endpoint. Lifecycle: construct -> Start() -> (serve) ->
/// Stop(), where Stop is triggered either directly (signal handler path)
/// or by a client SHUTDOWN frame — use WaitForShutdown() to observe the
/// latter. All entry points are thread-safe; Stop() is idempotent. The
/// socket, frame loop, ledger and drain sequence live in the shared
/// FrontEnd shell (service/front_end.h); this class adds the admission
/// queue, the workers, subscriptions and updates, and WORKER_HELLO.
class QueryService {
 public:
  explicit QueryService(Runtime* runtime, ServiceOptions options = {});
  ~QueryService();

  QueryService(const QueryService&) = delete;
  QueryService& operator=(const QueryService&) = delete;

  /// Binds, listens, and spawns the acceptor / worker / deadline-watchdog
  /// threads. InvalidArgument on bad options or a degenerate runtime,
  /// IOError when the socket cannot be bound.
  Status Start();

  /// Bound TCP port (the ephemeral choice when options.port == 0).
  std::uint16_t port() const { return shell_.port(); }

  /// True once a drain has begun (SHUTDOWN frame or Stop()).
  bool draining() const { return shell_.draining(); }

  /// Blocks up to `timeout_ms` for a client-initiated SHUTDOWN drain to
  /// complete; returns true when one has. The caller still runs Stop()
  /// for the final teardown (joins, socket close).
  bool WaitForShutdown(std::uint32_t timeout_ms) {
    return shell_.WaitForShutdown(timeout_ms);
  }

  /// Graceful drain + teardown: stop accepting, finish or cancel
  /// in-flight sessions (drain_timeout_ms grace), flush metrics, join
  /// every thread, close every socket.
  void Stop();

  /// Point-in-time admission ledger (the STATUS response).
  StatusInfo Snapshot() const { return shell_.Snapshot(); }

 private:
  struct Request;
  struct Subscription;

  bool HandleFrame(const std::shared_ptr<Connection>& conn,
                   const Frame& frame);
  void WorkerLoop();
  /// Watchdog tick: expires queued requests, cancels running ones.
  void ExpireDeadlines();
  void FillStatus(StatusInfo* info) const;

  void HandleSubmit(const std::shared_ptr<Connection>& conn,
                    std::string_view payload);
  void HandleCancel(const std::shared_ptr<Connection>& conn,
                    std::string_view payload);
  void HandleWorkerHello(Connection& conn, std::string_view payload);
  void HandleSubscribe(const std::shared_ptr<Connection>& conn,
                       std::string_view payload);
  void HandleUpdate(Connection& conn, std::string_view payload);
  void HandleUnsubscribe(const std::shared_ptr<Connection>& conn,
                         std::string_view payload);

  /// Terminates every subscription owned by `conn` without sending frames
  /// (the peer is gone); counts each as cancelled.
  void DropSubscriptionsOf(const std::shared_ptr<Connection>& conn);

  /// Ends every subscription with a terminal RESULT carrying `code`
  /// (drain path).
  void EndAllSubscriptions(WireCode code, const std::string& message);

  /// Runs a just-registered subscription's query once against the current
  /// composed view (caller holds IncrState::mu), streaming EMBEDDINGS
  /// when `stream` is set; returns the initial embedding count.
  StatusOr<std::uint64_t> RunInitialSubscription(
      const std::shared_ptr<Subscription>& sub, bool stream);

  /// Pushes one batch's embedding diff to one subscription as a chunked
  /// DELTA chain (final chunk flagged); returns frames sent.
  std::uint64_t SendDeltaChain(const Subscription& sub, std::uint64_t sequence,
                               const incr::EmbeddingDiff& diff);

  /// Sends a failed subscription's terminal RESULT and counts it.
  void FailSubscription(const Subscription& sub, const Status& status);

  /// Runs one admitted request's session, counts the outcome, and returns
  /// the encoded RESULT payload. The worker sends it only after retiring
  /// the request from active_, so a client that has seen its RESULT never
  /// observes itself in the STATUS ledger's active count.
  std::string RunRequest(const std::shared_ptr<Request>& req);

  /// Sends a RESULT for a request that never ran (queue-cancelled,
  /// deadline-expired in queue, drain flush) and counts it.
  void FinishWithoutRun(const std::shared_ptr<Request>& req, WireCode code,
                        std::string message);

  /// Waits for queued+active to drain (grace period), then cancels
  /// stragglers and waits again.
  void DrainInFlight();

  Runtime* runtime_;
  ServiceOptions options_;
  FrontEnd shell_;

  std::vector<std::thread> workers_;

  mutable std::mutex mu_;
  std::condition_variable work_cv_;  // workers: queue non-empty / stop
  std::condition_variable idle_cv_;  // drain: queue empty && no active
  std::deque<std::shared_ptr<Request>> queue_;
  std::vector<std::shared_ptr<Request>> active_;
  std::vector<std::shared_ptr<Subscription>> subscriptions_;

  std::atomic<std::uint64_t> updates_received_{0};
  std::atomic<std::uint64_t> delta_frames_sent_{0};
};

}  // namespace dualsim::service

#endif  // DUALSIM_SERVICE_QUERY_SERVICE_H_
