#ifndef DUALSIM_SERVICE_CLIENT_H_
#define DUALSIM_SERVICE_CLIENT_H_

/// Synchronous client for the query service (DESIGN.md §9). One client is
/// one connection carrying one request at a time: Submit() blocks through
/// the admission decision (ACCEPTED/REJECTED), Await() reads streamed
/// PROGRESS / EMBEDDINGS frames until the RESULT arrives. Cancel() may be
/// called from another thread while Await() blocks (the socket is
/// full-duplex; writes are serialized internally).

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "graph/graph.h"
#include "service/protocol.h"
#include "util/status.h"

namespace dualsim::service {

/// One query to submit.
struct ClientRequest {
  std::string query;                 // query/parser.h text form
  std::uint32_t deadline_ms = 0;     // 0 = no deadline
  bool stream_embeddings = false;    // also receive EMBEDDINGS batches
  std::uint32_t max_embeddings = 0;  // cap on streamed embeddings (0 = all)
  /// Set on coordinator -> worker sub-queries: the SUBMIT carries the
  /// scope and the worker reports only embeddings touching its part.
  std::optional<PartitionScope> partition = std::nullopt;
};

/// Terminal outcome of one admitted request (a decoded RESULT frame plus
/// client-side stream accounting).
struct ClientResult {
  WireCode code = WireCode::kInternalError;
  std::string message;
  std::uint64_t embeddings = 0;
  std::uint64_t physical_reads = 0;
  std::uint64_t logical_hits = 0;
  std::uint64_t elapsed_us = 0;
  bool plan_cached = false;
  /// Client-side tallies of the streamed frames seen before the RESULT.
  std::uint64_t progress_frames = 0;
  std::uint64_t streamed_embeddings = 0;
  /// Present when the service announced a degraded merge (a PARTIAL_RESULT
  /// frame preceding a RESULT with code kPartialResult): which partitions
  /// failed and what the surviving workers contributed.
  std::optional<PartialResultFrame> partial = std::nullopt;
};

/// Outcome of a successful Subscribe(): the subscription is live and the
/// service will push one DELTA chain per applied UPDATE batch.
struct SubscribeResult {
  std::uint64_t subscription_id = 0;
  /// Embeddings of the query in the composed view at registration time
  /// (the PROGRESS go-live marker's count).
  std::uint64_t initial_count = 0;
  /// Initial embeddings streamed before go-live (only when requested).
  std::uint64_t streamed_embeddings = 0;
};

/// One push from the service to a subscriber: either a complete embedding
/// diff for one update batch (a DELTA chain re-assembled across chunks),
/// or the subscription's terminal RESULT (`ended`).
struct SubscriptionEvent {
  std::uint64_t subscription_id = 0;
  bool ended = false;

  // Diff payload (ended == false). Vertex lists are arity-strided
  // flattened embeddings, like EMBEDDINGS batches.
  std::uint64_t sequence = 0;
  std::uint8_t arity = 0;
  std::vector<VertexId> added;
  std::vector<VertexId> retracted;
  std::uint64_t windows_rerun = 0;
  std::uint64_t windows_skipped = 0;
  std::uint64_t pages_read = 0;

  // Terminal payload (ended == true): why the service closed the
  // subscription, and how many diffs it pushed over its lifetime.
  WireCode end_code = WireCode::kOk;
  std::string end_message;
  std::uint64_t diffs_pushed = 0;
};

class QueryClient {
 public:
  QueryClient() = default;
  ~QueryClient() { Close(); }

  QueryClient(const QueryClient&) = delete;
  QueryClient& operator=(const QueryClient&) = delete;

  /// Connects to a serving endpoint (IPv4 dotted quad, e.g. "127.0.0.1").
  Status Connect(const std::string& host, std::uint16_t port);

  bool connected() const { return fd_ >= 0; }
  void Close();

  /// Submits `req` and blocks through the admission decision. A REJECTED
  /// frame becomes a typed error: kOverloaded -> ResourceExhausted,
  /// kShuttingDown -> FailedPrecondition, kInvalidQuery -> InvalidArgument.
  /// On success the request is admitted; follow with Await().
  Status Submit(const ClientRequest& req);

  /// Reads streamed frames until the RESULT for the in-flight request.
  /// `on_progress` (optional) sees each PROGRESS count; `on_embedding`
  /// (optional) sees each streamed embedding as a span of `arity` vertex
  /// ids. The RESULT itself is returned whatever its WireCode — a
  /// cancelled or deadline-expired request is a successful Await() whose
  /// result carries the typed code.
  StatusOr<ClientResult> Await(
      const std::function<void(std::uint64_t embeddings)>& on_progress = {},
      const std::function<void(const std::vector<VertexId>& mapping)>&
          on_embedding = {});

  /// Submit() + Await() for the common blocking call.
  StatusOr<ClientResult> Run(const ClientRequest& req);

  /// Requests cancellation of the in-flight request. Thread-safe against
  /// a concurrent Await(); the result still arrives through Await() with
  /// code kCancelled (or kOk if the run won the race).
  Status Cancel();

  /// Coordinator -> worker handshake: sends WORKER_HELLO (announcing the
  /// graph shape the coordinator expects) and blocks for the ack. Only
  /// between requests. The caller judges shape/version skew from the ack.
  StatusOr<WorkerHelloAck> Hello(const WorkerHello& hello);

  /// Hard-unblocks a concurrent Await() by shutting the socket down (no
  /// close; the fd stays owned until Close()). Await then fails with
  /// IOError and the connection is dead — the coordinator's last resort
  /// against a worker that ignores CANCEL past the deadline.
  void Abort();

  /// Fetches the service's admission ledger. Only between requests (the
  /// connection carries one conversation at a time).
  StatusOr<StatusInfo> GetStatus();

  /// Asks the service to drain and shut down; blocks until the
  /// SHUTDOWN_ACK confirming the drain completed.
  Status Shutdown();

  /// Registers a continuous query and blocks through admission and the
  /// initial run: a REJECTED becomes a typed error (as in Submit), an
  /// initial-run failure surfaces its terminal RESULT as an error, and
  /// success returns at the PROGRESS go-live marker. When
  /// `initial_embeddings` is set, each initial embedding is streamed
  /// through `on_embedding` before go-live. One connection may hold
  /// several subscriptions; deltas arrive through NextEvent().
  StatusOr<SubscribeResult> Subscribe(
      const std::string& query, bool initial_embeddings = false,
      const std::function<void(const std::vector<VertexId>& mapping)>&
          on_embedding = {});

  /// Sends one edge-delta batch and blocks for the UPDATE_ACK. DELTA
  /// pushes for this connection's own subscriptions that land first are
  /// queued for NextEvent(), so updating and subscribing on the same
  /// connection is safe.
  StatusOr<UpdateAck> Update(const std::vector<incr::EdgeDelta>& deltas);

  /// Ends one subscription and blocks for its terminal RESULT; returns
  /// the number of delta chains the service pushed over its lifetime.
  /// In-flight DELTA chains that arrive first are queued for NextEvent().
  /// Call only for a live subscription id returned by Subscribe().
  StatusOr<std::uint64_t> Unsubscribe(std::uint64_t subscription_id);

  /// Blocks for the next subscription push: a complete re-assembled DELTA
  /// chain, or a terminal RESULT (`ended` set) when the service closes a
  /// subscription (drain, re-execution failure). Drains frames queued by
  /// Update()/Unsubscribe() before touching the socket.
  StatusOr<SubscriptionEvent> NextEvent();

 private:
  Status Send(FrameType type, std::string_view payload);

  /// Next frame for the subscription machinery: queued first, socket
  /// second.
  StatusOr<Frame> NextSubscriptionFrame();

  int fd_ = -1;
  std::mutex write_mu_;
  std::uint64_t next_request_id_ = 1;
  /// 0 = no request in flight. Atomic because Cancel()/Abort() read it
  /// from another thread while Await() owns the request lifecycle.
  std::atomic<std::uint64_t> inflight_id_{0};
  /// DELTA / terminal RESULT frames that arrived while a different reply
  /// was awaited (Update, Unsubscribe, Subscribe); drained by NextEvent().
  std::deque<Frame> pending_events_;
};

}  // namespace dualsim::service

#endif  // DUALSIM_SERVICE_CLIENT_H_
