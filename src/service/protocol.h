#ifndef DUALSIM_SERVICE_PROTOCOL_H_
#define DUALSIM_SERVICE_PROTOCOL_H_

/// Wire protocol of the query service (DESIGN.md §9).
///
/// Every message is one *frame*: a 5-byte header — u32 little-endian
/// payload length followed by a u8 frame type — and then the payload.
/// All integers are little-endian fixed width; strings are a u32 length
/// prefix plus raw bytes. A frame whose declared length exceeds
/// kMaxFramePayload is a protocol violation and closes the connection.
///
/// Client -> server: SUBMIT, CANCEL, STATUS, SHUTDOWN, WORKER_HELLO,
/// SUBSCRIBE, UPDATE, UNSUBSCRIBE.
/// Server -> client: ACCEPTED, REJECTED, PROGRESS, EMBEDDINGS, RESULT,
/// STATUS_INFO, SHUTDOWN_ACK, ERROR, WORKER_HELLO_ACK, PARTIAL_RESULT,
/// DELTA, UPDATE_ACK.
///
/// One SUBMIT produces exactly one terminal frame for its request id —
/// REJECTED (never admitted) or RESULT (admitted; carries a WireCode) —
/// with any number of PROGRESS / EMBEDDINGS frames in between. A
/// coordinator additionally announces a degraded merge with one
/// PARTIAL_RESULT frame immediately before a RESULT whose code is
/// kPartialResult. Request ids are chosen by the client and scoped to its
/// connection.
///
/// Continuous queries (DESIGN.md §14): one SUBSCRIBE produces one ACCEPTED
/// or REJECTED, the initial results (EMBEDDINGS batches when requested,
/// then one PROGRESS carrying the initial count as the go-live marker),
/// any number of DELTA frames — one chain per applied update batch, chunked
/// under the frame cap with kDeltaFlagFinal on the last chunk — and exactly
/// one terminal RESULT (UNSUBSCRIBE -> OK, drain -> SHUTTING_DOWN). UPDATE
/// applies an edge-delta batch to the served graph's overlay and is
/// answered by one UPDATE_ACK (or ERROR) after every live subscription's
/// DELTA chain for that batch has been sent.
///
/// WORKER_HELLO / WORKER_HELLO_ACK is the coordinator -> worker handshake
/// (DESIGN.md §13): the coordinator states its hello version and the graph
/// shape it partitioned; the worker answers with its version and the shape
/// it serves, so shape or version skew fails fast instead of merging counts
/// from the wrong graph.
///
/// Every payload has one fixed layout and decoders demand it exactly: a
/// truncated, extended or foreign payload fails typed (PROTOCOL_ERROR).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "graph/graph.h"
#include "incr/edge_delta_log.h"
#include "util/status.h"

namespace dualsim::service {

/// Upper bound on a frame's payload; larger headers poison the connection.
inline constexpr std::uint32_t kMaxFramePayload = 1u << 20;

enum class FrameType : std::uint8_t {
  // Client -> server.
  kSubmit = 0x01,
  kCancel = 0x02,
  kStatus = 0x03,
  kShutdown = 0x04,
  kWorkerHello = 0x05,
  kSubscribe = 0x06,
  kUpdate = 0x07,
  kUnsubscribe = 0x08,
  // Server -> client.
  kAccepted = 0x81,
  kRejected = 0x82,
  kProgress = 0x83,
  kEmbeddings = 0x84,
  kResult = 0x85,
  kStatusInfo = 0x86,
  kShutdownAck = 0x87,
  kError = 0x88,
  kWorkerHelloAck = 0x89,
  kPartialResult = 0x8A,
  kDelta = 0x8B,
  kUpdateAck = 0x8C,
};

const char* FrameTypeName(FrameType type);

/// Typed outcome carried by REJECTED / RESULT / ERROR frames.
enum class WireCode : std::uint8_t {
  kOk = 0,
  kInvalidQuery = 1,      // query text failed to parse / plan
  kOverloaded = 2,        // admission queue full; resubmit later
  kShuttingDown = 3,      // service is draining; no new work
  kDeadlineExceeded = 4,  // per-request deadline expired
  kCancelled = 5,         // client CANCEL frame took effect
  kInternalError = 6,     // engine failure (I/O, resources, ...)
  kProtocolError = 7,     // malformed or unexpected frame
  kPartialResult = 8,     // coordinator merged a strict subset of workers
};

const char* WireCodeName(WireCode code);

/// Maps an engine Status to the WireCode a RESULT frame carries.
/// kCancelled is context-dependent (client cancel vs deadline vs drain)
/// and is resolved by the service, not here.
WireCode WireCodeFor(const Status& status);

/// SUBMIT flag bits (u8). Bits outside kSubmitFlagsKnown are rejected.
inline constexpr std::uint8_t kSubmitFlagStream = 0x1;
/// A 16-byte partition scope (u32 num_parts, u32 part_id, u64 seed)
/// follows the query string — the coordinator -> worker dispatch form.
inline constexpr std::uint8_t kSubmitFlagPartition = 0x2;
inline constexpr std::uint8_t kSubmitFlagsKnown =
    kSubmitFlagStream | kSubmitFlagPartition;

/// Partition scope of a coordinator-dispatched sub-query: the worker
/// enumerates the shared graph but reports only embeddings touching
/// `part_id` under the pure hash placement (num_parts, seed) — see
/// distsim/partitioner.h. The scope is self-describing so stock workers
/// need no out-of-band partition state.
struct PartitionScope {
  std::uint32_t num_parts = 0;
  std::uint32_t part_id = 0;
  std::uint64_t seed = 0;
};

/// SUBMIT payload: u64 request_id, u32 deadline_ms, u32 max_embeddings,
/// u8 flags, query string, then the partition scope when flagged.
struct SubmitRequest {
  std::uint64_t request_id = 0;
  std::uint32_t deadline_ms = 0;     // 0 = no deadline
  std::uint32_t max_embeddings = 0;  // cap on streamed embeddings (0 = all)
  bool stream_embeddings = false;    // also stream EMBEDDINGS batches
  std::string query;                 // query/parser.h text form (labels ok)
  /// Coordinator -> worker sub-queries only (kSubmitFlagPartition).
  std::optional<PartitionScope> partition = std::nullopt;
};

/// REJECTED and ERROR payload (ERROR uses request_id 0 when unknown).
struct RejectFrame {
  std::uint64_t request_id = 0;
  WireCode code = WireCode::kProtocolError;
  std::string message;
};

/// PROGRESS payload: monotonic embedding count, sent as enumeration
/// windows complete.
struct ProgressFrame {
  std::uint64_t request_id = 0;
  std::uint64_t embeddings = 0;
};

/// EMBEDDINGS payload: `vertices.size() / arity` embeddings, each `arity`
/// vertex ids in query-vertex order.
struct EmbeddingBatch {
  std::uint64_t request_id = 0;
  std::uint8_t arity = 0;
  std::vector<VertexId> vertices;
};

/// RESULT payload: the terminal status of an admitted request.
struct ResultFrame {
  std::uint64_t request_id = 0;
  WireCode code = WireCode::kInternalError;
  std::string message;  // empty on kOk
  std::uint64_t embeddings = 0;
  std::uint64_t physical_reads = 0;
  std::uint64_t logical_hits = 0;
  std::uint64_t elapsed_us = 0;
  bool plan_cached = false;
};

/// STATUS_INFO payload: the service's admission ledger. Invariant (also
/// asserted by the loopback tests): received == admitted +
/// rejected_overload + rejected_draining + rejected_invalid, and once
/// drained admitted == completed + failed + cancelled + deadline_expired.
struct StatusInfo {
  std::uint64_t received = 0;
  std::uint64_t admitted = 0;
  std::uint64_t rejected_overload = 0;
  std::uint64_t rejected_draining = 0;
  std::uint64_t rejected_invalid = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  std::uint64_t cancelled = 0;
  std::uint64_t deadline_expired = 0;
  std::uint32_t queue_depth = 0;
  std::uint32_t active_requests = 0;
  bool draining = false;
  std::uint32_t subscriptions_active = 0;
  std::uint64_t updates_received = 0;
  std::uint64_t delta_frames_sent = 0;
};

std::string EncodeSubmit(const SubmitRequest& req);
Status DecodeSubmit(std::string_view payload, SubmitRequest* out);

std::string EncodeCancel(std::uint64_t request_id);
Status DecodeCancel(std::string_view payload, std::uint64_t* request_id);

std::string EncodeAccepted(std::uint64_t request_id);
Status DecodeAccepted(std::string_view payload, std::uint64_t* request_id);

std::string EncodeReject(const RejectFrame& frame);
Status DecodeReject(std::string_view payload, RejectFrame* out);

std::string EncodeProgress(const ProgressFrame& frame);
Status DecodeProgress(std::string_view payload, ProgressFrame* out);

std::string EncodeEmbeddings(const EmbeddingBatch& batch);
Status DecodeEmbeddings(std::string_view payload, EmbeddingBatch* out);

std::string EncodeResult(const ResultFrame& frame);
Status DecodeResult(std::string_view payload, ResultFrame* out);

std::string EncodeStatusInfo(const StatusInfo& info);
Status DecodeStatusInfo(std::string_view payload, StatusInfo* out);

/// SUBSCRIBE payload: register a continuous query. The server runs it
/// once against the current composed view (streaming EMBEDDINGS batches
/// when `initial_embeddings` is set), marks the go-live boundary with a
/// PROGRESS frame carrying the initial count, then pushes one DELTA chain
/// per applied UPDATE batch until UNSUBSCRIBE or drain.
struct SubscribeRequest {
  std::uint64_t request_id = 0;
  bool initial_embeddings = false;
  std::string query;  // query/parser.h text form (labels ok)
};

/// UPDATE payload: one edge-delta batch for the served graph. Deltas are
/// applied atomically as one batch (last-writer-wins per vertex pair) and
/// fan out to every live subscription before the UPDATE_ACK.
struct UpdateRequest {
  std::uint64_t request_id = 0;
  std::vector<incr::EdgeDelta> deltas;
};

/// Bytes one EdgeDelta occupies on the wire (op u8 + 2 vertex u32 +
/// 2 label u16); bounds the per-frame delta count.
inline constexpr std::size_t kWireDeltaBytes = 13;

/// DELTA flags (u8 bitmask).
inline constexpr std::uint8_t kDeltaFlagFinal = 0x1;

/// DELTA payload: the embedding diff one applied batch produced for one
/// subscription. Large diffs are chunked into several DELTA frames (all
/// but the last with kDeltaFlagFinal clear); the re-execution stats ride
/// on the final chunk only.
struct DeltaFrame {
  std::uint64_t request_id = 0;  // the subscription's id
  std::uint64_t sequence = 0;    // batch sequence (EdgeDeltaLog)
  std::uint8_t arity = 0;
  std::uint8_t flags = kDeltaFlagFinal;
  std::vector<VertexId> added;      // size % arity == 0
  std::vector<VertexId> retracted;  // size % arity == 0
  std::uint64_t windows_rerun = 0;
  std::uint64_t windows_skipped = 0;
  std::uint64_t pages_read = 0;
};

/// UPDATE_ACK payload: what one UPDATE batch did to the served view and
/// its subscribers.
struct UpdateAck {
  std::uint64_t request_id = 0;
  std::uint64_t sequence = 0;
  std::uint32_t applied = 0;  // deltas that flipped an edge's presence
  std::uint32_t ignored = 0;  // no-ops and stale label assertions
  std::uint64_t dirty_pages = 0;
  std::uint64_t windows_rerun = 0;    // summed over notified subscriptions
  std::uint64_t windows_skipped = 0;
  std::uint64_t pages_read = 0;
  std::uint32_t subscriptions_notified = 0;
};

std::string EncodeSubscribe(const SubscribeRequest& req);
Status DecodeSubscribe(std::string_view payload, SubscribeRequest* out);

std::string EncodeUpdate(const UpdateRequest& req);
Status DecodeUpdate(std::string_view payload, UpdateRequest* out);

std::string EncodeUnsubscribe(std::uint64_t request_id);
Status DecodeUnsubscribe(std::string_view payload, std::uint64_t* request_id);

std::string EncodeDelta(const DeltaFrame& frame);
Status DecodeDelta(std::string_view payload, DeltaFrame* out);

std::string EncodeUpdateAck(const UpdateAck& ack);
Status DecodeUpdateAck(std::string_view payload, UpdateAck* out);

/// Version of the WORKER_HELLO handshake this build speaks. The hello
/// carries its version first, so a coordinator of another version is
/// detected as typed version skew instead of a garbled decode.
inline constexpr std::uint8_t kWorkerHelloVersion = 1;

/// WORKER_HELLO payload (coordinator -> worker): the graph shape the
/// coordinator partitioned. A worker serving a different graph answers
/// honestly and the coordinator refuses to merge counts across shapes.
struct WorkerHello {
  std::uint8_t version = kWorkerHelloVersion;
  std::uint64_t coordinator_id = 0;  // for worker-side log correlation
  std::uint32_t num_vertices = 0;    // 0 = coordinator has no expectation
  std::uint64_t num_edges = 0;
};

/// WORKER_HELLO_ACK payload (worker -> coordinator).
struct WorkerHelloAck {
  std::uint8_t version = kWorkerHelloVersion;
  std::uint32_t num_vertices = 0;
  std::uint64_t num_edges = 0;
};

/// PARTIAL_RESULT payload: sent by a coordinator immediately before a
/// RESULT carrying kPartialResult, detailing which partitions' workers
/// failed past the bounded retry and what the surviving merge holds.
struct PartialResultFrame {
  std::uint64_t request_id = 0;
  std::uint32_t total_parts = 0;
  std::vector<std::uint32_t> failed_parts;
  std::uint64_t merged_embeddings = 0;  // from the successful partitions
  std::string message;
};

std::string EncodeWorkerHello(const WorkerHello& hello);
Status DecodeWorkerHello(std::string_view payload, WorkerHello* out);

std::string EncodeWorkerHelloAck(const WorkerHelloAck& ack);
Status DecodeWorkerHelloAck(std::string_view payload, WorkerHelloAck* out);

std::string EncodePartialResult(const PartialResultFrame& frame);
Status DecodePartialResult(std::string_view payload, PartialResultFrame* out);

/// One decoded frame off the wire.
struct Frame {
  FrameType type = FrameType::kError;
  std::string payload;
};

/// Writes one frame to `fd`, looping over partial writes (EINTR-safe,
/// SIGPIPE-suppressed). IOError once the peer is gone.
Status WriteFrame(int fd, FrameType type, std::string_view payload);

/// Reads one frame from `fd`. NotFound on a clean peer close at a frame
/// boundary (the reader's normal exit), IOError on a mid-frame close or
/// socket error, InvalidArgument on an oversized length header.
StatusOr<Frame> ReadFrame(int fd);

}  // namespace dualsim::service

#endif  // DUALSIM_SERVICE_PROTOCOL_H_
