#include "service/protocol.h"

#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace dualsim::service {
namespace {

/// Little-endian append-only payload builder.
class WireWriter {
 public:
  void U8(std::uint8_t v) { buf_.push_back(static_cast<char>(v)); }
  void U16(std::uint16_t v) { Fixed(v, 2); }
  void U32(std::uint32_t v) { Fixed(v, 4); }
  void U64(std::uint64_t v) { Fixed(v, 8); }
  void Str(std::string_view s) {
    U32(static_cast<std::uint32_t>(s.size()));
    buf_.append(s);
  }
  std::string Take() && { return std::move(buf_); }

 private:
  void Fixed(std::uint64_t v, int bytes) {
    for (int i = 0; i < bytes; ++i) {
      buf_.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
    }
  }
  std::string buf_;
};

/// Bounds-checked little-endian cursor; every getter returns false (and
/// latches !ok()) past the end, so decoders check once at the close.
class WireReader {
 public:
  explicit WireReader(std::string_view data) : data_(data) {}

  bool U8(std::uint8_t* v) {
    std::uint64_t tmp;
    if (!Fixed(&tmp, 1)) return false;
    *v = static_cast<std::uint8_t>(tmp);
    return true;
  }
  bool U16(std::uint16_t* v) {
    std::uint64_t tmp;
    if (!Fixed(&tmp, 2)) return false;
    *v = static_cast<std::uint16_t>(tmp);
    return true;
  }
  bool U32(std::uint32_t* v) {
    std::uint64_t tmp;
    if (!Fixed(&tmp, 4)) return false;
    *v = static_cast<std::uint32_t>(tmp);
    return true;
  }
  bool U64(std::uint64_t* v) { return Fixed(v, 8); }
  bool Str(std::string* out) {
    std::uint32_t len;
    if (!U32(&len) || data_.size() - pos_ < len) {
      ok_ = false;
      return false;
    }
    out->assign(data_.substr(pos_, len));
    pos_ += len;
    return true;
  }

  /// Every byte consumed and no getter failed.
  bool Done() const { return ok_ && pos_ == data_.size(); }

 private:
  bool Fixed(std::uint64_t* v, int bytes) {
    if (!ok_ || data_.size() - pos_ < static_cast<std::size_t>(bytes)) {
      ok_ = false;
      return false;
    }
    std::uint64_t out = 0;
    for (int i = 0; i < bytes; ++i) {
      out |= static_cast<std::uint64_t>(
                 static_cast<unsigned char>(data_[pos_ + i]))
             << (8 * i);
    }
    pos_ += static_cast<std::size_t>(bytes);
    *v = out;
    return true;
  }

  std::string_view data_;
  std::size_t pos_ = 0;
  bool ok_ = true;
};

Status Truncated(const char* what) {
  return Status::InvalidArgument(std::string("malformed ") + what +
                                 " payload");
}

constexpr std::uint8_t kFlagInitialEmbeddings = 0x1;

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kSubmit: return "SUBMIT";
    case FrameType::kCancel: return "CANCEL";
    case FrameType::kStatus: return "STATUS";
    case FrameType::kShutdown: return "SHUTDOWN";
    case FrameType::kWorkerHello: return "WORKER_HELLO";
    case FrameType::kSubscribe: return "SUBSCRIBE";
    case FrameType::kUpdate: return "UPDATE";
    case FrameType::kUnsubscribe: return "UNSUBSCRIBE";
    case FrameType::kAccepted: return "ACCEPTED";
    case FrameType::kRejected: return "REJECTED";
    case FrameType::kProgress: return "PROGRESS";
    case FrameType::kEmbeddings: return "EMBEDDINGS";
    case FrameType::kResult: return "RESULT";
    case FrameType::kStatusInfo: return "STATUS_INFO";
    case FrameType::kShutdownAck: return "SHUTDOWN_ACK";
    case FrameType::kError: return "ERROR";
    case FrameType::kWorkerHelloAck: return "WORKER_HELLO_ACK";
    case FrameType::kPartialResult: return "PARTIAL_RESULT";
    case FrameType::kDelta: return "DELTA";
    case FrameType::kUpdateAck: return "UPDATE_ACK";
  }
  return "UNKNOWN";
}

const char* WireCodeName(WireCode code) {
  switch (code) {
    case WireCode::kOk: return "OK";
    case WireCode::kInvalidQuery: return "INVALID_QUERY";
    case WireCode::kOverloaded: return "OVERLOADED";
    case WireCode::kShuttingDown: return "SHUTTING_DOWN";
    case WireCode::kDeadlineExceeded: return "DEADLINE_EXCEEDED";
    case WireCode::kCancelled: return "CANCELLED";
    case WireCode::kInternalError: return "INTERNAL_ERROR";
    case WireCode::kProtocolError: return "PROTOCOL_ERROR";
    case WireCode::kPartialResult: return "PARTIAL_RESULT";
  }
  return "UNKNOWN";
}

WireCode WireCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return WireCode::kOk;
    case StatusCode::kInvalidArgument:
      return WireCode::kInvalidQuery;
    case StatusCode::kCancelled:
      return WireCode::kCancelled;
    default:
      return WireCode::kInternalError;
  }
}

std::string EncodeSubmit(const SubmitRequest& req) {
  WireWriter w;
  w.U64(req.request_id);
  w.U32(req.deadline_ms);
  w.U32(req.max_embeddings);
  w.U8((req.stream_embeddings ? kSubmitFlagStream : 0) |
       (req.partition.has_value() ? kSubmitFlagPartition : 0));
  w.Str(req.query);
  if (req.partition.has_value()) {
    w.U32(req.partition->num_parts);
    w.U32(req.partition->part_id);
    w.U64(req.partition->seed);
  }
  return std::move(w).Take();
}

Status DecodeSubmit(std::string_view payload, SubmitRequest* out) {
  WireReader r(payload);
  std::uint8_t flags = 0;
  r.U64(&out->request_id);
  r.U32(&out->deadline_ms);
  r.U32(&out->max_embeddings);
  r.U8(&flags);
  r.Str(&out->query);
  out->partition.reset();
  if ((flags & ~kSubmitFlagsKnown) != 0) {
    return Status::InvalidArgument("SUBMIT carries unknown flag bits " +
                                   std::to_string(flags & ~kSubmitFlagsKnown));
  }
  if ((flags & kSubmitFlagPartition) != 0) {
    PartitionScope scope;
    r.U32(&scope.num_parts);
    r.U32(&scope.part_id);
    r.U64(&scope.seed);
    // An invalid scope would filter against a nonsense partitioning.
    if (scope.num_parts < 1 || scope.part_id >= scope.num_parts) {
      return Truncated("SUBMIT");
    }
    out->partition = scope;
  }
  if (!r.Done()) return Truncated("SUBMIT");
  out->stream_embeddings = (flags & kSubmitFlagStream) != 0;
  return Status::OK();
}

std::string EncodeCancel(std::uint64_t request_id) {
  WireWriter w;
  w.U64(request_id);
  return std::move(w).Take();
}

Status DecodeCancel(std::string_view payload, std::uint64_t* request_id) {
  WireReader r(payload);
  r.U64(request_id);
  if (!r.Done()) return Truncated("CANCEL");
  return Status::OK();
}

std::string EncodeAccepted(std::uint64_t request_id) {
  WireWriter w;
  w.U64(request_id);
  return std::move(w).Take();
}

Status DecodeAccepted(std::string_view payload, std::uint64_t* request_id) {
  WireReader r(payload);
  r.U64(request_id);
  if (!r.Done()) return Truncated("ACCEPTED");
  return Status::OK();
}

std::string EncodeReject(const RejectFrame& frame) {
  WireWriter w;
  w.U64(frame.request_id);
  w.U8(static_cast<std::uint8_t>(frame.code));
  w.Str(frame.message);
  return std::move(w).Take();
}

Status DecodeReject(std::string_view payload, RejectFrame* out) {
  WireReader r(payload);
  std::uint8_t code = 0;
  r.U64(&out->request_id);
  r.U8(&code);
  r.Str(&out->message);
  if (!r.Done()) return Truncated("REJECTED");
  out->code = static_cast<WireCode>(code);
  return Status::OK();
}

std::string EncodeProgress(const ProgressFrame& frame) {
  WireWriter w;
  w.U64(frame.request_id);
  w.U64(frame.embeddings);
  return std::move(w).Take();
}

Status DecodeProgress(std::string_view payload, ProgressFrame* out) {
  WireReader r(payload);
  r.U64(&out->request_id);
  r.U64(&out->embeddings);
  if (!r.Done()) return Truncated("PROGRESS");
  return Status::OK();
}

std::string EncodeEmbeddings(const EmbeddingBatch& batch) {
  WireWriter w;
  w.U64(batch.request_id);
  w.U8(batch.arity);
  w.U32(static_cast<std::uint32_t>(batch.vertices.size()));
  for (VertexId v : batch.vertices) w.U32(v);
  return std::move(w).Take();
}

Status DecodeEmbeddings(std::string_view payload, EmbeddingBatch* out) {
  WireReader r(payload);
  std::uint32_t count = 0;
  r.U64(&out->request_id);
  r.U8(&out->arity);
  if (!r.U32(&count) || count > kMaxFramePayload / 4 ||
      (out->arity != 0 && count % out->arity != 0)) {
    return Truncated("EMBEDDINGS");
  }
  out->vertices.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) r.U32(&out->vertices[i]);
  if (!r.Done()) return Truncated("EMBEDDINGS");
  return Status::OK();
}

std::string EncodeResult(const ResultFrame& frame) {
  WireWriter w;
  w.U64(frame.request_id);
  w.U8(static_cast<std::uint8_t>(frame.code));
  w.U64(frame.embeddings);
  w.U64(frame.physical_reads);
  w.U64(frame.logical_hits);
  w.U64(frame.elapsed_us);
  w.U8(frame.plan_cached ? 1 : 0);
  w.Str(frame.message);
  return std::move(w).Take();
}

Status DecodeResult(std::string_view payload, ResultFrame* out) {
  WireReader r(payload);
  std::uint8_t code = 0;
  std::uint8_t cached = 0;
  r.U64(&out->request_id);
  r.U8(&code);
  r.U64(&out->embeddings);
  r.U64(&out->physical_reads);
  r.U64(&out->logical_hits);
  r.U64(&out->elapsed_us);
  r.U8(&cached);
  r.Str(&out->message);
  if (!r.Done()) return Truncated("RESULT");
  out->code = static_cast<WireCode>(code);
  out->plan_cached = cached != 0;
  return Status::OK();
}

std::string EncodeStatusInfo(const StatusInfo& info) {
  WireWriter w;
  w.U64(info.received);
  w.U64(info.admitted);
  w.U64(info.rejected_overload);
  w.U64(info.rejected_draining);
  w.U64(info.rejected_invalid);
  w.U64(info.completed);
  w.U64(info.failed);
  w.U64(info.cancelled);
  w.U64(info.deadline_expired);
  w.U32(info.queue_depth);
  w.U32(info.active_requests);
  w.U8(info.draining ? 1 : 0);
  w.U32(info.subscriptions_active);
  w.U64(info.updates_received);
  w.U64(info.delta_frames_sent);
  return std::move(w).Take();
}

Status DecodeStatusInfo(std::string_view payload, StatusInfo* out) {
  WireReader r(payload);
  std::uint8_t draining = 0;
  r.U64(&out->received);
  r.U64(&out->admitted);
  r.U64(&out->rejected_overload);
  r.U64(&out->rejected_draining);
  r.U64(&out->rejected_invalid);
  r.U64(&out->completed);
  r.U64(&out->failed);
  r.U64(&out->cancelled);
  r.U64(&out->deadline_expired);
  r.U32(&out->queue_depth);
  r.U32(&out->active_requests);
  r.U8(&draining);
  r.U32(&out->subscriptions_active);
  r.U64(&out->updates_received);
  r.U64(&out->delta_frames_sent);
  if (!r.Done()) return Truncated("STATUS_INFO");
  out->draining = draining != 0;
  return Status::OK();
}

std::string EncodeSubscribe(const SubscribeRequest& req) {
  WireWriter w;
  w.U64(req.request_id);
  w.U8(req.initial_embeddings ? kFlagInitialEmbeddings : 0);
  w.Str(req.query);
  return std::move(w).Take();
}

Status DecodeSubscribe(std::string_view payload, SubscribeRequest* out) {
  WireReader r(payload);
  std::uint8_t flags = 0;
  r.U64(&out->request_id);
  r.U8(&flags);
  r.Str(&out->query);
  if (!r.Done()) return Truncated("SUBSCRIBE");
  out->initial_embeddings = (flags & kFlagInitialEmbeddings) != 0;
  return Status::OK();
}

std::string EncodeUpdate(const UpdateRequest& req) {
  WireWriter w;
  w.U64(req.request_id);
  w.U32(static_cast<std::uint32_t>(req.deltas.size()));
  for (const incr::EdgeDelta& d : req.deltas) {
    w.U8(static_cast<std::uint8_t>(d.op));
    w.U32(d.u);
    w.U32(d.v);
    w.U16(d.u_label);
    w.U16(d.v_label);
  }
  return std::move(w).Take();
}

Status DecodeUpdate(std::string_view payload, UpdateRequest* out) {
  WireReader r(payload);
  std::uint32_t count = 0;
  r.U64(&out->request_id);
  if (!r.U32(&count) || count > kMaxFramePayload / kWireDeltaBytes) {
    return Truncated("UPDATE");
  }
  out->deltas.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    incr::EdgeDelta& d = out->deltas[i];
    std::uint8_t op = 0;
    r.U8(&op);
    r.U32(&d.u);
    r.U32(&d.v);
    r.U16(&d.u_label);
    r.U16(&d.v_label);
    if (op > static_cast<std::uint8_t>(incr::DeltaOp::kRemoveEdge) ||
        d.u == d.v) {
      return Truncated("UPDATE");
    }
    d.op = static_cast<incr::DeltaOp>(op);
  }
  if (!r.Done()) return Truncated("UPDATE");
  return Status::OK();
}

std::string EncodeUnsubscribe(std::uint64_t request_id) {
  WireWriter w;
  w.U64(request_id);
  return std::move(w).Take();
}

Status DecodeUnsubscribe(std::string_view payload,
                         std::uint64_t* request_id) {
  WireReader r(payload);
  r.U64(request_id);
  if (!r.Done()) return Truncated("UNSUBSCRIBE");
  return Status::OK();
}

std::string EncodeDelta(const DeltaFrame& frame) {
  WireWriter w;
  w.U64(frame.request_id);
  w.U64(frame.sequence);
  w.U8(frame.arity);
  w.U8(frame.flags);
  w.U32(static_cast<std::uint32_t>(frame.added.size()));
  for (VertexId v : frame.added) w.U32(v);
  w.U32(static_cast<std::uint32_t>(frame.retracted.size()));
  for (VertexId v : frame.retracted) w.U32(v);
  w.U64(frame.windows_rerun);
  w.U64(frame.windows_skipped);
  w.U64(frame.pages_read);
  return std::move(w).Take();
}

Status DecodeDelta(std::string_view payload, DeltaFrame* out) {
  WireReader r(payload);
  r.U64(&out->request_id);
  r.U64(&out->sequence);
  r.U8(&out->arity);
  r.U8(&out->flags);
  for (std::vector<VertexId>* list : {&out->added, &out->retracted}) {
    std::uint32_t count = 0;
    if (!r.U32(&count) || count > kMaxFramePayload / 4 ||
        (out->arity != 0 && count % out->arity != 0)) {
      return Truncated("DELTA");
    }
    list->resize(count);
    for (std::uint32_t i = 0; i < count; ++i) r.U32(&(*list)[i]);
  }
  r.U64(&out->windows_rerun);
  r.U64(&out->windows_skipped);
  r.U64(&out->pages_read);
  if (!r.Done()) return Truncated("DELTA");
  return Status::OK();
}

std::string EncodeUpdateAck(const UpdateAck& ack) {
  WireWriter w;
  w.U64(ack.request_id);
  w.U64(ack.sequence);
  w.U32(ack.applied);
  w.U32(ack.ignored);
  w.U64(ack.dirty_pages);
  w.U64(ack.windows_rerun);
  w.U64(ack.windows_skipped);
  w.U64(ack.pages_read);
  w.U32(ack.subscriptions_notified);
  return std::move(w).Take();
}

Status DecodeUpdateAck(std::string_view payload, UpdateAck* out) {
  WireReader r(payload);
  r.U64(&out->request_id);
  r.U64(&out->sequence);
  r.U32(&out->applied);
  r.U32(&out->ignored);
  r.U64(&out->dirty_pages);
  r.U64(&out->windows_rerun);
  r.U64(&out->windows_skipped);
  r.U64(&out->pages_read);
  r.U32(&out->subscriptions_notified);
  if (!r.Done()) return Truncated("UPDATE_ACK");
  return Status::OK();
}

std::string EncodeWorkerHello(const WorkerHello& hello) {
  WireWriter w;
  w.U8(hello.version);
  w.U64(hello.coordinator_id);
  w.U32(hello.num_vertices);
  w.U64(hello.num_edges);
  return std::move(w).Take();
}

Status DecodeWorkerHello(std::string_view payload, WorkerHello* out) {
  WireReader r(payload);
  r.U8(&out->version);
  r.U64(&out->coordinator_id);
  r.U32(&out->num_vertices);
  r.U64(&out->num_edges);
  if (!r.Done()) return Truncated("WORKER_HELLO");
  return Status::OK();
}

std::string EncodeWorkerHelloAck(const WorkerHelloAck& ack) {
  WireWriter w;
  w.U8(ack.version);
  w.U32(ack.num_vertices);
  w.U64(ack.num_edges);
  return std::move(w).Take();
}

Status DecodeWorkerHelloAck(std::string_view payload, WorkerHelloAck* out) {
  WireReader r(payload);
  r.U8(&out->version);
  r.U32(&out->num_vertices);
  r.U64(&out->num_edges);
  if (!r.Done()) return Truncated("WORKER_HELLO_ACK");
  return Status::OK();
}

std::string EncodePartialResult(const PartialResultFrame& frame) {
  WireWriter w;
  w.U64(frame.request_id);
  w.U32(frame.total_parts);
  w.U32(static_cast<std::uint32_t>(frame.failed_parts.size()));
  for (std::uint32_t part : frame.failed_parts) w.U32(part);
  w.U64(frame.merged_embeddings);
  w.Str(frame.message);
  return std::move(w).Take();
}

Status DecodePartialResult(std::string_view payload,
                           PartialResultFrame* out) {
  WireReader r(payload);
  std::uint32_t count = 0;
  r.U64(&out->request_id);
  r.U32(&out->total_parts);
  if (!r.U32(&count) || count > kMaxFramePayload / 4 ||
      count > out->total_parts) {
    return Truncated("PARTIAL_RESULT");
  }
  out->failed_parts.resize(count);
  for (std::uint32_t i = 0; i < count; ++i) r.U32(&out->failed_parts[i]);
  r.U64(&out->merged_embeddings);
  r.Str(&out->message);
  if (!r.Done()) return Truncated("PARTIAL_RESULT");
  return Status::OK();
}

namespace {

Status WriteAll(int fd, const char* data, std::size_t size) {
  while (size > 0) {
    const ssize_t n = ::send(fd, data, size, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("send: ") + std::strerror(errno));
    }
    data += n;
    size -= static_cast<std::size_t>(n);
  }
  return Status::OK();
}

/// Reads exactly `size` bytes. `*eof` is set (and OK returned with zero
/// bytes consumed) when the peer closed before the first byte.
Status ReadAll(int fd, char* data, std::size_t size, bool* eof) {
  std::size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::IOError(std::string("recv: ") + std::strerror(errno));
    }
    if (n == 0) {
      if (got == 0 && eof != nullptr) {
        *eof = true;
        return Status::OK();
      }
      return Status::IOError("peer closed mid-frame");
    }
    got += static_cast<std::size_t>(n);
  }
  return Status::OK();
}

}  // namespace

Status WriteFrame(int fd, FrameType type, std::string_view payload) {
  char header[5];
  const std::uint32_t len = static_cast<std::uint32_t>(payload.size());
  for (int i = 0; i < 4; ++i) {
    header[i] = static_cast<char>((len >> (8 * i)) & 0xff);
  }
  header[4] = static_cast<char>(type);
  DUALSIM_RETURN_IF_ERROR(WriteAll(fd, header, sizeof(header)));
  return WriteAll(fd, payload.data(), payload.size());
}

StatusOr<Frame> ReadFrame(int fd) {
  char header[5];
  bool eof = false;
  DUALSIM_RETURN_IF_ERROR(ReadAll(fd, header, sizeof(header), &eof));
  if (eof) return Status::NotFound("peer closed connection");
  std::uint32_t len = 0;
  for (int i = 0; i < 4; ++i) {
    len |= static_cast<std::uint32_t>(static_cast<unsigned char>(header[i]))
           << (8 * i);
  }
  if (len > kMaxFramePayload) {
    return Status::InvalidArgument("frame payload of " + std::to_string(len) +
                                   " bytes exceeds the " +
                                   std::to_string(kMaxFramePayload) +
                                   "-byte limit");
  }
  Frame frame;
  frame.type = static_cast<FrameType>(header[4]);
  frame.payload.resize(len);
  if (len > 0) {
    DUALSIM_RETURN_IF_ERROR(
        ReadAll(fd, frame.payload.data(), len, /*eof=*/nullptr));
  }
  return frame;
}

}  // namespace dualsim::service
