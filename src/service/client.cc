#include "service/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace dualsim::service {
namespace {

Status StatusForReject(const RejectFrame& reject) {
  const std::string msg =
      std::string(WireCodeName(reject.code)) + ": " + reject.message;
  switch (reject.code) {
    case WireCode::kOverloaded:
      return Status::ResourceExhausted(msg);
    case WireCode::kShuttingDown:
      return Status::FailedPrecondition(msg);
    case WireCode::kInvalidQuery:
      return Status::InvalidArgument(msg);
    default:
      return Status::Internal(msg);
  }
}

}  // namespace

Status QueryClient::Connect(const std::string& host, std::uint16_t port) {
  if (fd_ >= 0) return Status::FailedPrecondition("already connected");
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IOError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address '" + host + "'");
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    Status s = Status::IOError("connect " + host + ":" + std::to_string(port) +
                               ": " + std::strerror(errno));
    ::close(fd);
    return s;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  fd_ = fd;
  return Status::OK();
}

void QueryClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  inflight_id_ = 0;
  pending_events_.clear();
}

Status QueryClient::Send(FrameType type, std::string_view payload) {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  return WriteFrame(fd_, type, payload);
}

Status QueryClient::Submit(const ClientRequest& req) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  if (inflight_id_ != 0) {
    return Status::FailedPrecondition("a request is already in flight");
  }
  SubmitRequest submit;
  submit.request_id = next_request_id_++;
  submit.deadline_ms = req.deadline_ms;
  submit.max_embeddings = req.max_embeddings;
  submit.stream_embeddings = req.stream_embeddings;
  submit.query = req.query;
  submit.partition = req.partition;
  DUALSIM_RETURN_IF_ERROR(Send(FrameType::kSubmit, EncodeSubmit(submit)));

  DUALSIM_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
  switch (frame.type) {
    case FrameType::kAccepted: {
      std::uint64_t id = 0;
      DUALSIM_RETURN_IF_ERROR(DecodeAccepted(frame.payload, &id));
      if (id != submit.request_id) {
        return Status::Internal("ACCEPTED for unexpected request id " +
                                std::to_string(id));
      }
      inflight_id_ = id;
      return Status::OK();
    }
    case FrameType::kRejected:
    case FrameType::kError: {
      RejectFrame reject;
      DUALSIM_RETURN_IF_ERROR(DecodeReject(frame.payload, &reject));
      return StatusForReject(reject);
    }
    default:
      return Status::Internal(std::string("unexpected frame ") +
                              FrameTypeName(frame.type) +
                              " awaiting admission");
  }
}

StatusOr<ClientResult> QueryClient::Await(
    const std::function<void(std::uint64_t)>& on_progress,
    const std::function<void(const std::vector<VertexId>&)>& on_embedding) {
  if (inflight_id_ == 0) {
    return Status::FailedPrecondition("no request in flight");
  }
  ClientResult result;
  std::vector<VertexId> mapping;
  for (;;) {
    DUALSIM_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
    switch (frame.type) {
      case FrameType::kProgress: {
        ProgressFrame progress;
        DUALSIM_RETURN_IF_ERROR(DecodeProgress(frame.payload, &progress));
        ++result.progress_frames;
        if (on_progress) on_progress(progress.embeddings);
        break;
      }
      case FrameType::kEmbeddings: {
        EmbeddingBatch batch;
        DUALSIM_RETURN_IF_ERROR(DecodeEmbeddings(frame.payload, &batch));
        if (batch.arity == 0) {
          return Status::Internal("EMBEDDINGS batch with arity 0");
        }
        result.streamed_embeddings += batch.vertices.size() / batch.arity;
        if (on_embedding) {
          for (std::size_t i = 0; i + batch.arity <= batch.vertices.size();
               i += batch.arity) {
            mapping.assign(batch.vertices.begin() + static_cast<long>(i),
                           batch.vertices.begin() +
                               static_cast<long>(i + batch.arity));
            on_embedding(mapping);
          }
        }
        break;
      }
      case FrameType::kPartialResult: {
        PartialResultFrame partial;
        DUALSIM_RETURN_IF_ERROR(DecodePartialResult(frame.payload, &partial));
        result.partial = std::move(partial);
        break;  // the terminal RESULT follows
      }
      case FrameType::kResult: {
        ResultFrame res;
        DUALSIM_RETURN_IF_ERROR(DecodeResult(frame.payload, &res));
        if (res.request_id != inflight_id_) {
          return Status::Internal("RESULT for unexpected request id " +
                                  std::to_string(res.request_id));
        }
        inflight_id_ = 0;
        result.code = res.code;
        result.message = res.message;
        result.embeddings = res.embeddings;
        result.physical_reads = res.physical_reads;
        result.logical_hits = res.logical_hits;
        result.elapsed_us = res.elapsed_us;
        result.plan_cached = res.plan_cached;
        return result;
      }
      default:
        return Status::Internal(std::string("unexpected frame ") +
                                FrameTypeName(frame.type) +
                                " awaiting result");
    }
  }
}

StatusOr<ClientResult> QueryClient::Run(const ClientRequest& req) {
  DUALSIM_RETURN_IF_ERROR(Submit(req));
  return Await();
}

Status QueryClient::Cancel() {
  const std::uint64_t id = inflight_id_;
  if (id == 0) return Status::FailedPrecondition("no request in flight");
  return Send(FrameType::kCancel, EncodeCancel(id));
}

StatusOr<WorkerHelloAck> QueryClient::Hello(const WorkerHello& hello) {
  if (inflight_id_ != 0) {
    return Status::FailedPrecondition("a request is in flight");
  }
  DUALSIM_RETURN_IF_ERROR(
      Send(FrameType::kWorkerHello, EncodeWorkerHello(hello)));
  DUALSIM_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
  if (frame.type == FrameType::kError) {
    RejectFrame reject;
    DUALSIM_RETURN_IF_ERROR(DecodeReject(frame.payload, &reject));
    return StatusForReject(reject);
  }
  if (frame.type != FrameType::kWorkerHelloAck) {
    return Status::Internal(std::string("unexpected frame ") +
                            FrameTypeName(frame.type) +
                            " awaiting WORKER_HELLO_ACK");
  }
  WorkerHelloAck ack;
  DUALSIM_RETURN_IF_ERROR(DecodeWorkerHelloAck(frame.payload, &ack));
  return ack;
}

void QueryClient::Abort() {
  std::lock_guard<std::mutex> lock(write_mu_);
  if (fd_ >= 0) ::shutdown(fd_, SHUT_RDWR);
}

StatusOr<StatusInfo> QueryClient::GetStatus() {
  if (inflight_id_ != 0) {
    return Status::FailedPrecondition("a request is in flight");
  }
  DUALSIM_RETURN_IF_ERROR(Send(FrameType::kStatus, {}));
  DUALSIM_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
  if (frame.type != FrameType::kStatusInfo) {
    return Status::Internal(std::string("unexpected frame ") +
                            FrameTypeName(frame.type) + " awaiting STATUS");
  }
  StatusInfo info;
  DUALSIM_RETURN_IF_ERROR(DecodeStatusInfo(frame.payload, &info));
  return info;
}

Status QueryClient::Shutdown() {
  if (inflight_id_ != 0) {
    return Status::FailedPrecondition("a request is in flight");
  }
  DUALSIM_RETURN_IF_ERROR(Send(FrameType::kShutdown, {}));
  DUALSIM_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
  if (frame.type != FrameType::kShutdownAck) {
    return Status::Internal(std::string("unexpected frame ") +
                            FrameTypeName(frame.type) +
                            " awaiting SHUTDOWN_ACK");
  }
  return Status::OK();
}

StatusOr<SubscribeResult> QueryClient::Subscribe(
    const std::string& query, bool initial_embeddings,
    const std::function<void(const std::vector<VertexId>&)>& on_embedding) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  if (inflight_id_ != 0) {
    return Status::FailedPrecondition("a request is already in flight");
  }
  SubscribeRequest req;
  req.request_id = next_request_id_++;
  req.initial_embeddings = initial_embeddings;
  req.query = query;
  DUALSIM_RETURN_IF_ERROR(Send(FrameType::kSubscribe, EncodeSubscribe(req)));

  SubscribeResult result;
  result.subscription_id = req.request_id;
  std::vector<VertexId> mapping;
  bool accepted = false;
  for (;;) {
    DUALSIM_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
    switch (frame.type) {
      case FrameType::kAccepted: {
        std::uint64_t id = 0;
        DUALSIM_RETURN_IF_ERROR(DecodeAccepted(frame.payload, &id));
        if (id != req.request_id) {
          return Status::Internal("ACCEPTED for unexpected request id " +
                                  std::to_string(id));
        }
        accepted = true;
        break;
      }
      case FrameType::kRejected:
      case FrameType::kError: {
        RejectFrame reject;
        DUALSIM_RETURN_IF_ERROR(DecodeReject(frame.payload, &reject));
        return StatusForReject(reject);
      }
      case FrameType::kEmbeddings: {
        EmbeddingBatch batch;
        DUALSIM_RETURN_IF_ERROR(DecodeEmbeddings(frame.payload, &batch));
        if (batch.arity == 0) {
          return Status::Internal("EMBEDDINGS batch with arity 0");
        }
        result.streamed_embeddings += batch.vertices.size() / batch.arity;
        if (on_embedding) {
          for (std::size_t i = 0; i + batch.arity <= batch.vertices.size();
               i += batch.arity) {
            mapping.assign(batch.vertices.begin() + static_cast<long>(i),
                           batch.vertices.begin() +
                               static_cast<long>(i + batch.arity));
            on_embedding(mapping);
          }
        }
        break;
      }
      case FrameType::kProgress: {
        // The go-live marker: the subscription's initial count.
        ProgressFrame progress;
        DUALSIM_RETURN_IF_ERROR(DecodeProgress(frame.payload, &progress));
        if (progress.request_id != req.request_id) {
          return Status::Internal("PROGRESS for unexpected request id " +
                                  std::to_string(progress.request_id));
        }
        result.initial_count = progress.embeddings;
        return result;
      }
      case FrameType::kResult: {
        ResultFrame res;
        DUALSIM_RETURN_IF_ERROR(DecodeResult(frame.payload, &res));
        if (res.request_id != req.request_id) {
          // A terminal for an older subscription on this connection;
          // deliver it through NextEvent().
          pending_events_.push_back(std::move(frame));
          break;
        }
        // Admitted but the initial run failed; surface the typed code.
        return StatusForReject({res.request_id, res.code, res.message});
      }
      case FrameType::kDelta:
        // A push for an older subscription racing this registration.
        pending_events_.push_back(std::move(frame));
        break;
      default:
        return Status::Internal(std::string("unexpected frame ") +
                                FrameTypeName(frame.type) + (accepted
                                    ? " awaiting subscription go-live"
                                    : " awaiting subscription admission"));
    }
  }
}

StatusOr<UpdateAck> QueryClient::Update(
    const std::vector<incr::EdgeDelta>& deltas) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  if (inflight_id_ != 0) {
    return Status::FailedPrecondition("a request is already in flight");
  }
  UpdateRequest req;
  req.request_id = next_request_id_++;
  req.deltas = deltas;
  DUALSIM_RETURN_IF_ERROR(Send(FrameType::kUpdate, EncodeUpdate(req)));
  for (;;) {
    DUALSIM_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
    switch (frame.type) {
      case FrameType::kUpdateAck: {
        UpdateAck ack;
        DUALSIM_RETURN_IF_ERROR(DecodeUpdateAck(frame.payload, &ack));
        if (ack.request_id != req.request_id) {
          return Status::Internal("UPDATE_ACK for unexpected request id " +
                                  std::to_string(ack.request_id));
        }
        return ack;
      }
      case FrameType::kError: {
        RejectFrame reject;
        DUALSIM_RETURN_IF_ERROR(DecodeReject(frame.payload, &reject));
        return StatusForReject(reject);
      }
      case FrameType::kDelta:
      case FrameType::kResult:
        // Pushes for this connection's own subscriptions land before the
        // ack; keep them for NextEvent().
        pending_events_.push_back(std::move(frame));
        break;
      default:
        return Status::Internal(std::string("unexpected frame ") +
                                FrameTypeName(frame.type) +
                                " awaiting UPDATE_ACK");
    }
  }
}

StatusOr<std::uint64_t> QueryClient::Unsubscribe(
    std::uint64_t subscription_id) {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  if (inflight_id_ != 0) {
    return Status::FailedPrecondition("a request is already in flight");
  }
  // The terminal may already be queued (the service ended the
  // subscription before the UNSUBSCRIBE landed).
  for (auto it = pending_events_.begin(); it != pending_events_.end(); ++it) {
    if (it->type != FrameType::kResult) continue;
    ResultFrame res;
    DUALSIM_RETURN_IF_ERROR(DecodeResult(it->payload, &res));
    if (res.request_id != subscription_id) continue;
    pending_events_.erase(it);
    return res.embeddings;
  }
  DUALSIM_RETURN_IF_ERROR(
      Send(FrameType::kUnsubscribe, EncodeUnsubscribe(subscription_id)));
  for (;;) {
    DUALSIM_ASSIGN_OR_RETURN(Frame frame, ReadFrame(fd_));
    switch (frame.type) {
      case FrameType::kResult: {
        ResultFrame res;
        DUALSIM_RETURN_IF_ERROR(DecodeResult(frame.payload, &res));
        if (res.request_id != subscription_id) {
          pending_events_.push_back(std::move(frame));
          break;
        }
        return res.embeddings;  // delta chains pushed over the lifetime
      }
      case FrameType::kError: {
        RejectFrame reject;
        DUALSIM_RETURN_IF_ERROR(DecodeReject(frame.payload, &reject));
        return StatusForReject(reject);
      }
      case FrameType::kDelta:
        pending_events_.push_back(std::move(frame));
        break;
      default:
        return Status::Internal(std::string("unexpected frame ") +
                                FrameTypeName(frame.type) +
                                " awaiting UNSUBSCRIBE result");
    }
  }
}

StatusOr<Frame> QueryClient::NextSubscriptionFrame() {
  if (!pending_events_.empty()) {
    Frame frame = std::move(pending_events_.front());
    pending_events_.pop_front();
    return frame;
  }
  return ReadFrame(fd_);
}

StatusOr<SubscriptionEvent> QueryClient::NextEvent() {
  if (fd_ < 0) return Status::FailedPrecondition("not connected");
  SubscriptionEvent event;
  bool in_chain = false;
  for (;;) {
    DUALSIM_ASSIGN_OR_RETURN(Frame frame, NextSubscriptionFrame());
    switch (frame.type) {
      case FrameType::kDelta: {
        DeltaFrame delta;
        DUALSIM_RETURN_IF_ERROR(DecodeDelta(frame.payload, &delta));
        if (!in_chain) {
          in_chain = true;
          event.subscription_id = delta.request_id;
          event.sequence = delta.sequence;
          event.arity = delta.arity;
        } else if (delta.request_id != event.subscription_id ||
                   delta.sequence != event.sequence) {
          return Status::Internal("interleaved DELTA chains (ids " +
                                  std::to_string(event.subscription_id) +
                                  " and " + std::to_string(delta.request_id) +
                                  ")");
        }
        event.added.insert(event.added.end(), delta.added.begin(),
                           delta.added.end());
        event.retracted.insert(event.retracted.end(), delta.retracted.begin(),
                               delta.retracted.end());
        if ((delta.flags & kDeltaFlagFinal) != 0) {
          // Re-execution stats ride the final chunk only.
          event.windows_rerun = delta.windows_rerun;
          event.windows_skipped = delta.windows_skipped;
          event.pages_read = delta.pages_read;
          return event;
        }
        break;
      }
      case FrameType::kResult: {
        if (in_chain) {
          return Status::Internal("RESULT inside a DELTA chain");
        }
        ResultFrame res;
        DUALSIM_RETURN_IF_ERROR(DecodeResult(frame.payload, &res));
        event.subscription_id = res.request_id;
        event.ended = true;
        event.end_code = res.code;
        event.end_message = res.message;
        event.diffs_pushed = res.embeddings;
        return event;
      }
      default:
        return Status::Internal(std::string("unexpected frame ") +
                                FrameTypeName(frame.type) +
                                " awaiting subscription event");
    }
  }
}

}  // namespace dualsim::service
