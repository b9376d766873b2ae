/// Unit tests for the wire protocol: encode/decode round trips for every
/// frame payload, bounds-checked decoding of truncated/garbage payloads,
/// and socket framing over a loopback pipe pair.

#include "service/protocol.h"

#include <gtest/gtest.h>
#include <sys/socket.h>
#include <unistd.h>

#include <string>

#include "util/status.h"

namespace dualsim::service {
namespace {

TEST(ServiceProtocolTest, SubmitRoundTrip) {
  SubmitRequest in;
  in.request_id = 0xDEADBEEFCAFE1234ull;
  in.deadline_ms = 1500;
  in.max_embeddings = 77;
  in.stream_embeddings = true;
  in.query = "0-1,1-2,2-0,0=3,1=3,2=*";  // labeled syntax rides as text
  SubmitRequest out;
  ASSERT_TRUE(DecodeSubmit(EncodeSubmit(in), &out).ok());
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_EQ(out.deadline_ms, in.deadline_ms);
  EXPECT_EQ(out.max_embeddings, in.max_embeddings);
  EXPECT_EQ(out.stream_embeddings, in.stream_embeddings);
  EXPECT_EQ(out.query, in.query);
  EXPECT_FALSE(out.partition.has_value());
}

TEST(ServiceProtocolTest, SubmitRejectsUnknownFlagBits) {
  SubmitRequest in;
  in.request_id = 12;
  in.query = "q1";
  const std::string bytes = EncodeSubmit(in);
  // The flags byte follows request_id (8), deadline (4) and cap (4).
  constexpr std::size_t kFlagsOffset = 16;
  ASSERT_EQ(static_cast<std::uint8_t>(bytes[kFlagsOffset]), 0);
  for (int bit = 0; bit < 8; ++bit) {
    const auto flag = static_cast<std::uint8_t>(1u << bit);
    if ((flag & kSubmitFlagsKnown) != 0) continue;
    std::string mutated = bytes;
    mutated[kFlagsOffset] = static_cast<char>(flag);
    SubmitRequest out;
    const Status s = DecodeSubmit(mutated, &out);
    EXPECT_EQ(s.code(), StatusCode::kInvalidArgument) << "bit " << bit;
  }
}

TEST(ServiceProtocolTest, RejectResultStatusRoundTrips) {
  RejectFrame reject{42, WireCode::kOverloaded, "queue full"};
  RejectFrame reject_out;
  ASSERT_TRUE(DecodeReject(EncodeReject(reject), &reject_out).ok());
  EXPECT_EQ(reject_out.request_id, 42u);
  EXPECT_EQ(reject_out.code, WireCode::kOverloaded);
  EXPECT_EQ(reject_out.message, "queue full");

  ResultFrame result;
  result.request_id = 7;
  result.code = WireCode::kDeadlineExceeded;
  result.message = "late";
  result.embeddings = 151;
  result.physical_reads = 12;
  result.logical_hits = 90;
  result.elapsed_us = 123456;
  result.plan_cached = true;
  ResultFrame result_out;
  ASSERT_TRUE(DecodeResult(EncodeResult(result), &result_out).ok());
  EXPECT_EQ(result_out.request_id, 7u);
  EXPECT_EQ(result_out.code, WireCode::kDeadlineExceeded);
  EXPECT_EQ(result_out.message, "late");
  EXPECT_EQ(result_out.embeddings, 151u);
  EXPECT_EQ(result_out.physical_reads, 12u);
  EXPECT_EQ(result_out.logical_hits, 90u);
  EXPECT_EQ(result_out.elapsed_us, 123456u);
  EXPECT_TRUE(result_out.plan_cached);

  StatusInfo info;
  info.received = 10;
  info.admitted = 7;
  info.rejected_overload = 2;
  info.rejected_invalid = 1;
  info.completed = 5;
  info.cancelled = 1;
  info.deadline_expired = 1;
  info.queue_depth = 3;
  info.active_requests = 2;
  info.draining = true;
  info.subscriptions_active = 2;
  info.updates_received = 40;
  info.delta_frames_sent = 81;
  StatusInfo info_out;
  ASSERT_TRUE(DecodeStatusInfo(EncodeStatusInfo(info), &info_out).ok());
  EXPECT_EQ(info_out.received, 10u);
  EXPECT_EQ(info_out.admitted, 7u);
  EXPECT_EQ(info_out.rejected_overload, 2u);
  EXPECT_EQ(info_out.rejected_invalid, 1u);
  EXPECT_EQ(info_out.completed, 5u);
  EXPECT_EQ(info_out.cancelled, 1u);
  EXPECT_EQ(info_out.deadline_expired, 1u);
  EXPECT_EQ(info_out.queue_depth, 3u);
  EXPECT_EQ(info_out.active_requests, 2u);
  EXPECT_TRUE(info_out.draining);
  EXPECT_EQ(info_out.subscriptions_active, 2u);
  EXPECT_EQ(info_out.updates_received, 40u);
  EXPECT_EQ(info_out.delta_frames_sent, 81u);
}

TEST(ServiceProtocolTest, EmbeddingBatchRoundTrip) {
  EmbeddingBatch batch;
  batch.request_id = 9;
  batch.arity = 3;
  batch.vertices = {1, 2, 3, 10, 20, 30};
  EmbeddingBatch out;
  ASSERT_TRUE(DecodeEmbeddings(EncodeEmbeddings(batch), &out).ok());
  EXPECT_EQ(out.request_id, 9u);
  EXPECT_EQ(out.arity, 3);
  EXPECT_EQ(out.vertices, batch.vertices);
}

TEST(ServiceProtocolTest, TruncatedPayloadsAreRejectedNotRead) {
  // One fixed layout per payload: every strict prefix is a truncation.
  const std::string submit = EncodeSubmit({1, 2, 3, true, "q1"});
  for (std::size_t cut = 0; cut < submit.size(); ++cut) {
    SubmitRequest out;
    EXPECT_FALSE(
        DecodeSubmit(std::string_view(submit).substr(0, cut), &out).ok())
        << "SUBMIT prefix of " << cut << " bytes decoded";
  }
  StatusInfo info;
  info.received = 3;
  info.subscriptions_active = 2;
  const std::string status = EncodeStatusInfo(info);
  for (std::size_t cut = 0; cut < status.size(); ++cut) {
    StatusInfo out;
    EXPECT_FALSE(
        DecodeStatusInfo(std::string_view(status).substr(0, cut), &out).ok())
        << "STATUS_INFO prefix of " << cut << " bytes decoded";
  }
  ResultFrame result_out;
  EXPECT_FALSE(DecodeResult("garbage", &result_out).ok());
  std::uint64_t id = 0;
  EXPECT_FALSE(DecodeCancel("123", &id).ok());
}

TEST(ServiceProtocolTest, PartitionScopedSubmitRoundTrip) {
  SubmitRequest in;
  in.request_id = 99;
  in.deadline_ms = 250;
  in.stream_embeddings = true;
  in.query = "q2";
  in.partition = PartitionScope{/*num_parts=*/3, /*part_id=*/2,
                                /*seed=*/0xFEEDFACE12345678ull};
  const std::string bytes = EncodeSubmit(in);
  SubmitRequest out;
  ASSERT_TRUE(DecodeSubmit(bytes, &out).ok());
  ASSERT_TRUE(out.partition.has_value());
  EXPECT_EQ(out.partition->num_parts, 3u);
  EXPECT_EQ(out.partition->part_id, 2u);
  EXPECT_EQ(out.partition->seed, 0xFEEDFACE12345678ull);
  EXPECT_EQ(out.query, "q2");
  EXPECT_TRUE(out.stream_embeddings);

  // The scope is the 16 bytes after the query, announced by its flag bit.
  SubmitRequest unscoped = in;
  unscoped.partition.reset();
  EXPECT_EQ(bytes.size(), EncodeSubmit(unscoped).size() + 16);

  // An invalid scope must never decode: a worker acting on it would
  // filter against a nonsense partitioning and silently undercount.
  for (PartitionScope bad : {PartitionScope{0, 0, 0},     // no partitions
                             PartitionScope{3, 3, 0},     // part out of range
                             PartitionScope{2, 7, 0}}) {  // ditto
    SubmitRequest req = in;
    req.partition = bad;
    SubmitRequest ignored;
    EXPECT_FALSE(DecodeSubmit(EncodeSubmit(req), &ignored).ok())
        << bad.num_parts << "/" << bad.part_id;
  }
}

TEST(ServiceProtocolTest, PartitionScopedSubmitTruncationFuzz) {
  SubmitRequest in;
  in.request_id = 7;
  in.query = "0-1,1-2,2-0";
  in.partition = PartitionScope{3, 1, 42};
  // Every cut fails, the one that drops the whole scope included: the flag
  // bit demands it, so a scoped SUBMIT never decodes as an unscoped one.
  const std::string full = EncodeSubmit(in);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    SubmitRequest out;
    EXPECT_FALSE(DecodeSubmit(std::string_view(full).substr(0, cut), &out).ok())
        << "prefix of " << cut << " bytes decoded";
  }
}

TEST(ServiceProtocolTest, PartitionScopedSubmitCorruptionFuzz) {
  // Single-byte corruption anywhere in a scoped payload either fails the
  // decode or yields a scope that still satisfies the invariants the
  // workers rely on (num_parts >= 1, part_id < num_parts) — never an
  // out-of-range partition and never a crash.
  SubmitRequest in;
  in.request_id = 7;
  in.query = "q1";
  in.partition = PartitionScope{4, 3, 1};
  const std::string full = EncodeSubmit(in);
  for (std::size_t i = 0; i < full.size(); ++i) {
    for (unsigned char flip : {0x01, 0x80, 0xFF}) {
      std::string mutated = full;
      mutated[i] = static_cast<char>(mutated[i] ^ flip);
      SubmitRequest out;
      if (DecodeSubmit(mutated, &out).ok() && out.partition.has_value()) {
        EXPECT_GE(out.partition->num_parts, 1u);
        EXPECT_LT(out.partition->part_id, out.partition->num_parts);
      }
    }
  }
}

TEST(ServiceProtocolTest, WorkerHelloRoundTrip) {
  WorkerHello hello;
  hello.coordinator_id = 0xABCDEF0102030405ull;
  hello.num_vertices = 200;
  hello.num_edges = 1000;
  WorkerHello hello_out;
  ASSERT_TRUE(DecodeWorkerHello(EncodeWorkerHello(hello), &hello_out).ok());
  EXPECT_EQ(hello_out.version, kWorkerHelloVersion);
  EXPECT_EQ(hello_out.coordinator_id, hello.coordinator_id);
  EXPECT_EQ(hello_out.num_vertices, 200u);
  EXPECT_EQ(hello_out.num_edges, 1000u);

  WorkerHelloAck ack;
  ack.num_vertices = 200;
  ack.num_edges = 1000;
  WorkerHelloAck ack_out;
  ASSERT_TRUE(
      DecodeWorkerHelloAck(EncodeWorkerHelloAck(ack), &ack_out).ok());
  EXPECT_EQ(ack_out.version, kWorkerHelloVersion);
  EXPECT_EQ(ack_out.num_vertices, 200u);
  EXPECT_EQ(ack_out.num_edges, 1000u);

  // Truncations of both payloads are rejected at every cut.
  const std::string hello_bytes = EncodeWorkerHello(hello);
  for (std::size_t cut = 0; cut < hello_bytes.size(); ++cut) {
    WorkerHello ignored;
    EXPECT_FALSE(
        DecodeWorkerHello(std::string_view(hello_bytes).substr(0, cut),
                          &ignored)
            .ok())
        << cut;
  }
  const std::string ack_bytes = EncodeWorkerHelloAck(ack);
  for (std::size_t cut = 0; cut < ack_bytes.size(); ++cut) {
    WorkerHelloAck ignored;
    EXPECT_FALSE(
        DecodeWorkerHelloAck(std::string_view(ack_bytes).substr(0, cut),
                             &ignored)
            .ok())
        << cut;
  }
}

TEST(ServiceProtocolTest, PartialResultRoundTripAndBounds) {
  PartialResultFrame partial;
  partial.request_id = 31;
  partial.total_parts = 4;
  partial.failed_parts = {1, 3};
  partial.merged_embeddings = 77;
  partial.message = "partitions 1,3 failed";
  PartialResultFrame out;
  ASSERT_TRUE(DecodePartialResult(EncodePartialResult(partial), &out).ok());
  EXPECT_EQ(out.request_id, 31u);
  EXPECT_EQ(out.total_parts, 4u);
  EXPECT_EQ(out.failed_parts, partial.failed_parts);
  EXPECT_EQ(out.merged_embeddings, 77u);
  EXPECT_EQ(out.message, partial.message);

  // No failures is legal on the wire even though the coordinator never
  // sends it (the frame exists only for degraded merges).
  PartialResultFrame none = partial;
  none.failed_parts.clear();
  ASSERT_TRUE(DecodePartialResult(EncodePartialResult(none), &out).ok());
  EXPECT_TRUE(out.failed_parts.empty());

  // More failed parts than total_parts claims is malformed — a decoder
  // that trusted the count could be made to allocate unboundedly.
  PartialResultFrame bogus = partial;
  bogus.total_parts = 1;
  EXPECT_FALSE(
      DecodePartialResult(EncodePartialResult(bogus), &out).ok());

  const std::string bytes = EncodePartialResult(partial);
  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    PartialResultFrame ignored;
    EXPECT_FALSE(
        DecodePartialResult(std::string_view(bytes).substr(0, cut), &ignored)
            .ok())
        << cut;
  }
}

TEST(ServiceProtocolTest, NewFrameTypesHaveNames) {
  // The log/debug surface must keep up with the frame table; an
  // "unknown" name for a live frame type means a switch was missed.
  EXPECT_STREQ(FrameTypeName(FrameType::kWorkerHello), "WORKER_HELLO");
  EXPECT_STREQ(FrameTypeName(FrameType::kWorkerHelloAck),
               "WORKER_HELLO_ACK");
  EXPECT_STREQ(FrameTypeName(FrameType::kPartialResult), "PARTIAL_RESULT");
  EXPECT_STREQ(WireCodeName(WireCode::kPartialResult), "PARTIAL_RESULT");
  EXPECT_STREQ(FrameTypeName(FrameType::kSubscribe), "SUBSCRIBE");
  EXPECT_STREQ(FrameTypeName(FrameType::kUpdate), "UPDATE");
  EXPECT_STREQ(FrameTypeName(FrameType::kUnsubscribe), "UNSUBSCRIBE");
  EXPECT_STREQ(FrameTypeName(FrameType::kDelta), "DELTA");
  EXPECT_STREQ(FrameTypeName(FrameType::kUpdateAck), "UPDATE_ACK");
}

TEST(ServiceProtocolTest, SubscribeRoundTripAndTruncation) {
  SubscribeRequest in;
  in.request_id = 0x1122334455667788ull;
  in.initial_embeddings = true;
  in.query = "triangle@0,1,*";
  SubscribeRequest out;
  ASSERT_TRUE(DecodeSubscribe(EncodeSubscribe(in), &out).ok());
  EXPECT_EQ(out.request_id, in.request_id);
  EXPECT_TRUE(out.initial_embeddings);
  EXPECT_EQ(out.query, in.query);

  SubscribeRequest plain;
  plain.request_id = 2;
  plain.query = "0-1,1-2,2-0";
  ASSERT_TRUE(DecodeSubscribe(EncodeSubscribe(plain), &out).ok());
  EXPECT_FALSE(out.initial_embeddings);

  // No compat boundary in this payload: every proper prefix is a
  // truncation, and a trailing extra byte is garbage.
  const std::string full = EncodeSubscribe(in);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    SubscribeRequest ignored;
    EXPECT_FALSE(
        DecodeSubscribe(std::string_view(full).substr(0, cut), &ignored).ok())
        << cut;
  }
  SubscribeRequest ignored;
  EXPECT_FALSE(DecodeSubscribe(full + "x", &ignored).ok());
}

TEST(ServiceProtocolTest, UpdateRoundTripRejectsBadOpsAndSelfLoops) {
  UpdateRequest in;
  in.request_id = 99;
  in.deltas = {{incr::DeltaOp::kAddEdge, 3, 17, LabelId{1}, kAnyLabel},
               {incr::DeltaOp::kRemoveEdge, 4, 9}};
  UpdateRequest out;
  ASSERT_TRUE(DecodeUpdate(EncodeUpdate(in), &out).ok());
  EXPECT_EQ(out.request_id, 99u);
  ASSERT_EQ(out.deltas.size(), 2u);
  EXPECT_EQ(out.deltas[0].op, incr::DeltaOp::kAddEdge);
  EXPECT_EQ(out.deltas[0].u, 3u);
  EXPECT_EQ(out.deltas[0].v, 17u);
  EXPECT_EQ(out.deltas[0].u_label, LabelId{1});
  EXPECT_EQ(out.deltas[0].v_label, kAnyLabel);
  EXPECT_EQ(out.deltas[1].op, incr::DeltaOp::kRemoveEdge);

  const std::string full = EncodeUpdate(in);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    UpdateRequest ignored;
    EXPECT_FALSE(
        DecodeUpdate(std::string_view(full).substr(0, cut), &ignored).ok())
        << cut;
  }

  // An op byte past kRemoveEdge is malformed even though the rest of the
  // record parses; same for a self-loop (u == v). The encoder never
  // produces either, so both are exercised by direct mutation.
  std::string bad_op = full;
  bad_op[12] = 2;  // first delta's op byte (u64 id + u32 count = 12)
  UpdateRequest ignored;
  EXPECT_FALSE(DecodeUpdate(bad_op, &ignored).ok());

  UpdateRequest self_loop;
  self_loop.request_id = 1;
  self_loop.deltas = {{incr::DeltaOp::kAddEdge, 7, 7}};
  EXPECT_FALSE(DecodeUpdate(EncodeUpdate(self_loop), &ignored).ok());

  // A delta count that would overflow the frame cap is rejected before
  // any allocation.
  std::string huge = full.substr(0, 12);
  huge[8] = '\xFF';
  huge[9] = '\xFF';
  huge[10] = '\xFF';
  huge[11] = '\xFF';
  EXPECT_FALSE(DecodeUpdate(huge, &ignored).ok());
}

TEST(ServiceProtocolTest, UnsubscribeRoundTripAndBounds) {
  std::uint64_t id = 0;
  ASSERT_TRUE(DecodeUnsubscribe(EncodeUnsubscribe(0xFEEDull), &id).ok());
  EXPECT_EQ(id, 0xFEEDull);
  const std::string full = EncodeUnsubscribe(0xFEEDull);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(
        DecodeUnsubscribe(std::string_view(full).substr(0, cut), &id).ok())
        << cut;
  }
  EXPECT_FALSE(DecodeUnsubscribe(full + "x", &id).ok());
}

TEST(ServiceProtocolTest, DeltaRoundTripChunkFlagsAndArity) {
  DeltaFrame in;
  in.request_id = 5;
  in.sequence = 12;
  in.arity = 3;
  in.flags = 0;  // a non-final chunk
  in.added = {1, 2, 3, 10, 20, 30};
  in.retracted = {4, 5, 6};
  in.windows_rerun = 2;
  in.windows_skipped = 9;
  in.pages_read = 31;
  DeltaFrame out;
  ASSERT_TRUE(DecodeDelta(EncodeDelta(in), &out).ok());
  EXPECT_EQ(out.request_id, 5u);
  EXPECT_EQ(out.sequence, 12u);
  EXPECT_EQ(out.arity, 3);
  EXPECT_EQ(out.flags & kDeltaFlagFinal, 0);
  EXPECT_EQ(out.added, in.added);
  EXPECT_EQ(out.retracted, in.retracted);
  EXPECT_EQ(out.windows_rerun, 2u);
  EXPECT_EQ(out.windows_skipped, 9u);
  EXPECT_EQ(out.pages_read, 31u);

  // An empty final chunk is legal — every applied batch produces at least
  // one DELTA frame even when the diff is empty.
  DeltaFrame empty;
  empty.request_id = 5;
  empty.sequence = 13;
  empty.arity = 3;
  ASSERT_TRUE(DecodeDelta(EncodeDelta(empty), &out).ok());
  EXPECT_TRUE(out.added.empty());
  EXPECT_TRUE(out.retracted.empty());
  EXPECT_NE(out.flags & kDeltaFlagFinal, 0);

  // A vertex count that is not a multiple of the arity cannot be split
  // into embeddings; the decoder rejects it instead of guessing.
  DeltaFrame ragged = in;
  ragged.added = {1, 2};
  DeltaFrame ignored;
  EXPECT_FALSE(DecodeDelta(EncodeDelta(ragged), &ignored).ok());

  const std::string full = EncodeDelta(in);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    EXPECT_FALSE(
        DecodeDelta(std::string_view(full).substr(0, cut), &ignored).ok())
        << cut;
  }
}

TEST(ServiceProtocolTest, UpdateAckRoundTripAndTruncation) {
  UpdateAck in;
  in.request_id = 77;
  in.sequence = 3;
  in.applied = 4;
  in.ignored = 1;
  in.dirty_pages = 6;
  in.windows_rerun = 8;
  in.windows_skipped = 24;
  in.pages_read = 40;
  in.subscriptions_notified = 2;
  UpdateAck out;
  ASSERT_TRUE(DecodeUpdateAck(EncodeUpdateAck(in), &out).ok());
  EXPECT_EQ(out.request_id, 77u);
  EXPECT_EQ(out.sequence, 3u);
  EXPECT_EQ(out.applied, 4u);
  EXPECT_EQ(out.ignored, 1u);
  EXPECT_EQ(out.dirty_pages, 6u);
  EXPECT_EQ(out.windows_rerun, 8u);
  EXPECT_EQ(out.windows_skipped, 24u);
  EXPECT_EQ(out.pages_read, 40u);
  EXPECT_EQ(out.subscriptions_notified, 2u);

  const std::string full = EncodeUpdateAck(in);
  for (std::size_t cut = 0; cut < full.size(); ++cut) {
    UpdateAck ignored;
    EXPECT_FALSE(
        DecodeUpdateAck(std::string_view(full).substr(0, cut), &ignored).ok())
        << cut;
  }
}

TEST(ServiceProtocolTest, WireCodeForMapsEngineStatuses) {
  EXPECT_EQ(WireCodeFor(Status::InvalidArgument("bad")),
            WireCode::kInvalidQuery);
  EXPECT_EQ(WireCodeFor(Status::Cancelled("stop")), WireCode::kCancelled);
  EXPECT_EQ(WireCodeFor(Status::IOError("disk")), WireCode::kInternalError);
  EXPECT_EQ(WireCodeFor(Status::OK()), WireCode::kOk);
}

TEST(ServiceProtocolTest, FramesCrossASocketPairIntact) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const std::string payload = EncodeProgress({5, 1234});
  ASSERT_TRUE(WriteFrame(fds[0], FrameType::kProgress, payload).ok());
  ASSERT_TRUE(WriteFrame(fds[0], FrameType::kShutdown, {}).ok());

  auto first = ReadFrame(fds[1]);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(first->type, FrameType::kProgress);
  ProgressFrame progress;
  ASSERT_TRUE(DecodeProgress(first->payload, &progress).ok());
  EXPECT_EQ(progress.request_id, 5u);
  EXPECT_EQ(progress.embeddings, 1234u);

  auto second = ReadFrame(fds[1]);
  ASSERT_TRUE(second.ok()) << second.status().ToString();
  EXPECT_EQ(second->type, FrameType::kShutdown);
  EXPECT_TRUE(second->payload.empty());

  // Clean peer close at a frame boundary is the reader's typed exit.
  ::close(fds[0]);
  auto closed = ReadFrame(fds[1]);
  ASSERT_FALSE(closed.ok());
  EXPECT_EQ(closed.status().code(), StatusCode::kNotFound);
  ::close(fds[1]);
}

TEST(ServiceProtocolTest, OversizedHeaderIsInvalidArgument) {
  int fds[2];
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  const unsigned char header[5] = {0xFF, 0xFF, 0xFF, 0xFF, 0x01};
  ASSERT_EQ(::send(fds[0], header, sizeof(header), 0), 5);
  auto frame = ReadFrame(fds[1]);
  ASSERT_FALSE(frame.ok());
  EXPECT_EQ(frame.status().code(), StatusCode::kInvalidArgument);
  ::close(fds[0]);
  ::close(fds[1]);
}

}  // namespace
}  // namespace dualsim::service
