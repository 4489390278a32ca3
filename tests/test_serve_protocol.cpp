// Wire-protocol codec tests for qpf_serve (serve/protocol.h): frame
// armor under arbitrary fragmentation, poisoning on every class of
// malformed input, payload codec round trips, and the deterministic
// name-derived session ids the isolation contract leans on.
#include "serve/protocol.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "circuit/error.h"

namespace qpf::serve {
namespace {

Frame sample_frame() {
  Frame frame;
  frame.type = MsgType::kSubmitQasm;
  frame.session = 0x1122334455667788ull;
  frame.request = 42;
  frame.payload = encode_submit_qasm("qubits 2\nh q0\ncnot q0,q1\n");
  return frame;
}

bool frames_equal(const Frame& a, const Frame& b) {
  return a.version == b.version && a.type == b.type && a.session == b.session &&
         a.request == b.request && a.payload == b.payload;
}

TEST(ServeProtocolTest, FrameRoundTripsWholeAndByteAtATime) {
  const Frame frame = sample_frame();
  const std::vector<std::uint8_t> wire = encode_frame(frame);

  FrameDecoder whole;
  whole.feed(wire.data(), wire.size());
  const auto decoded = whole.next();
  ASSERT_TRUE(decoded.has_value());
  EXPECT_TRUE(frames_equal(*decoded, frame));
  EXPECT_FALSE(whole.next().has_value());
  EXPECT_EQ(whole.buffered(), 0u);

  // The worst fragmentation TCP can produce: one byte per feed.  The
  // decoder must stall (not throw) until the last byte arrives.
  FrameDecoder trickle;
  for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
    trickle.feed(&wire[i], 1);
    EXPECT_FALSE(trickle.next().has_value()) << "byte " << i;
  }
  trickle.feed(&wire.back(), 1);
  const auto trickled = trickle.next();
  ASSERT_TRUE(trickled.has_value());
  EXPECT_TRUE(frames_equal(*trickled, frame));
}

TEST(ServeProtocolTest, BackToBackFramesDecodeInOrder) {
  Frame first = sample_frame();
  Frame second = sample_frame();
  second.request = 43;
  second.type = MsgType::kMeasure;
  second.payload.clear();

  std::vector<std::uint8_t> wire = encode_frame(first);
  const std::vector<std::uint8_t> tail = encode_frame(second);
  wire.insert(wire.end(), tail.begin(), tail.end());

  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  const auto a = decoder.next();
  const auto b = decoder.next();
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  EXPECT_TRUE(frames_equal(*a, first));
  EXPECT_TRUE(frames_equal(*b, second));
  EXPECT_FALSE(decoder.next().has_value());
}

TEST(ServeProtocolTest, BadMagicPoisonsTheDecoderPermanently) {
  std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  wire[0] ^= 0xff;
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW((void)decoder.next(), ProtocolError);
  // Poisoned: even valid follow-up bytes must keep throwing — a
  // desynchronized stream cannot be trusted again.
  const std::vector<std::uint8_t> good = encode_frame(sample_frame());
  EXPECT_THROW(decoder.feed(good.data(), good.size()), ProtocolError);
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(ServeProtocolTest, CrcMismatchIsRejected) {
  std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  wire[wire.size() / 2] ^= 0x01;  // somewhere in the body
  FrameDecoder decoder;
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(ServeProtocolTest, EveryBodyBitFlipIsRejectedOrDiffers) {
  // The CRC catches every single-bit corruption of the body; flips in
  // the armor itself (magic / length) are caught structurally.
  const Frame frame = sample_frame();
  const std::vector<std::uint8_t> wire = encode_frame(frame);
  for (std::size_t bit = 0; bit < wire.size() * 8; ++bit) {
    std::vector<std::uint8_t> damaged = wire;
    damaged[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    FrameDecoder decoder;
    bool threw = false;
    std::optional<Frame> decoded;
    try {
      decoder.feed(damaged.data(), damaged.size());
      decoded = decoder.next();
    } catch (const ProtocolError&) {
      threw = true;
    }
    if (!threw && decoded.has_value()) {
      FAIL() << "bit " << bit << " flipped and the frame still decoded";
    }
    // A stall (length field grew) is acceptable: the reactor's frame
    // cap or the peer's close turns it into an error at a higher level.
  }
}

TEST(ServeProtocolTest, OversizedFrameIsRejectedBeforeBuffering) {
  Frame frame = sample_frame();
  FrameDecoder decoder(/*max_frame_bytes=*/64);
  frame.payload.assign(4096, 0xab);
  const std::vector<std::uint8_t> wire = encode_frame(frame);
  decoder.feed(wire.data(), wire.size());
  EXPECT_THROW((void)decoder.next(), ProtocolError);
}

TEST(ServeProtocolTest, UnknownTypeAndBadVersionAreRejected) {
  {
    Frame frame = sample_frame();
    frame.type = static_cast<MsgType>(0x7f);
    const std::vector<std::uint8_t> wire = encode_frame(frame);
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    EXPECT_THROW((void)decoder.next(), ProtocolError);
  }
  for (const std::uint8_t version : {0, 1, 3, 99}) {
    Frame frame = sample_frame();
    frame.version = version;
    const std::vector<std::uint8_t> wire = encode_frame(frame);
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());
    EXPECT_THROW((void)decoder.next(), ProtocolError)
        << "version " << static_cast<int>(version);
  }
}

TEST(ServeProtocolTest, TruncatedPayloadStreamFailsStructured) {
  // A well-armored frame whose *payload* is cut mid-stream must fail
  // in the payload decoder with ProtocolError, not crash.
  std::vector<std::uint8_t> payload = encode_submit_qasm("qubits 1\nh q0\n");
  payload.resize(payload.size() / 2);
  EXPECT_THROW((void)decode_submit_qasm(payload), ProtocolError);
  EXPECT_THROW((void)decode_hello(payload), ProtocolError);
  EXPECT_THROW((void)decode_session_config(payload), ProtocolError);
}

TEST(ServeProtocolTest, TrailingPayloadBytesAreRejected) {
  std::vector<std::uint8_t> payload = encode_closed(Closed{7});
  payload.push_back(0x00);
  EXPECT_THROW((void)decode_closed(payload), ProtocolError);
}

TEST(ServeProtocolTest, PayloadCodecsRoundTrip) {
  {
    Hello m;
    m.min_version = 1;
    m.max_version = 3;
    m.client_name = "bench-client";
    const Hello back = decode_hello(encode_hello(m));
    EXPECT_EQ(back.min_version, m.min_version);
    EXPECT_EQ(back.max_version, m.max_version);
    EXPECT_EQ(back.client_name, m.client_name);
  }
  {
    Welcome m;
    m.version = 1;
    m.server_name = "qpf_serve";
    m.max_frame_bytes = 1234;
    m.queue_depth = 9;
    const Welcome back = decode_welcome(encode_welcome(m));
    EXPECT_EQ(back.version, m.version);
    EXPECT_EQ(back.server_name, m.server_name);
    EXPECT_EQ(back.max_frame_bytes, m.max_frame_bytes);
    EXPECT_EQ(back.queue_depth, m.queue_depth);
  }
  {
    SessionConfig m;
    m.name = "tenant-3";
    m.seed = 17;
    m.qubits = 5;
    m.pauli_frame = true;
    m.supervise = true;
    m.max_retries = 2;
    m.escalate_after = 4;
    m.chaos.seed = 99;
    m.chaos.min_gap = 10;
    m.chaos.max_gap = 20;
    m.chaos.crash_weight = 1;
    m.chaos.stall_weight = 2;
    m.chaos.burst_weight = 3;
    m.chaos.stall_ns = 500.0;
    m.chaos.burst_length = 7;
    m.resume = true;
    const SessionConfig back = decode_session_config(encode_session_config(m));
    EXPECT_EQ(back.name, m.name);
    EXPECT_EQ(back.seed, m.seed);
    EXPECT_EQ(back.qubits, m.qubits);
    EXPECT_EQ(back.pauli_frame, m.pauli_frame);
    EXPECT_EQ(back.supervise, m.supervise);
    EXPECT_EQ(back.max_retries, m.max_retries);
    EXPECT_EQ(back.escalate_after, m.escalate_after);
    EXPECT_EQ(back.chaos.seed, m.chaos.seed);
    EXPECT_EQ(back.chaos.min_gap, m.chaos.min_gap);
    EXPECT_EQ(back.chaos.max_gap, m.chaos.max_gap);
    EXPECT_EQ(back.chaos.crash_weight, m.chaos.crash_weight);
    EXPECT_EQ(back.chaos.stall_weight, m.chaos.stall_weight);
    EXPECT_EQ(back.chaos.burst_weight, m.chaos.burst_weight);
    EXPECT_EQ(back.chaos.stall_ns, m.chaos.stall_ns);
    EXPECT_EQ(back.chaos.burst_length, m.chaos.burst_length);
    EXPECT_EQ(back.resume, m.resume);
  }
  {
    const SessionOpened back = decode_session_opened(
        encode_session_opened({0xdeadbeefull, true, 41}));
    EXPECT_EQ(back.session, 0xdeadbeefull);
    EXPECT_TRUE(back.restored);
    EXPECT_EQ(back.last_request_id, 41u);
  }
  {
    RunReply m;
    m.bits = "0110";
    m.operations = 12;
    m.supervisor_state = 1;
    const RunReply back = decode_run_reply(encode_run_reply(m));
    EXPECT_EQ(back.bits, m.bits);
    EXPECT_EQ(back.operations, m.operations);
    EXPECT_EQ(back.supervisor_state, m.supervisor_state);
  }
  {
    EXPECT_EQ(decode_measure_reply(encode_measure_reply("10x1")), "10x1");
  }
  {
    const SnapshotReply back =
        decode_snapshot_reply(encode_snapshot_reply({4096, 0xabcdef01u}));
    EXPECT_EQ(back.snapshot_bytes, 4096u);
    EXPECT_EQ(back.snapshot_crc, 0xabcdef01u);
  }
  {
    EXPECT_EQ(decode_closed(encode_closed({21})).requests_served, 21u);
  }
  {
    const ErrorReply back = decode_error_reply(
        encode_error_reply({"overloaded", "queue full (depth 16)"}));
    EXPECT_EQ(back.code, "overloaded");
    EXPECT_EQ(back.message, "queue full (depth 16)");
  }
}

TEST(ServeProtocolTest, SessionIdsAreDeterministicAndNonZero) {
  const std::uint64_t a = session_id_for("tenant-0");
  EXPECT_EQ(a, session_id_for("tenant-0"));
  EXPECT_NE(a, 0u);  // 0 is the connection-level sentinel
  EXPECT_NE(a, session_id_for("tenant-1"));
  EXPECT_NE(session_id_for(""), 0u);
}

TEST(ServeProtocolTest, ClientMessageClassification) {
  EXPECT_TRUE(is_client_message(MsgType::kHello));
  EXPECT_TRUE(is_client_message(MsgType::kSubmitQasm));
  EXPECT_TRUE(is_client_message(MsgType::kClose));
  EXPECT_FALSE(is_client_message(MsgType::kWelcome));
  EXPECT_FALSE(is_client_message(MsgType::kError));
  EXPECT_STRNE(type_name(MsgType::kSnapshot), "?");
  EXPECT_STREQ(type_name(static_cast<MsgType>(0xee)), "?");
}

}  // namespace
}  // namespace qpf::serve
