#include "serve/protocol.h"

#include <cstring>

#include "circuit/bug_plant.h"
#include "journal/snapshot.h"

namespace qpf::serve {

namespace {

using journal::SnapshotReader;
using journal::SnapshotWriter;

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  out.push_back(static_cast<std::uint8_t>((v >> 24) & 0xff));
}

[[nodiscard]] std::uint32_t get_u32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

void put_u64(std::vector<std::uint8_t>& out, std::uint64_t v) {
  put_u32(out, static_cast<std::uint32_t>(v & 0xffffffffull));
  put_u32(out, static_cast<std::uint32_t>(v >> 32));
}

[[nodiscard]] std::uint64_t get_u64(const std::uint8_t* p) {
  return static_cast<std::uint64_t>(get_u32(p)) |
         (static_cast<std::uint64_t>(get_u32(p + 4)) << 32);
}

/// Run a payload decoder, converting the snapshot stream's structured
/// CheckpointError (truncation, type-tag mismatch) into the protocol
/// failure domain and insisting every payload byte was consumed.
template <typename Fn>
auto decode_payload(const char* what, const std::vector<std::uint8_t>& payload,
                    Fn fn) {
  SnapshotReader reader(payload);
  try {
    auto value = fn(reader);
    if (!reader.exhausted()) {
      throw ProtocolError(std::string("trailing bytes after ") + what +
                          " payload");
    }
    return value;
  } catch (const CheckpointError& e) {
    throw ProtocolError(std::string("malformed ") + what + " payload: " +
                        e.message());
  }
}

void encode_chaos(SnapshotWriter& w, const arch::ChaosConfig& chaos) {
  w.write_u64(chaos.seed);
  w.write_u64(chaos.min_gap);
  w.write_u64(chaos.max_gap);
  w.write_u32(chaos.crash_weight);
  w.write_u32(chaos.stall_weight);
  w.write_u32(chaos.burst_weight);
  w.write_double(chaos.stall_ns);
  w.write_u64(chaos.burst_length);
}

[[nodiscard]] arch::ChaosConfig decode_chaos(SnapshotReader& r) {
  arch::ChaosConfig chaos;
  chaos.seed = r.read_u64();
  chaos.min_gap = r.read_u64();
  chaos.max_gap = r.read_u64();
  chaos.crash_weight = r.read_u32();
  chaos.stall_weight = r.read_u32();
  chaos.burst_weight = r.read_u32();
  chaos.stall_ns = r.read_double();
  chaos.burst_length = r.read_u64();
  return chaos;
}

}  // namespace

bool is_client_message(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello:
    case MsgType::kOpenSession:
    case MsgType::kSubmitQasm:
    case MsgType::kMeasure:
    case MsgType::kSnapshot:
    case MsgType::kClose:
    case MsgType::kPing:
    case MsgType::kStats:
      return true;
    default:
      return false;
  }
}

const char* type_name(MsgType type) noexcept {
  switch (type) {
    case MsgType::kHello:
      return "hello";
    case MsgType::kWelcome:
      return "welcome";
    case MsgType::kOpenSession:
      return "open_session";
    case MsgType::kSessionOpened:
      return "session_opened";
    case MsgType::kSubmitQasm:
      return "submit_qasm";
    case MsgType::kRunReply:
      return "run_reply";
    case MsgType::kMeasure:
      return "measure";
    case MsgType::kMeasureReply:
      return "measure_reply";
    case MsgType::kSnapshot:
      return "snapshot";
    case MsgType::kSnapshotReply:
      return "snapshot_reply";
    case MsgType::kClose:
      return "close";
    case MsgType::kClosed:
      return "closed";
    case MsgType::kError:
      return "error";
    case MsgType::kPing:
      return "ping";
    case MsgType::kPong:
      return "pong";
    case MsgType::kStats:
      return "stats";
    case MsgType::kStatsReply:
      return "stats_reply";
  }
  return "?";
}

std::vector<std::uint8_t> encode_frame(const Frame& frame) {
  std::vector<std::uint8_t> body;
  body.reserve(kBodyHeaderSize + frame.payload.size());
  body.push_back(frame.version);
  body.push_back(static_cast<std::uint8_t>(frame.type));
  body.push_back(0);
  body.push_back(0);
  put_u64(body, frame.session);
  put_u32(body, frame.request);
  body.insert(body.end(), frame.payload.begin(), frame.payload.end());

  std::vector<std::uint8_t> out;
  out.reserve(12 + body.size());
  put_u32(out, kFrameMagic);
  put_u32(out, static_cast<std::uint32_t>(body.size()));
  out.insert(out.end(), body.begin(), body.end());
  put_u32(out, journal::crc32(body.data(), body.size()));
  return out;
}

void FrameDecoder::feed(const void* data, std::size_t size) {
  if (!poisoned_.empty()) {
    throw ProtocolError(poisoned_, consumed_);
  }
  const auto* bytes = static_cast<const std::uint8_t*>(data);
  buffer_.insert(buffer_.end(), bytes, bytes + size);
}

void FrameDecoder::poison(const std::string& what) {
  poisoned_ = what;
  throw ProtocolError(what, consumed_);
}

std::optional<Frame> FrameDecoder::next() {
  if (!poisoned_.empty()) {
    throw ProtocolError(poisoned_, consumed_);
  }
  if (buffer_.size() < 8) {
    return std::nullopt;
  }
  const std::uint32_t magic = get_u32(buffer_.data());
  if (magic != kFrameMagic) {
    poison("bad frame magic");
  }
  const std::uint32_t body_len = get_u32(buffer_.data() + 4);
  if (body_len < kBodyHeaderSize) {
    poison("frame body shorter than the fixed header (" +
           std::to_string(body_len) + " bytes)");
  }
  if (body_len > max_frame_bytes_) {
    poison("frame body of " + std::to_string(body_len) +
           " bytes exceeds the " + std::to_string(max_frame_bytes_) +
           "-byte cap");
  }
  const std::size_t total = 8 + static_cast<std::size_t>(body_len) + 4;
  if (buffer_.size() < total) {
    return std::nullopt;
  }

  const std::uint8_t* body = buffer_.data() + 8;
  const std::uint32_t wire_crc = get_u32(body + body_len);
  const std::uint32_t want_crc = journal::crc32(body, body_len);
  // Planted bug 12: the decoder trusts the frame without checking its
  // CRC, so bit-flipped bodies sail through to the payload parsers.
  if (wire_crc != want_crc && !plant::bug(12)) {
    poison("frame CRC mismatch");
  }

  Frame frame;
  frame.version = body[0];
  frame.type = static_cast<MsgType>(body[1]);
  const std::uint16_t reserved =
      static_cast<std::uint16_t>(body[2]) |
      (static_cast<std::uint16_t>(body[3]) << 8);
  frame.session = get_u64(body + 4);
  frame.request = get_u32(body + 12);
  frame.payload.assign(body + kBodyHeaderSize, body + body_len);

  if (frame.version != kProtocolVersion) {
    poison("unsupported protocol version " + std::to_string(frame.version));
  }
  if (reserved != 0) {
    poison("nonzero reserved field");
  }
  if (std::string(type_name(frame.type)) == "?") {
    poison("unknown message type " +
           std::to_string(static_cast<unsigned>(frame.type)));
  }

  buffer_.erase(buffer_.begin(),
                buffer_.begin() + static_cast<std::ptrdiff_t>(total));
  consumed_ += total;
  return frame;
}

// --- Payload codecs ---------------------------------------------------

std::vector<std::uint8_t> encode_hello(const Hello& m) {
  SnapshotWriter w;
  w.tag("hello");
  w.write_u32(m.min_version);
  w.write_u32(m.max_version);
  w.write_string(m.client_name);
  return w.bytes();
}

Hello decode_hello(const std::vector<std::uint8_t>& payload) {
  return decode_payload("hello", payload, [](SnapshotReader& r) {
    r.expect_tag("hello");
    Hello m;
    m.min_version = r.read_u32();
    m.max_version = r.read_u32();
    m.client_name = r.read_string();
    return m;
  });
}

std::vector<std::uint8_t> encode_welcome(const Welcome& m) {
  SnapshotWriter w;
  w.tag("welcome");
  w.write_u32(m.version);
  w.write_string(m.server_name);
  w.write_u64(m.max_frame_bytes);
  w.write_u64(m.queue_depth);
  return w.bytes();
}

Welcome decode_welcome(const std::vector<std::uint8_t>& payload) {
  return decode_payload("welcome", payload, [](SnapshotReader& r) {
    r.expect_tag("welcome");
    Welcome m;
    m.version = r.read_u32();
    m.server_name = r.read_string();
    m.max_frame_bytes = r.read_u64();
    m.queue_depth = r.read_u64();
    return m;
  });
}

void write_session_config(SnapshotWriter& w, const SessionConfig& m) {
  w.tag("session-config");
  w.write_string(m.name);
  w.write_u64(m.seed);
  w.write_u64(m.qubits);
  w.write_bool(m.pauli_frame);
  w.write_bool(m.supervise);
  w.write_u64(m.max_retries);
  w.write_u64(m.escalate_after);
  encode_chaos(w, m.chaos);
  w.write_bool(m.resume);
}

SessionConfig read_session_config(SnapshotReader& r) {
  r.expect_tag("session-config");
  SessionConfig m;
  m.name = r.read_string();
  m.seed = r.read_u64();
  m.qubits = r.read_u64();
  m.pauli_frame = r.read_bool();
  m.supervise = r.read_bool();
  m.max_retries = r.read_u64();
  m.escalate_after = r.read_u64();
  m.chaos = decode_chaos(r);
  m.resume = r.read_bool();
  return m;
}

std::vector<std::uint8_t> encode_session_config(const SessionConfig& m) {
  SnapshotWriter w;
  write_session_config(w, m);
  return w.bytes();
}

SessionConfig decode_session_config(const std::vector<std::uint8_t>& payload) {
  return decode_payload("open_session", payload, [](SnapshotReader& r) {
    return read_session_config(r);
  });
}

std::vector<std::uint8_t> encode_session_opened(const SessionOpened& m) {
  SnapshotWriter w;
  w.tag("session-opened");
  w.write_u64(m.session);
  w.write_bool(m.restored);
  w.write_u32(m.last_request_id);
  return w.bytes();
}

SessionOpened decode_session_opened(const std::vector<std::uint8_t>& payload) {
  return decode_payload("session_opened", payload, [](SnapshotReader& r) {
    r.expect_tag("session-opened");
    SessionOpened m;
    m.session = r.read_u64();
    m.restored = r.read_bool();
    m.last_request_id = r.read_u32();
    return m;
  });
}

std::vector<std::uint8_t> encode_submit_qasm(const std::string& qasm) {
  SnapshotWriter w;
  w.tag("submit-qasm");
  w.write_string(qasm);
  return w.bytes();
}

std::string decode_submit_qasm(const std::vector<std::uint8_t>& payload) {
  return decode_payload("submit_qasm", payload, [](SnapshotReader& r) {
    r.expect_tag("submit-qasm");
    return r.read_string();
  });
}

std::vector<std::uint8_t> encode_run_reply(const RunReply& m) {
  SnapshotWriter w;
  w.tag("run-reply");
  w.write_string(m.bits);
  w.write_u64(m.operations);
  w.write_u8(m.supervisor_state);
  return w.bytes();
}

RunReply decode_run_reply(const std::vector<std::uint8_t>& payload) {
  return decode_payload("run_reply", payload, [](SnapshotReader& r) {
    r.expect_tag("run-reply");
    RunReply m;
    m.bits = r.read_string();
    m.operations = r.read_u64();
    m.supervisor_state = r.read_u8();
    return m;
  });
}

std::vector<std::uint8_t> encode_measure_reply(const std::string& bits) {
  SnapshotWriter w;
  w.tag("measure-reply");
  w.write_string(bits);
  return w.bytes();
}

std::string decode_measure_reply(const std::vector<std::uint8_t>& payload) {
  return decode_payload("measure_reply", payload, [](SnapshotReader& r) {
    r.expect_tag("measure-reply");
    return r.read_string();
  });
}

std::vector<std::uint8_t> encode_snapshot_reply(const SnapshotReply& m) {
  SnapshotWriter w;
  w.tag("snapshot-reply");
  w.write_u64(m.snapshot_bytes);
  w.write_u32(m.snapshot_crc);
  return w.bytes();
}

SnapshotReply decode_snapshot_reply(const std::vector<std::uint8_t>& payload) {
  return decode_payload("snapshot_reply", payload, [](SnapshotReader& r) {
    r.expect_tag("snapshot-reply");
    SnapshotReply m;
    m.snapshot_bytes = r.read_u64();
    m.snapshot_crc = r.read_u32();
    return m;
  });
}

std::vector<std::uint8_t> encode_closed(const Closed& m) {
  SnapshotWriter w;
  w.tag("closed");
  w.write_u64(m.requests_served);
  return w.bytes();
}

Closed decode_closed(const std::vector<std::uint8_t>& payload) {
  return decode_payload("closed", payload, [](SnapshotReader& r) {
    r.expect_tag("closed");
    Closed m;
    m.requests_served = r.read_u64();
    return m;
  });
}

std::vector<std::uint8_t> encode_error_reply(const ErrorReply& m) {
  SnapshotWriter w;
  w.tag("error-reply");
  w.write_string(m.code);
  w.write_string(m.message);
  return w.bytes();
}

ErrorReply decode_error_reply(const std::vector<std::uint8_t>& payload) {
  return decode_payload("error", payload, [](SnapshotReader& r) {
    r.expect_tag("error-reply");
    ErrorReply m;
    m.code = r.read_string();
    m.message = r.read_string();
    return m;
  });
}

std::vector<std::uint8_t> encode_stats_reply(const StatsReply& m) {
  SnapshotWriter w;
  w.tag("stats-reply");
  w.write_u64(m.connections_accepted);
  w.write_u64(m.connections_dropped);
  w.write_u64(m.requests_executed);
  w.write_u64(m.requests_shed);
  w.write_u64(m.sessions_evicted);
  w.write_u64(m.sessions_parked);
  w.write_u64(m.sessions_restored);
  w.write_u64(m.lease_expired);
  w.write_u64(m.duplicate_requests);
  w.write_u64(m.dedup_hits);
  return w.bytes();
}

StatsReply decode_stats_reply(const std::vector<std::uint8_t>& payload) {
  return decode_payload("stats_reply", payload, [](SnapshotReader& r) {
    r.expect_tag("stats-reply");
    StatsReply m;
    m.connections_accepted = r.read_u64();
    m.connections_dropped = r.read_u64();
    m.requests_executed = r.read_u64();
    m.requests_shed = r.read_u64();
    m.sessions_evicted = r.read_u64();
    m.sessions_parked = r.read_u64();
    m.sessions_restored = r.read_u64();
    m.lease_expired = r.read_u64();
    m.duplicate_requests = r.read_u64();
    m.dedup_hits = r.read_u64();
    return m;
  });
}

std::uint64_t session_id_for(const std::string& name) noexcept {
  std::uint64_t hash = 1469598103934665603ull;  // FNV-1a offset basis
  for (const char c : name) {
    hash ^= static_cast<std::uint8_t>(c);
    hash *= 1099511628211ull;  // FNV prime
  }
  return hash == 0 ? 1 : hash;  // session id 0 is "no session"
}

}  // namespace qpf::serve
