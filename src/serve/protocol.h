// qpf_serve wire protocol: length-prefixed, CRC-framed, versioned
// binary messages (PR 6; DESIGN.md "Serve wire protocol").
//
// Every frame on a connection has the same armor:
//
//   offset 0   u32  magic "QPFW", little-endian          (0x57465051)
//   offset 4   u32  body length B, little-endian         (16 <= B <= cap)
//   offset 8   body:
//                u8   protocol version   (always 2)
//                u8   message type       (MsgType)
//                u16  reserved           (0)
//                u64  session id         (0 for connection-level messages)
//                u32  request id         (echoed verbatim in the reply)
//                ...  payload            (B - 16 bytes, message-specific)
//   offset 8+B u32  CRC32 of the body, little-endian
//
// The payload of every message is a journal::SnapshotWriter stream —
// the same tagged, typed serialization the checkpoint machinery uses —
// so a truncated or bit-flipped payload fails with a structured error
// instead of being reinterpreted.  Any violation (bad magic, oversized
// frame, CRC mismatch, version skew, unknown type, trailing payload
// bytes) raises qpf::ProtocolError with the stream offset; the server
// answers with a typed `protocol` error reply and drops the connection,
// because a desynchronized stream cannot be trusted again.
//
// Version negotiation: the client opens with kHello carrying the
// [min, max] protocol versions it speaks; the server replies kWelcome
// with version 2, or a `version` error reply when the range excludes
// it.  A frame whose version byte is not 2 is an armor violation like
// any other.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "arch/classical_fault_layer.h"
#include "circuit/error.h"

namespace qpf::journal {
class SnapshotWriter;
class SnapshotReader;
}  // namespace qpf::journal

namespace qpf::serve {

/// The one protocol version this build reads and writes.  It carries
/// the exactly-once machinery: per-session monotonic request ids with a
/// server-side dedup window, the `last_request_id` field on
/// kSessionOpened, and the kPing/kPong/kStats/kStatsReply messages.
inline constexpr std::uint32_t kProtocolVersion = 2;

/// Frame magic, little-endian "QPFW".
inline constexpr std::uint32_t kFrameMagic = 0x57465051u;

/// Fixed body prefix: version(1) + type(1) + reserved(2) + session(8) +
/// request(4).
inline constexpr std::size_t kBodyHeaderSize = 16;

/// Default per-frame size cap (body bytes).  One frame must never force
/// the server to buffer unbounded memory for one client.
inline constexpr std::size_t kDefaultMaxFrameBytes = 1u << 20;

enum class MsgType : std::uint8_t {
  kHello = 0x01,          ///< client -> server: version range + name
  kWelcome = 0x02,        ///< server -> client: chosen version + limits
  kOpenSession = 0x03,    ///< client -> server: SessionConfig
  kSessionOpened = 0x04,  ///< server -> client: session id (+ restored)
  kSubmitQasm = 0x05,     ///< client -> server: run a QASM program
  kRunReply = 0x06,       ///< server -> client: final bits + stack stats
  kMeasure = 0x07,        ///< client -> server: read the register state
  kMeasureReply = 0x08,   ///< server -> client: bits
  kSnapshot = 0x09,       ///< client -> server: checkpoint the session
  kSnapshotReply = 0x0a,  ///< server -> client: snapshot size + CRC
  kClose = 0x0b,          ///< client -> server: retire the session
  kClosed = 0x0c,         ///< server -> client: final request count
  kError = 0x0d,          ///< server -> client: structured error reply
  kPing = 0x0e,           ///< client -> server: heartbeat (empty)
  kPong = 0x0f,           ///< server -> client: heartbeat echo (empty)
  kStats = 0x10,          ///< client -> server: ask for counters (empty)
  kStatsReply = 0x11,     ///< server -> client: StatsReply
};

/// True for the message types a client may legally send.
[[nodiscard]] bool is_client_message(MsgType type) noexcept;

/// Human-readable message-type name ("?" for unknown values).
[[nodiscard]] const char* type_name(MsgType type) noexcept;

/// One decoded frame.
struct Frame {
  /// kProtocolVersion on every decoded frame; set it only to put a
  /// refused version byte on the wire.
  std::uint8_t version = kProtocolVersion;
  MsgType type = MsgType::kHello;
  std::uint64_t session = 0;
  std::uint32_t request = 0;
  std::vector<std::uint8_t> payload;
};

/// Encode a frame (armor + body + CRC), ready for the wire.
[[nodiscard]] std::vector<std::uint8_t> encode_frame(const Frame& frame);

/// Incremental frame decoder: feed() connection bytes in any
/// fragmentation, pop complete frames with next().  Throws
/// qpf::ProtocolError (with the cumulative stream offset) on any armor
/// violation; after a throw the stream is poisoned and every further
/// call rethrows — the connection must be dropped.
class FrameDecoder {
 public:
  explicit FrameDecoder(std::size_t max_frame_bytes = kDefaultMaxFrameBytes)
      : max_frame_bytes_(max_frame_bytes) {}

  void feed(const void* data, std::size_t size);

  /// Next complete frame, or nullopt when more bytes are needed.
  [[nodiscard]] std::optional<Frame> next();

  /// Bytes buffered but not yet consumed by a complete frame.
  [[nodiscard]] std::size_t buffered() const noexcept {
    return buffer_.size();
  }
  /// Total bytes consumed from the stream so far (error offsets).
  [[nodiscard]] std::size_t consumed() const noexcept { return consumed_; }

 private:
  [[noreturn]] void poison(const std::string& what);

  std::size_t max_frame_bytes_;
  std::vector<std::uint8_t> buffer_;
  std::size_t consumed_ = 0;
  std::string poisoned_;  ///< non-empty once the stream is unrecoverable
};

// --- Message payloads -------------------------------------------------

struct Hello {
  std::uint32_t min_version = kProtocolVersion;
  std::uint32_t max_version = kProtocolVersion;
  std::string client_name;
};

struct Welcome {
  std::uint32_t version = kProtocolVersion;
  std::string server_name;
  std::uint64_t max_frame_bytes = kDefaultMaxFrameBytes;
  std::uint64_t queue_depth = 0;
};

/// Everything a session's control stack is built from.  The same config
/// must be presented to restore an evicted session (mismatch is a typed
/// `checkpoint` error), so the stack is always bit-reproducible from
/// (config, request history).
struct SessionConfig {
  std::string name;             ///< client-chosen; keys eviction snapshots
  std::uint64_t seed = 1;       ///< session RNG seed chain base
  std::uint64_t qubits = 2;     ///< register size
  bool pauli_frame = false;     ///< insert a PauliFrameLayer
  bool supervise = false;       ///< insert a SupervisorLayer
  std::uint64_t max_retries = 3;      ///< supervisor restore+replay budget
  std::uint64_t escalate_after = 3;   ///< supervisor episode budget
  arch::ChaosConfig chaos{};    ///< scripted fault storm (off by default)
  bool resume = false;          ///< restore an evicted session if present
};

struct SessionOpened {
  std::uint64_t session = 0;
  bool restored = false;
  /// Highest request id the session has already executed.  A client
  /// that (re-)attaches moves its next request id past it, so a fresh
  /// request is never answered from the session's dedup window.
  std::uint32_t last_request_id = 0;
};

struct RunReply {
  std::string bits;             ///< q_{n-1}..q_0 after the program
  std::uint64_t operations = 0; ///< operations in the submitted program
  std::uint8_t supervisor_state = 0;  ///< arch::SupervisionState
};

struct SnapshotReply {
  std::uint64_t snapshot_bytes = 0;
  std::uint32_t snapshot_crc = 0;
};

struct Closed {
  std::uint64_t requests_served = 0;
};

/// Structured error reply.  `code` is a stable machine-readable token:
///   version | protocol | session-limit | session-busy | unknown-session
///   | overloaded | quota | qasm-parse | stack-config | supervision
///   | checkpoint | draining | evicted | io-degraded | dedup | internal
struct ErrorReply {
  std::string code;
  std::string message;
};

/// Server counter snapshot carried by kStatsReply.  Field order is
/// the wire order; additions append.
struct StatsReply {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dropped = 0;
  std::uint64_t requests_executed = 0;
  std::uint64_t requests_shed = 0;
  std::uint64_t sessions_evicted = 0;
  std::uint64_t sessions_parked = 0;
  std::uint64_t sessions_restored = 0;
  std::uint64_t lease_expired = 0;   ///< half-open connections reaped
  std::uint64_t duplicate_requests = 0;  ///< retried ids observed
  std::uint64_t dedup_hits = 0;      ///< replies replayed from the window
};

// Payload codecs.  Decoders throw qpf::ProtocolError on malformed
// payloads (wrapping the snapshot stream's structured failure).
[[nodiscard]] std::vector<std::uint8_t> encode_hello(const Hello& m);
[[nodiscard]] Hello decode_hello(const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::vector<std::uint8_t> encode_welcome(const Welcome& m);
[[nodiscard]] Welcome decode_welcome(const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::vector<std::uint8_t> encode_session_config(
    const SessionConfig& m);
[[nodiscard]] SessionConfig decode_session_config(
    const std::vector<std::uint8_t>& payload);
// Raw-stream variants, shared with the session eviction snapshots so a
// parked session's config round-trips through the same serializer.
void write_session_config(journal::SnapshotWriter& w, const SessionConfig& m);
[[nodiscard]] SessionConfig read_session_config(journal::SnapshotReader& r);
[[nodiscard]] std::vector<std::uint8_t> encode_session_opened(
    const SessionOpened& m);
[[nodiscard]] SessionOpened decode_session_opened(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::vector<std::uint8_t> encode_submit_qasm(
    const std::string& qasm);
[[nodiscard]] std::string decode_submit_qasm(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::vector<std::uint8_t> encode_run_reply(const RunReply& m);
[[nodiscard]] RunReply decode_run_reply(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::vector<std::uint8_t> encode_measure_reply(
    const std::string& bits);
[[nodiscard]] std::string decode_measure_reply(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::vector<std::uint8_t> encode_snapshot_reply(
    const SnapshotReply& m);
[[nodiscard]] SnapshotReply decode_snapshot_reply(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::vector<std::uint8_t> encode_closed(const Closed& m);
[[nodiscard]] Closed decode_closed(const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::vector<std::uint8_t> encode_error_reply(
    const ErrorReply& m);
[[nodiscard]] ErrorReply decode_error_reply(
    const std::vector<std::uint8_t>& payload);
[[nodiscard]] std::vector<std::uint8_t> encode_stats_reply(
    const StatsReply& m);
[[nodiscard]] StatsReply decode_stats_reply(
    const std::vector<std::uint8_t>& payload);

/// Deterministic session id: FNV-1a of the session name.  Name-derived
/// ids keep reply streams byte-identical across runs regardless of the
/// order concurrent connections reach the server.
[[nodiscard]] std::uint64_t session_id_for(const std::string& name) noexcept;

}  // namespace qpf::serve
