// One tenant of qpf_serve: a persistent, independently supervised
// control stack plus the accounting the robustness contract needs.
//
// A Session owns its own ChpCore + optional ClassicalFaultLayer (chaos
// schedule) + optional PauliFrameLayer + optional SupervisorLayer —
// the same assembly order as the CLI runner, so a session is exactly
// one long-lived shot.  Every request is a pure function of
// (SessionConfig, request history): nothing in the stack reads the
// clock or a shared RNG, which is what makes healthy-session reply
// streams byte-identical whether or not a neighbor session is being
// poisoned (check_serve.sh asserts this).
//
// Fault semantics per request:
//   - QasmParseError / StackConfigError / TransientFaultError leave the
//     session alive (the supervisor absorbed what it could); the server
//     renders a typed error reply and the next request proceeds.
//   - SupervisionError marks the session escalated: the stack is no
//     longer trustworthy, the server evicts it, and every later request
//     for the id gets an `evicted` reply.
//
// park()/unpark() are the idle-eviction / SIGTERM-drain path: the whole
// stack serializes through the PR 2 snapshot machinery (plus the config
// and accounting), and a reconnect with resume=true restores it
// bit-identically.
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "arch/chp_core.h"
#include "arch/classical_fault_layer.h"
#include "arch/pauli_frame_layer.h"
#include "arch/supervisor_layer.h"
#include "serve/protocol.h"

namespace qpf::serve {

/// Per-session resource quotas (0 = unlimited).
struct SessionQuota {
  std::uint64_t max_requests = 0;  ///< lifetime request budget
  std::uint64_t max_bytes = 0;     ///< lifetime received-payload budget
};

class Session {
 public:
  explicit Session(SessionConfig config);

  Session(const Session&) = delete;
  Session& operator=(const Session&) = delete;

  [[nodiscard]] const SessionConfig& config() const noexcept {
    return config_;
  }
  [[nodiscard]] std::uint64_t id() const noexcept { return id_; }

  /// Parse, add, and execute one QASM program on the persistent stack.
  /// Throws typed qpf::Errors; a SupervisionError additionally marks
  /// the session escalated.
  [[nodiscard]] RunReply submit_qasm(const std::string& qasm);

  /// Render the register state q_{n-1}..q_0 without executing anything.
  [[nodiscard]] std::string measure() const;

  /// Serialize the full session (config + accounting + stack) into a
  /// snapshot payload; also the idle-eviction / drain format.
  [[nodiscard]] std::vector<std::uint8_t> park() const;

  /// Rebuild a parked session.  The caller's `config` must match the
  /// parked one (name/seed/topology); throws CheckpointError otherwise.
  [[nodiscard]] static std::unique_ptr<Session> unpark(
      const SessionConfig& config, const std::vector<std::uint8_t>& payload);

  /// Charge `payload_bytes` against the quota; false once the budget is
  /// exhausted (the request must be refused *before* touching the
  /// stack, so a quota refusal never perturbs the state).
  [[nodiscard]] bool charge(const SessionQuota& quota,
                            std::uint64_t payload_bytes) noexcept;

  [[nodiscard]] std::uint64_t requests_served() const noexcept {
    return requests_served_;
  }
  [[nodiscard]] std::uint64_t bytes_received() const noexcept {
    return bytes_received_;
  }
  /// True after a SupervisionError: the stack refuses further traffic.
  [[nodiscard]] bool escalated() const noexcept { return escalated_; }
  [[nodiscard]] std::uint8_t supervisor_state() const noexcept;

  // --- Idempotency window ---------------------------------------------
  // The last kDedupWindow replies, keyed by request id.  A retried
  // request id whose reply is still in the window is answered by
  // replaying the recorded bytes instead of re-executing gates, which
  // is what makes RetryClient's at-least-once delivery exactly-once at
  // the stack.  The window parks and unparks with the session, so a
  // retry that straddles a reap/restore cycle still replays.

  struct RecordedReply {
    std::uint32_t request = 0;
    MsgType type = MsgType::kError;
    std::vector<std::uint8_t> payload;
  };

  /// Replies retained for replay; bounds the per-session memory.
  static constexpr std::size_t kDedupWindow = 16;

  /// Remember the reply for `request` and advance last_request_id().
  void record_reply(std::uint32_t request, MsgType type,
                    std::vector<std::uint8_t> payload);

  /// The recorded reply for `request`, or nullptr if it has left the
  /// window (or was never executed).
  [[nodiscard]] const RecordedReply* find_reply(
      std::uint32_t request) const noexcept;

  /// Highest request id ever executed on this session (0 = none).
  [[nodiscard]] std::uint32_t last_request_id() const noexcept {
    return last_request_id_;
  }

 private:
  void build_stack();

  SessionConfig config_;
  std::uint64_t id_;
  std::uint64_t requests_served_ = 0;
  std::uint64_t bytes_received_ = 0;
  bool escalated_ = false;
  std::uint32_t last_request_id_ = 0;
  std::deque<RecordedReply> replies_;

  std::unique_ptr<arch::ChpCore> core_;
  std::unique_ptr<arch::ClassicalFaultLayer> faults_;
  std::unique_ptr<arch::PauliFrameLayer> frame_;
  std::unique_ptr<arch::SupervisorLayer> supervisor_;
  arch::Core* top_ = nullptr;
};

}  // namespace qpf::serve
