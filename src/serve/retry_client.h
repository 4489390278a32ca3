// Exactly-once qpf_serve client: the one session driver of
// qpf_serve_load, the net-fault fuzz oracle and the serve scripts.
//
// The plain Client is the raw-frame client of the server tests: one
// socket, no retries.  RetryClient is the opposite end of the
// robustness bargain — it assumes the network WILL fail (FaultNet makes
// sure of it under test) and turns at-least-once delivery into
// exactly-once execution:
//
//   * every session request carries a monotonically increasing request
//     id that survives reconnects, so the server's per-session dedup
//     window can replay a lost reply byte-identically instead of
//     re-executing gates;
//
//   * a send failure, read timeout (SO_RCVTIMEO), peer reset, or
//     malformed reply tears the socket down and re-runs the handshake —
//     hello, then open-session with resume=true — under a seeded,
//     capped exponential backoff, then RESENDS the same frame with the
//     same id;
//
//   * a retried close never re-opens the session first (re-opening
//     after the close executed would build a fresh stack and erase the
//     server's close tombstone): it resends the close as-is, backing
//     off on `session-busy` (the half-open connection still owns the
//     session until the lease reaper frees it) and re-opening with
//     resume only on `unknown-session` (the close never ran and the
//     session was parked meanwhile);
//
//   * optional heartbeats (kPing) keep the server-side lease alive
//     across think time, using request ids in a reserved transient
//     space (high bit set) so they can never collide with session ids.
//
// The transcript records only the replies handed back to the caller
// (submit/measure/snapshot/close), re-encoded — so a run that needed
// seventeen reconnects compares byte-identical to a fault-free one.
#pragma once

#include <condition_variable>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "exec/executor.h"
#include "serve/protocol.h"

namespace qpf::serve {

struct RetryOptions {
  std::string client_name = "qpf-retry";
  std::uint64_t seed = 1;            ///< backoff jitter stream
  std::size_t max_attempts = 16;     ///< per request, then IoError
  std::uint64_t backoff_base_ms = 2;
  std::uint64_t backoff_cap_ms = 250;
  std::uint64_t recv_timeout_ms = 2000;  ///< SO_RCVTIMEO; expiry = retry
  std::uint64_t heartbeat_ms = 0;        ///< 0 disables the ping thread
  std::uint64_t connect_budget_ms = 3000;
};

class RetryClient {
 public:
  /// Remembers the target and session config; the first request dials.
  RetryClient(std::uint16_t port, SessionConfig config,
              RetryOptions options = {});
  ~RetryClient();

  RetryClient(const RetryClient&) = delete;
  RetryClient& operator=(const RetryClient&) = delete;

  struct Result {
    Frame reply;
    std::optional<ErrorReply> error;  ///< set when reply.type == kError
  };

  // Session operations.  Each retries through faults until a reply for
  // its request id arrives or the attempt budget is spent (IoError).
  // A server-side kError for the id is a RESULT, not a retry trigger.
  [[nodiscard]] Result submit_qasm(const std::string& qasm);
  [[nodiscard]] Result measure();
  [[nodiscard]] Result snapshot();
  [[nodiscard]] Result close();

  /// Replies returned to the caller, re-encoded in arrival order.
  [[nodiscard]] std::vector<std::uint8_t> transcript() const;

  /// Frames resent after a fault (not counting the first send).
  [[nodiscard]] std::uint64_t retries() const;
  /// Socket re-dials after the initial connect.
  [[nodiscard]] std::uint64_t reconnects() const;

  /// One-shot server counter query on a fresh throwaway connection.
  [[nodiscard]] static StatsReply query_stats(
      std::uint16_t port, std::uint64_t recv_timeout_ms = 2000);

 private:
  // All take mutex_ held.
  void dial_locked();
  void drop_socket_locked() noexcept;
  void open_session_locked(bool resume);
  [[nodiscard]] Frame send_and_match_locked(const Frame& frame);
  [[nodiscard]] Result run_session_request_locked(Frame frame);
  void backoff_locked(std::size_t attempt);
  [[nodiscard]] std::uint32_t transient_id_locked();

  void heartbeat_main();

  std::uint16_t port_;
  SessionConfig config_;
  RetryOptions options_;

  mutable std::mutex mutex_;
  int fd_ = -1;
  FrameDecoder decoder_;
  bool ever_connected_ = false;
  bool session_open_ = false;
  bool session_closed_ = false;
  std::uint64_t session_id_ = 0;
  std::uint32_t next_request_id_ = 1;
  std::uint32_t next_transient_ = 1;
  exec::SplitMix rng_;  ///< backoff jitter
  std::uint64_t retries_ = 0;
  std::uint64_t reconnects_ = 0;
  std::vector<std::uint8_t> transcript_;

  std::thread heartbeat_;
  std::condition_variable heartbeat_cv_;
  bool stopping_ = false;
};

}  // namespace qpf::serve
