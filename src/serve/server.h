// qpf_serve core: a poll(2) reactor plus the shared deterministic
// executor (qpf::exec::Executor, service mode) running session turns,
// built so the robustness contract is enforceable by construction:
//
//   * ONE state mutex guards the connection map, the session table, and
//     every per-session queue.  The reactor thread does all socket I/O;
//     executor workers only run stack requests and append reply bytes
//     to a connection's TX buffer under the mutex, then poke the wake
//     pipe.  No lock-free cleverness — the suite must be TSan-clean.
//
//   * Fault isolation: each session's stack lives in the SessionTable
//     and is driven serially (a per-session run flag), so a poisoned
//     session can only ever corrupt itself.  Typed qpf::Errors become
//     structured kError replies; SupervisionError evicts the session;
//     a ProtocolError poisons only that connection.
//
//   * Backpressure: per-session pending queues are bounded at
//     `queue_depth`; the newest request is rejected with an immediate
//     `overloaded` reply (deterministic reject-newest — the requests
//     already admitted keep their ordering, so healthy reply streams
//     stay reproducible).  Byte/request quotas refuse with `quota`
//     before the stack is touched.  A client that stops reading
//     (TX buffer past `write_buffer_cap`, or no write progress for
//     `write_timeout_ms`) is dropped; its sessions detach and later
//     park — the accept and execute paths never block on one reader.
//
//   * Lifecycle: detached sessions idle past `idle_evict_ms` are parked
//     to `state_dir` through the PR 2 checkpoint armor and transparently
//     restored when a client reconnects with resume=true.  A shutdown
//     request (SIGTERM via the self-pipe) drains: stop accepting,
//     finish queued work, flush replies, checkpoint every live session,
//     then return from serve().
#pragma once

#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "exec/executor.h"
#include "serve/session_table.h"

namespace qpf::serve {

struct ServeOptions {
  std::uint16_t port = 0;           ///< 0 = ephemeral (report via port())
  std::string state_dir;            ///< parking lot; empty disables parking
  std::size_t max_sessions = 1024;
  std::size_t queue_depth = 16;     ///< pending requests per session
  std::size_t max_frame_bytes = kDefaultMaxFrameBytes;
  SessionQuota quota;               ///< per-session budgets (0 = unlimited)
  std::size_t executor_threads = 2;
  std::uint64_t idle_evict_ms = 0;  ///< 0 disables idle parking
  std::uint64_t write_timeout_ms = 10000;  ///< slow-reader eviction
  std::size_t write_buffer_cap = 8u << 20;
  /// Session lease: a connection that has sent nothing (not even a
  /// kPing heartbeat) for this long is considered half-open and reaped;
  /// its sessions are parked — not evicted — so a reconnect with
  /// resume=true restores them transparently.  0 disables leases.
  std::uint64_t lease_ms = 0;
  std::string server_name = "qpf_serve";
};

/// Counters exported for the ops runbook / load generator.
struct ServeStats {
  std::uint64_t connections_accepted = 0;
  std::uint64_t connections_dropped = 0;  ///< protocol / slow-reader drops
  std::uint64_t requests_executed = 0;
  std::uint64_t requests_shed = 0;        ///< `overloaded` replies
  std::uint64_t quota_refusals = 0;
  std::uint64_t sessions_evicted = 0;     ///< supervision escalations
  std::uint64_t sessions_parked = 0;
  std::uint64_t sessions_restored = 0;
  std::uint64_t park_failures = 0;        ///< `io-degraded` evictions
  std::uint64_t lease_expired = 0;        ///< half-open connections reaped
  std::uint64_t duplicate_requests = 0;   ///< retried request ids observed
  std::uint64_t dedup_hits = 0;           ///< replies replayed, not re-run
};

class Server {
 public:
  explicit Server(ServeOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Bind + listen; after this port() is the real port.  Throws IoError.
  void start();

  /// Run the reactor loop in the calling thread until a shutdown is
  /// requested; drains (finish queued work, flush, checkpoint all
  /// sessions) before returning.
  void serve();

  /// Request an orderly drain from any thread.
  void shutdown();

  /// Async-signal-safe shutdown: write one byte to this fd from a
  /// signal handler.
  [[nodiscard]] int shutdown_fd() const noexcept { return shutdown_pipe_[1]; }

  [[nodiscard]] std::uint16_t port() const noexcept { return port_; }
  [[nodiscard]] ServeStats stats() const;

 private:
  struct Job {
    std::uint64_t conn_id = 0;
    Frame frame;
  };

  struct ExecState {
    std::deque<Job> pending;
    bool running = false;
    // Quota accounting happens at admission, under the state mutex, so
    // a refusal is deterministic and never touches the stack.
    std::uint64_t requests_admitted = 0;
    std::uint64_t bytes_admitted = 0;
  };

  struct Connection {
    int fd = -1;
    std::uint64_t id = 0;
    FrameDecoder decoder;
    std::vector<std::uint8_t> tx;
    std::size_t tx_offset = 0;
    bool hello_done = false;
    bool doomed = false;  ///< flush TX, then close
    std::uint64_t last_write_progress_ms = 0;
    std::uint64_t last_rx_ms = 0;  ///< lease clock: last bytes received
    std::vector<std::uint64_t> sessions;  ///< ids opened on this connection
  };

  // Reactor side (single thread).
  void accept_clients();
  void read_client_by_id(std::uint64_t conn_id, std::uint64_t now);
  void write_client(Connection& conn, std::uint64_t now);
  void drop_connection(std::uint64_t conn_id, std::uint64_t now_ms);
  void handle_frame(Connection& conn, Frame frame, std::uint64_t now_ms);
  void handle_hello(Connection& conn, const Frame& frame);
  void handle_open_session(Connection& conn, const Frame& frame,
                           std::uint64_t now_ms);
  void poll_loop();
  [[nodiscard]] bool all_queues_idle() const;  // caller holds mutex_

  // Executor side: session turns scheduled onto the shared
  // qpf::exec::Executor (service mode).  One turn is in flight per
  // session at most (the `running` flag); a turn that leaves work
  // behind re-arms itself, preserving per-session serialization.
  void session_turn(std::uint64_t session_id);
  void schedule_session(std::uint64_t session_id);  // caller holds mutex_
  void execute_job(const Job& job);

  // Shared helpers (caller holds mutex_ unless noted).
  void enqueue_reply(std::uint64_t conn_id, const Frame& reply);
  void send_error(std::uint64_t conn_id, const Frame& request,
                  const std::string& code, const std::string& message);
  void wake_reactor();  // lock-free: one byte down the wake pipe
  void note_evicted(std::uint64_t session_id, std::string reason);
  void forget_evicted(std::uint64_t session_id);
  void send_evicted_error(std::uint64_t conn_id, const Frame& request,
                          const std::string& reason);
  void release_session(std::uint64_t conn_id, std::uint64_t session_id);
  void note_closed(std::uint64_t session_id, std::uint32_t request,
                   std::vector<std::uint8_t> payload);
  void forget_closed(std::uint64_t session_id);
  /// Replay the recorded kClosed for a retried close whose session is
  /// already gone.  True when a tombstone answered the frame.
  bool reply_closed_tombstone(std::uint64_t conn_id, const Frame& frame);
  void refund_admission(std::uint64_t session_id, std::size_t payload_bytes);
  [[nodiscard]] StatsReply stats_reply_locked() const;

  [[nodiscard]] static std::uint64_t now_ms() noexcept;

  ServeOptions options_;
  std::uint16_t port_ = 0;
  int listen_fd_ = -1;
  int shutdown_pipe_[2] = {-1, -1};
  int wake_pipe_[2] = {-1, -1};

  mutable std::mutex mutex_;
  SessionTable table_;
  std::map<std::uint64_t, Connection> connections_;  // by conn id
  std::map<int, std::uint64_t> conn_by_fd_;
  std::map<std::uint64_t, ExecState> exec_;          // by session id
  // Evicted session ids with the reason code the client should see:
  // "evicted" (supervision escalation) or "io-degraded" (parking the
  // session failed — the state dir is unwritable — so the stack was
  // dropped to protect server memory).  Bounded: the deque records
  // insertion order and the oldest ids are forgotten past the cap, so
  // a long-running server cannot leak memory per eviction.
  std::map<std::uint64_t, std::string> evicted_;
  std::deque<std::uint64_t> evicted_order_;
  // Close tombstones (exactly-once): the kClosed payload recorded
  // when a close executed, so a retried close whose reply was lost on
  // the wire replays byte-identically instead of hitting
  // `unknown-session` (the session itself is gone by then).  Bounded
  // like evicted_.
  struct ClosedTombstone {
    std::uint32_t request = 0;
    std::vector<std::uint8_t> payload;
  };
  std::map<std::uint64_t, ClosedTombstone> closed_;
  std::deque<std::uint64_t> closed_order_;
  ServeStats stats_;
  std::uint64_t next_conn_id_ = 1;
  bool draining_ = false;

  // The service-mode pool running session turns.  Created by serve(),
  // drained and destroyed when serve() returns (or its reactor throws).
  // Lock order: mutex_ may be held while submitting to the executor;
  // executor workers take mutex_ only with the executor's own queue
  // lock released, so the order is strictly mutex_ -> executor queue.
  std::unique_ptr<exec::Executor> executor_;
};

}  // namespace qpf::serve
