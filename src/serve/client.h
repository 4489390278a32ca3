// Blocking raw-frame qpf_serve client, used by the serve test suite.
//
// The client is deliberately simple — one socket, synchronous
// send/recv, no retries — so a test can put any frame on the wire and
// see exactly the bytes the server sends back: every byte received is
// appended to an in-memory transcript.  Its lockstep helpers number
// requests 1, 2, 3, ... on the connection and, like RetryClient, move
// the next id past the `last_request_id` of each session they open, so
// a connection that re-attaches a warm session is never answered from
// the session's dedup window.  RetryClient (retry_client.h) is the
// client that survives faults.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "serve/protocol.h"

namespace qpf::serve {

/// Dial 127.0.0.1:port through the io seam with a bounded, seeded retry
/// on ECONNREFUSED / ECONNABORTED / ETIMEDOUT — a freshly exec'd server
/// may not have reached listen(2) yet, and losing that race is not an
/// error worth surfacing.  Any other errno throws immediately.  Returns
/// the connected fd; throws IoError once `budget_ms` is exhausted.
[[nodiscard]] int connect_with_retry(std::uint16_t port,
                                     std::uint64_t seed = 1,
                                     std::uint64_t budget_ms = 3000);

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connect to 127.0.0.1:port.  Throws IoError.
  void connect(std::uint16_t port);
  void disconnect();
  [[nodiscard]] bool connected() const noexcept { return fd_ >= 0; }

  /// Send one frame (blocking until fully written).  Throws IoError.
  void send(const Frame& frame);

  /// Receive the next frame (blocking).  Returns nullopt on a clean
  /// peer close; throws IoError on socket errors and ProtocolError on
  /// malformed server bytes.
  [[nodiscard]] std::optional<Frame> recv();

  /// Send `request` and wait for the reply carrying the same request
  /// id.  Out-of-band replies for other ids (pipelined traffic) are an
  /// IoError here — the lockstep helpers are for lockstep clients.
  [[nodiscard]] Frame transact(const Frame& request);

  // Lockstep helpers.  Each returns the server's error reply when one
  // came back, encoded as an ErrorReply, or performs the happy path.
  struct Result {
    Frame reply;
    std::optional<ErrorReply> error;  ///< set when reply.type == kError
  };
  [[nodiscard]] Result hello(const std::string& client_name);
  /// On success, also moves the next request id past the session's
  /// last_request_id.
  [[nodiscard]] Result open_session(const SessionConfig& config);
  [[nodiscard]] Result submit_qasm(std::uint64_t session,
                                   const std::string& qasm);
  [[nodiscard]] Result measure(std::uint64_t session);
  [[nodiscard]] Result snapshot(std::uint64_t session);
  [[nodiscard]] Result close_session(std::uint64_t session);

  /// Every byte received so far, in arrival order — the reply stream
  /// this connection witnessed.
  [[nodiscard]] const std::vector<std::uint8_t>& transcript() const noexcept {
    return transcript_;
  }

 private:
  [[nodiscard]] Result run_request(Frame request);

  int fd_ = -1;
  std::uint32_t next_request_ = 1;
  FrameDecoder decoder_;
  std::vector<std::uint8_t> transcript_;
};

}  // namespace qpf::serve
