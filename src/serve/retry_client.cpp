#include "serve/retry_client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "io/file_ops.h"
#include "serve/client.h"

namespace qpf::serve {

namespace {

/// Request ids with the high bit set are transient — hello, open,
/// heartbeat pings, stats — and can never collide with the monotonic
/// session-request id stream the dedup window keys on.
constexpr std::uint32_t kTransientBit = 0x80000000u;

void set_recv_timeout(int fd, std::uint64_t timeout_ms) {
  if (timeout_ms == 0) {
    return;
  }
  timeval tv{};
  tv.tv_sec = static_cast<time_t>(timeout_ms / 1000);
  tv.tv_usec = static_cast<suseconds_t>((timeout_ms % 1000) * 1000);
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof tv);
}

/// Blocking lockstep exchange on a bare fd (handshake helper for
/// query_stats, which has no RetryClient around it).
Frame exchange(int fd, FrameDecoder& decoder, const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = io::send_retry(fd, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      throw IoError("retry-client",
                    "send() failed: " + std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
  while (true) {
    if (std::optional<Frame> reply = decoder.next()) {
      if (reply->request == frame.request) {
        return *reply;
      }
      if ((reply->request & kTransientBit) != 0) {
        continue;  // stale pong from before a reconnect-in-progress
      }
      throw ProtocolError("reply for request id " +
                          std::to_string(reply->request) +
                          " while waiting on id " +
                          std::to_string(frame.request));
    }
    char buffer[65536];
    const ssize_t n = io::read_retry(fd, buffer, sizeof buffer);
    if (n == 0) {
      throw IoError("retry-client", "server closed the connection");
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        throw IoError("retry-client", "receive timed out");
      }
      throw IoError("retry-client",
                    "read() failed: " + std::string(std::strerror(errno)));
    }
    decoder.feed(buffer, static_cast<std::size_t>(n));
  }
}

}  // namespace

RetryClient::RetryClient(std::uint16_t port, SessionConfig config,
                         RetryOptions options)
    : port_(port),
      config_(std::move(config)),
      options_(std::move(options)),
      rng_(options_.seed ^ 0x5e77full) {
  if (options_.heartbeat_ms > 0) {
    heartbeat_ = std::thread([this] { heartbeat_main(); });
  }
}

RetryClient::~RetryClient() {
  {
    std::lock_guard<std::mutex> lock(mutex_);
    stopping_ = true;
  }
  heartbeat_cv_.notify_all();
  if (heartbeat_.joinable()) {
    heartbeat_.join();
  }
  std::lock_guard<std::mutex> lock(mutex_);
  drop_socket_locked();
}

std::uint32_t RetryClient::transient_id_locked() {
  return kTransientBit | next_transient_++;
}

void RetryClient::drop_socket_locked() noexcept {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
  session_open_ = false;
}

void RetryClient::dial_locked() {
  drop_socket_locked();
  fd_ = connect_with_retry(port_, options_.seed ^ 0xd1a1ull,
                           options_.connect_budget_ms);
  set_recv_timeout(fd_, options_.recv_timeout_ms);
  decoder_ = FrameDecoder();
  if (ever_connected_) {
    ++reconnects_;
  }
  ever_connected_ = true;

  Frame f;
  f.type = MsgType::kHello;
  f.request = transient_id_locked();
  f.payload = encode_hello(Hello{.client_name = options_.client_name});
  const Frame reply = send_and_match_locked(f);
  if (reply.type == MsgType::kError) {
    const ErrorReply err = decode_error_reply(reply.payload);
    throw StackConfigError(
        "retry-client", "hello refused: " + err.code + ": " + err.message);
  }
  (void)decode_welcome(reply.payload);
}

void RetryClient::open_session_locked(bool resume) {
  SessionConfig config = config_;
  config.resume = config.resume || resume;
  Frame f;
  f.type = MsgType::kOpenSession;
  f.request = transient_id_locked();
  f.payload = encode_session_config(config);
  const Frame reply = send_and_match_locked(f);
  if (reply.type == MsgType::kError) {
    const ErrorReply err = decode_error_reply(reply.payload);
    if (err.code == "session-busy") {
      // Our own half-open predecessor still owns the session; the
      // server's lease reaper will free it.  Retriable.
      throw TransientFaultError("retry-client", err.message);
    }
    throw StackConfigError(
        "retry-client",
        "open-session failed: " + err.code + ": " + err.message);
  }
  const SessionOpened opened = decode_session_opened(reply.payload);
  session_id_ = opened.session;
  session_open_ = true;
  // Never mint an id the session has already executed: replayed ids
  // dedup, fresh ids must start past the window's high-water mark.
  next_request_id_ =
      std::max(next_request_id_, opened.last_request_id + 1);
}

Frame RetryClient::send_and_match_locked(const Frame& frame) {
  return exchange(fd_, decoder_, frame);
}

void RetryClient::backoff_locked(std::size_t attempt) {
  const std::uint64_t shift =
      std::min<std::size_t>(attempt, std::size_t{16});
  std::uint64_t nap = options_.backoff_base_ms << shift;
  nap = std::min(nap, options_.backoff_cap_ms);
  nap += rng_.below(nap + 1);
  std::this_thread::sleep_for(std::chrono::milliseconds(nap));
}

RetryClient::Result RetryClient::run_session_request_locked(Frame frame) {
  frame.request = next_request_id_++;
  const bool is_close = frame.type == MsgType::kClose;
  bool sent_once = false;
  bool reopen_for_close = false;
  for (std::size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    try {
      if (fd_ < 0) {
        dial_locked();
      }
      // A retried close must NOT re-open first: if the close already
      // executed, re-opening would build a fresh session and erase the
      // server's close tombstone — resending as-is replays the recorded
      // kClosed instead.  The one exception: the server answered
      // `unknown-session` (the close never ran and the session was
      // parked meanwhile), where a resume-open restores it.
      if (!session_open_ && (!is_close || !sent_once || reopen_for_close)) {
        open_session_locked(sent_once || reopen_for_close);
        reopen_for_close = false;
      }
      frame.session = session_id_;
      if (sent_once) {
        ++retries_;
      }
      sent_once = true;
      const Frame reply = send_and_match_locked(frame);
      if (reply.type == MsgType::kError) {
        const ErrorReply err = decode_error_reply(reply.payload);
        if (is_close &&
            (err.code == "session-busy" || err.code == "unknown-session")) {
          // Either way the close never executed — an executed close
          // always evicts the session (and leaves a tombstone that
          // would have answered us), so the session still exists
          // detached/held (`session-busy`) or was parked meanwhile
          // (`unknown-session`).  Re-attach with resume and resend; if
          // a half-open predecessor still holds it, the open itself
          // reports busy and we back off until the lease reaper frees
          // it.
          reopen_for_close = true;
          session_open_ = false;
          backoff_locked(attempt);
          continue;
        }
        Result result;
        result.reply = reply;
        result.error = err;
        const std::vector<std::uint8_t> bytes = encode_frame(reply);
        transcript_.insert(transcript_.end(), bytes.begin(), bytes.end());
        return result;
      }
      if (is_close) {
        session_open_ = false;
        session_closed_ = true;
      }
      Result result;
      result.reply = reply;
      const std::vector<std::uint8_t> bytes = encode_frame(reply);
      transcript_.insert(transcript_.end(), bytes.begin(), bytes.end());
      return result;
    } catch (const TransientFaultError&) {
      backoff_locked(attempt);
    } catch (const IoError&) {
      drop_socket_locked();
      backoff_locked(attempt);
    } catch (const ProtocolError&) {
      drop_socket_locked();
      backoff_locked(attempt);
    }
  }
  throw IoError("retry-client",
                "request id " + std::to_string(frame.request) + " (" +
                    type_name(frame.type) + ") gave up after " +
                    std::to_string(options_.max_attempts) + " attempts");
}

RetryClient::Result RetryClient::submit_qasm(const std::string& qasm) {
  std::lock_guard<std::mutex> lock(mutex_);
  Frame f;
  f.type = MsgType::kSubmitQasm;
  f.payload = encode_submit_qasm(qasm);
  return run_session_request_locked(std::move(f));
}

RetryClient::Result RetryClient::measure() {
  std::lock_guard<std::mutex> lock(mutex_);
  Frame f;
  f.type = MsgType::kMeasure;
  return run_session_request_locked(std::move(f));
}

RetryClient::Result RetryClient::snapshot() {
  std::lock_guard<std::mutex> lock(mutex_);
  Frame f;
  f.type = MsgType::kSnapshot;
  return run_session_request_locked(std::move(f));
}

RetryClient::Result RetryClient::close() {
  std::lock_guard<std::mutex> lock(mutex_);
  Frame f;
  f.type = MsgType::kClose;
  return run_session_request_locked(std::move(f));
}

std::vector<std::uint8_t> RetryClient::transcript() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return transcript_;
}

std::uint64_t RetryClient::retries() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return retries_;
}

std::uint64_t RetryClient::reconnects() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return reconnects_;
}

void RetryClient::heartbeat_main() {
  std::unique_lock<std::mutex> lock(mutex_);
  while (!stopping_) {
    heartbeat_cv_.wait_for(lock,
                           std::chrono::milliseconds(options_.heartbeat_ms),
                           [this] { return stopping_; });
    if (stopping_) {
      return;
    }
    if (fd_ < 0 || !session_open_) {
      continue;  // nothing to keep alive; the next request dials
    }
    try {
      Frame f;
      f.type = MsgType::kPing;
      f.session = session_id_;
      f.request = transient_id_locked();
      (void)send_and_match_locked(f);
    } catch (const Error&) {
      // A failed heartbeat is not an error the caller sees: drop the
      // socket so the next session request (or ping) re-dials.
      drop_socket_locked();
    }
  }
}

StatsReply RetryClient::query_stats(std::uint16_t port,
                                    std::uint64_t recv_timeout_ms) {
  const int fd = connect_with_retry(port, 0xface5ull);
  set_recv_timeout(fd, recv_timeout_ms);
  FrameDecoder decoder;
  try {
    Frame hello;
    hello.type = MsgType::kHello;
    hello.request = kTransientBit | 1;
    hello.payload = encode_hello(Hello{.client_name = "qpf-stats"});
    const Frame welcome = exchange(fd, decoder, hello);
    if (welcome.type == MsgType::kError) {
      const ErrorReply err = decode_error_reply(welcome.payload);
      throw StackConfigError(
          "retry-client", "hello refused: " + err.code + ": " + err.message);
    }
    Frame stats;
    stats.type = MsgType::kStats;
    stats.request = kTransientBit | 2;
    const Frame reply = exchange(fd, decoder, stats);
    if (reply.type != MsgType::kStatsReply) {
      throw ProtocolError(std::string("expected stats_reply, got ") +
                          type_name(reply.type));
    }
    const StatsReply decoded = decode_stats_reply(reply.payload);
    ::close(fd);
    return decoded;
  } catch (...) {
    ::close(fd);
    throw;
  }
}

}  // namespace qpf::serve
