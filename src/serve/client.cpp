#include "serve/client.h"

#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "exec/executor.h"
#include "io/file_ops.h"

namespace qpf::serve {

int connect_with_retry(std::uint16_t port, std::uint64_t seed,
                       std::uint64_t budget_ms) {
  exec::SplitMix rng(seed ^ 0xc0eec7ull);
  std::uint64_t backoff_ms = 5;
  std::uint64_t slept_ms = 0;
  while (true) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      throw IoError("client",
                    "socket() failed: " + std::string(std::strerror(errno)));
    }
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (io::ops().connect(fd, reinterpret_cast<const sockaddr*>(&addr),
                          sizeof addr) == 0) {
      return fd;
    }
    const int error = errno;
    ::close(fd);
    const bool transient = error == ECONNREFUSED || error == ECONNABORTED ||
                           error == ETIMEDOUT;
    if (!transient || slept_ms >= budget_ms) {
      throw IoError("client", "connect() to port " + std::to_string(port) +
                                  " failed: " + std::strerror(error));
    }
    const std::uint64_t jitter = rng.below(backoff_ms + 1);
    const std::uint64_t nap = backoff_ms + jitter;
    std::this_thread::sleep_for(std::chrono::milliseconds(nap));
    slept_ms += nap;
    backoff_ms = std::min<std::uint64_t>(backoff_ms * 2, 100);
  }
}

Client::~Client() { disconnect(); }

void Client::connect(std::uint16_t port) {
  disconnect();
  fd_ = connect_with_retry(port);
  decoder_ = FrameDecoder();
}

void Client::disconnect() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

void Client::send(const Frame& frame) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame);
  std::size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t n = io::send_retry(fd_, bytes.data() + off,
                                     bytes.size() - off, MSG_NOSIGNAL);
    if (n < 0) {
      throw IoError("client",
                    "send() failed: " + std::string(std::strerror(errno)));
    }
    off += static_cast<std::size_t>(n);
  }
}

std::optional<Frame> Client::recv() {
  while (true) {
    if (std::optional<Frame> frame = decoder_.next()) {
      return frame;
    }
    char buffer[65536];
    const ssize_t n = io::read_retry(fd_, buffer, sizeof buffer);
    if (n == 0) {
      return std::nullopt;
    }
    if (n < 0) {
      throw IoError("client",
                    "read() failed: " + std::string(std::strerror(errno)));
    }
    transcript_.insert(transcript_.end(), buffer, buffer + n);
    decoder_.feed(buffer, static_cast<std::size_t>(n));
  }
}

Frame Client::transact(const Frame& request) {
  send(request);
  std::optional<Frame> reply = recv();
  if (!reply.has_value()) {
    throw IoError("client", "server closed the connection mid-request");
  }
  if (reply->request != request.request) {
    throw IoError("client",
                  "out-of-order reply: expected request id " +
                      std::to_string(request.request) + ", got " +
                      std::to_string(reply->request));
  }
  return *reply;
}

Client::Result Client::run_request(Frame request) {
  request.request = next_request_++;
  Result result;
  result.reply = transact(request);
  if (result.reply.type == MsgType::kError) {
    result.error = decode_error_reply(result.reply.payload);
  }
  return result;
}

Client::Result Client::hello(const std::string& client_name) {
  Frame f;
  f.type = MsgType::kHello;
  f.payload = encode_hello(Hello{.client_name = client_name});
  return run_request(std::move(f));
}

Client::Result Client::open_session(const SessionConfig& config) {
  Frame f;
  f.type = MsgType::kOpenSession;
  f.payload = encode_session_config(config);
  Result result = run_request(std::move(f));
  if (!result.error.has_value()) {
    // An id the session already executed would be answered from its
    // dedup window instead of run.
    next_request_ = std::max(
        next_request_,
        decode_session_opened(result.reply.payload).last_request_id + 1);
  }
  return result;
}

Client::Result Client::submit_qasm(std::uint64_t session,
                                   const std::string& qasm) {
  Frame f;
  f.type = MsgType::kSubmitQasm;
  f.session = session;
  f.payload = encode_submit_qasm(qasm);
  return run_request(std::move(f));
}

Client::Result Client::measure(std::uint64_t session) {
  Frame f;
  f.type = MsgType::kMeasure;
  f.session = session;
  return run_request(std::move(f));
}

Client::Result Client::snapshot(std::uint64_t session) {
  Frame f;
  f.type = MsgType::kSnapshot;
  f.session = session;
  return run_request(std::move(f));
}

Client::Result Client::close_session(std::uint64_t session) {
  Frame f;
  f.type = MsgType::kClose;
  f.session = session;
  return run_request(std::move(f));
}

}  // namespace qpf::serve
