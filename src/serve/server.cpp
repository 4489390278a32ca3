#include "serve/server.h"

#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstring>

#include "circuit/bug_plant.h"
#include "io/file_ops.h"
#include "journal/snapshot.h"

namespace qpf::serve {

namespace {

void set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0 || ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) < 0) {
    throw IoError("socket", "fcntl(O_NONBLOCK) failed: " +
                                std::string(std::strerror(errno)));
  }
}

void make_pipe(int fds[2]) {
  if (::pipe(fds) != 0) {
    throw IoError("pipe",
                  "pipe() failed: " + std::string(std::strerror(errno)));
  }
  set_nonblocking(fds[0]);
  set_nonblocking(fds[1]);
}

void drain_pipe(int fd) {
  char sink[256];
  while (io::read_retry(fd, sink, sizeof sink) > 0) {
  }
}

void close_fd(int& fd) {
  if (fd >= 0) {
    ::close(fd);
    fd = -1;
  }
}

}  // namespace

Server::Server(ServeOptions options)
    : options_(std::move(options)),
      table_(options_.max_sessions, options_.state_dir) {}

Server::~Server() {
  close_fd(listen_fd_);
  close_fd(shutdown_pipe_[0]);
  close_fd(shutdown_pipe_[1]);
  close_fd(wake_pipe_[0]);
  close_fd(wake_pipe_[1]);
}

std::uint64_t Server::now_ms() noexcept {
  return static_cast<std::uint64_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

void Server::start() {
  make_pipe(shutdown_pipe_);
  make_pipe(wake_pipe_);

  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    throw IoError("socket",
                  "socket() failed: " + std::string(std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(options_.port);
  if (::bind(listen_fd_, reinterpret_cast<const sockaddr*>(&addr),
             sizeof addr) != 0) {
    throw IoError("socket",
                  "bind() failed: " + std::string(std::strerror(errno)));
  }
  if (::listen(listen_fd_, 64) != 0) {
    throw IoError("socket",
                  "listen() failed: " + std::string(std::strerror(errno)));
  }
  socklen_t len = sizeof addr;
  if (::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&addr), &len) !=
      0) {
    throw IoError("socket",
                  "getsockname() failed: " + std::string(std::strerror(errno)));
  }
  port_ = ntohs(addr.sin_port);
  set_nonblocking(listen_fd_);
}

void Server::shutdown() {
  const char byte = 'S';
  [[maybe_unused]] const ssize_t n =
      io::write_retry(shutdown_pipe_[1], &byte, 1);
}

void Server::wake_reactor() {
  const char byte = 'w';
  [[maybe_unused]] const ssize_t n = io::write_retry(wake_pipe_[1], &byte, 1);
}

ServeStats Server::stats() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return stats_;
}

void Server::serve() {
  if (listen_fd_ < 0) {
    throw IoError("server", "serve() called before start()");
  }
  executor_ = std::make_unique<exec::Executor>(
      std::max<std::size_t>(options_.executor_threads, 1));

  try {
    poll_loop();
  } catch (...) {
    // The reactor died (poll/fcntl IoError).  Retire the executor pool
    // (drain queued session turns, join) before the typed error
    // propagates.
    executor_->shutdown();
    executor_.reset();
    throw;
  }

  // Drain finished: every queue is idle and every flushable reply has
  // been flushed.  Retire the executor, then checkpoint what is left.
  executor_->shutdown();
  executor_.reset();

  {
    std::lock_guard<std::mutex> lock(mutex_);
    std::size_t failed = 0;
    stats_.sessions_parked += table_.checkpoint_all(&failed);
    stats_.park_failures += failed;
    for (auto& [id, conn] : connections_) {
      ::close(conn.fd);
    }
    connections_.clear();
    conn_by_fd_.clear();
  }
}

bool Server::all_queues_idle() const {
  for (const auto& [id, st] : exec_) {
    if (st.running || !st.pending.empty()) {
      return false;
    }
  }
  return true;
}

void Server::poll_loop() {
  while (true) {
    std::vector<pollfd> fds;
    fds.push_back(pollfd{shutdown_pipe_[0], POLLIN, 0});
    fds.push_back(pollfd{wake_pipe_[0], POLLIN, 0});
    bool drain_candidate;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      if (!draining_) {
        fds.push_back(pollfd{listen_fd_, POLLIN, 0});
      }
      for (const auto& [id, conn] : connections_) {
        short events = 0;
        if (!conn.doomed) {
          events |= POLLIN;
        }
        if (conn.tx_offset < conn.tx.size()) {
          events |= POLLOUT;
        }
        if (events != 0) {
          fds.push_back(pollfd{conn.fd, events, 0});
        }
      }
      drain_candidate = draining_ && all_queues_idle();
    }

    const int timeout_ms = drain_candidate ? 10 : 100;
    const int rc = io::poll_retry(fds.data(), fds.size(), timeout_ms);
    if (rc < 0) {
      throw IoError("server",
                    "poll() failed: " + std::string(std::strerror(errno)));
    }

    if (fds[0].revents & POLLIN) {
      drain_pipe(shutdown_pipe_[0]);
      std::lock_guard<std::mutex> lock(mutex_);
      draining_ = true;
    }
    if (fds[1].revents & POLLIN) {
      drain_pipe(wake_pipe_[0]);
    }

    const std::uint64_t now = now_ms();
    for (std::size_t i = 2; i < fds.size(); ++i) {
      const pollfd& p = fds[i];
      if (p.fd == listen_fd_) {
        if (p.revents & POLLIN) {
          accept_clients();
        }
        continue;
      }
      std::uint64_t conn_id = 0;
      {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = conn_by_fd_.find(p.fd);
        if (it == conn_by_fd_.end()) {
          continue;
        }
        conn_id = it->second;
      }
      if (p.revents & (POLLERR | POLLHUP | POLLNVAL)) {
        drop_connection(conn_id, now);
        continue;
      }
      if (p.revents & POLLOUT) {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = connections_.find(conn_id);
        if (it != connections_.end()) {
          write_client(it->second, now);
        }
      }
      if (p.revents & POLLIN) {
        read_client_by_id(conn_id, now);
      }
    }

    // Housekeeping: slow readers, lease-expired half-open connections,
    // doomed-and-flushed connections, idle parking, drain completion.
    std::vector<std::uint64_t> to_drop;
    std::vector<std::pair<std::uint64_t, std::vector<std::uint64_t>>> to_reap;
    bool drained = false;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      for (auto& [id, conn] : connections_) {
        const bool tx_pending = conn.tx_offset < conn.tx.size();
        if (conn.doomed && !tx_pending) {
          to_drop.push_back(id);
        } else if (tx_pending && options_.write_timeout_ms > 0 &&
                   now > conn.last_write_progress_ms +
                             options_.write_timeout_ms) {
          ++stats_.connections_dropped;
          to_drop.push_back(id);
        } else if (options_.lease_ms > 0 && !conn.doomed &&
                   now > conn.last_rx_ms + options_.lease_ms) {
          // The peer has sent nothing — not even a heartbeat — for a
          // whole lease.  Treat the connection as half-open (the TCP
          // peer may be gone without a FIN ever arriving) and reap it.
          // Its sessions are parked, not evicted: a reconnect with
          // resume=true restores them with the dedup window intact.
          ++stats_.lease_expired;
          to_reap.emplace_back(id, conn.sessions);
        }
      }
      if (options_.idle_evict_ms > 0) {
        std::vector<std::uint64_t> park_failed;
        stats_.sessions_parked += table_.park_idle(
            now, options_.idle_evict_ms,
            [this](std::uint64_t id) {
              auto it = exec_.find(id);
              return it != exec_.end() &&
                     (it->second.running || !it->second.pending.empty());
            },
            &park_failed);
        // Graceful degradation under a full/unwritable state dir: the
        // session could not be parked, so its stack was dropped.  Mark
        // the id so later requests get a typed `io-degraded` refusal;
        // every healthy tenant is untouched.
        for (const std::uint64_t id : park_failed) {
          note_evicted(id, "io-degraded");
          ++stats_.park_failures;
        }
      }
      // Retire execution state for sessions that are gone (closed,
      // evicted, or parked) once their queue has drained — otherwise
      // exec_ keeps one entry per session id for the life of the
      // server.  A running/queued entry is never touched; reopening a
      // name simply recreates the entry from the session accounting.
      for (auto it = exec_.begin(); it != exec_.end();) {
        if (!it->second.running && it->second.pending.empty() &&
            !table_.contains(it->first)) {
          it = exec_.erase(it);
        } else {
          ++it;
        }
      }
      if (draining_ && all_queues_idle()) {
        bool flushed = true;
        for (const auto& [id, conn] : connections_) {
          if (conn.tx_offset < conn.tx.size()) {
            flushed = false;
            break;
          }
        }
        drained = flushed;
      }
    }
    for (const std::uint64_t id : to_drop) {
      drop_connection(id, now);
    }
    for (const auto& [conn_id, session_ids] : to_reap) {
      drop_connection(conn_id, now);  // detaches the sessions
      std::lock_guard<std::mutex> lock(mutex_);
      for (const std::uint64_t sid : session_ids) {
        // A session with queued or running work stays warm — parking
        // would free a stack an executor still references; it will be
        // parked by the idle sweep once its queue drains.
        auto it = exec_.find(sid);
        if (it != exec_.end() &&
            (it->second.running || !it->second.pending.empty())) {
          continue;
        }
        switch (table_.park_session(sid)) {
          case SessionTable::ParkOutcome::kParked:
            ++stats_.sessions_parked;
            break;
          case SessionTable::ParkOutcome::kFailed:
            note_evicted(sid, "io-degraded");
            ++stats_.park_failures;
            break;
          case SessionTable::ParkOutcome::kSkipped:
            break;
        }
      }
    }
    if (drained) {
      return;
    }
  }
}

void Server::accept_clients() {
  while (true) {
    const int fd = io::accept_retry(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      return;  // EAGAIN or transient accept failure: poll again
    }
    set_nonblocking(fd);
    std::lock_guard<std::mutex> lock(mutex_);
    Connection conn;
    conn.fd = fd;
    conn.id = next_conn_id_++;
    conn.decoder = FrameDecoder(options_.max_frame_bytes);
    conn.last_write_progress_ms = now_ms();
    conn.last_rx_ms = conn.last_write_progress_ms;
    conn_by_fd_[fd] = conn.id;
    ++stats_.connections_accepted;
    connections_.emplace(conn.id, std::move(conn));
  }
}

void Server::read_client_by_id(std::uint64_t conn_id, std::uint64_t now) {
  char buffer[65536];
  while (true) {
    int fd = -1;
    {
      std::lock_guard<std::mutex> lock(mutex_);
      auto it = connections_.find(conn_id);
      if (it == connections_.end() || it->second.doomed) {
        return;
      }
      fd = it->second.fd;
    }
    // read_retry absorbs EINTR: before this audit a stray signal here
    // looked like a dead peer and dropped a healthy connection.
    const ssize_t n = io::read_retry(fd, buffer, sizeof buffer);
    if (n == 0) {
      drop_connection(conn_id, now);
      return;
    }
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      drop_connection(conn_id, now);
      return;
    }
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = connections_.find(conn_id);
    if (it == connections_.end()) {
      return;
    }
    Connection& conn = it->second;
    conn.last_rx_ms = now;
    try {
      conn.decoder.feed(buffer, static_cast<std::size_t>(n));
      while (std::optional<Frame> frame = conn.decoder.next()) {
        handle_frame(conn, std::move(*frame), now);
      }
    } catch (const ProtocolError& e) {
      // The stream is desynchronized: answer with a typed error frame
      // and close once it flushes.  Only this connection is affected.
      Frame request;  // no trustworthy ids at this point
      send_error(conn.id, request, "protocol", e.what());
      conn.doomed = true;
      ++stats_.connections_dropped;
      return;
    }
    if (static_cast<std::size_t>(n) < sizeof buffer) {
      return;
    }
  }
}

void Server::write_client(Connection& conn, std::uint64_t now) {
  while (conn.tx_offset < conn.tx.size()) {
    const ssize_t n =
        io::send_retry(conn.fd, conn.tx.data() + conn.tx_offset,
                       conn.tx.size() - conn.tx_offset, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EAGAIN || errno == EWOULDBLOCK) {
        return;
      }
      // Peer is gone; stop flushing and let housekeeping reap us.
      conn.tx.clear();
      conn.tx_offset = 0;
      conn.doomed = true;
      return;
    }
    conn.tx_offset += static_cast<std::size_t>(n);
    conn.last_write_progress_ms = now;
  }
  conn.tx.clear();
  conn.tx_offset = 0;
}

void Server::drop_connection(std::uint64_t conn_id, std::uint64_t now) {
  std::lock_guard<std::mutex> lock(mutex_);
  auto it = connections_.find(conn_id);
  if (it == connections_.end()) {
    return;
  }
  Connection& conn = it->second;
  for (const std::uint64_t session : conn.sessions) {
    table_.detach(session, now);
  }
  conn_by_fd_.erase(conn.fd);
  ::close(conn.fd);
  connections_.erase(it);
}

void Server::enqueue_reply(std::uint64_t conn_id, const Frame& reply) {
  auto it = connections_.find(conn_id);
  if (it == connections_.end() || it->second.doomed) {
    return;  // client left; the reply evaporates
  }
  Connection& conn = it->second;
  const std::vector<std::uint8_t> bytes = encode_frame(reply);
  if (conn.tx.size() - conn.tx_offset + bytes.size() >
      options_.write_buffer_cap) {
    // The client has stopped reading; buffering more would let one
    // slow reader hold server memory hostage.
    conn.tx.clear();
    conn.tx_offset = 0;
    conn.doomed = true;
    ++stats_.connections_dropped;
    return;
  }
  // The write-stall clock starts when the buffer goes from idle to
  // pending: a connection that sat idle longer than write_timeout_ms
  // must not be reaped before the very first write is even attempted.
  if (conn.tx_offset >= conn.tx.size()) {
    conn.last_write_progress_ms = now_ms();
  }
  conn.tx.insert(conn.tx.end(), bytes.begin(), bytes.end());
  wake_reactor();
}

void Server::note_evicted(std::uint64_t session_id, std::string reason) {
  // Bounded memory of evicted ids (better refusal messages); the
  // oldest are forgotten once the ring is full.
  static constexpr std::size_t kEvictedCap = 1024;
  if (evicted_.emplace(session_id, std::move(reason)).second) {
    evicted_order_.push_back(session_id);
    while (evicted_order_.size() > kEvictedCap) {
      evicted_.erase(evicted_order_.front());
      evicted_order_.pop_front();
    }
  }
}

void Server::send_evicted_error(std::uint64_t conn_id, const Frame& request,
                                const std::string& reason) {
  send_error(conn_id, request, reason,
             reason == "io-degraded"
                 ? "session was evicted: parking failed, state dir is "
                   "unwritable (reopen to rebuild)"
                 : "session was evicted after escalation");
}

void Server::forget_evicted(std::uint64_t session_id) {
  if (evicted_.erase(session_id) != 0) {
    evicted_order_.erase(std::find(evicted_order_.begin(),
                                   evicted_order_.end(), session_id));
  }
}

void Server::note_closed(std::uint64_t session_id, std::uint32_t request,
                         std::vector<std::uint8_t> payload) {
  static constexpr std::size_t kClosedCap = 1024;
  if (closed_.emplace(session_id, ClosedTombstone{request,
                                                  std::move(payload)})
          .second) {
    closed_order_.push_back(session_id);
    while (closed_order_.size() > kClosedCap) {
      closed_.erase(closed_order_.front());
      closed_order_.pop_front();
    }
  }
}

void Server::forget_closed(std::uint64_t session_id) {
  if (closed_.erase(session_id) != 0) {
    closed_order_.erase(std::find(closed_order_.begin(),
                                  closed_order_.end(), session_id));
  }
}

bool Server::reply_closed_tombstone(std::uint64_t conn_id,
                                    const Frame& frame) {
  if (frame.type != MsgType::kClose) {
    return false;
  }
  const auto it = closed_.find(frame.session);
  if (it == closed_.end() || it->second.request != frame.request) {
    return false;
  }
  Frame reply;
  reply.type = MsgType::kClosed;
  reply.session = frame.session;
  reply.request = frame.request;
  reply.payload = it->second.payload;
  ++stats_.duplicate_requests;
  ++stats_.dedup_hits;
  enqueue_reply(conn_id, reply);
  return true;
}

void Server::refund_admission(std::uint64_t session_id,
                              std::size_t payload_bytes) {
  auto it = exec_.find(session_id);
  if (it == exec_.end()) {
    return;
  }
  ExecState& st = it->second;
  if (st.requests_admitted > 0) {
    --st.requests_admitted;
  }
  st.bytes_admitted -=
      std::min<std::uint64_t>(st.bytes_admitted, payload_bytes);
}

StatsReply Server::stats_reply_locked() const {
  StatsReply m;
  m.connections_accepted = stats_.connections_accepted;
  m.connections_dropped = stats_.connections_dropped;
  m.requests_executed = stats_.requests_executed;
  m.requests_shed = stats_.requests_shed;
  m.sessions_evicted = stats_.sessions_evicted;
  m.sessions_parked = stats_.sessions_parked;
  m.sessions_restored = stats_.sessions_restored;
  m.lease_expired = stats_.lease_expired;
  m.duplicate_requests = stats_.duplicate_requests;
  m.dedup_hits = stats_.dedup_hits;
  return m;
}

void Server::release_session(std::uint64_t conn_id,
                             std::uint64_t session_id) {
  auto it = connections_.find(conn_id);
  if (it != connections_.end()) {
    auto& owned = it->second.sessions;
    owned.erase(std::remove(owned.begin(), owned.end(), session_id),
                owned.end());
  }
}

void Server::send_error(std::uint64_t conn_id, const Frame& request,
                        const std::string& code, const std::string& message) {
  Frame reply;
  reply.type = MsgType::kError;
  reply.session = request.session;
  reply.request = request.request;
  reply.payload = encode_error_reply(ErrorReply{code, message});
  enqueue_reply(conn_id, reply);
}

void Server::handle_frame(Connection& conn, Frame frame, std::uint64_t now) {
  if (!is_client_message(frame.type)) {
    send_error(conn.id, frame, "protocol",
               std::string("unexpected ") + type_name(frame.type) +
                   " from a client");
    conn.doomed = true;
    return;
  }
  if (!conn.hello_done && frame.type != MsgType::kHello) {
    send_error(conn.id, frame, "protocol",
               "first message on a connection must be hello");
    conn.doomed = true;
    return;
  }
  switch (frame.type) {
    case MsgType::kHello:
      handle_hello(conn, frame);
      return;
    case MsgType::kOpenSession:
      handle_open_session(conn, frame, now);
      return;
    case MsgType::kPing: {
      // Heartbeat: receiving the frame already refreshed the lease
      // clock (last_rx_ms); touch the session's last-active time too so
      // heartbeats also hold off idle parking, and answer even while
      // draining — a drain must not look like a dead server.
      if (frame.session != 0) {
        (void)table_.find(frame.session, now);
      }
      Frame reply;
      reply.type = MsgType::kPong;
      reply.session = frame.session;
      reply.request = frame.request;
      enqueue_reply(conn.id, reply);
      return;
    }
    case MsgType::kStats: {
      Frame reply;
      reply.type = MsgType::kStatsReply;
      reply.request = frame.request;
      reply.payload = encode_stats_reply(stats_reply_locked());
      enqueue_reply(conn.id, reply);
      return;
    }
    default:
      break;
  }

  // Session-scoped request: admission control happens here, before the
  // stack is touched, so refusals never perturb session state.
  Session* session = table_.find(frame.session, now);
  if (session == nullptr) {
    if (!plant::bug(14) && reply_closed_tombstone(conn.id, frame)) {
      return;
    }
    const auto ev = evicted_.find(frame.session);
    if (ev != evicted_.end()) {
      send_evicted_error(conn.id, frame, ev->second);
    } else {
      send_error(conn.id, frame, "unknown-session", "no such session");
    }
    return;
  }
  // Session ids are deterministic (FNV-1a of the public name), so
  // knowing an id must not grant access: only the connection the
  // session is attached to may drive it.
  if (std::find(conn.sessions.begin(), conn.sessions.end(),
                frame.session) == conn.sessions.end()) {
    send_error(conn.id, frame, "session-busy",
               "session is not attached to this connection");
    return;
  }
  if (draining_) {
    send_error(conn.id, frame, "draining",
               "server is draining; queued work will finish");
    return;
  }
  ExecState& st = exec_[frame.session];
  const SessionQuota& quota = options_.quota;
  if ((quota.max_requests != 0 && st.requests_admitted >= quota.max_requests) ||
      (quota.max_bytes != 0 &&
       st.bytes_admitted + frame.payload.size() > quota.max_bytes)) {
    ++stats_.quota_refusals;
    send_error(conn.id, frame, "quota", "session budget exhausted");
    return;
  }
  if (st.pending.size() >= options_.queue_depth) {
    // Deterministic reject-newest: everything already admitted keeps
    // its order, so healthy reply streams stay reproducible.
    ++stats_.requests_shed;
    send_error(conn.id, frame, "overloaded",
               "session queue is full (" +
                   std::to_string(options_.queue_depth) + ")");
    return;
  }
  const std::uint64_t sid = frame.session;
  ++st.requests_admitted;
  st.bytes_admitted += frame.payload.size();
  st.pending.push_back(Job{conn.id, std::move(frame)});
  if (!st.running && st.pending.size() == 1) {
    schedule_session(sid);
  }
}

void Server::handle_hello(Connection& conn, const Frame& frame) {
  Hello hello;
  try {
    hello = decode_hello(frame.payload);
  } catch (const ProtocolError& e) {
    send_error(conn.id, frame, "protocol", e.what());
    conn.doomed = true;
    return;
  }
  if (hello.min_version > kProtocolVersion ||
      hello.max_version < kProtocolVersion) {
    send_error(conn.id, frame, "version",
               "server speaks protocol version " +
                   std::to_string(kProtocolVersion) + " only");
    conn.doomed = true;
    return;
  }
  conn.hello_done = true;
  Frame reply;
  reply.type = MsgType::kWelcome;
  reply.request = frame.request;
  reply.payload = encode_welcome(
      Welcome{kProtocolVersion, options_.server_name,
              options_.max_frame_bytes, options_.queue_depth});
  enqueue_reply(conn.id, reply);
}

void Server::handle_open_session(Connection& conn, const Frame& frame,
                                 std::uint64_t now) {
  if (draining_) {
    send_error(conn.id, frame, "draining", "server is draining");
    return;
  }
  SessionConfig config;
  try {
    config = decode_session_config(frame.payload);
  } catch (const ProtocolError& e) {
    send_error(conn.id, frame, "protocol", e.what());
    return;
  }
  try {
    const SessionTable::Opened opened = table_.open(config, now);
    const std::uint64_t id = opened.session->id();
    conn.sessions.push_back(id);
    forget_evicted(id);
    forget_closed(id);
    ExecState& st = exec_[id];
    // A warm session re-attached with work still queued or running keeps
    // its admission counters: they already count that work, and an
    // executor may be charging the session right now, outside mutex_,
    // so its own counters cannot be read here.  Otherwise no executor
    // holds the session, and its accounting restarts the counters.
    if (!opened.restored || (!st.running && st.pending.empty())) {
      st.requests_admitted = opened.session->requests_served();
      st.bytes_admitted = opened.session->bytes_received();
    }
    if (opened.restored) {
      ++stats_.sessions_restored;
    }
    Frame reply;
    reply.type = MsgType::kSessionOpened;
    reply.session = id;
    reply.request = frame.request;
    reply.payload = encode_session_opened(
        SessionOpened{id, opened.restored, opened.session->last_request_id()});
    enqueue_reply(conn.id, reply);
  } catch (const StackConfigError& e) {
    const std::string& component = e.context().component;
    const std::string code =
        (component == "session-busy" || component == "session-limit")
            ? component
            : "stack-config";
    send_error(conn.id, frame, code, e.message());
  } catch (const CheckpointError& e) {
    send_error(conn.id, frame, "checkpoint", e.what());
  }
}

void Server::schedule_session(std::uint64_t session_id) {
  // Caller holds mutex_; the executor's queue lock nests inside it
  // (workers take mutex_ only after releasing the queue lock, so the
  // order is acyclic).  Scheduling happens only on the empty->nonempty
  // queue transition and on turn re-arm, so at most one turn per
  // session is ever in flight — the per-session serialization the
  // fault-isolation contract depends on.
  executor_->submit([this, session_id] { session_turn(session_id); });
}

void Server::session_turn(std::uint64_t session_id) {
  Job job;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = exec_.find(session_id);
    if (it == exec_.end() || it->second.running ||
        it->second.pending.empty()) {
      return;  // session retired (closed/evicted) before its turn
    }
    job = std::move(it->second.pending.front());
    it->second.pending.pop_front();
    it->second.running = true;
  }

  execute_job(job);

  std::lock_guard<std::mutex> lock(mutex_);
  ExecState& st = exec_[session_id];
  st.running = false;
  ++stats_.requests_executed;
  if (!st.pending.empty()) {
    schedule_session(session_id);
  }
}

void Server::execute_job(const Job& job) {
  const Frame& frame = job.frame;
  const std::uint64_t sid = frame.session;
  // Exactly-once: a retried request id whose reply is still in the
  // session's window is answered by replaying the recorded bytes — the
  // stack never sees the duplicate, so at-least-once delivery cannot
  // double-execute gates.  The check happens at execution time, not
  // admission, so a retry queued behind its own original still dedups.
  // Planted bug 14 silently bypasses the window (and the close
  // tombstones): duplicates re-execute and the final requests_served
  // count diverges.
  const bool dedupe = !plant::bug(14);
  Session* session = nullptr;
  {
    std::lock_guard<std::mutex> lock(mutex_);
    session = table_.find(sid, now_ms());
    if (session == nullptr) {
      if (dedupe && reply_closed_tombstone(job.conn_id, frame)) {
        return;
      }
      const auto ev = evicted_.find(sid);
      if (ev != evicted_.end()) {
        send_evicted_error(job.conn_id, frame, ev->second);
      } else {
        send_error(job.conn_id, frame, "unknown-session",
                   "session closed before the request ran");
      }
      return;
    }
    if (dedupe) {
      if (const Session::RecordedReply* recorded =
              session->find_reply(frame.request)) {
        Frame reply;
        reply.type = recorded->type;
        reply.session = sid;
        reply.request = frame.request;
        reply.payload = recorded->payload;
        ++stats_.duplicate_requests;
        ++stats_.dedup_hits;
        // The duplicate was admitted (and charged) a second time at
        // handle_frame; refund it so quotas bill each id once.
        refund_admission(sid, frame.payload.size());
        enqueue_reply(job.conn_id, reply);
        return;
      }
      if (frame.request != 0 && frame.request <= session->last_request_id()) {
        // Executed, but the reply has left the bounded window: refuse
        // rather than silently re-execute — a typed error is visible,
        // a double-executed gate sequence is not.
        ++stats_.duplicate_requests;
        send_error(job.conn_id, frame, "dedup",
                   "request id " + std::to_string(frame.request) +
                       " was already executed and its reply has left the "
                       "replay window");
        return;
      }
    }
  }

  // Enqueue a reply and record it in the session's window so a retry
  // of this id replays the same bytes.  Error replies are recorded too:
  // a deterministic failure must stay the same failure when retried,
  // not re-run.
  const auto reply_recorded = [&](Frame reply) {
    std::lock_guard<std::mutex> lock(mutex_);
    if (dedupe) {
      if (Session* live = table_.find(sid, now_ms())) {
        live->record_reply(frame.request, reply.type, reply.payload);
      }
    }
    enqueue_reply(job.conn_id, reply);
  };
  const auto error_frame = [&](const std::string& code,
                               const std::string& message) {
    Frame reply;
    reply.type = MsgType::kError;
    reply.session = sid;
    reply.request = frame.request;
    reply.payload = encode_error_reply(ErrorReply{code, message});
    return reply;
  };

  // The stack runs OUTSIDE the lock: per-session serialization (the
  // running flag) is the only execution ordering, and the reactor never
  // touches a stack — so one slow or faulting tenant cannot block the
  // accept path or any other session.
  try {
    switch (frame.type) {
      case MsgType::kSubmitQasm: {
        const std::string qasm = decode_submit_qasm(frame.payload);
        (void)session->charge(SessionQuota{}, frame.payload.size());
        const RunReply result = session->submit_qasm(qasm);
        Frame reply;
        reply.type = MsgType::kRunReply;
        reply.session = sid;
        reply.request = frame.request;
        reply.payload = encode_run_reply(result);
        reply_recorded(std::move(reply));
        return;
      }
      case MsgType::kMeasure: {
        Frame reply;
        reply.type = MsgType::kMeasureReply;
        reply.session = sid;
        reply.request = frame.request;
        reply.payload = encode_measure_reply(session->measure());
        reply_recorded(std::move(reply));
        return;
      }
      case MsgType::kSnapshot: {
        const std::vector<std::uint8_t> snapshot = session->park();
        Frame reply;
        reply.type = MsgType::kSnapshotReply;
        reply.session = sid;
        reply.request = frame.request;
        reply.payload = encode_snapshot_reply(SnapshotReply{
            snapshot.size(),
            journal::crc32(snapshot.data(), snapshot.size())});
        reply_recorded(std::move(reply));
        return;
      }
      case MsgType::kClose: {
        Frame reply;
        reply.type = MsgType::kClosed;
        reply.session = sid;
        reply.request = frame.request;
        reply.payload =
            encode_closed(Closed{session->requests_served()});
        std::lock_guard<std::mutex> lock(mutex_);
        // The session is gone after this; a tombstone keeps the Closed
        // bytes around so a retried close still replays them.
        if (dedupe) {
          note_closed(sid, frame.request, reply.payload);
        }
        table_.evict(sid);
        release_session(job.conn_id, sid);
        enqueue_reply(job.conn_id, reply);
        return;
      }
      default: {
        std::lock_guard<std::mutex> lock(mutex_);
        send_error(job.conn_id, frame, "internal",
                   "unroutable message type");
        return;
      }
    }
  } catch (const SupervisionError& e) {
    // The session's recovery budget is spent; its stack can no longer
    // be trusted.  Evict it — every other session is untouched.  No
    // reply is recorded: the session (and its window) die here.
    std::lock_guard<std::mutex> lock(mutex_);
    table_.evict(sid);
    release_session(job.conn_id, sid);
    note_evicted(sid, "evicted");
    ++stats_.sessions_evicted;
    send_error(job.conn_id, frame, "supervision", e.what());
  } catch (const QasmParseError& e) {
    reply_recorded(error_frame("qasm-parse", e.what()));
  } catch (const ProtocolError& e) {
    reply_recorded(error_frame("protocol", e.what()));
  } catch (const TransientFaultError& e) {
    reply_recorded(error_frame("transient", e.what()));
  } catch (const CheckpointError& e) {
    reply_recorded(error_frame("checkpoint", e.what()));
  } catch (const StackConfigError& e) {
    reply_recorded(error_frame("stack-config", e.what()));
  } catch (const Error& e) {
    reply_recorded(error_frame("internal", e.what()));
  } catch (const std::exception& e) {
    reply_recorded(error_frame("internal", e.what()));
  }
}

}  // namespace qpf::serve
