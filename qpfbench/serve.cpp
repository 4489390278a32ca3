// serve_mixed: an in-process qpf::serve::Server driven in a closed loop.
//
// Four client connections, one thread each, own four sessions apiece
// and drive them round-robin in lockstep: each sends its next request
// only when the previous reply arrived.  Sessions have 17-qubit
// registers; odd-numbered ones run with a Pauli frame.  Every request is
// a seeded program of 20-40 Clifford and Pauli gates plus 1-2
// measurements.
//
// Output check: every reply must be ok, and each session's reply stream
// must equal a direct Session::submit_qasm replay of the same history.
// The traced run times that replay call by call (parse, session submit,
// frame codec) and keeps the client span of every request.
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "circuit/error.h"
#include "circuit/qasm.h"
#include "exec/executor.h"
#include "io/file_ops.h"
#include "serve/client.h"
#include "serve/protocol.h"
#include "serve/retry_client.h"
#include "serve/server.h"
#include "serve/session.h"
#include "workloads.h"

namespace qpfbench {
namespace {

using qpf::serve::Frame;
using qpf::serve::MsgType;
using qpf::serve::SessionConfig;

constexpr std::size_t kConnections = 4;
constexpr std::size_t kSessionsPerConnection = 4;
constexpr std::size_t kSessions = kConnections * kSessionsPerConnection;
constexpr std::uint64_t kQubits = 17;
constexpr std::size_t kExecutorThreads = 2;
/// Set-up timings at each end of the untraced run.
constexpr int kSetupRepeats = 5;
/// Traced run: one request in kSpanEvery per session keeps replay spans.
constexpr std::uint64_t kSpanEvery = 64;

SessionConfig session_config(std::uint64_t seed, std::size_t g) {
  SessionConfig config;
  config.name = "qpfbench-" + std::to_string(g);
  config.seed = qpf::exec::splitmix64(seed ^ (0x5e55ULL + g));
  config.qubits = kQubits;
  config.pauli_frame = g % 2 == 1;
  return config;
}

/// Request k of session g: 20-40 Clifford/Pauli gates on random qubits,
/// then 1-2 measurements.  A pure function of (seed, g, k).
std::string make_program(std::uint64_t seed, std::size_t g, std::uint64_t k) {
  static constexpr const char* kOneQubit[] = {"x", "y", "z", "h", "s", "sdag"};
  static constexpr const char* kTwoQubit[] = {"cnot", "cz", "swap"};
  std::uint64_t state = qpf::exec::splitmix64(
      seed ^ qpf::exec::splitmix64((static_cast<std::uint64_t>(g) << 40) ^ k));
  const auto next = [&state] { return qpf::exec::splitmix64(state++); };
  std::string qasm = "qubits " + std::to_string(kQubits) + "\n";
  const std::uint64_t gates = 20 + next() % 21;
  for (std::uint64_t i = 0; i < gates; ++i) {
    const std::uint64_t draw = next();
    const std::uint64_t a = (draw >> 8) % kQubits;
    if (draw % 4 == 0) {
      const std::uint64_t b = (a + 1 + (draw >> 16) % (kQubits - 1)) % kQubits;
      qasm += std::string(kTwoQubit[(draw >> 32) % 3]) + " q" +
              std::to_string(a) + ",q" + std::to_string(b) + "\n";
    } else {
      qasm += std::string(kOneQubit[(draw >> 32) % 6]) + " q" +
              std::to_string(a) + "\n";
    }
  }
  const std::uint64_t measures = 1 + next() % 2;
  for (std::uint64_t i = 0; i < measures; ++i) {
    qasm += "measure q" + std::to_string(next() % kQubits) + "\n";
  }
  return qasm;
}

std::uint64_t request_item(std::size_t g, std::uint64_t k) {
  return (static_cast<std::uint64_t>(g) << 32) | k;
}

/// A lockstep protocol-v2 connection that keeps no transcript, so its
/// memory does not grow with the number of requests.
class Connection {
 public:
  explicit Connection(std::uint16_t port)
      : fd_(qpf::serve::connect_with_retry(port)), rx_(1u << 16) {}
  ~Connection() { ::close(fd_); }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  Frame transact(Frame request) {
    request.request = next_request_++;
    const std::vector<std::uint8_t> bytes = qpf::serve::encode_frame(request);
    for (std::size_t off = 0; off < bytes.size();) {
      const ssize_t n = qpf::io::send_retry(fd_, bytes.data() + off,
                                            bytes.size() - off, MSG_NOSIGNAL);
      if (n < 0) {
        throw qpf::IoError("qpfbench", std::string("send() failed: ") +
                                           std::strerror(errno));
      }
      off += static_cast<std::size_t>(n);
    }
    while (true) {
      if (std::optional<Frame> reply = decoder_.next()) {
        if (reply->request != request.request) {
          throw qpf::ProtocolError("reply for another request id");
        }
        return std::move(*reply);
      }
      const ssize_t n = qpf::io::read_retry(fd_, rx_.data(), rx_.size());
      if (n <= 0) {
        throw qpf::IoError("qpfbench", "connection closed mid-request");
      }
      decoder_.feed(rx_.data(), static_cast<std::size_t>(n));
    }
  }

 private:
  int fd_;
  qpf::serve::FrameDecoder decoder_;
  std::vector<std::uint8_t> rx_;
  std::uint32_t next_request_ = 1;
};

/// The server, its reactor thread, and the clients' connections and
/// sessions: everything setup_s times.
class Fleet {
 public:
  explicit Fleet(std::uint64_t seed) : server_(options()) {
    server_.start();
    reactor_ = std::thread([this] {
      try {
        server_.serve();
      } catch (const std::exception& e) {
        std::fprintf(stderr, "qpfbench: server stopped: %s\n", e.what());
      }
    });
    try {
      for (std::size_t c = 0; c < kConnections; ++c) {
        auto conn = std::make_unique<Connection>(server_.port());
        Frame hello;
        hello.type = MsgType::kHello;
        hello.payload =
            qpf::serve::encode_hello(qpf::serve::Hello{1, 2, "qpfbench"});
        expect(conn->transact(hello), MsgType::kWelcome, "hello");
        for (std::size_t j = 0; j < kSessionsPerConnection; ++j) {
          Frame open;
          open.type = MsgType::kOpenSession;
          open.payload = qpf::serve::encode_session_config(
              session_config(seed, c * kSessionsPerConnection + j));
          const Frame opened = conn->transact(open);
          expect(opened, MsgType::kSessionOpened, "open_session");
          sessions_.push_back(
              qpf::serve::decode_session_opened(opened.payload).session);
        }
        connections_.push_back(std::move(conn));
      }
    } catch (...) {
      stop();
      throw;
    }
  }
  ~Fleet() { stop(); }
  Fleet(const Fleet&) = delete;
  Fleet& operator=(const Fleet&) = delete;

  [[nodiscard]] std::uint16_t port() const noexcept { return server_.port(); }
  [[nodiscard]] Connection& connection(std::size_t c) {
    return *connections_[c];
  }
  [[nodiscard]] std::uint64_t session(std::size_t g) const {
    return sessions_[g];
  }

  /// Close the clients, then drain and stop the server.
  void stop() {
    connections_.clear();
    if (reactor_.joinable()) {
      server_.shutdown();
      reactor_.join();
    }
  }

 private:
  static qpf::serve::ServeOptions options() {
    qpf::serve::ServeOptions options;
    options.executor_threads = kExecutorThreads;
    options.server_name = "qpfbench";
    return options;
  }
  static void expect(const Frame& reply, MsgType type, const char* what) {
    if (reply.type != type) {
      throw qpf::StackConfigError("qpfbench",
                                  std::string(what) + " was refused");
    }
  }

  qpf::serve::Server server_;
  std::thread reactor_;
  std::vector<std::unique_ptr<Connection>> connections_;
  std::vector<std::uint64_t> sessions_;
};

struct ClientAcc {
  std::uint64_t requests[kSessionsPerConnection] = {};
  std::uint64_t digests[kSessionsPerConnection] = {};
  std::uint64_t ok = 0;
  std::uint64_t bad = 0;
  std::vector<Span> spans;  ///< traced phase only
  std::string error;

  ClientAcc() {
    std::fill(std::begin(digests), std::end(digests), 0xcbf29ce484222325ULL);
  }
};

/// One client thread's closed loop until `deadline`.
void drive(Fleet& fleet, std::size_t c, std::uint64_t seed,
           std::int64_t deadline, bool keep_spans, ClientAcc& acc,
           OpTimer& rtt) {
  Connection& conn = fleet.connection(c);
  try {
    while (true) {
      for (std::size_t j = 0; j < kSessionsPerConnection; ++j) {
        if (now_ns() >= deadline) {
          return;
        }
        const std::size_t g = c * kSessionsPerConnection + j;
        const std::uint64_t k = acc.requests[j];
        Frame request;
        request.type = MsgType::kSubmitQasm;
        request.session = fleet.session(g);
        request.payload =
            qpf::serve::encode_submit_qasm(make_program(seed, g, k));
        const std::int64_t t0 = now_ns();
        const Frame reply = conn.transact(std::move(request));
        const std::int64_t t1 = now_ns();
        rtt.record(t0, t1);
        ++acc.requests[j];
        if (reply.type == MsgType::kRunReply) {
          ++acc.ok;
          acc.digests[j] =
              fnv1a(reply.payload.data(), reply.payload.size(), acc.digests[j]);
        } else {
          ++acc.bad;
        }
        if (keep_spans) {
          acc.spans.push_back(
              Span{"serve.client.request", t0, t1, -1, request_item(g, k)});
        }
      }
    }
  } catch (const std::exception& e) {
    acc.error = e.what();
  }
}

/// One closed-loop phase: its wall interval, its replies, and each
/// client's round-trip times and calibration passes.
struct LoadPhase {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::uint64_t ok = 0;
  std::uint64_t bad = 0;
  std::size_t segments = 0;
  std::vector<std::unique_ptr<OpTimer>> rtt;

  [[nodiscard]] double rate() const {
    return static_cast<double>(ok) /
           (static_cast<double>(end_ns - start_ns) * 1e-9);
  }
  [[nodiscard]] std::vector<const OpTimer*> threads() const {
    std::vector<const OpTimer*> out;
    for (const auto& r : rtt) {
      out.push_back(r.get());
    }
    return out;
  }
};

LoadPhase run_load(Fleet& fleet, std::uint64_t seed, double seconds,
                   bool keep_spans, std::vector<ClientAcc>& accs,
                   Report& report) {
  LoadPhase phase;
  std::uint64_t ok_before = 0;
  std::uint64_t bad_before = 0;
  for (const ClientAcc& a : accs) {
    ok_before += a.ok;
    bad_before += a.bad;
  }
  phase.segments = segments_in(seconds);
  phase.start_ns = now_ns();
  const std::int64_t deadline =
      phase.start_ns + static_cast<std::int64_t>(seconds * 1e9);
  for (std::size_t c = 0; c < kConnections; ++c) {
    phase.rtt.push_back(std::make_unique<OpTimer>(
        phase.start_ns, std::max<std::size_t>(phase.segments, 1), kSegmentNs));
  }
  {
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < kConnections; ++c) {
      clients.emplace_back(drive, std::ref(fleet), c, seed, deadline,
                           keep_spans, std::ref(accs[c]),
                           std::ref(*phase.rtt[c]));
    }
    for (std::thread& t : clients) {
      t.join();
    }
  }
  phase.end_ns = now_ns();
  for (const ClientAcc& a : accs) {
    phase.ok += a.ok;
    phase.bad += a.bad;
    if (!a.error.empty()) {
      report.problem("client: " + a.error);
    }
  }
  phase.ok -= ok_before;
  phase.bad -= bad_before;
  return phase;
}

struct ReplayTotals {
  std::int64_t parse_ns = 0;
  std::int64_t submit_ns = 0;
  std::int64_t codec_ns = 0;
  std::uint64_t bytes = 0;
  std::uint64_t requests = 0;
};

/// Frame encode and FrameDecoder for one request and its reply, as the
/// client and the server each do once per request.  Returns wire bytes.
std::uint64_t codec_round_trip(std::uint64_t session, const std::string& qasm,
                               const std::vector<std::uint8_t>& reply_payload) {
  Frame request;
  request.type = MsgType::kSubmitQasm;
  request.session = session;
  request.request = 1;
  request.payload = qpf::serve::encode_submit_qasm(qasm);
  const std::vector<std::uint8_t> request_bytes =
      qpf::serve::encode_frame(request);
  qpf::serve::FrameDecoder server_side;
  server_side.feed(request_bytes.data(), request_bytes.size());
  const std::optional<Frame> received = server_side.next();
  if (!received || qpf::serve::decode_submit_qasm(received->payload) != qasm) {
    throw qpf::ProtocolError("request frame did not round-trip");
  }
  Frame reply;
  reply.type = MsgType::kRunReply;
  reply.session = session;
  reply.request = 1;
  reply.payload = reply_payload;
  const std::vector<std::uint8_t> reply_bytes = qpf::serve::encode_frame(reply);
  qpf::serve::FrameDecoder client_side;
  client_side.feed(reply_bytes.data(), reply_bytes.size());
  const std::optional<Frame> back = client_side.next();
  if (!back) {
    throw qpf::ProtocolError("reply frame did not round-trip");
  }
  (void)qpf::serve::decode_run_reply(back->payload);
  return request_bytes.size() + reply_bytes.size();
}

/// Replay every session's history through a fresh Session and compare
/// reply streams; returns the requests whose session diverged.  When
/// `totals` is set, time each public call too.
std::uint64_t replay(std::uint64_t seed, const std::vector<ClientAcc>& accs,
                     ReplayTotals* totals, SpanLog* spans,
                     const std::unordered_map<std::uint64_t, std::int64_t>&
                         client_span,
                     Report& report) {
  std::uint64_t failed = 0;
  for (std::size_t g = 0; g < kSessions; ++g) {
    const ClientAcc& acc = accs[g / kSessionsPerConnection];
    const std::size_t j = g % kSessionsPerConnection;
    const std::uint64_t requests = acc.requests[j];
    qpf::serve::Session session(session_config(seed, g));
    std::uint64_t digest = 0xcbf29ce484222325ULL;
    try {
      for (std::uint64_t k = 0; k < requests; ++k) {
        const std::string qasm = make_program(seed, g, k);
        if (totals == nullptr) {
          const std::vector<std::uint8_t> payload =
              qpf::serve::encode_run_reply(session.submit_qasm(qasm));
          digest = fnv1a(payload.data(), payload.size(), digest);
          continue;
        }
        const std::int64_t t0 = now_ns();
        (void)qpf::from_qasm(qasm);
        const std::int64_t t1 = now_ns();
        const qpf::serve::RunReply run = session.submit_qasm(qasm);
        const std::int64_t t2 = now_ns();
        const std::vector<std::uint8_t> payload =
            qpf::serve::encode_run_reply(run);
        totals->bytes += codec_round_trip(session.id(), qasm, payload);
        const std::int64_t t3 = now_ns();
        digest = fnv1a(payload.data(), payload.size(), digest);
        totals->parse_ns += t1 - t0;
        totals->submit_ns += t2 - t1;
        totals->codec_ns += t3 - t2;
        ++totals->requests;
        const auto found = client_span.find(request_item(g, k));
        if (spans != nullptr && found != client_span.end()) {
          const std::uint64_t item = request_item(g, k);
          spans->add(Span{"circuit.qasm.parse", t0, t1, found->second, item});
          spans->add(Span{"serve.session.submit", t1, t2, found->second, item});
          spans->add(Span{"serve.protocol.codec", t2, t3, found->second, item});
        }
      }
    } catch (const std::exception& e) {
      report.problem("replay of session " + std::to_string(g) +
                     " failed: " + e.what());
      failed += requests;
      continue;
    }
    if (digest != acc.digests[j]) {
      report.problem("session " + std::to_string(g) +
                     ": server replies differ from the direct replay");
      failed += requests;
    }
  }
  return failed;
}

}  // namespace

bool is_serve_workload(const std::string& name) {
  return name == "serve_mixed";
}

Report run_serve(const RunArgs& args) {
  Report report;
  std::vector<double> setups;
  std::unique_ptr<Fleet> fleet;
  const auto time_setups = [&] {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      fleet.reset();
      const std::int64_t t0 = now_ns();
      fleet = std::make_unique<Fleet>(args.seed);
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  };
  time_setups();  // the last fleet serves the load

  std::vector<ClientAcc> accs(kConnections);
  LoadPhase untraced;
  LoadPhase traced;
  if (args.trace) {
    untraced = run_load(*fleet, args.seed, args.seconds * 0.5, false, accs,
                        report);
    traced = run_load(*fleet, args.seed, args.seconds * 0.5, true, accs,
                      report);
  } else {
    untraced = run_load(*fleet, args.seed, args.seconds, false, accs, report);
  }
  const qpf::serve::StatsReply stats =
      qpf::serve::RetryClient::query_stats(fleet->port());
  if (!args.trace) {
    time_setups();  // at both ends of the run, like the timed segments
  }
  fleet.reset();

  SpanLog spans(std::size_t{1} << 20);
  std::unordered_map<std::uint64_t, std::int64_t> client_span;
  for (const ClientAcc& a : accs) {
    for (const Span& s : a.spans) {
      const std::int64_t index = spans.add(s);
      if ((s.item & 0xffffffffULL) % kSpanEvery == 0) {
        client_span[s.item] = index;
      }
    }
  }

  ReplayTotals totals;
  const std::uint64_t diverged =
      replay(args.seed, accs, args.trace ? &totals : nullptr,
             args.trace ? &spans : nullptr, client_span, report);
  report.attempted = untraced.ok + untraced.bad + traced.ok + traced.bad;
  report.failed = untraced.bad + traced.bad + diverged;
  if (untraced.bad + traced.bad != 0) {
    report.problem(std::to_string(untraced.bad + traced.bad) +
                   " requests were not answered ok");
  }
  if (stats.requests_shed != 0 || stats.connections_dropped != 0) {
    report.problem("server shed " + std::to_string(stats.requests_shed) +
                   " requests and dropped " +
                   std::to_string(stats.connections_dropped) + " connections");
  }

  if (!args.trace) {
    const SegmentStats m = segment_stats(untraced.threads(), untraced.segments,
                                         1e-9 * kSegmentNs);
    report.add("ops_per_s", m.rate, "1/s",
               describe(m, m.raw_rate, "requests") + ", " +
                   std::to_string(kConnections) + " closed-loop clients");
    report.add("op_p50_ms", m.p50 * 1e-6, "ms",
               describe(m, m.raw_p50 * 1e-6, "requests"));
    report.add("op_p99_ms", m.p99 * 1e-6, "ms",
               describe(m, m.raw_p99 * 1e-6, "requests"));
    report.add("setup_s",
             quantile(setups, 0.5) * kCalibrationRefNs / m.calibration_ns, "s",
               "median of " + std::to_string(setups.size()) +
                   " server starts with " + std::to_string(kSessions) +
                   " sessions, half before and half after the run,"
                   " scaled by the run's calibration");
    report.add("peak_rss_mb", peak_rss_mb(), "MB");
    return report;
  }

  std::vector<const SegmentedSamples*> traced_rtt;
  for (const OpTimer* t : traced.threads()) {
    traced_rtt.push_back(&t->ops());
  }
  const double p50 = percentile(pooled_samples(traced_rtt), 0.50);
  const double requests = static_cast<double>(totals.requests);
  const double parse = static_cast<double>(totals.parse_ns) / requests;
  const double submit = static_cast<double>(totals.submit_ns) / requests;
  const double codec = static_cast<double>(totals.codec_ns) / requests;
  const std::string per_request =
      "per request, replay of " + std::to_string(totals.requests);
  report.add("circuit.qasm.parse_ns", parse, "ns", per_request);
  report.add("serve.session.submit_ns", submit, "ns", "parse + stack");
  report.add("serve.protocol.codec_ns", codec, "ns",
             "request + reply encode/decode");
  report.add("serve.protocol.bytes",
             static_cast<double>(totals.bytes) / requests, "bytes");
  report.add("serve.server.wait_ns", p50 - submit - codec, "ns",
             "derived: rtt p50 - submit - codec");
  report.add("serve.server.requests_executed",
             static_cast<double>(stats.requests_executed), "count", "total");
  report.add("serve.server.requests_shed",
             static_cast<double>(stats.requests_shed), "count", "total");
  report.add("serve.server.connections_dropped",
             static_cast<double>(stats.connections_dropped), "count", "total");
  report.add("trace.coverage", (submit + codec) / p50, "ratio",
             "(submit + codec) / rtt p50; the rest is serve.server.wait_ns");
  report.add("trace.overhead", untraced.rate() / traced.rate(), "ratio",
             "untraced / traced req/s");
  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/serve_mixed-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (!spans.write(path)) {
      report.problem("cannot write spans to " + path);
    }
  }
  return report;
}

}  // namespace qpfbench
