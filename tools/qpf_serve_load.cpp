// qpf_serve_load: load generator and isolation witness for qpf_serve.
//
// Spawns --sessions concurrent RetryClient sessions, each on its own
// connection, running --requests lockstep QASM submissions.  The first
// --poison sessions are configured to die: a supervised stack with a
// one-strike escalation budget under a continuous chaos schedule, so
// the supervisor exhausts its retries and the server evicts the
// session with a typed `supervision` reply.
//
// Every session's transcript — the replies RetryClient handed back,
// re-encoded — can be dumped with --transcript-dir; check_serve.sh
// diffs healthy sessions' transcripts between a --poison=0 and a
// --poison=1 run to prove fault isolation bit-for-bit, and
// check_netchaos.sh diffs them across FaultNet schedules.  With no
// QPF_FAULTNET schedule installed, a healthy session that needed a
// retry or a reconnect fails.
//
// --json emits the BENCH_serve.json report (schema
// qpf-serve-bench-v2): p50/p99/p999 request latency, requests/sec and
// sessions/sec, reply-code counters, the clients' retries and
// reconnects, and the server's dedup and lease counters.
//
// Exit codes: 0 when every healthy session completed cleanly (poisoned
// sessions are REQUIRED to be evicted — a poisoned session that
// survives is a failure), 1 on contract violations, 2 on bad args.
#include <algorithm>
#include <chrono>
#include <cmath>
#include <csignal>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "circuit/error.h"
#include "cli/numeric_args.h"
#include "io/file_ops.h"
#include "serve/retry_client.h"

namespace {

using qpf::serve::RetryClient;
using qpf::serve::RetryOptions;
using qpf::serve::SessionConfig;

struct LoadOptions {
  std::uint16_t port = 0;
  std::size_t sessions = 8;
  std::size_t requests = 16;
  std::size_t poison = 0;
  std::uint64_t qubits = 4;
  bool resume = false;            ///< open sessions with resume=true
  bool close_sessions = true;
  std::uint64_t heartbeat_ms = 0; ///< RetryClient lease heartbeats
  bool faultnet = false;          ///< a QPF_FAULTNET schedule is installed
  std::string prefix = "tenant";
  std::string transcript_dir;
  bool json = false;
};

struct SessionOutcome {
  bool ok = false;
  bool evicted = false;
  std::size_t replies_ok = 0;
  std::size_t replies_error = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  std::vector<double> latencies_ms;
  std::string failure;
  std::vector<std::uint8_t> transcript;
};

/// Deterministic per-(session, request) program: a Clifford mix over
/// the session register with a trailing measurement, derived only from
/// the indices so the traffic is identical run to run.
std::string make_qasm(std::uint64_t qubits, std::size_t session,
                      std::size_t request) {
  const std::uint64_t salt =
      (static_cast<std::uint64_t>(session) << 32) ^ request ^ 0x9e3779b9ull;
  std::string qasm = "qubits " + std::to_string(qubits) + "\n";
  const std::uint64_t a = salt % qubits;
  const std::uint64_t b = (salt / qubits) % qubits;
  qasm += "h q" + std::to_string(a) + "\n";
  if (a != b) {
    qasm += "cnot q" + std::to_string(a) + ",q" + std::to_string(b) + "\n";
  }
  qasm += "s q" + std::to_string(b) + "\n";
  if ((salt & 1) != 0) {
    qasm += "measure q" + std::to_string(a) + "\n";
  }
  return qasm;
}

SessionConfig make_config(const LoadOptions& options, std::size_t index) {
  SessionConfig config;
  config.name = options.prefix + "-" + std::to_string(index);
  config.seed = static_cast<std::uint64_t>(index) + 1;
  config.qubits = options.qubits;
  config.resume = options.resume;
  if (index < options.poison) {
    // A stack built to fail: every layer call draws a chaos event and
    // the supervisor escalates on the first abandoned operation.
    config.supervise = true;
    config.max_retries = 1;
    config.escalate_after = 1;
    config.chaos.seed = config.seed ^ 0xdeadull;
    config.chaos.min_gap = 1;
    config.chaos.max_gap = 1;
    config.chaos.crash_weight = 1;
  }
  return config;
}

/// Why a session that ran to its end broke the contract, or "" when it
/// kept it: poisoned sessions must have been evicted by the supervisor;
/// healthy sessions answer everything and, with no QPF_FAULTNET
/// schedule installed, need no retry or reconnect — on a clean network
/// nothing may cost a healthy tenant a resend, poisoned neighbour
/// included.
std::string contract_failure(const LoadOptions& options, bool poisoned,
                             const SessionOutcome& outcome) {
  if (poisoned) {
    return outcome.evicted ? "" : "poisoned session was never evicted";
  }
  if (outcome.replies_error != 0 || outcome.replies_ok != options.requests) {
    return "healthy session saw error replies";
  }
  if (!options.faultnet && (outcome.retries != 0 || outcome.reconnects != 0)) {
    return "healthy session needed " + std::to_string(outcome.retries) +
           " retries and " + std::to_string(outcome.reconnects) +
           " reconnects with no QPF_FAULTNET schedule";
  }
  return "";
}

/// Drive session `index` through the exactly-once RetryClient, so the
/// run survives FaultNet schedules (resets, stalls, corruption,
/// blackholes) with a transcript byte-identical to a fault-free run.
void run_session(const LoadOptions& options, std::size_t index,
                 SessionOutcome& outcome) {
  const bool poisoned = index < options.poison;
  RetryOptions retry;
  retry.client_name = options.prefix;
  retry.seed = static_cast<std::uint64_t>(index) + 1;
  retry.heartbeat_ms = options.heartbeat_ms;
  RetryClient client(options.port, make_config(options, index), retry);
  try {
    for (std::size_t request = 0; request < options.requests; ++request) {
      const std::string qasm = make_qasm(options.qubits, index, request);
      const auto t0 = std::chrono::steady_clock::now();
      const RetryClient::Result r = client.submit_qasm(qasm);
      const auto t1 = std::chrono::steady_clock::now();
      outcome.latencies_ms.push_back(
          std::chrono::duration<double, std::milli>(t1 - t0).count());
      if (r.error.has_value()) {
        ++outcome.replies_error;
        if (r.error->code == "supervision" || r.error->code == "evicted") {
          outcome.evicted = true;
        }
      } else {
        ++outcome.replies_ok;
      }
    }
    if (options.close_sessions && !outcome.evicted) {
      const RetryClient::Result r = client.close();
      if (r.error.has_value()) {
        outcome.failure = "close refused: " + r.error->code;
      }
    }
  } catch (const qpf::Error& e) {
    outcome.failure = e.what();
  }
  outcome.transcript = client.transcript();
  outcome.retries = client.retries();
  outcome.reconnects = client.reconnects();
  if (outcome.failure.empty()) {
    outcome.failure = contract_failure(options, poisoned, outcome);
  }
  outcome.ok = outcome.failure.empty();
}

double percentile(std::vector<double> values, double p) {
  if (values.empty()) {
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const double rank = p * static_cast<double>(values.size() - 1);
  const std::size_t lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = static_cast<std::size_t>(std::ceil(rank));
  const double frac = rank - std::floor(rank);
  return values[lo] + (values[hi] - values[lo]) * frac;
}

int usage(std::ostream& out) {
  out << "usage: qpf_serve_load --port=N [options]\n"
         "  --sessions=N        concurrent sessions (default 8)\n"
         "  --requests=N        lockstep requests per session (default 16)\n"
         "  --poison=K          first K sessions get a fatal chaos stack\n"
         "  --qubits=N          session register size (default 4)\n"
         "  --resume            open sessions with resume=true\n"
         "  --no-close          leave sessions open (park/drain tests)\n"
         "  --heartbeat-ms=N    RetryClient lease heartbeats (0=off)\n"
         "  --prefix=NAME       session name prefix (default tenant)\n"
         "  --transcript-dir=D  write DIR/<name>.transcript witnesses\n"
         "  --json              emit BENCH_serve.json on stdout\n"
         "  --help              this text\n";
  return &out == &std::cerr ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  qpf::io::install_faultfs_from_environment();
  using qpf::cli::consume_prefix;
  using qpf::cli::parse_count;
  LoadOptions options;
  options.faultnet = qpf::io::install_faultnet_from_environment();
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value;
      if (arg == "--help" || arg == "-h") {
        return usage(std::cout);
      } else if (arg == "--json") {
        options.json = true;
      } else if (arg == "--resume") {
        options.resume = true;
      } else if (arg == "--no-close") {
        options.close_sessions = false;
      } else if (consume_prefix(arg, "--heartbeat-ms=", value)) {
        options.heartbeat_ms = parse_count(value);
      } else if (consume_prefix(arg, "--port=", value)) {
        options.port = static_cast<std::uint16_t>(parse_count(value, 65535));
      } else if (consume_prefix(arg, "--sessions=", value)) {
        options.sessions = parse_count(value, qpf::cli::kMaxThreads);
      } else if (consume_prefix(arg, "--requests=", value)) {
        options.requests = parse_count(value);
      } else if (consume_prefix(arg, "--poison=", value)) {
        options.poison = parse_count(value);
      } else if (consume_prefix(arg, "--qubits=", value)) {
        options.qubits = parse_count(value);
      } else if (consume_prefix(arg, "--prefix=", value)) {
        options.prefix = value;
      } else if (consume_prefix(arg, "--transcript-dir=", value)) {
        options.transcript_dir = value;
      } else {
        std::cerr << "qpf_serve_load: unknown argument '" << arg << "'\n";
        return usage(std::cerr);
      }
    }
    if (options.port == 0) {
      std::cerr << "qpf_serve_load: --port is required\n";
      return 2;
    }
    if (options.poison > options.sessions) {
      std::cerr << "qpf_serve_load: --poison exceeds --sessions\n";
      return 2;
    }
  } catch (const std::exception& e) {
    std::cerr << "qpf_serve_load: bad argument: " << e.what() << "\n";
    return usage(std::cerr);
  }

  std::vector<SessionOutcome> outcomes(options.sessions);
  const auto wall0 = std::chrono::steady_clock::now();
  {
    std::vector<std::thread> threads;
    threads.reserve(options.sessions);
    for (std::size_t i = 0; i < options.sessions; ++i) {
      threads.emplace_back(
          [&options, &outcomes, i] { run_session(options, i, outcomes[i]); });
    }
    for (std::thread& t : threads) {
      t.join();
    }
  }
  const double wall_ms = std::chrono::duration<double, std::milli>(
                             std::chrono::steady_clock::now() - wall0)
                             .count();

  if (!options.transcript_dir.empty()) {
    for (std::size_t i = 0; i < options.sessions; ++i) {
      const std::string path = options.transcript_dir + "/" + options.prefix +
                               "-" + std::to_string(i) + ".transcript";
      std::ofstream out(path, std::ios::binary | std::ios::trunc);
      out.write(reinterpret_cast<const char*>(outcomes[i].transcript.data()),
                static_cast<std::streamsize>(outcomes[i].transcript.size()));
      if (!out) {
        std::cerr << "qpf_serve_load: cannot write " << path << "\n";
        return 1;
      }
    }
  }

  std::vector<double> healthy_latencies;
  std::size_t ok_sessions = 0;
  std::size_t evicted = 0;
  std::uint64_t replies_ok = 0;
  std::uint64_t replies_error = 0;
  std::uint64_t retries = 0;
  std::uint64_t reconnects = 0;
  for (std::size_t i = 0; i < options.sessions; ++i) {
    const SessionOutcome& o = outcomes[i];
    if (o.ok) {
      ++ok_sessions;
    } else {
      std::cerr << "qpf_serve_load: session " << i << " FAILED: " << o.failure
                << "\n";
    }
    if (o.evicted) {
      ++evicted;
    }
    replies_ok += o.replies_ok;
    replies_error += o.replies_error;
    retries += o.retries;
    reconnects += o.reconnects;
    if (i >= options.poison) {
      healthy_latencies.insert(healthy_latencies.end(),
                               o.latencies_ms.begin(), o.latencies_ms.end());
    }
  }

  // Server-side exactly-once counters, read over a throwaway stats
  // connection.  Best-effort: a server that is already gone just
  // reports zeros.
  std::uint64_t dedup_hits = 0;
  std::uint64_t lease_expirations = 0;
  try {
    const qpf::serve::StatsReply stats =
        RetryClient::query_stats(options.port);
    dedup_hits = stats.dedup_hits;
    lease_expirations = stats.lease_expired;
  } catch (const qpf::Error&) {
  }

  const double wall_s = wall_ms / 1000.0;
  const double p50 = percentile(healthy_latencies, 0.50);
  const double p99 = percentile(healthy_latencies, 0.99);
  const double p999 = percentile(healthy_latencies, 0.999);
  const double rps =
      wall_s > 0.0 ? static_cast<double>(healthy_latencies.size()) / wall_s
                   : 0.0;
  const double sps =
      wall_s > 0.0 ? static_cast<double>(options.sessions) / wall_s : 0.0;

  if (options.json) {
    std::cout << "{\n"
              << "  \"schema\": \"qpf-serve-bench-v2\",\n"
              << "  \"sessions\": " << options.sessions << ",\n"
              << "  \"requests_per_session\": " << options.requests << ",\n"
              << "  \"poisoned\": " << options.poison << ",\n"
              << "  \"sessions_ok\": " << ok_sessions << ",\n"
              << "  \"sessions_evicted\": " << evicted << ",\n"
              << "  \"replies_ok\": " << replies_ok << ",\n"
              << "  \"replies_error\": " << replies_error << ",\n"
              << "  \"retries\": " << retries << ",\n"
              << "  \"reconnects\": " << reconnects << ",\n"
              << "  \"dedup_hits\": " << dedup_hits << ",\n"
              << "  \"lease_expirations\": " << lease_expirations << ",\n"
              << "  \"wall_ms\": " << wall_ms << ",\n"
              << "  \"latency_ms\": {\"p50\": " << p50 << ", \"p99\": " << p99
              << ", \"p999\": " << p999 << "},\n"
              << "  \"requests_per_sec\": " << rps << ",\n"
              << "  \"sessions_per_sec\": " << sps << "\n"
              << "}\n";
    std::cout.flush();
    if (!std::cout) {
      std::cerr << "qpf_serve_load: error: stdout write failed\n";
      return 1;
    }
  }
  std::cerr << "qpf_serve_load: sessions=" << options.sessions << " ok="
            << ok_sessions << " evicted=" << evicted << " retries=" << retries
            << " reconnects=" << reconnects << " p50=" << p50
            << "ms p99=" << p99 << "ms\n";
  return ok_sessions == options.sessions ? 0 : 1;
}
