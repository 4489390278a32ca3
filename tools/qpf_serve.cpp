// qpf_serve: long-running multi-tenant control-stack service.
//
// Each client session owns an independent supervised stack (see
// src/serve/); the server enforces the robustness contract end to end:
// fault isolation, bounded queues with reject-newest shedding,
// per-session quotas, slow-reader eviction, idle parking, and a
// SIGTERM/SIGINT drain that checkpoints every live session into
// --state-dir before exiting 130 (the same resume semantics as
// qpf_ler --resume).
//
// Prints "listening on port N" on stdout once the socket is bound so
// scripts can scrape the ephemeral port.
//
// Exit codes: 130 after an orderly signal drain, 1 on runtime errors,
// 2 on bad arguments.
#include <unistd.h>

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>

#include "circuit/error.h"
#include "cli/numeric_args.h"
#include "io/file_ops.h"
#include "serve/server.h"

namespace {

// Signal handlers may only poke the self-pipe; the fd is published
// before handlers are installed.
volatile sig_atomic_t g_shutdown_fd = -1;

void on_signal(int) {
  if (g_shutdown_fd >= 0) {
    const char byte = 'S';
    [[maybe_unused]] auto n = write(g_shutdown_fd, &byte, 1);
  }
}

int usage(std::ostream& out) {
  out << "usage: qpf_serve [options]\n"
         "  --port=N             listen port (default 0 = ephemeral)\n"
         "  --state-dir=DIR      session parking lot (enables idle\n"
         "                       eviction snapshots and drain restore)\n"
         "  --max-sessions=N     session table capacity (default 1024)\n"
         "  --queue-depth=N      pending requests per session (default 16)\n"
         "  --quota-requests=N   lifetime requests per session (0=off)\n"
         "  --quota-bytes=N      lifetime payload bytes per session (0=off)\n"
         "  --threads=N          executor threads (default 2)\n"
         "  --idle-evict-ms=N    park sessions idle this long (0=off)\n"
         "  --write-timeout-ms=N drop clients with no write progress\n"
         "                       for this long (default 10000)\n"
         "  --lease-ms=N         reap half-open connections silent this\n"
         "                       long; their sessions park (0=off)\n"
         "  --help               this text\n";
  return &out == &std::cerr ? 2 : 0;
}

}  // namespace

int main(int argc, char** argv) {
  // A dying client must never kill the server (or a checkpoint) with
  // SIGPIPE; every write path checks its return value instead.
  std::signal(SIGPIPE, SIG_IGN);
  qpf::io::install_faultfs_from_environment();
  qpf::io::install_faultnet_from_environment();

  using qpf::cli::consume_prefix;
  using qpf::cli::parse_count;
  qpf::serve::ServeOptions options;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value;
      if (arg == "--help" || arg == "-h") {
        return usage(std::cout);
      } else if (consume_prefix(arg, "--port=", value)) {
        options.port = static_cast<std::uint16_t>(parse_count(value, 65535));
      } else if (consume_prefix(arg, "--state-dir=", value)) {
        options.state_dir = value;
      } else if (consume_prefix(arg, "--max-sessions=", value)) {
        options.max_sessions = parse_count(value);
      } else if (consume_prefix(arg, "--queue-depth=", value)) {
        options.queue_depth = parse_count(value);
      } else if (consume_prefix(arg, "--quota-requests=", value)) {
        options.quota.max_requests = parse_count(value);
      } else if (consume_prefix(arg, "--quota-bytes=", value)) {
        options.quota.max_bytes = parse_count(value);
      } else if (consume_prefix(arg, "--threads=", value)) {
        options.executor_threads = parse_count(value, qpf::cli::kMaxThreads);
      } else if (consume_prefix(arg, "--idle-evict-ms=", value)) {
        options.idle_evict_ms = parse_count(value);
      } else if (consume_prefix(arg, "--write-timeout-ms=", value)) {
        options.write_timeout_ms = parse_count(value);
      } else if (consume_prefix(arg, "--lease-ms=", value)) {
        options.lease_ms = parse_count(value);
      } else {
        std::cerr << "qpf_serve: unknown argument '" << arg << "'\n";
        return usage(std::cerr);
      }
    }
  } catch (const std::exception& e) {
    std::cerr << "qpf_serve: bad argument: " << e.what() << "\n";
    return usage(std::cerr);
  }

  try {
    qpf::serve::Server server(options);
    server.start();
    g_shutdown_fd = server.shutdown_fd();
    std::signal(SIGTERM, on_signal);
    std::signal(SIGINT, on_signal);

    std::cout << "listening on port " << server.port() << std::endl;
    if (!std::cout) {
      throw qpf::IoError("stdout", "failed to announce the listen port");
    }

    server.serve();

    const qpf::serve::ServeStats stats = server.stats();
    std::cerr << "qpf_serve: drained — connections=" << stats.connections_accepted
              << " requests=" << stats.requests_executed
              << " shed=" << stats.requests_shed
              << " evicted=" << stats.sessions_evicted
              << " parked=" << stats.sessions_parked
              << " restored=" << stats.sessions_restored
              << " lease_expired=" << stats.lease_expired
              << " dedup=" << stats.dedup_hits << "\n";
    return 130;
  } catch (const qpf::Error& e) {
    std::cerr << "qpf_serve: error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "qpf_serve: error: " << e.what() << "\n";
    return 1;
  }
}
