// qpf_chaos: deterministic chaos harness for the supervised control
// stack (PR 4).
//
// Runs the same crash-safe SC-17 LER campaign as qpf_ler, but under a
// scripted fault storm: seeded chaos events (crashes, stalls, bursts)
// injected by the ClassicalFaultLayer, recovered (or not) by the
// SupervisorLayer, and timed against the deadline watchdog.  Scenarios
// are named presets so tools/check_chaos.sh can assert the recovery
// invariant: every scenario either produces statistics bit-identical
// to the fault-free baseline, or exits nonzero with a typed
// escalation — never silent divergence.
//
// stdout carries exactly the qpf_ler statistics line (%.17g, so the
// harness can diff scenarios byte-for-byte); the chaos / supervision
// report goes to stderr.
//
// Exit codes: 0 success, 1 runtime error or typed escalation, 2 bad
// arguments, 130 interrupted (state saved; re-run to resume).
#include <iostream>
#include <string>

#include "circuit/error.h"
#include "cli/numeric_args.h"
#include "cli/stdio_guard.h"
#include "io/file_ops.h"
#include "ler_common.h"

namespace {

int usage(std::ostream& out) {
  out << "usage: qpf_chaos --scenario=NAME [options]\n"
         "scenarios:\n"
         "  baseline            fault-free reference run\n"
         "  crash-recover       crash storm, supervised: every crash is\n"
         "                      recovered (restore + replay); statistics\n"
         "                      must equal the baseline\n"
         "  crash-unsupervised  same storm, no supervisor: the first\n"
         "                      crash escapes as a typed error (exit 1)\n"
         "  crash-escalate      burst storm that exhausts the retry\n"
         "                      budget and the episode budget: typed\n"
         "                      SupervisionError with incident record\n"
         "                      (exit 1)\n"
         "  stall-degrade       stall storm under a round deadline: the\n"
         "                      watchdog skips decodes, the run degrades\n"
         "                      deterministically and completes (exit 0)\n"
         "  stall-escalate      same storm, supervised with an overrun\n"
         "                      budget: typed SupervisionError (exit 1)\n"
         "options:\n"
         "  --per=P               physical error rate (default 2e-3)\n"
         "  --runs=N              trials (default 2)\n"
         "  --errors=N            target logical errors per trial "
         "(default 4)\n"
         "  --max-windows=N       window cap per trial (default 4000)\n"
         "  --seed=S              campaign seed chain base (default 99)\n"
         "  --chaos-seed=S        chaos schedule seed (default 7)\n"
         "  --state-dir=DIR       durable journal + checkpoint (resume\n"
         "                        an existing journal)\n"
         "  --checkpoint-every=N  checkpoint the live trial every N\n"
         "                        windows (default 64)\n"
         "  --jobs=N              worker threads (default 1)\n";
  return 2;
}

// Apply a named scenario preset onto the campaign configuration.
// Returns false (and reports) on an unknown name.
bool apply_scenario(const std::string& name, qpf::bench::LerConfig& config) {
  using qpf::arch::ChaosConfig;
  if (name == "baseline") {
    return true;
  }
  if (name == "crash-recover") {
    // Sparse crashes with a generous retry budget: every fault must be
    // recovered by restore + replay, so the statistics stay equal to
    // the baseline.  The gap floor exceeds the longest replay window,
    // so retries can never exhaust.
    config.chaos.min_gap = 400;
    config.chaos.max_gap = 700;
    config.chaos.crash_weight = 1;
    config.supervise = true;
    config.supervisor.max_retries = 10;
    config.supervisor.escalate_after = 1'000'000;
    config.supervisor.rearm_after = 1;
    return true;
  }
  if (name == "crash-unsupervised") {
    config.chaos.min_gap = 400;
    config.chaos.max_gap = 700;
    config.chaos.crash_weight = 1;
    config.supervise = false;
    return true;
  }
  if (name == "crash-escalate") {
    // Bursts longer than the retry budget: recovery replays crash
    // again, the supervisor degrades, episodes accumulate, and the
    // default escalate_after budget blows.
    config.chaos.min_gap = 60;
    config.chaos.max_gap = 90;
    config.chaos.crash_weight = 0;
    config.chaos.burst_weight = 1;
    config.chaos.burst_length = 40;
    config.supervise = true;
    config.supervisor.max_retries = 2;
    config.supervisor.escalate_after = 3;
    return true;
  }
  if (name == "stall-degrade") {
    // Stalls blow the per-round deadline; the ninja-star layer skips
    // the decode and carries the syndrome.  Fully modeled time, so two
    // runs of this scenario are bit-identical.
    config.chaos.min_gap = 40;
    config.chaos.max_gap = 60;
    config.chaos.crash_weight = 0;
    config.chaos.stall_weight = 1;
    config.chaos.stall_ns = 1.0e6;
    config.deadline.round_budget_ns = 5.0e5;
    return true;
  }
  if (name == "stall-escalate") {
    config.chaos.min_gap = 40;
    config.chaos.max_gap = 60;
    config.chaos.crash_weight = 0;
    config.chaos.stall_weight = 1;
    config.chaos.stall_ns = 1.0e6;
    config.deadline.round_budget_ns = 5.0e5;
    config.supervise = true;
    config.supervisor.escalate_on_overruns = 5;
    return true;
  }
  return false;
}

}  // namespace

int main(int argc, char** argv) {
  using qpf::bench::CampaignOptions;
  using qpf::bench::CampaignResult;
  using qpf::cli::consume_prefix;

  qpf::cli::ignore_sigpipe();
  qpf::io::install_faultfs_from_environment();
  CampaignOptions options;
  options.config.physical_error_rate = 2e-3;
  options.config.target_logical_errors = 4;
  options.config.max_windows = 4000;
  options.config.seed = 99;
  options.config.chaos.seed = 7;
  options.runs = 2;
  options.checkpoint_every_windows = 64;
  std::string scenario;
  for (int i = 1; i < argc; ++i) {
    const std::string argument = argv[i];
    std::string value;
    try {
      if (qpf::bench::parse_campaign_flag(argument, options)) {
        continue;
      }
      if (consume_prefix(argument, "--scenario=", value)) {
        scenario = value;
      } else if (consume_prefix(argument, "--chaos-seed=", value)) {
        options.config.chaos.seed = qpf::cli::parse_count(value);
      } else if (argument == "--help") {
        usage(std::cout);
        return 0;
      } else {
        std::cerr << "qpf_chaos: unknown option '" << argument << "'\n";
        return usage(std::cerr);
      }
    } catch (const std::exception&) {
      std::cerr << "qpf_chaos: bad value in '" << argument << "'\n";
      return usage(std::cerr);
    }
  }
  if (scenario.empty()) {
    std::cerr << "qpf_chaos: --scenario is required\n";
    return usage(std::cerr);
  }
  if (!apply_scenario(scenario, options.config)) {
    std::cerr << "qpf_chaos: unknown scenario '" << scenario << "'\n";
    return usage(std::cerr);
  }
  if (!qpf::bench::start_campaign("qpf_chaos", options)) {
    return usage(std::cerr);
  }
  // Both seeds announced so any failure is replayable from the log.
  if (options.config.chaos.any()) {
    qpf::bench::announce_seed("qpf_chaos schedule",
                              options.config.chaos.seed);
  }
  std::cerr << "[chaos] scenario: " << scenario << "\n";

  CampaignResult result;
  try {
    result = qpf::bench::run_ler_campaign(options);
  } catch (const qpf::SupervisionError& error) {
    // The supervised stack gave up in a typed, auditable way: print the
    // incident record and fail loudly — the harness asserts this path.
    std::cerr << "qpf_chaos: supervision escalation: " << error.what()
              << "\n";
    if (!error.incident_report().empty()) {
      std::cerr << error.incident_report();
    }
    return 1;
  } catch (const qpf::TransientFaultError& error) {
    std::cerr << "qpf_chaos: unrecovered classical fault: " << error.what()
              << "\n";
    return 1;
  } catch (const qpf::Error& error) {
    std::cerr << "qpf_chaos: " << error.what() << "\n";
    return 1;
  }

  std::cerr << "[chaos] recovered=" << result.faults_recovered
            << " episodes=" << result.fault_episodes
            << " overruns=" << result.deadline_overruns
            << " skipped_decodes=" << result.decodes_skipped << "\n";
  // stdout is exactly the qpf_ler statistics line: the harness diffs
  // scenario stdout against the baseline byte-for-byte.
  return qpf::bench::report_campaign("qpf_chaos", options, result);
}
