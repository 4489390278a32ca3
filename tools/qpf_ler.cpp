// qpf_ler: crash-safe LER campaign runner (PR 2).
//
// Runs `--runs` LER trials at one physical error rate on the Fig 5.8
// stack, journaling every completed trial to --state-dir/journal.jsonl
// and checkpointing the in-progress trial every --checkpoint-every
// windows.  Killed (SIGINT/SIGTERM, or SIGKILL between fsyncs) and
// re-launched with the same arguments, it resumes where it stopped and
// produces aggregate statistics bit-identical to an uninterrupted run.
//
// Exit codes: 0 success, 1 runtime error, 2 bad arguments,
// 130 interrupted (state saved; re-run to resume).
#include <cstdint>
#include <iostream>
#include <string>

#include "circuit/error.h"
#include "cli/numeric_args.h"
#include "cli/stdio_guard.h"
#include "io/file_ops.h"
#include "ler_common.h"

namespace {

int usage(std::ostream& out) {
  out << "usage: qpf_ler [options]\n"
         "  --per=P                physical error rate (default 1e-3)\n"
         "  --runs=N               trials (default 3)\n"
         "  --errors=N             target logical errors per trial "
         "(default 10)\n"
         "  --max-windows=N        window cap per trial (default 2000000)\n"
         "  --seed=S               base seed of the trial seed chain "
         "(default 1)\n"
         "  --basis=z|x            logical basis watched (default z)\n"
         "  --distance=D           surface-code distance: odd, 3 to "
      << qpf::qec::NinjaStar::kMaxDistance
      << " (default 3)\n"
         "  --pauli-frame          insert the Pauli frame layer\n"
         "  --state-dir=DIR        durable journal + checkpoint; an\n"
         "                         existing journal resumes the campaign\n"
         "  --checkpoint-every=N   checkpoint the live trial every N\n"
         "                         windows (default 256; 0 = only on\n"
         "                         interrupt)\n"
         "  --timeout-per-trial=MS watchdog per trial; a trial over\n"
         "                         budget is recorded timed_out and the\n"
         "                         campaign continues (default off)\n"
         "  --jobs=N               worker threads for trial fan-out\n"
         "                         (default 1; 0 = hardware_concurrency).\n"
         "                         Journal and statistics are\n"
         "                         bit-identical for every jobs value\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  using qpf::bench::CampaignOptions;
  using qpf::bench::CampaignResult;
  using qpf::cli::consume_prefix;

  qpf::cli::ignore_sigpipe();
  qpf::io::install_faultfs_from_environment();
  CampaignOptions options;
  options.checkpoint_every_windows = 256;
  for (int i = 1; i < argc; ++i) {
    const std::string argument = argv[i];
    std::string value;
    try {
      if (qpf::bench::parse_campaign_flag(argument, options)) {
        continue;
      }
      if (consume_prefix(argument, "--basis=", value)) {
        if (value == "z") {
          options.config.basis = qpf::qec::CheckType::kZ;
        } else if (value == "x") {
          options.config.basis = qpf::qec::CheckType::kX;
        } else {
          std::cerr << "qpf_ler: unknown basis '" << value << "'\n";
          return usage(std::cerr);
        }
      } else if (consume_prefix(argument, "--distance=", value)) {
        const std::uint64_t distance = qpf::cli::parse_count(value);
        if (distance < 3 || distance > qpf::qec::NinjaStar::kMaxDistance ||
            distance % 2 == 0) {
          std::cerr << "qpf_ler: --distance must be odd, 3 to "
                    << qpf::qec::NinjaStar::kMaxDistance << "\n";
          return usage(std::cerr);
        }
        options.config.ninja_options.distance = static_cast<int>(distance);
      } else if (argument == "--pauli-frame") {
        options.config.with_pauli_frame = true;
      } else if (consume_prefix(argument, "--timeout-per-trial=", value)) {
        options.config.timeout_per_trial_ms = qpf::cli::parse_count(value);
      } else if (argument == "--help") {
        usage(std::cout);
        return 0;
      } else {
        std::cerr << "qpf_ler: unknown option '" << argument << "'\n";
        return usage(std::cerr);
      }
    } catch (const std::exception&) {
      std::cerr << "qpf_ler: bad value in '" << argument << "'\n";
      return usage(std::cerr);
    }
  }
  if (!qpf::bench::start_campaign("qpf_ler", options)) {
    return usage(std::cerr);
  }

  CampaignResult result;
  try {
    result = qpf::bench::run_ler_campaign(options);
  } catch (const qpf::Error& error) {
    std::cerr << "qpf_ler: " << error.what() << "\n";
    return 1;
  }
  return qpf::bench::report_campaign("qpf_ler", options, result);
}
