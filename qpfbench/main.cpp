// qpfbench: runs one workload of the repository benchmark.
//
//   qpfbench --workload ler_pf|ler_nopf_lowp|serve_mixed --seed N
//            --seconds S --trace 0|1 [--trace-dir DIR]
//
// Prints a human-readable table on stderr and, as the last line of
// stdout, one JSON object {"correct", "attempted", "failed", "metrics"}.
// --trace 0 reports the end-to-end metrics, --trace 1 the per-layer
// ones.  Exit code 0 when every output check passed, 1 when one failed,
// 2 on bad arguments.
#include <csignal>
#include <iostream>
#include <stdexcept>
#include <string>

#include "workloads.h"

namespace {

int usage(const std::string& why) {
  std::cerr << "qpfbench: " << why
            << "\nusage: qpfbench --workload ler_pf|ler_nopf_lowp|serve_mixed"
               " --seed N --seconds S --trace 0|1 [--trace-dir DIR]\n";
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::signal(SIGPIPE, SIG_IGN);
  qpfbench::RunArgs args;
  args.seed = qpfbench::kDefaultSeed;
  try {
    for (int i = 1; i < argc; ++i) {
      const std::string flag = argv[i];
      if (i + 1 >= argc) {
        return usage("missing value for " + flag);
      }
      const std::string value = argv[++i];
      if (flag == "--workload") {
        args.workload = value;
      } else if (flag == "--seed") {
        args.seed = std::stoull(value);
      } else if (flag == "--seconds") {
        args.seconds = std::stod(value);
      } else if (flag == "--trace") {
        if (value != "0" && value != "1") {
          return usage("--trace takes 0 or 1");
        }
        args.trace = value == "1";
      } else if (flag == "--trace-dir") {
        args.trace_dir = value;
      } else {
        return usage("unknown argument " + flag);
      }
    }
  } catch (const std::exception&) {
    return usage("bad number");
  }
  if (!(args.seconds > 0.0 && args.seconds <= 600.0)) {
    return usage("--seconds must lie in (0, 600]");
  }
  const bool ler = qpfbench::is_ler_workload(args.workload);
  if (!ler && !qpfbench::is_serve_workload(args.workload)) {
    return usage("unknown workload '" + args.workload + "'");
  }

  qpfbench::Report measured;
  try {
    measured = ler ? qpfbench::run_ler(args) : qpfbench::run_serve(args);
  } catch (const std::exception& e) {
    // A run that cannot finish prints no result line.
    std::cerr << "qpfbench: " << args.workload << " failed: " << e.what()
              << "\n";
    return 1;
  }
  qpfbench::Report report = measured;
  report.metrics.clear();
  qpfbench::fill_metrics(report,
                         args.trace ? qpfbench::per_layer_metrics()
                                    : qpfbench::end_to_end_metrics(),
                         measured.metrics);
  return qpfbench::emit(report, args.workload);
}
