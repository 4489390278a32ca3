// qpf_fuzz: differential fuzzing front-end for the Pauli-frame stack.
//
// Runs the seeded fuzzing engine (src/fuzz/) over the oracle set —
// conjugation tables, arbiter routing, frame semantics, mirror
// programs, sampling statistics, metamorphic injection, snapshot
// round-trips, chaos convergence, and LUT decode windows — shrinks any
// failing circuit to a minimal witness, and emits either a human
// summary or the deterministic JSON triage report
// (schema qpf-fuzz-triage-v1, validated by tools/check_bench.sh).
//
// The whole run is a pure function of the command line: identical
// arguments produce a byte-identical report.  --minutes turns the tool
// into a soak loop that keeps drawing fresh master seeds from the seed
// chain until the budget expires (the report then covers the last
// completed batch plus any accumulated failures).
//
// Exit codes: 0 clean run, 1 oracle failure(s), 2 bad arguments.
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <string>
#include <vector>

#include "circuit/bug_plant.h"
#include "circuit/error.h"
#include "cli/numeric_args.h"
#include "cli/stdio_guard.h"
#include "exec/executor.h"
#include "fuzz/engine.h"

namespace {

using qpf::cli::consume_prefix;
using qpf::fuzz::FuzzOptions;
using qpf::fuzz::FuzzReport;
using qpf::fuzz::OracleOutcome;
using qpf::fuzz::OracleSpec;

int usage(std::ostream& out) {
  out << "usage: qpf_fuzz [options]\n"
         "  --seed=N           master seed (default 1)\n"
         "  --cases=N          generated cases per run (default 25)\n"
         "  --oracle=NAME      run only this oracle (repeatable, or a\n"
         "                     comma-separated list); default: all\n"
         "  --json             emit the JSON triage report on stdout\n"
         "  --no-shrink        report failures without shrinking\n"
         "  --max-failures=N   stop after N failures (default 8, 0=never)\n"
         "  --jobs=N           worker threads for the case fan-out\n"
         "                     (default 1, 0=auto); the report is\n"
         "                     byte-identical for every value\n"
         "  --minutes=M        soak: loop over fresh seeds for ~M minutes\n"
         "  --no-qx            skip state-vector oracles (semantics,\n"
         "                     mirror-qx, backend-diff)\n"
         "  --no-chaos         skip the supervised chaos oracle\n"
         "  --plant=N          activate planted bug N (mutation smoke)\n"
         "  --replay=FILE      replay one corpus reproducer and exit\n"
         "  --corpus=DIR       write each failure's reproducer into DIR\n"
         "  --list-oracles     print the oracle registry and exit\n"
         "  --list-bugs        print the planted-bug catalogue and exit\n"
         "  --help             this text\n";
  return &out == &std::cerr ? 2 : 0;
}

void split_names(const std::string& list, std::vector<std::string>& out) {
  std::size_t start = 0;
  while (start <= list.size()) {
    const std::size_t comma = list.find(',', start);
    const std::string name =
        list.substr(start, comma == std::string::npos ? comma : comma - start);
    if (!name.empty()) {
      out.push_back(name);
    }
    if (comma == std::string::npos) {
      break;
    }
    start = comma + 1;
  }
}

int list_oracles() {
  for (const OracleSpec& spec : qpf::fuzz::all_oracles()) {
    std::cout << spec.name << (spec.once_per_run ? "  (once per run)" : "")
              << "\n";
  }
  return 0;
}

int list_bugs() {
  for (int n = 1; n <= qpf::plant::kCount; ++n) {
    std::cout << n << "  " << qpf::plant::describe(n) << "\n";
  }
  return 0;
}

int replay_file(const std::string& path) {
  const qpf::fuzz::Reproducer rep = qpf::fuzz::load_reproducer(path);
  const OracleOutcome outcome = qpf::fuzz::replay_reproducer(rep);
  std::cout << "replay " << path << "\n"
            << "  oracle:    " << rep.oracle << "\n"
            << "  case-seed: " << rep.case_seed << "\n"
            << "  gates:     " << rep.circuit.num_operations() << "\n"
            << "  verdict:   "
            << (outcome.skipped ? "SKIP" : outcome.passed ? "PASS" : "FAIL")
            << "\n";
  if (!outcome.detail.empty()) {
    std::cout << "  detail:    " << outcome.detail << "\n";
  }
  return outcome.passed ? 0 : 1;
}

void print_summary(const FuzzReport& report, std::ostream& out) {
  out << "qpf_fuzz seed=" << report.seed << " cases=" << report.cases
      << " oracle-runs=" << report.oracle_runs << " passes=" << report.passes
      << " skips=" << report.skips << " failures=" << report.failures.size()
      << "\n";
  for (const auto& f : report.failures) {
    out << "  FAIL " << f.oracle << " case=" << f.case_index
        << " case-seed=" << f.case_seed << " gates=" << f.original_gates
        << "->" << f.shrunk_gates << "\n    " << f.detail << "\n"
        << "    replay: qpf_fuzz --replay=<file>  (or --seed="
        << report.seed << " --oracle=" << f.oracle << ")\n";
  }
  out << "verdict: " << (report.pass() ? "PASS" : "FAIL") << "\n";
}

void save_failures(const FuzzReport& report, const std::string& dir) {
  for (const auto& f : report.failures) {
    if (f.reproducer.empty()) {
      continue;
    }
    const qpf::fuzz::Reproducer rep = qpf::fuzz::parse_reproducer(f.reproducer);
    const std::string path = dir + "/" + qpf::fuzz::corpus_file_name(rep);
    qpf::fuzz::save_reproducer(path, rep);
    std::cerr << "wrote " << path << "\n";
  }
}

}  // namespace

int main(int argc, char** argv) {
  qpf::cli::ignore_sigpipe();
  FuzzOptions options;
  bool json = false;
  double minutes = 0.0;
  int plant = 0;
  std::string replay_path;
  std::string corpus_dir;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      std::string value;
      if (arg == "--help" || arg == "-h") {
        return usage(std::cout);
      } else if (arg == "--json") {
        json = true;
      } else if (arg == "--no-shrink") {
        options.shrink = false;
      } else if (arg == "--no-qx") {
        options.with_qx = false;
      } else if (arg == "--no-chaos") {
        options.with_chaos = false;
      } else if (arg == "--list-oracles") {
        return list_oracles();
      } else if (arg == "--list-bugs") {
        return list_bugs();
      } else if (consume_prefix(arg, "--seed=", value)) {
        options.seed = qpf::cli::parse_count(value);
      } else if (consume_prefix(arg, "--cases=", value)) {
        options.cases = qpf::cli::parse_count(value);
      } else if (consume_prefix(arg, "--oracle=", value)) {
        split_names(value, options.oracles);
      } else if (consume_prefix(arg, "--max-failures=", value)) {
        options.max_failures = qpf::cli::parse_count(value);
      } else if (consume_prefix(arg, "--jobs=", value)) {
        options.jobs = qpf::cli::parse_count(value, qpf::cli::kMaxThreads);
      } else if (consume_prefix(arg, "--minutes=", value)) {
        minutes = qpf::cli::parse_real(value);
      } else if (consume_prefix(arg, "--plant=", value)) {
        plant = static_cast<int>(
            qpf::cli::parse_count(value, qpf::plant::kCount));
      } else if (consume_prefix(arg, "--replay=", value)) {
        replay_path = value;
      } else if (consume_prefix(arg, "--corpus=", value)) {
        corpus_dir = value;
      } else {
        std::cerr << "qpf_fuzz: unknown argument '" << arg << "'\n";
        return usage(std::cerr);
      }
    }
  } catch (const std::invalid_argument& e) {
    // A malformed flag value (cli/numeric_args.h).
    std::cerr << "qpf_fuzz: bad value: " << e.what() << "\n";
    return usage(std::cerr);
  }

  try {
    for (const std::string& name : options.oracles) {
      if (qpf::fuzz::find_oracle(name) == nullptr) {
        std::cerr << "qpf_fuzz: unknown oracle '" << name
                  << "' (see --list-oracles)\n";
        return 2;
      }
    }
    if (plant != 0) {
      qpf::plant::set_for_testing(plant);
      std::cerr << "planted bug " << plant << ": "
                << qpf::plant::describe(plant) << "\n";
    }

    if (!replay_path.empty()) {
      return replay_file(replay_path);
    }

    FuzzReport report;
    if (minutes > 0.0) {
      // Soak: keep drawing batch seeds from the chain until the budget
      // expires.  Failures accumulate across batches; counters cover
      // every completed batch.
      const auto deadline =
          std::chrono::steady_clock::now() +
          std::chrono::duration_cast<std::chrono::steady_clock::duration>(
              std::chrono::duration<double, std::ratio<60>>(minutes));
      std::uint64_t batch = 0;
      report.seed = options.seed;
      do {
        FuzzOptions batch_options = options;
        batch_options.seed = qpf::exec::task_seed(options.seed, batch);
        FuzzReport r = run_fuzz(batch_options);
        report.cases += r.cases;
        report.oracle_runs += r.oracle_runs;
        report.passes += r.passes;
        report.skips += r.skips;
        for (auto& f : r.failures) {
          report.failures.push_back(std::move(f));
        }
        ++batch;
        std::cerr << "soak batch " << batch << " seed=" << batch_options.seed
                  << " failures=" << report.failures.size() << "\n";
        if (options.max_failures != 0 &&
            report.failures.size() >= options.max_failures) {
          break;
        }
      } while (std::chrono::steady_clock::now() < deadline);
    } else {
      report = run_fuzz(options);
    }

    if (!corpus_dir.empty()) {
      save_failures(report, corpus_dir);
    }
    if (json) {
      std::cout << qpf::fuzz::to_json(report);
      print_summary(report, std::cerr);
    } else {
      print_summary(report, std::cout);
    }
    // A reader that exited early (| head) must not pass as a clean
    // run whose report nobody saw: surface the truncation as IoError.
    qpf::cli::require_stream_ok(std::cout, "stdout");
    return report.pass() ? 0 : 1;
  } catch (const qpf::Error& e) {
    std::cerr << "qpf_fuzz: error: " << e.what() << "\n";
    return 1;
  } catch (const std::exception& e) {
    std::cerr << "qpf_fuzz: error: " << e.what() << "\n";
    return 2;
  }
}
