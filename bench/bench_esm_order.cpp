// Ablation benches for two design choices DESIGN.md calls out:
//   1. ESM CNOT ordering — the paper's mixed S/Z pattern (Figs 2.2/2.3)
//      vs. the same S pattern for both check types (hook-error exposure,
//      cf. Tomita & Svore [19]).
//   2. The LUT decoder — enabled vs. disabled (syndromes measured but
//      never corrected).  Measured as the mean logical lifetime: windows
//      until even a final perfect decode cannot recover the state.
//      Lifetimes spread widely, so each cell prints its standard error
//      over the runs and the gain the range those errors allow.
//
// Scale via QPF_LER_RUNS / QPF_LER_ERRORS.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench_json.h"
#include "ler_common.h"
#include "stats/summary.h"

namespace {

using qpf::arch::LerStack;
using qpf::bench::LerConfig;
using qpf::bench::LerPoint;
using qpf::qec::CheckType;
using qpf::qec::CnotPattern;
using qpf::qec::NinjaStar;

LerPoint measure(double per, CnotPattern pattern, std::size_t errors,
                 std::size_t runs, std::size_t jobs) {
  LerConfig config;
  config.physical_error_rate = per;
  config.basis = CheckType::kZ;
  config.with_pauli_frame = false;
  config.target_logical_errors = errors;
  config.max_windows = 200'000;
  config.seed = 0x0e5e + static_cast<std::uint64_t>(per * 1e7);
  config.ninja_options.esm_pattern = pattern;
  return qpf::bench::run_ler_point(config, runs, jobs);
}

// Logical lifetime: windows until the accumulated data error is beyond
// recovery.  Each window we read the raw syndrome (diagnostically),
// compute the correction a final perfect decode would apply, and fold
// its effect into the Z_L-chain probe parity classically.  If the
// decoded parity is -1, the logical information is lost.  This metric
// is well defined both with the online decoder running and with it
// disabled (where errors accumulate until the LUT decodes them to the
// wrong chain side).  Each run is a LerTrial on the seed chain from
// 0xab1e, stepped window by window through its stack.
qpf::stats::Summary logical_lifetime(double per, bool decoding,
                                     std::size_t runs) {
  LerConfig config;
  config.physical_error_rate = per;
  config.with_pauli_frame = false;
  config.ninja_options.decoding_enabled = decoding;
  std::vector<double> lifetimes;
  std::uint64_t seed = 0xab1e;
  for (std::size_t r = 0; r < runs; ++r) {
    seed = qpf::bench::next_trial_seed(seed);
    config.seed = seed;
    qpf::bench::LerTrial trial(config);
    LerStack& stack = trial.stack();
    std::size_t windows = 0;
    constexpr std::size_t kCap = 100'000;
    while (windows < kCap) {
      stack.ninja().run_window(0);
      ++windows;
      stack.set_diagnostic_mode(true);
      const auto syndrome = stack.ninja().probe_syndrome(0);
      const int raw_sign =
          stack.ninja().measure_logical_stabilizer(0, CheckType::kZ);
      stack.set_diagnostic_mode(false);
      // Final perfect decode, applied virtually: X corrections on the
      // Z_L chain flip the probe parity.
      NinjaStar scratch = stack.ninja().star(0);
      const std::vector<int>& chain =
          scratch.layout().logical_z_data(scratch.orientation());
      int decoded_sign = raw_sign;
      for (const auto& op : scratch.decode_initialization(syndrome)) {
        if (op.gate() == qpf::GateType::kZ) {
          continue;  // Z corrections do not affect the Z-chain parity
        }
        const auto local = static_cast<int>(op.qubit(0) - scratch.base());
        if (std::find(chain.begin(), chain.end(), local) != chain.end()) {
          decoded_sign = -decoded_sign;
        }
      }
      if (decoded_sign != +1) {
        break;
      }
    }
    lifetimes.push_back(static_cast<double>(windows));
  }
  return qpf::stats::summarize(lifetimes);
}

/// Standard error of a mean; 0 for a single run.
double standard_error(const qpf::stats::Summary& s) {
  return s.stddev / std::sqrt(static_cast<double>(s.n));
}

/// "812.3 +- 95.1"
std::string with_error(double mean, double error) {
  char text[48];
  std::snprintf(text, sizeof text, "%.1f +- %.1f", mean, error);
  return text;
}

}  // namespace

int main(int argc, char** argv) {
  qpf::bench::BenchCli cli("bench_esm_order", argc, argv);
  cli.require_no_extra_args();
  qpf::bench::announce_seed("bench_esm_order", 0x0e5e);
  const std::size_t errors = qpf::bench::env_size_t("QPF_LER_ERRORS", 20);
  const std::size_t runs = qpf::bench::env_size_t("QPF_LER_RUNS", 3);
  std::printf("bench_esm_order: design-choice ablations (ESM CNOT pattern, "
              "decoder on/off)\n");
  cli.report.config.uinteger("runs", runs)
      .uinteger("target_errors", errors)
      .uinteger("jobs", cli.jobs());
  const qpf::bench::WallTimer timer;

  std::printf("\n=== ESM CNOT ordering ablation ===\n");
  std::printf("%-10s %-14s %-14s %-8s\n", "PER", "LER(mixed)", "LER(same-S)",
              "ratio");
  for (double per : {5e-4, 1e-3, 2e-3, 5e-3}) {
    const LerPoint mixed =
        measure(per, CnotPattern::kMixed, errors, runs, cli.jobs());
    const LerPoint same =
        measure(per, CnotPattern::kSameS, errors, runs, cli.jobs());
    std::printf("%-10.1e %-14.3e %-14.3e %-8.2f\n", per, mixed.mean_ler,
                same.mean_ler,
                mixed.mean_ler > 0.0 ? same.mean_ler / mixed.mean_ler : 0.0);
    cli.report.stats.emplace_back();
    cli.report.stats.back()
        .text("series", "esm_pattern")
        .num("per", per)
        .num("ler_mixed", mixed.mean_ler)
        .num("ler_same_s", same.mean_ler);
  }
  std::printf("(the mixed pattern of Figs 2.2/2.3 should not be worse; "
              "hook-error alignment penalizes the same-S variant)\n");

  std::printf("\n=== Decoder ablation: mean logical lifetime in windows "
              "===\n");
  std::printf("%-10s %-20s %-20s %s\n", "PER", "with decoder",
              "without decoder", "gain [range]");
  for (double per : {1e-3, 2e-3, 5e-3}) {
    const qpf::stats::Summary with = logical_lifetime(per, true, runs);
    const qpf::stats::Summary without = logical_lifetime(per, false, runs);
    const double with_se = standard_error(with);
    const double without_se = standard_error(without);
    // The gain's range: each mean moved by one standard error against
    // the other; unbounded once the lower lifetime's error reaches it.
    const double gain = without.mean > 0.0 ? with.mean / without.mean : 0.0;
    const double gain_low = (with.mean - with_se) / (without.mean + without_se);
    const double gain_high =
        without.mean > without_se
            ? (with.mean + with_se) / (without.mean - without_se)
            : std::numeric_limits<double>::infinity();
    std::printf("%-10.1e %-20s %-20s %.1fx [%.1f-%.1f]\n", per,
                with_error(with.mean, with_se).c_str(),
                with_error(without.mean, without_se).c_str(), gain, gain_low,
                gain_high);
    cli.report.stats.emplace_back();
    cli.report.stats.back()
        .text("series", "decoder_ablation")
        .num("per", per)
        .num("lifetime_with_decoder", with.mean)
        .num("lifetime_without_decoder", without.mean)
        .num("lifetime_with_decoder_se", with_se)
        .num("lifetime_without_decoder_se", without_se)
        .num("gain_low", gain_low)
        .num("gain_high", gain_high);
  }
  std::printf("(decoding must extend the memory lifetime by a wide "
              "margin; +- is one standard error over %zu runs, and the "
              "gain's range moves each mean by one)\n",
              runs);
  cli.report.wall_ms = timer.ms();
  return cli.finish();
}
