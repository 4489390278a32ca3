// Baseline comparison: the SC17 surface code vs the Steane [[7,1,3]]
// code under the same symmetric depolarizing model and window
// methodology.  Both are distance-3 codes; the surface code buys its
// nearest-neighbour layout with more qubits (17 vs 13) and a longer
// ESM, while Steane's high-weight checks punish it under circuit noise.
// The SC17 column is one trial per PER of the shared LER engine
// (ler_common.h); the Steane column runs one trial of its own loop.
//
// Scale via QPF_LER_ERRORS.
#include <cstdio>

#include "arch/chp_core.h"
#include "arch/error_layer.h"
#include "arch/steane_layer.h"
#include "bench_json.h"
#include "ler_common.h"

namespace {

using namespace qpf;
using arch::ChpCore;
using arch::ErrorLayer;
using qec::CheckType;

double sc17_ler(double per, std::size_t target_errors, std::uint64_t seed) {
  qpf::bench::LerConfig config;
  config.physical_error_rate = per;
  config.target_logical_errors = target_errors;
  config.max_windows = 300'000;
  config.seed = seed;
  return qpf::bench::run_ler_point(config, 1).mean_ler;
}

// Steane has no LerStack top, so its column keeps its own Listing 5.7
// loop over the same noise layer and window methodology.
double steane_ler(double per, std::size_t target_errors, std::uint64_t seed) {
  ChpCore core(seed);
  ErrorLayer noisy(&core, per, seed ^ 0x57eaULL);
  arch::SteaneLayer steane(&noisy);
  steane.create_qubits(1);
  noisy.set_bypass(true);
  steane.initialize(0);
  noisy.set_bypass(false);
  std::size_t flips = 0;
  std::size_t windows = 0;
  int expected = +1;
  // A Steane "window": two QEC rounds, mirroring the SC17 methodology.
  while (flips < target_errors && windows < 300'000) {
    steane.run_qec_round(0);
    steane.run_qec_round(0);
    ++windows;
    noisy.set_bypass(true);
    if (!steane.has_observable_errors(0)) {
      const int sign = steane.measure_logical_stabilizer(0, CheckType::kZ);
      if (sign != expected) {
        ++flips;
        expected = sign;
      }
    }
    noisy.set_bypass(false);
  }
  return static_cast<double>(flips) / static_cast<double>(windows);
}

}  // namespace

int main(int argc, char** argv) {
  qpf::bench::BenchCli cli("bench_code_comparison", argc, argv);
  cli.require_no_extra_args();
  qpf::bench::announce_seed("bench_code_comparison", 0xc0de);
  const std::size_t errors = qpf::bench::env_size_t("QPF_LER_ERRORS", 10);
  std::printf("bench_code_comparison: SC17 (17 qubits) vs Steane [[7,1,3]] "
              "(13 qubits) under identical circuit noise\n");
  cli.report.config.uinteger("target_errors", errors);
  const qpf::bench::WallTimer timer;
  std::printf("\n%-10s %-14s %-14s %-12s\n", "PER", "LER SC17",
              "LER Steane", "Steane/SC17");
  for (double per : {2e-4, 5e-4, 1e-3, 2e-3}) {
    const double sc17 =
        sc17_ler(per, errors, 0xc0de + static_cast<std::uint64_t>(per * 1e7));
    const double steane = steane_ler(
        per, errors, 0xc0df + static_cast<std::uint64_t>(per * 1e7));
    std::printf("%-10.1e %-14.3e %-14.3e %-12.2f\n", per, sc17, steane,
                sc17 > 0.0 ? steane / sc17 : 0.0);
    cli.report.stats.emplace_back();
    cli.report.stats.back()
        .num("per", per)
        .num("ler_sc17", sc17)
        .num("ler_steane", steane);
  }
  cli.report.wall_ms = timer.ms();
  std::printf("\nexpected: both quadratic (distance 3); Steane's weight-4 "
              "checks measured with bare ancillas are hook-error prone, so "
              "its effective LER is worse per window at equal PER.\n");
  return cli.finish();
}
