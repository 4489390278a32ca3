// Realistic-error-model study (thesis future work; biased noise after
// Aliferis & Preskill [28]): sweep the dephasing bias eta at fixed
// physical error rate and watch the X_L / Z_L logical error rates split
// — and confirm the Pauli frame stays LER-neutral under bias too.
//
// Every cell is an LER point of the shared engine (ler_common.h) on the
// Fig 5.8 stack with LerConfig::bias set: QPF_LER_RUNS trials on the
// seed chain, fanned out over --jobs workers.
//
// Scale via QPF_LER_RUNS / QPF_LER_ERRORS.
#include <cstdio>

#include "bench_json.h"
#include "ler_common.h"

using qpf::qec::CheckType;

int main(int argc, char** argv) {
  qpf::bench::BenchCli cli("bench_biased_noise", argc, argv);
  cli.require_no_extra_args();
  qpf::bench::announce_seed("bench_biased_noise", 0xe7a);
  const std::size_t errors = qpf::bench::env_size_t("QPF_LER_ERRORS", 10);
  const std::size_t runs = qpf::bench::env_size_t("QPF_LER_RUNS", 3);
  const double per = 1e-3;
  std::printf("bench_biased_noise: SC17 under dephasing-biased noise "
              "(future work; [28]), PER = %.0e\n",
              per);
  cli.report.config.num("per", per)
      .uinteger("runs", runs)
      .uinteger("target_errors", errors)
      .uinteger("jobs", cli.jobs());
  const qpf::bench::WallTimer timer;
  std::printf("\n%-8s %-13s %-13s %-8s %-13s %-13s\n", "eta",
              "LER X_L(noPF)", "LER Z_L(noPF)", "Z/X", "LER X_L(PF)",
              "LER Z_L(PF)");
  for (double eta : {0.5, 3.0, 10.0, 30.0}) {
    const auto ler = [&](CheckType basis, bool with_pf, std::uint64_t seed) {
      qpf::bench::LerConfig config;
      config.physical_error_rate = per;
      config.bias = eta;
      config.basis = basis;
      config.with_pauli_frame = with_pf;
      config.target_logical_errors = errors;
      config.max_windows = 300'000;
      config.seed = seed + static_cast<int>(eta * 10);
      return qpf::bench::run_ler_point(config, runs, cli.jobs()).mean_ler;
    };
    const double x_nopf = ler(CheckType::kZ, false, 0xe7a);
    const double z_nopf = ler(CheckType::kX, false, 0xe7b);
    const double x_pf = ler(CheckType::kZ, true, 0xe7c);
    const double z_pf = ler(CheckType::kX, true, 0xe7d);
    std::printf("%-8.1f %-13.3e %-13.3e %-8.2f %-13.3e %-13.3e\n", eta,
                x_nopf, z_nopf, x_nopf > 0.0 ? z_nopf / x_nopf : 0.0, x_pf,
                z_pf);
    cli.report.stats.emplace_back();
    cli.report.stats.back()
        .num("eta", eta)
        .num("ler_xl_no_pf", x_nopf)
        .num("ler_zl_no_pf", z_nopf)
        .num("ler_xl_pf", x_pf)
        .num("ler_zl_pf", z_pf);
  }
  cli.report.wall_ms = timer.ms();
  std::printf(
      "\nexpected: eta = 0.5 is the symmetric channel (Z/X ~ 1); rising "
      "eta suppresses X_L errors and\ninflates Z_L errors, while the Pauli "
      "frame stays LER-neutral throughout.\n");
  return cli.finish();
}
