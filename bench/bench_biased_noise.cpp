// Realistic-error-model study (thesis future work; biased noise after
// Aliferis & Preskill [28]): sweep the dephasing bias eta at fixed
// physical error rate and watch the X_L / Z_L logical error rates split
// — and confirm the Pauli frame stays LER-neutral under bias too.
//
// Every cell is an LER point of the shared engine (ler_common.h) on the
// Fig 5.8 stack with LerConfig::bias set: QPF_LER_RUNS trials on the
// seed chain, fanned out over --jobs workers.  A cell whose trials hit
// the window cap short of QPF_LER_ERRORS is starred, listed under the
// table, and counted in its JSON row as capped_<cell>.
//
// Scale via QPF_LER_RUNS / QPF_LER_ERRORS.
#include <cstdio>
#include <string>
#include <vector>

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
  constexpr std::size_t kMaxWindows = 300'000;
  // Cells averaging trials that hit the window cap short of the error
  // target are starred and listed under the table.
  std::vector<std::string> capped_notes;
  for (double eta : {0.5, 3.0, 10.0, 30.0}) {
    const auto ler = [&](CheckType basis, bool with_pf, std::uint64_t seed) {
      qpf::bench::LerConfig config;
      config.physical_error_rate = per;
      config.bias = eta;
      config.basis = basis;
      config.with_pauli_frame = with_pf;
      config.target_logical_errors = errors;
      config.max_windows = kMaxWindows;
      config.seed = seed + static_cast<int>(eta * 10);
      return qpf::bench::run_ler_point(config, runs, cli.jobs());
    };
    const qpf::bench::LerPoint x_nopf = ler(CheckType::kZ, false, 0xe7a);
    const qpf::bench::LerPoint z_nopf = ler(CheckType::kX, false, 0xe7b);
    const qpf::bench::LerPoint x_pf = ler(CheckType::kZ, true, 0xe7c);
    const qpf::bench::LerPoint z_pf = ler(CheckType::kX, true, 0xe7d);
    cli.report.stats.emplace_back();
    qpf::bench::JsonObject& row = cli.report.stats.back();
    row.num("eta", eta)
        .num("ler_xl_no_pf", x_nopf.mean_ler)
        .num("ler_zl_no_pf", z_nopf.mean_ler)
        .num("ler_xl_pf", x_pf.mean_ler)
        .num("ler_zl_pf", z_pf.mean_ler);
    const auto cell = [&](const qpf::bench::LerPoint& point,
                          const char* key) {
      char text[32];
      std::snprintf(text, sizeof text, "%.3e%s", point.mean_ler,
                    point.capped_trials > 0 ? "*" : "");
      if (point.capped_trials > 0) {
        row.uinteger(std::string("capped_") + key, point.capped_trials);
        char note[64];
        std::snprintf(note, sizeof note, "eta %.1f %s: %zu of %zu trials",
                      eta, key, point.capped_trials,
                      point.ler_samples.size());
        capped_notes.emplace_back(note);
      }
      return std::string(text);
    };
    const std::string x_nopf_cell = cell(x_nopf, "xl_no_pf");
    const std::string z_nopf_cell = cell(z_nopf, "zl_no_pf");
    const std::string x_pf_cell = cell(x_pf, "xl_pf");
    const std::string z_pf_cell = cell(z_pf, "zl_pf");
    std::printf("%-8.1f %-13s %-13s %-8.2f %-13s %-13s\n", eta,
                x_nopf_cell.c_str(), z_nopf_cell.c_str(),
                x_nopf.mean_ler > 0.0 ? z_nopf.mean_ler / x_nopf.mean_ler
                                      : 0.0,
                x_pf_cell.c_str(), z_pf_cell.c_str());
  }
  if (!capped_notes.empty()) {
    std::printf("\n* the cell averages trials that stopped at the "
                "%zu-window cap short of %zu logical errors:\n",
                kMaxWindows, errors);
    for (const std::string& note : capped_notes) {
      std::printf("  %s\n", note.c_str());
    }
  }
  cli.report.wall_ms = timer.ms();
  std::printf(
      "\nexpected: eta = 0.5 is the symmetric channel (Z/X ~ 1); rising "
      "eta suppresses X_L errors and\ninflates Z_L errors, while the Pauli "
      "frame stays LER-neutral throughout.\n");
  return cli.finish();
}
