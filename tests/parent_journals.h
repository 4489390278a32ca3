// The campaign grid behind tests/golden/parent-journals/: every entry
// was run with run_ler_campaign on the ChpCore stack, and its journal
// committed as <name>.jsonl.  ParentJournalTest reruns each one and
// compares bytes, so an LER core that changes any outcome fails it.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "ler_common.h"

namespace qpf::testing_support {

struct ParentJournal {
  std::string name;  ///< file stem under tests/golden/parent-journals/
  bench::CampaignOptions options;
};

/// 2 trials x 2 logical errors each, capped at 1500 windows: frame on
/// and off x both bases x PER {3e-4, 1e-3, 5e-3} at d = 3; both frame
/// settings at d = 5 and d = 7 (PER 1e-3); and one jobs = 2 campaign.
inline std::vector<ParentJournal> parent_journals() {
  std::vector<ParentJournal> grid;
  std::uint64_t seed = 1701;
  const auto add = [&](int distance, double per, bool frame,
                       qec::CheckType basis, std::size_t jobs,
                       const std::string& per_name) {
    ParentJournal entry;
    entry.name = "d" + std::to_string(distance) + (frame ? "-pf-" : "-nopf-") +
                 (basis == qec::CheckType::kZ ? "z-" : "x-") + per_name +
                 (jobs > 1 ? "-jobs" + std::to_string(jobs) : "");
    bench::CampaignOptions& options = entry.options;
    options.config.physical_error_rate = per;
    options.config.with_pauli_frame = frame;
    options.config.basis = basis;
    options.config.target_logical_errors = 2;
    options.config.max_windows = 1500;
    options.config.seed = seed++;
    options.config.ninja_options.distance = distance;
    options.runs = 2;
    options.jobs = jobs;
    grid.push_back(entry);
  };
  const struct {
    double per;
    const char* name;
  } rates[] = {{3e-4, "3e-4"}, {1e-3, "1e-3"}, {5e-3, "5e-3"}};
  for (const auto& rate : rates) {
    for (const bool frame : {false, true}) {
      for (const qec::CheckType basis : {qec::CheckType::kZ,
                                         qec::CheckType::kX}) {
        add(3, rate.per, frame, basis, 1, rate.name);
      }
    }
  }
  for (const int distance : {5, 7}) {
    add(distance, 1e-3, true, qec::CheckType::kZ, 1, "1e-3");
    add(distance, 1e-3, false, qec::CheckType::kX, 1, "1e-3");
  }
  add(3, 1e-3, false, qec::CheckType::kX, 2, "1e-3");
  return grid;
}

}  // namespace qpf::testing_support
