// The benchmark's workloads and the metric names every run prints.
#pragma once

#include <string>
#include <utility>
#include <vector>

#include "common.h"

namespace qpfbench {

/// The seed the recorded LER digests belong to (and --seed's default).
inline constexpr std::uint64_t kDefaultSeed = 1;

/// Untraced runs report the median over segments of this length.
inline constexpr std::int64_t kSegmentNs = 500'000'000;

/// Whole segments in a run of `seconds`.
[[nodiscard]] inline std::size_t segments_in(double seconds) {
  return static_cast<std::size_t>(seconds * 1e9 /
                                  static_cast<double>(kSegmentNs));
}

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// Printed by every untraced run, on every workload.
[[nodiscard]] const std::vector<MetricSpec>& end_to_end_metrics();
/// Printed by every traced run; a layer a workload does not reach
/// reports 0.
[[nodiscard]] const std::vector<MetricSpec>& per_layer_metrics();

/// Copy `measured` into a report in `specs` order, filling 0 for every
/// spec the workload did not measure; a measured metric outside `specs`
/// or with another unit is a bug and becomes a failed check.
void fill_metrics(Report& report, const std::vector<MetricSpec>& specs,
                  const std::vector<Metric>& measured);

[[nodiscard]] bool is_ler_workload(const std::string& name);
[[nodiscard]] bool is_serve_workload(const std::string& name);

/// Run one workload; the report holds the measured metrics (unordered,
/// possibly a subset) plus the correctness verdict.
[[nodiscard]] Report run_ler(const RunArgs& args);
[[nodiscard]] Report run_serve(const RunArgs& args);

}  // namespace qpfbench
