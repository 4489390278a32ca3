#include <map>

#include "workloads.h"

namespace qpfbench {

const std::vector<MetricSpec>& end_to_end_metrics() {
  static const std::vector<MetricSpec> specs{
      {"ops_per_s", "1/s"},
      {"op_p50_ms", "ms"},
      {"op_p99_ms", "ms"},
      {"setup_s", "s"},
      {"peak_rss_mb", "MB"},
  };
  return specs;
}

const std::vector<MetricSpec>& per_layer_metrics() {
  static const std::vector<MetricSpec> specs{
      {"arch.ninja.self_ns", "ns"},
      {"arch.ninja.circuits", "count"},
      {"arch.frame.self_ns", "ns"},
      {"arch.frame.ops_in", "count"},
      {"arch.frame.ops_out", "count"},
      {"arch.counter.self_ns", "ns"},
      {"arch.error.self_ns", "ns"},
      {"arch.error.ops_added", "count"},
      {"arch.chp.add_ns", "ns"},
      {"arch.chp.execute_ns", "ns"},
      {"arch.chp.get_state_ns", "ns"},
      {"arch.chp.ops", "count"},
      {"arch.chp.measurements", "count"},
      {"arch.get_state.calls", "count"},
      {"bench.diag_ns", "ns"},
      {"bench.trial_setup_ns", "ns"},
      {"window.ns_p50", "ns"},
      {"window.ns_p99", "ns"},
      {"exec.busy_frac", "ratio"},
      {"exec.commit_wait_ns", "ns"},
      {"exec.tail_s", "s"},
      {"circuit.qasm.parse_ns", "ns"},
      {"serve.session.submit_ns", "ns"},
      {"serve.protocol.codec_ns", "ns"},
      {"serve.protocol.bytes", "bytes"},
      {"serve.server.wait_ns", "ns"},
      {"serve.server.requests_executed", "count"},
      {"serve.server.requests_shed", "count"},
      {"serve.server.connections_dropped", "count"},
      {"trace.coverage", "ratio"},
      {"trace.overhead", "ratio"},
  };
  return specs;
}

void fill_metrics(Report& report, const std::vector<MetricSpec>& specs,
                  const std::vector<Metric>& measured) {
  std::map<std::string, const Metric*> by_name;
  for (const Metric& m : measured) {
    by_name[m.name] = &m;
  }
  for (const MetricSpec& spec : specs) {
    const auto found = by_name.find(spec.name);
    if (found == by_name.end()) {
      report.add(spec.name, 0.0, spec.unit, "not reached by this workload");
      continue;
    }
    const Metric& m = *found->second;
    if (m.unit != spec.unit) {
      report.problem("metric " + m.name + " measured in " + m.unit +
                     ", declared in " + spec.unit);
    }
    report.add(m.name, m.value, spec.unit, m.detail);
    by_name.erase(found);
  }
  for (const auto& [name, m] : by_name) {
    report.problem("metric " + name + " is not declared");
  }
}

}  // namespace qpfbench
