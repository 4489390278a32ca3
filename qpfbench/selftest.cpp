// Self-tests of the benchmark's own machinery: the percentile rule, the
// weighted merge of latency samples, and self-time subtraction on a
// synthetic probe chain driven by a fake clock.  Exit code 0 when all
// pass.
#include <cmath>
#include <iostream>
#include <stdexcept>

#include "circuit/circuit.h"
#include "probe.h"

namespace {

int failures = 0;

void check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::cerr << "FAIL: " << what << "\n";
  }
}

template <typename F>
bool refuses(F&& f) {
  try {
    f();
  } catch (const std::domain_error&) {
    return true;
  }
  return false;
}

void percentile_rule() {
  std::vector<double> values;
  for (int i = 1; i <= 100; ++i) {
    values.push_back(i);
  }
  check(qpfbench::percentile(values, 0.50) == 50.0, "p50 of 1..100 is 50");
  check(qpfbench::percentile(values, 0.90) == 90.0,
        "p90 of 100 samples has ten beyond it");
  check(refuses([&] { (void)qpfbench::percentile(values, 0.91); }),
        "p91 of 100 samples is refused (nine beyond)");
  check(refuses([&] { (void)qpfbench::percentile(values, 0.99); }),
        "p99 of 100 samples is refused");
  values.resize(1000);
  for (int i = 0; i < 1000; ++i) {
    values[i] = i + 1;
  }
  check(qpfbench::percentile(values, 0.99) == 990.0,
        "p99 of 1000 samples has ten beyond it");
  check(refuses([] { (void)qpfbench::percentile(std::vector<double>{}, 0.5); }),
        "an empty sample is refused");
}

void sample_merge() {
  // Two streams: 1000 ones, and 3000 twos held in a 1000-value buffer,
  // so each held two stands for three values.
  qpfbench::SampleBuffer ones(1000);
  qpfbench::SampleBuffer twos(1000);
  for (int i = 0; i < 1000; ++i) {
    ones.add(1.0);
  }
  for (int i = 0; i < 3000; ++i) {
    twos.add(2.0);
  }
  check(twos.size() == 1000 && twos.seen() == 3000, "reservoir keeps its cap");
  const std::vector<qpfbench::Sample> merged =
      qpfbench::merge_samples({&ones, &twos});
  check(qpfbench::percentile(merged, 0.20) == 1.0, "p20 of the merge is 1");
  check(qpfbench::percentile(merged, 0.50) == 2.0,
        "p50 of the merge is 2 (three quarters of the weight)");

  qpfbench::SampleBuffer ramp(2000);
  for (int i = 0; i < 1000000; ++i) {
    ramp.add(i);
  }
  const double median = qpfbench::percentile(qpfbench::merge_samples({&ramp}),
                                             0.50);
  check(std::abs(median - 500000.0) < 50000.0,
        "a reservoir's median tracks the stream's");
}

// --- Synthetic probe chain -------------------------------------------

std::int64_t fake_now = 0;
std::int64_t fake_clock() { return fake_now; }

/// A core whose calls take known fake time.
class FakeCore final : public qpf::arch::Core {
 public:
  void create_qubits(std::size_t) override {}
  void remove_qubits() override {}
  void add(const qpf::Circuit&) override { fake_now += 100; }
  void execute() override { fake_now += 1000; }
  [[nodiscard]] qpf::arch::BinaryState get_state() const override {
    fake_now += 10;
    return qpf::arch::BinaryState(1, qpf::arch::BinaryValue::kZero);
  }
  [[nodiscard]] std::optional<qpf::sv::StateVector> get_quantum_state()
      const override {
    return std::nullopt;
  }
  [[nodiscard]] std::size_t num_qubits() const override { return 1; }
};

/// A layer that spends `cost` fake ns per call before forwarding.
class CostLayer final : public qpf::arch::Layer {
 public:
  CostLayer(qpf::arch::Core* lower, std::int64_t cost)
      : Layer(lower), cost_(cost) {}
  void add(const qpf::Circuit& c) override {
    fake_now += cost_;
    lower().add(c);
  }
  void execute() override {
    fake_now += cost_;
    lower().execute();
  }
  [[nodiscard]] qpf::arch::BinaryState get_state() const override {
    fake_now += cost_;
    return lower().get_state();
  }

 private:
  std::int64_t cost_;
};

void self_time_chain() {
  constexpr qpfbench::ProbeNames kNames{"t.add", "t.execute", "t.get_state"};
  qpfbench::ProbeContext context;
  FakeCore core;
  qpfbench::ProbeLayer into_core(&core, &context, kNames, true,
                                 &fake_clock);
  CostLayer lower_layer(&into_core, 3);
  qpfbench::ProbeLayer into_lower(&lower_layer, &context, kNames, false,
                                  &fake_clock);
  CostLayer upper_layer(&into_lower, 7);
  qpfbench::ProbeLayer into_upper(&upper_layer, &context, kNames, false,
                                  &fake_clock);

  qpf::Circuit circuit;
  qpf::TimeSlot first;
  first.add(qpf::Operation(qpf::GateType::kH, 0));
  first.add(qpf::Operation(qpf::GateType::kX, 1));
  circuit.append_slot(first);
  qpf::TimeSlot second;
  second.add(qpf::Operation(qpf::GateType::kMeasureZ, 0));
  circuit.append_slot(second);

  into_upper.add(circuit);
  into_upper.execute();
  (void)into_upper.get_state();

  const std::vector<std::int64_t> self = qpfbench::self_times(
      {into_upper.stats(0).inclusive_ns(), into_lower.stats(0).inclusive_ns(),
       into_core.stats(0).inclusive_ns()});
  check(self.size() == 3, "one self time per element");
  check(self[0] == 21, "upper layer self time is 3 x 7");
  check(self[1] == 9, "lower layer self time is 3 x 3");
  check(self[2] == 1110, "core self time is its inclusive time");
  check(into_upper.stats(0).ops_in == 3 && into_upper.stats(0).slots_in == 2,
        "probes count ops and slots in");
  check(into_core.stats(0).measurements_in == 1 &&
            into_upper.stats(0).measurements_in == 0,
        "only a counting probe counts measurements");
  check(into_core.stats(0).add_ns == 100 &&
            into_core.stats(0).execute_ns == 1000 &&
            into_core.stats(0).get_state_ns == 10,
        "per-call inclusive times");

  // The phase switch files calls apart.
  context.phase = 1;
  into_upper.execute();
  check(into_upper.stats(0).execute_calls == 1 &&
            into_upper.stats(1).execute_calls == 1,
        "calls land in the current phase");

  // Spans: a recorded call nests under the open span.
  qpfbench::SpanLog spans;
  context.spans = &spans;
  context.record = true;
  context.open = spans.add(qpfbench::Span{"root", fake_now, fake_now, -1, 7});
  into_upper.execute();
  check(spans.size() == 4, "one span per probed call");
}

}  // namespace

int main() {
  percentile_rule();
  sample_merge();
  self_time_chain();
  if (failures != 0) {
    std::cerr << "qpfbench_selftest: " << failures << " failure(s)\n";
    return 1;
  }
  std::cerr << "qpfbench_selftest: all checks passed\n";
  return 0;
}
