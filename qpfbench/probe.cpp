#include "probe.h"

namespace qpfbench {

ProbeStats& ProbeStats::operator+=(const ProbeStats& o) noexcept {
  add_calls += o.add_calls;
  execute_calls += o.execute_calls;
  get_state_calls += o.get_state_calls;
  ops_in += o.ops_in;
  slots_in += o.slots_in;
  measurements_in += o.measurements_in;
  add_ns += o.add_ns;
  execute_ns += o.execute_ns;
  get_state_ns += o.get_state_ns;
  return *this;
}

ProbeLayer::ProbeLayer(qpf::arch::Core* lower, ProbeContext* context,
                       ProbeNames names, bool count_measurements,
                       ClockFn clock)
    : Layer(lower),
      context_(context),
      names_(names),
      count_measurements_(count_measurements),
      clock_(clock) {}

std::int64_t ProbeLayer::open_span(const char* name,
                                   std::int64_t start) const {
  if (context_->spans == nullptr || !context_->record) {
    return -1;
  }
  const std::int64_t span = context_->spans->add(
      Span{name, start, start, context_->open, context_->item});
  if (span >= 0) {
    context_->open = span;
  }
  return span;
}

void ProbeLayer::close_span(std::int64_t span, std::int64_t parent,
                            std::int64_t end) const {
  if (span >= 0) {
    context_->spans->set_end(span, end);
    context_->open = parent;
  }
}

void ProbeLayer::add(const qpf::Circuit& circuit) {
  ProbeStats& s = current();
  ++s.add_calls;
  s.ops_in += circuit.num_operations();
  s.slots_in += circuit.num_slots();
  if (count_measurements_) {
    s.measurements_in += circuit.count(qpf::GateType::kMeasureZ);
  }
  const std::int64_t parent = context_->open;
  const std::int64_t t0 = clock_();
  const std::int64_t span = open_span(names_.add, t0);
  lower().add(circuit);
  const std::int64_t t1 = clock_();
  close_span(span, parent, t1);
  s.add_ns += t1 - t0;
}

void ProbeLayer::execute() {
  ProbeStats& s = current();
  ++s.execute_calls;
  const std::int64_t parent = context_->open;
  const std::int64_t t0 = clock_();
  const std::int64_t span = open_span(names_.execute, t0);
  lower().execute();
  const std::int64_t t1 = clock_();
  close_span(span, parent, t1);
  s.execute_ns += t1 - t0;
}

qpf::arch::BinaryState ProbeLayer::get_state() const {
  ProbeStats& s = current();
  ++s.get_state_calls;
  const std::int64_t parent = context_->open;
  const std::int64_t t0 = clock_();
  const std::int64_t span = open_span(names_.get_state, t0);
  qpf::arch::BinaryState state = lower().get_state();
  const std::int64_t t1 = clock_();
  close_span(span, parent, t1);
  s.get_state_ns += t1 - t0;
  return state;
}

std::vector<std::int64_t> self_times(
    const std::vector<std::int64_t>& inclusive) {
  std::vector<std::int64_t> self(inclusive.size());
  for (std::size_t i = 0; i < inclusive.size(); ++i) {
    self[i] = inclusive[i] - (i + 1 < inclusive.size() ? inclusive[i + 1] : 0);
  }
  return self;
}

}  // namespace qpfbench
