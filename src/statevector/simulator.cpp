#include "statevector/simulator.h"

#include <cmath>
#include <stdexcept>

namespace qpf::sv {

Simulator::Simulator(std::size_t num_qubits, std::uint64_t seed)
    : state_(num_qubits), rng_(seed) {}

void Simulator::apply_single(const Matrix2& m, Qubit q) {
  auto& amps = state_.amplitudes();
  const std::size_t bit = std::size_t{1} << q;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if (i & bit) {
      continue;  // visit each pair once, from its |0> member
    }
    const Complex a0 = amps[i];
    const Complex a1 = amps[i | bit];
    amps[i] = m[0] * a0 + m[1] * a1;
    amps[i | bit] = m[2] * a0 + m[3] * a1;
  }
}

void Simulator::apply_cnot(Qubit control, Qubit target) {
  auto& amps = state_.amplitudes();
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if ((i & cbit) && !(i & tbit)) {
      std::swap(amps[i], amps[i | tbit]);
    }
  }
}

void Simulator::apply_cz(Qubit control, Qubit target) {
  auto& amps = state_.amplitudes();
  const std::size_t cbit = std::size_t{1} << control;
  const std::size_t tbit = std::size_t{1} << target;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if ((i & cbit) && (i & tbit)) {
      amps[i] = -amps[i];
    }
  }
}

void Simulator::apply_swap(Qubit a, Qubit b) {
  auto& amps = state_.amplitudes();
  const std::size_t abit = std::size_t{1} << a;
  const std::size_t bbit = std::size_t{1} << b;
  for (std::size_t i = 0; i < amps.size(); ++i) {
    if ((i & abit) && !(i & bbit)) {
      std::swap(amps[i], amps[(i & ~abit) | bbit]);
    }
  }
}

void Simulator::apply_unitary(const Operation& op) {
  const GateType g = op.gate();
  if (!is_unitary(g)) {
    throw std::invalid_argument("apply_unitary: prep/measure not unitary");
  }
  if (op.qubit(0) >= num_qubits() ||
      (op.arity() == 2 && op.qubit(1) >= num_qubits())) {
    throw std::out_of_range("apply_unitary: qubit index out of range");
  }
  switch (g) {
    case GateType::kCnot:
      apply_cnot(op.control(), op.target());
      return;
    case GateType::kCz:
      apply_cz(op.control(), op.target());
      return;
    case GateType::kSwap:
      apply_swap(op.control(), op.target());
      return;
    default:
      apply_single(single_qubit_matrix(g), op.qubit(0));
      return;
  }
}

void Simulator::collapse(Qubit q, bool outcome, double probability) {
  auto& amps = state_.amplitudes();
  const std::size_t bit = std::size_t{1} << q;
  const double scale = 1.0 / std::sqrt(probability);
  for (std::size_t i = 0; i < amps.size(); ++i) {
    const bool one = (i & bit) != 0;
    if (one == outcome) {
      amps[i] *= scale;
    } else {
      amps[i] = {0.0, 0.0};
    }
  }
}

MeasureResult Simulator::measure(Qubit q) {
  if (q >= num_qubits()) {
    throw std::out_of_range("measure: qubit index out of range");
  }
  const double p1 = state_.probability_one(q);
  MeasureResult result;
  constexpr double kEps = 1e-12;
  if (p1 < kEps) {
    result = {.value = false, .deterministic = true};
    collapse(q, false, 1.0 - p1);
  } else if (p1 > 1.0 - kEps) {
    result = {.value = true, .deterministic = true};
    collapse(q, true, p1);
  } else {
    std::uniform_real_distribution<double> dist(0.0, 1.0);
    const bool one = dist(rng_) < p1;
    result = {.value = one, .deterministic = false};
    collapse(q, one, one ? p1 : 1.0 - p1);
  }
  return result;
}

void Simulator::reset(Qubit q) {
  if (measure(q).value) {
    apply_single(single_qubit_matrix(GateType::kX), q);
  }
}

void Simulator::execute(const Operation& op) {
  switch (category(op.gate())) {
    case GateCategory::kInitialization:
      reset(op.qubit(0));
      return;
    case GateCategory::kMeasurement:
      measurements_.push_back(measure(op.qubit(0)));
      return;
    default:
      apply_unitary(op);
      return;
  }
}

void Simulator::execute(const Circuit& circuit) {
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      execute(op);
    }
  }
}

std::vector<MeasureResult> Simulator::take_measurements() {
  std::vector<MeasureResult> out;
  out.swap(measurements_);
  return out;
}

void Simulator::save(journal::SnapshotWriter& out) const {
  out.tag("simulator");
  state_.save(out);
  out.write_rng(rng_);
  out.write_size(measurements_.size());
  for (const MeasureResult& m : measurements_) {
    out.write_bool(m.value);
    out.write_bool(m.deterministic);
  }
}

Simulator Simulator::load(journal::SnapshotReader& in) {
  in.expect_tag("simulator");
  StateVector state = StateVector::load(in);
  Simulator simulator(state.num_qubits());
  simulator.state_ = std::move(state);
  simulator.rng_ = in.read_rng();
  const std::size_t pending = in.read_size();
  simulator.measurements_.clear();
  for (std::size_t i = 0; i < pending; ++i) {
    MeasureResult m;
    m.value = in.read_bool();
    m.deterministic = in.read_bool();
    simulator.measurements_.push_back(m);
  }
  return simulator;
}

}  // namespace qpf::sv
