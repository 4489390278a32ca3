#include "arch/ninja_star_layer.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "arch/timing_layer.h"
#include "circuit/error.h"

namespace qpf::arch {

using qec::CheckType;
using qec::DanceMode;
using qec::NinjaStar;
using qec::StateValue;
using qec::Syndrome;

namespace {

/// Reads measured qubits of `state` for qec::NinjaStar's readout.
struct Measured {
  const BinaryState& state;
  bool operator()(Qubit q) const { return measured_one(state, q); }
};

}  // namespace

NinjaStarLayer::NinjaStarLayer(Core* lower)
    : NinjaStarLayer(lower, Options{}) {}

NinjaStarLayer::NinjaStarLayer(Core* lower, Options options)
    : Layer(lower),
      options_(options),
      layout_(options.distance, options.esm_pattern) {
  if (options.distance > NinjaStar::kMaxDistance) {
    throw StackConfigError(
        "NinjaStarLayer",
        "distance " + std::to_string(options.distance) +
            " exceeds the largest supported, " +
            std::to_string(NinjaStar::kMaxDistance));
  }
}

void NinjaStarLayer::create_qubits(std::size_t count) {
  const std::size_t per_star = layout_.num_qubits();
  lower().create_qubits(count * per_star);
  stars_.clear();
  const std::size_t stars = lower().num_qubits() / per_star;
  stars_.reserve(stars);
  for (std::size_t i = 0; i < stars; ++i) {
    stars_.emplace_back(static_cast<Qubit>(i * per_star), &layout_);
  }
}

void NinjaStarLayer::remove_qubits() {
  lower().remove_qubits();
  stars_.clear();
  queue_.clear();
}

void NinjaStarLayer::add(const Circuit& logical_circuit) {
  if (logical_circuit.min_register_size() > stars_.size()) {
    throw StackConfigError("NinjaStarLayer", "logical qubit out of range");
  }
  queue_.push_back(logical_circuit);
}

void NinjaStarLayer::execute() {
  std::vector<Circuit> pending;
  pending.swap(queue_);
  for (const Circuit& circuit : pending) {
    for (const SlotView slot : circuit) {
      for (const Operation& op : slot) {
        apply_logical(op);
      }
    }
  }
}

BinaryState NinjaStarLayer::get_state() const {
  BinaryState state;
  state.reserve(stars_.size());
  for (const NinjaStar& star : stars_) {
    switch (star.state()) {
      case StateValue::kZero:
        state.push_back(BinaryValue::kZero);
        break;
      case StateValue::kOne:
        state.push_back(BinaryValue::kOne);
        break;
      case StateValue::kUnknown:
        state.push_back(BinaryValue::kUnknown);
        break;
    }
  }
  return state;
}

NinjaStar& NinjaStarLayer::star(Qubit logical) {
  if (logical >= stars_.size()) {
    throw std::out_of_range("NinjaStarLayer: logical qubit out of range");
  }
  return stars_[logical];
}

const NinjaStar& NinjaStarLayer::star(Qubit logical) const {
  if (logical >= stars_.size()) {
    throw std::out_of_range("NinjaStarLayer: logical qubit out of range");
  }
  return stars_[logical];
}

void NinjaStarLayer::run_lower(const Circuit& circuit) {
  lower().add(circuit);
  lower().execute();
}

bool NinjaStarLayer::read(const std::vector<stab::SparsePauli>& observables) {
  values_.resize(observables.size());
  lower().peek(observables, values_);
  return std::find(values_.begin(), values_.end(), 0) == values_.end();
}

void NinjaStarLayer::run_corrections(std::string_view name,
                                     const std::vector<Operation>& ops) {
  if (ops.empty()) {
    return;
  }
  corrections_.clear();
  corrections_.set_name(name);
  corrections_.append_slot(SlotView(ops.data(), ops.data() + ops.size()));
  run_lower(corrections_);
}

Syndrome NinjaStarLayer::run_esm_round(NinjaStar& star) {
  if (watchdog_ != nullptr) {
    watchdog_->begin_round();
  }
  run_lower(star.esm_circuit());
  const BinaryState state = lower().get_state();
  const Syndrome syndrome = star.round_syndrome(Measured{state});
  if (watchdog_ != nullptr) {
    watchdog_->end_round();
  }
  return syndrome;
}

void NinjaStarLayer::initialize(Qubit logical, CheckType basis) {
  NinjaStar& s = star(logical);
  run_lower(s.reset_circuit());
  s.on_reset();
  if (basis == CheckType::kX) {
    // |+>_L: transversal H as *state preparation* (the lattice stays in
    // the normal orientation, unlike a logical H gate).
    run_lower(layout_.transversal_circuit(GateType::kH, s.base(), "plus-prep"));
    s.set_state(StateValue::kUnknown);
  }
  // The first ESM round projects the checks.  Gauge-fix only the
  // randomly projected group; real errors (the other group) defer to
  // the confirmation window below, whose agreement rule makes single
  // faults harmless.
  const Syndrome first = run_esm_round(s);
  run_corrections("init-corrections",
                  s.decode_gauge(first, basis == CheckType::kZ
                                            ? CheckType::kX
                                            : CheckType::kZ));
  // Complete d rounds of ESM with a regular decoded window.
  run_window(logical);
}

void NinjaStarLayer::initialize_injected(Qubit logical,
                                         const Circuit& center_preparation) {
  if (layout_.distance() != 3) {
    throw StackConfigError("NinjaStarLayer",
                           "initialize_injected: state injection needs d = 3");
  }
  NinjaStar& s = star(logical);
  run_lower(s.reset_circuit());
  s.on_reset();
  // |0>/|+> pattern: D0, D3, D5, D8 stay |0> (making Z0Z3 and Z5Z8
  // deterministic), D1, D2, D6, D7 go to |+> (making X1X2 and X6X7
  // deterministic); the injected state sits on D4.  All three logical
  // operators then restrict onto D4, so the stabilizer projection
  // preserves the full Bloch vector.
  Circuit pattern{"injection-pattern"};
  TimeSlot slot;
  for (int d : {1, 2, 6, 7}) {
    slot.add(Operation{GateType::kH, layout_.data_qubit(s.base(), d)});
  }
  pattern.append_slot(std::move(slot));
  run_lower(pattern);
  // Retarget the preparation gates onto the physical center qubit.
  Circuit center{"injection-center"};
  for (const SlotView prep_slot : center_preparation) {
    for (const Operation& op : prep_slot) {
      if (op.arity() != 1 || op.qubit(0) != 0) {
        throw StackConfigError(
            "NinjaStarLayer",
            "initialize_injected: preparation must be single-qubit gates "
            "on qubit 0");
      }
      center.append(op.gate(), layout_.data_qubit(s.base(), 4));
    }
  }
  run_lower(center);
  // Project into the code space and gauge-fix with corrections that
  // commute with the logical operators.
  const Syndrome first = run_esm_round(s);
  run_corrections("injection-corrections", s.decode_injection(first));
  s.set_state(StateValue::kUnknown);
  run_window(logical);
}

void NinjaStarLayer::run_window(Qubit logical) {
  NinjaStar& s = star(logical);
  // d - 1 fresh rounds (§5.3.1); the last two reach the decoder.
  const int rounds = layout_.distance() - 1;
  Syndrome r1 = 0;
  for (int round = 1; round < rounds; ++round) {
    r1 = run_esm_round(s);
  }
  const Syndrome r2 = run_esm_round(s);
  if (!options_.decoding_enabled) {
    (void)r1;
    s.set_carried_syndrome(r2);
    return;
  }
  // Deadline degrade: a budget overrun during this window's rounds
  // means the decode would land late — skip it and carry the syndrome
  // into the next window instead of back-dating the correction.
  if (watchdog_ != nullptr && watchdog_->consume_overrun()) {
    watchdog_->note_skipped_decode();
    s.set_carried_syndrome(r2);
    return;
  }
  run_corrections("window-corrections", s.decode_window(r1, r2));
}

bool NinjaStarLayer::has_observable_errors(Qubit logical) {
  return probe_syndrome(logical) != 0;
}

Syndrome NinjaStarLayer::probe_syndrome(Qubit logical) {
  NinjaStar& s = star(logical);
  if (read(s.esm_observables())) {
    // The checks come first, in measurement order; a -1 reads as 1.
    // Ancillas idle in this dance mode keep their carried bits, as in
    // round_syndrome().
    Syndrome syndrome = s.carried_syndrome();
    const std::vector<int>& order = s.esm_measurement_order();
    for (std::size_t k = 0; k < order.size(); ++k) {
      const Syndrome bit = Syndrome{1} << order[k];
      syndrome = values_[k] < 0 ? syndrome | bit : syndrome & ~bit;
    }
    return syndrome;
  }
  const Syndrome carried = s.carried_syndrome();
  const Syndrome probe = run_esm_round(s);
  // The probe round must not perturb the decoder bookkeeping.
  s.set_carried_syndrome(carried);
  return probe;
}

int NinjaStarLayer::measure_logical_stabilizer(Qubit logical,
                                               CheckType basis) {
  NinjaStar& s = star(logical);
  if (read(s.logical_stabilizer_observables(basis))) {
    return values_[0];
  }
  run_lower(s.logical_stabilizer_circuit(basis));
  return measured_one(lower().get_state(), layout_.ancilla_qubit(s.base(), 0))
             ? -1
             : +1;
}

int NinjaStarLayer::measure_logical(Qubit logical) {
  NinjaStar& s = star(logical);
  run_lower(s.measure_circuit());
  const BinaryState raw = lower().get_state();
  // Partial (Z-ancilla only) ESM rounds accompany the measurement
  // procedure (§5.1.2); the classical fix comes from the readout string
  // itself (NinjaStar::measured_sign).
  run_lower(layout_.esm_circuit(s.base(), s.orientation(), DanceMode::kZOnly));
  return s.measured_sign(Measured{raw});
}

void NinjaStarLayer::apply_logical(const Operation& op) {
  switch (op.gate()) {
    case GateType::kPrepZ:
      initialize(op.qubit(0), CheckType::kZ);
      return;
    case GateType::kMeasureZ:
      (void)measure_logical(op.qubit(0));
      return;
    case GateType::kI:
      run_window(op.qubit(0));
      return;
    case GateType::kX: {
      NinjaStar& s = star(op.qubit(0));
      run_lower(s.logical_x_circuit());
      s.on_logical_x();
      run_window(op.qubit(0));
      return;
    }
    case GateType::kZ: {
      NinjaStar& s = star(op.qubit(0));
      run_lower(s.logical_z_circuit());
      s.on_logical_z();
      run_window(op.qubit(0));
      return;
    }
    case GateType::kY: {
      // Y_L ~ X_L Z_L up to global phase.
      NinjaStar& s = star(op.qubit(0));
      run_lower(s.logical_z_circuit());
      run_lower(s.logical_x_circuit());
      s.on_logical_x();
      run_window(op.qubit(0));
      return;
    }
    case GateType::kH: {
      NinjaStar& s = star(op.qubit(0));
      run_lower(s.logical_h_circuit());
      s.on_logical_h();
      run_window(op.qubit(0));
      return;
    }
    case GateType::kCnot: {
      NinjaStar& c = star(op.control());
      NinjaStar& t = star(op.target());
      run_lower(NinjaStar::logical_cnot_circuit(c, t));
      NinjaStar::on_logical_cnot(c, t);
      run_window(op.control());
      run_window(op.target());
      return;
    }
    case GateType::kCz: {
      NinjaStar& a = star(op.control());
      NinjaStar& b = star(op.target());
      run_lower(NinjaStar::logical_cz_circuit(a, b));
      NinjaStar::on_logical_cz(a, b);
      run_window(op.control());
      run_window(op.target());
      return;
    }
    default:
      throw StackConfigError(
          "NinjaStarLayer", "no fault-tolerant implementation for " + op.str());
  }
}

void NinjaStarLayer::save_state(journal::SnapshotWriter& out) const {
  out.tag("ninja-star-layer");
  out.write_size(stars_.size());
  for (const NinjaStar& star : stars_) {
    star.save(out);
  }
  out.write_size(queue_.size());
  for (const Circuit& circuit : queue_) {
    out.write_circuit(circuit);
  }
  lower().save_state(out);
}

void NinjaStarLayer::load_state(journal::SnapshotReader& in) {
  in.expect_tag("ninja-star-layer");
  const std::size_t count = in.read_size();
  if (count != stars_.size()) {
    throw CheckpointError(
        "ninja star layer snapshot: logical qubit count differs from the "
        "configured stack (checkpoint " + std::to_string(count) + ", stack " +
        std::to_string(stars_.size()) + ")");
  }
  for (NinjaStar& star : stars_) {
    star.load(in);
  }
  const std::size_t queued = in.read_size();
  queue_.clear();
  for (std::size_t i = 0; i < queued; ++i) {
    queue_.push_back(in.read_circuit());
  }
  lower().load_state(in);
}

}  // namespace qpf::arch
