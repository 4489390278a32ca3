#include "qcu/qcu.h"

#include <stdexcept>
#include <string>

#include "circuit/error.h"

namespace qpf::qcu {

using arch::BinaryState;
using arch::BinaryValue;
using qec::CheckType;
using qec::DanceMode;
using qec::NinjaStar;
using qec::StateValue;
using qec::Syndrome;

namespace {

/// The QCU's read of a measurement result.  A readout can be lost below
/// the QCU: a ClassicalFaultLayer duplicate re-issues an operation in an
/// extra slot, where the ErrorLayer's idle noise can hit an ancilla
/// measured one slot earlier and leave the core no value for it.  That
/// is a fault of the run, reported as a typed QcuError naming the
/// qubit; arch::measured_one keeps its logic_error, which flags a bug
/// for every other caller.
bool read_result(const BinaryState& state, Qubit q) {
  if (state.at(q) == BinaryValue::kUnknown) {
    throw QcuError("QuantumControlUnit",
                   "readout of qubit " + std::to_string(q) +
                       " was lost: the core holds no measured value for it");
  }
  return state.at(q) == BinaryValue::kOne;
}

}  // namespace

QuantumControlUnit::QuantumControlUnit(arch::Core* pel, std::size_t slots,
                                       bool use_pauli_frame)
    : pel_(pel), table_(slots) {
  if (pel == nullptr) {
    throw QcuError("QuantumControlUnit", "null PEL");
  }
  pel_->remove_qubits();
  pel_->create_qubits(table_.num_physical_qubits());
  measurements_.assign(table_.num_physical_qubits(), std::nullopt);
  if (use_pauli_frame) {
    pfu_.emplace(table_.num_physical_qubits());
    arbiter_.emplace(
        *pfu_, [this](const Operation& op) { buffer_.append(op); },
        /*trace_enabled=*/false);
  }
}

void QuantumControlUnit::load(std::vector<Instruction> program) {
  program_ = std::move(program);
  pc_ = 0;
  halted_ = false;
}

void QuantumControlUnit::run() {
  while (step()) {
  }
}

bool QuantumControlUnit::step() {
  if (halted_ || pc_ >= program_.size()) {
    return false;
  }
  const Instruction instruction = program_[pc_++];
  ++stats_.instructions;
  exec(instruction);
  return !halted_ && pc_ < program_.size();
}

void QuantumControlUnit::issue(const Operation& op) {
  if (arbiter_) {
    const pf::Route route = arbiter_->submit(op);
    if (route == pf::Route::kPauliToPfu) {
      ++stats_.paulis_absorbed;
    }
  } else {
    buffer_.append(op);
  }
}

void QuantumControlUnit::flush_buffer() {
  if (buffer_.empty()) {
    return;
  }
  stats_.operations_to_pel += buffer_.num_operations();
  ++stats_.flushes;
  pel_->add(buffer_);
  pel_->execute();
  buffer_ = Circuit{};
}

BinaryState QuantumControlUnit::read_corrected_state() {
  flush_buffer();
  BinaryState state = pel_->get_state();
  if (pfu_) {
    for (Qubit q = 0; q < state.size(); ++q) {
      if (state[q] == BinaryValue::kUnknown) {
        continue;
      }
      const bool raw = state[q] == BinaryValue::kOne;
      state[q] = pfu_->map_measurement_result(q, raw) ? BinaryValue::kOne
                                                      : BinaryValue::kZero;
    }
  }
  return state;
}

bool QuantumControlUnit::read_bit(Qubit physical) {
  return read_result(read_corrected_state(), physical);
}

NinjaStar& QuantumControlUnit::star_of(PatchId patch) {
  if (patch >= stars_.size() || !stars_[patch].has_value()) {
    throw QcuError("QuantumControlUnit", "patch not alive");
  }
  return *stars_[patch];
}

Syndrome QuantumControlUnit::run_esm_round(NinjaStar& star) {
  for (const SlotView slot : star.esm_circuit()) {
    for (const Operation& op : slot) {
      issue(op);
    }
  }
  const BinaryState state = read_corrected_state();
  return star.round_syndrome(
      [&state](Qubit q) { return read_result(state, q); });
}

void QuantumControlUnit::run_window(NinjaStar& star) {
  ++stats_.qec_windows;
  const Syndrome r1 = run_esm_round(star);
  const Syndrome r2 = run_esm_round(star);
  for (const Operation& correction : star.decode_window(r1, r2)) {
    issue(correction);
  }
  flush_buffer();
}

void QuantumControlUnit::initialize_patch(NinjaStar& star) {
  for (const SlotView slot : star.reset_circuit()) {
    for (const Operation& op : slot) {
      issue(op);
    }
  }
  star.on_reset();
  const Syndrome first = run_esm_round(star);
  for (const Operation& correction :
       star.decode_gauge(first, CheckType::kX)) {
    issue(correction);
  }
  run_window(star);
}

void QuantumControlUnit::logical_measure(PatchId patch) {
  NinjaStar& star = star_of(patch);
  for (const SlotView slot : star.measure_circuit()) {
    for (const Operation& op : slot) {
      issue(op);
    }
  }
  const BinaryState data_state = read_corrected_state();
  // Partial ESM sweep accompanies the readout (§5.1.2); the classical
  // fix comes from the readout string itself (NinjaStar::measured_sign).
  const Circuit partial =
      layout_.esm_circuit(star.base(), star.orientation(), DanceMode::kZOnly);
  for (const SlotView slot : partial) {
    for (const Operation& op : slot) {
      issue(op);
    }
  }
  flush_buffer();
  star.measured_sign(
      [&data_state](Qubit q) { return read_result(data_state, q); });
}

void QuantumControlUnit::exec(const Instruction& instruction) {
  switch (instruction.op) {
    case Opcode::kNop:
      return;
    case Opcode::kHalt:
      flush_buffer();
      halted_ = true;
      return;
    case Opcode::kMapPatch: {
      table_.map_patch(instruction.a, instruction.b);
      if (instruction.a >= stars_.size()) {
        stars_.resize(instruction.a + 1);
      }
      stars_[instruction.a].emplace(table_.base(instruction.a), &layout_);
      initialize_patch(*stars_[instruction.a]);
      return;
    }
    case Opcode::kUnmapPatch:
      table_.unmap_patch(instruction.a);
      stars_[instruction.a].reset();
      return;
    case Opcode::kQecSlot:
      for (PatchId patch : table_.live_patches()) {
        run_window(star_of(patch));
      }
      return;
    case Opcode::kLogicalMeasure:
      logical_measure(instruction.a);
      return;
    case Opcode::kPrep: {
      const Qubit q = table_.translate(instruction.a);
      issue(Operation{GateType::kPrepZ, q});
      return;
    }
    case Opcode::kMeasure: {
      const Qubit q = table_.translate(instruction.a);
      issue(Operation{GateType::kMeasureZ, q});
      measurements_.at(q) = read_bit(q);
      return;
    }
    default: {
      const auto gate = gate_of(instruction.op);
      if (!gate.has_value()) {
        throw QcuError("QuantumControlUnit", "bad opcode");
      }
      if (is_two_qubit(instruction.op)) {
        issue(Operation{*gate, table_.translate(instruction.a),
                        table_.translate(instruction.b)});
      } else {
        issue(Operation{*gate, table_.translate(instruction.a)});
      }
      return;
    }
  }
}

std::optional<bool> QuantumControlUnit::measurement(VirtualQubit v) const {
  // Measurements are stored per *physical* qubit; translate through the
  // current table so relocations read back correctly.
  return measurements_.at(table_.translate(v));
}

StateValue QuantumControlUnit::logical_state(PatchId patch) const {
  if (patch >= stars_.size() || !stars_[patch].has_value()) {
    throw QcuError("QuantumControlUnit", "patch not alive");
  }
  return stars_[patch]->state();
}

}  // namespace qpf::qcu
