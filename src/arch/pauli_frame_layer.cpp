#include "arch/pauli_frame_layer.h"

#include <algorithm>

#include "circuit/bug_plant.h"
#include "circuit/error.h"

namespace qpf::arch {

void PauliFrameLayer::add(const Circuit& circuit) {
  require_frame();
  // Checked up front so a circuit that does not fit leaves the frame
  // untouched instead of failing halfway through its records.
  if (circuit.min_register_size() > frame_->num_qubits()) {
    throw StackConfigError("PauliFrameLayer", "circuit exceeds register");
  }
  const std::size_t uncorrectable_before = frame_->health().uncorrectable;
  lower().add(frame_->process(circuit, rewritten_));
  if (frame_->health().uncorrectable > uncorrectable_before) {
    // Graceful degradation: a record was lost while rewriting this
    // circuit.  Flush the remaining records so the frame re-enters a
    // known-clean state; the lost Pauli is now a physical error that
    // the QEC layers above absorb like any other fault.
    const Circuit corrections = frame_->flush_all();
    if (!corrections.empty()) {
      lower().add(corrections);
    }
    ++recovery_flushes_;
  }
}

BinaryState PauliFrameLayer::get_state() const {
  require_frame();
  BinaryState state = lower().get_state();
  for (Qubit q = 0; q < state.size(); ++q) {
    if (state[q] == BinaryValue::kUnknown) {
      continue;
    }
    const bool raw = state[q] == BinaryValue::kOne;
    bool corrected = frame_->correct_measurement(q, raw);
    if (plant::bug(6)) {  // mutation hook: correct with Z instead of X
      corrected = raw != pf::has_z(frame_->record(q));
    }
    state[q] = corrected ? BinaryValue::kOne : BinaryValue::kZero;
  }
  return state;
}

void PauliFrameLayer::peek(std::span<const stab::SparsePauli> observables,
                           std::span<int> values) const {
  require_frame();
  if (protection_ != pf::Protection::kNone) {
    std::fill(values.begin(), values.end(), 0);
    return;
  }
  lower().peek(observables, values);
  frame_->correct_values(observables, values);
}

void PauliFrameLayer::flush() {
  require_frame();
  const Circuit corrections = frame_->flush_all();
  if (!corrections.empty()) {
    lower().add(corrections);
    lower().execute();
  }
}

void PauliFrameLayer::save_state(journal::SnapshotWriter& out) const {
  out.tag("pauli-frame-layer");
  out.write_u8(static_cast<std::uint8_t>(protection_));
  out.write_size(recovery_flushes_);
  out.write_bool(frame_.has_value());
  if (frame_.has_value()) {
    frame_->save(out);
  }
  lower().save_state(out);
}

void PauliFrameLayer::load_state(journal::SnapshotReader& in) {
  in.expect_tag("pauli-frame-layer");
  const std::uint8_t protection = in.read_u8();
  if (protection != static_cast<std::uint8_t>(protection_)) {
    throw CheckpointError(
        "pauli frame layer snapshot: protection mode differs from the "
        "configured stack");
  }
  recovery_flushes_ = in.read_size();
  if (in.read_bool()) {
    frame_ = pf::PauliFrame::load(in);
  } else {
    frame_.reset();
  }
  lower().load_state(in);
}

}  // namespace qpf::arch
