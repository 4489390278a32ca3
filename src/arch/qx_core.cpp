#include "arch/qx_core.h"

#include <stdexcept>

#include "circuit/error.h"

namespace qpf::arch {

void QxCore::create_qubits(std::size_t count) {
  if (count == 0) {
    throw StackConfigError("QxCore", "zero qubits requested");
  }
  binary_.assign(binary_.size() + count, BinaryValue::kZero);
  simulator_ = std::make_unique<sv::Simulator>(binary_.size(), seed_);
  queue_.clear();
}

void QxCore::remove_qubits() {
  simulator_.reset();
  binary_.clear();
  queue_.clear();
}

void QxCore::add(const Circuit& circuit) {
  if (circuit.min_register_size() > binary_.size()) {
    throw StackConfigError("QxCore", "circuit exceeds register");
  }
  queue_.push_back(circuit);
}

void QxCore::execute() {
  if (simulator_ == nullptr) {
    throw std::logic_error("QxCore: no qubits allocated");
  }
  std::vector<Circuit> pending;
  pending.swap(queue_);  // cleared even if a gate below throws
  for (const Circuit& circuit : pending) {
    for (const SlotView slot : circuit) {
      for (const Operation& op : slot) {
        switch (category(op.gate())) {
          case GateCategory::kInitialization:
            simulator_->reset(op.qubit(0));
            binary_[op.qubit(0)] = BinaryValue::kZero;
            break;
          case GateCategory::kMeasurement:
            binary_[op.qubit(0)] = simulator_->measure(op.qubit(0)).value
                                       ? BinaryValue::kOne
                                       : BinaryValue::kZero;
            break;
          default:
            simulator_->apply_unitary(op);
            for (int i = 0; i < op.arity(); ++i) {
              if (op.gate() != GateType::kI) {
                binary_[op.qubit(i)] = BinaryValue::kUnknown;
              }
            }
            break;
        }
      }
    }
  }
}

BinaryState QxCore::get_state() const { return binary_; }

std::optional<sv::StateVector> QxCore::get_quantum_state() const {
  if (simulator_ == nullptr) {
    return std::nullopt;
  }
  return simulator_->state();
}

void QxCore::save_state(journal::SnapshotWriter& out) const {
  out.tag("qx-core");
  out.write_u64(seed_);
  out.write_bool(simulator_ != nullptr);
  if (simulator_ != nullptr) {
    simulator_->save(out);
  }
  out.write_size(binary_.size());
  for (const BinaryValue v : binary_) {
    out.write_u8(static_cast<std::uint8_t>(v));
  }
  out.write_size(queue_.size());
  for (const Circuit& circuit : queue_) {
    out.write_circuit(circuit);
  }
}

void QxCore::load_state(journal::SnapshotReader& in) {
  in.expect_tag("qx-core");
  seed_ = in.read_u64();
  if (in.read_bool()) {
    simulator_ = std::make_unique<sv::Simulator>(sv::Simulator::load(in));
  } else {
    simulator_.reset();
  }
  const std::size_t register_size = in.read_size();
  binary_.clear();
  for (std::size_t i = 0; i < register_size; ++i) {
    const std::uint8_t v = in.read_u8();
    if (v > static_cast<std::uint8_t>(BinaryValue::kUnknown)) {
      throw CheckpointError("qx core snapshot: invalid binary value");
    }
    binary_.push_back(static_cast<BinaryValue>(v));
  }
  const std::size_t queued = in.read_size();
  queue_.clear();
  for (std::size_t i = 0; i < queued; ++i) {
    queue_.push_back(in.read_circuit());
  }
  if (simulator_ != nullptr && simulator_->num_qubits() != binary_.size()) {
    throw CheckpointError("qx core snapshot: register size mismatch");
  }
}

}  // namespace qpf::arch
