#include "arch/chp_core.h"

#include <algorithm>
#include <stdexcept>

#include "circuit/error.h"

namespace qpf::arch {

void ChpCore::create_qubits(std::size_t count) {
  if (count == 0) {
    throw StackConfigError("ChpCore", "zero qubits requested");
  }
  binary_.assign(binary_.size() + count, BinaryValue::kUnknown);
  tableau_ = std::make_unique<stab::Tableau>(binary_.size(), seed_);
  // A fresh tableau is |0...0>.
  for (auto& value : binary_) {
    value = BinaryValue::kZero;
  }
  queued_ = 0;
}

void ChpCore::remove_qubits() {
  tableau_.reset();
  binary_.clear();
  queued_ = 0;
}

void ChpCore::add(const Circuit& circuit) {
  if (circuit.min_register_size() > binary_.size()) {
    throw StackConfigError("ChpCore", "circuit exceeds register");
  }
  // Copy into a slot the queue already owns, reusing its capacity.
  if (queued_ == queue_.size()) {
    queue_.push_back(circuit);
  } else {
    queue_[queued_] = circuit;
  }
  ++queued_;
}

void ChpCore::execute() {
  if (tableau_ == nullptr) {
    throw std::logic_error("ChpCore: no qubits allocated");
  }
  const std::size_t pending = queued_;
  queued_ = 0;  // cleared even if a gate below throws
  for (std::size_t c = 0; c < pending; ++c) {
    for (const Operation& op : queue_[c].operations()) {
      switch (category(op.gate())) {
        case GateCategory::kInitialization:
          tableau_->reset(op.qubit(0));
          binary_[op.qubit(0)] = BinaryValue::kZero;
          break;
        case GateCategory::kMeasurement:
          binary_[op.qubit(0)] = tableau_->measure(op.qubit(0)).value
                                     ? BinaryValue::kOne
                                     : BinaryValue::kZero;
          break;
        default:
          tableau_->apply_unitary(op);
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

BinaryState ChpCore::get_state() const { return binary_; }

void ChpCore::peek(std::span<const stab::SparsePauli> observables,
                   std::span<int> values) const {
  if (tableau_ == nullptr) {
    throw std::logic_error("ChpCore: no qubits allocated");
  }
  if (queued_ != 0) {
    std::fill(values.begin(), values.end(), 0);
    return;
  }
  tableau_->expectations(observables, values);
}

std::optional<sv::StateVector> ChpCore::get_quantum_state() const {
  return std::nullopt;  // stabilizer backends expose no amplitudes
}

void write_chp_core_section(journal::SnapshotWriter& out, std::uint64_t seed,
                            const stab::Tableau* tableau,
                            const BinaryState& binary,
                            std::span<const Circuit> queue) {
  out.tag("chp-core");
  out.write_u64(seed);
  out.write_bool(tableau != nullptr);
  if (tableau != nullptr) {
    tableau->save(out);
  }
  out.write_size(binary.size());
  for (const BinaryValue v : binary) {
    out.write_u8(static_cast<std::uint8_t>(v));
  }
  out.write_size(queue.size());
  for (const Circuit& circuit : queue) {
    out.write_circuit(circuit);
  }
}

ChpCoreSection read_chp_core_section(journal::SnapshotReader& in) {
  in.expect_tag("chp-core");
  ChpCoreSection section;
  section.seed = in.read_u64();
  if (in.read_bool()) {
    section.tableau = std::make_unique<stab::Tableau>(stab::Tableau::load(in));
  }
  const std::size_t register_size = in.read_size();
  if (section.tableau == nullptr && register_size != 0) {
    throw CheckpointError("chp core snapshot: register without a tableau");
  }
  for (std::size_t i = 0; i < register_size; ++i) {
    const std::uint8_t v = in.read_u8();
    if (v > static_cast<std::uint8_t>(BinaryValue::kUnknown)) {
      throw CheckpointError("chp core snapshot: invalid binary value");
    }
    section.binary.push_back(static_cast<BinaryValue>(v));
  }
  const std::size_t queued = in.read_size();
  for (std::size_t i = 0; i < queued; ++i) {
    section.queue.push_back(in.read_circuit());
  }
  if (section.tableau != nullptr &&
      section.tableau->num_qubits() != section.binary.size()) {
    throw CheckpointError("chp core snapshot: register size mismatch");
  }
  return section;
}

void ChpCore::save_state(journal::SnapshotWriter& out) const {
  write_chp_core_section(out, seed_, tableau_.get(), binary_,
                         {queue_.data(), queued_});
}

void ChpCore::load_state(journal::SnapshotReader& in) {
  ChpCoreSection section = read_chp_core_section(in);
  seed_ = section.seed;
  tableau_ = std::move(section.tableau);
  binary_ = std::move(section.binary);
  queue_ = std::move(section.queue);
  queued_ = queue_.size();
}

}  // namespace qpf::arch
