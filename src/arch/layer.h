// Layer: base class for everything stacked on top of a core (Fig 4.3b).
//
// A layer implements the Core interface and owns nothing below it; by
// default every call is forwarded verbatim.  The bypass flag (thesis
// §5.3.1) routes traffic straight through a layer — used to run
// diagnostics circuits without error injection or counting.
#pragma once

#include <stdexcept>

#include "circuit/error.h"

#include "arch/core_interface.h"

namespace qpf::arch {

class Layer : public Core {
 public:
  explicit Layer(Core* lower) : lower_(lower) {
    if (lower == nullptr) {
      throw StackConfigError("Layer", "null lower layer");
    }
  }

  void create_qubits(std::size_t count) override {
    lower_->create_qubits(count);
  }
  void remove_qubits() override { lower_->remove_qubits(); }
  void add(const Circuit& circuit) override { lower_->add(circuit); }
  void execute() override { lower_->execute(); }
  [[nodiscard]] BinaryState get_state() const override {
    return lower_->get_state();
  }
  [[nodiscard]] std::optional<sv::StateVector> get_quantum_state()
      const override {
    return lower_->get_quantum_state();
  }
  [[nodiscard]] std::size_t num_qubits() const override {
    return lower_->num_qubits();
  }
  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    lower_->peek(observables, values);
  }

  // A plain layer holds no mutable state, so its snapshot is exactly
  // the chain below.  Stateful layers override all three, writing their
  // own section before forwarding.
  [[nodiscard]] bool snapshot_supported() const override {
    return lower_->snapshot_supported();
  }
  void save_state(journal::SnapshotWriter& out) const override {
    lower_->save_state(out);
  }
  void load_state(journal::SnapshotReader& in) override {
    lower_->load_state(in);
  }

  /// Diagnostic bypass: when set, the layer forwards traffic untouched.
  void set_bypass(bool bypass) noexcept { bypass_ = bypass; }
  [[nodiscard]] bool bypass() const noexcept { return bypass_; }

 protected:
  [[nodiscard]] Core& lower() noexcept { return *lower_; }
  [[nodiscard]] const Core& lower() const noexcept { return *lower_; }

  /// peek() of a layer that acts on every circuit it forwards (noise,
  /// counts, modeled time): a read replaces a circuit this layer would
  /// have acted on, so it answers only while bypassed.
  void peek_when_bypassed(std::span<const stab::SparsePauli> observables,
                          std::span<int> values) const {
    if (bypass_) {
      lower_->peek(observables, values);
    } else {
      std::fill(values.begin(), values.end(), 0);
    }
  }

  bool bypass_ = false;

 private:
  Core* lower_;
};

}  // namespace qpf::arch
