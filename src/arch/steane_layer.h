// SteaneLayer: QEC layer for Steane [[7,1,3]] logical qubits (the
// thesis' second QEC layer, §4.2.3).  Structure mirrors NinjaStarLayer;
// with a perfect CSS code, decoding reduces to a direct syndrome
// lookup, so there is no carried round — every ESM round is decoded
// absolutely and the corrections restore the ideal syndrome.
#pragma once

#include <vector>

#include "arch/layer.h"
#include "qec/steane.h"

namespace qpf::arch {

class SteaneLayer final : public Layer {
 public:
  explicit SteaneLayer(Core* lower) : Layer(lower) {}

  // --- Core interface (logical level) ---------------------------------
  void create_qubits(std::size_t count) override;
  void remove_qubits() override;
  void add(const Circuit& logical_circuit) override;
  void execute() override;
  [[nodiscard]] BinaryState get_state() const override;
  [[nodiscard]] std::size_t num_qubits() const override {
    return logical_state_.size();
  }
  /// 0: observables above this layer are logical (see NinjaStarLayer).
  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    Core::peek(observables, values);
  }

  // --- Experiment API --------------------------------------------------
  /// Reset logical qubit q to |0>_L: transversal reset plus one decoded
  /// ESM round for the gauge fix.
  void initialize(Qubit logical);

  /// One ESM round with absolute decoding; issues corrections.
  void run_qec_round(Qubit logical);

  /// Transversal logical measurement: +-1 parity of the seven data
  /// readouts.
  [[nodiscard]] int measure_logical(Qubit logical);

  /// Diagnostic probe: one ESM round; true when any check deviates
  /// from the code space.  Run with error layers bypassed.
  [[nodiscard]] bool has_observable_errors(Qubit logical);

  /// Non-destructive logical-operator parity readout: kZ measures
  /// Z_L = Z^x7 through an ancilla (+1/-1), kX measures X_L = X^x7.
  [[nodiscard]] int measure_logical_stabilizer(Qubit logical,
                                               qec::CheckType basis);

  [[nodiscard]] static Qubit base_of(Qubit logical) {
    return static_cast<Qubit>(logical * qec::SteaneCode::kNumQubits);
  }

  void save_state(journal::SnapshotWriter& out) const override;
  void load_state(journal::SnapshotReader& in) override;

 private:
  void run_lower(const Circuit& circuit);
  void apply_logical(const Operation& op);
  /// Execute one ESM round and return the two 3-bit syndromes
  /// {x_checks, z_checks}.
  std::pair<unsigned, unsigned> run_esm_round(Qubit logical);

  std::vector<BinaryValue> logical_state_;
  std::vector<Circuit> queue_;
};

}  // namespace qpf::arch
