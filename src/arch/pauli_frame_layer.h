// PauliFrameLayer: the Pauli Frame Unit as a QPDO layer (thesis §5.2.1).
//
// Circuits passing down are rewritten by the frame (Pauli gates
// absorbed, Clifford gates mapped, non-Clifford flushes inserted); the
// binary state coming back up is corrected per Table 3.2.
//
// The bypass flag is deliberately ignored here: the records must stay
// consistent with every circuit that reaches the qubits, so even the
// diagnostics circuits of §5.3.1 flow through the frame (the thesis
// bypasses only the counter and error layers).
//
// With a record Protection enabled (core/pauli_frame.h), the layer also
// performs graceful degradation: when the frame reports a detected-but-
// uncorrectable record while processing a circuit, the layer issues a
// full frame flush (Table 3.1) right behind it so the whole frame
// returns to a known-clean state instead of silently corrupting the
// downstream Clifford stream.
//
// A circuit with no Pauli and no non-Clifford gate passes down as it is.
// Any other circuit is rewritten into a buffer the layer owns and
// reuses: it stays valid until this layer's next add(), so an element
// below that keeps a circuit past its own add() copies it (DESIGN.md,
// "Circuit storage and rewrite buffers").
#pragma once

#include "arch/layer.h"
#include "core/pauli_frame.h"

namespace qpf::arch {

class PauliFrameLayer final : public Layer {
 public:
  explicit PauliFrameLayer(Core* lower,
                           pf::Protection protection = pf::Protection::kNone)
      : Layer(lower), protection_(protection) {}

  void create_qubits(std::size_t count) override {
    lower().create_qubits(count);
    frame_ = pf::PauliFrame{num_qubits(), protection_};
  }

  void remove_qubits() override {
    lower().remove_qubits();
    frame_.reset();
  }

  void add(const Circuit& circuit) override;

  [[nodiscard]] BinaryState get_state() const override;

  /// The read below, negated wherever the observable anticommutes with
  /// the records (physical state = records x ideal state).  A protected
  /// frame answers 0: its guarded record reads would count as checks
  /// and may repair records, which the circuit a read replaces does
  /// differently.
  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override;

  /// Apply every pending record on the qubits (needed before comparing
  /// raw quantum states, §5.2.2) and run it.
  void flush();

  /// Number of recovery flushes issued after uncorrectable record
  /// corruption (zero unless a Protection is active and faults hit).
  [[nodiscard]] std::size_t recovery_flushes() const noexcept {
    return recovery_flushes_;
  }

  [[nodiscard]] pf::Protection protection() const noexcept {
    return protection_;
  }

  [[nodiscard]] pf::PauliFrame& frame() {
    require_frame();
    return *frame_;
  }
  [[nodiscard]] const pf::PauliFrame& frame() const {
    require_frame();
    return *frame_;
  }

  void save_state(journal::SnapshotWriter& out) const override;
  void load_state(journal::SnapshotReader& in) override;

 private:
  void require_frame() const {
    if (!frame_.has_value()) {
      throw std::logic_error("PauliFrameLayer: no qubits allocated");
    }
  }

  pf::Protection protection_;
  std::size_t recovery_flushes_ = 0;
  mutable std::optional<pf::PauliFrame> frame_;
  Circuit rewritten_;  ///< add()'s output buffer; not snapshot state
};

}  // namespace qpf::arch
