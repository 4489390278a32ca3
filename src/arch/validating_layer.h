// ValidatingLayer: a self-checking layer that cross-checks the Pauli
// frame below it against a fault-free shadow copy, in the spirit of the
// redundant stabilizer-frame representations of García & Markov.
//
// The layer forwards every circuit untouched.  On the side it
//   * shadow-executes the circuit through its own reference PauliFrame
//     (unprotected, never faulted) and compares the observed frame's
//     records against the reference after every circuit,
//   * checks structural invariants of the stack: every record is a
//     legal 2-bit value, register sizes agree across the layers, and
//     Table 3.1 processing never grows the slot count,
//   * checks the readout path: the binary state must match the register
//     size.
// Violations are reported as structured FaultReports — never asserts,
// never throws — so a fault campaign can keep running while the
// validator records what the injected faults actually broke.
//
// Like PauliFrameLayer, the bypass flag is ignored: the shadow frame
// must see every circuit that the observed frame sees, including the
// diagnostics traffic of §5.3.1.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "arch/layer.h"
#include "arch/pauli_frame_layer.h"

namespace qpf::arch {

/// One structured validation finding.
struct FaultReport {
  enum class Kind : std::uint8_t {
    kRecordMismatch,     ///< observed frame disagrees with the shadow frame
    kInvalidRecord,      ///< a record is outside {I, X, Z, XZ}
    kRegisterMismatch,   ///< register sizes disagree across the stack
    kSlotGrowth,         ///< Table 3.1 rewriting grew the slot count
    kStateSizeMismatch,  ///< readout size differs from the register
  };

  Kind kind;
  std::string detail;
  std::size_t circuit_index = 0;  ///< how many circuits this layer had seen
};

[[nodiscard]] constexpr std::string_view name(FaultReport::Kind k) noexcept {
  switch (k) {
    case FaultReport::Kind::kRecordMismatch:
      return "record-mismatch";
    case FaultReport::Kind::kInvalidRecord:
      return "invalid-record";
    case FaultReport::Kind::kRegisterMismatch:
      return "register-mismatch";
    case FaultReport::Kind::kSlotGrowth:
      return "slot-growth";
    case FaultReport::Kind::kStateSizeMismatch:
      return "state-size-mismatch";
  }
  return "?";
}

class ValidatingLayer final : public Layer {
 public:
  /// `observed` is the Pauli frame layer to cross-check; pass nullptr
  /// to run only the structural checks (no shadow frame).
  explicit ValidatingLayer(Core* lower, PauliFrameLayer* observed = nullptr)
      : Layer(lower), observed_(observed) {}

  void create_qubits(std::size_t count) override;
  void remove_qubits() override;
  void add(const Circuit& circuit) override;
  [[nodiscard]] BinaryState get_state() const override;
  /// 0: the cross-checks run per circuit and the reports count
  /// circuits, so every diagnostic keeps going through them.
  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    Core::peek(observables, values);
  }

  [[nodiscard]] const std::vector<FaultReport>& reports() const noexcept {
    return reports_;
  }
  void clear_reports() noexcept { reports_.clear(); }

  /// Re-align the shadow frame with the observed frame (after an
  /// intentional out-of-band flush, e.g. PauliFrameLayer::flush()).
  void resync();

  void save_state(journal::SnapshotWriter& out) const override;
  void load_state(journal::SnapshotReader& in) override;

 private:
  void report(FaultReport::Kind kind, std::string detail) const;

  PauliFrameLayer* observed_;
  std::optional<pf::PauliFrame> reference_;
  std::size_t circuits_seen_ = 0;
  mutable std::vector<FaultReport> reports_;
};

}  // namespace qpf::arch
