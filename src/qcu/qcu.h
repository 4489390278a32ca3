// The Quantum Control Unit of thesis §3.5.1 (Fig 3.10): execution
// controller, Q-address translation, Pauli arbiter + Pauli Frame Unit,
// QEC cycle generator and logic measurement unit, driving a Physical
// Execution Layer.
//
// This is the hardware-architecture counterpart of the QPDO layer
// composition in arch/: instead of stacking Core layers, one unit owns
// the whole datapath and executes QISA programs instruction by
// instruction.  Any arch::Core serves as the PEL (a simulator core, or
// a noisy stack of ErrorLayer over a core).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "arch/core_interface.h"
#include "core/arbiter.h"
#include "qcu/isa.h"
#include "qcu/symbol_table.h"
#include "qec/ninja_star.h"

namespace qpf::qcu {

class QuantumControlUnit {
 public:
  struct Stats {
    std::size_t instructions = 0;
    std::size_t operations_to_pel = 0;
    std::size_t paulis_absorbed = 0;
    std::size_t qec_windows = 0;
    std::size_t flushes = 0;
  };

  /// Builds a QCU over `slots` SC17 placement slots.  Allocates
  /// slots * 17 qubits on the PEL.  With use_pauli_frame = false the
  /// arbiter is bypassed and every operation reaches the PEL.
  QuantumControlUnit(arch::Core* pel, std::size_t slots,
                     bool use_pauli_frame = true);

  /// Load a program (replaces any previous one, resets the PC).
  void load(std::vector<Instruction> program);
  void load_assembly(const std::string& text) { load(assemble(text)); }

  /// Run until kHalt or the end of the program.  Throws
  /// std::invalid_argument on a malformed instruction (e.g. an operand
  /// in a dead patch).
  void run();

  /// Single-step one instruction; returns false when halted / done.
  bool step();

  // --- Results ---------------------------------------------------------
  /// Frame-corrected result of the last `measure` on a virtual qubit.
  [[nodiscard]] std::optional<bool> measurement(VirtualQubit v) const;

  /// Logical state of a patch after `lmeas` (unknown before).
  [[nodiscard]] qec::StateValue logical_state(PatchId patch) const;

  [[nodiscard]] const QSymbolTable& symbol_table() const noexcept {
    return table_;
  }
  [[nodiscard]] const Stats& stats() const noexcept { return stats_; }
  [[nodiscard]] const pf::PauliFrameUnit* pauli_frame_unit() const noexcept {
    return pfu_ ? &*pfu_ : nullptr;
  }

 private:
  void exec(const Instruction& instruction);
  /// Route one physical operation through the arbiter (or directly).
  void issue(const Operation& op);
  /// Push the pending operation buffer through the PEL.
  void flush_buffer();
  /// PEL state with measurement results corrected by the frame.
  [[nodiscard]] arch::BinaryState read_corrected_state();
  /// Read one corrected classical bit; throws if the qubit is unknown.
  [[nodiscard]] bool read_bit(Qubit physical);
  qec::Syndrome run_esm_round(qec::NinjaStar& star);
  void run_window(qec::NinjaStar& star);
  void initialize_patch(qec::NinjaStar& star);
  void logical_measure(PatchId patch);
  [[nodiscard]] qec::NinjaStar& star_of(PatchId patch);

  arch::Core* pel_;
  QSymbolTable table_;
  qec::SurfaceCodeLayout layout_{3};
  std::optional<pf::PauliFrameUnit> pfu_;
  std::optional<pf::PauliArbiter> arbiter_;
  Circuit buffer_;
  std::vector<std::optional<qec::NinjaStar>> stars_;  // by patch id
  std::vector<Instruction> program_;
  std::size_t pc_ = 0;
  bool halted_ = false;
  std::vector<std::optional<bool>> measurements_;  // by virtual qubit
  Stats stats_;
};

}  // namespace qpf::qcu
