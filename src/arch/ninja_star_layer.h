// NinjaStarLayer: the QEC layer controlling surface-code logical
// qubits (thesis §5.1.3, Table 5.4): SC17 ninja stars at the default
// d = 3, any odd distance up to qec::NinjaStar::kMaxDistance beyond.
//
// Upwards it speaks the Core interface at the *logical* level: qubit q
// of an added circuit is logical qubit q, gates are logical operations
// (Table 5.1), and get_state() reports logical binary values.  Each
// logical qubit owns 2d^2 - 1 consecutive physical qubits in the stack
// below (a private ancilla set; 17 at d = 3).
//
// Besides the transparent Core interface, the layer exposes the
// experiment API used by the LER study of §5.3: explicit initialization,
// windows (ESM rounds + decode + correct), and the diagnostics checks
// (observable-error probe and Fig 5.10 logical-stabilizer readout).
// The diagnostics read the signs of the observables their circuits
// measure through Core::peek, and run the circuits only when the stack
// below cannot answer or some value is random (DESIGN.md, "Diagnostics
// as observables").
#pragma once

#include <string_view>
#include <vector>

#include "arch/layer.h"
#include "qec/ninja_star.h"

namespace qpf::arch {

class TimingLayer;

/// Logical qubits of one odd distance d (Options::distance), SC17 at
/// the default d = 3.
class NinjaStarLayer final : public Layer {
 public:
  struct Options {
    /// Code distance: odd, 3..qec::NinjaStar::kMaxDistance.  A window
    /// runs d - 1 ESM rounds (§5.3.1), and one window follows each
    /// logical gate executed through the Core interface (Fig 2.6).
    int distance = 3;
    /// ESM CNOT ordering (ablation knob; kMixed is the paper's choice).
    qec::CnotPattern esm_pattern = qec::CnotPattern::kMixed;
    /// When false, windows measure syndromes but never decode or issue
    /// corrections (decoder ablation).
    bool decoding_enabled = true;
  };

  explicit NinjaStarLayer(Core* lower);
  /// Throws StackConfigError on an unsupported distance.
  NinjaStarLayer(Core* lower, Options options);

  // --- Core interface (logical level) ---------------------------------
  void create_qubits(std::size_t count) override;
  void remove_qubits() override;
  void add(const Circuit& logical_circuit) override;
  void execute() override;
  [[nodiscard]] BinaryState get_state() const override;
  [[nodiscard]] std::size_t num_qubits() const override {
    return stars_.size();
  }
  /// 0: observables above this layer are logical, and the layer keeps
  /// no logical-level state to read them from.
  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    Core::peek(observables, values);
  }

  // --- Experiment API --------------------------------------------------
  [[nodiscard]] qec::NinjaStar& star(Qubit logical);
  [[nodiscard]] const qec::NinjaStar& star(Qubit logical) const;

  /// Initialize logical qubit q: |0>_L for CheckType::kZ, |+>_L for
  /// CheckType::kX.  Runs reset + d rounds of ESM with decoding
  /// (§2.6.1); works under noise.
  void initialize(Qubit logical, qec::CheckType basis = qec::CheckType::kZ);

  /// State injection (thesis future work, after [14]): encode an
  /// arbitrary single-qubit state into the logical qubit.  The center
  /// data qubit D4 is prepared with `center_preparation` (single-qubit
  /// gates addressed to qubit 0, retargeted to D4), the remaining data
  /// qubits in the |0>/|+> pattern that makes every boundary check
  /// deterministic, and one decoded ESM round projects into the code
  /// space.  Not fault-tolerant (like every d=3 injection scheme): a
  /// single fault during injection can corrupt the encoded state.
  /// d = 3 only (StackConfigError otherwise).
  void initialize_injected(Qubit logical, const Circuit& center_preparation);

  /// One QEC window: d - 1 rounds of ESM, decode the last two with the
  /// carried round (Fig 5.9), then issue the corrections.
  void run_window(Qubit logical);

  /// Diagnostic probe (§5.3.1): whether any check of one full ESM round
  /// deviates from the code space.  Run it with the error and counter
  /// layers bypassed.
  [[nodiscard]] bool has_observable_errors(Qubit logical);

  /// Diagnostic syndrome readout: the raw syndrome word of one full ESM
  /// round, without touching the decoder bookkeeping.  Read from the
  /// checks when the stack below fixes every check and every ancilla
  /// the round resets; otherwise the round runs.  Run it with the error
  /// and counter layers bypassed.
  [[nodiscard]] qec::Syndrome probe_syndrome(Qubit logical);

  /// Fig 5.10: measure the logical stabilizer (kZ -> Z-chain parity
  /// detecting X_L flips; kX -> X-chain parity detecting Z_L flips)
  /// without disturbing the state.  Returns +1 or -1.  Read from the
  /// chain when the stack below fixes it and the borrowed ancilla;
  /// otherwise the circuit runs.
  [[nodiscard]] int measure_logical_stabilizer(Qubit logical,
                                               qec::CheckType basis);

  /// Transversal logical measurement (§2.6.1): returns +1 / -1 and
  /// updates the star's run-time properties.
  [[nodiscard]] int measure_logical(Qubit logical);

  [[nodiscard]] const Options& options() const noexcept { return options_; }
  [[nodiscard]] const qec::SurfaceCodeLayout& layout() const noexcept {
    return layout_;
  }

  /// Arm the deadline watchdog (non-owning; a TimingLayer below this
  /// layer).  Each ESM round is bracketed with begin/end_round, and a
  /// pending budget overrun makes the next window *skip its decode*
  /// and carry the syndrome forward — degrade over skew: a late
  /// correction is deferred, never back-dated into the statistics.
  void set_deadline_watchdog(TimingLayer* watchdog) noexcept {
    watchdog_ = watchdog;
  }

  void save_state(journal::SnapshotWriter& out) const override;
  void load_state(journal::SnapshotReader& in) override;

 private:
  /// Execute one ESM round and collect the syndrome; ancillas inactive
  /// in the current dance mode report their carried bits.
  qec::Syndrome run_esm_round(qec::NinjaStar& star);
  /// Execute a circuit through the stack below.
  void run_lower(const Circuit& circuit);
  /// Peek `observables` below into values_; true when every value is
  /// fixed, so the circuit they decide would draw no randomness.
  [[nodiscard]] bool read(const std::vector<stab::SparsePauli>& observables);
  /// Execute decoder corrections (at most one per qubit) as one slot;
  /// nothing when `ops` is empty.
  void run_corrections(std::string_view name,
                       const std::vector<Operation>& ops);
  void apply_logical(const Operation& op);

  Options options_;
  qec::SurfaceCodeLayout layout_;
  std::vector<qec::NinjaStar> stars_;
  std::vector<Circuit> queue_;
  Circuit corrections_;  ///< run_corrections() buffer; not snapshot state
  std::vector<int> values_;  ///< read() buffer; not snapshot state
  TimingLayer* watchdog_ = nullptr;  // non-owning, may be null
};

}  // namespace qpf::arch
