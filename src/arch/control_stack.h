// Pre-assembled control stacks for the thesis' experiments.
//
// LerStack is the Fig 5.8 stack used by the §5.3 Logical Error Rate
// study, extended with the optional classical-fault subsystem and the
// PR 4 supervision subsystem:
//
//     NinjaStarLayer            (logical operations + QEC control)
//       [TimingLayer]           (optional — modeled clock + deadline
//                                watchdog; above the supervisor so real
//                                time is never rewound by a recovery)
//       [SupervisorLayer]       (optional — catches typed faults from
//                                below, restores the chain from its
//                                last good snapshot, degrades/escalates)
//       CounterLayer  (above)   (stream before Pauli-frame filtering)
//       [ValidatingLayer]       (optional — shadow-frame cross-checks)
//       [PauliFrameLayer]       (optional — the experiment variable;
//                                record protection configurable)
//       CounterLayer  (below)   (stream after filtering)
//       [ClassicalFaultLayer]   (optional — drop/dup/reorder/readout
//                                plus the scripted chaos schedule)
//       ErrorLayer               (depolarizing noise, symmetric or
//                                with a dephasing bias)
//       CounterLayer  (bottom)  (physical stream incl. injected faults)
//       FrameCore                (stabilizer simulation backend: a
//                                Pauli frame over a memoised noiseless
//                                reference, exactly ChpCore's results)
//
// diagnostic mode bypasses the error, classical-fault, counter, timing
// and supervisor layers (§5.3.1) so the probe circuits are fault-free
// and uncounted, and so those layers pass the diagnostics' reads
// through (Core::peek); the Pauli frame and validating layers stay
// active so their records remain consistent.  Leaving diagnostic mode
// refreshes the supervisor's good point (a probe that falls back to its
// circuit mutates the chain underneath it).
//
// With every classical fault rate at zero, chaos off, supervision off,
// no deadline, protection off, and validation off, the stack is
// bit-identical to the plain Fig 5.8 configuration: the optional
// layers are simply not constructed, and checkpoints keep the legacy
// "ler-stack" section layout.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>

#include "arch/classical_fault_layer.h"
#include "arch/counter_layer.h"
#include "arch/error_layer.h"
#include "arch/frame_core.h"
#include "arch/ninja_star_layer.h"
#include "arch/pauli_frame_layer.h"
#include "arch/supervisor_layer.h"
#include "arch/timing_layer.h"
#include "arch/validating_layer.h"

namespace qpf::arch {

class LerStack {
 public:
  struct Config {
    double physical_error_rate = 1e-3;
    /// Dephasing bias eta of the noise (qec::DepolarizingModel); empty
    /// means the symmetric channel.
    std::optional<double> bias;
    bool with_pauli_frame = true;
    std::uint64_t seed = 1;
    NinjaStarLayer::Options ninja_options{};

    /// Classical-fault subsystem (all off by default).
    ClassicalFaultRates classical_faults{};
    pf::Protection frame_protection = pf::Protection::kNone;
    bool validate = false;

    /// Supervision subsystem (all off by default; off = the layers are
    /// not constructed and every output is bit-identical to before).
    ChaosConfig chaos{};             ///< scripted fault storms
    bool supervise = false;          ///< build a SupervisorLayer
    SupervisorOptions supervisor{};  ///< recovery policy when supervising
    DeadlineBudget deadline{};       ///< any() -> build a TimingLayer on
                                     ///< the default GateTimings clock
  };

  /// Builds the stack with one logical qubit (patch 0), the one every
  /// trial runs.  Throws StackConfigError on an invalid configuration
  /// (bad rates, protection without a Pauli frame).
  explicit LerStack(const Config& config);

  /// The top of the stack.
  [[nodiscard]] NinjaStarLayer& ninja() noexcept { return *ninja_; }

  /// Bypass (true) or re-arm (false) the error, classical-fault, and
  /// counter layers.
  void set_diagnostic_mode(bool on) noexcept;

  [[nodiscard]] const Counters& counters_above_frame() const noexcept {
    return counter_above_->counters();
  }
  [[nodiscard]] const Counters& counters_below_frame() const noexcept {
    return counter_below_->counters();
  }
  [[nodiscard]] const Counters& counters_physical() const noexcept {
    return counter_bottom_->counters();
  }
  void reset_counters() noexcept;

  [[nodiscard]] const qec::ErrorTally& error_tally() const noexcept {
    return error_->tally();
  }

  /// The core at the bottom of the stack (memo statistics).
  [[nodiscard]] const FrameCore& core() const noexcept { return core_; }

  [[nodiscard]] bool has_pauli_frame() const noexcept {
    return frame_ != nullptr;
  }
  [[nodiscard]] PauliFrameLayer* pauli_frame_layer() noexcept {
    return frame_.get();
  }

  [[nodiscard]] bool has_classical_faults() const noexcept {
    return faults_ != nullptr;
  }
  [[nodiscard]] ClassicalFaultLayer* classical_fault_layer() noexcept {
    return faults_.get();
  }

  [[nodiscard]] bool has_validator() const noexcept {
    return validator_ != nullptr;
  }
  [[nodiscard]] ValidatingLayer* validating_layer() noexcept {
    return validator_.get();
  }

  [[nodiscard]] bool has_supervisor() const noexcept {
    return supervisor_ != nullptr;
  }
  [[nodiscard]] SupervisorLayer* supervisor_layer() noexcept {
    return supervisor_.get();
  }
  [[nodiscard]] const SupervisorLayer* supervisor_layer() const noexcept {
    return supervisor_.get();
  }

  [[nodiscard]] bool has_timing() const noexcept {
    return timing_ != nullptr;
  }
  [[nodiscard]] TimingLayer* timing_layer() noexcept { return timing_.get(); }
  [[nodiscard]] const TimingLayer* timing_layer() const noexcept {
    return timing_.get();
  }

  /// Fraction of gates / time slots the frame absorbed, from the two
  /// counters around it (Figs 5.25 / 5.26).
  [[nodiscard]] double gates_saved_fraction() const noexcept;
  [[nodiscard]] double slots_saved_fraction() const noexcept;

  /// Serialize the whole stack (every layer down to the tableau) into
  /// `out`.  Restoring requires a stack built from the *same* Config;
  /// load_state throws qpf::CheckpointError on any mismatch.
  void save_state(journal::SnapshotWriter& out) const;
  void load_state(journal::SnapshotReader& in);

 private:
  FrameCore core_;
  std::unique_ptr<CounterLayer> counter_bottom_;
  std::unique_ptr<ErrorLayer> error_;
  std::unique_ptr<ClassicalFaultLayer> faults_;  // may be null
  std::unique_ptr<CounterLayer> counter_below_;
  std::unique_ptr<PauliFrameLayer> frame_;       // may be null
  std::unique_ptr<ValidatingLayer> validator_;   // may be null
  std::unique_ptr<CounterLayer> counter_above_;
  std::unique_ptr<SupervisorLayer> supervisor_;  // may be null
  std::unique_ptr<TimingLayer> timing_;          // may be null
  std::unique_ptr<NinjaStarLayer> ninja_;
};

}  // namespace qpf::arch
