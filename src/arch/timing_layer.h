// TimingLayer: wall-clock accounting for the circuits flowing down a
// stack — a first step toward the thesis' "clock-cycle accurate
// emulation" future work.
//
// Every time slot costs the maximum duration of its operations (slots
// execute in parallel, §4.2.2); the layer accumulates the total and
// counts slots per kind.  Combined with the decoder-stall model of
// core/schedule.h this turns the Fig 3.3 schedule comparison into
// nanoseconds for a concrete hardware parameter set.
//
// --- Deadline watchdog (PR 4) ----------------------------------------
//
// With a DeadlineBudget armed, the layer doubles as the stack's
// watchdog: every slot is checked against the per-slot budget, and the
// QEC layer above brackets each ESM round with begin_round()/end_round()
// so the round's modeled time — gates plus any classical stall debt
// pulled from a ClassicalFaultLayer below (take_pending_stall_ns()) —
// is checked against the per-round budget.  An overrun raises a sticky
// one-shot flag which the QEC layer consumes (consume_overrun()) to
// *skip the decode* for that window and carry the syndrome forward,
// mirroring the paper's degrade-over-skew stance: a late correction is
// deferred to the frame, never silently back-dated.  All time here is
// MODELED time (GateTimings + injected stalls), so overruns are exactly
// reproducible from the seed — the watchdog never reads a wall clock.
#pragma once

#include <cstdint>

#include "arch/classical_fault_layer.h"
#include "arch/layer.h"

namespace qpf::arch {

/// Per-operation durations in nanoseconds.  Defaults are
/// transmon-flavoured (fast gates, slow readout and reset).
struct GateTimings {
  double single_qubit_ns = 20.0;
  double two_qubit_ns = 40.0;
  double measure_ns = 300.0;
  double prep_ns = 300.0;

  /// Duration of one time slot: the slowest operation in it.
  [[nodiscard]] double slot_ns(SlotView slot) const noexcept {
    double worst = 0.0;
    for (const Operation& op : slot) {
      double d = 0.0;
      switch (category(op.gate())) {
        case GateCategory::kMeasurement:
          d = measure_ns;
          break;
        case GateCategory::kInitialization:
          d = prep_ns;
          break;
        default:
          d = op.arity() == 2 ? two_qubit_ns : single_qubit_ns;
          break;
      }
      worst = d > worst ? d : worst;
    }
    return worst;
  }
};

/// Real-time budgets in modeled nanoseconds; 0 disables a check.
struct DeadlineBudget {
  double slot_budget_ns = 0.0;   ///< per time slot (gates only)
  double round_budget_ns = 0.0;  ///< per ESM round (gates + stalls)

  [[nodiscard]] bool any() const noexcept {
    return slot_budget_ns > 0.0 || round_budget_ns > 0.0;
  }
};

class TimingLayer final : public Layer {
 public:
  explicit TimingLayer(Core* lower, GateTimings timings = {})
      : Layer(lower), timings_(timings) {}

  void add(const Circuit& circuit) override {
    if (!bypass_) {
      for (const SlotView slot : circuit) {
        const double d = timings_.slot_ns(slot);
        elapsed_ns_ += d;
        round_ns_ += d;
        ++slots_;
        if (deadline_.slot_budget_ns > 0.0 && d > deadline_.slot_budget_ns) {
          ++slot_overruns_;
          overrun_pending_ = true;
        }
      }
    }
    lower().add(circuit);
    collect_stall();
  }

  void execute() override {
    lower().execute();
    collect_stall();
  }

  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    peek_when_bypassed(observables, values);
  }

  [[nodiscard]] double elapsed_ns() const noexcept { return elapsed_ns_; }
  [[nodiscard]] std::size_t slots() const noexcept { return slots_; }
  void reset_clock() noexcept {
    elapsed_ns_ = 0.0;
    slots_ = 0;
  }

  [[nodiscard]] const GateTimings& timings() const noexcept {
    return timings_;
  }

  // --- Deadline watchdog ----------------------------------------------

  void set_deadline(const DeadlineBudget& budget) noexcept {
    deadline_ = budget;
  }
  [[nodiscard]] const DeadlineBudget& deadline() const noexcept {
    return deadline_;
  }

  /// Classical stall debt is pulled from this layer (non-owning) after
  /// every forwarded call; modeled stalls count as elapsed real time.
  void set_stall_source(ClassicalFaultLayer* source) noexcept {
    stall_source_ = source;
  }

  /// Bracket one ESM round: end_round() checks the accumulated round
  /// time (gates + stalls since begin_round()) against the budget.
  void begin_round() noexcept { round_ns_ = 0.0; }
  void end_round() noexcept {
    if (bypass_) {
      return;
    }
    if (deadline_.round_budget_ns > 0.0 &&
        round_ns_ > deadline_.round_budget_ns) {
      ++round_overruns_;
      overrun_pending_ = true;
    }
  }

  /// One-shot overrun flag: true if any budget was blown since the last
  /// consume; consuming clears it.  The QEC layer uses this to skip a
  /// decode instead of back-dating a late correction.
  [[nodiscard]] bool consume_overrun() noexcept {
    const bool pending = overrun_pending_;
    overrun_pending_ = false;
    return pending;
  }

  /// Called by the QEC layer when an overrun made it skip a decode.
  void note_skipped_decode() noexcept { ++decodes_skipped_; }

  [[nodiscard]] std::size_t slot_overruns() const noexcept {
    return slot_overruns_;
  }
  [[nodiscard]] std::size_t round_overruns() const noexcept {
    return round_overruns_;
  }
  [[nodiscard]] std::size_t total_overruns() const noexcept {
    return slot_overruns_ + round_overruns_;
  }
  [[nodiscard]] std::size_t decodes_skipped() const noexcept {
    return decodes_skipped_;
  }
  [[nodiscard]] double stalled_ns() const noexcept { return stalled_ns_; }

  void save_state(journal::SnapshotWriter& out) const override {
    out.tag("timing-layer");
    out.write_double(elapsed_ns_);
    out.write_size(slots_);
    out.write_double(stalled_ns_);
    out.write_size(slot_overruns_);
    out.write_size(round_overruns_);
    out.write_size(decodes_skipped_);
    lower().save_state(out);
  }
  void load_state(journal::SnapshotReader& in) override {
    in.expect_tag("timing-layer");
    elapsed_ns_ = in.read_double();
    slots_ = in.read_size();
    stalled_ns_ = in.read_double();
    slot_overruns_ = in.read_size();
    round_overruns_ = in.read_size();
    decodes_skipped_ = in.read_size();
    lower().load_state(in);
  }

 private:
  void collect_stall() noexcept {
    if (stall_source_ == nullptr) {
      return;
    }
    const double ns = stall_source_->take_pending_stall_ns();
    if (ns > 0.0) {
      elapsed_ns_ += ns;
      round_ns_ += ns;
      stalled_ns_ += ns;
    }
  }

  GateTimings timings_;
  double elapsed_ns_ = 0.0;
  std::size_t slots_ = 0;

  DeadlineBudget deadline_{};
  ClassicalFaultLayer* stall_source_ = nullptr;  // non-owning
  double round_ns_ = 0.0;
  bool overrun_pending_ = false;
  double stalled_ns_ = 0.0;
  std::size_t slot_overruns_ = 0;
  std::size_t round_overruns_ = 0;
  std::size_t decodes_skipped_ = 0;
};

}  // namespace qpf::arch
