// ClassicalFaultLayer: injects *classical* control-path faults into the
// operation stream and the readout path — the failure modes the thesis
// assumes away when it models only quantum noise (§5.3.1).
//
// A production control stack can drop an operation on the way to the
// Physical Execution Layer, re-issue one (a stuttering link), reorder
// the stream, or flip a readout bit on the way back up.  This layer is
// the classical sibling of ErrorLayer: it sits in the stack like any
// other layer, faults at configurable per-kind rates, and tallies every
// injection so campaigns can correlate injected vs detected faults.
//
// Fault semantics per circuit passing down:
//   drop      — an operation is removed from its time slot,
//   duplicate — an operation is re-issued in an extra slot directly
//               after its own (qubit-disjoint, so one slot suffices),
//   reorder   — an operation is swapped with its slot neighbour
//               (stream-order fault; slots keep their qubit invariant).
// And on the way up:
//   readout_flip — a known binary readout bit is inverted.
//
// With every rate at zero the layer forwards verbatim and never draws
// from its RNG, so a zero-rate layer is bit-identical to no layer.
//
// --- Chaos schedule (PR 4) -------------------------------------------
//
// Besides the per-operation Bernoulli faults above, the layer can run a
// *scripted* chaos schedule (ChaosConfig): a seeded LCG draws gaps (in
// layer calls) between discrete fault events, and each event is either
//   crash — throw qpf::TransientFaultError, before (pre) or after
//           (post) forwarding the call; a post-crash leaves the lower
//           chain already mutated, so a bare retry is wrong and a
//           supervisor must restore from its last good snapshot,
//   stall — accrue a fixed latency debt (nanoseconds) that a
//           TimingLayer above collects via take_pending_stall_ns(),
//   burst — the next burst_length calls all crash (a fault storm that
//           exhausts bounded retry budgets and drives the supervisor
//           into degraded mode or escalation).
// The chaos clock is *monotone across recoveries*: replayed calls tick
// it like any other call, and none of the chaos state is serialized in
// snapshots — restoring a snapshot must not re-arm the crash that
// caused the restore, or recovery could never converge.  For the same
// reason the snapshot byte layout is unchanged from PR 1.
#pragma once

#include <cstdint>
#include <random>

#include "arch/layer.h"

namespace qpf::journal {
struct JournalEntry;
}  // namespace qpf::journal

namespace qpf::arch {

/// Per-kind classical fault probabilities, each applied per operation
/// (or per readout bit for readout_flip).
struct ClassicalFaultRates {
  double drop = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double readout_flip = 0.0;

  [[nodiscard]] bool any() const noexcept {
    return drop > 0.0 || duplicate > 0.0 || reorder > 0.0 ||
           readout_flip > 0.0;
  }

  /// All four kinds at the same rate p.
  [[nodiscard]] static ClassicalFaultRates uniform(double p) noexcept {
    return ClassicalFaultRates{p, p, p, p};
  }
};

/// Tally of injected classical faults.
struct FaultTally {
  std::size_t dropped = 0;
  std::size_t duplicated = 0;
  std::size_t reordered = 0;
  std::size_t readout_flips = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return dropped + duplicated + reordered + readout_flips;
  }
};

/// Scripted chaos schedule: discrete fault events at seeded LCG-drawn
/// gaps.  Disabled unless max_gap > 0 and at least one kind has weight.
struct ChaosConfig {
  std::uint64_t seed = 0;
  /// Gap between events, in layer calls (add / execute), drawn uniform
  /// in [min_gap, max_gap].  max_gap == 0 disables the schedule.
  std::uint64_t min_gap = 0;
  std::uint64_t max_gap = 0;
  /// Relative weights of the event kinds.
  std::uint32_t crash_weight = 1;
  std::uint32_t stall_weight = 0;
  std::uint32_t burst_weight = 0;
  /// Latency debt per stall event, collected by a TimingLayer above.
  double stall_ns = 1000.0;
  /// Crashes per burst event (consecutive calls).
  std::uint64_t burst_length = 3;

  [[nodiscard]] bool any() const noexcept {
    return max_gap > 0 &&
           (crash_weight > 0 || stall_weight > 0 || burst_weight > 0);
  }
};

/// Put the eight fields of `chaos` on a journal config line (chaos_seed,
/// chaos_min_gap, chaos_max_gap, chaos_crash_w, chaos_stall_w,
/// chaos_burst_w, chaos_stall_ns as %.17g, chaos_burst_len), so a
/// resume that changes any of them is refused by name.
void write_chaos_fields(journal::JournalEntry& entry, const ChaosConfig& chaos);

/// Tally of chaos-schedule events.  Never serialized.
struct ChaosTally {
  std::size_t crashes = 0;  ///< TransientFaultErrors thrown (burst incl.)
  std::size_t stalls = 0;
  std::size_t bursts = 0;
  double stalled_ns = 0.0;
};

class ClassicalFaultLayer final : public Layer {
 public:
  /// Throws StackConfigError unless every rate is in [0, 1].
  ClassicalFaultLayer(Core* lower, ClassicalFaultRates rates,
                      std::uint64_t seed);
  /// Same, plus a chaos schedule (validated: min_gap <= max_gap,
  /// burst_length >= 1, stall_ns >= 0).
  ClassicalFaultLayer(Core* lower, ClassicalFaultRates rates,
                      std::uint64_t seed, const ChaosConfig& chaos);

  void add(const Circuit& circuit) override;
  void execute() override;

  [[nodiscard]] BinaryState get_state() const override;
  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    peek_when_bypassed(observables, values);
  }

  [[nodiscard]] const ClassicalFaultRates& rates() const noexcept {
    return rates_;
  }
  [[nodiscard]] const FaultTally& tally() const noexcept { return tally_; }
  void reset_tally() noexcept { tally_ = {}; }

  [[nodiscard]] const ChaosConfig& chaos() const noexcept { return chaos_; }
  [[nodiscard]] const ChaosTally& chaos_tally() const noexcept {
    return chaos_tally_;
  }

  /// Latency debt accrued by stall events since the last call; returns
  /// it and resets the accumulator (TimingLayer pulls this after every
  /// forwarded call).
  [[nodiscard]] double take_pending_stall_ns() noexcept {
    const double ns = pending_stall_ns_;
    pending_stall_ns_ = 0.0;
    return ns;
  }

  void save_state(journal::SnapshotWriter& out) const override;
  void load_state(journal::SnapshotReader& in) override;

 private:
  enum class ChaosAction : std::uint8_t { kNone, kCrashPre, kCrashPost };

  [[nodiscard]] bool flip(double probability) const;
  [[nodiscard]] std::uint64_t chaos_draw(std::uint64_t bound);
  [[nodiscard]] std::uint64_t chaos_gap();
  [[nodiscard]] ChaosAction chaos_tick();
  [[noreturn]] void chaos_crash(const char* where);

  ClassicalFaultRates rates_;
  // Readout faults strike inside the const get_state() path, so the RNG
  // and tally mutate under const.
  mutable std::mt19937_64 rng_;
  mutable std::uniform_real_distribution<double> uniform_{0.0, 1.0};
  mutable FaultTally tally_;

  // Chaos schedule.  Deliberately absent from save/load_state: the
  // chaos clock is monotone across snapshot restores.
  ChaosConfig chaos_{};
  std::uint64_t chaos_lcg_ = 0;
  std::uint64_t chaos_countdown_ = 0;
  std::uint64_t burst_remaining_ = 0;
  std::uint64_t chaos_calls_ = 0;
  double pending_stall_ns_ = 0.0;
  ChaosTally chaos_tally_;
};

}  // namespace qpf::arch
