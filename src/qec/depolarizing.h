// Symmetric depolarizing error model (thesis §5.3.1, following [11,19]).
//
// With physical error rate p:
//  * every single-qubit operation (gates, preparation, and explicit
//    idling — an idle time slot counts as an identity gate) suffers one
//    of {X, Y, Z} afterwards with probability p/3 each;
//  * a measurement suffers an X flip *before* readout with probability p;
//  * a two-qubit gate suffers one of the 15 non-identity two-qubit Pauli
//    combinations with probability p/15 each.
#pragma once

#include <cstdint>
#include <random>
#include <vector>

#include "circuit/circuit.h"
#include "journal/snapshot.h"

namespace qpf::qec {

/// Tally of injected faults, for diagnostics and tests.
struct ErrorTally {
  std::size_t single_qubit = 0;
  std::size_t two_qubit = 0;
  std::size_t measurement_flips = 0;
  std::size_t idle = 0;

  [[nodiscard]] std::size_t total() const noexcept {
    return single_qubit + two_qubit + measurement_flips + idle;
  }
};

/// The draw `std::uniform_real_distribution<double>{0, 1}(rng) < p` for
/// an mt19937_64 `rng`, as one integer comparison on the raw output x.
/// The library maps x to a double monotonically, so the draws below p
/// are exactly x < below(); the constructor finds below() by bisecting
/// the library's own distribution, so flips(x) equals the double
/// comparison for every x and the RNG stream is unchanged.
class FlipThreshold {
 public:
  explicit FlipThreshold(double p);

  [[nodiscard]] bool flips(std::uint64_t x) const noexcept {
    return x < below_ || all_;
  }
  /// Smallest x that does not flip (when !all()).
  [[nodiscard]] std::uint64_t below() const noexcept { return below_; }
  /// Every x flips (p above every value the distribution returns).
  [[nodiscard]] bool all() const noexcept { return all_; }

  /// The library's double for raw output x.
  [[nodiscard]] static double uniform(std::uint64_t x);

 private:
  std::uint64_t below_ = 0;
  bool all_ = false;
};

class DepolarizingModel {
 public:
  /// Throws std::invalid_argument unless 0 <= p <= 1.
  DepolarizingModel(double p, std::uint64_t seed);

  [[nodiscard]] double physical_error_rate() const noexcept { return p_; }

  /// Rewrite a circuit with sampled faults inserted into `out` (cleared
  /// first; it keeps its capacity and must not be `circuit`).
  /// `num_qubits` is the register size, needed to charge idle errors to
  /// untouched qubits in every slot.
  void inject(const Circuit& circuit, std::size_t num_qubits, Circuit& out);
  [[nodiscard]] Circuit inject(const Circuit& circuit,
                               std::size_t num_qubits) {
    Circuit out;
    inject(circuit, num_qubits, out);
    return out;
  }

  [[nodiscard]] const ErrorTally& tally() const noexcept { return tally_; }
  void reset_tally() noexcept { tally_ = {}; }

  // --- Snapshot / restore (crash-safe experiment engine) -------------
  /// Serialize the RNG engine (exactly) and the fault tally; the rate
  /// itself is configuration, echoed only for a consistency check.
  void save(journal::SnapshotWriter& out) const;

  /// Restore into this model.  Throws qpf::CheckpointError on stream
  /// corruption or a physical-error-rate mismatch.
  void load(journal::SnapshotReader& in);

 private:
  /// Uniformly pick X, Y or Z.
  [[nodiscard]] GateType random_pauli();
  /// One draw: true with probability p.
  [[nodiscard]] bool flip() { return threshold_.flips(rng_()); }

  double p_;
  FlipThreshold threshold_;
  std::mt19937_64 rng_;
  ErrorTally tally_;
  // inject() scratch, not model state.
  std::vector<Operation> post_;
  std::vector<std::uint8_t> busy_;
};

}  // namespace qpf::qec
