// Depolarizing error model (thesis §5.3.1, following [11,19]), with an
// optional dephasing bias (thesis future work, "more realistic error
// models"; after Aliferis & Preskill [28]).
//
// With physical error rate p, the symmetric channel:
//  * every single-qubit operation (gates, preparation, and explicit
//    idling — an idle time slot counts as an identity gate) suffers one
//    of {X, Y, Z} afterwards with probability p/3 each;
//  * a measurement suffers an X flip *before* readout with probability p;
//  * a two-qubit gate suffers one of the 15 non-identity two-qubit Pauli
//    combinations with probability p/15 each.
//
// With a bias eta = p_Z / (p_X + p_Y) the same locations fault with the
// same probability p; only the Pauli a fault picks changes:
//   p_Z = p * eta / (eta + 1),  p_X = p_Y = p / (2 * (eta + 1)).
// A two-qubit fault gives each operand, independently, identity with
// weight 1/2 or a Pauli of those weights, redrawn while both are
// identity; measurements still flip with X.  eta = 0.5 has the
// symmetric one-qubit marginals, from a different draw stream.
#pragma once

#include <cstdint>
#include <optional>
#include <random>
#include <utility>
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
  /// Throws StackConfigError unless 0 <= p <= 1 and a given bias is
  /// finite and positive.  Without a bias the channel is symmetric.
  DepolarizingModel(double p, std::uint64_t seed,
                    std::optional<double> bias = std::nullopt);

  [[nodiscard]] double physical_error_rate() const noexcept { return p_; }
  /// The dephasing bias eta; empty for the symmetric channel.
  [[nodiscard]] std::optional<double> bias() const noexcept { return bias_; }

  /// Per-Pauli marginals of a one-qubit location.
  [[nodiscard]] double p_x() const noexcept { return px_; }
  [[nodiscard]] double p_y() const noexcept { return px_; }
  [[nodiscard]] double p_z() const noexcept { return pz_; }

  /// Sample faults for every location of a circuit and return the
  /// circuit to run: `circuit` itself when no draw fired (`out` and the
  /// tally untouched), else `out` (cleared first; it keeps its capacity
  /// and must not be `circuit`) with the faults inserted.  `num_qubits`
  /// is the register size, needed to charge idle errors to untouched
  /// qubits in every slot.
  [[nodiscard]] const Circuit& inject(const Circuit& circuit,
                                      std::size_t num_qubits, Circuit& out);
  [[nodiscard]] Circuit inject(const Circuit& circuit,
                               std::size_t num_qubits) {
    Circuit out;
    return inject(circuit, num_qubits, out);
  }

  [[nodiscard]] const ErrorTally& tally() const noexcept { return tally_; }
  void reset_tally() noexcept { tally_ = {}; }

  // --- Snapshot / restore (crash-safe experiment engine) -------------
  /// Serialize the RNG engine (exactly) and the fault tally; the rate
  /// and the bias are configuration, echoed only for a consistency
  /// check.  The section is "depolarizing" (p) or, with a bias,
  /// "biased-noise" (p, eta).
  void save(journal::SnapshotWriter& out) const;

  /// Restore into this model.  Throws qpf::CheckpointError on stream
  /// corruption, a section of the other channel, or a rate / bias
  /// mismatch.
  void load(journal::SnapshotReader& in);

 private:
  /// The Pauli of a fired one-qubit draw: uniform, or biased.
  [[nodiscard]] GateType random_pauli();
  /// The Pauli pair of a fired two-qubit draw, never both identity.
  [[nodiscard]] std::pair<GateType, GateType> random_pair();
  /// One draw: true with probability p.
  [[nodiscard]] bool flip() { return threshold_.flips(rng_()); }
  /// inject()'s rewrite of `circuit` into `out` once location `fired`
  /// (in draw order) has fired and every location before it has not.
  void rewrite(const Circuit& circuit, std::size_t num_qubits,
               std::size_t fired, Circuit& out);

  double p_;
  std::optional<double> bias_;
  double px_;
  double pz_;
  FlipThreshold threshold_;
  std::mt19937_64 rng_;
  ErrorTally tally_;
  // inject() scratch, not model state.
  std::vector<Operation> post_;
  std::vector<std::uint8_t> busy_;
};

}  // namespace qpf::qec
