#include "qec/depolarizing.h"

#include <stdexcept>

#include "circuit/error.h"

namespace qpf::qec {

namespace {

/// A generator that returns one fixed mt19937_64 output, to evaluate
/// the library's distribution at a chosen draw.
struct FixedDraw {
  using result_type = std::mt19937_64::result_type;
  static constexpr result_type min() { return std::mt19937_64::min(); }
  static constexpr result_type max() { return std::mt19937_64::max(); }
  result_type operator()() const noexcept { return x; }
  result_type x;
};

}  // namespace

double FlipThreshold::uniform(std::uint64_t x) {
  FixedDraw draw{x};
  return std::uniform_real_distribution<double>{0.0, 1.0}(draw);
}

FlipThreshold::FlipThreshold(double p) {
  constexpr std::uint64_t kMax = std::mt19937_64::max();
  if (uniform(kMax) < p) {
    below_ = kMax;
    all_ = true;
    return;
  }
  // uniform() is monotone, so `uniform(x) < p` holds on a prefix of the
  // draws; find its end.  Invariant: !(uniform(hi) < p).
  std::uint64_t lo = 0;
  std::uint64_t hi = kMax;
  while (lo < hi) {
    const std::uint64_t mid = lo + (hi - lo) / 2;
    if (uniform(mid) < p) {
      lo = mid + 1;
    } else {
      hi = mid;
    }
  }
  below_ = lo;
}

DepolarizingModel::DepolarizingModel(double p, std::uint64_t seed)
    : p_(p), threshold_(p), rng_(seed) {
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails too
    throw StackConfigError("DepolarizingModel", "p out of [0,1]");
  }
}

GateType DepolarizingModel::random_pauli() {
  static constexpr GateType kPaulis[] = {GateType::kX, GateType::kY,
                                         GateType::kZ};
  std::uniform_int_distribution<int> dist(0, 2);
  return kPaulis[dist(rng_)];
}

void DepolarizingModel::inject(const Circuit& circuit, std::size_t num_qubits,
                               Circuit& out) {
  if (circuit.min_register_size() > num_qubits) {
    throw StackConfigError("DepolarizingModel", "register too small");
  }
  out.clear();
  out.set_name(circuit.name());
  for (const SlotView slot : circuit) {
    // X flips ahead of measurements go straight into an open slot of
    // `out`; gate and idle errors after the slot collect in post_.
    post_.clear();
    busy_.assign(num_qubits, 0);
    for (const Operation& op : slot) {
      busy_[op.control()] = 1;
      busy_[op.target()] = 1;  // == control() for one-qubit gates
      switch (category(op.gate())) {
        case GateCategory::kMeasurement:
          if (flip()) {
            out.push_op(Operation{GateType::kX, op.qubit(0)});
            ++tally_.measurement_flips;
          }
          break;
        case GateCategory::kInitialization:
          if (flip()) {
            post_.emplace_back(random_pauli(), op.qubit(0));
            ++tally_.single_qubit;
          }
          break;
        default:
          if (op.arity() == 1) {
            if (flip()) {
              post_.emplace_back(random_pauli(), op.qubit(0));
              ++tally_.single_qubit;
            }
          } else if (flip()) {
            // One of the 15 non-identity pairs, uniformly: draw a
            // combined index 1..15 and split into two one-qubit Paulis
            // (I allowed on one side but not both).
            std::uniform_int_distribution<int> dist(1, 15);
            const int combo = dist(rng_);
            static constexpr GateType kOneQubit[] = {
                GateType::kI, GateType::kX, GateType::kY, GateType::kZ};
            const GateType first = kOneQubit[combo / 4];
            const GateType second = kOneQubit[combo % 4];
            if (first != GateType::kI) {
              post_.emplace_back(first, op.qubit(0));
            }
            if (second != GateType::kI) {
              post_.emplace_back(second, op.qubit(1));
            }
            ++tally_.two_qubit;
          }
          break;
      }
    }
    // Idle errors: every untouched qubit executes an identity gate.
    for (Qubit q = 0; q < num_qubits; ++q) {
      if (busy_[q] == 0 && flip()) {
        post_.emplace_back(random_pauli(), q);
        ++tally_.idle;
      }
    }
    out.close_slot();
    out.append_slot(slot);
    out.append_slot(SlotView(post_.data(), post_.data() + post_.size()));
  }
}

void DepolarizingModel::save(journal::SnapshotWriter& out) const {
  out.tag("depolarizing");
  out.write_double(p_);
  out.write_rng(rng_);
  out.write_size(tally_.single_qubit);
  out.write_size(tally_.two_qubit);
  out.write_size(tally_.measurement_flips);
  out.write_size(tally_.idle);
}

void DepolarizingModel::load(journal::SnapshotReader& in) {
  in.expect_tag("depolarizing");
  const double p = in.read_double();
  if (p != p_) {
    throw CheckpointError(
        "depolarizing snapshot: physical error rate mismatch (checkpoint " +
        std::to_string(p) + ", configured " + std::to_string(p_) + ")");
  }
  rng_ = in.read_rng();
  tally_.single_qubit = in.read_size();
  tally_.two_qubit = in.read_size();
  tally_.measurement_flips = in.read_size();
  tally_.idle = in.read_size();
}

}  // namespace qpf::qec
