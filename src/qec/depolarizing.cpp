#include "qec/depolarizing.h"

#include <cmath>
#include <stdexcept>

#include "circuit/bug_plant.h"
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

DepolarizingModel::DepolarizingModel(double p, std::uint64_t seed,
                                     std::optional<double> bias)
    : p_(p),
      bias_(bias),
      px_(bias ? p / (2.0 * (*bias + 1.0)) : p / 3.0),
      pz_(bias ? p * *bias / (*bias + 1.0) : p / 3.0),
      threshold_(p),
      rng_(seed) {
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails too
    throw StackConfigError("DepolarizingModel", "p out of [0,1]");
  }
  if (bias && !(std::isfinite(*bias) && *bias > 0.0)) {
    throw StackConfigError("DepolarizingModel",
                           "bias must be finite and positive");
  }
}

GateType DepolarizingModel::random_pauli() {
  if (!bias_) {
    static constexpr GateType kPaulis[] = {GateType::kX, GateType::kY,
                                           GateType::kZ};
    std::uniform_int_distribution<int> dist(0, 2);
    return kPaulis[dist(rng_)];
  }
  // Conditional weights given a fault: X : Y : Z = p_x : p_y : p_z.
  const double u = FlipThreshold::uniform(rng_()) * (2.0 * px_ + pz_);
  if (u < px_) {
    return GateType::kX;
  }
  if (u < 2.0 * px_) {
    return GateType::kY;
  }
  return GateType::kZ;
}

std::pair<GateType, GateType> DepolarizingModel::random_pair() {
  if (!bias_) {
    // One of the 15 non-identity pairs, uniformly: draw a combined
    // index 1..15 and split into two one-qubit Paulis (I allowed on one
    // side but not both).
    static constexpr GateType kOneQubit[] = {GateType::kI, GateType::kX,
                                             GateType::kY, GateType::kZ};
    std::uniform_int_distribution<int> dist(1, 15);
    const int combo = dist(rng_);
    return {kOneQubit[combo / 4], kOneQubit[combo % 4]};
  }
  // Each operand faults independently with weight 1/2, redrawn while
  // neither does.
  static const FlipThreshold kHalf(0.5);
  GateType first = GateType::kI;
  GateType second = GateType::kI;
  while (first == GateType::kI && second == GateType::kI) {
    first = kHalf.flips(rng_()) ? random_pauli() : GateType::kI;
    second = kHalf.flips(rng_()) ? random_pauli() : GateType::kI;
  }
  return {first, second};
}

const Circuit& DepolarizingModel::inject(const Circuit& circuit,
                                         std::size_t num_qubits,
                                         Circuit& out) {
  if (circuit.min_register_size() > num_qubits) {
    throw StackConfigError("DepolarizingModel", "register too small");
  }
  // One draw per location, in rewrite()'s order: a slot's operations,
  // then its idle qubits.  A slot has num_qubits - (two-qubit
  // operations) locations because it never names a qubit twice
  // (TimeSlot::add, Circuit::append and the parsers check it; push_op
  // and raw append_slot callers guarantee it).
  std::size_t locations = circuit.num_slots() * num_qubits;
  for (const Operation& op : circuit.operations()) {
    locations -= op.control() != op.target() ? 1 : 0;
  }
  std::size_t fired = 0;
  while (fired < locations && !flip()) {
    ++fired;
  }
  if (fired == locations) {
    return circuit;
  }
  rewrite(circuit, num_qubits, fired, out);
  return out;
}

void DepolarizingModel::rewrite(const Circuit& circuit, std::size_t num_qubits,
                                std::size_t fired, Circuit& out) {
  // Locations 0..fired were drawn by inject(): replay those outcomes,
  // then draw afresh.
  std::size_t drawn = fired + 1;
  const auto faults = [&] {
    if (drawn == 0) {
      return flip();
    }
    if (--drawn > 0) {
      return false;
    }
    return plant::bug(18) ? flip() : true;  // mutation hook: redraw it
  };
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
          if (faults()) {
            out.push_op(Operation{GateType::kX, op.qubit(0)});
            ++tally_.measurement_flips;
          }
          break;
        case GateCategory::kInitialization:
          if (faults()) {
            post_.emplace_back(random_pauli(), op.qubit(0));
            ++tally_.single_qubit;
          }
          break;
        default:
          if (op.arity() == 1) {
            if (faults()) {
              post_.emplace_back(random_pauli(), op.qubit(0));
              ++tally_.single_qubit;
            }
          } else if (faults()) {
            const auto [first, second] = random_pair();
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
      if (busy_[q] == 0 && faults()) {
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
  out.tag(bias_ ? "biased-noise" : "depolarizing");
  out.write_double(p_);
  if (bias_) {
    out.write_double(*bias_);
  }
  out.write_rng(rng_);
  out.write_size(tally_.single_qubit);
  out.write_size(tally_.two_qubit);
  out.write_size(tally_.measurement_flips);
  out.write_size(tally_.idle);
}

void DepolarizingModel::load(journal::SnapshotReader& in) {
  in.expect_tag(bias_ ? "biased-noise" : "depolarizing");
  const double p = in.read_double();
  if (p != p_) {
    throw CheckpointError(
        "depolarizing snapshot: physical error rate mismatch (checkpoint " +
        std::to_string(p) + ", configured " + std::to_string(p_) + ")");
  }
  if (bias_ && in.read_double() != *bias_) {
    throw CheckpointError("biased noise snapshot: bias mismatch");
  }
  rng_ = in.read_rng();
  tally_.single_qubit = in.read_size();
  tally_.two_qubit = in.read_size();
  tally_.measurement_flips = in.read_size();
  tally_.idle = in.read_size();
}

}  // namespace qpf::qec
