#include "qec/biased_noise.h"

#include <stdexcept>

#include "circuit/error.h"
#include <vector>

namespace qpf::qec {

BiasedNoiseModel::BiasedNoiseModel(double p, double eta, std::uint64_t seed)
    : p_(p),
      eta_(eta),
      px_(p / (2.0 * (eta + 1.0))),
      pz_(p * eta / (eta + 1.0)),
      rng_(seed) {
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails too
    throw StackConfigError("BiasedNoiseModel", "p out of [0,1]");
  }
  if (eta <= 0.0) {
    throw StackConfigError("BiasedNoiseModel", "eta must be positive");
  }
}

bool BiasedNoiseModel::flip(double probability) {
  return uniform_(rng_) < probability;
}

GateType BiasedNoiseModel::biased_pauli() {
  // Conditional weights given an error: X : Y : Z = px : px : pz.
  const double u = uniform_(rng_) * (2.0 * px_ + pz_);
  if (u < px_) {
    return GateType::kX;
  }
  if (u < 2.0 * px_) {
    return GateType::kY;
  }
  return GateType::kZ;
}

Circuit BiasedNoiseModel::inject(const Circuit& circuit,
                                 std::size_t num_qubits) {
  if (circuit.min_register_size() > num_qubits) {
    throw StackConfigError("BiasedNoiseModel", "register too small");
  }
  Circuit out{circuit.name()};
  for (const SlotView slot : circuit) {
    TimeSlot pre;
    TimeSlot post;
    std::vector<bool> busy(num_qubits, false);
    for (const Operation& op : slot) {
      for (int i = 0; i < op.arity(); ++i) {
        busy[op.qubit(i)] = true;
      }
      switch (category(op.gate())) {
        case GateCategory::kMeasurement:
          if (flip(p_)) {
            pre.add(Operation{GateType::kX, op.qubit(0)});
            ++tally_.measurement_flips;
          }
          break;
        case GateCategory::kInitialization:
          if (flip(p_)) {
            post.add(Operation{biased_pauli(), op.qubit(0)});
            ++tally_.single_qubit;
          }
          break;
        default:
          if (op.arity() == 1) {
            if (flip(p_)) {
              post.add(Operation{biased_pauli(), op.qubit(0)});
              ++tally_.single_qubit;
            }
          } else if (flip(p_)) {
            // At least one operand faults; each side independently
            // draws identity with the complementary weight.
            GateType first = GateType::kI;
            GateType second = GateType::kI;
            while (first == GateType::kI && second == GateType::kI) {
              first = flip(0.5) ? biased_pauli() : GateType::kI;
              second = flip(0.5) ? biased_pauli() : GateType::kI;
            }
            if (first != GateType::kI) {
              post.add(Operation{first, op.qubit(0)});
            }
            if (second != GateType::kI) {
              post.add(Operation{second, op.qubit(1)});
            }
            ++tally_.two_qubit;
          }
          break;
      }
    }
    for (Qubit q = 0; q < num_qubits; ++q) {
      if (!busy[q] && flip(p_)) {
        post.add(Operation{biased_pauli(), q});
        ++tally_.idle;
      }
    }
    out.append_slot(std::move(pre));
    out.append_slot(slot);
    out.append_slot(std::move(post));
  }
  return out;
}

void BiasedNoiseModel::save(journal::SnapshotWriter& out) const {
  out.tag("biased-noise");
  out.write_double(p_);
  out.write_double(eta_);
  out.write_rng(rng_);
  out.write_size(tally_.single_qubit);
  out.write_size(tally_.two_qubit);
  out.write_size(tally_.measurement_flips);
  out.write_size(tally_.idle);
}

void BiasedNoiseModel::load(journal::SnapshotReader& in) {
  in.expect_tag("biased-noise");
  const double p = in.read_double();
  const double eta = in.read_double();
  if (p != p_ || eta != eta_) {
    throw CheckpointError("biased noise snapshot: rate / bias mismatch");
  }
  rng_ = in.read_rng();
  uniform_.reset();
  tally_.single_qubit = in.read_size();
  tally_.two_qubit = in.read_size();
  tally_.measurement_flips = in.read_size();
  tally_.idle = in.read_size();
}

}  // namespace qpf::qec
