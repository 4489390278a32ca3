#include "qec/lattice_surgery.h"

#include <stdexcept>

namespace qpf::qec {

namespace {

constexpr int kRows = 3;
constexpr int kColsMerged = 7;
constexpr int kSeamCol = 3;

// The logical representatives of a 3x3 patch the seam fixups were
// derived for: X_L on data column 0 and Z_L on data row 0.
constexpr std::array<int, 3> kColumnZeroX{0, 3, 6};
constexpr std::array<int, 3> kRowZeroZ{0, 1, 2};

// Solve (over GF(2)) for the subset of same-basis checks whose combined
// support equals `target` (a bitmask over the merged data qubits).
// Gaussian elimination on the check-support matrix; throws
// std::logic_error if no solution exists (it always does: the two
// logicals are homologically equivalent in the merged patch).
std::vector<int> solve_joint_subset(const SurfaceCodeLayout& merged,
                                    CheckType basis, std::uint32_t target) {
  struct Row {
    std::uint32_t support = 0;
    std::uint32_t picks = 0;  // which checks were combined (by group pos)
  };
  const std::vector<int>& group = merged.checks_of(basis);
  std::vector<Row> rows;
  for (std::size_t g = 0; g < group.size(); ++g) {
    Row row;
    for (int q :
         merged.checks()[static_cast<std::size_t>(group[g])].support) {
      row.support |= 1u << q;
    }
    row.picks = 1u << g;
    rows.push_back(row);
  }
  // Reduced row echelon form: one pivot row per leading bit.
  std::vector<int> pivot_of_bit(32, -1);
  for (std::size_t r = 0; r < rows.size(); ++r) {
    // Reduce row r against existing pivots.
    for (int bit = 0; bit < 32; ++bit) {
      if ((rows[r].support & (1u << bit)) && pivot_of_bit[bit] >= 0) {
        const Row& pivot = rows[static_cast<std::size_t>(pivot_of_bit[bit])];
        rows[r].support ^= pivot.support;
        rows[r].picks ^= pivot.picks;
      }
    }
    if (rows[r].support == 0) {
      continue;  // dependent row
    }
    int leading = 0;
    while ((rows[r].support & (1u << leading)) == 0) {
      ++leading;
    }
    // Back-substitute into earlier pivots to keep full RREF.
    for (int bit = 0; bit < 32; ++bit) {
      const int other = pivot_of_bit[bit];
      if (other >= 0 && (rows[static_cast<std::size_t>(other)].support &
                         (1u << leading))) {
        rows[static_cast<std::size_t>(other)].support ^= rows[r].support;
        rows[static_cast<std::size_t>(other)].picks ^= rows[r].picks;
      }
    }
    pivot_of_bit[static_cast<std::size_t>(leading)] = static_cast<int>(r);
  }
  // Express the target in the pivot basis.
  Row accumulated{target, 0};
  for (int bit = 0; bit < 32; ++bit) {
    if ((accumulated.support & (1u << bit)) == 0) {
      continue;
    }
    const int r = pivot_of_bit[static_cast<std::size_t>(bit)];
    if (r < 0) {
      throw std::logic_error("lattice surgery: joint logical not in span");
    }
    accumulated.support ^= rows[static_cast<std::size_t>(r)].support;
    accumulated.picks ^= rows[static_cast<std::size_t>(r)].picks;
  }
  std::vector<int> subset;
  for (std::size_t g = 0; g < group.size(); ++g) {
    if (accumulated.picks & (1u << g)) {
      subset.push_back(group[g]);
    }
  }
  return subset;
}

}  // namespace

LatticeSurgery::LatticeSurgery(const Registers& registers)
    : registers_(registers), patch_(3), merged_(kRows, kColsMerged) {
  // X_A = merged column 0, X_B = merged column 4.
  std::uint32_t target = 0;
  for (int r = 0; r < kRows; ++r) {
    target |= 1u << (r * kColsMerged + 0);
    target |= 1u << (r * kColsMerged + 4);
  }
  xx_subset_ = solve_joint_subset(merged_, CheckType::kX, target);
}

Qubit LatticeSurgery::merged_data_register(int merged_local) const {
  if (merged_local < 0 ||
      merged_local >= kRows * kColsMerged) {
    throw std::out_of_range("lattice surgery: merged data out of range");
  }
  const int row = merged_local / kColsMerged;
  const int col = merged_local % kColsMerged;
  if (col < kSeamCol) {
    return registers_.base_a + static_cast<Qubit>(row * 3 + col);
  }
  if (col == kSeamCol) {
    return registers_.routing + static_cast<Qubit>(row);
  }
  return registers_.base_b + static_cast<Qubit>(row * 3 + (col - 4));
}

Circuit LatticeSurgery::seam_preparation_circuit() const {
  Circuit circuit{"surgery-seam-prep"};
  TimeSlot slot;
  for (int r = 0; r < kRoutingQubits; ++r) {
    slot.add(Operation{GateType::kPrepZ,
                       registers_.routing + static_cast<Qubit>(r)});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

Circuit LatticeSurgery::merged_esm_circuit() const {
  // Generate over merged-local indices and remap onto the registers.
  const Circuit local = merged_.esm_circuit(0);
  const auto data_count = static_cast<Qubit>(merged_.num_data());
  const auto remap = [&](Qubit q) {
    if (q < data_count) {
      return merged_data_register(static_cast<int>(q));
    }
    return registers_.merged_ancillas + (q - data_count);
  };
  Circuit out{"surgery-merged-esm"};
  for (const SlotView slot : local) {
    TimeSlot mapped;
    for (const Operation& op : slot) {
      if (op.arity() == 1) {
        mapped.add(Operation{op.gate(), remap(op.qubit(0))});
      } else {
        mapped.add(
            Operation{op.gate(), remap(op.qubit(0)), remap(op.qubit(1))});
      }
    }
    out.append_slot(std::move(mapped));
  }
  return out;
}

int LatticeSurgery::joint_xx_sign(
    const std::vector<std::uint8_t>& round) const {
  if (round.size() != merged_.num_checks()) {
    throw std::invalid_argument("lattice surgery: round size mismatch");
  }
  int sign = +1;
  for (int k : xx_subset_) {
    if (round[static_cast<std::size_t>(k)]) {
      sign = -sign;
    }
  }
  return sign;
}

Circuit LatticeSurgery::split_circuit() const {
  Circuit circuit{"surgery-split"};
  TimeSlot slot;
  for (int r = 0; r < kRoutingQubits; ++r) {
    slot.add(Operation{GateType::kMeasureZ,
                       registers_.routing + static_cast<Qubit>(r)});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

int LatticeSurgery::merged_check_at(int site_i, int site_j) const {
  for (std::size_t k = 0; k < merged_.num_checks(); ++k) {
    if (merged_.checks()[k].site_i == site_i &&
        merged_.checks()[k].site_j == site_j) {
      return static_cast<int>(k);
    }
  }
  throw std::logic_error("lattice surgery: no check at that site");
}

LatticeSurgery::SplitFixups LatticeSurgery::split_fixups(
    const std::vector<std::uint8_t>& merged_round,
    const std::array<bool, kRoutingQubits>& routing_outcomes) const {
  if (merged_round.size() != merged_.num_checks()) {
    throw std::invalid_argument("lattice surgery: round size mismatch");
  }
  SplitFixups fixups;
  // A's right-boundary Z check Z{(1,2),(2,2)} equals the merged seam
  // check at site (2,3) times Z on routing rows 1 and 2.
  {
    const int k = merged_check_at(2, 3);
    const bool sign = (merged_round[static_cast<std::size_t>(k)] != 0) ^
                      routing_outcomes[1] ^ routing_outcomes[2];
    fixups.fix_a_seam_check = sign;
  }
  // B's left-boundary Z check Z{B(0,0),B(1,0)} equals the merged seam
  // check at site (1,4) times Z on routing rows 0 and 1.
  {
    const int k = merged_check_at(1, 4);
    const bool sign = (merged_round[static_cast<std::size_t>(k)] != 0) ^
                      routing_outcomes[0] ^ routing_outcomes[1];
    fixups.fix_b_seam_check = sign;
  }
  // Z_A Z_B = Z_merged * Z(routing row 0).
  fixups.zz_sign = routing_outcomes[0] ? -1 : +1;
  return fixups;
}

Circuit LatticeSurgery::gauge_fixup_circuit(const SplitFixups& fixups) const {
  Circuit circuit{"surgery-gauge-fixups"};
  TimeSlot slot;
  if (fixups.fix_a_seam_check) {
    // X on A(2,2): flips only A's right-boundary Z check; away from
    // both A logicals (row 0 / column 0).
    slot.add(Operation{GateType::kX, registers_.base_a + 8});
  }
  if (fixups.fix_b_seam_check) {
    // X chain B(1,0), B(2,0): flips only B's left-boundary Z check
    // Z{B(0,0),B(1,0)}; avoids B's row 0, and commutes with X_B.
    slot.add(Operation{GateType::kX, registers_.base_b + 3});
    slot.add(Operation{GateType::kX, registers_.base_b + 6});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

Circuit LatticeSurgery::zz_fixup_circuit() const {
  Circuit circuit{"surgery-zz-fixup"};
  TimeSlot slot;
  for (int local : kColumnZeroX) {
    slot.add(Operation{GateType::kX,
                       registers_.base_b + static_cast<Qubit>(local)});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

// ----------------------------------------------------------------------
// RoughLatticeSurgery (vertical seam, joint Z_A Z_B measurement)
// ----------------------------------------------------------------------

namespace {
constexpr int kRowsMergedV = 7;
constexpr int kColsV = 3;
constexpr int kSeamRow = 3;
}  // namespace

RoughLatticeSurgery::RoughLatticeSurgery(const Registers& registers)
    : registers_(registers), patch_(3), merged_(kRowsMergedV, kColsV) {
  // Z_A = merged row 0, Z_B = merged row 4.
  std::uint32_t target = 0;
  for (int c = 0; c < kColsV; ++c) {
    target |= 1u << (0 * kColsV + c);
    target |= 1u << (4 * kColsV + c);
  }
  zz_subset_ = solve_joint_subset(merged_, CheckType::kZ, target);
}

Qubit RoughLatticeSurgery::merged_data_register(int merged_local) const {
  if (merged_local < 0 || merged_local >= kRowsMergedV * kColsV) {
    throw std::out_of_range("lattice surgery: merged data out of range");
  }
  const int row = merged_local / kColsV;
  const int col = merged_local % kColsV;
  if (row < kSeamRow) {
    return registers_.base_a + static_cast<Qubit>(row * 3 + col);
  }
  if (row == kSeamRow) {
    return registers_.routing + static_cast<Qubit>(col);
  }
  return registers_.base_b + static_cast<Qubit>((row - 4) * 3 + col);
}

Circuit RoughLatticeSurgery::seam_preparation_circuit() const {
  Circuit circuit{"rough-surgery-seam-prep"};
  TimeSlot prep;
  for (int c = 0; c < kRoutingQubits; ++c) {
    prep.add(Operation{GateType::kPrepZ,
                       registers_.routing + static_cast<Qubit>(c)});
  }
  circuit.append_slot(std::move(prep));
  TimeSlot hadamards;
  for (int c = 0; c < kRoutingQubits; ++c) {
    hadamards.add(
        Operation{GateType::kH, registers_.routing + static_cast<Qubit>(c)});
  }
  circuit.append_slot(std::move(hadamards));
  return circuit;
}

Circuit RoughLatticeSurgery::merged_esm_circuit() const {
  const Circuit local = merged_.esm_circuit(0);
  const auto data_count = static_cast<Qubit>(merged_.num_data());
  const auto remap = [&](Qubit q) {
    if (q < data_count) {
      return merged_data_register(static_cast<int>(q));
    }
    return registers_.merged_ancillas + (q - data_count);
  };
  Circuit out{"rough-surgery-merged-esm"};
  for (const SlotView slot : local) {
    TimeSlot mapped;
    for (const Operation& op : slot) {
      if (op.arity() == 1) {
        mapped.add(Operation{op.gate(), remap(op.qubit(0))});
      } else {
        mapped.add(
            Operation{op.gate(), remap(op.qubit(0)), remap(op.qubit(1))});
      }
    }
    out.append_slot(std::move(mapped));
  }
  return out;
}

int RoughLatticeSurgery::joint_zz_sign(
    const std::vector<std::uint8_t>& round) const {
  if (round.size() != merged_.num_checks()) {
    throw std::invalid_argument("lattice surgery: round size mismatch");
  }
  int sign = +1;
  for (int k : zz_subset_) {
    if (round[static_cast<std::size_t>(k)]) {
      sign = -sign;
    }
  }
  return sign;
}

Circuit RoughLatticeSurgery::split_circuit() const {
  Circuit circuit{"rough-surgery-split"};
  TimeSlot hadamards;
  for (int c = 0; c < kRoutingQubits; ++c) {
    hadamards.add(
        Operation{GateType::kH, registers_.routing + static_cast<Qubit>(c)});
  }
  circuit.append_slot(std::move(hadamards));
  TimeSlot readout;
  for (int c = 0; c < kRoutingQubits; ++c) {
    readout.add(Operation{GateType::kMeasureZ,
                          registers_.routing + static_cast<Qubit>(c)});
  }
  circuit.append_slot(std::move(readout));
  return circuit;
}

int RoughLatticeSurgery::merged_check_at(int site_i, int site_j) const {
  for (std::size_t k = 0; k < merged_.num_checks(); ++k) {
    if (merged_.checks()[k].site_i == site_i &&
        merged_.checks()[k].site_j == site_j) {
      return static_cast<int>(k);
    }
  }
  throw std::logic_error("lattice surgery: no check at that site");
}

RoughLatticeSurgery::SplitFixups RoughLatticeSurgery::split_fixups(
    const std::vector<std::uint8_t>& merged_round,
    const std::array<bool, kRoutingQubits>& routing_outcomes) const {
  if (merged_round.size() != merged_.num_checks()) {
    throw std::invalid_argument("lattice surgery: round size mismatch");
  }
  SplitFixups fixups;
  // A's bottom X check X{A(2,0), A(2,1)} equals the merged seam X check
  // at site (3,1) times X on routing columns 0 and 1.
  {
    const int k = merged_check_at(3, 1);
    fixups.fix_a_seam_check =
        (merged_round[static_cast<std::size_t>(k)] != 0) ^
        routing_outcomes[0] ^ routing_outcomes[1];
  }
  // B's top X check X{B(0,1), B(0,2)} equals the merged seam X check at
  // site (4,2) times X on routing columns 1 and 2.
  {
    const int k = merged_check_at(4, 2);
    fixups.fix_b_seam_check =
        (merged_round[static_cast<std::size_t>(k)] != 0) ^
        routing_outcomes[1] ^ routing_outcomes[2];
  }
  // X_A X_B = X_merged * X(routing column 0).
  fixups.xx_sign = routing_outcomes[0] ? -1 : +1;
  return fixups;
}

Circuit RoughLatticeSurgery::gauge_fixup_circuit(
    const SplitFixups& fixups) const {
  Circuit circuit{"rough-surgery-gauge-fixups"};
  TimeSlot slot;
  if (fixups.fix_a_seam_check) {
    // Z chain A(2,1), A(2,2): flips only A's bottom X check; avoids
    // column 0 (X_A) and commutes with Z_A.
    slot.add(Operation{GateType::kZ, registers_.base_a + 7});
    slot.add(Operation{GateType::kZ, registers_.base_a + 8});
  }
  if (fixups.fix_b_seam_check) {
    // Z on B(0,2): flips only B's top X check; not on column 0.
    slot.add(Operation{GateType::kZ, registers_.base_b + 2});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

Circuit RoughLatticeSurgery::xx_fixup_circuit() const {
  Circuit circuit{"rough-surgery-xx-fixup"};
  TimeSlot slot;
  for (int local : kRowZeroZ) {
    slot.add(Operation{GateType::kZ,
                       registers_.base_b + static_cast<Qubit>(local)});
  }
  circuit.append_slot(std::move(slot));
  return circuit;
}

}  // namespace qpf::qec
