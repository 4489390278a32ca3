// Tests for the SC17 layout, ESM circuit structure (Table 5.8) and
// stabilizer content (Tables 2.1 / 2.2).
#include "qec/sc17.h"

#include <gtest/gtest.h>

#include <set>

#include "stabilizer/tableau.h"

namespace qpf::qec {
namespace {

using stab::PauliString;
using stab::Tableau;

const Sc17Layout& layout() {
  static const Sc17Layout instance;
  return instance;
}

TEST(Sc17LayoutTest, CheckMasksMatchTable21) {
  const auto& checks = layout().checks();
  ASSERT_EQ(checks.size(), 8u);
  // X stabilizers: X0X1X3X4, X1X2, X4X5X7X8, X6X7.
  EXPECT_EQ(checks[0].mask, 0b000011011);
  EXPECT_EQ(checks[1].mask, 0b000000110);
  EXPECT_EQ(checks[2].mask, 0b110110000);
  EXPECT_EQ(checks[3].mask, 0b011000000);
  // Z stabilizers: Z0Z3, Z1Z2Z4Z5, Z3Z4Z6Z7, Z5Z8.
  EXPECT_EQ(checks[4].mask, 0b000001001);
  EXPECT_EQ(checks[5].mask, 0b000110110);
  EXPECT_EQ(checks[6].mask, 0b011011000);
  EXPECT_EQ(checks[7].mask, 0b100100000);
}

TEST(Sc17LayoutTest, CheckDataEntriesMatchMasks) {
  for (const Check& check : layout().checks()) {
    std::uint16_t mask = 0;
    for (int d : check.data) {
      if (d >= 0) {
        mask = static_cast<std::uint16_t>(mask | (1u << d));
      }
    }
    EXPECT_EQ(mask, check.mask) << "ancilla " << check.ancilla;
  }
}

TEST(Sc17LayoutTest, EffectiveTypeSwapsUnderRotation) {
  for (const Check& check : layout().checks()) {
    EXPECT_EQ(check.effective_type(Orientation::kNormal), check.type);
    EXPECT_NE(check.effective_type(Orientation::kRotated), check.type);
  }
}

// No data qubit may interact with two ancillas in the same CNOT slot.
TEST(Sc17ScheduleTest, CnotScheduleIsConflictFree) {
  for (int slot = 0; slot < 4; ++slot) {
    std::set<int> used;
    for (const Check& check : layout().checks()) {
      const int d = check.data[static_cast<std::size_t>(slot)];
      if (d >= 0) {
        EXPECT_TRUE(used.insert(d).second)
            << "slot " << slot << " data " << d;
      }
    }
  }
}

TEST(Sc17EsmTest, StructureMatchesTable58) {
  const Circuit esm =
      layout().esm_circuit(0, Orientation::kNormal, DanceMode::kAll);
  EXPECT_EQ(esm.num_slots(), Sc17Layout::kEsmSlots);
  EXPECT_EQ(esm.num_operations(), Sc17Layout::kEsmGates);
  EXPECT_EQ(esm.slot(0).size(), 4u);  // reset X ancillas
  EXPECT_EQ(esm.slot(1).size(), 8u);  // reset Z ancillas + H on X ancillas
  for (int i = 2; i <= 5; ++i) {   // 24 CNOTs over 4 slots
    for (const Operation& op : esm.slot(static_cast<std::size_t>(i))) {
      EXPECT_EQ(op.gate(), GateType::kCnot);
    }
  }
  EXPECT_EQ(esm.slot(2).size() + esm.slot(3).size() + esm.slot(4).size() +
                esm.slot(5).size(),
            24u);
  EXPECT_EQ(esm.slot(6).size(), 4u);  // H on X ancillas
  EXPECT_EQ(esm.slot(7).size(), 8u);  // measure all ancillas
  EXPECT_EQ(esm.count(GateType::kMeasureZ), 8u);
  EXPECT_EQ(esm.count(GateType::kH), 8u);
  EXPECT_EQ(esm.count(GateType::kPrepZ), 8u);
}

TEST(Sc17EsmTest, RotatedEsmHasSameShape) {
  const Circuit esm =
      layout().esm_circuit(0, Orientation::kRotated, DanceMode::kAll);
  EXPECT_EQ(esm.num_slots(), Sc17Layout::kEsmSlots);
  EXPECT_EQ(esm.num_operations(), Sc17Layout::kEsmGates);
  // In the rotated frame, the H gates sit on the former Z ancillas.
  for (const Operation& op : esm.slot(1)) {
    if (op.gate() == GateType::kH) {
      EXPECT_GE(op.qubit(0), Sc17Layout::ancilla_qubit(0, 4));
    }
  }
}

TEST(Sc17EsmTest, ZOnlyDanceUsesFourAncillas) {
  const Circuit esm =
      layout().esm_circuit(0, Orientation::kNormal, DanceMode::kZOnly);
  EXPECT_EQ(esm.count(GateType::kMeasureZ), 4u);
  EXPECT_EQ(esm.count(GateType::kH), 0u);
  EXPECT_EQ(esm.count(GateType::kCnot), 12u);
  const auto order =
      layout().esm_measurement_order(Orientation::kNormal, DanceMode::kZOnly);
  EXPECT_EQ(order, (std::vector<int>{4, 5, 6, 7}));
}

TEST(Sc17EsmTest, BaseOffsetShiftsEveryQubit) {
  const Circuit esm =
      layout().esm_circuit(17, Orientation::kNormal, DanceMode::kAll);
  for (const SlotView slot : esm) {
    for (const Operation& op : slot) {
      for (int i = 0; i < op.arity(); ++i) {
        EXPECT_GE(op.qubit(i), 17u);
        EXPECT_LT(op.qubit(i), 34u);
      }
    }
  }
}

// Running one ESM round on |0...0> projects the register into a
// simultaneous eigenstate of all 8 checks, with the measured ancilla
// values matching the stabilizer expectations.
TEST(Sc17EsmTest, EsmProjectsIntoCheckEigenstates) {
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    Tableau t(17, seed);
    t.execute(layout().esm_circuit(0, Orientation::kNormal, DanceMode::kAll));
    const auto results = t.take_measurements();
    ASSERT_EQ(results.size(), 8u);
    const auto order =
        layout().esm_measurement_order(Orientation::kNormal, DanceMode::kAll);
    for (std::size_t i = 0; i < order.size(); ++i) {
      const Check& check = layout().checks()[static_cast<std::size_t>(
          order[i])];
      PauliString p(17);
      for (int d = 0; d < 9; ++d) {
        if (check.mask & (1u << d)) {
          p.set_pauli(static_cast<std::size_t>(d),
                      check.type == CheckType::kX ? stab::Pauli::kX
                                                  : stab::Pauli::kZ);
        }
      }
      EXPECT_EQ(t.expectation(p), results[i].sign())
          << "check on ancilla " << check.ancilla;
    }
  }
}

TEST(Sc17LayoutTest, LogicalChainsRotate) {
  EXPECT_EQ(layout().logical_x_data(Orientation::kNormal),
            (std::array<int, 3>{2, 4, 6}));
  EXPECT_EQ(layout().logical_z_data(Orientation::kNormal),
            (std::array<int, 3>{0, 4, 8}));
  EXPECT_EQ(layout().logical_x_data(Orientation::kRotated),
            (std::array<int, 3>{0, 4, 8}));
  EXPECT_EQ(layout().logical_z_data(Orientation::kRotated),
            (std::array<int, 3>{2, 4, 6}));
}

TEST(Sc17LayoutTest, LogicalStabilizerCircuits) {
  const Qubit ancilla = Sc17Layout::ancilla_qubit(0, 0);
  const Circuit z = layout().logical_stabilizer_circuit(
      0, CheckType::kZ, ancilla, Orientation::kNormal);
  EXPECT_EQ(z.count(GateType::kCnot), 3u);
  EXPECT_EQ(z.count(GateType::kH), 0u);
  EXPECT_EQ(z.count(GateType::kMeasureZ), 1u);
  const Circuit x = layout().logical_stabilizer_circuit(
      0, CheckType::kX, ancilla, Orientation::kNormal);
  EXPECT_EQ(x.count(GateType::kCnot), 3u);
  EXPECT_EQ(x.count(GateType::kH), 2u);
}

// Stabilizers of Table 2.1 + the Z0Z4Z8 of Table 2.2 define |0>_L; the
// X-chain logical operator anticommutes with Z0Z4Z8 and commutes with
// every stabilizer.
TEST(Sc17LayoutTest, LogicalOperatorsCommuteWithStabilizers) {
  const PauliString xl = PauliString::parse("X2X4X6", 9);
  const PauliString zl = PauliString::parse("Z0Z4Z8", 9);
  for (const Check& check : layout().checks()) {
    PauliString p(9);
    for (int d = 0; d < 9; ++d) {
      if (check.mask & (1u << d)) {
        p.set_pauli(static_cast<std::size_t>(d),
                    check.type == CheckType::kX ? stab::Pauli::kX
                                                : stab::Pauli::kZ);
      }
    }
    EXPECT_TRUE(xl.commutes_with(p)) << p.str();
    EXPECT_TRUE(zl.commutes_with(p)) << p.str();
  }
  EXPECT_FALSE(xl.commutes_with(zl));
}

}  // namespace
}  // namespace qpf::qec
