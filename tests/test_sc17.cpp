// Tests for the SC17 layout — SurfaceCodeLayout at d = 3 — against the
// thesis: ESM circuit structure (Table 5.8), stabilizer content (Tables
// 2.1 / 2.2), and every circuit verbatim against golden text recorded
// from the dedicated SC17 layout this one replaced.
#include "qec/surface_code.h"

#include <gtest/gtest.h>

#include <fstream>
#include <set>
#include <sstream>

#include "stabilizer/tableau.h"

namespace qpf::qec {
namespace {

using stab::PauliString;
using stab::Tableau;

const SurfaceCodeLayout& layout() {
  static const SurfaceCodeLayout instance(3);
  return instance;
}

std::uint16_t mask_of(const SurfaceCheck& check) {
  std::uint16_t mask = 0;
  for (int d : check.support) {
    mask = static_cast<std::uint16_t>(mask | (1u << d));
  }
  return mask;
}

TEST(Sc17LayoutTest, CheckMasksMatchTable21) {
  const auto& checks = layout().checks();
  ASSERT_EQ(checks.size(), 8u);
  // X stabilizers: X0X1X3X4, X1X2, X4X5X7X8, X6X7.
  EXPECT_EQ(mask_of(checks[0]), 0b000011011);
  EXPECT_EQ(mask_of(checks[1]), 0b000000110);
  EXPECT_EQ(mask_of(checks[2]), 0b110110000);
  EXPECT_EQ(mask_of(checks[3]), 0b011000000);
  // Z stabilizers: Z0Z3, Z1Z2Z4Z5, Z3Z4Z6Z7, Z5Z8.
  EXPECT_EQ(mask_of(checks[4]), 0b000001001);
  EXPECT_EQ(mask_of(checks[5]), 0b000110110);
  EXPECT_EQ(mask_of(checks[6]), 0b011011000);
  EXPECT_EQ(mask_of(checks[7]), 0b100100000);
}

TEST(Sc17LayoutTest, CheckDataEntriesMatchMasks) {
  for (const SurfaceCheck& check : layout().checks()) {
    std::uint16_t mask = 0;
    for (int d : check.data) {
      if (d >= 0) {
        mask = static_cast<std::uint16_t>(mask | (1u << d));
      }
    }
    EXPECT_EQ(mask, mask_of(check)) << "ancilla " << check.ancilla;
  }
}

TEST(Sc17LayoutTest, EffectiveTypeSwapsUnderRotation) {
  for (const SurfaceCheck& check : layout().checks()) {
    EXPECT_EQ(check.effective_type(Orientation::kNormal), check.type);
    EXPECT_NE(check.effective_type(Orientation::kRotated), check.type);
  }
}

// No data qubit may interact with two ancillas in the same CNOT slot.
TEST(Sc17ScheduleTest, CnotScheduleIsConflictFree) {
  for (int slot = 0; slot < 4; ++slot) {
    std::set<int> used;
    for (const SurfaceCheck& check : layout().checks()) {
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
  EXPECT_EQ(esm.num_slots(), SurfaceCodeLayout::kEsmSlots);
  EXPECT_EQ(esm.num_operations(), 48u);
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
  EXPECT_EQ(esm.num_slots(), SurfaceCodeLayout::kEsmSlots);
  EXPECT_EQ(esm.num_operations(), 48u);
  // In the rotated frame, the H gates sit on the former Z ancillas.
  for (const Operation& op : esm.slot(1)) {
    if (op.gate() == GateType::kH) {
      EXPECT_GE(op.qubit(0), layout().ancilla_qubit(0, 4));
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
      const SurfaceCheck& check =
          layout().checks()[static_cast<std::size_t>(order[i])];
      PauliString p(17);
      for (int d : check.support) {
        p.set_pauli(static_cast<std::size_t>(d),
                    check.type == CheckType::kX ? stab::Pauli::kX
                                                : stab::Pauli::kZ);
      }
      EXPECT_EQ(t.expectation(p), results[i].sign())
          << "check on ancilla " << check.ancilla;
    }
  }
}

TEST(Sc17LayoutTest, LogicalChainsRotate) {
  EXPECT_EQ(layout().logical_x_data(Orientation::kNormal),
            (std::vector<int>{2, 4, 6}));
  EXPECT_EQ(layout().logical_z_data(Orientation::kNormal),
            (std::vector<int>{0, 4, 8}));
  EXPECT_EQ(layout().logical_x_data(Orientation::kRotated),
            (std::vector<int>{0, 4, 8}));
  EXPECT_EQ(layout().logical_z_data(Orientation::kRotated),
            (std::vector<int>{2, 4, 6}));
}

TEST(Sc17LayoutTest, LogicalStabilizerCircuits) {
  const Circuit z = layout().logical_stabilizer_circuit(0, CheckType::kZ,
                                                        Orientation::kNormal);
  EXPECT_EQ(z.count(GateType::kCnot), 3u);
  EXPECT_EQ(z.count(GateType::kH), 0u);
  EXPECT_EQ(z.count(GateType::kMeasureZ), 1u);
  const Circuit x = layout().logical_stabilizer_circuit(0, CheckType::kX,
                                                        Orientation::kNormal);
  EXPECT_EQ(x.count(GateType::kCnot), 3u);
  EXPECT_EQ(x.count(GateType::kH), 2u);
}

// Stabilizers of Table 2.1 + the Z0Z4Z8 of Table 2.2 define |0>_L; the
// X-chain logical operator anticommutes with Z0Z4Z8 and commutes with
// every stabilizer.
TEST(Sc17LayoutTest, LogicalOperatorsCommuteWithStabilizers) {
  const PauliString xl = PauliString::parse("X2X4X6", 9);
  const PauliString zl = PauliString::parse("Z0Z4Z8", 9);
  for (const SurfaceCheck& check : layout().checks()) {
    PauliString p(9);
    for (int d : check.support) {
      p.set_pauli(static_cast<std::size_t>(d),
                  check.type == CheckType::kX ? stab::Pauli::kX
                                              : stab::Pauli::kZ);
    }
    EXPECT_TRUE(xl.commutes_with(p)) << p.str();
    EXPECT_TRUE(zl.commutes_with(p)) << p.str();
  }
  EXPECT_FALSE(xl.commutes_with(zl));
}

// Every ESM circuit (both CNOT patterns, both orientations, both dance
// modes, two bases), its measurement order, and every Fig 5.10
// logical-stabilizer circuit, rendered with Circuit::str() — names
// included — must equal tests/golden/sc17_circuits.txt, which was
// recorded from the dedicated SC17 layout before it was folded into
// SurfaceCodeLayout.
std::string render_golden() {
  std::string out;
  for (CnotPattern pattern : {CnotPattern::kMixed, CnotPattern::kSameS}) {
    const SurfaceCodeLayout sc17(3, pattern);
    const char* pname = pattern == CnotPattern::kMixed ? "mixed" : "same-s";
    for (Orientation o : {Orientation::kNormal, Orientation::kRotated}) {
      const char* oname = o == Orientation::kNormal ? "normal" : "rotated";
      for (DanceMode dance : {DanceMode::kAll, DanceMode::kZOnly}) {
        const char* dname = dance == DanceMode::kAll ? "all" : "z-only";
        for (Qubit base : {Qubit{0}, Qubit{17}}) {
          out += "# esm pattern=" + std::string(pname) + " orientation=" +
                 oname + " dance=" + dname + " base=" + std::to_string(base) +
                 "\n";
          out += sc17.esm_circuit(base, o, dance).str();
        }
        out += "# order pattern=" + std::string(pname) + " orientation=" +
               oname + " dance=" + dname + "\n";
        const char* sep = "";
        for (int a : sc17.esm_measurement_order(o, dance)) {
          out += sep + std::to_string(a);
          sep = " ";
        }
        out += "\n";
      }
    }
  }
  for (CheckType basis : {CheckType::kZ, CheckType::kX}) {
    for (Orientation o : {Orientation::kNormal, Orientation::kRotated}) {
      for (Qubit base : {Qubit{0}, Qubit{17}}) {
        out += std::string("# stabilizer basis=") +
               (basis == CheckType::kZ ? "z" : "x") + " orientation=" +
               (o == Orientation::kNormal ? "normal" : "rotated") +
               " base=" + std::to_string(base) + "\n";
        out += layout().logical_stabilizer_circuit(base, basis, o).str();
      }
    }
  }
  return out;
}

TEST(Sc17EsmTest, CircuitsMatchGoldenTable58Verbatim) {
  std::ifstream file(std::string(QPF_TEST_GOLDEN_DIR) + "/sc17_circuits.txt");
  ASSERT_TRUE(file.good());
  std::stringstream golden;
  golden << file.rdbuf();
  EXPECT_EQ(render_golden(), golden.str());
}

}  // namespace
}  // namespace qpf::qec
