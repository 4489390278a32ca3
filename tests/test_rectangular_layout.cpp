// Coverage for the rectangular surface-code layouts that lattice
// surgery relies on (3x7 and 7x3 merged patches, and general shapes).
#include <gtest/gtest.h>

#include "circuit/error.h"

#include <set>

#include "qec/surface_code.h"
#include "stabilizer/tableau.h"

namespace qpf::qec {
namespace {

struct Shape {
  int rows;
  int cols;
};

class RectangularLayoutTest : public ::testing::TestWithParam<Shape> {};

TEST_P(RectangularLayoutTest, CountsAndCommutation) {
  const auto [rows, cols] = GetParam();
  const SurfaceCodeLayout layout(rows, cols);
  EXPECT_EQ(layout.rows(), rows);
  EXPECT_EQ(layout.cols(), cols);
  EXPECT_EQ(layout.distance(), std::min(rows, cols));
  EXPECT_EQ(layout.num_data(), static_cast<std::size_t>(rows * cols));
  EXPECT_EQ(layout.num_checks(), static_cast<std::size_t>(rows * cols - 1));
  for (const SurfaceCheck& a : layout.checks()) {
    for (const SurfaceCheck& b : layout.checks()) {
      if (a.type == b.type) {
        continue;
      }
      std::size_t overlap = 0;
      for (int q : a.support) {
        overlap += std::count(b.support.begin(), b.support.end(), q);
      }
      EXPECT_EQ(overlap % 2, 0u);
    }
  }
}

TEST_P(RectangularLayoutTest, ScheduleConflictFree) {
  const auto [rows, cols] = GetParam();
  const SurfaceCodeLayout layout(rows, cols);
  for (int slot = 0; slot < 4; ++slot) {
    std::set<int> used;
    for (const SurfaceCheck& check : layout.checks()) {
      const int q = check.data[static_cast<std::size_t>(slot)];
      if (q >= 0) {
        EXPECT_TRUE(used.insert(q).second) << rows << "x" << cols;
      }
    }
  }
}

// Lattice surgery's logical representatives: Z along data row 0 (left
// to right) and X along data column 0 (top to bottom) commute with
// every check of the other basis on any rectangle.
TEST_P(RectangularLayoutTest, LogicalChainsSpanTheRightBoundaries) {
  const auto [rows, cols] = GetParam();
  const SurfaceCodeLayout layout(rows, cols);
  for (const SurfaceCheck& check : layout.checks()) {
    std::size_t on_row0 = 0;
    std::size_t on_col0 = 0;
    for (int q : check.support) {
      on_row0 += q < cols ? 1 : 0;
      on_col0 += q % cols == 0 ? 1 : 0;
    }
    if (check.type == CheckType::kX) {
      EXPECT_EQ(on_row0 % 2, 0u) << "ancilla " << check.ancilla;
    } else {
      EXPECT_EQ(on_col0 % 2, 0u) << "ancilla " << check.ancilla;
    }
  }
}

TEST_P(RectangularLayoutTest, ChecksOrderedByLowestDataQubit) {
  const auto [rows, cols] = GetParam();
  const SurfaceCodeLayout layout(rows, cols);
  for (CheckType type : {CheckType::kX, CheckType::kZ}) {
    const std::vector<int>& group = layout.checks_of(type);
    for (std::size_t g = 0; g + 1 < group.size(); ++g) {
      EXPECT_LT(layout.checks()[static_cast<std::size_t>(group[g])]
                    .support.front(),
                layout.checks()[static_cast<std::size_t>(group[g + 1])]
                    .support.front());
    }
  }
}

TEST_P(RectangularLayoutTest, EsmProjectsIntoEigenstates) {
  const auto [rows, cols] = GetParam();
  const SurfaceCodeLayout layout(rows, cols);
  stab::Tableau t(layout.num_qubits(), 3);
  t.execute(layout.esm_circuit(0));
  const auto results = t.take_measurements();
  ASSERT_EQ(results.size(), layout.num_checks());
  for (std::size_t k = 0; k < layout.num_checks(); ++k) {
    const SurfaceCheck& check = layout.checks()[k];
    stab::PauliString p(layout.num_qubits());
    for (int q : check.support) {
      p.set_pauli(static_cast<std::size_t>(q),
                  check.type == CheckType::kX ? stab::Pauli::kX
                                              : stab::Pauli::kZ);
    }
    EXPECT_EQ(t.expectation(p), results[k].sign());
  }
}

TEST_P(RectangularLayoutTest, MatchingDecoderCoversSingleErrors) {
  const auto [rows, cols] = GetParam();
  const SurfaceCodeLayout layout(rows, cols);
  for (CheckType basis : {CheckType::kX, CheckType::kZ}) {
    const MatchingDecoder decoder(layout, basis);
    for (std::size_t q = 0; q < layout.num_data(); ++q) {
      const auto defects = decoder.signature({static_cast<int>(q)});
      const auto fix = decoder.decode(defects);
      EXPECT_EQ(decoder.signature(fix), defects);
      EXPECT_EQ(fix.size(), 1u);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, RectangularLayoutTest,
                         ::testing::Values(Shape{3, 7}, Shape{7, 3},
                                           Shape{3, 5}, Shape{5, 3},
                                           Shape{5, 7}, Shape{5, 9}));

TEST(RectangularLayoutTest, EvenDimensionsRejected) {
  EXPECT_THROW(SurfaceCodeLayout(3, 4), StackConfigError);
  EXPECT_THROW(SurfaceCodeLayout(4, 3), StackConfigError);
  EXPECT_THROW(SurfaceCodeLayout(3, 1), StackConfigError);
}

}  // namespace
}  // namespace qpf::qec
