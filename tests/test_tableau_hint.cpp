// Tests for the tableau's per-qubit Z-eigenvalue hint: one test per
// Heisenberg update rule, and a differential test that replays random
// circuits against a hint-free twin (a save()/load() round trip clears
// the hint) and requires identical outcomes and snapshot bytes.
#include <gtest/gtest.h>

#include <cstdint>
#include <optional>
#include <random>
#include <vector>

#include "journal/snapshot.h"
#include "seed_support.h"
#include "stabilizer/tableau.h"

namespace qpf::stab {
namespace {

using journal::SnapshotReader;
using journal::SnapshotWriter;

std::vector<std::uint8_t> saved(const Tableau& t) {
  SnapshotWriter out;
  t.save(out);
  return out.bytes();
}

Tableau reloaded(const Tableau& t) {
  SnapshotReader in(saved(t));
  return Tableau::load(in);
}

TEST(TableauHintTest, FreshRegisterIsHintedZero) {
  const Tableau t(3);
  for (Qubit q = 0; q < 3; ++q) {
    EXPECT_EQ(t.z_hint(q), std::optional<bool>(false));
  }
}

TEST(TableauHintTest, XAndYFlipTheHint) {
  Tableau t(2);
  t.apply_x(0);
  EXPECT_EQ(t.z_hint(0), std::optional<bool>(true));
  t.apply_y(0);
  EXPECT_EQ(t.z_hint(0), std::optional<bool>(false));
  t.apply_y(1);
  EXPECT_EQ(t.z_hint(1), std::optional<bool>(true));
  // An unknown hint stays unknown.
  t.apply_h(0);
  t.apply_x(0);
  EXPECT_EQ(t.z_hint(0), std::nullopt);
  t.apply_y(0);
  EXPECT_EQ(t.z_hint(0), std::nullopt);
}

TEST(TableauHintTest, ZSSdagCzAndIdentityKeepTheHint) {
  Tableau t(2);
  t.apply_x(1);
  t.apply_z(0);
  t.apply_s(0);
  t.apply_sdag(1);
  t.apply_cz(0, 1);
  t.apply_unitary(Operation{GateType::kI, 0});
  EXPECT_EQ(t.z_hint(0), std::optional<bool>(false));
  EXPECT_EQ(t.z_hint(1), std::optional<bool>(true));
}

TEST(TableauHintTest, HClearsTheHint) {
  Tableau t(1);
  t.apply_h(0);
  EXPECT_EQ(t.z_hint(0), std::nullopt);
  // H twice restores the state but not the hint: the product path
  // finds the value again.
  t.apply_h(0);
  EXPECT_EQ(t.z_hint(0), std::nullopt);
  const MeasureResult m = t.measure(0);
  EXPECT_TRUE(m.deterministic);
  EXPECT_FALSE(m.value);
}

TEST(TableauHintTest, CnotTargetTakesParityOfKnownOperands) {
  Tableau t(3);
  t.apply_x(0);
  t.apply_cnot(0, 1);  // both known: target 0 xor 1
  EXPECT_EQ(t.z_hint(0), std::optional<bool>(true));
  EXPECT_EQ(t.z_hint(1), std::optional<bool>(true));
  t.apply_cnot(0, 1);
  EXPECT_EQ(t.z_hint(1), std::optional<bool>(false));

  t.apply_h(2);  // unknown control: the target loses its hint
  t.apply_cnot(2, 1);
  EXPECT_EQ(t.z_hint(2), std::nullopt);
  EXPECT_EQ(t.z_hint(1), std::nullopt);
  // Unknown target, known control: the target stays unknown and the
  // control keeps its value.
  t.apply_cnot(0, 1);
  EXPECT_EQ(t.z_hint(0), std::optional<bool>(true));
  EXPECT_EQ(t.z_hint(1), std::nullopt);
}

TEST(TableauHintTest, SwapSwapsTheHints) {
  Tableau t(2);
  t.apply_x(0);
  t.apply_h(1);
  t.apply_swap(0, 1);
  EXPECT_EQ(t.z_hint(0), std::nullopt);
  EXPECT_EQ(t.z_hint(1), std::optional<bool>(true));
}

TEST(TableauHintTest, MeasureAndResetSetTheHint) {
  Tableau t(2, 11);
  t.apply_h(0);
  const MeasureResult random = t.measure(0);
  EXPECT_FALSE(random.deterministic);
  EXPECT_EQ(t.z_hint(0), std::optional<bool>(random.value));

  t.apply_cnot(0, 1);  // known control and target
  t.apply_h(1);
  t.apply_h(1);  // same state, hint gone
  const MeasureResult product = t.measure(1);
  EXPECT_TRUE(product.deterministic);
  EXPECT_EQ(product.value, random.value);
  EXPECT_EQ(t.z_hint(1), std::optional<bool>(product.value));

  t.apply_h(1);
  t.reset(1);
  EXPECT_EQ(t.z_hint(1), std::optional<bool>(false));
  t.apply_x(0);
  t.reset(0);  // a hinted reset
  EXPECT_EQ(t.z_hint(0), std::optional<bool>(false));
  EXPECT_FALSE(t.measure(0).value);
}

TEST(TableauHintTest, LoadClearsTheHint) {
  Tableau t(3);
  t.apply_x(1);
  const Tableau loaded = reloaded(t);
  for (Qubit q = 0; q < 3; ++q) {
    EXPECT_EQ(loaded.z_hint(q), std::nullopt);
  }
  EXPECT_EQ(saved(loaded), saved(t));
}

// Differential test: every measure and reset runs on the hinted tableau
// and on a hint-free twin made by load(save()) just before it; value,
// determinism and the whole snapshot must agree.
class TableauHintDifferentialTest
    : public ::testing::TestWithParam<std::size_t> {};

TEST_P(TableauHintDifferentialTest, MatchesHintFreeTwin) {
  const std::size_t n = GetParam();
  const std::uint64_t seed = test::test_seed(20260905 + n);
  QPF_ANNOUNCE_SEED(seed);
  std::mt19937_64 rng(seed);
  Tableau t(n, test::stream_seed(seed, "tableau"));
  constexpr int kOps = 15000;  // x 7 sizes: > 10^5 ops in total
  constexpr int kKinds = 11;   // H S S† X Y Z CNOT CZ SWAP measure reset
  int hinted = 0;
  int product = 0;
  int random = 0;
  for (int i = 0; i < kOps; ++i) {
    const auto kind = static_cast<int>(rng() % kKinds);
    const auto a = static_cast<Qubit>(rng() % n);
    auto b = static_cast<Qubit>(rng() % n);
    const bool two_qubit = kind >= 6 && kind <= 8;
    if (two_qubit && n == 1) {
      continue;
    }
    if (two_qubit && b == a) {
      b = static_cast<Qubit>((a + 1) % n);
    }
    switch (kind) {
      case 0: t.apply_h(a); continue;
      case 1: t.apply_s(a); continue;
      case 2: t.apply_sdag(a); continue;
      case 3: t.apply_x(a); continue;
      case 4: t.apply_y(a); continue;
      case 5: t.apply_z(a); continue;
      case 6: t.apply_cnot(a, b); continue;
      case 7: t.apply_cz(a, b); continue;
      case 8: t.apply_swap(a, b); continue;
      default: break;
    }
    Tableau twin = reloaded(t);
    const bool was_hinted = t.z_hint(a).has_value();
    if (kind == 9) {
      const MeasureResult got = t.measure(a);
      const MeasureResult want = twin.measure(a);
      ASSERT_EQ(got.value, want.value) << "op " << i;
      ASSERT_EQ(got.deterministic, want.deterministic) << "op " << i;
      ASSERT_TRUE(got.deterministic || !was_hinted) << "op " << i;
      random += got.deterministic ? 0 : 1;
      product += got.deterministic && !was_hinted ? 1 : 0;
    } else {
      t.reset(a);
      twin.reset(a);
    }
    hinted += was_hinted ? 1 : 0;
    ASSERT_EQ(saved(t), saved(twin)) << "op " << i;
  }
  // Every path ran.
  EXPECT_GT(hinted, 100);
  EXPECT_GT(product, 10);
  EXPECT_GT(random, 10);
}

INSTANTIATE_TEST_SUITE_P(Sizes, TableauHintDifferentialTest,
                         ::testing::Values(1, 2, 17, 31, 32, 33, 100));

}  // namespace
}  // namespace qpf::stab
