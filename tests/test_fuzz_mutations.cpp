// Mutation smoke suite: the fuzzer is itself tested for sensitivity.
// Each catalogued bug (circuit/bug_plant.h) is planted in-process and
// the engine must catch it within a bounded, fixed-seed budget; the
// same budget on a clean build must produce zero oracle failures.  The
// budget (seed 7, 25 cases) matches tools/check_fuzz.sh so a CI
// failure here replays identically from the command line.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "circuit/bug_plant.h"
#include "fuzz/engine.h"

namespace qpf::fuzz {
namespace {

/// The fixed smoke budget shared with tools/check_fuzz.sh.
FuzzOptions smoke_options() {
  FuzzOptions options;
  options.seed = 7;
  options.cases = 25;
  options.max_failures = 1;  // first confirmed failure is enough
  return options;
}

/// RAII: revert to the QPF_PLANT_BUG environment default on scope exit
/// even when an assertion fails mid-test.
struct PlantGuard {
  explicit PlantGuard(int n) { plant::set_for_testing(n); }
  ~PlantGuard() { plant::set_for_testing(-1); }
};

/// Which oracles are allowed to be the one that catches bug `n`.
/// Keeping this map tight documents each bug's intended blind spots:
/// e.g. conjugation-table bugs pair-cancel through mirror circuits, so
/// only the table sweep (or metamorphic injection) may see them.
std::vector<std::string> expected_oracles(int bug) {
  switch (bug) {
    case 1:
    case 2:
    case 3:
      return {"conjugation", "metamorphic"};
    case 4:  // skipped non-Clifford flush
      return {"semantics", "mirror-chp", "mirror-qx"};
    case 5:  // reset keeps the record (the probe ESM's resets keep them)
      return {"mirror-chp", "mirror-qx", "arbiter", "sampling",
              "peek-vs-probe"};
    case 6:  // layer corrects measurements with the Z component
      return {"sampling", "mirror-chp", "mirror-qx", "metamorphic"};
    case 7:  // tableau H kernel drops the sign word
      return {"backend-diff"};
    case 8:  // LUT agreement window slides one round back
      return {"lut-window"};
    case 9:  // supervisor replay drops the first pending circuit
      return {"chaos"};
    case 10:  // snapshot drops the primary record bank (peek-vs-probe
              // builds its twins from snapshots)
      return {"snapshot", "peek-vs-probe"};
    case 11:  // arbiter forwards absorbed Paulis to the PEL
      return {"arbiter", "mirror-chp", "mirror-qx"};
    case 12:  // wire-frame decoder skips the body CRC
      return {"serve-codec", "net-fault"};
    case 13:  // checkpoint write skips the parent-directory fsync
      return {"io-fault"};
    case 14:  // server bypasses the per-session idempotency window
      return {"net-fault"};
    case 15:  // executor commits results in arrival order
      return {"executor-determinism"};
    case 16:  // the frames' observable reads ignore their Z records
      return {"peek-vs-probe", "frame-core"};
    case 17:  // a FrameCore memo hit ignores the X record
      return {"frame-core"};
    case 18:  // the noise rewrite redraws the location that fired
      return {"noise-draws"};
    case 19:  // a FrameCore compiled map keeps a reset's X record
      return {"frame-core"};
    default:
      return {};
  }
}

class MutationSmoke : public ::testing::TestWithParam<int> {};

TEST_P(MutationSmoke, PlantedBugIsCaughtWithinBudget) {
  const int bug = GetParam();
  PlantGuard guard(bug);
  const FuzzReport report = run_fuzz(smoke_options());
  ASSERT_FALSE(report.failures.empty())
      << "bug " << bug << " (" << plant::describe(bug)
      << ") survived the smoke budget undetected";
  const FuzzFailure& failure = report.failures.front();
  const std::vector<std::string> allowed = expected_oracles(bug);
  EXPECT_NE(std::find(allowed.begin(), allowed.end(), failure.oracle),
            allowed.end())
      << "bug " << bug << " caught by unexpected oracle " << failure.oracle
      << ": " << failure.detail;
  // Shrunk witnesses stay small enough to read (seed-only oracles
  // report zero gates).
  EXPECT_LE(failure.shrunk_gates, 8u)
      << "bug " << bug << " witness: " << failure.reproducer;
  // The reproducer replays to the same verdict while the bug is in.
  if (!failure.reproducer.empty()) {
    const Reproducer rep = parse_reproducer(failure.reproducer);
    const OracleOutcome replay = replay_reproducer(rep);
    EXPECT_FALSE(replay.passed) << "bug " << bug << " reproducer lost its bite";
  }
}

INSTANTIATE_TEST_SUITE_P(AllPlantedBugs, MutationSmoke,
                         ::testing::Range(1, plant::kCount + 1));

TEST(MutationSmokeTest, CleanBuildPassesTheSameBudget) {
  PlantGuard guard(0);
  FuzzOptions options = smoke_options();
  options.max_failures = 0;  // run the budget to completion
  const FuzzReport report = run_fuzz(options);
  EXPECT_TRUE(report.pass()) << to_json(report);
}

TEST(MutationSmokeTest, PlantedReportIsDeterministic) {
  PlantGuard guard(2);
  const std::string a = to_json(run_fuzz(smoke_options()));
  const std::string b = to_json(run_fuzz(smoke_options()));
  EXPECT_EQ(a, b);
  EXPECT_NE(a.find("\"verdict\": \"FAIL\""), std::string::npos);
}

TEST(MutationSmokeTest, CappedReportIsThePrefixOfTheFullOneAtEveryJobs) {
  // A case stops applying oracles at the failure the commit's cutoff
  // fires on, or earlier, so a capped report holds the uncapped
  // report's first failures, and one worker and four write the same
  // bytes.
  PlantGuard guard(1);
  FuzzOptions options = smoke_options();
  options.cases = 3;
  options.max_shrink_evaluations = 40;
  options.max_failures = 0;
  const FuzzReport full = run_fuzz(options);
  ASSERT_GE(full.failures.size(), 4u) << to_json(full);
  ASSERT_EQ(full.failures[0].case_index, full.failures[2].case_index)
      << "the budget must put three failures in one case";
  for (const std::size_t cap : {1u, 2u, 3u, 4u}) {
    options.max_failures = cap;
    options.jobs = 1;
    const FuzzReport capped = run_fuzz(options);
    ASSERT_EQ(capped.failures.size(), cap);
    for (std::size_t i = 0; i < cap; ++i) {
      EXPECT_EQ(capped.failures[i].oracle, full.failures[i].oracle);
      EXPECT_EQ(capped.failures[i].case_index, full.failures[i].case_index);
      EXPECT_EQ(capped.failures[i].reproducer, full.failures[i].reproducer);
    }
    options.jobs = 4;
    EXPECT_EQ(to_json(run_fuzz(options)), to_json(capped)) << "cap " << cap;
  }
}

TEST(MutationSmokeTest, ExclusiveOracleFailuresReportTheSameAtEveryJobs) {
  // io-fault swaps a process-global backend: at one worker it runs in
  // the case's task, on the committing thread; above one, at commit.
  PlantGuard guard(13);
  FuzzOptions options = smoke_options();
  options.cases = 3;
  options.max_failures = 2;
  const FuzzReport serial = run_fuzz(options);
  ASSERT_EQ(serial.failures.size(), 2u) << to_json(serial);
  EXPECT_EQ(serial.failures[1].oracle, "io-fault");
  options.jobs = 4;
  EXPECT_EQ(to_json(run_fuzz(options)), to_json(serial));
}

TEST(MutationSmokeTest, CatalogueDescribesEveryBug) {
  for (int n = 1; n <= plant::kCount; ++n) {
    EXPECT_STRNE(plant::describe(n), "?");
  }
  EXPECT_STREQ(plant::describe(0), "?");
  EXPECT_STREQ(plant::describe(plant::kCount + 1), "?");
}

}  // namespace
}  // namespace qpf::fuzz
