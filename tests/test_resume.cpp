// End-to-end tests for the crash-safe LER campaign engine
// (bench/ler_common.h): the headline PR guarantee is that a campaign
// killed at an arbitrary trial/window boundary and resumed produces
// aggregate statistics BIT-IDENTICAL to an uninterrupted run — and that
// a corrupted checkpoint degrades to a clean re-run, never a crash or a
// silently different answer.
#include "ler_common.h"

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "circuit/error.h"
#include "journal/run_journal.h"
#include "journal/snapshot.h"
#include "seed_support.h"

namespace qpf::bench {
namespace {

// Small but non-trivial campaign: target_logical_errors = 3 guarantees
// every trial runs at least 3 windows, so an interrupt after 2 windows
// always lands mid-trial.
LerConfig fast_config() {
  LerConfig config;
  config.physical_error_rate = 0.05;
  config.with_pauli_frame = true;
  config.target_logical_errors = 3;
  config.max_windows = 5000;
  config.seed = 424242;
  return config;
}

void expect_same_point(const LerPoint& a, const LerPoint& b) {
  // EXPECT_EQ on doubles on purpose: the guarantee is bit-identical,
  // not approximately equal.
  EXPECT_EQ(a.ler_samples, b.ler_samples);
  EXPECT_EQ(a.window_samples, b.window_samples);
  EXPECT_EQ(a.mean_ler, b.mean_ler);
  EXPECT_EQ(a.stddev_ler, b.stddev_ler);
  EXPECT_EQ(a.window_cv, b.window_cv);
  EXPECT_EQ(a.saved_gates, b.saved_gates);
  EXPECT_EQ(a.saved_slots, b.saved_slots);
}

class ResumeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string("resume_test_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string dir_;
};

TEST_F(ResumeTest, LerTrialSaveLoadRoundTrip) {
  LerConfig config = fast_config();
  QPF_ANNOUNCE_SEED(config.seed);

  LerTrial original(config);
  for (int i = 0; i < 4 && !original.done(); ++i) {
    original.step();
  }
  journal::SnapshotWriter out;
  original.save(out);

  LerTrial restored(config);
  journal::SnapshotReader in(out.bytes());
  restored.load(in);
  EXPECT_TRUE(in.exhausted());
  EXPECT_EQ(restored.windows(), original.windows());
  EXPECT_EQ(restored.logical_errors(), original.logical_errors());

  // Run both to completion: identical trajectories, bit-identical
  // saved-work fractions.
  while (!original.done()) {
    original.step();
  }
  while (!restored.done()) {
    restored.step();
  }
  const LerRun a = original.result();
  const LerRun b = restored.result();
  EXPECT_EQ(a.windows, b.windows);
  EXPECT_EQ(a.logical_errors, b.logical_errors);
  EXPECT_EQ(a.saved_gates_fraction, b.saved_gates_fraction);
  EXPECT_EQ(a.saved_slots_fraction, b.saved_slots_fraction);
}

TEST_F(ResumeTest, LerTrialLoadRejectsDifferentSeed) {
  LerConfig config = fast_config();
  LerTrial original(config);
  journal::SnapshotWriter out;
  original.save(out);

  config.seed += 1;
  LerTrial other(config);
  journal::SnapshotReader in(out.bytes());
  EXPECT_THROW(other.load(in), CheckpointError);
}

TEST_F(ResumeTest, InterruptedCampaignResumesBitIdentically) {
  CampaignOptions options;
  options.config = fast_config();
  options.runs = 2;
  QPF_ANNOUNCE_SEED(options.config.seed);

  // Uninterrupted in-memory reference.
  CampaignOptions reference = options;
  const CampaignResult expected = run_ler_campaign(reference);
  ASSERT_EQ(expected.trials_completed, 2u);
  ASSERT_FALSE(expected.interrupted);

  // Same campaign, durable, killed after two windows.
  options.state_dir = dir_;
  options.checkpoint_every_windows = 1;
  options.interrupt_after_windows = 2;
  const CampaignResult killed = run_ler_campaign(options);
  EXPECT_TRUE(killed.interrupted);
  EXPECT_EQ(killed.trials_completed, 0u);

  // Resume to completion.
  options.interrupt_after_windows = 0;
  const CampaignResult resumed = run_ler_campaign(options);
  EXPECT_FALSE(resumed.interrupted);
  EXPECT_EQ(resumed.trials_completed, 2u);
  EXPECT_EQ(resumed.windows_resumed, 2u);  // restored mid-trial state
  EXPECT_FALSE(resumed.checkpoint_recovered);
  expect_same_point(resumed.point, expected.point);
}

TEST_F(ResumeTest, RepeatedKillsStillConvergeBitIdentically) {
  CampaignOptions options;
  options.config = fast_config();
  options.config.target_logical_errors = 2;
  options.runs = 2;
  QPF_ANNOUNCE_SEED(options.config.seed);

  CampaignOptions reference = options;
  const CampaignResult expected = run_ler_campaign(reference);

  // Kill the campaign every three windows, resuming each time — the
  // pathological flaky-node scenario.  However often it dies, the final
  // statistics must match the uninterrupted reference exactly.
  options.state_dir = dir_;
  options.checkpoint_every_windows = 2;
  options.interrupt_after_windows = 3;
  CampaignResult last;
  int attempts = 0;
  do {
    last = run_ler_campaign(options);
    ASSERT_LT(++attempts, 2000) << "campaign never converged";
  } while (last.interrupted);
  EXPECT_EQ(last.trials_completed, 2u);
  expect_same_point(last.point, expected.point);
}

TEST_F(ResumeTest, CompletedTrialsReplayFromJournalWithoutRerun) {
  CampaignOptions options;
  options.config = fast_config();
  options.runs = 2;
  options.state_dir = dir_;
  const CampaignResult first = run_ler_campaign(options);
  ASSERT_EQ(first.trials_completed, 2u);
  EXPECT_EQ(first.trials_from_journal, 0u);

  // Re-running the finished campaign is a pure journal replay.
  const CampaignResult replay = run_ler_campaign(options);
  EXPECT_EQ(replay.trials_completed, 2u);
  EXPECT_EQ(replay.trials_from_journal, 2u);
  expect_same_point(replay.point, first.point);
}

TEST_F(ResumeTest, CorruptCheckpointFallsBackToCleanRerun) {
  CampaignOptions options;
  options.config = fast_config();
  options.runs = 2;
  QPF_ANNOUNCE_SEED(options.config.seed);

  CampaignOptions reference = options;
  const CampaignResult expected = run_ler_campaign(reference);

  options.state_dir = dir_;
  options.checkpoint_every_windows = 1;
  options.interrupt_after_windows = 2;
  const CampaignResult killed = run_ler_campaign(options);
  ASSERT_TRUE(killed.interrupted);

  // Flip one byte of the mid-trial checkpoint's payload.
  const std::string checkpoint_path = dir_ + "/stack.ckpt";
  std::string bytes;
  {
    std::ifstream in(checkpoint_path, std::ios::binary);
    ASSERT_TRUE(in.good());
    bytes.assign(std::istreambuf_iterator<char>(in),
                 std::istreambuf_iterator<char>());
  }
  ASSERT_GT(bytes.size(), 40u);
  bytes[bytes.size() / 2] ^= 0x10;
  {
    std::ofstream out(checkpoint_path, std::ios::binary | std::ios::trunc);
    out << bytes;
  }

  // Resume: the corrupt checkpoint is discarded with a warning, the
  // in-flight trial restarts from its deterministic seed, and the final
  // statistics still match the uninterrupted reference bit-for-bit.
  options.interrupt_after_windows = 0;
  const CampaignResult resumed = run_ler_campaign(options);
  EXPECT_TRUE(resumed.checkpoint_recovered);
  EXPECT_FALSE(resumed.checkpoint_warning.empty());
  EXPECT_EQ(resumed.windows_resumed, 0u);
  EXPECT_EQ(resumed.trials_completed, 2u);
  expect_same_point(resumed.point, expected.point);
}

TEST_F(ResumeTest, StaleCheckpointIsIgnoredSilently) {
  CampaignOptions options;
  options.config = fast_config();
  options.runs = 2;
  QPF_ANNOUNCE_SEED(options.config.seed);

  // Learn trial 0's (deterministic) length from an in-memory reference,
  // then interrupt the durable campaign exactly as trial 0 finishes:
  // trial 0 is journaled, trial 1 never steps.
  const CampaignResult expected = run_ler_campaign(options);
  const auto trial0_windows =
      static_cast<std::size_t>(expected.point.window_samples.at(0));

  options.state_dir = dir_;
  options.interrupt_after_windows = trial0_windows;
  const CampaignResult killed = run_ler_campaign(options);
  ASSERT_TRUE(killed.interrupted);
  ASSERT_EQ(killed.trials_completed, 1u);

  // Plant a checkpoint claiming to be mid-trial-0: trial 0 is already
  // journaled, so the checkpoint is stale (not corrupt).  The journal
  // wins and the resume starts trial 1 cleanly, with no recovery
  // warning.
  journal::SnapshotWriter out;
  out.tag("ler-campaign");
  out.write_u64(0);
  journal::write_checkpoint_file(dir_ + "/stack.ckpt", out.bytes());

  options.interrupt_after_windows = 0;
  const CampaignResult resumed = run_ler_campaign(options);
  EXPECT_EQ(resumed.trials_completed, 2u);
  EXPECT_EQ(resumed.trials_from_journal, 1u);
  EXPECT_EQ(resumed.windows_resumed, 0u);
  EXPECT_FALSE(resumed.checkpoint_recovered);
  expect_same_point(resumed.point, expected.point);
}

TEST_F(ResumeTest, ForeignConfigurationJournalIsRejected) {
  CampaignOptions options;
  options.config = fast_config();
  options.runs = 1;
  options.state_dir = dir_;
  options.interrupt_after_windows = 1;  // just long enough to persist
  (void)run_ler_campaign(options);

  CampaignOptions different = options;
  different.config.physical_error_rate = 0.01;
  EXPECT_THROW((void)run_ler_campaign(different), CheckpointError);

  CampaignOptions different_runs = options;
  different_runs.runs = 7;
  EXPECT_THROW((void)run_ler_campaign(different_runs), CheckpointError);
}

TEST_F(ResumeTest, JournalWithSubsystemsThisConfigLacksIsRejected) {
  // Resume compares the whole configuration key set both ways: a plain
  // campaign must not adopt the trials of a campaign that differs from
  // it in any journaled field.  Every LerConfig field that changes a
  // trial's record has one config here.  Left out on purpose:
  //   - timeout_per_trial_ms: a wall-clock watchdog; a trial it stops is
  //     journaled timed_out, so the record says so itself;
  //   - supervisor.backoff_base_ns, backoff_cap_ns and seed: they shape
  //     only the modeled backoff of incident reports, which no journal
  //     line records;
  //   - chaos fields while chaos.any() is false, classical-fault rates
  //     while all are 0, supervisor fields while supervise is off, and
  //     deadline fields while deadline.any() is false: the stack then
  //     reads none of them.
  // The bias has its own test below.
  LerConfig chaos = fast_config();
  chaos.chaos.max_gap = 50;
  chaos.chaos.crash_weight = 0;
  chaos.chaos.stall_weight = 1;
  LerConfig deadline = fast_config();
  deadline.deadline.round_budget_ns = 1e12;
  LerConfig larger = fast_config();
  larger.ninja_options.distance = 5;
  LerConfig same_s = fast_config();
  same_s.ninja_options.esm_pattern = qec::CnotPattern::kSameS;
  LerConfig undecoded = fast_config();
  undecoded.ninja_options.decoding_enabled = false;
  undecoded.max_windows = 50;
  LerConfig protected_frame = fast_config();
  protected_frame.frame_protection = pf::Protection::kVote;
  LerConfig validated = fast_config();
  validated.validate = true;
  LerConfig faulty = fast_config();
  faulty.classical_faults.reorder = 0.01;
  LerConfig supervised = fast_config();
  supervised.supervise = true;
  for (const LerConfig& written :
       {chaos, deadline, larger, same_s, undecoded, protected_frame,
        validated, faulty, supervised}) {
    std::filesystem::remove_all(dir_);
    CampaignOptions options;
    options.config = written;
    options.runs = 1;
    options.state_dir = dir_;
    ASSERT_EQ(run_ler_campaign(options).trials_completed, 1u);
    CampaignOptions plain = options;
    plain.config = fast_config();
    plain.config.max_windows = written.max_windows;
    EXPECT_THROW((void)run_ler_campaign(plain), CheckpointError);
    // The campaign that wrote the journal still resumes from it.
    EXPECT_EQ(run_ler_campaign(options).trials_from_journal, 1u);
  }
}

TEST_F(ResumeTest, BiasedAndPlainCampaignsRefuseEachOther) {
  LerConfig biased = fast_config();
  biased.bias = 10.0;
  const LerConfig plain = fast_config();
  for (const auto& [written, other] :
       {std::pair{biased, plain}, std::pair{plain, biased}}) {
    std::filesystem::remove_all(dir_);
    CampaignOptions options;
    options.config = written;
    options.runs = 1;
    options.state_dir = dir_;
    ASSERT_EQ(run_ler_campaign(options).trials_completed, 1u);
    CampaignOptions resumed = options;
    resumed.config = other;
    EXPECT_THROW((void)run_ler_campaign(resumed), CheckpointError);

    // A mid-trial checkpoint of one channel does not load into the other.
    LerTrial trial(written);
    trial.step();
    journal::SnapshotWriter out;
    trial.save(out);
    LerTrial foreign(other);
    journal::SnapshotReader in(out.bytes());
    EXPECT_THROW(foreign.load(in), CheckpointError);
  }
}

TEST_F(ResumeTest, InterruptedBiasedTrialResumesToTheUninterruptedJournal) {
  CampaignOptions options;
  options.config = fast_config();
  options.config.bias = 10.0;
  options.runs = 2;
  const std::string reference_dir = dir_ + "_reference";
  std::filesystem::remove_all(reference_dir);
  CampaignOptions reference = options;
  reference.state_dir = reference_dir;
  ASSERT_EQ(run_ler_campaign(reference).trials_completed, 2u);

  options.state_dir = dir_;
  options.checkpoint_every_windows = 1;
  options.interrupt_after_windows = 2;
  const CampaignResult killed = run_ler_campaign(options);
  EXPECT_TRUE(killed.interrupted);
  EXPECT_EQ(killed.trials_completed, 0u);
  options.interrupt_after_windows = 0;
  const CampaignResult resumed = run_ler_campaign(options);
  EXPECT_EQ(resumed.windows_resumed, 2u);
  EXPECT_FALSE(resumed.checkpoint_recovered);

  const auto read = [](const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::stringstream bytes;
    bytes << in.rdbuf();
    return bytes.str();
  };
  const std::string journal = read(dir_ + "/journal.jsonl");
  EXPECT_NE(journal.find("\"bias\""), std::string::npos);
  EXPECT_EQ(journal, read(reference_dir + "/journal.jsonl"));
  std::filesystem::remove_all(reference_dir);
}

TEST_F(ResumeTest, TimedOutTrialIsRecordedAndCampaignContinues) {
  LerConfig config = fast_config();
  // Unreachable target + negligible errors: without the watchdog this
  // trial would spin for max_windows.
  config.physical_error_rate = 1e-9;
  config.target_logical_errors = 1;
  config.max_windows = 100000000;
  config.timeout_per_trial_ms = 1;

  const LerRun run = run_ler(config);
  EXPECT_TRUE(run.timed_out);
  EXPECT_GE(run.windows, 1u);
  EXPECT_EQ(run.logical_errors, 0u);

  CampaignOptions options;
  options.config = config;
  options.runs = 2;
  options.state_dir = dir_;
  const CampaignResult result = run_ler_campaign(options);
  EXPECT_FALSE(result.interrupted);
  EXPECT_EQ(result.trials_completed, 2u);
  EXPECT_EQ(result.trials_timed_out, 2u);

  // The journal remembers which trials timed out across a resume.
  const CampaignResult replay = run_ler_campaign(options);
  EXPECT_EQ(replay.trials_from_journal, 2u);
  EXPECT_EQ(replay.trials_timed_out, 2u);
}

TEST_F(ResumeTest, StopFlagInterruptsBetweenWindows) {
  CampaignOptions options;
  options.config = fast_config();
  options.runs = 1;
  options.state_dir = dir_;
  static volatile std::sig_atomic_t stop = 1;  // already requested
  options.stop = &stop;
  const CampaignResult result = run_ler_campaign(options);
  EXPECT_TRUE(result.interrupted);
  EXPECT_EQ(result.trials_completed, 0u);
}

TEST_F(ResumeTest, AnnounceSeedFormatsAndReturns) {
  std::ostringstream out;
  EXPECT_EQ(announce_seed("bench_ler", 987654321u, out), 987654321u);
  EXPECT_EQ(out.str(), "[seed] bench_ler: seed=987654321\n");
}

}  // namespace
}  // namespace qpf::bench
