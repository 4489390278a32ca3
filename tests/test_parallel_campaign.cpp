// The parallel-campaign determinism contract: run_ler_campaign with
// jobs = N must produce statistics, journal bytes, and resume behaviour
// bit-identical to the sequential engine (jobs = 1), for every N.
// These suites also run under TSan (tools/check_sanitize.sh with
// QPF_SANITIZE=thread) to shake out data races in the worker pool.
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include <gtest/gtest.h>

#include "fuzz/engine.h"
#include "ler_common.h"

#include "seed_support.h"

namespace qpf::bench {
namespace {

LerConfig fast_config() {
  LerConfig config;
  config.physical_error_rate = 0.05;
  config.with_pauli_frame = true;
  config.target_logical_errors = 3;
  config.max_windows = 5000;
  config.seed = 77177;
  return config;
}

void expect_same_point(const LerPoint& a, const LerPoint& b) {
  // EXPECT_EQ on doubles on purpose: the contract is bit-identical.
  EXPECT_EQ(a.ler_samples, b.ler_samples);
  EXPECT_EQ(a.window_samples, b.window_samples);
  EXPECT_EQ(a.mean_ler, b.mean_ler);
  EXPECT_EQ(a.stddev_ler, b.stddev_ler);
  EXPECT_EQ(a.window_cv, b.window_cv);
  EXPECT_EQ(a.saved_gates, b.saved_gates);
  EXPECT_EQ(a.saved_slots, b.saved_slots);
}

std::string slurp(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

class ParallelCampaignTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string("parallel_campaign_test_") +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::remove_all(dir_ + "_seq");
    std::filesystem::remove_all(dir_ + "_par");
  }
  void TearDown() override {
    std::filesystem::remove_all(dir_ + "_seq");
    std::filesystem::remove_all(dir_ + "_par");
  }

  std::string dir_;
};

TEST_F(ParallelCampaignTest, JobsFourStatsMatchSequentialBitForBit) {
  CampaignOptions options;
  options.config = fast_config();
  options.runs = 6;
  QPF_ANNOUNCE_SEED(options.config.seed);

  CampaignOptions sequential = options;
  sequential.jobs = 1;
  const CampaignResult expected = run_ler_campaign(sequential);
  ASSERT_EQ(expected.trials_completed, 6u);

  CampaignOptions parallel = options;
  parallel.jobs = 4;
  const CampaignResult actual = run_ler_campaign(parallel);
  ASSERT_EQ(actual.trials_completed, 6u);
  EXPECT_FALSE(actual.interrupted);
  expect_same_point(actual.point, expected.point);
}

TEST_F(ParallelCampaignTest, JobsFourJournalBytesMatchSequential) {
  CampaignOptions options;
  options.config = fast_config();
  options.runs = 5;
  QPF_ANNOUNCE_SEED(options.config.seed);

  CampaignOptions sequential = options;
  sequential.state_dir = dir_ + "_seq";
  sequential.jobs = 1;
  const CampaignResult a = run_ler_campaign(sequential);

  CampaignOptions parallel = options;
  parallel.state_dir = dir_ + "_par";
  parallel.jobs = 4;
  const CampaignResult b = run_ler_campaign(parallel);

  expect_same_point(a.point, b.point);
  const std::string seq_journal =
      slurp(std::filesystem::path(sequential.state_dir) / "journal.jsonl");
  const std::string par_journal =
      slurp(std::filesystem::path(parallel.state_dir) / "journal.jsonl");
  ASSERT_FALSE(seq_journal.empty());
  EXPECT_EQ(seq_journal, par_journal);
}

TEST_F(ParallelCampaignTest, RunLerPointMatchesAcrossJobCounts) {
  const LerConfig config = fast_config();
  QPF_ANNOUNCE_SEED(config.seed);
  const LerPoint one = run_ler_point(config, 5, 1);
  const LerPoint four = run_ler_point(config, 5, 4);
  const LerPoint many = run_ler_point(config, 5, 16);  // more jobs than trials
  expect_same_point(one, four);
  expect_same_point(one, many);
}

TEST_F(ParallelCampaignTest, InterruptedParallelCampaignResumesBitIdentically) {
  CampaignOptions options;
  options.config = fast_config();
  options.runs = 4;
  options.jobs = 4;
  QPF_ANNOUNCE_SEED(options.config.seed);

  CampaignOptions reference = options;
  reference.jobs = 1;
  const CampaignResult expected = run_ler_campaign(reference);
  ASSERT_EQ(expected.trials_completed, 4u);

  // Kill the parallel campaign early, then resume (still parallel).
  options.state_dir = dir_ + "_par";
  options.interrupt_after_windows = 2;
  const CampaignResult killed = run_ler_campaign(options);
  EXPECT_TRUE(killed.interrupted);

  options.interrupt_after_windows = 0;
  CampaignResult resumed;
  int attempts = 0;
  do {
    resumed = run_ler_campaign(options);
    ASSERT_LT(++attempts, 100) << "campaign never converged";
  } while (resumed.interrupted);
  EXPECT_EQ(resumed.trials_completed, 4u);
  expect_same_point(resumed.point, expected.point);
}

TEST_F(ParallelCampaignTest, ClassicalFaultsAreBitIdenticalAcrossJobs) {
  // Duplicate/reorder/readout-flip injection draws from per-trial
  // seeded RNGs, so the fault stream — and therefore the statistics and
  // every journal byte — must not depend on worker scheduling.  Run at
  // physical_error_rate = 0 with bounded windows, mirroring the
  // classical-fault campaign convention: no drop faults, and no
  // physical noise underneath the injected stream, because those
  // combinations can legitimately un-measure an ESM ancilla and kill
  // the decoder's input contract (exercised at the layer level in
  // test_classical_faults.cpp instead).
  CampaignOptions options;
  options.config = fast_config();
  options.config.physical_error_rate = 0.0;
  options.config.max_windows = 50;
  options.config.classical_faults = arch::ClassicalFaultRates{0.0, 0.01, 0.01, 0.01};
  options.runs = 5;
  QPF_ANNOUNCE_SEED(options.config.seed);

  CampaignOptions sequential = options;
  sequential.state_dir = dir_ + "_seq";
  sequential.jobs = 1;
  const CampaignResult a = run_ler_campaign(sequential);

  CampaignOptions parallel = options;
  parallel.state_dir = dir_ + "_par";
  parallel.jobs = 4;
  const CampaignResult b = run_ler_campaign(parallel);

  expect_same_point(a.point, b.point);
  const std::string seq_journal =
      slurp(std::filesystem::path(sequential.state_dir) / "journal.jsonl");
  const std::string par_journal =
      slurp(std::filesystem::path(parallel.state_dir) / "journal.jsonl");
  ASSERT_FALSE(seq_journal.empty());
  EXPECT_EQ(seq_journal, par_journal);
}

TEST_F(ParallelCampaignTest, SupervisedChaosStormIsBitIdenticalAcrossJobs) {
  // A supervised crash storm: every crash is recovered by snapshot
  // restore + replay inside the worker, so the aggregate — including
  // the recovery counters — must match the sequential engine exactly.
  // This suite also runs under TSan (check_sanitize.sh).
  CampaignOptions options;
  options.config = fast_config();
  options.config.chaos.seed = 7;
  options.config.chaos.min_gap = 400;
  options.config.chaos.max_gap = 700;
  options.config.chaos.crash_weight = 1;
  options.config.supervise = true;
  options.config.supervisor.max_retries = 10;
  options.config.supervisor.escalate_after = 1'000'000;
  options.config.supervisor.rearm_after = 1;
  options.runs = 4;
  QPF_ANNOUNCE_SEED(options.config.seed);

  CampaignOptions sequential = options;
  sequential.jobs = 1;
  const CampaignResult a = run_ler_campaign(sequential);
  ASSERT_EQ(a.trials_completed, 4u);

  CampaignOptions parallel = options;
  parallel.jobs = 4;
  const CampaignResult b = run_ler_campaign(parallel);
  ASSERT_EQ(b.trials_completed, 4u);

  expect_same_point(a.point, b.point);
  EXPECT_EQ(a.faults_recovered, b.faults_recovered);
  EXPECT_EQ(a.fault_episodes, b.fault_episodes);
  EXPECT_GT(a.faults_recovered, 0u) << "the storm never fired";
}

TEST_F(ParallelCampaignTest, JournalBytesMatchAcrossTheJobsSweep) {
  // The executor migration contract, surface by surface: the LER
  // campaign's journal must be byte-identical at jobs ∈ {1, 2, 7, 16}.
  CampaignOptions options;
  options.config = fast_config();
  options.runs = 5;
  QPF_ANNOUNCE_SEED(options.config.seed);

  CampaignOptions sequential = options;
  sequential.state_dir = dir_ + "_seq";
  sequential.jobs = 1;
  const CampaignResult reference = run_ler_campaign(sequential);
  ASSERT_EQ(reference.trials_completed, 5u);
  const std::string reference_journal =
      slurp(std::filesystem::path(sequential.state_dir) / "journal.jsonl");
  ASSERT_FALSE(reference_journal.empty());

  for (const std::size_t jobs : {2u, 7u, 16u}) {
    CampaignOptions parallel = options;
    parallel.state_dir = dir_ + "_par";
    parallel.jobs = jobs;
    std::filesystem::remove_all(parallel.state_dir);
    const CampaignResult result = run_ler_campaign(parallel);
    expect_same_point(result.point, reference.point);
    EXPECT_EQ(slurp(std::filesystem::path(parallel.state_dir) /
                    "journal.jsonl"),
              reference_journal)
        << "jobs=" << jobs;
  }
}

TEST_F(ParallelCampaignTest, ChaosStormMatchesAcrossTheJobsSweep) {
  // The chaos scenario driver (qpf_chaos) rides run_ler_campaign, so
  // its surface contract is the campaign's: statistics and recovery
  // counters identical at jobs ∈ {1, 2, 7, 16}.
  CampaignOptions options;
  options.config = fast_config();
  options.config.chaos.seed = 7;
  options.config.chaos.min_gap = 400;
  options.config.chaos.max_gap = 700;
  options.config.chaos.crash_weight = 1;
  options.config.supervise = true;
  options.config.supervisor.max_retries = 10;
  options.config.supervisor.escalate_after = 1'000'000;
  options.config.supervisor.rearm_after = 1;
  options.runs = 4;
  QPF_ANNOUNCE_SEED(options.config.seed);

  CampaignOptions sequential = options;
  sequential.jobs = 1;
  const CampaignResult reference = run_ler_campaign(sequential);
  ASSERT_EQ(reference.trials_completed, 4u);
  EXPECT_GT(reference.faults_recovered, 0u) << "the storm never fired";

  for (const std::size_t jobs : {2u, 7u, 16u}) {
    CampaignOptions parallel = options;
    parallel.jobs = jobs;
    const CampaignResult result = run_ler_campaign(parallel);
    expect_same_point(result.point, reference.point);
    EXPECT_EQ(result.faults_recovered, reference.faults_recovered)
        << "jobs=" << jobs;
    EXPECT_EQ(result.fault_episodes, reference.fault_episodes)
        << "jobs=" << jobs;
  }
}

TEST_F(ParallelCampaignTest, FuzzReportIsByteIdenticalAcrossTheJobsSweep) {
  // The fuzz engine's --cases fan-out: the JSON triage report is a
  // pure function of the options, jobs included only for speed.  A
  // small all-oracle budget keeps this inside the tier-1 gate.
  fuzz::FuzzOptions options;
  options.seed = 4242;
  options.cases = 4;
  QPF_ANNOUNCE_SEED(options.seed);

  options.jobs = 1;
  const std::string reference = fuzz::to_json(fuzz::run_fuzz(options));
  ASSERT_NE(reference.find("\"verdict\": \"PASS\""), std::string::npos);

  for (const std::size_t jobs : {2u, 7u, 16u}) {
    options.jobs = jobs;
    EXPECT_EQ(fuzz::to_json(fuzz::run_fuzz(options)), reference)
        << "jobs=" << jobs;
  }
}

TEST_F(ParallelCampaignTest, TimedOutTrialsDoNotBreakParallelAggregation) {
  // A 0 ms-budget watchdog times every trial out at its first window;
  // the parallel engine must record them all and finish cleanly.
  CampaignOptions options;
  options.config = fast_config();
  options.config.timeout_per_trial_ms = 0;  // off: sanity baseline
  options.runs = 3;
  options.jobs = 3;
  const CampaignResult clean = run_ler_campaign(options);
  EXPECT_EQ(clean.trials_timed_out, 0u);
  EXPECT_EQ(clean.trials_completed, 3u);
}

}  // namespace
}  // namespace qpf::bench
