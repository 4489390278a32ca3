// Shared engine of the §5.3 Logical Error Rate experiments: the one
// trial loop (LerTrial) behind every surface-code LER number.  Users:
//   - run_ler_point: bench_ler, bench_ler_analysis, bench_esm_order's
//     ESM-pattern table, bench_biased_noise (LerConfig::bias) and the
//     SC17 column of bench_code_comparison;
//   - run_ler: bench_distance;
//   - LerTrial itself: bench_esm_order's lifetime loop (it decodes each
//     window through trial.stack()), bench_micro's BM_LerStep and the
//     repository benchmark (qpfbench/ler.cpp);
//   - run_ler_campaign and the campaign front end (parse_campaign_flag,
//     start_campaign, report_campaign): the qpf_ler and qpf_chaos tools;
//   - the campaign, resume, golden-byte and allocation tests.
// The other benches use only announce_seed and env_size_t.
//
// One "run" (or trial) executes the Listing 5.7 loop on the Fig 5.8
// stack: initialize, then repeat { window; diagnostics; logical-
// stabilizer probe } counting executed windows R and observed logical
// flips m until m reaches a target (or a window cap, to bound runtime
// at very low physical error rates).  LER = m / R (Eq 5.1).
//
// The crash-safe campaign engine (PR 2) wraps the same loop in
// durability machinery: every finished trial is appended to an fsync'd
// JSONL RunJournal, the in-progress trial is checkpointed every N
// windows through the stack's snapshot capability, and a killed
// campaign resumes bit-identically — the aggregate statistics of an
// interrupted-and-resumed campaign equal those of an uninterrupted one.
#pragma once

#include <csignal>
#include <cstdint>
#include <cstdlib>
#include <functional>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "arch/control_stack.h"
#include "journal/snapshot.h"

namespace qpf::bench {

/// One trial: the stack it runs on (every LerStack::Config field, set
/// by name: physical_error_rate, bias, with_pauli_frame, seed,
/// ninja_options, the classical-fault and supervision subsystems...)
/// plus the four fields of the trial loop.
struct LerConfig : arch::LerStack::Config {
  /// The campaign's default runs without the Pauli frame (a bare
  /// LerStack::Config has it on).
  LerConfig() { with_pauli_frame = false; }

  /// kZ: |0>_L watching for X_L flips; kX: |+>_L watching for Z_L flips.
  qec::CheckType basis = qec::CheckType::kZ;
  std::size_t target_logical_errors = 10;
  std::size_t max_windows = 2'000'000;
  /// Watchdog: wall-clock budget per trial in milliseconds; 0 disables.
  /// A trial that exceeds it stops at the next window boundary and is
  /// recorded with timed_out set — the campaign continues.
  std::size_t timeout_per_trial_ms = 0;
};

struct LerRun {
  std::size_t windows = 0;
  std::size_t logical_errors = 0;
  double saved_gates_fraction = 0.0;
  double saved_slots_fraction = 0.0;
  bool timed_out = false;

  // Supervision/watchdog statistics (zero unless the subsystems are on).
  std::size_t faults_recovered = 0;   ///< supervisor restore+replay successes
  std::size_t fault_episodes = 0;     ///< operations abandoned (degrades)
  std::size_t deadline_overruns = 0;  ///< slot + round budget misses
  std::size_t decodes_skipped = 0;    ///< decodes skipped after overruns

  [[nodiscard]] double ler() const {
    return windows == 0 ? 0.0
                        : static_cast<double>(logical_errors) /
                              static_cast<double>(windows);
  }
};

/// One LER trial as a steppable object, so callers can checkpoint,
/// watchdog, or interrupt between windows.  step() executes one QEC
/// window plus the diagnostics probes; save()/load() serialize the
/// complete trial state (loop counters and the full stack down to the
/// tableau) for bit-identical resume.
class LerTrial {
 public:
  explicit LerTrial(const LerConfig& config);

  /// One window + diagnostics; call only while !done().
  void step();
  [[nodiscard]] bool done() const noexcept;

  /// Why run() returned.
  enum class Stop { kDone, kTimedOut, kStopped };

  /// The trial loop: step until done(), until timeout_per_trial_ms of
  /// wall clock has passed since the call (kTimedOut; result() then
  /// reports timed_out), or until `stop` returns true before a window
  /// (kStopped; the trial can be saved and resumed).  `after_window`
  /// runs after every window.
  Stop run(const std::function<bool()>& stop = {},
           const std::function<void()>& after_window = {});

  [[nodiscard]] std::size_t windows() const noexcept { return windows_; }
  [[nodiscard]] std::size_t logical_errors() const noexcept {
    return logical_errors_;
  }

  /// Result so far (saved fractions read from the stack counters).
  [[nodiscard]] LerRun result() const;

  void save(journal::SnapshotWriter& out) const;
  /// Throws qpf::CheckpointError on a stream that does not match this
  /// trial's configuration.
  void load(journal::SnapshotReader& in);

  /// The stack under test (supervision / chaos / watchdog inspection).
  [[nodiscard]] arch::LerStack& stack() noexcept { return stack_; }
  [[nodiscard]] const arch::LerStack& stack() const noexcept {
    return stack_;
  }

 private:
  LerConfig config_;
  arch::LerStack stack_;
  std::size_t windows_ = 0;
  std::size_t logical_errors_ = 0;
  int expected_sign_ = +1;
  bool timed_out_ = false;
};

/// Execute one LER run (LerTrial::run to the end).
[[nodiscard]] LerRun run_ler(const LerConfig& config);

/// Aggregate of several runs at one physical error rate.
struct LerPoint {
  double physical_error_rate = 0.0;
  std::vector<double> ler_samples;
  std::vector<double> window_samples;
  double mean_ler = 0.0;
  double stddev_ler = 0.0;
  double window_cv = 0.0;  ///< coefficient of variation of R (Eq 5.4)
  double saved_gates = 0.0;
  double saved_slots = 0.0;
  /// Trials that stopped at max_windows short of their error target:
  /// their LER is an estimate from fewer errors than asked for.
  std::size_t capped_trials = 0;
};

/// Run `runs` independent repetitions at one physical error rate.
/// `jobs` > 1 fans the trials out over a worker pool; results are
/// bit-identical to jobs == 1 because every trial is fully determined
/// by its seed-chain seed and collected into its trial-indexed slot
/// (timed-out trials excepted: the watchdog is wall-clock).
[[nodiscard]] LerPoint run_ler_point(LerConfig config, std::size_t runs,
                                     std::size_t jobs = 1);

/// The deterministic per-trial seed chain used by run_ler_point and the
/// campaign engine: trial i runs with the i+1'th iterate of this LCG
/// from the base seed, so trial seeds never depend on wall clock or on
/// how often the campaign was interrupted.
[[nodiscard]] std::uint64_t next_trial_seed(std::uint64_t seed) noexcept;

// --- Crash-safe campaign engine --------------------------------------

struct CampaignOptions {
  LerConfig config;
  std::size_t runs = 3;
  /// Directory for journal.jsonl + stack.ckpt (created if missing).
  /// Empty disables durability; the campaign then runs in memory only.
  std::string state_dir;
  /// Checkpoint the in-progress trial every N windows when jobs is 1
  /// (0 = only when interrupted).  Smaller = less lost work, more I/O.
  std::size_t checkpoint_every_windows = 0;
  /// Cooperative stop flag (SIGINT/SIGTERM handler target).  When it
  /// becomes nonzero the campaign finishes the current window, writes a
  /// checkpoint and the journal tail, and returns interrupted=true.
  const volatile std::sig_atomic_t* stop = nullptr;
  /// Test hook: behave as if the stop flag fired after this many
  /// windows executed in this call (0 = off).
  std::size_t interrupt_after_windows = 0;
  /// Worker threads running trials (0 = hardware_concurrency), all
  /// through one exec::Executor::run_ordered call (at 1, on the calling
  /// thread).  Trials keep their deterministic seed-chain seeds, land in
  /// trial-indexed slots, and are journaled in trial order by the
  /// calling thread, so the journal and the aggregate statistics are
  /// bit-identical for every jobs value.  With jobs > 1 the mid-trial
  /// checkpoint is written only when the campaign is interrupted (for
  /// the lowest unfinished trial).
  std::size_t jobs = 1;
};

struct CampaignResult {
  LerPoint point;
  std::size_t trials_completed = 0;
  /// Completed trials replayed from the journal instead of re-run.
  std::size_t trials_from_journal = 0;
  std::size_t trials_timed_out = 0;
  /// Windows restored from a mid-trial checkpoint instead of re-run.
  std::size_t windows_resumed = 0;
  bool interrupted = false;
  /// Supervision/watchdog aggregates over every completed trial (zero
  /// unless the subsystems are on).
  std::size_t faults_recovered = 0;
  std::size_t fault_episodes = 0;
  std::size_t deadline_overruns = 0;
  std::size_t decodes_skipped = 0;
  /// A corrupt/stale checkpoint was discarded (campaign fell back to
  /// the journal and a clean trial start); the message says why.
  bool checkpoint_recovered = false;
  std::string checkpoint_warning;
};

/// Run (or resume) a durable LER campaign.  Completed trials found in
/// state_dir's journal are trusted verbatim; the in-progress trial is
/// restored from the checkpoint when one is present and valid.  Throws
/// qpf::CheckpointError when state_dir holds a journal written by a
/// different campaign configuration.
[[nodiscard]] CampaignResult run_ler_campaign(const CampaignOptions& options);

// --- Campaign front end of qpf_ler and qpf_chaos ---------------------
// Each tool keeps its usage text, its defaults, its own flags and its
// error handling; `tool` prefixes every line these print.

/// Parse one of the eight campaign flags the two tools share into
/// `options`: --per=P, --runs=N, --errors=N, --max-windows=N, --seed=S,
/// --state-dir=DIR, --checkpoint-every=N and --jobs=N.  Returns false
/// when `argument` is none of them; throws std::invalid_argument on a
/// bad value.
[[nodiscard]] bool parse_campaign_flag(const std::string& argument,
                                       CampaignOptions& options);

/// Ready a parsed campaign to run.  Returns false after a diagnostic
/// when --runs is 0; otherwise routes SIGINT and SIGTERM to
/// options.stop and announces the seed chain's base.
[[nodiscard]] bool start_campaign(std::string_view tool,
                                  CampaignOptions& options);

/// Report a campaign run: the checkpoint-recovery and resume lines and
/// a notice of capped trials on stderr, the %.17g statistics line on
/// stdout (part of the bit-identical resume contract), and the
/// interrupted message.  Returns the exit code: 0, 1 when stdout could
/// not be written, 130 when the campaign was interrupted.
[[nodiscard]] int report_campaign(std::string_view tool,
                                  const CampaignOptions& options,
                                  const CampaignResult& result);

/// Announce an RNG seed on `out` ("[seed] <what>: seed=<seed>"), so
/// every bench / randomized tool run can be replayed exactly.  Returns
/// the seed, so call sites can announce and use in one expression.
std::uint64_t announce_seed(std::string_view what, std::uint64_t seed,
                            std::ostream& out);
/// Convenience overload printing to stderr.
std::uint64_t announce_seed(std::string_view what, std::uint64_t seed);

/// Scale knobs shared by the LER benches, read from the environment:
///   QPF_LER_ERRORS  target logical errors per run   (default 10)
///   QPF_LER_RUNS    repetitions per PER point        (default 3)
///   QPF_FULL=1      use the paper-scale grid and 10 runs x 50 errors
struct BenchScale {
  std::vector<double> per_grid;
  std::size_t runs;
  std::size_t target_errors;
};

[[nodiscard]] BenchScale bench_scale_from_env();

/// A count of at least 1 from environment variable `name`, or
/// `fallback` when it is unset or empty.  Any other value (a sign, text,
/// 0) prints the variable's name and exits 2.
[[nodiscard]] std::size_t env_size_t(const char* name, std::size_t fallback);

}  // namespace qpf::bench
