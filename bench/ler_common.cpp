#include "ler_common.h"

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>

#include "cli/numeric_args.h"
#include "cli/stdio_guard.h"
#include "exec/executor.h"
#include "io/file_ops.h"
#include "journal/run_journal.h"
#include "stats/summary.h"

namespace qpf::bench {

using qec::CheckType;

LerTrial::LerTrial(const LerConfig& config)
    : config_(config), stack_(config) {
  stack_.set_diagnostic_mode(true);
  stack_.ninja().initialize(0, config_.basis);
  stack_.set_diagnostic_mode(false);
  stack_.reset_counters();
}

bool LerTrial::done() const noexcept {
  return logical_errors_ >= config_.target_logical_errors ||
         windows_ >= config_.max_windows;
}

void LerTrial::step() {
  stack_.ninja().run_window(0);
  ++windows_;
  stack_.set_diagnostic_mode(true);
  if (!stack_.ninja().has_observable_errors(0)) {
    const int sign = stack_.ninja().measure_logical_stabilizer(0, config_.basis);
    if (sign != expected_sign_) {
      ++logical_errors_;
      expected_sign_ = sign;
    }
  }
  stack_.set_diagnostic_mode(false);
}

LerRun LerTrial::result() const {
  LerRun run;
  run.windows = windows_;
  run.logical_errors = logical_errors_;
  run.saved_gates_fraction = stack_.gates_saved_fraction();
  run.saved_slots_fraction = stack_.slots_saved_fraction();
  run.timed_out = timed_out_;
  if (const arch::SupervisorLayer* supervisor = stack_.supervisor_layer()) {
    run.faults_recovered = supervisor->stats().recoveries;
    run.fault_episodes = supervisor->stats().episodes;
  }
  if (const arch::TimingLayer* timing = stack_.timing_layer()) {
    run.deadline_overruns = timing->total_overruns();
    run.decodes_skipped = timing->decodes_skipped();
  }
  return run;
}

void LerTrial::save(journal::SnapshotWriter& out) const {
  out.tag("ler-trial");
  out.write_u64(config_.seed);
  out.write_size(windows_);
  out.write_size(logical_errors_);
  out.write_i64(expected_sign_);
  stack_.save_state(out);
}

void LerTrial::load(journal::SnapshotReader& in) {
  in.expect_tag("ler-trial");
  const std::uint64_t seed = in.read_u64();
  if (seed != config_.seed) {
    throw CheckpointError("ler trial snapshot: seed differs from the "
                          "configured trial");
  }
  const std::size_t windows = in.read_size();
  const std::size_t logical_errors = in.read_size();
  const std::int64_t sign = in.read_i64();
  if (sign != 1 && sign != -1) {
    throw CheckpointError("ler trial snapshot: invalid stabilizer sign");
  }
  stack_.load_state(in);
  windows_ = windows;
  logical_errors_ = logical_errors;
  expected_sign_ = static_cast<int>(sign);
}

namespace {

using Clock = std::chrono::steady_clock;

[[nodiscard]] std::size_t elapsed_ms(Clock::time_point since) {
  return static_cast<std::size_t>(
      std::chrono::duration_cast<std::chrono::milliseconds>(Clock::now() -
                                                            since)
          .count());
}

[[nodiscard]] std::string format_double(double value) {
  char buffer[40];
  std::snprintf(buffer, sizeof buffer, "%.17g", value);
  return buffer;
}

}  // namespace

LerTrial::Stop LerTrial::run(const std::function<bool()>& stop,
                             const std::function<void()>& after_window) {
  const Clock::time_point start = Clock::now();
  while (!done()) {
    if (stop && stop()) {
      return Stop::kStopped;
    }
    if (config_.timeout_per_trial_ms != 0 &&
        elapsed_ms(start) >= config_.timeout_per_trial_ms) {
      timed_out_ = true;
      return Stop::kTimedOut;
    }
    step();
    if (after_window) {
      after_window();
    }
  }
  return Stop::kDone;
}

LerRun run_ler(const LerConfig& config) {
  LerTrial trial(config);
  trial.run();
  return trial.result();
}

std::uint64_t next_trial_seed(std::uint64_t seed) noexcept {
  return seed * 6364136223846793005ULL + 1442695040888963407ULL;
}

LerPoint run_ler_point(LerConfig config, std::size_t runs, std::size_t jobs) {
  // One engine for every caller: an in-memory (non-durable) campaign
  // uses the same seed chain, slots, and aggregation as the crash-safe
  // one, so bench output does not depend on which entry point ran it.
  CampaignOptions options;
  options.config = config;
  options.runs = runs;
  options.jobs = jobs;
  return run_ler_campaign(options).point;
}

namespace {

[[nodiscard]] journal::JournalEntry config_entry(
    const CampaignOptions& options) {
  const LerConfig& config = options.config;
  journal::JournalEntry entry;
  entry.fields["kind"] = "config";
  entry.fields["per"] = format_double(config.physical_error_rate);
  entry.fields["runs"] = std::to_string(options.runs);
  entry.fields["target_errors"] = std::to_string(config.target_logical_errors);
  entry.fields["max_windows"] = std::to_string(config.max_windows);
  entry.fields["basis"] = config.basis == CheckType::kZ ? "z" : "x";
  entry.fields["pauli_frame"] = config.with_pauli_frame ? "1" : "0";
  entry.fields["seed"] = std::to_string(config.seed);
  // Every other field appears only when it differs from its default,
  // so journals of the plain SC17 campaign stay byte-identical to
  // previous releases, and a resume with a different configuration is
  // rejected by journal::config_difference.  timeout_per_trial_ms is
  // left out: it is a wall-clock watchdog, and a timed-out trial is
  // journaled as such.
  if (config.ninja_options.distance != 3) {
    entry.fields["distance"] = std::to_string(config.ninja_options.distance);
  }
  if (config.ninja_options.esm_pattern != qec::CnotPattern::kMixed) {
    entry.fields["esm_pattern"] = "same_s";
  }
  if (!config.ninja_options.decoding_enabled) {
    entry.fields["decoding"] = "0";
  }
  if (config.bias) {
    entry.fields["bias"] = format_double(*config.bias);
  }
  if (config.frame_protection != pf::Protection::kNone) {
    entry.fields["frame_protection"] =
        std::string(name(config.frame_protection));
  }
  if (config.validate) {
    entry.fields["validate"] = "1";
  }
  if (config.classical_faults.any()) {
    entry.fields["cf_drop"] = format_double(config.classical_faults.drop);
    entry.fields["cf_dup"] = format_double(config.classical_faults.duplicate);
    entry.fields["cf_reorder"] =
        format_double(config.classical_faults.reorder);
    entry.fields["cf_flip"] =
        format_double(config.classical_faults.readout_flip);
  }
  if (config.chaos.any()) {
    arch::write_chaos_fields(entry, config.chaos);
  }
  if (config.supervise) {
    // The backoff fields and the jitter seed shape only the modeled
    // backoff of incident reports, which no journal line records.
    entry.fields["supervise"] = "1";
    entry.fields["sup_retries"] =
        std::to_string(config.supervisor.max_retries);
    entry.fields["sup_escalate"] =
        std::to_string(config.supervisor.escalate_after);
    entry.fields["sup_rearm"] = std::to_string(config.supervisor.rearm_after);
    entry.fields["sup_overruns"] =
        std::to_string(config.supervisor.escalate_on_overruns);
  }
  if (config.deadline.any()) {
    entry.fields["deadline_slot_ns"] =
        format_double(config.deadline.slot_budget_ns);
    entry.fields["deadline_round_ns"] =
        format_double(config.deadline.round_budget_ns);
  }
  return entry;
}

void write_trial_checkpoint(const std::string& path, std::size_t trial,
                            const LerTrial& active) {
  journal::SnapshotWriter out;
  out.tag("ler-campaign");
  out.write_u64(trial);
  active.save(out);
  journal::write_checkpoint_file(path, out.bytes());
}

}  // namespace

CampaignResult run_ler_campaign(const CampaignOptions& options) {
  CampaignResult result;
  const bool durable = !options.state_dir.empty();
  std::unique_ptr<journal::RunJournal> log;
  std::string checkpoint_path;

  std::vector<std::uint64_t> seeds(options.runs);
  std::uint64_t cursor = options.config.seed;
  for (std::size_t i = 0; i < options.runs; ++i) {
    cursor = next_trial_seed(cursor);
    seeds[i] = cursor;
  }

  std::vector<LerRun> runs;
  if (durable) {
    journal::create_state_directory(options.state_dir);
    const std::string journal_path = options.state_dir + "/journal.jsonl";
    checkpoint_path = options.state_dir + "/stack.ckpt";
    const std::vector<journal::JournalEntry> entries =
        journal::read_journal(journal_path);
    if (!entries.empty()) {
      if (journal::config_difference(entries.front(), config_entry(options))) {
        throw CheckpointError(
            "journal was written by a different campaign configuration",
            journal_path);
      }
      for (std::size_t i = 1; i < entries.size(); ++i) {
        const journal::JournalEntry& entry = entries[i];
        if (entry.get("kind") != "trial" ||
            entry.get_u64("trial") != runs.size() ||
            runs.size() >= options.runs) {
          continue;
        }
        LerRun run;
        run.windows = entry.get_u64("windows");
        run.logical_errors = entry.get_u64("logical_errors");
        run.saved_gates_fraction = entry.get_double("saved_gates");
        run.saved_slots_fraction = entry.get_double("saved_slots");
        run.timed_out = entry.get_u64("timed_out") != 0;
        run.faults_recovered = entry.get_u64("recovered");
        run.fault_episodes = entry.get_u64("episodes");
        run.deadline_overruns = entry.get_u64("overruns");
        run.decodes_skipped = entry.get_u64("skipped_decodes");
        runs.push_back(run);
      }
    }
    result.trials_from_journal = runs.size();
    log = std::make_unique<journal::RunJournal>(journal_path);
    if (entries.empty()) {
      log->append(config_entry(options));
    }
  }

  const std::size_t start_trial = runs.size();
  const auto trial_config = [&](std::size_t trial) {
    LerConfig config = options.config;
    config.seed = seeds[trial];
    return config;
  };

  // Mid-trial checkpoint preload for the first trial still to run.
  // Heap-allocated: LerStack's layers hold pointers into each other, so
  // a trial is rebuilt (never moved) when a load fails.
  std::unique_ptr<LerTrial> preloaded;
  if (durable && start_trial < options.runs &&
      journal::file_exists(checkpoint_path)) {
    auto active = std::make_unique<LerTrial>(trial_config(start_trial));
    try {
      journal::SnapshotReader in(
          journal::read_checkpoint_file(checkpoint_path));
      in.expect_tag("ler-campaign");
      const std::uint64_t saved_trial = in.read_u64();
      if (saved_trial == start_trial) {
        active->load(in);
        result.windows_resumed = active->windows();
        preloaded = std::move(active);
      }
      // A checkpoint for an earlier (already journaled) trial is
      // stale, not corrupt: the journal won the race; start clean.
    } catch (const CheckpointError& error) {
      result.checkpoint_recovered = true;
      result.checkpoint_warning = error.what();
    }
  }
  const auto journal_trial = [&](std::size_t trial, const LerRun& run) {
    runs.push_back(run);
    if (durable) {
      journal::JournalEntry entry;
      entry.fields["kind"] = "trial";
      entry.fields["trial"] = std::to_string(trial);
      entry.fields["seed"] = std::to_string(seeds[trial]);
      entry.fields["windows"] = std::to_string(run.windows);
      entry.fields["logical_errors"] = std::to_string(run.logical_errors);
      entry.fields["saved_gates"] = format_double(run.saved_gates_fraction);
      entry.fields["saved_slots"] = format_double(run.saved_slots_fraction);
      entry.fields["timed_out"] = run.timed_out ? "1" : "0";
      if (options.config.supervise) {
        entry.fields["recovered"] = std::to_string(run.faults_recovered);
        entry.fields["episodes"] = std::to_string(run.fault_episodes);
      }
      if (options.config.deadline.any()) {
        entry.fields["overruns"] = std::to_string(run.deadline_overruns);
        entry.fields["skipped_decodes"] = std::to_string(run.decodes_skipped);
      }
      log->append(entry);
      if (io::ops().unlink(checkpoint_path.c_str()) != 0 && errno != ENOENT) {
        throw CheckpointError(
            std::string("cannot remove checkpoint: ") + std::strerror(errno),
            checkpoint_path);
      }
    }
  };

  // Every trial runs through one run_ordered call.  Task i runs trial
  // start_trial + i to completion with its deterministic seed-chain
  // seed; the executor's sequenced commit makes this thread the single
  // journal writer, appending trial i only once trials 0..i-1 are
  // appended, so the journal bytes do not depend on jobs.  On
  // interrupt, tasks abandon at the next window boundary; completed-
  // but-unjournaled trials past the frontier are discarded (their
  // deterministic re-run on resume reproduces them exactly), and the
  // frontier trial's partial state becomes the checkpoint.  Typed
  // errors escaping a trial rethrow on this thread, lowest trial
  // first — the executor's contract.
  //
  // With one worker the executor runs each trial on this thread and
  // journals it before the next starts; only then are periodic
  // checkpoints written.  Either way every durable op happens on this
  // thread in one fixed order, which tools/check_faultfs.sh enumerates.
  //
  // Trials keep their legacy LCG seed-chain seeds (`seeds[trial]`),
  // not the executor's splitmix64 task seeds, so journals stay
  // byte-compatible with every earlier campaign.
  const std::size_t trials_left =
      options.runs > start_trial ? options.runs - start_trial : 0;
  const std::size_t jobs = std::min(exec::resolve_jobs(options.jobs),
                                    std::max<std::size_t>(trials_left, 1));
  const std::size_t checkpoint_every =
      durable && jobs == 1 ? options.checkpoint_every_windows : 0;

  struct TrialOutcome {
    LerRun run;
    std::unique_ptr<LerTrial> partial;  ///< set when the trial abandoned
  };

  std::atomic<std::size_t> windows_total{0};
  exec::RunOptions run_options;
  run_options.seed = options.config.seed;
  run_options.stop = [&options, &windows_total]() {
    if (options.stop != nullptr && *options.stop != 0) {
      return true;
    }
    return options.interrupt_after_windows != 0 &&
           windows_total.load(std::memory_order_relaxed) >=
               options.interrupt_after_windows;
  };

  const std::function<exec::TaskResult<TrialOutcome>(const exec::TaskContext&)>
      task = [&](const exec::TaskContext& ctx) {
        exec::TaskResult<TrialOutcome> out;
        const std::size_t trial = start_trial + ctx.index();
        std::unique_ptr<LerTrial> active =
            trial == start_trial && preloaded
                ? std::move(preloaded)
                : std::make_unique<LerTrial>(trial_config(trial));
        std::size_t windows_since_checkpoint = 0;
        const LerTrial::Stop stop =
            active->run([&ctx] { return ctx.cancelled(); }, [&] {
              windows_total.fetch_add(1, std::memory_order_relaxed);
              if (checkpoint_every != 0 &&
                  ++windows_since_checkpoint >= checkpoint_every) {
                write_trial_checkpoint(checkpoint_path, trial, *active);
                windows_since_checkpoint = 0;
              }
            });
        if (stop == LerTrial::Stop::kStopped) {
          out.status = exec::TaskStatus::kAbandoned;
          out.value.partial = std::move(active);
        } else {
          out.value.run = active->result();
        }
        return out;
      };

  const std::function<bool(std::size_t, TrialOutcome&&)> commit =
      [&](std::size_t index, TrialOutcome&& outcome) {
        journal_trial(start_trial + index, outcome.run);
        return true;
      };

  const std::function<void(std::size_t, exec::FrontierKind, TrialOutcome*)>
      frontier = [&](std::size_t index, exec::FrontierKind kind,
                     TrialOutcome* partial) {
        if (durable && kind == exec::FrontierKind::kAbandoned &&
            partial != nullptr && partial->partial) {
          write_trial_checkpoint(checkpoint_path, start_trial + index,
                                 *partial->partial);
        }
      };

  exec::Executor pool(jobs);
  const exec::RunReport run_report = pool.run_ordered<TrialOutcome>(
      trials_left, run_options, task, commit, frontier);
  result.interrupted = run_report.cancelled;

  result.trials_completed = runs.size();
  LerPoint& point = result.point;
  point.physical_error_rate = options.config.physical_error_rate;
  double saved_gates = 0.0;
  double saved_slots = 0.0;
  for (const LerRun& run : runs) {
    result.trials_timed_out += run.timed_out ? 1 : 0;
    result.faults_recovered += run.faults_recovered;
    result.fault_episodes += run.fault_episodes;
    result.deadline_overruns += run.deadline_overruns;
    result.decodes_skipped += run.decodes_skipped;
    point.ler_samples.push_back(run.ler());
    point.window_samples.push_back(static_cast<double>(run.windows));
    saved_gates += run.saved_gates_fraction;
    saved_slots += run.saved_slots_fraction;
    if (run.windows >= options.config.max_windows &&
        run.logical_errors < options.config.target_logical_errors) {
      ++point.capped_trials;
    }
  }
  if (!runs.empty()) {
    const stats::Summary ler = stats::summarize(point.ler_samples);
    const stats::Summary windows = stats::summarize(point.window_samples);
    point.mean_ler = ler.mean;
    point.stddev_ler = ler.stddev;
    point.window_cv = windows.coefficient_of_variation();
    point.saved_gates = saved_gates / static_cast<double>(runs.size());
    point.saved_slots = saved_slots / static_cast<double>(runs.size());
  }
  return result;
}

namespace {

volatile std::sig_atomic_t g_campaign_stop = 0;

void request_campaign_stop(int) { g_campaign_stop = 1; }

}  // namespace

bool parse_campaign_flag(const std::string& argument,
                         CampaignOptions& options) {
  std::string value;
  if (cli::consume_prefix(argument, "--per=", value)) {
    options.config.physical_error_rate = cli::parse_rate(value);
  } else if (cli::consume_prefix(argument, "--runs=", value)) {
    options.runs = cli::parse_count(value);
  } else if (cli::consume_prefix(argument, "--errors=", value)) {
    options.config.target_logical_errors = cli::parse_count(value);
  } else if (cli::consume_prefix(argument, "--max-windows=", value)) {
    options.config.max_windows = cli::parse_count(value);
  } else if (cli::consume_prefix(argument, "--seed=", value)) {
    options.config.seed = cli::parse_count(value);
  } else if (cli::consume_prefix(argument, "--state-dir=", value)) {
    options.state_dir = value;
  } else if (cli::consume_prefix(argument, "--checkpoint-every=", value)) {
    options.checkpoint_every_windows = cli::parse_count(value);
  } else if (cli::consume_prefix(argument, "--jobs=", value)) {
    options.jobs =
        exec::resolve_jobs(cli::parse_count(value, cli::kMaxThreads));
  } else {
    return false;
  }
  return true;
}

bool start_campaign(std::string_view tool, CampaignOptions& options) {
  if (options.runs == 0) {
    std::cerr << tool << ": --runs must be positive\n";
    return false;
  }
  std::signal(SIGINT, request_campaign_stop);
  std::signal(SIGTERM, request_campaign_stop);
  options.stop = &g_campaign_stop;
  announce_seed(std::string(tool) + " campaign", options.config.seed);
  return true;
}

int report_campaign(std::string_view tool, const CampaignOptions& options,
                    const CampaignResult& result) {
  if (result.checkpoint_recovered) {
    std::cerr << tool << ": discarded unusable checkpoint ("
              << result.checkpoint_warning << "); resumed from the journal\n";
  }
  if (result.trials_from_journal != 0 || result.windows_resumed != 0) {
    std::cerr << tool << ": resumed " << result.trials_from_journal
              << " trial(s) from the journal, " << result.windows_resumed
              << " window(s) from the checkpoint\n";
  }
  if (result.point.capped_trials != 0) {
    std::cerr << tool << ": " << result.point.capped_trials << " of "
              << result.trials_completed
              << " trial(s) stopped at the window cap (--max-windows="
              << options.config.max_windows << ") short of "
              << options.config.target_logical_errors
              << " logical error(s); their LER rests on fewer errors\n";
  }
  // %.17g everywhere: the printed aggregates are part of the
  // bit-identical resume guarantee (tools/check_resume.sh diffs them),
  // and qpf_chaos scenarios are diffed against its baseline.
  std::printf("per=%.17g trials=%zu mean_ler=%.17g stddev_ler=%.17g "
              "window_cv=%.17g saved_gates=%.17g saved_slots=%.17g "
              "timed_out=%zu\n",
              result.point.physical_error_rate, result.trials_completed,
              result.point.mean_ler, result.point.stddev_ler,
              result.point.window_cv, result.point.saved_gates,
              result.point.saved_slots, result.trials_timed_out);
  try {
    cli::require_stdout_ok();
  } catch (const Error& error) {
    // Journal and checkpoint are already durable; only the report line
    // was lost to the closed pipe.
    std::cerr << tool << ": " << error.what() << "\n";
    return 1;
  }
  if (result.interrupted) {
    std::cerr << tool << ": interrupted after " << result.trials_completed
              << " of " << options.runs
              << " trial(s); state saved, re-run to resume\n";
    return 130;
  }
  return 0;
}

std::uint64_t announce_seed(std::string_view what, std::uint64_t seed,
                            std::ostream& out) {
  out << "[seed] " << what << ": seed=" << seed << "\n";
  return seed;
}

std::uint64_t announce_seed(std::string_view what, std::uint64_t seed) {
  return announce_seed(what, seed, std::cerr);
}

std::size_t env_size_t(const char* name, std::size_t fallback) {
  const char* value = std::getenv(name);
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  try {
    const std::uint64_t count = cli::parse_count(value);
    if (count >= 1) {
      return static_cast<std::size_t>(count);
    }
  } catch (const std::invalid_argument&) {
  }
  std::cerr << name << ": expected a count of at least 1, got '" << value
            << "'\n";
  std::exit(2);
}

BenchScale bench_scale_from_env() {
  BenchScale scale;
  const char* full = std::getenv("QPF_FULL");
  if (full != nullptr && std::string(full) == "1") {
    // Paper-scale: the Fig 5.11 grid is 1e-4..1e-2; we use a log grid
    // over the same range (the thesis' 100-point linear grid would add
    // hours without changing the shape).
    scale.per_grid = {1e-4, 2e-4, 3e-4, 4e-4, 5e-4, 7e-4, 1e-3,
                      1.5e-3, 2e-3, 3e-3, 5e-3, 7e-3, 1e-2};
    scale.runs = env_size_t("QPF_LER_RUNS", 10);
    scale.target_errors = env_size_t("QPF_LER_ERRORS", 50);
  } else {
    scale.per_grid = {2e-4, 3e-4, 5e-4, 1e-3, 2e-3, 5e-3, 1e-2};
    scale.runs = env_size_t("QPF_LER_RUNS", 3);
    scale.target_errors = env_size_t("QPF_LER_ERRORS", 10);
  }
  return scale;
}

}  // namespace qpf::bench
