#include "ler_common.h"

#include <sys/stat.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>

#include "cli/numeric_args.h"
#include "exec/executor.h"
#include "journal/run_journal.h"
#include "stats/summary.h"

namespace qpf::bench {

using arch::LerStack;
using qec::CheckType;

LerTrial::LerTrial(const LerConfig& config)
    : config_(config), stack_([&] {
        LerStack::Config stack_config;
        stack_config.physical_error_rate = config.physical_error_rate;
        stack_config.bias = config.bias;
        stack_config.with_pauli_frame = config.with_pauli_frame;
        stack_config.seed = config.seed;
        stack_config.ninja_options = config.ninja_options;
        stack_config.classical_faults = config.classical_faults;
        stack_config.chaos = config.chaos;
        stack_config.supervise = config.supervise;
        stack_config.supervisor = config.supervisor;
        stack_config.timings = config.timings;
        stack_config.deadline = config.deadline;
        return stack_config;
      }()) {
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

LerRun run_ler(const LerConfig& config) {
  LerTrial trial(config);
  const Clock::time_point start = Clock::now();
  bool timed_out = false;
  while (!trial.done()) {
    if (config.timeout_per_trial_ms != 0 &&
        elapsed_ms(start) >= config.timeout_per_trial_ms) {
      timed_out = true;
      break;
    }
    trial.step();
  }
  LerRun run = trial.result();
  run.timed_out = timed_out;
  return run;
}

std::uint64_t next_trial_seed(std::uint64_t seed) noexcept {
  return seed * 6364136223846793005ULL + 1442695040888963407ULL;
}

std::size_t resolve_jobs(std::size_t jobs) noexcept {
  return exec::resolve_jobs(jobs);
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

void make_directory(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return;
  }
  throw CheckpointError(std::string("cannot create state directory: ") +
                            std::strerror(errno),
                        path);
}

[[nodiscard]] journal::JournalEntry config_entry(
    const CampaignOptions& options) {
  journal::JournalEntry entry;
  entry.fields["kind"] = "config";
  entry.fields["per"] = format_double(options.config.physical_error_rate);
  entry.fields["runs"] = std::to_string(options.runs);
  entry.fields["target_errors"] =
      std::to_string(options.config.target_logical_errors);
  entry.fields["max_windows"] = std::to_string(options.config.max_windows);
  entry.fields["basis"] = options.config.basis == CheckType::kZ ? "z" : "x";
  entry.fields["pauli_frame"] = options.config.with_pauli_frame ? "1" : "0";
  entry.fields["seed"] = std::to_string(options.config.seed);
  // Subsystem fields (and the distance and the bias) only appear when
  // they differ from the plain SC17 campaign, so journals written with
  // everything off stay byte-identical to previous releases (and a
  // resume with a different configuration is rejected by
  // config_matches).
  const LerConfig& config = options.config;
  if (config.ninja_options.distance != 3) {
    entry.fields["distance"] = std::to_string(config.ninja_options.distance);
  }
  if (config.bias) {
    entry.fields["bias"] = format_double(*config.bias);
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
    entry.fields["chaos_seed"] = std::to_string(config.chaos.seed);
    entry.fields["chaos_min_gap"] = std::to_string(config.chaos.min_gap);
    entry.fields["chaos_max_gap"] = std::to_string(config.chaos.max_gap);
    entry.fields["chaos_crash_w"] = std::to_string(config.chaos.crash_weight);
    entry.fields["chaos_stall_w"] = std::to_string(config.chaos.stall_weight);
    entry.fields["chaos_burst_w"] = std::to_string(config.chaos.burst_weight);
    entry.fields["chaos_stall_ns"] = format_double(config.chaos.stall_ns);
    entry.fields["chaos_burst_len"] =
        std::to_string(config.chaos.burst_length);
  }
  if (config.supervise) {
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

[[nodiscard]] bool config_matches(journal::JournalEntry found,
                                  const CampaignOptions& options) {
  // The whole key set, both ways: a journal written with a subsystem
  // this configuration lacks must not resume either.  "crc" is the
  // line's own checksum, not configuration.
  found.fields.erase("crc");
  return found.fields == config_entry(options).fields;
}

struct TrialSample {
  std::size_t windows = 0;
  std::size_t logical_errors = 0;
  double saved_gates = 0.0;
  double saved_slots = 0.0;
  bool timed_out = false;
  std::size_t faults_recovered = 0;
  std::size_t fault_episodes = 0;
  std::size_t deadline_overruns = 0;
  std::size_t decodes_skipped = 0;
};

[[nodiscard]] TrialSample sample_from_run(const LerRun& run,
                                          bool timed_out) {
  TrialSample sample;
  sample.windows = run.windows;
  sample.logical_errors = run.logical_errors;
  sample.saved_gates = run.saved_gates_fraction;
  sample.saved_slots = run.saved_slots_fraction;
  sample.timed_out = timed_out;
  sample.faults_recovered = run.faults_recovered;
  sample.fault_episodes = run.fault_episodes;
  sample.deadline_overruns = run.deadline_overruns;
  sample.decodes_skipped = run.decodes_skipped;
  return sample;
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

  std::vector<TrialSample> samples;
  if (durable) {
    make_directory(options.state_dir);
    const std::string journal_path = options.state_dir + "/journal.jsonl";
    checkpoint_path = options.state_dir + "/stack.ckpt";
    const std::vector<journal::JournalEntry> entries =
        journal::read_journal(journal_path);
    if (!entries.empty()) {
      if (entries.front().get("kind") != "config" ||
          !config_matches(entries.front(), options)) {
        throw CheckpointError(
            "journal was written by a different campaign configuration",
            journal_path);
      }
      for (std::size_t i = 1; i < entries.size(); ++i) {
        const journal::JournalEntry& entry = entries[i];
        if (entry.get("kind") != "trial" ||
            entry.get_u64("trial") != samples.size() ||
            samples.size() >= options.runs) {
          continue;
        }
        TrialSample sample;
        sample.windows = entry.get_u64("windows");
        sample.logical_errors = entry.get_u64("logical_errors");
        sample.saved_gates = entry.get_double("saved_gates");
        sample.saved_slots = entry.get_double("saved_slots");
        sample.timed_out = entry.get_u64("timed_out") != 0;
        sample.faults_recovered = entry.get_u64("recovered");
        sample.fault_episodes = entry.get_u64("episodes");
        sample.deadline_overruns = entry.get_u64("overruns");
        sample.decodes_skipped = entry.get_u64("skipped_decodes");
        if (sample.timed_out) {
          ++result.trials_timed_out;
        }
        samples.push_back(sample);
      }
    }
    result.trials_from_journal = samples.size();
    log = std::make_unique<journal::RunJournal>(journal_path);
    if (entries.empty()) {
      log->append(config_entry(options));
    }
  }

  const std::size_t start_trial = samples.size();

  // Mid-trial checkpoint preload for the first trial still to run,
  // shared by both engines.  Heap-allocated: LerStack's layers hold
  // pointers into each other, so a trial is rebuilt (never moved) when
  // a load fails.
  std::unique_ptr<LerTrial> preloaded;
  if (durable && start_trial < options.runs &&
      journal::file_exists(checkpoint_path)) {
    LerConfig config = options.config;
    config.seed = seeds[start_trial];
    auto active = std::make_unique<LerTrial>(config);
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

  const auto journal_trial = [&](std::size_t trial,
                                 const TrialSample& sample) {
    if (sample.timed_out) {
      ++result.trials_timed_out;
    }
    samples.push_back(sample);
    if (durable) {
      journal::JournalEntry entry;
      entry.fields["kind"] = "trial";
      entry.fields["trial"] = std::to_string(trial);
      entry.fields["seed"] = std::to_string(seeds[trial]);
      entry.fields["windows"] = std::to_string(sample.windows);
      entry.fields["logical_errors"] = std::to_string(sample.logical_errors);
      entry.fields["saved_gates"] = format_double(sample.saved_gates);
      entry.fields["saved_slots"] = format_double(sample.saved_slots);
      entry.fields["timed_out"] = sample.timed_out ? "1" : "0";
      if (options.config.supervise) {
        entry.fields["recovered"] = std::to_string(sample.faults_recovered);
        entry.fields["episodes"] = std::to_string(sample.fault_episodes);
      }
      if (options.config.deadline.any()) {
        entry.fields["overruns"] = std::to_string(sample.deadline_overruns);
        entry.fields["skipped_decodes"] =
            std::to_string(sample.decodes_skipped);
      }
      log->append(entry);
      std::remove(checkpoint_path.c_str());
    }
  };

  const std::size_t trials_left =
      options.runs > start_trial ? options.runs - start_trial : 0;
  const std::size_t jobs = std::min(resolve_jobs(options.jobs),
                                    std::max<std::size_t>(trials_left, 1));
  if (jobs <= 1) {
    // --- Sequential engine (jobs == 1) ------------------------------
    const auto stop_requested = [&options](std::size_t windows_this_call) {
      if (options.stop != nullptr && *options.stop != 0) {
        return true;
      }
      return options.interrupt_after_windows != 0 &&
             windows_this_call >= options.interrupt_after_windows;
    };

    std::size_t windows_this_call = 0;
    for (std::size_t trial = start_trial; trial < options.runs; ++trial) {
      LerConfig config = options.config;
      config.seed = seeds[trial];
      auto active = (trial == start_trial && preloaded)
                        ? std::move(preloaded)
                        : std::make_unique<LerTrial>(config);

      const Clock::time_point trial_start = Clock::now();
      bool timed_out = false;
      std::size_t windows_since_checkpoint = 0;
      while (!active->done()) {
        if (stop_requested(windows_this_call)) {
          result.interrupted = true;
          break;
        }
        if (config.timeout_per_trial_ms != 0 &&
            elapsed_ms(trial_start) >= config.timeout_per_trial_ms) {
          timed_out = true;
          break;
        }
        active->step();
        ++windows_this_call;
        ++windows_since_checkpoint;
        if (durable && options.checkpoint_every_windows != 0 &&
            windows_since_checkpoint >= options.checkpoint_every_windows) {
          write_trial_checkpoint(checkpoint_path, trial, *active);
          windows_since_checkpoint = 0;
        }
      }
      if (result.interrupted) {
        // Drain: the current window finished; persist the trial mid-way
        // so the resumed campaign continues from this exact state.
        if (durable) {
          write_trial_checkpoint(checkpoint_path, trial, *active);
        }
        break;
      }

      LerRun run = active->result();
      run.timed_out = timed_out;
      journal_trial(trial, sample_from_run(run, timed_out));
    }
  } else {
    // --- Parallel engine (jobs > 1): the unified executor -----------
    // Task i runs trial start_trial + i to completion with its
    // deterministic seed-chain seed; the executor's sequenced commit
    // buffer makes this thread the single journal writer, appending
    // trial i only once trials 0..i-1 are appended, so the journal
    // byte stream is identical to the sequential engine's.  On
    // interrupt, tasks abandon at the next window boundary; completed-
    // but-unjournaled trials past the frontier are discarded (their
    // deterministic re-run on resume reproduces them exactly), and the
    // frontier trial's partial state becomes the checkpoint.  Typed
    // errors escaping a trial rethrow on this thread, lowest trial
    // first — the executor's contract.
    //
    // Trials keep their legacy LCG seed-chain seeds (`seeds[trial]`),
    // not the executor's splitmix64 task seeds, so journals stay
    // byte-compatible with every campaign since PR 3.
    struct TrialOutcome {
      TrialSample sample;
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

    const std::function<exec::TaskResult<TrialOutcome>(
        const exec::TaskContext&)>
        task = [&](const exec::TaskContext& ctx) {
          exec::TaskResult<TrialOutcome> out;
          const std::size_t trial = start_trial + ctx.index();
          LerConfig config = options.config;
          config.seed = seeds[trial];
          auto active = (trial == start_trial && preloaded)
                            ? std::move(preloaded)
                            : std::make_unique<LerTrial>(config);
          const Clock::time_point trial_start = Clock::now();
          bool timed_out = false;
          while (!active->done()) {
            if (ctx.cancelled()) {
              out.status = exec::TaskStatus::kAbandoned;
              out.value.partial = std::move(active);
              return out;
            }
            if (config.timeout_per_trial_ms != 0 &&
                elapsed_ms(trial_start) >= config.timeout_per_trial_ms) {
              timed_out = true;
              break;
            }
            active->step();
            windows_total.fetch_add(1, std::memory_order_relaxed);
          }
          out.value.sample = sample_from_run(active->result(), timed_out);
          return out;
        };

    const std::function<bool(std::size_t, TrialOutcome&&)> commit =
        [&](std::size_t index, TrialOutcome&& outcome) {
          journal_trial(start_trial + index, outcome.sample);
          return true;
        };

    const std::function<void(std::size_t, exec::FrontierKind,
                             TrialOutcome*)>
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
  }

  result.trials_completed = samples.size();
  for (const TrialSample& sample : samples) {
    result.faults_recovered += sample.faults_recovered;
    result.fault_episodes += sample.fault_episodes;
    result.deadline_overruns += sample.deadline_overruns;
    result.decodes_skipped += sample.decodes_skipped;
  }
  LerPoint point;
  point.physical_error_rate = options.config.physical_error_rate;
  double saved_gates = 0.0;
  double saved_slots = 0.0;
  for (const TrialSample& sample : samples) {
    const double ler =
        sample.windows == 0 ? 0.0
                            : static_cast<double>(sample.logical_errors) /
                                  static_cast<double>(sample.windows);
    point.ler_samples.push_back(ler);
    point.window_samples.push_back(static_cast<double>(sample.windows));
    saved_gates += sample.saved_gates;
    saved_slots += sample.saved_slots;
    if (sample.windows >= options.config.max_windows &&
        sample.logical_errors < options.config.target_logical_errors) {
      ++point.capped_trials;
    }
  }
  if (!samples.empty()) {
    const stats::Summary ler = stats::summarize(point.ler_samples);
    const stats::Summary windows = stats::summarize(point.window_samples);
    point.mean_ler = ler.mean;
    point.stddev_ler = ler.stddev;
    point.window_cv = windows.coefficient_of_variation();
    point.saved_gates = saved_gates / static_cast<double>(samples.size());
    point.saved_slots = saved_slots / static_cast<double>(samples.size());
  }
  result.point = point;
  return result;
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
