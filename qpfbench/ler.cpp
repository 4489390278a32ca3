// LER workloads: the Listing 5.7 trial loop of qpf_ler on the Fig 5.8
// stack, run the way run_ler_campaign runs it (a sequential loop at
// jobs 1, one exec::Executor task per trial above), with every window
// timed.
//
// Untraced run: trials on LerTrial (the program's own LerStack) until
// --seconds elapse; windows/s, window latency, set-up time and memory.
//
// Traced run: a reference phase on LerTrial, then the same trials again
// on a hand-built copy of the stack with a ProbeLayer between every pair
// of elements.  Both must agree trial by trial, or the per-layer numbers
// would describe another program.
#include <algorithm>
#include <array>
#include <cmath>
#include <cstdio>
#include <functional>
#include <memory>
#include <map>

#include "arch/chp_core.h"
#include "arch/counter_layer.h"
#include "arch/error_layer.h"
#include "arch/ninja_star_layer.h"
#include "arch/pauli_frame_layer.h"
#include "exec/executor.h"
#include "ler_common.h"
#include "probe.h"
#include "workloads.h"

namespace qpfbench {
namespace {

using qpf::arch::Core;
using qpf::arch::Counters;
using qpf::bench::LerConfig;
using qpf::bench::LerTrial;
using qpf::qec::CheckType;

constexpr std::size_t kTargetErrors = 10;
constexpr std::size_t kDigestTrials = 8;
/// Upper bound on trials in one run; far beyond what --seconds allows.
constexpr std::size_t kMaxTrials = std::size_t{1} << 14;
constexpr std::size_t kSetupTrials = 16;
/// Set-up timings at each end of the untraced run.
constexpr int kSetupRepeats = 5;
/// Traced run: one window in kSpanEvery keeps its full span tree.
constexpr std::size_t kSpanEvery = 512;
/// Traced run: share of --seconds spent starting reference trials.
constexpr double kReferenceShare = 0.35;

struct LerShape {
  const char* name;
  double physical_error_rate;
  bool pauli_frame;
  CheckType basis;
  std::size_t jobs;
  /// digest() of trials 0..7 at kDefaultSeed, taken from the journal of
  /// a qpf_ler (run_ler_campaign) campaign of the same shape.
  std::array<std::uint64_t, kDigestTrials> expected;
};

const LerShape kShapes[] = {
    {"ler_pf", 1e-3, true, CheckType::kZ, 1,
     {0x1599bf557c2b8e96ULL, 0xb17e51c3ea321411ULL, 0xfcf6e276d8427cb2ULL,
      0x61106126c9a89d03ULL, 0x0c2f912fa665cab5ULL, 0x177b2acff9dfdd66ULL,
      0x9866d9d06aef847cULL, 0xe344083b77ab1e14ULL}},
    {"ler_nopf_lowp", 3e-4, false, CheckType::kX, 2,
     {0xa374cdb0a2dba5c0ULL, 0x14e7dd138c5239daULL, 0x784fd78cd677a7a3ULL,
      0x0d5e5e16ca0b418aULL, 0xbbff0fd16b1b4ec9ULL, 0x5885d5ed5c769ce2ULL,
      0x4e64da8c8c031e76ULL, 0x81eabee4bc35a830ULL}},
};

const LerShape* find_shape(const std::string& name) {
  for (const LerShape& shape : kShapes) {
    if (name == shape.name) {
      return &shape;
    }
  }
  return nullptr;
}

LerConfig config_for(const LerShape& shape, std::uint64_t seed) {
  LerConfig config;
  config.physical_error_rate = shape.physical_error_rate;
  config.with_pauli_frame = shape.pauli_frame;
  config.basis = shape.basis;
  config.target_logical_errors = kTargetErrors;
  config.seed = seed;
  return config;
}

/// Trial i runs with the (i+1)'th next_trial_seed iterate, as in
/// run_ler_campaign.
std::vector<std::uint64_t> trial_seeds(std::uint64_t base, std::size_t n) {
  std::vector<std::uint64_t> seeds(n);
  for (std::uint64_t& seed : seeds) {
    base = qpf::bench::next_trial_seed(base);
    seed = base;
  }
  return seeds;
}

struct TrialRecord {
  std::size_t index = 0;
  std::size_t windows = 0;
  std::size_t logical_errors = 0;
  double saved_gates = 0.0;
  double saved_slots = 0.0;
  Counters above;
  Counters below;
  Counters physical;

  /// The campaign's per-trial outcome: (windows, logical errors, saved
  /// gates, saved slots), as journaled by run_ler_campaign.
  [[nodiscard]] std::uint64_t digest() const {
    std::uint64_t h = fnv1a_value(static_cast<std::uint64_t>(windows),
                                  0xcbf29ce484222325ULL);
    h = fnv1a_value(static_cast<std::uint64_t>(logical_errors), h);
    h = fnv1a_value(saved_gates, h);
    return fnv1a_value(saved_slots, h);
  }
};

bool same_counters(const Counters& a, const Counters& b) {
  return a.operations == b.operations && a.time_slots == b.time_slots &&
         a.circuits == b.circuits;
}

double saved_fraction(std::size_t above, std::size_t below) {
  // LerStack::gates_saved_fraction / slots_saved_fraction.
  if (above == 0) {
    return 0.0;
  }
  return (static_cast<double>(above) - static_cast<double>(below)) /
         static_cast<double>(above);
}

TrialRecord record_of(std::size_t index, const LerTrial& trial) {
  TrialRecord r;
  r.index = index;
  const qpf::bench::LerRun run = trial.result();
  r.windows = run.windows;
  r.logical_errors = run.logical_errors;
  r.saved_gates = run.saved_gates_fraction;
  r.saved_slots = run.saved_slots_fraction;
  r.above = trial.stack().counters_above_frame();
  r.below = trial.stack().counters_below_frame();
  r.physical = trial.stack().counters_physical();
  return r;
}

// --- The probed stack --------------------------------------------------

constexpr ProbeNames kIntoChp{"arch.chp.add", "arch.chp.execute",
                              "arch.chp.get_state"};
constexpr ProbeNames kIntoCounterBottom{"arch.counter.bottom.add",
                                        "arch.counter.bottom.execute",
                                        "arch.counter.bottom.get_state"};
constexpr ProbeNames kIntoError{"arch.error.add", "arch.error.execute",
                                "arch.error.get_state"};
constexpr ProbeNames kIntoCounterBelow{"arch.counter.below.add",
                                       "arch.counter.below.execute",
                                       "arch.counter.below.get_state"};
constexpr ProbeNames kIntoFrame{"arch.frame.add", "arch.frame.execute",
                                "arch.frame.get_state"};
constexpr ProbeNames kIntoCounterAbove{"arch.counter.above.add",
                                       "arch.counter.above.execute",
                                       "arch.counter.above.get_state"};

/// LerStack's plain Fig 5.8 configuration, assembled from the public
/// classes with the same seeds and seed XORs, plus a probe above every
/// element:
///
///   NinjaStarLayer
///   [probe] CounterLayer (above)
///   [probe] PauliFrameLayer        (frame workloads only)
///   [probe] CounterLayer (below)
///   [probe] ErrorLayer
///   [probe] CounterLayer (bottom)
///   [probe] ChpCore
class ProbedStack {
 public:
  ProbedStack(const LerConfig& config, ProbeContext* context)
      : core_(config.seed),
        into_chp_(&core_, context, kIntoChp, /*count_measurements=*/true),
        counter_bottom_(&into_chp_),
        into_counter_bottom_(&counter_bottom_, context, kIntoCounterBottom),
        error_(&into_counter_bottom_, config.physical_error_rate,
               config.seed ^ 0x9e3779b97f4a7c15ULL),
        into_error_(&error_, context, kIntoError),
        counter_below_(&into_error_),
        into_counter_below_(&counter_below_, context, kIntoCounterBelow) {
    Core* below_above = &into_counter_below_;
    if (config.with_pauli_frame) {
      frame_ = std::make_unique<qpf::arch::PauliFrameLayer>(below_above);
      into_frame_ =
          std::make_unique<ProbeLayer>(frame_.get(), context, kIntoFrame);
      below_above = into_frame_.get();
    }
    counter_above_ = std::make_unique<qpf::arch::CounterLayer>(below_above);
    into_counter_above_ = std::make_unique<ProbeLayer>(
        counter_above_.get(), context, kIntoCounterAbove);
    ninja_ = std::make_unique<qpf::arch::NinjaStarLayer>(
        into_counter_above_.get(), config.ninja_options);
    ninja_->create_qubits(1);
  }

  ProbedStack(const ProbedStack&) = delete;
  ProbedStack& operator=(const ProbedStack&) = delete;

  qpf::arch::NinjaStarLayer& ninja() { return *ninja_; }

  /// LerStack::set_diagnostic_mode for the plain configuration.
  void set_diagnostic_mode(bool on) {
    counter_bottom_.set_bypass(on);
    error_.set_bypass(on);
    counter_below_.set_bypass(on);
    counter_above_->set_bypass(on);
  }

  void reset_counters() {
    counter_bottom_.reset_counters();
    counter_below_.reset_counters();
    counter_above_->reset_counters();
  }

  [[nodiscard]] const Counters& above() const {
    return counter_above_->counters();
  }
  [[nodiscard]] const Counters& below() const {
    return counter_below_.counters();
  }
  [[nodiscard]] const Counters& physical() const {
    return counter_bottom_.counters();
  }

  /// Probes top first: counter-above, [frame], counter-below, error,
  /// counter-bottom, chp.
  [[nodiscard]] std::vector<const ProbeLayer*> probes() const {
    std::vector<const ProbeLayer*> out{into_counter_above_.get()};
    if (into_frame_) {
      out.push_back(into_frame_.get());
    }
    out.insert(out.end(), {&into_counter_below_, &into_error_,
                           &into_counter_bottom_, &into_chp_});
    return out;
  }

 private:
  qpf::arch::ChpCore core_;
  ProbeLayer into_chp_;
  qpf::arch::CounterLayer counter_bottom_;
  ProbeLayer into_counter_bottom_;
  qpf::arch::ErrorLayer error_;
  ProbeLayer into_error_;
  qpf::arch::CounterLayer counter_below_;
  ProbeLayer into_counter_below_;
  std::unique_ptr<qpf::arch::PauliFrameLayer> frame_;
  std::unique_ptr<ProbeLayer> into_frame_;
  std::unique_ptr<qpf::arch::CounterLayer> counter_above_;
  std::unique_ptr<ProbeLayer> into_counter_above_;
  std::unique_ptr<qpf::arch::NinjaStarLayer> ninja_;
};

/// What one traced trial measured (window phase only for the probes).
struct TrialTrace {
  std::size_t windows = 0;
  std::int64_t setup_ns = 0;   ///< construct + initialize
  std::int64_t window_ns = 0;  ///< run_window, inclusive
  std::int64_t diag_ns = 0;    ///< the two diagnostics probes
  std::int64_t loop_ns = 0;    ///< first step start to last step end
  std::vector<ProbeStats> probes;  ///< ProbedStack::probes() order
  SpanLog spans{1u << 14};
};

/// LerTrial's loop on a ProbedStack.
TrialRecord run_probed_trial(std::size_t index, const LerConfig& config,
                             TrialTrace& trace, SampleBuffer& window_samples) {
  ProbeContext context;
  context.phase = 1;
  const std::int64_t setup0 = now_ns();
  ProbedStack stack(config, &context);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, config.basis);
  stack.set_diagnostic_mode(false);
  stack.reset_counters();
  const std::int64_t setup1 = now_ns();
  trace.setup_ns = setup1 - setup0;
  context.spans = &trace.spans;

  std::size_t windows = 0;
  std::size_t logical_errors = 0;
  int expected_sign = +1;
  const std::int64_t loop0 = now_ns();
  while (logical_errors < config.target_logical_errors &&
         windows < config.max_windows) {
    context.record = windows % kSpanEvery == 0;
    context.item = windows;
    context.phase = 0;
    const std::int64_t t0 = now_ns();
    const std::int64_t window_span =
        context.record ? trace.spans.add(Span{"arch.ninja.run_window", t0, t0,
                                              -1, windows})
                       : -1;
    context.open = window_span;
    stack.ninja().run_window(0);
    const std::int64_t t1 = now_ns();
    ++windows;
    context.phase = 1;
    const std::int64_t diag_span =
        context.record
            ? trace.spans.add(Span{"bench.diag", t1, t1, -1, windows - 1})
            : -1;
    context.open = diag_span;
    stack.set_diagnostic_mode(true);
    if (!stack.ninja().has_observable_errors(0)) {
      const int sign = stack.ninja().measure_logical_stabilizer(0, config.basis);
      if (sign != expected_sign) {
        ++logical_errors;
        expected_sign = sign;
      }
    }
    stack.set_diagnostic_mode(false);
    const std::int64_t t2 = now_ns();
    trace.spans.set_end(window_span, t1);
    trace.spans.set_end(diag_span, t2);
    context.open = -1;
    trace.window_ns += t1 - t0;
    trace.diag_ns += t2 - t1;
    window_samples.add(static_cast<double>(t1 - t0));
  }
  trace.loop_ns = now_ns() - loop0;
  trace.windows = windows;
  for (const ProbeLayer* probe : stack.probes()) {
    trace.probes.push_back(probe->stats(0));
  }

  TrialRecord r;
  r.index = index;
  r.windows = windows;
  r.logical_errors = logical_errors;
  r.above = stack.above();
  r.below = stack.below();
  r.physical = stack.physical();
  r.saved_gates = saved_fraction(r.above.operations, r.below.operations);
  r.saved_slots = saved_fraction(r.above.time_slots, r.below.time_slots);
  return r;
}

// --- The trial engine --------------------------------------------------

enum class Outcome {
  kDone,       ///< the trial finished; record it
  kStop,       ///< start no further trials (nothing ran)
  kAbandoned,  ///< stopped mid-trial at the deadline; nothing to record
};

struct TrialResult {
  Outcome outcome = Outcome::kStop;
  TrialRecord record;
  std::unique_ptr<TrialTrace> trace;
};

struct TaskStamp {
  std::int64_t start = 0;
  std::int64_t end = 0;
  std::int64_t commit = 0;
  std::size_t worker = 0;
};

struct EngineRun {
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::vector<TaskStamp> stamps;  ///< executor runs only
};

using TrialFn = std::function<TrialResult(std::size_t)>;
using CommitFn = std::function<void(std::size_t, TrialResult&&)>;

/// Run tasks 0..tasks-1 the way run_ler_campaign runs trials: in order
/// on this thread without a pool, else one exec::Executor task per trial
/// with the executor's in-order commit.  `commit` then sees every
/// finished trial in index order, including trials the executor ran past
/// its commit frontier (work stealing takes tasks from the back).
EngineRun run_engine(qpf::exec::Executor* pool, std::size_t tasks,
                     const TrialFn& trial, const CommitFn& commit) {
  EngineRun run;
  if (pool == nullptr) {
    run.start_ns = now_ns();
    for (std::size_t i = 0; i < tasks; ++i) {
      TrialResult result = trial(i);
      if (result.outcome != Outcome::kDone) {
        break;
      }
      commit(i, std::move(result));
    }
    run.end_ns = now_ns();
    return run;
  }

  // Each slot is written by the one worker that ran its task and read
  // after run_ordered returned.
  std::vector<std::unique_ptr<TrialResult>> results(tasks);
  run.stamps.assign(tasks, TaskStamp{});
  const std::function<qpf::exec::TaskResult<bool>(
      const qpf::exec::TaskContext&)>
      task = [&](const qpf::exec::TaskContext& ctx) {
        qpf::exec::TaskResult<bool> out;
        TaskStamp& stamp = run.stamps[ctx.index()];
        stamp.start = now_ns();
        stamp.worker = std::hash<std::thread::id>{}(std::this_thread::get_id());
        auto result = std::make_unique<TrialResult>(trial(ctx.index()));
        stamp.end = now_ns();
        switch (result->outcome) {
          case Outcome::kDone:
            results[ctx.index()] = std::move(result);
            break;
          case Outcome::kStop:
            // Trials already running finish; none start.
            ctx.cancel();
            break;
          case Outcome::kAbandoned:
            out.status = qpf::exec::TaskStatus::kAbandoned;
            break;
        }
        return out;
      };
  const std::function<bool(std::size_t, bool&&)> sequenced =
      [&](std::size_t index, bool&&) {
        run.stamps[index].commit = now_ns();
        return true;
      };
  qpf::exec::RunOptions options;
  run.start_ns = now_ns();
  pool->run_ordered<bool>(tasks, options, task, sequenced);
  run.end_ns = now_ns();
  for (std::size_t i = 0; i < tasks; ++i) {
    if (results[i]) {
      commit(i, std::move(*results[i]));
    }
  }
  return run;
}

// --- Checks --------------------------------------------------------------

/// The per-trial output check; returns the failures it found.
std::size_t check_trials(const LerShape& shape, std::uint64_t seed,
                         const std::vector<TrialRecord>& records,
                         Report& report) {
  const LerConfig config = config_for(shape, seed);
  std::size_t failed = 0;
  for (const TrialRecord& r : records) {
    std::string why;
    if (r.logical_errors != config.target_logical_errors ||
        r.windows >= config.max_windows) {
      why = "did not reach its error target within max_windows";
    } else if (!shape.pauli_frame &&
               (r.saved_gates != 0.0 || r.saved_slots != 0.0)) {
      why = "saved gates without a Pauli frame";
    } else if (seed == kDefaultSeed && r.index < kDigestTrials &&
               r.digest() != shape.expected[r.index]) {
      char digest[32];
      std::snprintf(digest, sizeof digest, "%016llx",
                    static_cast<unsigned long long>(r.digest()));
      why = std::string("digest ") + digest + " differs from the recorded one";
    }
    if (!why.empty()) {
      ++failed;
      report.problem("trial " + std::to_string(r.index) + ": " + why);
    }
  }
  return failed;
}

std::unique_ptr<qpf::exec::Executor> make_pool(const LerShape& shape) {
  if (shape.jobs <= 1) {
    return nullptr;
  }
  return std::make_unique<qpf::exec::Executor>(shape.jobs);
}

/// Let caches fill and lazy set-up finish on trials the run never counts.
void warm_up(const LerShape& shape, std::uint64_t seed) {
  const std::int64_t until = now_ns() + 250'000'000;
  LerTrial trial(config_for(shape, qpf::exec::splitmix64(seed ^ 0x3a3a)));
  for (int i = 0; i < 5000 && !trial.done() && now_ns() < until; ++i) {
    trial.step();
  }
}

/// Step `trial` until done (true) or `deadline` (false), timing each
/// window.
bool run_until(LerTrial& trial, std::int64_t deadline, OpTimer& timer) {
  std::int64_t t0 = now_ns();
  while (!trial.done()) {
    if (t0 >= deadline) {
      return false;
    }
    trial.step();
    t0 = timer.record(t0, now_ns());
  }
  return true;
}

// --- Untraced run ------------------------------------------------------

void run_untraced(const LerShape& shape, const RunArgs& args,
                  Report& report) {
  const std::vector<std::uint64_t> seeds = trial_seeds(args.seed, kMaxTrials);

  std::vector<double> setups;
  const auto time_setups = [&] {
    for (int rep = 0; rep < kSetupRepeats; ++rep) {
      const std::int64_t t0 = now_ns();
      for (std::size_t i = 0; i < kSetupTrials; ++i) {
        LerTrial trial(config_for(shape, seeds[i]));
      }
      setups.push_back(static_cast<double>(now_ns() - t0) * 1e-9);
    }
  };
  time_setups();
  warm_up(shape, args.seed);

  const std::unique_ptr<qpf::exec::Executor> pool = make_pool(shape);
  const std::size_t segments = segments_in(args.seconds);
  const std::int64_t start = now_ns();
  const std::int64_t deadline =
      start + static_cast<std::int64_t>(args.seconds * 1e9);
  PerThread<OpTimer> timers([&] {
    return std::make_unique<OpTimer>(start, segments, kSegmentNs);
  });
  std::vector<TrialRecord> records;
  run_engine(
      pool.get(), kMaxTrials,
      [&](std::size_t i) {
        TrialResult result;
        if (now_ns() >= deadline) {
          result.outcome = Outcome::kAbandoned;
          return result;
        }
        LerTrial trial(config_for(shape, seeds[i]));
        result.outcome = run_until(trial, deadline, timers.local())
                             ? Outcome::kDone
                             : Outcome::kAbandoned;
        if (result.outcome == Outcome::kDone) {
          result.record = record_of(i, trial);
        }
        return result;
      },
      [&](std::size_t, TrialResult&& result) {
        records.push_back(result.record);
      });

  time_setups();  // at both ends of the run, like the timed segments

  std::vector<const OpTimer*> threads;
  timers.for_each([&](const OpTimer& t) { threads.push_back(&t); });
  const SegmentStats m = segment_stats(threads, segments, 1e-9 * kSegmentNs);

  report.attempted = records.size();
  report.failed = check_trials(shape, args.seed, records, report);
  if (records.empty()) {
    report.problem("no trial completed within the run");
  }
  report.add("ops_per_s", m.rate, "1/s",
             describe(m, m.raw_rate, "windows") +
                 ", jobs=" + std::to_string(shape.jobs));
  report.add("op_p50_ms", m.p50 * 1e-6, "ms",
             describe(m, m.raw_p50 * 1e-6, "windows"));
  report.add("op_p99_ms", m.p99 * 1e-6, "ms",
             describe(m, m.raw_p99 * 1e-6, "windows"));
  report.add("setup_s",
             quantile(setups, 0.5) * kCalibrationRefNs / m.calibration_ns, "s",
             "median of " + std::to_string(setups.size()) +
                 " x " + std::to_string(kSetupTrials) +
                 " LerTrial builds, half before and half after the run,"
                 " scaled by the run's calibration");
  report.add("peak_rss_mb", peak_rss_mb(), "MB");
}

// --- Traced run --------------------------------------------------------

void run_traced(const LerShape& shape, const RunArgs& args, Report& report) {
  const std::vector<std::uint64_t> seeds = trial_seeds(args.seed, kMaxTrials);
  warm_up(shape, args.seed);
  const std::unique_ptr<qpf::exec::Executor> pool = make_pool(shape);

  // Reference phase: LerTrial, started until the phase deadline and run
  // to completion.
  std::vector<TrialRecord> reference;
  const std::int64_t phase_deadline =
      now_ns() + static_cast<std::int64_t>(args.seconds * kReferenceShare * 1e9);
  const EngineRun untraced = run_engine(
      pool.get(), kMaxTrials,
      [&](std::size_t i) {
        TrialResult result;
        if (now_ns() >= phase_deadline) {
          return result;  // kStop
        }
        LerTrial trial(config_for(shape, seeds[i]));
        while (!trial.done()) {
          trial.step();
        }
        result.outcome = Outcome::kDone;
        result.record = record_of(i, trial);
        return result;
      },
      [&](std::size_t, TrialResult&& result) {
        reference.push_back(result.record);
      });

  // Traced phase: the same trials on the probed stack.
  PerThread<SampleBuffer> window_samples;
  std::vector<TrialRecord> traced;
  TrialTrace total;
  SpanLog spans;
  std::vector<ProbeStats> probes;
  std::vector<std::int64_t> task_span(reference.size(), -1);
  const EngineRun run = run_engine(
      pool.get(), reference.size(),
      [&](std::size_t j) {
        TrialResult result;
        result.trace = std::make_unique<TrialTrace>();
        const std::size_t index = reference[j].index;
        const std::int64_t start = now_ns();
        const std::int64_t root =
            result.trace->spans.add(Span{"bench.trial", start, start, -1, index});
        result.record =
            run_probed_trial(index, config_for(shape, seeds[index]),
                             *result.trace, window_samples.local());
        result.trace->spans.set_end(root, now_ns());
        result.outcome = Outcome::kDone;
        return result;
      },
      [&](std::size_t j, TrialResult&& result) {
        const TrialTrace& t = *result.trace;
        total.windows += t.windows;
        total.setup_ns += t.setup_ns;
        total.window_ns += t.window_ns;
        total.diag_ns += t.diag_ns;
        total.loop_ns += t.loop_ns;
        probes.resize(t.probes.size());
        for (std::size_t p = 0; p < t.probes.size(); ++p) {
          probes[p] += t.probes[p];
        }
        task_span[j] = static_cast<std::int64_t>(spans.size());
        spans.append(t.spans);
        traced.push_back(result.record);
      });

  // Equivalence: same trials, same outcomes, same counter totals.
  report.attempted = reference.size();
  report.failed = check_trials(shape, args.seed, reference, report);
  if (traced.size() != reference.size()) {
    report.problem("probed stack ran " + std::to_string(traced.size()) +
                   " trials, LerTrial " + std::to_string(reference.size()));
  }
  for (std::size_t j = 0; j < std::min(traced.size(), reference.size()); ++j) {
    const TrialRecord& a = reference[j];
    const TrialRecord& b = traced[j];
    if (a.digest() != b.digest() || !same_counters(a.above, b.above) ||
        !same_counters(a.below, b.below) ||
        !same_counters(a.physical, b.physical)) {
      ++report.failed;
      report.problem("trial " + std::to_string(a.index) +
                     ": probed stack diverges from LerStack (windows " +
                     std::to_string(b.windows) + " vs " +
                     std::to_string(a.windows) + ")");
    }
  }
  if (total.windows == 0) {
    report.problem("traced phase ran no window");
    return;
  }

  // Per-layer numbers, per window.
  const double n = static_cast<double>(total.windows);
  const auto per_window = [n](double v) { return v / n; };
  std::vector<std::int64_t> inclusive{total.window_ns};
  for (const ProbeStats& p : probes) {
    inclusive.push_back(p.inclusive_ns());
  }
  const std::vector<std::int64_t> self = self_times(inclusive);
  // self: ninja, counter-above, [frame], counter-below, error,
  // counter-bottom, chp.
  const std::size_t f = shape.pauli_frame ? 1 : 0;
  const ProbeStats& into_above = probes[0];
  const ProbeStats& into_below = probes[1 + f];
  const ProbeStats& into_error = probes[2 + f];
  const ProbeStats& into_bottom = probes[3 + f];
  const ProbeStats& into_chp = probes[4 + f];
  const std::int64_t counter_self = self[1] + self[2 + f] + self[4 + f];
  std::uint64_t get_state_calls = 0;
  for (const ProbeStats& p : probes) {
    get_state_calls += p.get_state_calls;
  }

  const std::string windows_note = "per window, " +
                                   std::to_string(total.windows) + " windows";
  report.add("arch.ninja.self_ns", per_window(self[0]), "ns", windows_note);
  report.add("arch.ninja.circuits", per_window(into_above.add_calls), "count");
  if (shape.pauli_frame) {
    report.add("arch.frame.self_ns", per_window(self[2]), "ns");
    report.add("arch.frame.ops_in", per_window(probes[1].ops_in), "count");
    report.add("arch.frame.ops_out", per_window(into_below.ops_in), "count",
               "absorbed share " +
                   std::to_string(1.0 - static_cast<double>(into_below.ops_in) /
                                            static_cast<double>(probes[1].ops_in)));
  }
  report.add("arch.counter.self_ns", per_window(counter_self), "ns",
             "three CounterLayers");
  report.add("arch.error.self_ns", per_window(self[3 + f]), "ns");
  report.add("arch.error.ops_added",
             per_window(static_cast<double>(into_bottom.ops_in) -
                        static_cast<double>(into_error.ops_in)),
             "count");
  report.add("arch.chp.add_ns", per_window(into_chp.add_ns), "ns");
  report.add("arch.chp.execute_ns", per_window(into_chp.execute_ns), "ns");
  report.add("arch.chp.get_state_ns", per_window(into_chp.get_state_ns), "ns");
  report.add("arch.chp.ops", per_window(into_chp.ops_in), "count");
  report.add("arch.chp.measurements", per_window(into_chp.measurements_in),
             "count");
  report.add("arch.get_state.calls", per_window(get_state_calls), "count");
  report.add("bench.diag_ns", per_window(total.diag_ns), "ns");
  report.add("bench.trial_setup_ns",
             static_cast<double>(total.setup_ns) /
                 static_cast<double>(traced.size()),
             "ns", "per trial, " + std::to_string(traced.size()) + " trials");

  std::vector<const SampleBuffer*> buffers;
  window_samples.for_each(
      [&](const SampleBuffer& b) { buffers.push_back(&b); });
  const std::vector<Sample> samples = merge_samples(buffers);
  const std::string sample_note = "n=" + std::to_string(samples.size());
  report.add("window.ns_p50", percentile(samples, 0.50), "ns", sample_note);
  report.add("window.ns_p99", percentile(samples, 0.99), "ns", sample_note);

  if (pool) {
    // Executor: task time over jobs x wall; task end to in-order commit;
    // first idle worker to run end.
    std::int64_t busy = 0;
    std::int64_t commit_wait = 0;
    std::map<std::size_t, std::int64_t> last_end;
    for (const TaskStamp& s : run.stamps) {
      busy += s.end - s.start;
      commit_wait += s.commit - s.end;
      last_end[s.worker] = std::max(last_end[s.worker], s.end);
    }
    std::int64_t first_idle = run.end_ns;
    for (const auto& [worker, end] : last_end) {
      first_idle = std::min(first_idle, end);
    }
    if (last_end.size() < shape.jobs) {
      first_idle = run.start_ns;
    }
    const double tasks = static_cast<double>(run.stamps.size());
    report.add("exec.busy_frac",
               static_cast<double>(busy) /
                   (static_cast<double>(shape.jobs) *
                    static_cast<double>(run.end_ns - run.start_ns)),
               "ratio", std::to_string(run.stamps.size()) + " tasks");
    report.add("exec.commit_wait_ns", static_cast<double>(commit_wait) / tasks,
               "ns", "per task");
    report.add("exec.tail_s",
               static_cast<double>(run.end_ns - first_idle) * 1e-9, "s");
    for (std::size_t j = 0; j < run.stamps.size(); ++j) {
      const TaskStamp& s = run.stamps[j];
      const std::int64_t parent = task_span[j];
      spans.add(
          Span{"exec.commit", s.end, s.commit, parent, reference[j].index});
    }
  }

  const double coverage = static_cast<double>(total.window_ns + total.diag_ns) /
                          static_cast<double>(total.loop_ns);
  report.add("trace.coverage", coverage, "ratio",
             "(sum of self + chp + diag) / step loop time");
  if (std::abs(coverage - 1.0) > 0.05) {
    report.problem("trace.coverage " + std::to_string(coverage) +
                   " is not within 5% of 1");
  }
  const double untraced_s =
      static_cast<double>(untraced.end_ns - untraced.start_ns);
  report.add("trace.overhead",
             static_cast<double>(run.end_ns - run.start_ns) / untraced_s,
             "ratio", "traced / untraced wall on the same trials");

  if (!args.trace_dir.empty()) {
    const std::string path = args.trace_dir + "/" + shape.name + "-seed" +
                             std::to_string(args.seed) + ".spans.jsonl";
    if (!spans.write(path)) {
      report.problem("cannot write spans to " + path);
    }
  }
}

}  // namespace

bool is_ler_workload(const std::string& name) {
  return find_shape(name) != nullptr;
}

Report run_ler(const RunArgs& args) {
  const LerShape& shape = *find_shape(args.workload);
  Report report;
  if (args.trace) {
    run_traced(shape, args, report);
  } else {
    run_untraced(shape, args, report);
  }
  return report;
}

}  // namespace qpfbench
