// The unified deterministic executor: one work-stealing pool under
// every jobs-N surface in the repo (LER campaigns, the chaos scenario
// driver, the fuzz engine's --cases fan-out, and the qpf_serve
// executor stage).
//
// Two modes share the worker threads:
//
//   * run_ordered() — the deterministic batch mode.  N indexed tasks
//     are dealt round-robin onto per-worker deques, one index per
//     work item; an owner pops its own deque from the front,
//     an idle worker steals from another deque's back.  Every deque
//     operation happens under the run's mutex (no lock-free
//     cleverness), so the engine is TSan-clean by construction.
//     Results are published into a sequenced completion buffer and the
//     *calling* thread commits them strictly in task-index order, so
//     anything the commit callback does (journal appends, report rows,
//     stdout) is byte-identical for every worker count.  Each task
//     gets a splitmix64 seed chained from the run seed and its index —
//     never from wall clock or scheduling — so task work is a pure
//     function of (run seed, index).  A one-worker pool runs the tasks
//     on the calling thread instead: task i runs and is committed
//     before task i + 1 starts, the order of a plain loop.
//
//   * submit() — the service mode used by qpf_serve: fire-and-forget
//     closures executed by the pool in FIFO order.  shutdown() drains
//     the queue (including closures enqueued by running closures, the
//     serve re-arm pattern) before joining the threads.
//
// Determinism contract of run_ordered():
//   - commit(i, result) is called for i = 0, 1, 2, ... with no gaps,
//     on the caller's thread, in index order, regardless of jobs or
//     steal schedule;
//   - a task that throws a qpf::Error parks the error; after the pool
//     drains, the lowest-index parked error is rethrown on the
//     caller's thread (a deterministic choice).  Results committed
//     below the error index stay committed.  An exception thrown by
//     commit itself cancels the run and is rethrown after the drain;
//   - a task that throws anything *not* derived from qpf::Error aborts
//     the process with a diagnostic, at one worker too (callers check
//     their inputs before the run): swallowing an unknown exception
//     could deadlock the commit sequence, and handing it to another
//     thread would lose its type.  Typed errors are the API;
//   - cancellation (a task returning kAbandoned, ctx.cancel(), the
//     external stop callback, or commit returning false) stops the
//     commit sequence at a *frontier*: the first index whose result
//     was not committed.  Completed results beyond the frontier are
//     discarded — a deterministic re-run reproduces them exactly —
//     and the frontier hook receives the frontier task's partial
//     result (when it abandoned with one) so callers can checkpoint
//     it.  This is exactly the crash-safe campaign contract the LER
//     engine shipped in PR 3, now owned by the executor.
//
// Planted bug 15 (`executor-commit-reorder`, QPF_PLANT_BUG=15) commits
// completions in arrival order instead of index order — the scheduling
// bug this design exists to rule out — so the `executor-determinism`
// fuzz oracle can prove it observes commit-order violations.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <vector>

namespace qpf::exec {

/// The increment of the splitmix64 state (the golden-ratio gamma).
inline constexpr std::uint64_t kSplitMixGamma = 0x9e3779b97f4a7c15ULL;

/// The splitmix64 output function (Steele, Lea & Flood): the one fully
/// specified mixer every seed chain and random stream in the repo
/// draws from, so they are portable across standard libraries.
[[nodiscard]] constexpr std::uint64_t splitmix64(std::uint64_t x) noexcept {
  x += kSplitMixGamma;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

/// The per-task seed chain: task `index` of a run seeded with `base`
/// always draws this seed, independent of jobs and scheduling.  The
/// fuzz engine derives its case and oracle streams the same way.
[[nodiscard]] constexpr std::uint64_t task_seed(std::uint64_t base,
                                                std::uint64_t index) noexcept {
  return splitmix64(base ^ splitmix64(index + 0x6a09e667f3bcc909ULL));
}

/// The splitmix64 sequence as a stream: the k-th draw (from 0) of a
/// stream seeded with s is splitmix64(s + k * kSplitMixGamma).  The
/// fuzz generator and oracles and the serve clients' backoff jitter
/// draw from it.
class SplitMix {
 public:
  explicit constexpr SplitMix(std::uint64_t seed) noexcept : state_(seed) {}

  constexpr std::uint64_t next() noexcept {
    const std::uint64_t x = state_;
    state_ += kSplitMixGamma;
    return splitmix64(x);
  }

  /// Uniform draw in [0, bound); bound must be nonzero.  Modulo bias is
  /// negligible for the small bounds the fuzz generator uses (< 2^16).
  constexpr std::uint64_t below(std::uint64_t bound) noexcept {
    return next() % bound;
  }

  /// Uniform double in [0, 1).
  constexpr double unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }

  constexpr bool chance(double probability) noexcept {
    return unit() < probability;
  }

 private:
  std::uint64_t state_;
};

/// Resolve a --jobs value: 0 means "auto" (hardware_concurrency, at
/// least 1); anything else passes through.
[[nodiscard]] std::size_t resolve_jobs(std::size_t jobs) noexcept;

/// What a task reports back to the sequencer.
enum class TaskStatus : std::uint8_t {
  kDone,       ///< result is final; commit it in order
  kAbandoned,  ///< task stopped early (cancellation); result is partial
};

namespace detail {
struct RunState;
struct TaskContextAccess;
}  // namespace detail

/// Handed to every task: its index, its deterministic seed, and the
/// cooperative-cancellation surface.  cancelled() is cheap enough to
/// poll every loop iteration (one relaxed atomic load plus the
/// caller-supplied stop callback, when one was given).
class TaskContext {
 public:
  [[nodiscard]] std::size_t index() const noexcept { return index_; }
  [[nodiscard]] std::uint64_t seed() const noexcept { return seed_; }
  /// True once any task abandoned, ctx.cancel() ran, commit returned
  /// false, or the run's external stop callback reports true.
  [[nodiscard]] bool cancelled() const noexcept;
  /// Request cancellation of the whole run (idempotent).
  void cancel() const noexcept;
  /// Tasks of this run that have finished so far (any status).
  /// Monotonic; lets tests and oracles force completion schedules
  /// (e.g. "finish last") without wall-clock dependence.
  [[nodiscard]] std::size_t completed() const noexcept;

 private:
  friend class Executor;
  friend struct detail::TaskContextAccess;
  TaskContext(std::size_t index, std::uint64_t seed,
              detail::RunState* run) noexcept
      : index_(index), seed_(seed), run_(run) {}

  std::size_t index_;
  std::uint64_t seed_;
  detail::RunState* run_;
};

/// Per-run knobs for run_ordered().
struct RunOptions {
  /// Base of the splitmix64 task-seed chain.
  std::uint64_t seed = 0;
  /// External cooperative stop (e.g. a SIGINT flag).  Polled by the
  /// workers between tasks and surfaced through ctx.cancelled(); must
  /// be thread-safe.  Empty = never stops.
  std::function<bool()> stop;
};

/// What actually happened, for callers that distinguish a completed
/// run from an interrupted one.
struct RunReport {
  /// Results committed (equals the task count iff the run finished).
  std::size_t committed = 0;
  /// True when the commit sequence stopped before the last task.
  bool cancelled = false;
  /// First uncommitted index; only meaningful when cancelled.
  std::size_t frontier = 0;
  /// Work items taken from another worker's deque (observability; the
  /// bit-identity contract makes it irrelevant to output).
  std::uint64_t steals = 0;
};

/// Why the frontier hook fired for the frontier index.
enum class FrontierKind : std::uint8_t {
  kAbandoned,  ///< the task ran and stopped early; a partial result exists
  kSkipped,    ///< the task never ran (or its completed result was discarded)
};

template <typename Result>
struct TaskResult {
  TaskStatus status = TaskStatus::kDone;
  Result value{};
};

namespace detail {
/// Type-erased hooks the templated front end hands to the scheduler
/// core.  run_one executes a task and stashes its result; commit_one
/// moves result `index` out to the caller (false = cancel the run);
/// frontier_one reports the first uncommitted index after a cancelled
/// run.
struct RunHooks {
  std::function<TaskStatus(const TaskContext&)> run_one;
  std::function<bool(std::size_t)> commit_one;
  std::function<void(std::size_t, FrontierKind)> frontier_one;
};
}  // namespace detail

class Executor {
 public:
  /// Spawns `threads` workers (0 = auto via resolve_jobs).  A
  /// one-worker pool starts its thread with the first submit().
  explicit Executor(std::size_t threads);
  ~Executor();

  Executor(const Executor&) = delete;
  Executor& operator=(const Executor&) = delete;

  [[nodiscard]] std::size_t threads() const noexcept;

  // --- Service mode ---------------------------------------------------

  /// Enqueue a fire-and-forget closure (FIFO).  Closures may submit
  /// further closures — including during shutdown()'s drain, which is
  /// how qpf_serve re-arms a session queue.  Throws qpf::Error after
  /// shutdown() completed.  A closure that throws anything aborts the
  /// process with a diagnostic: service tasks own their error handling.
  void submit(std::function<void()> work);

  /// Drain the service queue (running everything already enqueued plus
  /// anything those closures enqueue) and join the workers.  Idempotent.
  /// Must not race with an active run_ordered().
  void shutdown();

  // --- Deterministic batch mode ---------------------------------------

  /// Run `tasks` indexed tasks over the pool and commit their results
  /// in index order on *this* (the calling) thread.  See the file
  /// comment for the full determinism contract.  `commit` returning
  /// false cancels the run.  `frontier` (optional) fires at most once,
  /// after the pool drained, with the first uncommitted index; when
  /// that task abandoned mid-flight its partial result is passed so
  /// the caller can checkpoint it, otherwise nullptr.
  template <typename Result>
  RunReport run_ordered(
      std::size_t tasks, const RunOptions& options,
      const std::function<TaskResult<Result>(const TaskContext&)>& task,
      const std::function<bool(std::size_t, Result&&)>& commit,
      const std::function<void(std::size_t, FrontierKind, Result*)>& frontier =
          nullptr) {
    std::vector<std::optional<Result>> slots(tasks);
    detail::RunHooks hooks;
    hooks.run_one = [&](const TaskContext& ctx) {
      TaskResult<Result> out = task(ctx);
      // Each slot is written by exactly one worker and read by the
      // caller only after the completion mark is published under the
      // run mutex, so the slot itself needs no lock.
      slots[ctx.index()] = std::move(out.value);
      return out.status;
    };
    hooks.commit_one = [&](std::size_t index) {
      Result value = std::move(*slots[index]);
      slots[index].reset();
      return commit(index, std::move(value));
    };
    hooks.frontier_one = [&](std::size_t index, FrontierKind kind) {
      if (frontier) {
        Result* partial = (kind == FrontierKind::kAbandoned &&
                           slots[index].has_value())
                              ? &*slots[index]
                              : nullptr;
        frontier(index, kind, partial);
      }
    };
    return run_erased(tasks, options, hooks);
  }

 private:
  RunReport run_erased(std::size_t tasks, const RunOptions& options,
                       const detail::RunHooks& hooks);
  void worker_main();
  void participate(detail::RunState& run);

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace qpf::exec
