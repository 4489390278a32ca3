#include "exec/executor.h"

#include <atomic>
#include <condition_variable>
#include <cstdio>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>

#include "circuit/bug_plant.h"
#include "circuit/error.h"

namespace qpf::exec {

std::size_t resolve_jobs(std::size_t jobs) noexcept {
  if (jobs != 0) {
    return jobs;
  }
  const unsigned hc = std::thread::hardware_concurrency();
  return hc == 0 ? 1 : static_cast<std::size_t>(hc);
}

namespace detail {

/// Per-index completion marks in the sequenced buffer.
enum Mark : std::uint8_t {
  kPending = 0,   ///< not finished (queued or running)
  kComplete,      ///< TaskStatus::kDone; result awaits in-order commit
  kAbandonedMark, ///< TaskStatus::kAbandoned; partial result stashed
  kSkippedMark,   ///< never ran (cancellation reached it first)
  kErrorMark,     ///< threw a qpf::Error; parked in errors[index]
};

struct RunState {
  std::uint64_t generation = 0;
  std::size_t tasks = 0;
  std::uint64_t base_seed = 0;
  const std::function<bool()>* stop = nullptr;  // caller-owned, may be null
  const RunHooks* hooks = nullptr;

  // Everything below is guarded by `m` except `cancelled`, which is a
  // relaxed sticky flag so tasks can poll it without taking the lock.
  std::mutex m;
  std::condition_variable completion;
  std::vector<std::uint8_t> state;        // Mark per task index
  std::atomic<std::size_t> marked{0};     // count of non-kPending entries
  std::deque<std::size_t> arrivals;      // kComplete indices, arrival order
  std::vector<std::deque<std::size_t>> deques;  // per-worker task indices
  std::uint64_t steals = 0;
  std::vector<std::exception_ptr> errors;
  bool any_error = false;
  std::exception_ptr commit_error;  // thrown by commit_one; caller-only
  std::atomic<bool> cancelled{false};

  [[nodiscard]] bool external_stop() const {
    return stop != nullptr && (*stop)();
  }
};

/// Scheduler-internal factory for TaskContext (whose constructor is
/// private so user code cannot forge contexts).
struct TaskContextAccess {
  [[nodiscard]] static TaskContext make(std::size_t index, std::uint64_t seed,
                                        RunState* run) noexcept {
    return TaskContext(index, seed, run);
  }
};

}  // namespace detail

using detail::Mark;
using detail::RunState;

bool TaskContext::cancelled() const noexcept {
  return run_->cancelled.load(std::memory_order_relaxed) ||
         run_->external_stop();
}

void TaskContext::cancel() const noexcept {
  run_->cancelled.store(true, std::memory_order_relaxed);
}

std::size_t TaskContext::completed() const noexcept {
  return run_->marked.load(std::memory_order_acquire);
}

struct Executor::Impl {
  std::mutex mutex;                   // pool state below
  std::condition_variable wake;       // workers sleep here
  std::condition_variable run_exited; // run_erased waits for entrants
  std::deque<std::function<void()>> queue;
  RunState* run = nullptr;
  std::size_t run_entrants = 0;
  std::uint64_t run_generation = 0;
  bool stopping = false;
  bool stopped = false;
  std::mutex run_serial;  // one run_ordered at a time per pool
  std::size_t width = 0;  // resolved thread count
  std::vector<std::thread> workers;
};

namespace {

/// Identifies pool worker threads, so submit() can tell a service
/// closure re-arming during shutdown's drain from an outside caller
/// racing it.
thread_local bool tl_pool_worker = false;

[[noreturn]] void abort_on_foreign_exception(const char* where,
                                             const char* what) {
  std::fprintf(stderr,
               "qpf::exec::Executor: %s threw a non-qpf::Error exception"
               " (%s); aborting — an untyped exception cannot cross the"
               " commit sequence without deadlocking it\n",
               where, what == nullptr ? "unknown type" : what);
  std::abort();
}

void mark_index(RunState& run, std::size_t index, Mark mark) {
  {
    std::lock_guard<std::mutex> lock(run.m);
    run.state[index] = static_cast<std::uint8_t>(mark);
    run.marked.fetch_add(1, std::memory_order_release);
    if (mark == detail::kComplete) {
      run.arrivals.push_back(index);
    }
  }
  run.completion.notify_all();
}

/// Run (or skip) one task index and publish its completion mark.
void run_index(RunState& run, std::size_t index) {
  if (run.cancelled.load(std::memory_order_relaxed) || run.external_stop()) {
    // Sticky: once any worker observes a stop, the rest skip cheaply.
    run.cancelled.store(true, std::memory_order_relaxed);
    mark_index(run, index, detail::kSkippedMark);
    return;
  }
  const TaskContext ctx = detail::TaskContextAccess::make(
      index, task_seed(run.base_seed, index), &run);
  TaskStatus status;
  try {
    status = run.hooks->run_one(ctx);
  } catch (const Error&) {
    // Typed error: park it for the caller thread (lowest index wins),
    // cancel the rest of the run, and keep the commit sequence alive.
    {
      std::lock_guard<std::mutex> lock(run.m);
      run.errors[index] = std::current_exception();
      run.any_error = true;
      run.state[index] = static_cast<std::uint8_t>(detail::kErrorMark);
      run.marked.fetch_add(1, std::memory_order_release);
    }
    run.cancelled.store(true, std::memory_order_relaxed);
    run.completion.notify_all();
    return;
  } catch (const std::exception& e) {
    abort_on_foreign_exception("a task", e.what());
  } catch (...) {
    abort_on_foreign_exception("a task", nullptr);
  }
  if (status == TaskStatus::kAbandoned) {
    run.cancelled.store(true, std::memory_order_relaxed);
  }
  mark_index(run, index,
             status == TaskStatus::kDone ? detail::kComplete
                                         : detail::kAbandonedMark);
}

}  // namespace

Executor::Executor(std::size_t threads) : impl_(std::make_unique<Impl>()) {
  impl_->width = resolve_jobs(threads);
  // A one-worker pool runs run_ordered() on the calling thread, so its
  // thread serves submit() only and starts with the first closure.
  if (impl_->width > 1) {
    impl_->workers.reserve(impl_->width);
    for (std::size_t i = 0; i < impl_->width; ++i) {
      impl_->workers.emplace_back([this] { worker_main(); });
    }
  }
}

Executor::~Executor() { shutdown(); }

std::size_t Executor::threads() const noexcept { return impl_->width; }

void Executor::submit(std::function<void()> work) {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mutex);
    if (im.stopped || (im.stopping && !tl_pool_worker)) {
      throw Error("executor is shut down; submit refused");
    }
    im.queue.push_back(std::move(work));
    if (im.workers.empty()) {
      im.workers.emplace_back([this] { worker_main(); });
    }
  }
  im.wake.notify_one();
}

void Executor::shutdown() {
  Impl& im = *impl_;
  {
    std::lock_guard<std::mutex> lock(im.mutex);
    if (im.stopped) {
      return;
    }
    im.stopping = true;
  }
  im.wake.notify_all();
  for (std::thread& worker : im.workers) {
    worker.join();
  }
  std::lock_guard<std::mutex> lock(im.mutex);
  im.stopped = true;
}

void Executor::worker_main() {
  tl_pool_worker = true;
  Impl& im = *impl_;
  std::uint64_t finished_generation = 0;
  std::unique_lock<std::mutex> lock(im.mutex);
  for (;;) {
    if (!im.queue.empty()) {
      std::function<void()> work = std::move(im.queue.front());
      im.queue.pop_front();
      lock.unlock();
      try {
        work();
      } catch (const std::exception& e) {
        abort_on_foreign_exception("a service closure", e.what());
      } catch (...) {
        abort_on_foreign_exception("a service closure", nullptr);
      }
      lock.lock();
      continue;
    }
    if (im.run != nullptr && im.run->generation != finished_generation) {
      RunState* run = im.run;
      ++im.run_entrants;
      lock.unlock();
      participate(*run);
      lock.lock();
      finished_generation = run->generation;
      if (--im.run_entrants == 0) {
        im.run_exited.notify_all();
      }
      continue;
    }
    if (im.stopping && im.queue.empty()) {
      return;
    }
    im.wake.wait(lock);
  }
}

void Executor::participate(RunState& run) {
  // Stable worker slot: hash the thread onto a deque.  Which deque a
  // worker "owns" affects scheduling only — never output bytes — so a
  // collision merely loses a little locality.
  const std::size_t self =
      std::hash<std::thread::id>{}(std::this_thread::get_id()) %
      run.deques.size();
  std::unique_lock<std::mutex> lock(run.m);
  for (;;) {
    std::size_t index = 0;
    bool have = false;
    std::deque<std::size_t>& mine = run.deques[self];
    if (!mine.empty()) {
      index = mine.front();  // owner: oldest own work first
      mine.pop_front();
      have = true;
    } else {
      const std::size_t n = run.deques.size();
      for (std::size_t k = 1; k < n && !have; ++k) {
        std::deque<std::size_t>& victim = run.deques[(self + k) % n];
        if (!victim.empty()) {
          index = victim.back();  // thief: victim's newest work
          victim.pop_back();
          ++run.steals;
          have = true;
        }
      }
    }
    if (!have) {
      return;
    }
    lock.unlock();
    run_index(run, index);
    lock.lock();
  }
}

RunReport Executor::run_erased(std::size_t tasks, const RunOptions& options,
                               const detail::RunHooks& hooks) {
  RunReport report;
  if (tasks == 0) {
    return report;
  }
  Impl& im = *impl_;
  std::lock_guard<std::mutex> serial(im.run_serial);

  RunState run;
  run.tasks = tasks;
  run.base_seed = options.seed;
  run.stop = options.stop ? &options.stop : nullptr;
  run.hooks = &hooks;
  run.state.assign(tasks, static_cast<std::uint8_t>(detail::kPending));
  run.errors.resize(tasks);
  // One worker: the pool never sees the run.  The calling thread runs
  // each task itself, right before committing it, so task i is
  // committed before task i + 1 starts — the order of a plain loop.
  const bool on_caller = im.width == 1;
  if (!on_caller) {
    run.deques.resize(im.width);
    for (std::size_t index = 0; index < tasks; ++index) {
      run.deques[index % run.deques.size()].push_back(index);
    }
  }

  {
    std::lock_guard<std::mutex> lock(im.mutex);
    if (im.stopping || im.stopped) {
      throw Error("executor is shut down; run_ordered refused");
    }
    if (!on_caller) {
      run.generation = ++im.run_generation;
      im.run = &run;
    }
  }
  im.wake.notify_all();

  // The sequenced commit loop: this (the caller's) thread is the only
  // one that ever invokes commit_one, and it does so strictly in index
  // order — that single-writer property is what makes journals,
  // reports, and reply streams byte-identical at every worker count.
  // A commit that throws cancels the run; its exception waits in
  // run.commit_error until the drain below has finished.
  //
  // Planted bug 15 (executor-commit-reorder) deliberately breaks the
  // property by committing in completion-arrival order instead.  On
  // the caller, arrival order is index order: nothing to reorder.
  const bool reorder = plant::bug(15) && !on_caller;
  std::size_t next = 0;  // frontier: first index not committed
  {
    std::unique_lock<std::mutex> lock(run.m);
    const auto commit = [&](std::size_t index) {
      lock.unlock();
      bool keep = false;
      try {
        keep = hooks.commit_one(index);
      } catch (...) {
        run.commit_error = std::current_exception();
      }
      lock.lock();
      ++next;
      ++report.committed;
      if (!keep) {
        // The commit side cancelled (e.g. a failure budget filled);
        // completed results past the frontier are discarded.
        run.cancelled.store(true, std::memory_order_relaxed);
      }
      return keep;
    };
    if (reorder) {
      for (;;) {
        run.completion.wait(lock, [&] {
          return !run.arrivals.empty() ||
                 run.marked.load(std::memory_order_acquire) == run.tasks;
        });
        if (run.arrivals.empty()) {
          break;
        }
        const std::size_t index = run.arrivals.front();
        run.arrivals.pop_front();
        if (!commit(index)) {
          break;
        }
      }
    } else {
      while (next < tasks) {
        if (on_caller) {
          lock.unlock();
          run_index(run, next);
          lock.lock();
        }
        run.completion.wait(
            lock, [&] { return run.state[next] != detail::kPending; });
        if (run.state[next] != detail::kComplete || !commit(next)) {
          break;  // abandoned / skipped / error / cancelled: the frontier
        }
      }
    }
    // Drain: every index must carry a mark before the workers can stop
    // touching this stack frame's RunState.
    run.completion.wait(lock, [&] {
      return on_caller ||
             run.marked.load(std::memory_order_acquire) == run.tasks;
    });
    report.steals = run.steals;
  }

  // Deregister and wait for every participant to leave the run before
  // the RunState (a local) goes out of scope.
  {
    std::unique_lock<std::mutex> lock(im.mutex);
    im.run = nullptr;
    im.run_exited.wait(lock, [&] { return im.run_entrants == 0; });
  }

  if (run.commit_error) {
    std::rethrow_exception(run.commit_error);
  }
  if (run.any_error) {
    // The lowest-index parked error is the deterministic choice: it is
    // the first error an equivalent sequential run would have hit.
    for (const std::exception_ptr& error : run.errors) {
      if (error) {
        std::rethrow_exception(error);
      }
    }
  }

  if (next < tasks) {
    report.cancelled = true;
    report.frontier = next;
    hooks.frontier_one(next, run.state[next] == detail::kAbandonedMark
                                 ? FrontierKind::kAbandoned
                                 : FrontierKind::kSkipped);
  }
  return report;
}

}  // namespace qpf::exec
