// The unified deterministic executor's property battery.
//
// The contract under test (src/exec/executor.h): run_ordered() commits
// results strictly in task-index order on the calling thread, seeds
// every task from the splitmix64 chain over (run seed, index), and so
// produces byte-identical output for every worker count and steal
// schedule.  A one-worker pool runs the tasks on the calling thread,
// committing each before the next starts.  Cancellation stops the
// commit sequence at a deterministic frontier; typed qpf::Errors
// propagate; untyped exceptions abort loudly (the death suite) instead
// of deadlocking the commit sequence.  These suites also run under TSan
// and ASan with --gtest_repeat (tools/check_sanitize.sh).
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <mutex>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "circuit/bug_plant.h"
#include "circuit/error.h"
#include "exec/executor.h"

namespace qpf::exec {
namespace {

using Transcript = std::vector<std::pair<std::size_t, std::uint64_t>>;

struct PlantGuard {
  explicit PlantGuard(int n) { plant::set_for_testing(n); }
  ~PlantGuard() { plant::set_for_testing(-1); }
};

/// The expected committed transcript of a value-producing run: every
/// index in order, each value the pure function of the seed chain.
Transcript expected_transcript(std::size_t tasks, std::uint64_t base) {
  Transcript out;
  out.reserve(tasks);
  for (std::size_t i = 0; i < tasks; ++i) {
    out.emplace_back(i, splitmix64(task_seed(base, i)));
  }
  return out;
}

/// Run `tasks` seed-hashing tasks at the given pool width and return
/// the committed transcript.  When `invert` is set, task 0 waits for
/// every other task to finish first — an adversarial arrival order with
/// no wall-clock dependence (requires at least two workers).
Transcript run_transcript(std::size_t jobs, std::size_t tasks,
                          std::uint64_t base, bool invert = false) {
  Executor pool(jobs);
  RunOptions options;
  options.seed = base;
  Transcript out;
  pool.run_ordered<std::uint64_t>(
      tasks, options,
      [tasks, invert](const TaskContext& ctx) {
        if (invert && ctx.index() == 0 && tasks > 1) {
          while (ctx.completed() < tasks - 1) {
            std::this_thread::yield();
          }
        }
        TaskResult<std::uint64_t> result;
        result.value = splitmix64(ctx.seed());
        return result;
      },
      [&out](std::size_t index, std::uint64_t&& value) {
        out.emplace_back(index, value);
        return true;
      });
  return out;
}

// --- seed chain -------------------------------------------------------

TEST(ExecutorTest, SplitMix64MatchesTheReferenceVectors) {
  // First outputs of the reference SplitMix64 stream (Steele, Lea &
  // Flood) for states 0 and 1 — the chain is portable, not an
  // implementation accident.
  EXPECT_EQ(splitmix64(0), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(splitmix64(1), 0x910a2dec89025cc1ULL);
}

TEST(ExecutorTest, SplitMixStreamMatchesTheReferenceSequence) {
  // The reference SplitMix64 generator seeded with 0: its first draws.
  SplitMix rng(0);
  EXPECT_EQ(rng.next(), 0xe220a8397b1dcdafULL);
  EXPECT_EQ(rng.next(), 0x6e789e6aa1b965f4ULL);
  EXPECT_EQ(rng.next(), 0x06c45d188009454fULL);
}

TEST(ExecutorTest, TaskSeedChainIsAPureFunctionOfBaseAndIndex) {
  EXPECT_EQ(task_seed(42, 0), 0x9a26cc119d63ec6fULL);
  EXPECT_EQ(task_seed(42, 1), 0x0072a7ebde1411e1ULL);
  EXPECT_EQ(task_seed(42, 7), 0x5505c6021a93aefeULL);
  // Distinct indices and distinct bases draw distinct seeds.
  EXPECT_NE(task_seed(42, 0), task_seed(42, 1));
  EXPECT_NE(task_seed(42, 0), task_seed(43, 0));
}

TEST(ExecutorTest, ResolveJobsAutoAndPassThrough) {
  EXPECT_GE(resolve_jobs(0), 1u);
  EXPECT_EQ(resolve_jobs(1), 1u);
  EXPECT_EQ(resolve_jobs(7), 7u);
}

// --- bit-identity across jobs / schedules -----------------------------

TEST(ExecutorTest, TranscriptIsBitIdenticalForJobsOneThroughSixteen) {
  const std::size_t tasks = 37;
  const std::uint64_t base = 0xabcdef01;
  const Transcript expected = expected_transcript(tasks, base);
  for (std::size_t jobs = 1; jobs <= 16; ++jobs) {
    EXPECT_EQ(run_transcript(jobs, tasks, base), expected)
        << "jobs=" << jobs;
  }
}

TEST(ExecutorTest, StealHeavySkewedWorkloadCommitsInOrder) {
  // Tasks 0 mod 5 burn far more cycles than the rest, so the light
  // workers drain their deques and steal from the loaded ones; the
  // committed transcript must not notice.
  const std::size_t tasks = 40;
  const std::uint64_t base = 7;
  Executor pool(8);
  RunOptions options;
  options.seed = base;
  Transcript out;
  pool.run_ordered<std::uint64_t>(
      tasks, options,
      [](const TaskContext& ctx) {
        std::uint64_t value = splitmix64(ctx.seed());
        if (ctx.index() % 5 == 0) {
          for (int spin = 0; spin < 20000; ++spin) {
            value = splitmix64(value);
          }
          // Undo the extra mixing so the expected value stays the pure
          // seed function: re-derive from the seed.
          value = splitmix64(ctx.seed());
        }
        TaskResult<std::uint64_t> result;
        result.value = value;
        return result;
      },
      [&out](std::size_t index, std::uint64_t&& value) {
        out.emplace_back(index, value);
        return true;
      });
  EXPECT_EQ(out, expected_transcript(tasks, base));
}

TEST(ExecutorTest, ForcedArrivalInversionStillCommitsInIndexOrder) {
  const std::size_t tasks = 9;
  const std::uint64_t base = 1234;
  EXPECT_EQ(run_transcript(4, tasks, base, /*invert=*/true),
            expected_transcript(tasks, base));
}

TEST(ExecutorTest, PlantedBug15CommitsInArrivalOrder) {
  // The planted scheduling bug commits completions as they arrive; the
  // forced inversion guarantees index 0 arrives last, so a reordered
  // commit sequence deterministically ends with index 0.
  PlantGuard guard(15);
  const std::size_t tasks = 9;
  const Transcript got = run_transcript(4, tasks, 1234, /*invert=*/true);
  ASSERT_EQ(got.size(), tasks);
  EXPECT_EQ(got.back().first, 0u);
  EXPECT_NE(got, expected_transcript(tasks, 1234));
}

// --- edge cases -------------------------------------------------------

TEST(ExecutorTest, ZeroTasksFinishTrivially) {
  Executor pool(4);
  RunOptions options;
  bool any_hook = false;
  const RunReport report = pool.run_ordered<int>(
      0, options,
      [&](const TaskContext&) {
        any_hook = true;
        return TaskResult<int>{};
      },
      [&](std::size_t, int&&) {
        any_hook = true;
        return true;
      },
      [&](std::size_t, FrontierKind, int*) { any_hook = true; });
  EXPECT_EQ(report.committed, 0u);
  EXPECT_FALSE(report.cancelled);
  EXPECT_FALSE(any_hook);
}

TEST(ExecutorTest, MoreJobsThanTasksIsHarmless) {
  EXPECT_EQ(run_transcript(16, 3, 5), expected_transcript(3, 5));
}

TEST(ExecutorTest, BackToBackRunsOnOnePoolStayIndependent) {
  Executor pool(4);
  for (const std::uint64_t base : {1ULL, 2ULL, 3ULL}) {
    RunOptions options;
    options.seed = base;
    Transcript out;
    const RunReport report = pool.run_ordered<std::uint64_t>(
        11, options,
        [](const TaskContext& ctx) {
          return TaskResult<std::uint64_t>{TaskStatus::kDone,
                                           splitmix64(ctx.seed())};
        },
        [&out](std::size_t index, std::uint64_t&& value) {
          out.emplace_back(index, value);
          return true;
        });
    EXPECT_EQ(report.committed, 11u);
    EXPECT_EQ(out, expected_transcript(11, base));
  }
}

// --- cancellation, frontier, checkpoint-resume ------------------------

TEST(ExecutorTest, CommitReturningFalseCancelsAtADeterministicFrontier) {
  Executor pool(4);
  RunOptions options;
  options.seed = 8;
  Transcript out;
  const RunReport report = pool.run_ordered<std::uint64_t>(
      12, options,
      [](const TaskContext& ctx) {
        return TaskResult<std::uint64_t>{TaskStatus::kDone,
                                         splitmix64(ctx.seed())};
      },
      [&out](std::size_t index, std::uint64_t&& value) {
        out.emplace_back(index, value);
        return index < 4;  // refuse after committing index 4
      });
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.committed, 5u);
  EXPECT_EQ(report.frontier, 5u);
  const Transcript expected = expected_transcript(5, 8);
  EXPECT_EQ(out, expected);
}

TEST(ExecutorTest, AbandonedTaskHandsItsPartialResultToTheFrontierHook) {
  // Abandonment cancels the whole run, so pending earlier tasks would
  // be skipped; task 2 waits for 0 and 1 to finish first to pin the
  // frontier deterministically (exactly how a real campaign behaves:
  // the cancel arrives while earlier trials are already done).
  Executor pool(4);
  RunOptions options;
  options.seed = 21;
  std::array<std::atomic<bool>, 2> done{};
  Transcript out;
  std::size_t frontier_index = 99;
  FrontierKind frontier_kind = FrontierKind::kSkipped;
  std::uint64_t frontier_partial = 0;
  bool partial_seen = false;
  const RunReport report = pool.run_ordered<std::uint64_t>(
      5, options,
      [&done](const TaskContext& ctx) {
        TaskResult<std::uint64_t> result;
        result.value = splitmix64(ctx.seed());
        if (ctx.index() < 2) {
          done[ctx.index()].store(true);
        }
        if (ctx.index() == 2) {
          while (!(done[0].load() && done[1].load())) {
            std::this_thread::yield();
          }
          result.status = TaskStatus::kAbandoned;
          result.value = 424242;  // the checkpointable partial
        }
        return result;
      },
      [&out](std::size_t index, std::uint64_t&& value) {
        out.emplace_back(index, value);
        return true;
      },
      [&](std::size_t index, FrontierKind kind, std::uint64_t* partial) {
        frontier_index = index;
        frontier_kind = kind;
        partial_seen = partial != nullptr;
        if (partial != nullptr) {
          frontier_partial = *partial;
        }
      });
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.frontier, 2u);
  EXPECT_EQ(out, expected_transcript(2, 21));
  EXPECT_EQ(frontier_index, 2u);
  EXPECT_EQ(frontier_kind, FrontierKind::kAbandoned);
  ASSERT_TRUE(partial_seen);
  EXPECT_EQ(frontier_partial, 424242u);
}

TEST(ExecutorTest, SingleTaskRunCanAbandonAtTheFrontier) {
  Executor pool(2);
  RunOptions options;
  options.seed = 3;
  std::size_t frontier_index = 99;
  bool partial_seen = false;
  const RunReport report = pool.run_ordered<std::uint64_t>(
      1, options,
      [](const TaskContext&) {
        return TaskResult<std::uint64_t>{TaskStatus::kAbandoned, 7};
      },
      [](std::size_t, std::uint64_t&&) { return true; },
      [&](std::size_t index, FrontierKind kind, std::uint64_t* partial) {
        frontier_index = index;
        partial_seen = kind == FrontierKind::kAbandoned && partial != nullptr &&
                       *partial == 7;
      });
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.committed, 0u);
  EXPECT_EQ(frontier_index, 0u);
  EXPECT_TRUE(partial_seen);
}

TEST(ExecutorTest, ExternalStopSkipsTheWholeRun) {
  Executor pool(4);
  RunOptions options;
  options.seed = 17;
  options.stop = [] { return true; };
  std::size_t frontier_index = 99;
  FrontierKind frontier_kind = FrontierKind::kAbandoned;
  const RunReport report = pool.run_ordered<std::uint64_t>(
      6, options,
      [](const TaskContext& ctx) {
        return TaskResult<std::uint64_t>{TaskStatus::kDone,
                                         splitmix64(ctx.seed())};
      },
      [](std::size_t, std::uint64_t&&) { return true; },
      [&](std::size_t index, FrontierKind kind, std::uint64_t*) {
        frontier_index = index;
        frontier_kind = kind;
      });
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.committed, 0u);
  EXPECT_EQ(frontier_index, 0u);
  EXPECT_EQ(frontier_kind, FrontierKind::kSkipped);
}

TEST(ExecutorTest, CancelledRunResumesFromTheFrontierBitIdentically) {
  // The campaign checkpoint-resume pattern: cancel a run mid-frontier,
  // then run the remaining indices as a fresh batch whose tasks map
  // global index = frontier + local index into the same seed chain.
  // The concatenated transcripts must equal one uninterrupted run.
  const std::size_t tasks = 14;
  const std::uint64_t base = 31;
  const Transcript reference = expected_transcript(tasks, base);

  Executor pool(4);
  RunOptions options;
  options.seed = base;
  Transcript combined;
  const RunReport first = pool.run_ordered<std::uint64_t>(
      tasks, options,
      [](const TaskContext& ctx) {
        return TaskResult<std::uint64_t>{TaskStatus::kDone,
                                         splitmix64(ctx.seed())};
      },
      [&combined](std::size_t index, std::uint64_t&& value) {
        combined.emplace_back(index, value);
        return index < 5;  // interrupt after committing index 5
      });
  ASSERT_TRUE(first.cancelled);
  const std::size_t frontier = first.frontier;
  ASSERT_EQ(frontier, 6u);

  const RunReport second = pool.run_ordered<std::uint64_t>(
      tasks - frontier, options,
      [base, frontier](const TaskContext& ctx) {
        const std::size_t global = frontier + ctx.index();
        return TaskResult<std::uint64_t>{
            TaskStatus::kDone, splitmix64(task_seed(base, global))};
      },
      [&combined, frontier](std::size_t index, std::uint64_t&& value) {
        combined.emplace_back(frontier + index, value);
        return true;
      });
  EXPECT_FALSE(second.cancelled);
  EXPECT_EQ(combined, reference);
}

// --- one worker: the calling thread runs the loop ---------------------

TEST(ExecutorTest, OneWorkerStartsEachTaskAfterThePreviousCommitReturned) {
  // A one-worker pool is a plain loop on the calling thread: task i + 1
  // starts only once commit(i) has returned, so a caller's own I/O in
  // commit and in its tasks happens in one fixed order.
  Executor pool(1);
  RunOptions options;
  options.seed = 9;
  const std::thread::id caller = std::this_thread::get_id();
  std::mutex m;
  std::vector<std::string> events;
  bool tasks_on_caller = true;
  const RunReport report = pool.run_ordered<std::uint64_t>(
      5, options,
      [&](const TaskContext& ctx) {
        std::lock_guard<std::mutex> lock(m);
        events.push_back("task " + std::to_string(ctx.index()));
        tasks_on_caller =
            tasks_on_caller && std::this_thread::get_id() == caller;
        return TaskResult<std::uint64_t>{TaskStatus::kDone,
                                         splitmix64(ctx.seed())};
      },
      [&](std::size_t index, std::uint64_t&&) {
        std::lock_guard<std::mutex> lock(m);
        events.push_back("commit " + std::to_string(index) + " returns");
        return true;
      });
  EXPECT_EQ(report.committed, 5u);
  EXPECT_FALSE(report.cancelled);
  std::vector<std::string> expected;
  for (std::size_t i = 0; i < 5; ++i) {
    expected.push_back("task " + std::to_string(i));
    expected.push_back("commit " + std::to_string(i) + " returns");
  }
  EXPECT_EQ(events, expected);
  EXPECT_TRUE(tasks_on_caller);
}

TEST(ExecutorTest, OneWorkerStopsAtTheFrontierWithoutStartingLaterTasks) {
  Executor pool(1);
  RunOptions options;
  options.seed = 21;
  std::vector<std::size_t> started;
  Transcript out;
  const auto commit = [&out](std::size_t index, std::uint64_t&& value) {
    out.emplace_back(index, value);
    return true;
  };

  // Task 2 abandons: 0 and 1 stay committed, the frontier hook gets the
  // partial result, and tasks 3 and 4 never start.
  std::size_t frontier_index = 99;
  std::uint64_t frontier_partial = 0;
  const RunReport report = pool.run_ordered<std::uint64_t>(
      5, options,
      [&started](const TaskContext& ctx) {
        started.push_back(ctx.index());
        if (ctx.index() == 2) {
          return TaskResult<std::uint64_t>{TaskStatus::kAbandoned, 424242};
        }
        return TaskResult<std::uint64_t>{TaskStatus::kDone,
                                         splitmix64(ctx.seed())};
      },
      commit,
      [&](std::size_t index, FrontierKind kind, std::uint64_t* partial) {
        frontier_index = index;
        if (kind == FrontierKind::kAbandoned && partial != nullptr) {
          frontier_partial = *partial;
        }
      });
  EXPECT_TRUE(report.cancelled);
  EXPECT_EQ(report.frontier, 2u);
  EXPECT_EQ(frontier_index, 2u);
  EXPECT_EQ(frontier_partial, 424242u);
  EXPECT_EQ(out, expected_transcript(2, 21));
  EXPECT_EQ(started, (std::vector<std::size_t>{0, 1, 2}));

  // Task 3 throws a typed error: 0..2 stay committed, the error
  // rethrows on the caller, and task 4 never starts.
  started.clear();
  out.clear();
  EXPECT_THROW(pool.run_ordered<std::uint64_t>(
                   5, options,
                   [&started](const TaskContext& ctx) {
                     started.push_back(ctx.index());
                     if (ctx.index() == 3) {
                       throw Error("boom-3");
                     }
                     return TaskResult<std::uint64_t>{TaskStatus::kDone,
                                                      splitmix64(ctx.seed())};
                   },
                   commit),
               Error);
  EXPECT_EQ(out, expected_transcript(3, 21));
  EXPECT_EQ(started, (std::vector<std::size_t>{0, 1, 2, 3}));
}

TEST(ExecutorTest, ThrowingCommitRethrowsOnTheCallerAtEveryWidth) {
  // A commit that throws (a journal append on a full disk) cancels the
  // run; the pool drains before the exception leaves run_ordered, and
  // then runs again.  On the pool, task 5 is still running when
  // commit(3) throws, so leaving without the drain would free the run
  // under it.
  for (const std::size_t jobs : {1u, 4u}) {
    Executor pool(jobs);
    RunOptions options;
    options.seed = 12;
    std::atomic<bool> commit_threw{false};
    std::atomic<int> running{0};
    const auto task = [&commit_threw, &running](const TaskContext& ctx) {
      ++running;
      if (ctx.index() == 5) {
        while (!commit_threw.load()) {
          std::this_thread::yield();
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
      --running;
      return TaskResult<std::uint64_t>{TaskStatus::kDone,
                                       splitmix64(ctx.seed())};
    };
    Transcript out;
    try {
      pool.run_ordered<std::uint64_t>(
          8, options, task,
          [&out, &commit_threw](std::size_t index, std::uint64_t&& value) {
            if (index == 3) {
              commit_threw.store(true);
              throw Error("journal full");
            }
            out.emplace_back(index, value);
            return true;
          });
      ADD_FAILURE() << "the commit's error never rethrew, jobs=" << jobs;
    } catch (const Error& error) {
      EXPECT_EQ(error.message(), "journal full");
      EXPECT_EQ(running.load(), 0) << "a task outlived its run, jobs=" << jobs;
    }
    EXPECT_EQ(out, expected_transcript(3, 12)) << "jobs=" << jobs;

    out.clear();
    const RunReport again = pool.run_ordered<std::uint64_t>(
        8, options, task, [&out](std::size_t index, std::uint64_t&& value) {
          out.emplace_back(index, value);
          return true;
        });
    EXPECT_EQ(again.committed, 8u);
    EXPECT_EQ(out, expected_transcript(8, 12)) << "jobs=" << jobs;
  }
}

// --- error propagation ------------------------------------------------

TEST(ExecutorTest, TypedErrorRethrowsOnTheCallerAfterTheDrain) {
  // Task 3 waits until 0, 1, 2 have completed before throwing, so the
  // committed prefix is deterministic.
  Executor pool(4);
  RunOptions options;
  options.seed = 5;
  std::array<std::atomic<bool>, 3> done{};
  Transcript out;
  try {
    pool.run_ordered<std::uint64_t>(
        8, options,
        [&done](const TaskContext& ctx) {
          if (ctx.index() == 3) {
            while (!(done[0].load() && done[1].load() && done[2].load())) {
              std::this_thread::yield();
            }
            throw Error("boom-3");
          }
          if (ctx.index() < 3) {
            done[ctx.index()].store(true);
          }
          return TaskResult<std::uint64_t>{TaskStatus::kDone,
                                           splitmix64(ctx.seed())};
        },
        [&out](std::size_t index, std::uint64_t&& value) {
          out.emplace_back(index, value);
          return true;
        });
    FAIL() << "the parked qpf::Error never rethrew";
  } catch (const Error& error) {
    EXPECT_EQ(error.message(), "boom-3");
  }
  // Results below the error index stayed committed, in order.
  EXPECT_EQ(out, expected_transcript(3, 5));
}

TEST(ExecutorTest, PoolSurvivesAThrowingRunAndRunsAgain) {
  Executor pool(4);
  RunOptions options;
  options.seed = 1;
  EXPECT_THROW(pool.run_ordered<int>(
                   4, options,
                   [](const TaskContext&) -> TaskResult<int> {
                     throw Error("transient");
                   },
                   [](std::size_t, int&&) { return true; }),
               Error);
  EXPECT_EQ(run_transcript(1, 5, 77), expected_transcript(5, 77));
  Transcript out;
  RunOptions again;
  again.seed = 77;
  pool.run_ordered<std::uint64_t>(
      5, again,
      [](const TaskContext& ctx) {
        return TaskResult<std::uint64_t>{TaskStatus::kDone,
                                         splitmix64(ctx.seed())};
      },
      [&out](std::size_t index, std::uint64_t&& value) {
        out.emplace_back(index, value);
        return true;
      });
  EXPECT_EQ(out, expected_transcript(5, 77));
}

// --- service mode -----------------------------------------------------

TEST(ExecutorTest, ServiceModeRunsClosuresInFifoOrderOnOneWorker) {
  Executor pool(1);
  std::vector<int> seen;
  std::mutex m;
  for (int i = 0; i < 16; ++i) {
    pool.submit([&seen, &m, i] {
      std::lock_guard<std::mutex> lock(m);
      seen.push_back(i);
    });
  }
  pool.shutdown();
  std::vector<int> expected(16);
  for (int i = 0; i < 16; ++i) {
    expected[static_cast<std::size_t>(i)] = i;
  }
  EXPECT_EQ(seen, expected);
}

TEST(ExecutorTest, ShutdownDrainsClosuresSubmittedDuringTheDrain) {
  // The qpf_serve re-arm pattern: a running closure queues a follow-up;
  // shutdown() must run both before joining.
  Executor pool(2);
  std::atomic<int> ran{0};
  pool.submit([&pool, &ran] {
    ++ran;
    pool.submit([&ran] { ++ran; });
  });
  pool.shutdown();
  EXPECT_EQ(ran.load(), 2);
}

TEST(ExecutorTest, SubmitAfterShutdownThrowsTyped) {
  Executor pool(2);
  pool.shutdown();
  EXPECT_THROW(pool.submit([] {}), Error);
  pool.shutdown();  // idempotent
}

TEST(ExecutorTest, ThreadsReportsThePoolWidth) {
  Executor pool(3);
  EXPECT_EQ(pool.threads(), 3u);
}

// --- death: untyped exceptions must abort, not deadlock ---------------

TEST(ExecutorDeathTest, NonQpfErrorExceptionAbortsWithADiagnostic) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Executor pool(2);
        RunOptions options;
        pool.run_ordered<int>(
            4, options,
            [](const TaskContext&) -> TaskResult<int> {
              throw std::runtime_error("untyped-kaboom");
            },
            [](std::size_t, int&&) { return true; });
      },
      "non-qpf::Error exception");
}

TEST(ExecutorDeathTest, ThrowingServiceClosureAbortsWithADiagnostic) {
  ::testing::GTEST_FLAG(death_test_style) = "threadsafe";
  EXPECT_DEATH(
      {
        Executor pool(1);
        pool.submit([] { throw std::runtime_error("service-kaboom"); });
        pool.shutdown();
      },
      "non-qpf::Error exception");
}

}  // namespace
}  // namespace qpf::exec
