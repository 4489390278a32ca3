// Allocation budget of the QEC window: a warmed-up LerTrial::step() --
// one window plus the diagnostics on the Fig 5.8 stack -- may make only
// a few heap allocations.  The rewrite buffers, the FrameCore queue and
// memo and the cached ESM circuits and observables are reused; what is
// left is mostly the BinaryState that Core::get_state() returns by
// value, about 2 allocations a step (about 4 while the diagnostics ran
// circuits).  Tableau measurements and resets, random or not, the
// diagnostics' reads, and a warmed FrameCore's execute() and peek()
// allocate nothing.
//
// This file is its own executable (qpf_alloc_tests) because it replaces
// the global operator new with a counting one.
#include <atomic>
#include <cstdlib>
#include <limits>
#include <new>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "arch/control_stack.h"
#include "arch/error_layer.h"
#include "arch/frame_core.h"
#include "arch/ninja_star_layer.h"
#include "arch/pauli_frame_layer.h"
#include "ler_common.h"
#include "stabilizer/tableau.h"

namespace {

std::atomic<std::size_t> g_allocations{0};

}  // namespace

void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) {
    return p;
  }
  throw std::bad_alloc();
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }

namespace qpf::bench {
namespace {

constexpr int kWarmUpSteps = 2000;
constexpr int kMeasuredSteps = 10000;
constexpr double kBudgetPerStep = 24.0;

double allocations_per_step(const LerConfig& config) {
  LerTrial trial(config);
  for (int i = 0; i < kWarmUpSteps; ++i) {
    trial.step();
  }
  const std::size_t before = g_allocations.load();
  for (int i = 0; i < kMeasuredSteps; ++i) {
    trial.step();
  }
  EXPECT_FALSE(trial.done());
  return static_cast<double>(g_allocations.load() - before) / kMeasuredSteps;
}

LerConfig endless(double p, bool pauli_frame, qec::CheckType basis) {
  LerConfig config;
  config.physical_error_rate = p;
  config.with_pauli_frame = pauli_frame;
  config.basis = basis;
  config.target_logical_errors = std::numeric_limits<std::size_t>::max();
  config.seed = 1;
  return config;
}

TEST(AllocBudgetTest, CounterSeesAllocations) {
  const std::size_t before = g_allocations.load();
  std::vector<int> v(100, 7);
  EXPECT_EQ(g_allocations.load() - before, 1u);
  EXPECT_EQ(v[99], 7);
}

// The ler_pf benchmark shape: frame on, PER 1e-3, Z basis.
TEST(AllocBudgetTest, FrameWindowStaysWithinBudget) {
  const double per_step =
      allocations_per_step(endless(1e-3, true, qec::CheckType::kZ));
  RecordProperty("allocations_per_step", std::to_string(per_step));
  EXPECT_LE(per_step, kBudgetPerStep);
}

// The ler_nopf_lowp benchmark shape: frame off, PER 3e-4, X basis.
TEST(AllocBudgetTest, NoFrameWindowStaysWithinBudget) {
  const double per_step =
      allocations_per_step(endless(3e-4, false, qec::CheckType::kX));
  RecordProperty("allocations_per_step", std::to_string(per_step));
  EXPECT_LE(per_step, kBudgetPerStep);
}

// The biased channel (eta = 10) on the ler_pf shape.
TEST(AllocBudgetTest, BiasedWindowStaysWithinBudget) {
  LerConfig config = endless(1e-3, true, qec::CheckType::kZ);
  config.bias = 10.0;
  const double per_step = allocations_per_step(config);
  RecordProperty("allocations_per_step", std::to_string(per_step));
  EXPECT_LE(per_step, kBudgetPerStep);
}

// The diagnostics on a warmed LerStack (the ler_pf shape), read from
// the stack: no probe circuit reaches the frame, and nothing allocates.
TEST(AllocBudgetTest, DiagnosticReadsDoNotAllocate) {
  arch::LerStack::Config config;
  config.physical_error_rate = 1e-3;
  config.with_pauli_frame = true;
  config.seed = 7;
  arch::LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, qec::CheckType::kZ);
  stack.set_diagnostic_mode(false);
  const pf::FrameStats& frame = stack.pauli_frame_layer()->frame().stats();
  std::size_t allocations = 0;
  std::size_t read = 0;
  for (int step = 0; step < 3000; ++step) {
    stack.ninja().run_window(0);
    stack.set_diagnostic_mode(true);
    const std::size_t gates = frame.input_gates;
    const std::size_t before = g_allocations.load();
    (void)stack.ninja().has_observable_errors(0);
    (void)stack.ninja().measure_logical_stabilizer(0, qec::CheckType::kZ);
    const std::size_t after = g_allocations.load();
    stack.set_diagnostic_mode(false);
    if (step < 100 || frame.input_gates != gates) {
      continue;  // warming up, or a read declined and a circuit ran
    }
    allocations += after - before;
    ++read;
  }
  EXPECT_EQ(allocations, 0u);
  EXPECT_GT(read, 2500u);
}

/// Right above the core: counts the allocations made below its
/// execute() and peek().
class CoreAllocations final : public arch::Layer {
 public:
  using Layer::Layer;
  void execute() override {
    const std::size_t before = g_allocations.load();
    lower().execute();
    allocations += g_allocations.load() - before;
    ++executes;
  }
  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    const std::size_t before = g_allocations.load();
    lower().peek(observables, values);
    allocations += g_allocations.load() - before;
    ++peeks;
  }
  mutable std::size_t allocations = 0;
  std::size_t executes = 0;
  mutable std::size_t peeks = 0;
};

// FrameCore under QEC windows and their diagnostics (d = 3 and 5, frame
// off and on): once the memo is warm, the ESM rounds and corrections
// replay memoised skeletons and the reads come from the memo, with no
// allocation.
TEST(AllocBudgetTest, WarmedFrameCoreWindowDoesNotAllocate) {
  for (const int distance : {3, 5}) {
    for (const bool with_frame : {false, true}) {
      arch::FrameCore core(5);
      CoreAllocations probe(&core);
      arch::ErrorLayer noise(&probe, 1e-3, 6);
      arch::PauliFrameLayer frame(&noise);
      arch::NinjaStarLayer::Options options;
      options.distance = distance;
      arch::NinjaStarLayer ninja(
          with_frame ? static_cast<arch::Core*>(&frame) : &noise, options);
      ninja.create_qubits(1);
      noise.set_bypass(true);
      ninja.initialize(0, qec::CheckType::kZ);
      noise.set_bypass(false);
      const auto step = [&] {
        ninja.run_window(0);
        noise.set_bypass(true);
        if (!ninja.has_observable_errors(0)) {
          (void)ninja.measure_logical_stabilizer(0, qec::CheckType::kZ);
        }
        noise.set_bypass(false);
      };
      for (int i = 0; i < 500; ++i) {
        step();
      }
      probe.allocations = 0;
      probe.executes = 0;
      probe.peeks = 0;
      for (int i = 0; i < 3000; ++i) {
        step();
      }
      EXPECT_EQ(probe.allocations, 0u) << distance << " " << with_frame;
      EXPECT_GT(probe.executes, 3000u) << distance << " " << with_frame;
      EXPECT_GT(probe.peeks, 3000u) << distance << " " << with_frame;
    }
  }
}

// A warmed Tableau(17): 10k random measurements, 10k deterministic
// ancilla readouts after CNOTs from Bell pairs (the stabilizer-product
// path) and 10k resets right after them (the hint path).
TEST(AllocBudgetTest, TableauMeasurementsDoNotAllocate) {
  constexpr Qubit kAncilla = 16;
  constexpr Qubit kRandom = 15;
  stab::Tableau tableau(17, 3);
  for (Qubit q = 0; q + 1 < kRandom; q += 2) {
    tableau.apply_h(q);
    tableau.apply_cnot(q, q + 1);
  }
  int random = 0;
  int deterministic = 0;
  const auto run = [&](int rounds) {
    for (int i = 0; i < rounds; ++i) {
      tableau.apply_h(kRandom);
      random += tableau.measure(kRandom).deterministic ? 0 : 1;
      const auto pair = static_cast<Qubit>(2 * (i % 7));
      tableau.apply_cnot(pair, kAncilla);
      tableau.apply_cnot(pair + 1, kAncilla);
      deterministic += tableau.measure(kAncilla).deterministic ? 1 : 0;
      tableau.reset(kAncilla);
    }
  };
  run(100);
  random = 0;
  deterministic = 0;
  const std::size_t before = g_allocations.load();
  run(10000);
  EXPECT_EQ(g_allocations.load() - before, 0u);
  EXPECT_EQ(random, 10000);
  EXPECT_EQ(deterministic, 10000);
}

}  // namespace
}  // namespace qpf::bench
