// Microbenchmarks for the performance-critical primitives: tableau
// updates, state-vector gates, Pauli-frame stream processing, an ESM
// round through the frame unit and through a warm FrameCore, LUT
// decoding, noise rounds, full QEC windows and LER steps (a window plus
// the diagnostics).
//
// Two modes:
//  * default: the google-benchmark suite (BM_* below); extra arguments
//    are forwarded, so --benchmark_filter etc. work as usual.
//  * --json PATH: the tableau-kernel sweep — the Clifford kernels, a
//    random-outcome measurement, a reset after a readout, an ancilla
//    readout after CNOTs and the expectation read of a weight-4
//    observable, each timed at n = 17, 100, 500, 2000 and recorded in
//    ns/op in the machine-readable report.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cstdio>
#include <random>
#include <string>
#include <vector>

#include "arch/control_stack.h"
#include "arch/frame_core.h"
#include "bench_json.h"
#include "ler_common.h"
#include "circuit/random.h"
#include "core/pauli_frame.h"
#include "qec/depolarizing.h"
#include "qec/lut_decoder.h"
#include "qec/surface_code.h"
#include "stabilizer/tableau.h"
#include "statevector/simulator.h"

namespace {

using namespace qpf;

void BM_TableauH(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stab::Tableau tableau(n, 1);
  Qubit q = 0;
  for (auto _ : state) {
    tableau.apply_h(q);
    q = (q + 1) % static_cast<Qubit>(n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableauH)->Arg(17)->Arg(100)->Arg(500)->Arg(2000);

void BM_TableauCnot(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stab::Tableau tableau(n, 1);
  Qubit a = 0;
  for (auto _ : state) {
    tableau.apply_cnot(a, (a + 1) % static_cast<Qubit>(n));
    a = (a + 1) % static_cast<Qubit>(n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableauCnot)->Arg(17)->Arg(64)->Arg(256)->Arg(500)->Arg(2000);

void BM_TableauMeasure(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  stab::Tableau tableau(n, 1);
  for (Qubit q = 0; q < n; ++q) {
    tableau.apply_h(q);
  }
  Qubit q = 0;
  for (auto _ : state) {
    tableau.apply_h(q);  // keep outcomes random
    benchmark::DoNotOptimize(tableau.measure(q));
    q = (q + 1) % static_cast<Qubit>(n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TableauMeasure)->Arg(17)->Arg(64)->Arg(500);

void BM_StateVectorGate(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  sv::Simulator sim(n, 1);
  Qubit q = 0;
  for (auto _ : state) {
    sim.apply_unitary(Operation{GateType::kH, q});
    q = (q + 1) % static_cast<Qubit>(n);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_StateVectorGate)->Arg(10)->Arg(17)->Arg(20);

void BM_PauliFrameProcess(benchmark::State& state) {
  RandomCircuitGenerator gen(7);
  RandomCircuitOptions options;
  options.num_qubits = 17;
  options.num_gates = 1000;
  options.clifford_only = true;
  const Circuit circuit = gen.generate(options);
  pf::PauliFrame frame(17);
  for (auto _ : state) {
    benchmark::DoNotOptimize(frame.process(circuit));
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(circuit.num_operations()));
}
BENCHMARK(BM_PauliFrameProcess);

// One ESM round at distance d through the frame unit, the frame layer's
// whole work per round, from random records on every qubit.
void BM_FrameUnitRound(benchmark::State& state) {
  const qec::SurfaceCodeLayout layout(static_cast<int>(state.range(0)));
  const Circuit round = layout.esm_circuit(0);
  pf::PauliFrame frame(layout.num_qubits());
  std::mt19937_64 rng(1);
  for (Qubit q = 0; q < layout.num_qubits(); ++q) {
    frame.set_record(q, static_cast<pf::PauliRecord>(rng() & 3));
  }
  Circuit out;
  for (auto _ : state) {
    const Circuit& ran = frame.process(round, out);
    benchmark::DoNotOptimize(&ran);
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FrameUnitRound)->ArgName("d")->Arg(3)->Arg(5)->Arg(7);

// The same round on a warm FrameCore: the core's whole work per round
// once its memo holds the round, with an identity frame (records = 0)
// or with Paulis tracked on about a third of the qubits (records = 1).
void BM_FrameCoreRound(benchmark::State& state) {
  const qec::SurfaceCodeLayout layout(static_cast<int>(state.range(0)));
  const Circuit round = layout.esm_circuit(0);
  const std::size_t n = layout.num_qubits();
  arch::FrameCore core(1);
  core.create_qubits(n);
  if (state.range(1) != 0) {
    static constexpr GateType kPaulis[] = {GateType::kX, GateType::kY,
                                           GateType::kZ};
    Circuit paulis{"records"};
    std::mt19937_64 rng(1);
    for (Qubit q = 0; q < n; ++q) {
      if (rng() % 3 == 0) {
        paulis.append(kPaulis[rng() % 3], q);
      }
    }
    arch::run(core, paulis);
  }
  // The first round projects the checks; the next ones fill the memo.
  for (int i = 0; i < 4; ++i) {
    arch::run(core, round);
  }
  for (auto _ : state) {
    arch::run(core, round);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["miss"] = static_cast<double>(core.memo_stats().batches -
                                               core.memo_stats().hits);
}
BENCHMARK(BM_FrameCoreRound)
    ->ArgNames({"d", "records"})
    ->ArgsProduct({{3, 5, 7}, {0, 1}});

void BM_LutDecode(benchmark::State& state) {
  const qec::LutDecoder lut(
      {0b000001001, 0b000110110, 0b011011000, 0b100100000});
  unsigned s = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(lut.decode(s));
    s = (s + 1) & 15;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_LutDecode);

void BM_QecWindow(benchmark::State& state) {
  arch::LerStack::Config config;
  config.physical_error_rate = 1e-3;
  config.with_pauli_frame = state.range(0) != 0;
  arch::LerStack stack(config);
  stack.set_diagnostic_mode(true);
  stack.ninja().initialize(0, qec::CheckType::kZ);
  stack.set_diagnostic_mode(false);
  for (auto _ : state) {
    stack.ninja().run_window(0);
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(config.with_pauli_frame ? "with-pauli-frame"
                                         : "without-pauli-frame");
}
BENCHMARK(BM_QecWindow)->Arg(0)->Arg(1);

// What LerTrial::step() costs at distance d: BM_QecWindow plus the
// diagnostics, so at d = 3 the gap between the two is the diagnostics'
// share.
void BM_LerStep(benchmark::State& state) {
  bench::LerConfig config;
  config.physical_error_rate = 1e-3;
  config.ninja_options.distance = static_cast<int>(state.range(0));
  config.with_pauli_frame = state.range(1) != 0;
  config.target_logical_errors = ~std::size_t{0};
  config.max_windows = ~std::size_t{0};
  bench::LerTrial trial(config);
  for (auto _ : state) {
    trial.step();
  }
  state.SetItemsProcessed(state.iterations());
  state.SetLabel(config.with_pauli_frame ? "with-pauli-frame"
                                         : "without-pauli-frame");
}
BENCHMARK(BM_LerStep)->ArgNames({"d", "frame"})->ArgsProduct({{3, 5, 7}, {0, 1}});

// One ESM round through DepolarizingModel::inject, the noise layer's
// whole work per round, at d and PER = range(1) * 1e-4; clean_share is
// the share of rounds no draw touched, which come back unchanged.
void BM_NoiseRound(benchmark::State& state) {
  const qec::SurfaceCodeLayout layout(static_cast<int>(state.range(0)));
  const Circuit round = layout.esm_circuit(0);
  const std::size_t n = layout.num_qubits();
  qec::DepolarizingModel model(static_cast<double>(state.range(1)) * 1e-4, 1);
  Circuit out;
  std::int64_t clean = 0;
  for (auto _ : state) {
    const Circuit& ran = model.inject(round, n, out);
    clean += &ran == &round ? 1 : 0;
    benchmark::DoNotOptimize(&ran);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["clean_share"] =
      static_cast<double>(clean) / static_cast<double>(state.iterations());
}
BENCHMARK(BM_NoiseRound)
    ->ArgNames({"d", "per_e4"})
    ->ArgsProduct({{3, 5, 7}, {3, 10}});

// The bare draw-and-compare loop over the same round's locations (one
// per operation and idle qubit per slot): BM_NoiseRound's floor.
void BM_NoiseRoundDraws(benchmark::State& state) {
  const qec::SurfaceCodeLayout layout(static_cast<int>(state.range(0)));
  const Circuit round = layout.esm_circuit(0);
  std::size_t locations = round.num_slots() * layout.num_qubits();
  for (const Operation& op : round.operations()) {
    locations -= op.arity() == 2 ? 1 : 0;
  }
  const qec::FlipThreshold threshold(static_cast<double>(state.range(1)) *
                                     1e-4);
  std::mt19937_64 rng(1);
  for (auto _ : state) {
    std::size_t fired = 0;
    for (std::size_t i = 0; i < locations; ++i) {
      fired += threshold.flips(rng()) ? 1 : 0;
    }
    benchmark::DoNotOptimize(fired);
  }
  state.SetItemsProcessed(state.iterations());
  state.counters["locations"] = static_cast<double>(locations);
}
BENCHMARK(BM_NoiseRoundDraws)
    ->ArgNames({"d", "per_e4"})
    ->ArgsProduct({{3, 5, 7}, {3, 10}});

// --- --json kernel sweep ---------------------------------------------

constexpr std::size_t kSweepSizes[] = {17, 100, 500, 2000};

/// Gate operations per timing rep, scaled so every (kernel, n) point
/// runs in a few milliseconds.
[[nodiscard]] std::size_t sweep_ops(std::size_t n) {
  const std::size_t ops = 4'000'000 / n;
  return ops < 512 ? 512 : ops;
}

template <typename Kernel>
[[nodiscard]] double time_kernel_ns(stab::Tableau& tableau, std::size_t ops,
                                    Kernel&& kernel) {
  // One warm-up slice, then the best of three timed runs: on a shared
  // host the minimum drops time lost to other tenants.
  for (std::size_t i = 0; i < ops / 8 + 1; ++i) {
    kernel(tableau, i);
  }
  double best_ms = 0.0;
  for (int run = 0; run < 3; ++run) {
    const qpf::bench::WallTimer timer;
    for (std::size_t i = 0; i < ops; ++i) {
      kernel(tableau, i);
    }
    const double ms = timer.ms();
    best_ms = run == 0 ? ms : std::min(best_ms, ms);
  }
  return best_ms * 1e6 / static_cast<double>(ops);
}

struct SweepPoint {
  const char* kernel;
  std::size_t n;
  double ns_op = 0.0;
  std::size_t ops = 0;
};

/// Read out every qubit once, from superposition: each value is then
/// fixed by a readout.
void read_out_all(stab::Tableau& t) {
  for (Qubit q = 0; q < t.num_qubits(); ++q) {
    t.apply_h(q);
    (void)t.measure(q);
  }
}

/// Bell pairs on (0,1), (2,3), ... below the last qubit, the ancilla.
void entangle_pairs(stab::Tableau& t) {
  for (Qubit q = 0; q + 2 < t.num_qubits(); q += 2) {
    t.apply_h(q);
    t.apply_cnot(q, q + 1);
  }
}

[[nodiscard]] std::vector<SweepPoint> run_kernel_sweep() {
  std::vector<SweepPoint> points;
  for (const std::size_t n : kSweepSizes) {
    const std::size_t ops = sweep_ops(n);
    const std::size_t measure_ops = ops / 4 + 64;
    const auto q = [n](std::size_t i) { return static_cast<Qubit>(i % n); };

    const auto sweep = [&](const char* kernel, std::size_t count,
                           auto&& prepare, auto&& run) {
      stab::Tableau tableau(n, 1);
      prepare(tableau);
      points.push_back({kernel, n, time_kernel_ns(tableau, count, run),
                        count});
    };
    const auto fresh = [](stab::Tableau&) {};

    sweep("h", ops, fresh,
          [&](stab::Tableau& t, std::size_t i) { t.apply_h(q(i)); });
    sweep("s", ops, fresh,
          [&](stab::Tableau& t, std::size_t i) { t.apply_s(q(i)); });
    sweep("x", ops, fresh,
          [&](stab::Tableau& t, std::size_t i) { t.apply_x(q(i)); });
    sweep("cnot", ops, fresh, [&](stab::Tableau& t, std::size_t i) {
      t.apply_cnot(q(i), q(i + 1));
    });
    // Random outcomes: H before each measure keeps the measured qubit
    // in superposition.
    sweep("measure", measure_ops, fresh,
          [&](stab::Tableau& t, std::size_t i) {
            t.apply_h(q(i));
            (void)t.measure(q(i));
          });
    // The two deterministic shapes of a QEC round.  A reset of a qubit
    // whose value a readout fixed: the hint answers it.
    sweep("reset", measure_ops, read_out_all,
          [&](stab::Tableau& t, std::size_t i) { t.reset(q(i)); });
    // An ancilla readout after CNOTs from a Bell pair, then the CNOTs
    // undone: the readout takes the stabilizer product.
    const auto ancilla = static_cast<Qubit>(n - 1);
    const std::size_t pairs = (n - 1) / 2;
    // X X on one Bell pair times Z Z on the next: a weight-4 observable
    // the state fixes, read as the product of two stabilizer rows.
    std::vector<stab::SparsePauli> observables;
    for (std::size_t p = 0; p < pairs; ++p) {
      const auto a = static_cast<Qubit>(2 * p);
      const auto b = static_cast<Qubit>(2 * ((p + 1) % pairs));
      observables.push_back({{{a, stab::Pauli::kX},
                              {a + 1, stab::Pauli::kX},
                              {b, stab::Pauli::kZ},
                              {b + 1, stab::Pauli::kZ}},
                             false});
    }
    sweep("readout", measure_ops, entangle_pairs,
          [&](stab::Tableau& t, std::size_t i) {
            const auto a = static_cast<Qubit>(2 * (i % pairs));
            t.apply_cnot(a, ancilla);
            t.apply_cnot(a + 1, ancilla);
            (void)t.measure(ancilla);
            t.apply_cnot(a + 1, ancilla);
            t.apply_cnot(a, ancilla);
          });
    int value = 0;
    sweep("expectation", measure_ops, entangle_pairs,
          [&](stab::Tableau& t, std::size_t i) {
            t.expectations({&observables[i % pairs], 1}, {&value, 1});
          });
  }
  return points;
}

}  // namespace

int main(int argc, char** argv) {
  qpf::bench::BenchCli cli("bench_micro", argc, argv);
  if (cli.json_enabled()) {
    std::size_t total_ops = 0;
    double total_ns = 0.0;
    const qpf::bench::WallTimer timer;
    const std::vector<SweepPoint> points = run_kernel_sweep();
    cli.report.config.text("mode", "tableau-kernel-sweep")
        .text("sizes", "17,100,500,2000");
    for (const SweepPoint& point : points) {
      cli.report.stats.emplace_back();
      cli.report.stats.back()
          .text("kernel", point.kernel)
          .uinteger("n", point.n)
          .uinteger("ops", point.ops)
          .num("word_parallel_ns_op", point.ns_op);
      total_ops += point.ops;
      total_ns += point.ns_op * static_cast<double>(point.ops);
      std::printf("%-8s n=%-5zu %10.1f ns/op\n", point.kernel, point.n,
                  point.ns_op);
    }
    cli.report.wall_ms = timer.ms();
    if (total_ns > 0.0) {
      cli.report.gate_ops_per_sec =
          1e9 * static_cast<double>(total_ops) / total_ns;
    }
    return cli.finish();
  }

  // Forward everything the harness didn't consume to google-benchmark.
  std::vector<char*> forwarded;
  forwarded.push_back(argv[0]);
  for (std::string& argument : cli.extra_args()) {
    forwarded.push_back(argument.data());
  }
  int forwarded_argc = static_cast<int>(forwarded.size());
  benchmark::Initialize(&forwarded_argc, forwarded.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
