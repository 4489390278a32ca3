// FrameCore, the LerStack's core, against ChpCore: the same binary
// states, peek values and checkpoint bytes from the same seed, on
// random batches (the frame-core oracle), on the pivot-absorbing random
// measurement, on gates that throw, across checkpoints written by
// either core, past a full memo and on ESM rounds answered from
// compiled maps; and QEC windows served from its memo.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <stdexcept>
#include <vector>

#include "arch/chp_core.h"
#include "arch/frame_core.h"
#include "fuzz/oracles.h"
#include "journal/snapshot.h"
#include "ler_common.h"
#include "qec/surface_code.h"
#include "seed_support.h"

namespace qpf {
namespace {

using arch::ChpCore;
using arch::FrameCore;

std::vector<std::uint8_t> bytes_of(const arch::Core& core) {
  journal::SnapshotWriter out;
  core.save_state(out);
  return out.bytes();
}

/// Run `ops` (one slot each) on both cores and require the same binary
/// state and checkpoint bytes.
void run_both(ChpCore& chp, FrameCore& frame,
              const std::vector<Operation>& ops) {
  Circuit circuit{"batch"};
  for (const Operation& op : ops) {
    circuit.append_in_new_slot(op);
  }
  arch::run(chp, circuit);
  arch::run(frame, circuit);
  ASSERT_EQ(frame.get_state(), chp.get_state());
  ASSERT_EQ(bytes_of(frame), bytes_of(chp));
}

TEST(FrameCoreTest, MatchesChpCoreOnRandomBatches) {
  // The fuzz smoke budget runs this oracle on 25 cases; here 500.
  const std::uint64_t seed = test::test_seed(17);
  QPF_ANNOUNCE_SEED(seed);
  for (std::uint64_t run = 0; run < 500; ++run) {
    const fuzz::OracleOutcome outcome =
        fuzz::check_frame_core(exec::task_seed(seed, run));
    ASSERT_TRUE(outcome.passed) << "run " << run << ": " << outcome.detail;
  }
}

TEST(FrameCoreTest, AbsorbedPivotKeepsTheScratchRowSign) {
  // The scratch row holds +Z0 after the first measurement and leaves the
  // stabilizer group at the second, random one (Z0 again after the H).
  // Each round's measurement is then random under an X record, so the
  // frame absorbs its pivot; in the first round that is +/-X0, which
  // anticommutes with the scratch row.  The bytes are compared before
  // a deterministic measurement could overwrite that row.
  ChpCore chp(9);
  FrameCore frame(9);
  chp.create_qubits(2);
  frame.create_qubits(2);
  using G = GateType;
  run_both(chp, frame, {Operation{G::kMeasureZ, 0}, Operation{G::kH, 0}});
  run_both(chp, frame, {Operation{G::kMeasureZ, 0}, Operation{G::kH, 0},
                        Operation{G::kCnot, 0, 1}});
  for (int round = 0; round < 8; ++round) {
    run_both(chp, frame, {Operation{G::kX, 0}, Operation{G::kCnot, 0, 1},
                          Operation{G::kMeasureZ, 0}});
    run_both(chp, frame, {Operation{G::kH, 0}, Operation{G::kY, 1}});
  }
}

TEST(FrameCoreTest, NonCliffordGateThrowsLikeChpCore) {
  ChpCore chp(4);
  FrameCore frame(4);
  chp.create_qubits(3);
  frame.create_qubits(3);
  Circuit circuit{"t"};
  circuit.append(GateType::kH, 0);
  circuit.append(GateType::kX, 1);
  circuit.append_in_new_slot(Operation{GateType::kT, 0});
  chp.add(circuit);
  frame.add(circuit);
  EXPECT_THROW(chp.execute(), std::invalid_argument);
  EXPECT_THROW(frame.execute(), std::invalid_argument);
  EXPECT_EQ(frame.get_state(), chp.get_state());
  EXPECT_EQ(bytes_of(frame), bytes_of(chp));
  // Both carry on from the gates before the T.
  run_both(chp, frame, {Operation{GateType::kMeasureZ, 0},
                        Operation{GateType::kMeasureZ, 1}});
}

TEST(FrameCoreTest, PeekIsZeroWhileCircuitsWait) {
  FrameCore frame(2);
  frame.create_qubits(1);
  const std::vector<stab::SparsePauli> z0 = {
      {{stab::PauliTerm{0, stab::Pauli::kZ}}, false}};
  std::vector<int> value(1);
  frame.peek(z0, value);
  EXPECT_EQ(value[0], 1);
  Circuit x{"x"};
  x.append(GateType::kX, 0);
  frame.add(x);
  frame.peek(z0, value);
  EXPECT_EQ(value[0], 0);
  frame.execute();
  frame.peek(z0, value);
  EXPECT_EQ(value[0], -1);
}

/// Twelve random H/S/X/Z/measure/reset/CNOT operations on `qubits`.
std::vector<Operation> random_batch(exec::SplitMix& rng, std::size_t qubits) {
  static constexpr GateType kOne[] = {GateType::kH,        GateType::kS,
                                      GateType::kX,        GateType::kZ,
                                      GateType::kMeasureZ, GateType::kPrepZ};
  std::vector<Operation> ops;
  for (int k = 0; k < 12; ++k) {
    const auto q = static_cast<Qubit>(rng.below(qubits));
    const auto r =
        static_cast<Qubit>((q + 1 + rng.below(qubits - 1)) % qubits);
    if (rng.chance(0.3)) {
      ops.emplace_back(GateType::kCnot, q, r);
    } else {
      ops.emplace_back(kOne[rng.below(6)], q);
    }
  }
  return ops;
}

TEST(FrameCoreTest, CheckpointsMoveBetweenTheCores) {
  // ChpCore's checkpoint becomes a FrameCore's reference, and a
  // FrameCore's checkpoint resumes in a ChpCore, with the same future.
  const std::uint64_t seed = test::test_seed(23);
  QPF_ANNOUNCE_SEED(seed);
  exec::SplitMix rng(seed);
  constexpr std::size_t kQubits = 5;
  ChpCore chp(seed);
  chp.create_qubits(kQubits);
  for (int i = 0; i < 5; ++i) {
    Circuit circuit;
    for (const Operation& op : random_batch(rng, kQubits)) {
      circuit.append_in_new_slot(op);
    }
    arch::run(chp, circuit);
  }
  FrameCore frame;
  journal::SnapshotReader from_chp{bytes_of(chp)};
  frame.load_state(from_chp);
  for (int i = 0; i < 20; ++i) {
    run_both(chp, frame, random_batch(rng, kQubits));
  }
  ChpCore resumed;
  journal::SnapshotReader from_frame{bytes_of(frame)};
  resumed.load_state(from_frame);
  for (int i = 0; i < 20; ++i) {
    run_both(resumed, frame, random_batch(rng, kQubits));
  }
}

TEST(FrameCoreTest, FullMemoIsDroppedAndRebuilt) {
  // Random batches keep reaching new reference states; past its cap
  // the memo starts over, and the results stay ChpCore's.
  const std::uint64_t seed = test::test_seed(29);
  QPF_ANNOUNCE_SEED(seed);
  exec::SplitMix rng(seed);
  constexpr std::size_t kQubits = 6;
  ChpCore chp(seed);
  FrameCore frame(seed);
  chp.create_qubits(kQubits);
  frame.create_qubits(kQubits);
  std::size_t most_nodes = 0;
  bool dropped = false;
  for (int i = 0; i < 400; ++i) {
    run_both(chp, frame, random_batch(rng, kQubits));
    const std::size_t nodes = frame.memo_stats().nodes;
    dropped = dropped || nodes < most_nodes;
    most_nodes = std::max(most_nodes, nodes);
  }
  EXPECT_TRUE(dropped);
  EXPECT_LE(most_nodes, 65u);
}

/// Run `circuit` on both cores and require the same binary state, the
/// same reads of `observables` and the same checkpoint bytes.
void run_both(ChpCore& chp, FrameCore& frame, const Circuit& circuit,
              const std::vector<stab::SparsePauli>& observables) {
  arch::run(chp, circuit);
  arch::run(frame, circuit);
  ASSERT_EQ(frame.get_state(), chp.get_state());
  std::vector<int> chp_values(observables.size());
  std::vector<int> frame_values(observables.size());
  chp.peek(observables, chp_values);
  frame.peek(observables, frame_values);
  ASSERT_EQ(frame_values, chp_values);
  ASSERT_EQ(bytes_of(frame), bytes_of(chp));
}

/// `round` with one operation replaced.
Circuit with_operation(const Circuit& round, std::size_t index,
                       const Operation& op) {
  Circuit out{round.name()};
  for (const SlotView slot : round) {
    for (const Operation& o : slot) {
      const auto k = static_cast<std::size_t>(&o - round.operations().begin());
      out.push_op(k == index ? op : o);
    }
    out.close_slot();
  }
  return out;
}

TEST(FrameCoreTest, CompiledHitsMatchChpCore) {
  // ESM rounds repeated from frames with X, Z and XZ records on every
  // qubit: after the first rounds each is a Pauli-free hit, answered
  // from the entry's compiled map.  A round one operand or one gate
  // away from the memoised one falls back and still matches.
  const std::uint64_t seed = test::test_seed(31);
  QPF_ANNOUNCE_SEED(seed);
  exec::SplitMix rng(seed);
  for (const int distance : {3, 5, 7}) {
    SCOPED_TRACE(distance);
    const qec::SurfaceCodeLayout layout(distance);
    const Circuit round = layout.esm_circuit(0);
    const std::size_t n = layout.num_qubits();
    std::vector<stab::SparsePauli> observables(4);
    for (stab::SparsePauli& observable : observables) {
      observable.negative = rng.chance(0.5);
      for (Qubit q = 0; q < n; ++q) {
        if (rng.chance(0.2)) {
          observable.terms.push_back(
              {q, static_cast<stab::Pauli>(1 + rng.below(3))});
        }
      }
    }
    ChpCore chp(seed);
    FrameCore frame(seed);
    chp.create_qubits(n);
    frame.create_qubits(n);
    for (const GateType pauli : {GateType::kX, GateType::kZ, GateType::kY}) {
      Circuit records{"records"};
      for (Qubit q = 0; q < n; ++q) {
        records.append(pauli, q);
      }
      run_both(chp, frame, records, observables);
      for (int r = 0; r < 4; ++r) {
        run_both(chp, frame, round, observables);
      }
    }
    const std::size_t mapped = frame.memo_stats().mapped;
    EXPECT_GE(mapped, 6u);
    // One operand away: the first CNOT's target moves to another
    // qubit; one gate away: that CNOT becomes a CZ.
    const SlotView ops = round.operations();
    const auto cnot = static_cast<std::size_t>(
        std::find_if(ops.begin(), ops.end(),
                     [](const Operation& op) {
                       return op.gate() == GateType::kCnot;
                     }) -
        ops.begin());
    const Operation& first = ops[cnot];
    Qubit other = 0;
    while (other == first.control() || other == first.target()) {
      ++other;
    }
    for (const Circuit& variant :
         {with_operation(round, cnot,
                         Operation{GateType::kCnot, first.control(), other}),
          with_operation(round, cnot,
                         Operation{GateType::kCz, first.control(),
                                   first.target()})}) {
      Circuit records{"records"};
      records.append(GateType::kY, first.control());
      records.append(GateType::kX, first.target());
      run_both(chp, frame, records, observables);
      const std::size_t before = frame.memo_stats().mapped;
      run_both(chp, frame, variant, observables);
      EXPECT_EQ(frame.memo_stats().mapped, before);
      // The next rounds re-project the checks, then hit again.
      for (int r = 0; r < 5; ++r) {
        run_both(chp, frame, round, observables);
      }
    }
    EXPECT_GE(frame.memo_stats().mapped, mapped + 4);
  }
}

TEST(FrameCoreTest, LoadRejectsARegisterWithoutATableau) {
  journal::SnapshotWriter out;
  out.tag("chp-core");
  out.write_u64(1);
  out.write_bool(false);
  out.write_size(2);
  out.write_u8(0);
  out.write_u8(0);
  out.write_size(0);
  for (const bool frame_core : {false, true}) {
    ChpCore chp;
    FrameCore frame;
    arch::Core& core = frame_core ? static_cast<arch::Core&>(frame) : chp;
    journal::SnapshotReader in{out.bytes()};
    EXPECT_THROW(core.load_state(in), CheckpointError) << frame_core;
  }
}

TEST(FrameCoreTest, QecWindowsRunFromTheMemo) {
  // After initialization the reference runs only for the first rounds;
  // every later batch replays a memoised skeleton or only moves
  // records.
  for (const int distance : {3, 5}) {
    for (const bool with_frame : {false, true}) {
      bench::LerConfig config;
      config.physical_error_rate = 3e-3;
      config.with_pauli_frame = with_frame;
      config.ninja_options.distance = distance;
      config.target_logical_errors = ~std::size_t{0};
      bench::LerTrial trial(config);
      for (int step = 0; step < 300; ++step) {
        trial.step();
      }
      const FrameCore::MemoStats stats = trial.stack().core().memo_stats();
      EXPECT_LE(stats.nodes, 8u) << distance << " " << with_frame;
      EXPECT_LE(stats.batches - stats.hits, 10u)
          << distance << " " << with_frame;
      EXPECT_GT(stats.batches, 300u * static_cast<unsigned>(distance - 1));
    }
  }
}

}  // namespace
}  // namespace qpf
