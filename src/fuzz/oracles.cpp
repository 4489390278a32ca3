#include "fuzz/oracles.h"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <map>
#include <memory>
#include <optional>
#include <random>
#include <sstream>
#include <thread>
#include <utility>

#include "arch/chp_core.h"
#include "arch/classical_fault_layer.h"
#include "arch/error_layer.h"
#include "arch/frame_core.h"
#include "arch/ninja_star_layer.h"
#include "arch/pauli_frame_layer.h"
#include "arch/qx_core.h"
#include "arch/supervisor_layer.h"
#include "circuit/error.h"
#include "core/arbiter.h"
#include "exec/executor.h"
#include "core/pauli_frame.h"
#include "fuzz/generator.h"
#include "fuzz/seeds.h"
#include "circuit/qasm.h"
#include "io/fault_fs.h"
#include "io/fault_net.h"
#include "journal/snapshot.h"
#include "qec/depolarizing.h"
#include "qec/ninja_star.h"
#include "qec/surface_code.h"
#include "serve/protocol.h"
#include "serve/retry_client.h"
#include "serve/server.h"
#include "stabilizer/tableau.h"
#include "statevector/simulator.h"

namespace qpf::fuzz {

namespace {

using arch::BinaryState;
using arch::BinaryValue;
using pf::PauliRecord;

/// The dense simulator's register ceiling: larger cases skip the
/// state-vector oracles.
constexpr std::size_t kMaxSvQubits = 8;

std::string render(const BinaryState& state) {
  std::string out;
  out.reserve(state.size());
  for (const BinaryValue v : state) {
    out.push_back(arch::to_char(v));
  }
  return out;
}

/// Slots [lo, hi) of a circuit, preserving slot structure.
Circuit slice(const Circuit& circuit, std::size_t lo, std::size_t hi) {
  Circuit out;
  for (std::size_t s = lo; s < hi && s < circuit.num_slots(); ++s) {
    out.append_slot(circuit.slot(s));
  }
  return out;
}

/// Record applied as explicit gates (X before Z, ascending qubits).
void apply_records(sv::Simulator& sim, const std::vector<PauliRecord>& recs) {
  for (std::size_t q = 0; q < recs.size(); ++q) {
    if (pf::has_x(recs[q])) {
      sim.execute(Operation{GateType::kX, static_cast<Qubit>(q)});
    }
    if (pf::has_z(recs[q])) {
      sim.execute(Operation{GateType::kZ, static_cast<Qubit>(q)});
    }
  }
}

/// Small seed-derived Clifford scrambler so semantic checks run on a
/// generic stabilizer state instead of |0...0>.
Circuit scramble_circuit(std::size_t n, std::uint64_t seed) {
  exec::SplitMix rng(seed);
  Circuit out;
  for (std::size_t q = 0; q < n; ++q) {
    switch (rng.below(3)) {
      case 0:
        out.append(GateType::kH, static_cast<Qubit>(q));
        break;
      case 1:
        out.append(GateType::kS, static_cast<Qubit>(q));
        out.append(GateType::kH, static_cast<Qubit>(q));
        break;
      default:
        break;
    }
  }
  for (std::size_t q = 0; q + 1 < n; ++q) {
    if (rng.chance(0.5)) {
      out.append(GateType::kCnot, static_cast<Qubit>(q),
                 static_cast<Qubit>(q + 1));
    }
  }
  return out;
}

/// Conjugated image of a record through a gate, read off a tableau: the
/// destabilizer rows carry U X_i U† and the stabilizer rows U Z_i U†
/// (signs dropped — records are phase-free by construction).
template <std::size_t N>
std::array<PauliRecord, N> conjugate_via_tableau(
    const stab::Tableau& after, const std::array<PauliRecord, N>& records) {
  std::array<bool, N> x_acc{};
  std::array<bool, N> z_acc{};
  for (std::size_t q = 0; q < N; ++q) {
    if (pf::has_x(records[q])) {
      const stab::PauliString image = after.destabilizer(q);
      for (std::size_t t = 0; t < N; ++t) {
        x_acc[t] = x_acc[t] != image.x_bit(t);
        z_acc[t] = z_acc[t] != image.z_bit(t);
      }
    }
    if (pf::has_z(records[q])) {
      const stab::PauliString image = after.stabilizer(q);
      for (std::size_t t = 0; t < N; ++t) {
        x_acc[t] = x_acc[t] != image.x_bit(t);
        z_acc[t] = z_acc[t] != image.z_bit(t);
      }
    }
  }
  std::array<PauliRecord, N> out{};
  for (std::size_t t = 0; t < N; ++t) {
    out[t] = pf::make_record(x_acc[t], z_acc[t]);
  }
  return out;
}

}  // namespace

// --- conjugation ------------------------------------------------------

OracleOutcome check_conjugation_tables() {
  // Table 3.3: Pauli tracking is componentwise XOR.
  for (const GateType p :
       {GateType::kI, GateType::kX, GateType::kY, GateType::kZ}) {
    for (const PauliRecord r : pf::kAllRecords) {
      pf::PauliFrame frame(1);
      frame.set_record(0, r);
      frame.track(p, 0);
      const bool px = p == GateType::kX || p == GateType::kY;
      const bool pz = p == GateType::kZ || p == GateType::kY;
      const PauliRecord expected =
          pf::make_record(pf::has_x(r) != px, pf::has_z(r) != pz);
      if (frame.record(0) != expected) {
        std::ostringstream why;
        why << "track(" << name(p) << ") on " << pf::name(r) << ": got "
            << pf::name(frame.record(0)) << ", table says "
            << pf::name(expected);
        return OracleOutcome::fail(why.str());
      }
    }
  }
  // Table 3.2: the X component flips a Z-basis result.
  for (const PauliRecord r : pf::kAllRecords) {
    pf::PauliFrame frame(1);
    frame.set_record(0, r);
    for (const bool raw : {false, true}) {
      if (frame.correct_measurement(0, raw) != (raw != pf::has_x(r))) {
        std::ostringstream why;
        why << "measurement map on " << pf::name(r) << " raw=" << raw
            << " disagrees with Table 3.2";
        return OracleOutcome::fail(why.str());
      }
    }
  }
  // Table 3.4: single-qubit Clifford conjugation vs the tableau rows.
  for (const GateType g : {GateType::kH, GateType::kS, GateType::kSdag}) {
    stab::Tableau tab(1);
    tab.apply_unitary(Operation{g, 0});
    for (const PauliRecord r : pf::kAllRecords) {
      pf::PauliFrame frame(1);
      frame.set_record(0, r);
      frame.apply_clifford(Operation{g, 0});
      const auto expected = conjugate_via_tableau<1>(tab, {r});
      if (frame.record(0) != expected[0]) {
        std::ostringstream why;
        why << name(g) << " conjugation of " << pf::name(r) << ": frame says "
            << pf::name(frame.record(0)) << ", tableau says "
            << pf::name(expected[0]);
        return OracleOutcome::fail(why.str());
      }
    }
  }
  // Table 3.5 (+ CZ / SWAP analogues), both operand orders.
  for (const GateType g : {GateType::kCnot, GateType::kCz, GateType::kSwap}) {
    for (const bool reversed : {false, true}) {
      const Qubit a = reversed ? 1 : 0;
      const Qubit b = reversed ? 0 : 1;
      stab::Tableau tab(2);
      tab.apply_unitary(Operation{g, a, b});
      for (const PauliRecord r0 : pf::kAllRecords) {
        for (const PauliRecord r1 : pf::kAllRecords) {
          pf::PauliFrame frame(2);
          frame.set_record(0, r0);
          frame.set_record(1, r1);
          frame.apply_clifford(Operation{g, a, b});
          const auto expected = conjugate_via_tableau<2>(tab, {r0, r1});
          for (Qubit q = 0; q < 2; ++q) {
            if (frame.record(q) != expected[q]) {
              std::ostringstream why;
              why << name(g) << " q" << a << ",q" << b << " on ("
                  << pf::name(r0) << "," << pf::name(r1) << "): record q" << q
                  << " is " << pf::name(frame.record(q)) << ", tableau says "
                  << pf::name(expected[q]);
              return OracleOutcome::fail(why.str());
            }
          }
        }
      }
    }
  }
  return OracleOutcome::pass();
}

// --- arbiter ----------------------------------------------------------

OracleOutcome check_arbiter_stream(const Circuit& stream, std::uint64_t seed) {
  (void)seed;
  const std::size_t n = register_size(stream, 2);
  pf::PauliFrameUnit pfu(n);
  std::size_t sunk = 0;
  pf::PauliArbiter arbiter(pfu, [&sunk](const Operation&) { ++sunk; }, true);

  std::size_t index = 0;
  for (const SlotView slot : stream) {
    for (const Operation& op : slot) {
      std::vector<PauliRecord> pre;
      for (int i = 0; i < op.arity(); ++i) {
        pre.push_back(pfu.frame().record(op.qubit(i)));
      }
      const pf::Route route = arbiter.submit(op);
      const pf::TraceEntry& entry = arbiter.trace().back();
      std::ostringstream why;
      why << "op #" << index << " (" << op.str() << "): ";
      switch (category(op.gate())) {
        case GateCategory::kPauli:
          if (route != pf::Route::kPauliToPfu || !entry.forwarded.empty()) {
            why << "Pauli must be absorbed by the PFU, but "
                << entry.forwarded.size() << " op(s) reached the PEL via route "
                << name(route);
            return OracleOutcome::fail(why.str());
          }
          break;
        case GateCategory::kClifford:
          if (route != pf::Route::kCliffordBoth ||
              entry.forwarded != std::vector<Operation>{op}) {
            why << "Clifford must forward verbatim (route " << name(route)
                << ", " << entry.forwarded.size() << " forwarded)";
            return OracleOutcome::fail(why.str());
          }
          break;
        case GateCategory::kInitialization:
          if (route != pf::Route::kResetBoth ||
              entry.forwarded != std::vector<Operation>{op} ||
              pfu.frame().record(op.qubit(0)) != PauliRecord::kI) {
            why << "reset must forward and clear the record (record now "
                << pf::name(pfu.frame().record(op.qubit(0))) << ")";
            return OracleOutcome::fail(why.str());
          }
          break;
        case GateCategory::kMeasurement:
          if (route != pf::Route::kMeasureToPel ||
              entry.forwarded != std::vector<Operation>{op}) {
            why << "measurement must forward unmodified";
            return OracleOutcome::fail(why.str());
          }
          break;
        case GateCategory::kNonClifford: {
          // Expected PEL stream: per operand, the pending record's flush
          // (X before Z), then the gate itself; records left clean.
          std::vector<Operation> expected;
          for (int i = 0; i < op.arity(); ++i) {
            if (pf::has_x(pre[i])) {
              expected.emplace_back(GateType::kX, op.qubit(i));
            }
            if (pf::has_z(pre[i])) {
              expected.emplace_back(GateType::kZ, op.qubit(i));
            }
          }
          expected.push_back(op);
          bool clean = true;
          for (int i = 0; i < op.arity(); ++i) {
            clean = clean && pfu.frame().record(op.qubit(i)) == PauliRecord::kI;
          }
          if (route != pf::Route::kFlushThenPel || entry.forwarded != expected ||
              !clean) {
            why << "non-Clifford flush ordering broken: expected "
                << expected.size() << " forwarded op(s), saw "
                << entry.forwarded.size() << " via route " << name(route)
                << (clean ? "" : ", record not cleared");
            return OracleOutcome::fail(why.str());
          }
          break;
        }
      }
      ++index;
    }
  }
  // PEL sink integrity: the sink saw exactly what the trace recorded.
  std::size_t traced = 0;
  for (const pf::TraceEntry& entry : arbiter.trace()) {
    traced += entry.forwarded.size();
  }
  if (traced != sunk) {
    std::ostringstream why;
    why << "PEL sink saw " << sunk << " op(s) but the trace recorded "
        << traced;
    return OracleOutcome::fail(why.str());
  }
  return OracleOutcome::pass();
}

// --- semantics --------------------------------------------------------

OracleOutcome check_frame_semantics(const Circuit& unitary,
                                    std::uint64_t seed) {
  const std::size_t n = register_size(unitary, 2);
  if (n > kMaxSvQubits) {
    return OracleOutcome::skip("register too large for the dense simulator");
  }
  exec::SplitMix rng(exec::task_seed(seed, label_hash("records")));
  std::vector<PauliRecord> r0(n);
  for (std::size_t q = 0; q < n; ++q) {
    r0[q] = static_cast<PauliRecord>(rng.below(4));
  }
  const Circuit scramble =
      scramble_circuit(n, exec::task_seed(seed, label_hash("scramble")));

  pf::PauliFrame frame(n);
  for (std::size_t q = 0; q < n; ++q) {
    frame.set_record(static_cast<Qubit>(q), r0[q]);
  }
  const Circuit processed = frame.process(unitary);
  std::vector<PauliRecord> r1(n);
  for (std::size_t q = 0; q < n; ++q) {
    r1[q] = frame.record(static_cast<Qubit>(q));
  }

  // Path A: C ∘ R0 on a scrambled state; path B: R1 ∘ C'.
  sv::Simulator a(n, 1);
  a.execute(scramble);
  apply_records(a, r0);
  a.execute(unitary);

  sv::Simulator b(n, 1);
  b.execute(scramble);
  b.execute(processed);
  apply_records(b, r1);

  if (!a.state().equals_up_to_global_phase(b.state(), 1e-6)) {
    std::ostringstream why;
    why << "frame identity R1∘C' = C∘R0 violated on " << n
        << " qubits (fidelity " << a.state().fidelity(b.state()) << ")";
    return OracleOutcome::fail(why.str());
  }
  return OracleOutcome::pass();
}

// --- mirror -----------------------------------------------------------

namespace {

OracleOutcome run_mirror(const Circuit& body, std::uint64_t seed,
                         bool use_qx) {
  const std::size_t n = register_size(body, 2);
  if (use_qx && n > kMaxSvQubits) {
    return OracleOutcome::skip("register too large for the dense simulator");
  }
  const Circuit full =
      mirror_circuit(body, n, exec::task_seed(seed, label_hash("mirror")));
  for (const bool frame_on : {false, true}) {
    const std::uint64_t core_seed =
        exec::task_seed(seed, label_hash(frame_on ? "core-on" : "core-off"));
    arch::ChpCore chp(core_seed);
    arch::QxCore qx(core_seed);
    arch::Core& core =
        use_qx ? static_cast<arch::Core&>(qx) : static_cast<arch::Core&>(chp);
    arch::PauliFrameLayer layer(&core);
    arch::Core& top =
        frame_on ? static_cast<arch::Core&>(layer) : core;
    top.create_qubits(n);
    top.add(full);
    top.execute();
    const BinaryState state = top.get_state();
    for (std::size_t q = 0; q < state.size(); ++q) {
      if (state[q] != BinaryValue::kZero) {
        std::ostringstream why;
        why << "mirror outcome must be all-zero but qubit " << q << " read '"
            << arch::to_char(state[q]) << "' (" << (use_qx ? "qx" : "chp")
            << ", frame " << (frame_on ? "on" : "off") << ", state "
            << render(state) << ")";
        return OracleOutcome::fail(why.str());
      }
    }
  }
  return OracleOutcome::pass();
}

}  // namespace

OracleOutcome check_mirror_chp(const Circuit& body, std::uint64_t seed) {
  return run_mirror(body, seed, false);
}

OracleOutcome check_mirror_qx(const Circuit& body, std::uint64_t seed) {
  return run_mirror(body, seed, true);
}

// --- sampling ---------------------------------------------------------

// Shot count and per-qubit frequency-gap tolerance of the two sampling
// oracles (sampling, backend-diff), sized so a clean soak stays clean:
// with independent 256-shot samples the gap's standard deviation is at
// most ~0.044, putting the 0.4 tolerance at ~9 sigma.
constexpr std::size_t kShots = 256;
constexpr double kFrequencyTolerance = 0.4;

OracleOutcome check_sampling(const Circuit& measured, std::uint64_t seed) {
  const std::size_t n = register_size(measured, 2);
  // Independent per-shot seed streams for the two configurations.
  // Sharing one stream looks harmless but can make the runs perfectly
  // anti-correlated (the frame absorbs Paulis, so the two cores draw
  // the same random bits for physically different states), doubling
  // the variance of the frequency gap and turning the tolerance into
  // a ~3-sigma test that a long clean soak is guaranteed to trip.
  const std::uint64_t off_stream =
      exec::task_seed(seed, label_hash("frame-off"));
  const std::uint64_t on_stream =
      exec::task_seed(seed, label_hash("frame-on"));
  std::vector<std::size_t> ones_off(n, 0);
  std::vector<std::size_t> ones_on(n, 0);
  for (std::size_t shot = 0; shot < kShots; ++shot) {
    arch::ChpCore off(exec::task_seed(off_stream, shot));
    off.create_qubits(n);
    arch::run(off, measured);
    const BinaryState so = off.get_state();

    arch::ChpCore core(exec::task_seed(on_stream, shot));
    arch::PauliFrameLayer layer(&core);
    layer.create_qubits(n);
    arch::run(layer, measured);
    const BinaryState sf = layer.get_state();

    for (std::size_t q = 0; q < n; ++q) {
      if (so[q] == BinaryValue::kUnknown || sf[q] == BinaryValue::kUnknown) {
        // Not every qubit is measured (the shrinker may have dropped a
        // measure slot): there is no statistic to compare.  Skipping —
        // instead of failing — keeps degenerate circuits out of the
        // shrinker's witness set.
        std::ostringstream why;
        why << "qubit " << q << " is never measured; no statistic";
        return OracleOutcome::skip(why.str());
      }
      ones_off[q] += so[q] == BinaryValue::kOne ? 1 : 0;
      ones_on[q] += sf[q] == BinaryValue::kOne ? 1 : 0;
    }
  }
  for (std::size_t q = 0; q < n; ++q) {
    const double fo =
        static_cast<double>(ones_off[q]) / static_cast<double>(kShots);
    const double ff =
        static_cast<double>(ones_on[q]) / static_cast<double>(kShots);
    const double gap = fo > ff ? fo - ff : ff - fo;
    if (gap > kFrequencyTolerance) {
      std::ostringstream why;
      why << "frame on/off outcome frequencies diverge on qubit " << q << ": "
          << fo << " (off) vs " << ff << " (on) over " << kShots
          << " shots";
      return OracleOutcome::fail(why.str());
    }
  }
  return OracleOutcome::pass();
}

// --- backend-diff -----------------------------------------------------

OracleOutcome check_backend_diff(const Circuit& unitary, std::uint64_t seed) {
  const std::size_t n = register_size(unitary, 2);
  if (n > kMaxSvQubits) {
    std::ostringstream why;
    why << n << " qubits exceeds the dense-simulator ceiling";
    return OracleOutcome::skip(why.str());
  }
  // Stage 1 — stabilizer eigenstate check.  Run the pure-Clifford
  // unitary on a raw tableau and on the dense simulator, then verify
  // every stabilizer row *including its sign*: (±P)|ψ⟩ must equal |ψ⟩
  // exactly.  This is the only check sensitive to a mis-signed tableau
  // row: sign errors from self-inverse gates cancel in pairs through
  // any mirror, chp-vs-chp comparisons plant the same bug on both
  // sides, and a mid-circuit random-outcome collapse re-derives the
  // collapsed row's sign from the outcome, silently absorbing the
  // error — hence the unitary circuit, not the measured one.
  {
    stab::Tableau tab(n);
    sv::Simulator sim(n, 1);
    for (const SlotView slot : unitary) {
      for (const Operation& op : slot) {
        tab.apply_unitary(op);
        sim.apply_unitary(op);
      }
    }
    const auto& psi = sim.state().amplitudes();
    for (std::size_t i = 0; i < n; ++i) {
      const stab::PauliString row = tab.stabilizer(i);
      sv::Simulator scratch(n, 1);
      scratch.mutable_state() = sim.state();
      for (std::size_t q = 0; q < n; ++q) {
        switch (row.pauli(q)) {
          case stab::Pauli::kX:
            scratch.apply_unitary(Operation{GateType::kX,
                                            static_cast<Qubit>(q)});
            break;
          case stab::Pauli::kY:
            scratch.apply_unitary(Operation{GateType::kY,
                                            static_cast<Qubit>(q)});
            break;
          case stab::Pauli::kZ:
            scratch.apply_unitary(Operation{GateType::kZ,
                                            static_cast<Qubit>(q)});
            break;
          case stab::Pauli::kI:
            break;
        }
      }
      const auto& img = scratch.state().amplitudes();
      const double sign = row.sign() > 0 ? 1.0 : -1.0;
      double err = 0.0;
      for (std::size_t k = 0; k < psi.size(); ++k) {
        err = std::max(err, std::abs(sign * img[k] - psi[k]));
      }
      if (err > 1e-6) {
        std::ostringstream why;
        why << "tableau claims stabilizer " << row.str()
            << " but the dense state is not a +1 eigenstate (max amplitude "
               "error "
            << err << ")";
        return OracleOutcome::fail(why.str());
      }
    }
  }
  // Stage 2 — frame off on both backends, unitary + measure-all: the
  // CHP tableau and the state vector must agree on every deterministic
  // outcome (individual random outcomes differ shot to shot, so
  // compare per-qubit frequencies).
  Circuit program = unitary;
  TimeSlot readout;
  for (std::size_t q = 0; q < n; ++q) {
    readout.add(Operation{GateType::kMeasureZ, static_cast<Qubit>(q)});
  }
  program.append_slot(std::move(readout));

  std::vector<std::size_t> ones_chp(n, 0);
  std::vector<std::size_t> ones_qx(n, 0);
  // Independent per-shot streams per backend (see check_sampling for
  // why sharing one stream inflates the gap variance).
  const std::uint64_t chp_stream = exec::task_seed(seed, label_hash("chp"));
  const std::uint64_t qx_stream = exec::task_seed(seed, label_hash("qx"));
  for (std::size_t shot = 0; shot < kShots; ++shot) {
    arch::ChpCore chp(exec::task_seed(chp_stream, shot));
    chp.create_qubits(n);
    arch::run(chp, program);
    const BinaryState sc = chp.get_state();

    arch::QxCore qx(exec::task_seed(qx_stream, shot));
    qx.create_qubits(n);
    arch::run(qx, program);
    const BinaryState sq = qx.get_state();

    for (std::size_t q = 0; q < n; ++q) {
      if (sc[q] == BinaryValue::kUnknown || sq[q] == BinaryValue::kUnknown) {
        std::ostringstream why;
        why << "qubit " << q << " is never measured; no statistic";
        return OracleOutcome::skip(why.str());
      }
      ones_chp[q] += sc[q] == BinaryValue::kOne ? 1 : 0;
      ones_qx[q] += sq[q] == BinaryValue::kOne ? 1 : 0;
    }
  }
  for (std::size_t q = 0; q < n; ++q) {
    const double fc =
        static_cast<double>(ones_chp[q]) / static_cast<double>(kShots);
    const double fq =
        static_cast<double>(ones_qx[q]) / static_cast<double>(kShots);
    const double gap = fc > fq ? fc - fq : fq - fc;
    if (gap > kFrequencyTolerance) {
      std::ostringstream why;
      why << "chp/qx outcome frequencies diverge on qubit " << q << ": " << fc
          << " (chp) vs " << fq << " (qx) over " << kShots << " shots";
      return OracleOutcome::fail(why.str());
    }
  }
  return OracleOutcome::pass();
}

// --- metamorphic ------------------------------------------------------

OracleOutcome check_metamorphic_injection(const Circuit& body,
                                          std::uint64_t seed) {
  const std::size_t n = register_size(body, 2);
  Circuit full = body;
  full.append_circuit(inverse_of(body));
  const std::size_t unitary_slots = full.num_slots();
  TimeSlot measures;
  for (std::size_t q = 0; q < n; ++q) {
    measures.add(Operation{GateType::kMeasureZ, static_cast<Qubit>(q)});
  }
  full.append_slot(std::move(measures));

  exec::SplitMix rng(exec::task_seed(seed, label_hash("inject")));
  const std::size_t cut = rng.below(unitary_slots + 1);
  const Qubit target = static_cast<Qubit>(rng.below(n));
  constexpr GateType kInjectable[] = {GateType::kX, GateType::kY,
                                      GateType::kZ};
  const GateType pauli = kInjectable[rng.below(3)];

  arch::ChpCore core(exec::task_seed(seed, label_hash("core")));
  arch::PauliFrameLayer layer(&core);
  layer.create_qubits(n);
  layer.add(slice(full, 0, cut));
  // The metamorphic move: apply P to the hardware *and* track P in the
  // frame.  physical = record × ideal is preserved, so every corrected
  // outcome must be unchanged — and mirror outcomes are all-zero.
  layer.frame().track(pauli, target);
  Circuit injection;
  injection.append(pauli, target);
  core.add(injection);
  layer.add(slice(full, cut, full.num_slots()));
  layer.execute();

  const BinaryState state = layer.get_state();
  for (std::size_t q = 0; q < state.size(); ++q) {
    if (state[q] != BinaryValue::kZero) {
      std::ostringstream why;
      why << "injecting " << name(pauli) << " on q" << target
          << " before slot " << cut
          << " changed corrected outcomes: qubit " << q << " read '"
          << arch::to_char(state[q]) << "' (state " << render(state) << ")";
      return OracleOutcome::fail(why.str());
    }
  }
  return OracleOutcome::pass();
}

// --- snapshot ---------------------------------------------------------

OracleOutcome check_snapshot_roundtrip(const Circuit& body,
                                       std::uint64_t seed) {
  const std::size_t n = register_size(body, 2);
  const Circuit full =
      mirror_circuit(body, n, exec::task_seed(seed, label_hash("mirror")));
  if (full.num_slots() < 2) {
    return OracleOutcome::skip("circuit too short for a snapshot cut");
  }
  exec::SplitMix rng(exec::task_seed(seed, label_hash("cut")));
  const std::size_t cut = 1 + rng.below(full.num_slots() - 1);

  // Rotate the stack flavour: bare core, then each record protection.
  constexpr pf::Protection kModes[] = {pf::Protection::kNone,
                                       pf::Protection::kParity,
                                       pf::Protection::kVote};
  const std::uint64_t variant = rng.below(4);

  arch::ChpCore core(exec::task_seed(seed, label_hash("core")));
  std::optional<arch::PauliFrameLayer> layer;
  arch::Core* top = &core;
  if (variant > 0) {
    layer.emplace(&core, kModes[variant - 1]);
    top = &*layer;
  }
  top->create_qubits(n);
  top->add(slice(full, 0, cut));
  top->execute();

  journal::SnapshotWriter at_cut;
  top->save_state(at_cut);

  const Circuit suffix = slice(full, cut, full.num_slots());
  top->add(suffix);
  top->execute();
  const BinaryState state_a = top->get_state();
  journal::SnapshotWriter final_a;
  top->save_state(final_a);

  journal::SnapshotReader reader(at_cut.bytes());
  top->load_state(reader);
  top->add(suffix);
  top->execute();
  const BinaryState state_b = top->get_state();
  journal::SnapshotWriter final_b;
  top->save_state(final_b);

  if (state_a != state_b) {
    std::ostringstream why;
    why << "restored run diverged: " << render(state_a) << " vs "
        << render(state_b) << " (cut at slot " << cut << ", variant "
        << variant << ")";
    return OracleOutcome::fail(why.str());
  }
  if (final_a.bytes() != final_b.bytes()) {
    std::ostringstream why;
    why << "final snapshots differ after a bit-exact restore (cut at slot "
        << cut << ", variant " << variant << ", " << final_a.bytes().size()
        << " vs " << final_b.bytes().size() << " bytes)";
    return OracleOutcome::fail(why.str());
  }
  return OracleOutcome::pass();
}

// --- chaos ------------------------------------------------------------

/// Circuit segments in the chaos run (fewer when the circuit is short).
constexpr std::size_t kChaosSegments = 3;

OracleOutcome check_chaos_convergence(const Circuit& measured,
                                      std::uint64_t seed) {
  const std::size_t n = register_size(measured, 2);
  const std::uint64_t core_seed = exec::task_seed(seed, label_hash("core"));

  const std::size_t segments =
      std::max<std::size_t>(1, std::min(kChaosSegments,
                                        measured.num_slots()));
  const std::size_t stride =
      (measured.num_slots() + segments - 1) / segments;

  // Fault-free reference transcript.
  arch::ChpCore ref_core(core_seed);
  arch::PauliFrameLayer ref_frame(&ref_core);
  ref_frame.create_qubits(n);
  for (std::size_t s = 0; s < measured.num_slots(); s += stride) {
    ref_frame.add(slice(measured, s, s + stride));
    ref_frame.execute();
  }
  const BinaryState reference = ref_frame.get_state();

  // Supervised run under a scripted crash schedule.
  arch::ChaosConfig chaos;
  chaos.seed = exec::task_seed(seed, label_hash("chaos"));
  chaos.min_gap = 2;
  chaos.max_gap = 6;
  chaos.crash_weight = 1;

  arch::SupervisorOptions options;
  options.max_retries = 8;
  options.escalate_after = 3;
  options.rearm_after = 1;
  options.seed = exec::task_seed(seed, label_hash("backoff"));

  arch::ChpCore core(core_seed);
  arch::ClassicalFaultLayer faults(
      &core, arch::ClassicalFaultRates{},
      exec::task_seed(seed, label_hash("fault-rng")), chaos);
  arch::PauliFrameLayer frame(&faults);
  arch::SupervisorLayer supervisor(&frame, options);
  supervisor.set_frame(&frame);

  try {
    supervisor.create_qubits(n);
    for (std::size_t s = 0; s < measured.num_slots(); s += stride) {
      supervisor.add(slice(measured, s, s + stride));
      supervisor.execute();
    }
  } catch (const SupervisionError&) {
    // Typed escalation is an accepted terminal outcome.
    return OracleOutcome::pass();
  }
  if (supervisor.stats().episodes > 0) {
    // Degraded mode legitimately abandons work; the transcript is no
    // longer comparable to the fault-free run.
    return OracleOutcome::pass();
  }
  const BinaryState recovered = supervisor.get_state();
  if (recovered != reference) {
    std::ostringstream why;
    why << "recovered transcript diverged from the fault-free run: "
        << render(recovered) << " vs " << render(reference) << " after "
        << supervisor.stats().recoveries << " recovery(ies), "
        << supervisor.stats().faults_seen << " fault(s)";
    return OracleOutcome::fail(why.str());
  }
  return OracleOutcome::pass();
}

// --- lut-window -------------------------------------------------------

/// Decode windows per lut-window run.
constexpr std::size_t kLutWindows = 8;

OracleOutcome check_lut_window(std::uint64_t seed) {
  using qec::CheckType;
  using qec::Syndrome;

  const qec::SurfaceCodeLayout layout(3);
  qec::NinjaStar star(0, &layout);
  exec::SplitMix rng(exec::task_seed(seed, label_hash("syndromes")));

  Syndrome carried = rng.below(256);
  star.set_carried_syndrome(carried);

  // Bits of a group syndrome: bit b is the b'th ancilla (ascending) of
  // the checks measuring `basis` in the star's current orientation.
  const auto extract = [&](Syndrome s, CheckType basis) {
    unsigned out = 0;
    unsigned bit = 0;
    for (const qec::SurfaceCheck& check : layout.checks()) {
      if (check.effective_type(star.orientation()) == basis) {
        out |= static_cast<unsigned>((s >> check.ancilla) & 1u) << bit++;
      }
    }
    return out;
  };
  const auto deposit = [&](unsigned bits, CheckType basis) {
    Syndrome out = 0;
    unsigned bit = 0;
    for (const qec::SurfaceCheck& check : layout.checks()) {
      if (check.effective_type(star.orientation()) == basis) {
        out |= Syndrome{(bits >> bit++) & 1u} << check.ancilla;
      }
    }
    return out;
  };

  for (std::size_t w = 0; w < kLutWindows; ++w) {
    if (rng.chance(0.25)) {
      star.on_logical_h();  // rotate: the check groups swap roles
    }
    const Syndrome r1 = rng.below(256);
    const Syndrome r2 = rng.below(256);

    // Independent reference decode: same carried round, fresh logic.
    Syndrome expected_carry = r2;
    std::map<Qubit, unsigned> expected;  // qubit -> x|z correction mask
    for (const CheckType basis : {CheckType::kZ, CheckType::kX}) {
      const unsigned s1 = extract(r1, basis);
      if (s1 != extract(r2, basis)) {
        continue;  // the two fresh rounds disagree: defer one round
      }
      const qec::LutDecoder& lut = star.lut(basis);
      const std::vector<int>& data = lut.decode(s1);
      const unsigned mask = basis == CheckType::kZ ? 1u : 2u;  // X : Z fix
      for (const int d : data) {
        expected[layout.data_qubit(0, d)] |= mask;
      }
      expected_carry ^= deposit(lut.signature(data), basis);
    }

    const std::vector<Operation> got = star.decode_window(r1, r2);
    std::map<Qubit, unsigned> actual;
    for (const Operation& op : got) {
      const unsigned mask = op.gate() == GateType::kX   ? 1u
                            : op.gate() == GateType::kZ ? 2u
                                                        : 3u;  // Y = X and Z
      actual[op.qubit(0)] |= mask;
    }
    if (actual != expected || star.carried_syndrome() != expected_carry) {
      std::ostringstream why;
      why << "window " << w << " (carried=" << carried << " r1=" << r1
          << " r2=" << r2 << "): decoder emitted " << got.size()
          << " correction(s) with carry " << star.carried_syndrome()
          << ", reference expects " << expected.size() << " with carry "
          << expected_carry;
      return OracleOutcome::fail(why.str());
    }
    carried = expected_carry;
  }
  return OracleOutcome::pass();
}

// --- serve-codec ------------------------------------------------------
//
// The qpf_serve wire armor must satisfy two properties no matter how a
// frame is cut up or damaged in flight:
//   1. round trip — encode → feed in seed-driven fragments → decode is
//      the identity, and the carried QASM survives bit-exactly;
//   2. no silent acceptance — a corrupted or truncated byte stream may
//      stall (incomplete frame) or raise ProtocolError, but must never
//      yield a frame that differs from what was sent.
// The corruption sweep walks every bit of the body header (where a
// CRC-skipping decoder would accept silently-wrong session/request
// ids) plus seed-driven flips across the whole frame, and a truncation
// sweep over seed-driven prefixes.

OracleOutcome check_serve_codec(const Circuit& stream, std::uint64_t seed) {
  namespace srv = qpf::serve;
  exec::SplitMix draw(exec::task_seed(seed, label_hash("serve-codec")));

  srv::Frame original;
  original.type = srv::MsgType::kSubmitQasm;
  original.session = draw.next() | 1;
  original.request = static_cast<std::uint32_t>(draw.next());
  original.payload = srv::encode_submit_qasm(to_qasm(stream));
  const std::vector<std::uint8_t> wire = srv::encode_frame(original);

  const auto same = [](const srv::Frame& a, const srv::Frame& b) {
    return a.version == b.version && a.type == b.type &&
           a.session == b.session && a.request == b.request &&
           a.payload == b.payload;
  };

  // 1. Round trip under random fragmentation (twice, so a frame
  // following a frame also parses).
  try {
    srv::FrameDecoder decoder;
    for (int pass = 0; pass < 2; ++pass) {
      std::size_t off = 0;
      while (off < wire.size()) {
        const std::size_t chunk = std::min<std::size_t>(
            1 + draw.below(13), wire.size() - off);
        decoder.feed(wire.data() + off, chunk);
        off += chunk;
      }
      const std::optional<srv::Frame> got = decoder.next();
      if (!got.has_value()) {
        return OracleOutcome::fail(
            "decoder stalled on a complete, well-formed frame");
      }
      if (!same(*got, original)) {
        return OracleOutcome::fail("frame round trip is not the identity");
      }
      if (srv::decode_submit_qasm(got->payload) != to_qasm(stream)) {
        return OracleOutcome::fail("submit_qasm payload round trip mangled "
                                   "the program text");
      }
    }
  } catch (const ProtocolError& e) {
    return OracleOutcome::fail(std::string("clean frame rejected: ") +
                               e.what());
  }

  // 2. Single-bit corruption: every bit of the armor + body header
  // (offsets 0..23 cover magic, length, version, type, reserved,
  // session, request), plus seed-driven flips anywhere in the frame.
  std::vector<std::size_t> corrupt_bits;
  for (std::size_t byte = 0; byte < std::min<std::size_t>(24, wire.size());
       ++byte) {
    for (std::size_t bit = 0; bit < 8; ++bit) {
      corrupt_bits.push_back(byte * 8 + bit);
    }
  }
  for (int extra = 0; extra < 64; ++extra) {
    corrupt_bits.push_back(draw.below(wire.size() * 8));
  }
  for (const std::size_t target : corrupt_bits) {
    std::vector<std::uint8_t> damaged = wire;
    damaged[target / 8] ^= static_cast<std::uint8_t>(1u << (target % 8));
    srv::FrameDecoder decoder;
    try {
      decoder.feed(damaged.data(), damaged.size());
      while (const std::optional<srv::Frame> got = decoder.next()) {
        if (!same(*got, original)) {
          return OracleOutcome::fail(
              "decoder accepted a corrupted frame (bit " +
              std::to_string(target) + " flipped) without a ProtocolError");
        }
      }
    } catch (const ProtocolError&) {
      // Expected: the armor caught the damage.
    }
  }

  // 3. Truncation: a prefix must stall or error, never decode.
  for (int cut = 0; cut < 16; ++cut) {
    const std::size_t keep = draw.below(wire.size());
    srv::FrameDecoder decoder;
    try {
      decoder.feed(wire.data(), keep);
      if (decoder.next().has_value()) {
        return OracleOutcome::fail(
            "decoder produced a frame from a " + std::to_string(keep) +
            "-byte prefix of a " + std::to_string(wire.size()) +
            "-byte frame");
      }
    } catch (const ProtocolError&) {
      // Acceptable: truncation surfaced as a typed violation.
    }
  }
  return OracleOutcome::pass();
}

// --- io-fault ---------------------------------------------------------

namespace {

/// Durable ops parsed back from a FaultFs counting log.
struct LoggedOp {
  std::string kind;
  std::string path;
};

std::vector<LoggedOp> parse_op_log(const std::string& log_path) {
  std::vector<LoggedOp> ops;
  std::string contents;
  {
    std::FILE* f = std::fopen(log_path.c_str(), "rb");
    if (f == nullptr) {
      return ops;
    }
    char buffer[4096];
    std::size_t n = 0;
    while ((n = std::fread(buffer, 1, sizeof buffer, f)) > 0) {
      contents.append(buffer, n);
    }
    std::fclose(f);
  }
  std::istringstream lines(contents);
  std::string line;
  while (std::getline(lines, line)) {
    std::istringstream fields(line);
    std::string ordinal;
    LoggedOp op;
    fields >> ordinal >> op.kind;
    std::getline(fields, op.path);
    if (!op.path.empty() && op.path.front() == ' ') {
      op.path.erase(0, 1);
    }
    ops.push_back(std::move(op));
  }
  return ops;
}

}  // namespace

OracleOutcome check_io_fault(const Circuit& body, std::uint64_t seed) {
  // Two distinct, deterministic payloads derived from the generated
  // circuit: the checkpoint on disk ("old") and the overwrite ("new").
  const std::size_t n = register_size(body, 2);
  arch::ChpCore core(exec::task_seed(seed, label_hash("core")));
  core.create_qubits(n);
  core.add(body);
  core.execute();
  journal::SnapshotWriter old_state;
  core.save_state(old_state);
  core.add(body);
  core.execute();
  journal::SnapshotWriter new_state;
  core.save_state(new_state);
  const std::vector<std::uint8_t>& old_payload = old_state.bytes();
  std::vector<std::uint8_t> new_payload = new_state.bytes();
  new_payload.push_back(0x5a);  // never byte-identical to old_payload

  // Scratch names carry the pid: parallel ctest jobs share a working
  // directory, and a seed-only name would let them clobber each other.
  char name[64];
  std::snprintf(name, sizeof name, "io_fault_oracle_%d_%016llx",
                static_cast<int>(::getpid()),
                static_cast<unsigned long long>(seed));
  const std::string path = name + std::string(".ckpt");
  const std::string log = name + std::string(".oplog");
  const auto cleanup = [&] {
    std::remove(path.c_str());
    std::remove((path + ".tmp").c_str());
    std::remove(log.c_str());
  };
  cleanup();

  // 1. Counting pass: record every durable op of one checkpoint write
  //    and check durability-protocol conformance — the rename must be
  //    followed by a parent-directory fsync before the call returns
  //    (planted bug 13 drops exactly that op).
  std::uint64_t total_ops = 0;
  {
    io::FaultPlan plan;
    plan.mode = io::FaultPlan::Mode::kCount;
    plan.log_path = log;
    io::FaultFs fs(plan);
    io::FaultFsGuard guard(fs);
    try {
      journal::write_checkpoint_file(path, old_payload);
    } catch (const std::exception& e) {
      cleanup();
      return OracleOutcome::fail(
          std::string("clean counting pass failed: ") + e.what());
    }
    total_ops = fs.durable_ops();
  }
  const std::vector<LoggedOp> ops = parse_op_log(log);
  for (std::size_t i = 0; i < ops.size(); ++i) {
    if (ops[i].kind != "rename") {
      continue;
    }
    if (i + 1 >= ops.size() || ops[i + 1].kind != "fsync") {
      cleanup();
      return OracleOutcome::fail(
          "durability protocol violation: rename at durable op " +
          std::to_string(i + 1) +
          " is not followed by a parent-directory fsync (a power loss "
          "could roll the checkpoint back)");
    }
  }
  if (total_ops == 0 || ops.empty()) {
    cleanup();
    return OracleOutcome::fail("counting pass recorded no durable ops");
  }

  // 2. Crash-point sweep: overwrite the checkpoint with the fault
  //    armed at every durable op k, sticky (every later op fails too —
  //    an in-process model of the filesystem dying mid-protocol), with
  //    seed-drawn errno and occasional torn/short writes.  Outcome must
  //    be binary: the write either reports success and the file reads
  //    back as the NEW payload, or throws a typed CheckpointError and
  //    the file reads back as a complete OLD or NEW checkpoint.  A mix,
  //    a CRC surprise, or a foreign exception is a finding.
  exec::SplitMix rng(exec::task_seed(seed, label_hash("faults")));
  for (std::uint64_t k = 1; k <= total_ops; ++k) {
    io::FaultPlan plan;
    plan.mode = io::FaultPlan::Mode::kFailAt;
    plan.at = k;
    plan.error = rng.below(2) == 0 ? EIO : ENOSPC;
    plan.sticky = true;
    if (rng.below(3) == 0) {
      // Torn final write: deliver a seed-drawn prefix, then the sticky
      // failure kills the rest of the protocol.
      plan.torn_bytes = static_cast<std::int64_t>(rng.below(64));
    }
    bool threw = false;
    try {
      io::FaultFs fs(plan);
      io::FaultFsGuard guard(fs);
      journal::write_checkpoint_file(path, new_payload);
    } catch (const CheckpointError&) {
      threw = true;
    } catch (const std::exception& e) {
      cleanup();
      return OracleOutcome::fail(
          "fault at durable op " + std::to_string(k) +
          " surfaced as a non-typed exception: " + e.what());
    }
    std::vector<std::uint8_t> recovered;
    try {
      recovered = journal::read_checkpoint_file(path);
    } catch (const CheckpointError& e) {
      cleanup();
      return OracleOutcome::fail(
          "corrupt checkpoint after fault at durable op " +
          std::to_string(k) + ": " + e.what());
    }
    if (!threw && recovered != new_payload) {
      cleanup();
      return OracleOutcome::fail(
          "silent divergence: write reported success under fault at op " +
          std::to_string(k) + " but the file holds different bytes");
    }
    if (threw && recovered != old_payload && recovered != new_payload) {
      cleanup();
      return OracleOutcome::fail(
          "atomicity violation at durable op " + std::to_string(k) +
          ": file is neither the old nor the new checkpoint");
    }
    // Reset to a known-good OLD checkpoint for the next crash point.
    try {
      journal::write_checkpoint_file(path, old_payload);
    } catch (const std::exception& e) {
      cleanup();
      return OracleOutcome::fail(
          std::string("clean rewrite between crash points failed: ") +
          e.what());
    }
  }
  cleanup();
  return OracleOutcome::pass();
}

// --- net-fault --------------------------------------------------------

namespace {

/// One in-process qpf_serve conversation: submit the generated program
/// twice, then close, through a RetryClient, with an optional FaultNet
/// schedule installed for the duration of the client's socket traffic.
/// The transcript is the sequence of replies handed to the caller,
/// re-encoded — the exactly-once contract says it must not depend on
/// what the network did.
struct NetRun {
  std::vector<std::uint8_t> transcript;
  std::string error;  ///< non-empty: the conversation itself failed
};

NetRun run_net_workload(const std::string& qasm, std::size_t qubits,
                        std::uint64_t seed, const io::NetFaultPlan* plan) {
  NetRun out;
  serve::ServeOptions options;
  options.port = 0;
  options.executor_threads = 1;
  serve::Server server(options);
  try {
    server.start();
  } catch (const std::exception& e) {
    out.error = std::string("server failed to start: ") + e.what();
    return out;
  }
  // The injector must outlive every server thread: the reactor can be
  // inside a FaultNet::read when the guard is popped, so the backend
  // object itself is only destroyed after shutdown()+join() below.
  std::optional<io::FaultNet> net;
  std::thread reactor([&server] { server.serve(); });
  {
    // Guard scope: the injector covers the client conversation only and
    // is uninstalled (in-progress one-shots included) before the drain.
    std::optional<io::FaultNetGuard> guard;
    if (plan != nullptr) {
      net.emplace(*plan);
      guard.emplace(*net);
    }
    try {
      serve::SessionConfig config;
      config.name = "net-fault-oracle";
      config.seed = exec::task_seed(seed, label_hash("session"));
      config.qubits = qubits;
      serve::RetryOptions retry;
      retry.client_name = "net-fault-oracle";
      retry.seed = exec::task_seed(seed, label_hash("retry"));
      retry.max_attempts = 12;
      retry.backoff_base_ms = 1;
      retry.backoff_cap_ms = 20;
      retry.recv_timeout_ms = 500;
      retry.connect_budget_ms = 2000;
      serve::RetryClient client(server.port(), config, retry);
      (void)client.submit_qasm(qasm);
      (void)client.submit_qasm(qasm);
      (void)client.close();
      out.transcript = client.transcript();
    } catch (const Error& e) {
      out.error = e.what();
    } catch (const std::exception& e) {
      out.error = std::string("foreign exception: ") + e.what();
    }
  }
  server.shutdown();
  reactor.join();
  return out;
}

}  // namespace

OracleOutcome check_net_fault(const Circuit& body, std::uint64_t seed) {
  const std::string qasm = to_qasm(body);
  const std::size_t qubits = register_size(body, 2);

  // Fault-free reference conversation.
  const NetRun reference = run_net_workload(qasm, qubits, seed, nullptr);
  if (!reference.error.empty()) {
    return OracleOutcome::fail("fault-free reference run failed: " +
                               reference.error);
  }
  if (reference.transcript.empty()) {
    return OracleOutcome::fail(
        "fault-free reference produced an empty transcript");
  }

  // The client's op ordinals are fixed by the workload: hello is send 1 /
  // read 2, open-session 3/4, the first submit 5/6, the second 7/8, the
  // close 9/10.  Reads are even, sends odd; for the @K modes the client
  // connection deterministically reaches an odd K before the server's
  // accepted connection does (the server only touches the socket after
  // poll reports the client's bytes).
  struct Schedule {
    const char* name;
    io::NetFaultPlan plan;
  };
  std::vector<Schedule> schedules;

  // reset@6: the first submit executes but its reply read dies, so the
  // resent request id must be answered from the dedup window — a server
  // that re-executes (planted bug 14) serves one extra request and the
  // final kClosed payload diverges.
  {
    io::NetFaultPlan plan;
    plan.mode = io::NetFaultPlan::Mode::kResetAt;
    plan.at = 6;
    schedules.push_back({"reset@6", plan});
  }

  // garble@5: flip one bit of the "qubits" keyword inside the first
  // submit frame's QASM text.  The CRC armor must reject the frame (the
  // client then resends it intact); a decoder that skips the CRC
  // (planted bug 12) accepts the damage and the program no longer
  // parses, turning the reference's run reply into a `parse` error.
  {
    serve::Frame probe;
    probe.type = serve::MsgType::kSubmitQasm;
    probe.payload = serve::encode_submit_qasm(qasm);
    const std::vector<std::uint8_t> wire = serve::encode_frame(probe);
    const std::vector<std::uint8_t> needle(qasm.begin(), qasm.end());
    const auto at = std::search(wire.begin(), wire.end(), needle.begin(),
                                needle.end());
    const std::size_t keyword = qasm.find("qubits ");
    if (at != wire.end() && keyword != std::string::npos) {
      const std::size_t target =
          static_cast<std::size_t>(at - wire.begin()) + keyword;
      io::NetFaultPlan plan;
      plan.mode = io::NetFaultPlan::Mode::kGarbleAt;
      plan.at = 5;
      plan.bit = static_cast<std::uint32_t>(8 * target);  // 'q' -> 'p'
      schedules.push_back({"garble@5", plan});
    }
  }

  // short-send: roughly every other send is cut to a seeded prefix;
  // both peers' send loops must reassemble the stream bit-exactly.
  {
    io::NetFaultPlan plan;
    plan.mode = io::NetFaultPlan::Mode::kShortSend;
    plan.seed = exec::task_seed(seed, label_hash("short-send"));
    plan.gap = 2;
    schedules.push_back({"short-send", plan});
  }

  for (const Schedule& schedule : schedules) {
    const NetRun run = run_net_workload(qasm, qubits, seed, &schedule.plan);
    if (!run.error.empty()) {
      return OracleOutcome::fail(std::string("under ") + schedule.name +
                                 " the conversation failed: " + run.error);
    }
    if (run.transcript != reference.transcript) {
      return OracleOutcome::fail(
          std::string("under ") + schedule.name +
          " the client transcript diverged from the fault-free reference (" +
          std::to_string(run.transcript.size()) + " vs " +
          std::to_string(reference.transcript.size()) +
          " bytes) — recovery was not exactly-once");
    }
  }
  return OracleOutcome::pass();
}

// --- executor-determinism oracle --------------------------------------
//
// The commit contract of qpf::exec::Executor::run_ordered(), checked
// as a pure function of the seed: the committed (index, value)
// transcript must equal the splitmix64 seed-chain prediction, and —
// the part a naive pool gets wrong — even when the completion
// *arrival* order is adversarial.  The second run forces
// task 0 to finish last (it spins until every other task has marked
// completion, a schedule constraint with no wall-clock dependence), so
// an engine that commits in arrival order (planted bug 15,
// `executor-commit-reorder`) deterministically emits index 0's result
// last and fails the transcript comparison.

namespace {

struct ExecTranscript {
  std::vector<std::pair<std::size_t, std::uint64_t>> committed;
  bool completed = false;
};

/// One run_ordered() over `tasks` value-producing tasks.  When
/// `invert_arrival` is set, task 0 yields until all other tasks have
/// completed; that requires at least two pool threads.
ExecTranscript run_exec_transcript(exec::Executor& pool, std::size_t tasks,
                                   std::uint64_t base, bool invert_arrival) {
  ExecTranscript out;
  exec::RunOptions options;
  options.seed = base;
  const exec::RunReport report = pool.run_ordered<std::uint64_t>(
      tasks, options,
      [tasks, invert_arrival](const exec::TaskContext& ctx) {
        if (invert_arrival && ctx.index() == 0 && tasks > 1) {
          while (ctx.completed() < tasks - 1) {
            std::this_thread::yield();
          }
        }
        exec::TaskResult<std::uint64_t> result;
        result.value = exec::splitmix64(ctx.seed());
        return result;
      },
      [&out](std::size_t index, std::uint64_t&& value) {
        out.committed.emplace_back(index, value);
        return true;
      });
  out.completed = !report.cancelled && report.committed == tasks;
  return out;
}

OracleOutcome check_exec_transcript(const ExecTranscript& got,
                                    std::size_t tasks, std::uint64_t base,
                                    const char* schedule) {
  if (!got.completed) {
    return OracleOutcome::fail(std::string("run (") + schedule +
                               ") reported cancellation on a run nothing "
                               "cancelled");
  }
  if (got.committed.size() != tasks) {
    return OracleOutcome::fail(
        std::string("run (") + schedule + ") committed " +
        std::to_string(got.committed.size()) + " of " + std::to_string(tasks) +
        " results");
  }
  for (std::size_t i = 0; i < tasks; ++i) {
    const auto& [index, value] = got.committed[i];
    if (index != i) {
      return OracleOutcome::fail(
          std::string("run (") + schedule + ") committed index " +
          std::to_string(index) + " at position " + std::to_string(i) +
          " — commit order is not task-index order");
    }
    const std::uint64_t expected = exec::splitmix64(exec::task_seed(base, i));
    if (value != expected) {
      return OracleOutcome::fail(
          std::string("run (") + schedule + ") index " + std::to_string(i) +
          " produced value " + std::to_string(value) + ", seed chain predicts " +
          std::to_string(expected));
    }
  }
  return OracleOutcome::pass();
}

}  // namespace

OracleOutcome check_executor_determinism(std::uint64_t seed) {
  exec::SplitMix rng(
      exec::task_seed(seed, label_hash("executor-determinism")));
  const std::size_t tasks = 5 + rng.below(8);
  const std::uint64_t base = rng.next();

  exec::Executor pool(4);

  const ExecTranscript plain =
      run_exec_transcript(pool, tasks, base, /*invert_arrival=*/false);
  if (OracleOutcome verdict = check_exec_transcript(plain, tasks, base,
                                                    "natural arrival");
      !verdict.passed) {
    return verdict;
  }

  const ExecTranscript inverted =
      run_exec_transcript(pool, tasks, base, /*invert_arrival=*/true);
  return check_exec_transcript(inverted, tasks, base,
                               "task 0 forced to finish last");
}

// --- peek-vs-probe ----------------------------------------------------

namespace {

/// The layer right under NinjaStarLayer in the peek-vs-probe stacks: it
/// counts the circuits sent down, and on the twin it cannot read, so
/// every diagnostic there runs its circuit.
class Tap final : public arch::Layer {
 public:
  Tap(arch::Core* lower, bool readable) : Layer(lower), readable_(readable) {}
  void add(const Circuit& circuit) override {
    ++circuits_;
    lower().add(circuit);
  }
  void peek(std::span<const stab::SparsePauli> observables,
            std::span<int> values) const override {
    if (readable_) {
      lower().peek(observables, values);
    } else {
      Core::peek(observables, values);
    }
  }
  [[nodiscard]] std::size_t circuits() const noexcept { return circuits_; }

 private:
  bool readable_;
  std::size_t circuits_ = 0;
};

/// ChpCore, ErrorLayer, [PauliFrameLayer], Tap, NinjaStarLayer.
struct PeekStack {
  PeekStack(int distance, bool with_frame, bool readable, std::uint64_t seed,
            double per)
      : core(exec::task_seed(seed, label_hash("core"))),
        noise(&core, per, exec::task_seed(seed, label_hash("noise"))) {
    arch::Core* below = &noise;
    if (with_frame) {
      frame = std::make_unique<arch::PauliFrameLayer>(below);
      below = frame.get();
    }
    tap = std::make_unique<Tap>(below, readable);
    arch::NinjaStarLayer::Options options;
    options.distance = distance;
    ninja = std::make_unique<arch::NinjaStarLayer>(tap.get(), options);
    ninja->create_qubits(1);
  }

  arch::ChpCore core;
  arch::ErrorLayer noise;
  std::unique_ptr<arch::PauliFrameLayer> frame;
  std::unique_ptr<Tap> tap;
  std::unique_ptr<arch::NinjaStarLayer> ninja;
};

/// Whether `circuit` draws randomness on `tableau` (a copy): a reset or
/// a measurement with a random outcome.  Diagnostic circuits carry no
/// Pauli gates, so the frame forwards them unchanged.
bool draws_randomness(stab::Tableau tableau, const Circuit& circuit) {
  bool random = false;
  for (const Operation& op : circuit.operations()) {
    switch (category(op.gate())) {
      case GateCategory::kInitialization: {
        const stab::MeasureResult m = tableau.measure(op.qubit(0));
        random = random || !m.deterministic;
        if (m.value) {
          tableau.apply_x(op.qubit(0));
        }
        break;
      }
      case GateCategory::kMeasurement:
        random = random || !tableau.measure(op.qubit(0)).deterministic;
        break;
      default:
        tableau.apply_unitary(op);
        break;
    }
  }
  return random;
}

/// One perturbation of the read-capable stack between diagnostics.
std::string perturb(PeekStack& stack, exec::SplitMix& rng) {
  const qec::SurfaceCodeLayout& layout = stack.ninja->layout();
  const auto data = static_cast<Qubit>(rng.below(layout.num_data()));
  const auto ancilla = layout.ancilla_qubit(
      0, static_cast<int>(rng.below(layout.num_checks())));
  static constexpr GateType kPaulis[] = {GateType::kX, GateType::kY,
                                         GateType::kZ};
  const GateType pauli = kPaulis[rng.below(3)];
  Circuit circuit{"perturbation"};
  switch (rng.below(8)) {
    case 0: {  // a logical gate, then its window
      static constexpr GateType kLogical[] = {GateType::kX, GateType::kZ,
                                              GateType::kH};
      const GateType gate = kLogical[rng.below(3)];
      circuit.append(gate, 0);
      stack.ninja->add(circuit);
      stack.ninja->execute();
      return std::string("logical ") + std::string(name(gate));
    }
    case 1:  // through the frame: a record when it is on
      circuit.append(pauli, data);
      arch::run(*stack.tap, circuit);
      return std::string("frame ") + std::string(name(pauli)) + " on data " +
             std::to_string(data);
    case 2:  // on the device, below the frame
      circuit.append(pauli, rng.chance(0.5) ? data : ancilla);
      arch::run(stack.core, circuit);
      return std::string("device ") + std::string(name(pauli)) + " on " +
             std::to_string(circuit.operations()[0].qubit(0));
    case 3:  // leaves checks or an ancilla undetermined
      circuit.append(GateType::kH, rng.chance(0.5) ? data : ancilla);
      arch::run(stack.core, circuit);
      return "device H on " + std::to_string(circuit.operations()[0].qubit(0));
    default:
      stack.ninja->run_window(0);
      return "window";
  }
}

}  // namespace

OracleOutcome check_peek_vs_probe(std::uint64_t seed) {
  using qec::CheckType;
  constexpr std::size_t kSteps = 8;  // diagnostics per run

  exec::SplitMix rng(exec::task_seed(seed, label_hash("peek-vs-probe")));
  const int distance = rng.chance(0.5) ? 3 : 5;
  const bool with_frame = rng.chance(0.5);
  const CheckType basis = rng.chance(0.5) ? CheckType::kZ : CheckType::kX;
  constexpr double kPer = 2e-3;
  PeekStack real(distance, with_frame, /*readable=*/true, seed, kPer);
  PeekStack twin(distance, with_frame, /*readable=*/false, seed, kPer);
  real.noise.set_bypass(true);
  real.ninja->initialize(0, basis);
  real.noise.set_bypass(false);

  std::string history;
  for (std::size_t step = 0; step < kSteps; ++step) {
    history += (history.empty() ? "" : ", ") + perturb(real, rng);
    journal::SnapshotWriter snapshot;
    real.ninja->save_state(snapshot);
    journal::SnapshotReader reader{snapshot.bytes()};
    twin.ninja->load_state(reader);
    real.noise.set_bypass(true);
    twin.noise.set_bypass(true);

    const qec::NinjaStar& star = twin.ninja->star(0);
    const bool esm_random =
        draws_randomness(*twin.core.tableau(), star.esm_circuit());
    std::size_t before = real.tap->circuits();
    const qec::Syndrome read_syndrome = real.ninja->probe_syndrome(0);
    const bool esm_read = real.tap->circuits() == before;
    const qec::Syndrome probe_syndrome = twin.ninja->probe_syndrome(0);

    const bool chain_random = draws_randomness(
        *twin.core.tableau(), star.logical_stabilizer_circuit(basis));
    before = real.tap->circuits();
    const int read_sign = real.ninja->measure_logical_stabilizer(0, basis);
    const bool chain_read = real.tap->circuits() == before;
    const int probe_sign = twin.ninja->measure_logical_stabilizer(0, basis);
    real.noise.set_bypass(false);
    twin.noise.set_bypass(false);

    std::ostringstream why;
    if (read_syndrome != probe_syndrome || read_sign != probe_sign) {
      why << "diagnostics differ from the probe circuits: syndrome "
          << read_syndrome << " vs " << probe_syndrome << ", sign "
          << read_sign << " vs " << probe_sign << " (read: syndrome "
          << esm_read << ", chain " << chain_read << ")";
    } else if (esm_read == esm_random || chain_read == chain_random) {
      why << "the read must answer exactly when the circuit is "
             "deterministic: ESM random "
          << esm_random << " read " << esm_read << ", chain random "
          << chain_random << " read " << chain_read;
    } else {
      continue;
    }
    why << "; d=" << distance << " frame=" << with_frame
        << " basis=" << (basis == CheckType::kZ ? "z" : "x") << " step "
        << step << " after " << history;
    return OracleOutcome::fail(why.str());
  }
  return OracleOutcome::pass();
}

// --- frame-core -------------------------------------------------------

namespace {

/// A random Clifford skeleton on n >= 2 qubits: either a parity round
/// (reset the last qubit, CNOT or H-CNOT-H checks from the others onto
/// it, measure it), whose repeats reach the same reference states so
/// FrameCore's memo hits, or a scramble of random Cliffords, resets and
/// measurements that draws randomness.
Circuit frame_core_skeleton(std::size_t n, exec::SplitMix& rng) {
  Circuit out{"skeleton"};
  const auto ancilla = static_cast<Qubit>(n - 1);
  const auto pick = [&](std::size_t bound) {
    return static_cast<Qubit>(rng.below(bound));
  };
  if (rng.chance(0.6)) {
    out.append(GateType::kPrepZ, ancilla);
    const bool x_check = rng.chance(0.5);
    if (x_check) {
      out.append(GateType::kH, ancilla);
    }
    for (Qubit q = 0; q < ancilla; ++q) {
      if (rng.chance(0.7)) {
        if (x_check) {
          out.append(GateType::kCnot, ancilla, q);
        } else {
          out.append(GateType::kCnot, q, ancilla);
        }
      }
    }
    if (x_check) {
      out.append(GateType::kH, ancilla);
    }
    out.append(GateType::kMeasureZ, ancilla);
    return out;
  }
  static constexpr GateType kOneQubit[] = {GateType::kH, GateType::kS,
                                           GateType::kSdag, GateType::kPrepZ,
                                           GateType::kMeasureZ};
  static constexpr GateType kTwoQubit[] = {GateType::kCnot, GateType::kCz,
                                           GateType::kSwap};
  const std::size_t gates = 2 + rng.below(8);
  for (std::size_t g = 0; g < gates; ++g) {
    if (rng.chance(0.35)) {
      const Qubit a = pick(n);
      const auto b = static_cast<Qubit>((a + 1 + pick(n - 1)) % n);
      out.append(kTwoQubit[rng.below(3)], a, b);
    } else {
      out.append(kOneQubit[rng.below(5)], pick(n));
    }
  }
  return out;
}

/// The skeleton with Paulis (I included) sprinkled before its gates and
/// at its end, one operation per slot.
Circuit with_paulis(const Circuit& skeleton, std::size_t n,
                    exec::SplitMix& rng) {
  static constexpr GateType kPaulis[] = {GateType::kI, GateType::kX,
                                         GateType::kY, GateType::kZ};
  Circuit out{"batch"};
  const auto sprinkle = [&] {
    while (rng.chance(0.3)) {
      out.append_in_new_slot(Operation{kPaulis[rng.below(4)],
                                       static_cast<Qubit>(rng.below(n))});
    }
  };
  for (const Operation& op : skeleton.operations()) {
    sprinkle();
    out.append_in_new_slot(op);
  }
  sprinkle();
  return out;
}

/// Random signed observables on distinct qubits.
std::vector<stab::SparsePauli> frame_core_observables(std::size_t n,
                                                      exec::SplitMix& rng) {
  std::vector<stab::SparsePauli> out(1 + rng.below(4));
  for (stab::SparsePauli& observable : out) {
    observable.negative = rng.chance(0.5);
    for (std::size_t q = 0; q < n; ++q) {
      if (rng.chance(0.5)) {
        observable.terms.push_back(
            {static_cast<Qubit>(q),
             static_cast<stab::Pauli>(1 + rng.below(3))});
      }
    }
  }
  return out;
}

std::vector<std::uint8_t> snapshot_bytes(const arch::Core& core) {
  journal::SnapshotWriter out;
  core.save_state(out);
  return out.bytes();
}

}  // namespace

OracleOutcome check_frame_core(std::uint64_t seed) {
  constexpr std::size_t kSteps = 24;
  exec::SplitMix rng(exec::task_seed(seed, label_hash("frame-core")));
  const std::size_t n = 2 + rng.below(5);
  const std::uint64_t core_seed = exec::task_seed(seed, label_hash("core"));
  arch::ChpCore chp(core_seed);
  auto frame = std::make_unique<arch::FrameCore>(core_seed);
  chp.create_qubits(n);
  frame->create_qubits(n);
  std::vector<Circuit> skeletons;
  for (std::size_t k = 1 + rng.below(3); k > 0; --k) {
    skeletons.push_back(frame_core_skeleton(n, rng));
  }
  const std::size_t cut = rng.below(kSteps);
  std::vector<int> chp_values;
  std::vector<int> frame_values;
  for (std::size_t step = 0; step < kSteps; ++step) {
    const Circuit batch =
        with_paulis(skeletons[rng.below(skeletons.size())], n, rng);
    arch::run(chp, batch);
    arch::run(*frame, batch);
    std::ostringstream why;
    why << "n=" << n << " step " << step << ": ";
    const std::string chp_state = render(chp.get_state());
    const std::string frame_state = render(frame->get_state());
    if (chp_state != frame_state) {
      why << "get_state " << frame_state << " vs ChpCore " << chp_state
          << " after " << batch.num_operations() << " operations";
      return OracleOutcome::fail(why.str());
    }
    const std::vector<stab::SparsePauli> observables =
        frame_core_observables(n, rng);
    chp_values.assign(observables.size(), 0);
    frame_values.assign(observables.size(), 0);
    chp.peek(observables, chp_values);
    frame->peek(observables, frame_values);
    if (chp_values != frame_values) {
      why << "peek values differ from ChpCore's";
      return OracleOutcome::fail(why.str());
    }
    const std::vector<std::uint8_t> bytes = snapshot_bytes(*frame);
    if (bytes != snapshot_bytes(chp)) {
      why << "save_state bytes differ from ChpCore's";
      return OracleOutcome::fail(why.str());
    }
    if (step == cut) {
      // Resume from the bytes: into a fresh core, or into this one with
      // its memo kept.
      if (rng.chance(0.5)) {
        frame = std::make_unique<arch::FrameCore>();
      }
      journal::SnapshotReader in{bytes};
      frame->load_state(in);
    }
  }
  return OracleOutcome::pass();
}

// --- noise-draws -------------------------------------------------------

namespace {

/// DepolarizingModel's channel as the per-location loop that rewrote
/// every circuit, on its own engine and the library's distributions.
class ReferenceNoise {
 public:
  ReferenceNoise(double p, std::uint64_t seed, std::optional<double> bias)
      : p_(p),
        bias_(bias),
        px_(bias ? p / (2.0 * (*bias + 1.0)) : p / 3.0),
        pz_(bias ? p * *bias / (*bias + 1.0) : p / 3.0),
        rng_(seed) {}

  /// Every location draws once, in slot order: each operation, then
  /// each idle qubit ascending.  Measurement flips go in a slot before
  /// the operations, gate and idle faults in a slot after them.
  Circuit inject(const Circuit& circuit, std::size_t n) {
    Circuit out;
    out.set_name(circuit.name());
    for (const SlotView slot : circuit) {
      std::vector<Operation> before;
      std::vector<Operation> after;
      std::vector<bool> busy(n, false);
      for (const Operation& op : slot) {
        for (int i = 0; i < op.arity(); ++i) {
          busy[op.qubit(i)] = true;
        }
        if (category(op.gate()) == GateCategory::kMeasurement) {
          if (flip()) {
            before.emplace_back(GateType::kX, op.qubit(0));
            ++tally.measurement_flips;
          }
        } else if (op.arity() == 1) {
          if (flip()) {
            after.emplace_back(pauli(), op.qubit(0));
            ++tally.single_qubit;
          }
        } else if (flip()) {
          const auto [first, second] = pair();
          if (first != GateType::kI) {
            after.emplace_back(first, op.qubit(0));
          }
          if (second != GateType::kI) {
            after.emplace_back(second, op.qubit(1));
          }
          ++tally.two_qubit;
        }
      }
      for (std::size_t q = 0; q < n; ++q) {
        if (!busy[q] && flip()) {
          after.emplace_back(pauli(), static_cast<Qubit>(q));
          ++tally.idle;
        }
      }
      out.append_slot(SlotView(before.data(), before.data() + before.size()));
      out.append_slot(slot);
      out.append_slot(SlotView(after.data(), after.data() + after.size()));
    }
    return out;
  }

  /// The bytes DepolarizingModel::save writes for this state.
  [[nodiscard]] std::vector<std::uint8_t> save_bytes() const {
    journal::SnapshotWriter out;
    out.tag(bias_ ? "biased-noise" : "depolarizing");
    out.write_double(p_);
    if (bias_) {
      out.write_double(*bias_);
    }
    out.write_rng(rng_);
    out.write_size(tally.single_qubit);
    out.write_size(tally.two_qubit);
    out.write_size(tally.measurement_flips);
    out.write_size(tally.idle);
    return out.bytes();
  }

  qec::ErrorTally tally;

 private:
  double uniform() {
    return std::uniform_real_distribution<double>{0.0, 1.0}(rng_);
  }
  bool flip() { return uniform() < p_; }

  GateType pauli() {
    if (!bias_) {
      static constexpr GateType kPaulis[] = {GateType::kX, GateType::kY,
                                             GateType::kZ};
      return kPaulis[std::uniform_int_distribution<int>(0, 2)(rng_)];
    }
    const double u = uniform() * (2.0 * px_ + pz_);
    return u < px_ ? GateType::kX : u < 2.0 * px_ ? GateType::kY : GateType::kZ;
  }

  std::pair<GateType, GateType> pair() {
    static constexpr GateType kOneQubit[] = {GateType::kI, GateType::kX,
                                             GateType::kY, GateType::kZ};
    if (!bias_) {
      const int combo = std::uniform_int_distribution<int>(1, 15)(rng_);
      return {kOneQubit[combo / 4], kOneQubit[combo % 4]};
    }
    GateType first = GateType::kI;
    GateType second = GateType::kI;
    while (first == GateType::kI && second == GateType::kI) {
      first = uniform() < 0.5 ? pauli() : GateType::kI;
      second = uniform() < 0.5 ? pauli() : GateType::kI;
    }
    return {first, second};
  }

  double p_;
  std::optional<double> bias_;
  double px_;
  double pz_;
  std::mt19937_64 rng_;
};

bool same_tally(const qec::ErrorTally& a, const qec::ErrorTally& b) {
  return a.single_qubit == b.single_qubit && a.two_qubit == b.two_qubit &&
         a.measurement_flips == b.measurement_flips && a.idle == b.idle;
}

}  // namespace

OracleOutcome check_noise_draws(const Circuit& stream, std::uint64_t seed) {
  static constexpr double kRates[] = {0.0, 1e-3, 0.05, 0.5, 1.0};
  static constexpr double kBiases[] = {0.5, 3.0, 30.0};
  constexpr int kInjections = 8;
  exec::SplitMix rng(exec::task_seed(seed, label_hash("noise-draws")));
  // Wider than the circuit, so every slot has idle qubits to charge.
  const std::size_t n = register_size(stream) + 1 + rng.below(3);
  for (const double p : kRates) {
    for (const bool biased : {false, true}) {
      const std::optional<double> bias =
          biased ? std::optional<double>{kBiases[rng.below(3)]}
                 : std::nullopt;
      const std::uint64_t model_seed = rng.next();
      qec::DepolarizingModel model(p, model_seed, bias);
      ReferenceNoise reference(p, model_seed, bias);
      Circuit buffer;
      for (int i = 0; i < kInjections; ++i) {
        const Circuit& got = model.inject(stream, n, buffer);
        const Circuit want = reference.inject(stream, n);
        std::ostringstream why;
        why << "p=" << p << " eta=" << (bias ? std::to_string(*bias) : "-")
            << " n=" << n << " injection " << i << ": ";
        if (got != want || got.name() != want.name()) {
          why << "circuit\n" << got.str() << "vs reference\n" << want.str();
          return OracleOutcome::fail(why.str());
        }
        if (!same_tally(model.tally(), reference.tally)) {
          why << "tally " << model.tally().total() << " vs reference "
              << reference.tally.total();
          return OracleOutcome::fail(why.str());
        }
        journal::SnapshotWriter saved;
        model.save(saved);
        if (saved.bytes() != reference.save_bytes()) {
          why << "save() bytes differ from the reference's";
          return OracleOutcome::fail(why.str());
        }
      }
    }
  }
  return OracleOutcome::pass();
}

// --- registry ---------------------------------------------------------

namespace {

OracleOutcome conjugation_adapter(const Circuit&, std::uint64_t) {
  return check_conjugation_tables();
}

OracleOutcome lut_window_adapter(const Circuit&, std::uint64_t seed) {
  return check_lut_window(seed);
}

OracleOutcome executor_determinism_adapter(const Circuit&,
                                           std::uint64_t seed) {
  return check_executor_determinism(seed);
}

OracleOutcome peek_vs_probe_adapter(const Circuit&, std::uint64_t seed) {
  return check_peek_vs_probe(seed);
}

OracleOutcome frame_core_adapter(const Circuit&, std::uint64_t seed) {
  return check_frame_core(seed);
}

}  // namespace

const std::vector<OracleSpec>& all_oracles() {
  static const std::vector<OracleSpec> kOracles = {
      {"conjugation", CircuitKind::kNone, conjugation_adapter, true},
      {"arbiter", CircuitKind::kStream, check_arbiter_stream, false},
      {"semantics", CircuitKind::kUnitaryT, check_frame_semantics, false},
      {"mirror-chp", CircuitKind::kUnitary, check_mirror_chp, false},
      {"mirror-qx", CircuitKind::kUnitaryT, check_mirror_qx, false},
      {"sampling", CircuitKind::kMeasured, check_sampling, false},
      {"backend-diff", CircuitKind::kUnitary, check_backend_diff, false},
      {"metamorphic", CircuitKind::kUnitary, check_metamorphic_injection,
       false},
      {"snapshot", CircuitKind::kUnitary, check_snapshot_roundtrip, false},
      {"chaos", CircuitKind::kMeasured, check_chaos_convergence, false},
      {"lut-window", CircuitKind::kNone, lut_window_adapter, false},
      {"serve-codec", CircuitKind::kStream, check_serve_codec, false},
      // io-fault and net-fault swap process-global fault backends in;
      // the parallel engine must never run them concurrently.
      {"io-fault", CircuitKind::kUnitary, check_io_fault, false, true},
      {"net-fault", CircuitKind::kUnitary, check_net_fault, false, true},
      {"executor-determinism", CircuitKind::kNone,
       executor_determinism_adapter, false},
      {"peek-vs-probe", CircuitKind::kNone, peek_vs_probe_adapter, false},
      {"frame-core", CircuitKind::kNone, frame_core_adapter, false},
      {"noise-draws", CircuitKind::kStream, check_noise_draws, false},
  };
  return kOracles;
}

const OracleSpec* find_oracle(const std::string& name) {
  for (const OracleSpec& spec : all_oracles()) {
    if (name == spec.name) {
      return &spec;
    }
  }
  return nullptr;
}

}  // namespace qpf::fuzz
