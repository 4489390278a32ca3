// Regenerates the §5.1 logical-operation verification experiments:
//   Listing 5.1 — the nine-qubit |0>_L state after initialization,
//   Listing 5.2 — the |1>_L state after X_L,
//   H_L behaviour checks,
//   Table 5.5  — CNOT_L truth table,
//   Table 5.6  — CZ_L truth table,
//   Table 5.8  — ESM circuit structure.
#include <cstdio>
#include <string>

#include "bench_json.h"
#include "ler_common.h"
#include "arch/chp_core.h"
#include "arch/ninja_star_layer.h"
#include "arch/qx_core.h"
#include "stabilizer/pauli_string.h"

namespace {

using namespace qpf;
using arch::BinaryValue;
using arch::ChpCore;
using arch::NinjaStarLayer;
using arch::QxCore;
using qec::CheckType;

// Render only the 9 data qubits of the 17-qubit state (Listing style).
void print_data_state(const sv::StateVector& state) {
  for (std::size_t basis = 0; basis < state.dimension(); ++basis) {
    const auto amp = state.amplitude(basis);
    if (std::abs(amp) < 1e-9) {
      continue;
    }
    std::string bits;
    for (int q = 8; q >= 0; --q) {
      bits += (basis >> q) & 1 ? '1' : '0';
    }
    std::printf("(%.2f%+.0fj) |%s>\n", amp.real(), amp.imag(), bits.c_str());
  }
}

void listing_states() {
  std::printf("=== Listing 5.1: |0>_L after ninja-star initialization ===\n");
  QxCore core(3);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  print_data_state(*ninja.get_quantum_state());

  std::printf("\n=== Listing 5.2: |1>_L after logical X ===\n");
  Circuit logical;
  logical.append(GateType::kX, 0);
  ninja.add(logical);
  ninja.execute();
  print_data_state(*ninja.get_quantum_state());
}

void hadamard_checks() {
  std::printf("\n=== H_L verification (§5.1.4) ===\n");
  ChpCore core(7);
  NinjaStarLayer ninja(&core);
  ninja.create_qubits(1);
  ninja.initialize(0, CheckType::kZ);
  Circuit h;
  h.append(GateType::kH, 0);
  ninja.add(h);
  ninja.execute();
  const int xl = core.tableau()->expectation(
      stab::PauliString::parse("X0X4X8", 17));
  std::printf("H_L|0>_L stabilized by +X_L chain: %s\n",
              xl == +1 ? "yes" : "NO");
  // X_L |+>_L = |+>_L: the state is unchanged, Z_L-chain remains random.
  Circuit x;
  x.append(GateType::kX, 0);
  ninja.add(x);
  ninja.execute();
  const int xl_after = core.tableau()->expectation(
      stab::PauliString::parse("X0X4X8", 17));
  std::printf("X_L fixes |+>_L: %s\n", xl_after == +1 ? "yes" : "NO");
  // Z_L |+>_L = |->_L.
  Circuit z;
  z.append(GateType::kZ, 0);
  ninja.add(z);
  ninja.execute();
  const int minus = core.tableau()->expectation(
      stab::PauliString::parse("-X0X4X8", 17));
  std::printf("Z_L|+>_L = |->_L: %s\n", minus == +1 ? "yes" : "NO");
}

const char* ket(bool c, bool t) {
  static const char* kets[] = {"|0100>L", "|1100>L", "|0110>L", "|1110>L"};
  return kets[(c ? 1 : 0) + (t ? 2 : 0)];
}

/// Returns the number of matching rows (of 4).
std::size_t truth_table(GateType gate, const char* table_name) {
  std::printf("\n=== %s ===\n", table_name);
  std::printf("%-12s %-12s %-12s\n", "Initial", "Expected", "Simulated");
  std::size_t matches = 0;
  for (int pattern = 0; pattern < 4; ++pattern) {
    const bool c_in = pattern & 1;
    const bool t_in = pattern & 2;
    bool c_expect = c_in;
    bool t_expect = gate == GateType::kCnot ? (t_in != c_in) : t_in;
    ChpCore core(static_cast<std::uint64_t>(31 + pattern));
    NinjaStarLayer ninja(&core);
    ninja.create_qubits(2);
    ninja.initialize(0, CheckType::kZ);
    ninja.initialize(1, CheckType::kZ);
    Circuit logical;
    if (c_in) {
      logical.append(GateType::kX, 0);
    }
    if (t_in) {
      logical.append(GateType::kX, 1);
    }
    logical.append(gate, 0, 1);
    logical.append(GateType::kMeasureZ, 0);
    logical.append(GateType::kMeasureZ, 1);
    ninja.add(logical);
    ninja.execute();
    const auto state = ninja.get_state();
    const bool c_out = state[0] == BinaryValue::kOne;
    const bool t_out = state[1] == BinaryValue::kOne;
    const bool match = c_out == c_expect && t_out == t_expect;
    matches += match ? 1 : 0;
    std::printf("%-12s %-12s %-12s %s\n", ket(c_in, t_in),
                ket(c_expect, t_expect), ket(c_out, t_out),
                match ? "ok" : "MISMATCH");
  }
  return matches;
}

void esm_structure() {
  std::printf("\n=== Table 5.8: ESM circuit structure ===\n");
  const qec::SurfaceCodeLayout layout(3);
  const Circuit esm = layout.esm_circuit(0, qec::Orientation::kNormal);
  std::printf("time slots: %zu (paper: 8)\n", esm.num_slots());
  std::printf("gates:      %zu (paper: 48)\n", esm.num_operations());
  std::size_t slot_index = 1;
  for (const SlotView slot : esm) {
    std::printf("  slot %zu: %2zu ops  (", slot_index++, slot.size());
    GateType last = slot.front().gate();
    std::size_t count = 0;
    for (const Operation& op : slot) {
      if (op.gate() != last) {
        std::printf("%zux %s, ", count, std::string(name(last)).c_str());
        last = op.gate();
        count = 0;
      }
      ++count;
    }
    std::printf("%zux %s)\n", count, std::string(name(last)).c_str());
  }
}

}  // namespace

int main(int argc, char** argv) {
  qpf::bench::BenchCli cli("bench_logical_ops", argc, argv);
  cli.require_no_extra_args();
  qpf::bench::announce_seed("bench_logical_ops", 7);
  std::printf("bench_logical_ops: SC17 logical operation verification "
              "(thesis §5.1)\n\n");
  const qpf::bench::WallTimer timer;
  listing_states();
  hadamard_checks();
  const std::size_t cnot_ok =
      truth_table(GateType::kCnot, "Table 5.5: CNOT_L truth table");
  const std::size_t cz_ok = truth_table(
      GateType::kCz, "Table 5.6: CZ_L truth table (Z-basis values)");
  esm_structure();
  cli.report.wall_ms = timer.ms();
  cli.report.stats.emplace_back();
  cli.report.stats.back()
      .text("check", "cnot_truth_table")
      .uinteger("matches", cnot_ok)
      .uinteger("rows", 4);
  cli.report.stats.emplace_back();
  cli.report.stats.back()
      .text("check", "cz_truth_table")
      .uinteger("matches", cz_ok)
      .uinteger("rows", 4);
  return cli.finish();
}
