// Watch the QEC machinery at work: inject physical errors under a ninja
// star and follow syndrome extraction, decoding and correction — once
// with corrections applied on the qubits, once absorbed by a Pauli
// frame.
//
//   $ ./examples/error_correction_demo
#include <cstdio>

#include "arch/chp_core.h"
#include "arch/counter_layer.h"
#include "arch/ninja_star_layer.h"
#include "arch/pauli_frame_layer.h"

namespace {

using namespace qpf;

void print_syndrome(qec::Syndrome s) {
  std::printf("syndrome [X-checks a0..a3 | Z-checks a4..a7] = ");
  for (int a = 0; a < 8; ++a) {
    if (a == 4) {
      std::printf("| ");
    }
    std::printf("%c ", (s >> a) & 1 ? '-' : '+');
  }
  std::printf("\n");
}

void demo(bool with_pauli_frame) {
  std::printf("\n================ %s pauli frame ================\n",
              with_pauli_frame ? "WITH" : "WITHOUT");
  arch::ChpCore core(99);
  arch::PauliFrameLayer frame(&core);
  arch::CounterLayer counter(with_pauli_frame
                                 ? static_cast<arch::Core*>(&frame)
                                 : static_cast<arch::Core*>(&core));
  arch::NinjaStarLayer ninja(&counter);
  ninja.create_qubits(1);
  ninja.initialize(0, qec::CheckType::kZ);
  counter.reset_counters();

  std::printf("inject physical X error on data qubit D4...\n");
  Circuit error;
  error.append(GateType::kX, ninja.layout().data_qubit(0, 4));
  arch::run(core, error);  // straight onto the device, below every layer

  print_syndrome(ninja.probe_syndrome(0));
  std::printf("run one QEC window (2 ESM rounds + LUT decode + correct)\n");
  const auto ops_before = counter.counters().operations;
  ninja.run_window(0);
  const auto ops_after = counter.counters().operations;
  print_syndrome(ninja.probe_syndrome(0));
  std::printf("operations that reached the %s: %zu\n",
              with_pauli_frame ? "frame layer" : "device",
              ops_after - ops_before);
  if (with_pauli_frame) {
    std::printf("frame records now: %s  (the X correction lives here, the\n"
                "device still carries the error — measurements are fixed\n"
                "on readout)\n",
                frame.frame().str().c_str());
  }
  std::printf("logical Z0Z4Z8 probe: %+d (state intact)\n",
              ninja.measure_logical_stabilizer(0, qec::CheckType::kZ));

  std::printf("\ninject a Y error on D0 (both X and Z component)...\n");
  Circuit error2;
  error2.append(GateType::kY, ninja.layout().data_qubit(0, 0));
  arch::run(core, error2);
  print_syndrome(ninja.probe_syndrome(0));
  ninja.run_window(0);
  print_syndrome(ninja.probe_syndrome(0));
  std::printf("logical Z0Z4Z8 probe: %+d\n",
              ninja.measure_logical_stabilizer(0, qec::CheckType::kZ));
}

}  // namespace

int main() {
  std::printf("error_correction_demo: SC17 + LUT decoder in action "
              "(thesis Chapters 3 and 5)\n");
  demo(/*with_pauli_frame=*/false);
  demo(/*with_pauli_frame=*/true);
  std::printf("\nSame corrections either way — but with the frame they cost "
              "zero quantum operations and zero time slots.\n");
  return 0;
}
