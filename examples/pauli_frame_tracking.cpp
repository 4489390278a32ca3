// The Pauli Frame Unit datapath, operation by operation (thesis §3.5.2,
// Fig 3.12): submit a small program to the Pauli arbiter and print the
// route every operation takes, the gates that actually reach the
// Physical Execution Layer, and the evolving records.
//
//   $ ./examples/pauli_frame_tracking
#include <cstdio>
#include <string>

#include "core/arbiter.h"

int main() {
  using namespace qpf;
  using pf::PauliArbiter;
  using pf::PauliFrameUnit;

  std::printf("pauli_frame_tracking: the arbiter routes of Fig 3.12\n\n");

  PauliFrameUnit pfu(3);
  std::vector<Operation> pel;  // what actually reaches the hardware
  PauliArbiter arbiter(pfu, [&pel](const Operation& op) { pel.push_back(op); });

  Circuit program{"demo"};
  program.append(GateType::kPrepZ, 0);   // (a) reset
  program.append(GateType::kX, 0);       // (c) Pauli -> absorbed
  program.append(GateType::kH, 0);       // (d) Clifford -> record mapped
  program.append(GateType::kZ, 1);       // (c) Pauli -> absorbed
  program.append(GateType::kCnot, 0, 1); // (d) records propagate
  program.append(GateType::kT, 0);       // (e) non-Clifford -> flush first
  program.append(GateType::kMeasureZ, 1);// (b) result mapped on return

  std::printf("%-16s %-16s %-28s %s\n", "operation", "route",
              "forwarded to PEL", "records after");
  for (const SlotView slot : program) {
    for (const Operation& op : slot) {
      const std::size_t before = pel.size();
      const pf::Route route = arbiter.submit(op);
      std::string forwarded;
      for (std::size_t i = before; i < pel.size(); ++i) {
        forwarded += pel[i].str() + "; ";
      }
      if (forwarded.empty()) {
        forwarded = "(nothing)";
      }
      std::printf("%-16s %-16s %-28s %s\n", op.str().c_str(),
                  std::string(name(route)).c_str(), forwarded.c_str(),
                  pfu.frame().str().c_str());
    }
  }

  std::printf("\nmeasurement return path (Fig 3.12b steps 3-5):\n");
  std::printf("raw m(q1)=0 -> corrected %d\n",
              arbiter.on_measurement_result(1, false) ? 1 : 0);

  std::printf("\ntotals: %zu operations submitted, %zu reached the PEL\n",
              program.num_operations(), pel.size());
  return 0;
}
