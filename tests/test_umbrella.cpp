// The umbrella header must compile and expose the whole surface.
#include "qpf.h"

#include <gtest/gtest.h>

namespace {

TEST(UmbrellaTest, EndToEndSmoke) {
  // One object from every major namespace, composed.
  qpf::arch::QxCore core(1);
  qpf::arch::PauliFrameLayer frame(&core);
  frame.create_qubits(2);
  qpf::Circuit circuit;
  circuit.append(qpf::GateType::kX, 0);
  circuit.append(qpf::GateType::kMeasureZ, 0);
  frame.add(circuit);
  frame.execute();
  EXPECT_EQ(frame.get_state()[0], qpf::arch::BinaryValue::kOne);

  const qpf::qec::SurfaceCodeLayout layout(3);
  EXPECT_EQ(layout.checks().size(), 8u);
  const qpf::qec::LatticeSurgery surgery;
  EXPECT_FALSE(surgery.xx_check_subset().empty());
  EXPECT_GT(qpf::pf::upper_bound_relative_improvement(3, 8), 0.05);
  EXPECT_EQ(qpf::qcu::mnemonic(qpf::qcu::Opcode::kQecSlot), "qec");
  EXPECT_NEAR(qpf::stats::incomplete_beta(1.0, 1.0, 0.25), 0.25, 1e-12);
}

}  // namespace
