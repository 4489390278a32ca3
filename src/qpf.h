// Umbrella header: the full public API of the QPF library.
//
// Include granular headers in production code; this header exists for
// quick experiments and as a map of the library surface.
//
//   qpf::            circuit IR (gates, operations, time slots, QASM)
//   qpf::sv          dense state-vector simulation (QX substitute)
//   qpf::stab        stabilizer tableau simulation (CHP substitute)
//   qpf::pf          Pauli frames: records, frame, arbiter, schedule
//   qpf::qec         SC17, decoders, distance-d codes, noise models,
//                    lattice surgery, Steane code
//   qpf::arch        QPDO control stacks: cores, layers, experiments
//   qpf::qcu         the Quantum Control Unit, QISA and the compiler
//   qpf::stats       summary statistics and t-tests
//   qpf::cli         the qpf_run tool's engine
#pragma once

// Circuit IR.
#include "circuit/circuit.h"
#include "circuit/gate.h"
#include "circuit/operation.h"
#include "circuit/qasm.h"
#include "circuit/random.h"
#include "circuit/stats.h"

// Simulators.
#include "stabilizer/chp_format.h"
#include "stabilizer/pauli_string.h"
#include "stabilizer/tableau.h"
#include "statevector/simulator.h"

// Pauli frames (the paper's contribution).
#include "core/arbiter.h"
#include "core/pauli_frame.h"
#include "core/pauli_record.h"
#include "core/schedule.h"

// Quantum error correction.
#include "qec/depolarizing.h"
#include "qec/lattice_surgery.h"
#include "qec/lut_decoder.h"
#include "qec/ninja_star.h"
#include "qec/steane.h"
#include "qec/surface_code.h"

// QPDO architecture.
#include "arch/chp_core.h"
#include "arch/control_stack.h"
#include "arch/core_interface.h"
#include "arch/counter_layer.h"
#include "arch/error_layer.h"
#include "arch/layer.h"
#include "arch/ninja_star_layer.h"
#include "arch/pauli_frame_layer.h"
#include "arch/qx_core.h"
#include "arch/steane_layer.h"
#include "arch/testbench.h"
#include "arch/timing_layer.h"

// Quantum Control Unit.
#include "qcu/compiler.h"
#include "qcu/isa.h"
#include "qcu/qcu.h"
#include "qcu/symbol_table.h"

// Statistics.
#include "stats/summary.h"
#include "stats/ttest.h"
