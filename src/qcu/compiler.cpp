#include "qcu/compiler.h"

#include <stdexcept>

#include "circuit/error.h"
#include <vector>

#include "qcu/symbol_table.h"
#include "qec/surface_code.h"

namespace qpf::qcu {

namespace {

using qec::Orientation;

constexpr std::uint16_t kStride = QSymbolTable::kPatchStride;

struct PatchState {
  bool alive = false;
  Orientation orientation = Orientation::kNormal;
};

std::uint16_t virtual_qubit(Qubit logical, int data) {
  return static_cast<std::uint16_t>(logical * kStride +
                                    static_cast<unsigned>(data));
}

}  // namespace

std::vector<Instruction> compile(const Circuit& logical,
                                 const CompileOptions& options) {
  const qec::SurfaceCodeLayout layout(3);
  const int num_data = static_cast<int>(layout.num_data());
  std::vector<Instruction> program;
  std::vector<PatchState> patches(logical.min_register_size());

  const auto require_alive = [&](Qubit q) -> PatchState& {
    PatchState& patch = patches.at(q);
    if (!patch.alive) {
      // Auto-allocate on first use so plain gate-only circuits compile.
      program.push_back({Opcode::kMapPatch, static_cast<std::uint16_t>(q),
                         static_cast<std::uint16_t>(q)});
      patch.alive = true;
      patch.orientation = Orientation::kNormal;
    }
    return patch;
  };
  const auto emit_qec = [&] {
    for (std::size_t i = 0; i < options.qec_slots_per_operation; ++i) {
      program.push_back({Opcode::kQecSlot, 0, 0});
    }
  };
  const auto emit_chain = [&](Qubit q, Opcode op,
                              const std::vector<int>& chain) {
    for (int d : chain) {
      program.push_back({op, virtual_qubit(q, d), 0});
    }
  };

  for (const SlotView slot : logical) {
    for (const Operation& op : slot) {
      switch (op.gate()) {
        case GateType::kPrepZ: {
          PatchState& patch = patches.at(op.qubit(0));
          if (patch.alive) {
            program.push_back({Opcode::kUnmapPatch,
                               static_cast<std::uint16_t>(op.qubit(0)), 0});
          }
          program.push_back({Opcode::kMapPatch,
                             static_cast<std::uint16_t>(op.qubit(0)),
                             static_cast<std::uint16_t>(op.qubit(0))});
          patch.alive = true;
          patch.orientation = Orientation::kNormal;
          break;
        }
        case GateType::kMeasureZ:
          require_alive(op.qubit(0));
          program.push_back({Opcode::kLogicalMeasure,
                             static_cast<std::uint16_t>(op.qubit(0)), 0});
          break;
        case GateType::kI:
          require_alive(op.qubit(0));
          emit_qec();
          break;
        case GateType::kX: {
          const PatchState& patch = require_alive(op.qubit(0));
          emit_chain(op.qubit(0), Opcode::kX,
                     layout.logical_x_data(patch.orientation));
          emit_qec();
          break;
        }
        case GateType::kZ: {
          const PatchState& patch = require_alive(op.qubit(0));
          emit_chain(op.qubit(0), Opcode::kZ,
                     layout.logical_z_data(patch.orientation));
          emit_qec();
          break;
        }
        case GateType::kY: {
          const PatchState& patch = require_alive(op.qubit(0));
          emit_chain(op.qubit(0), Opcode::kZ,
                     layout.logical_z_data(patch.orientation));
          emit_chain(op.qubit(0), Opcode::kX,
                     layout.logical_x_data(patch.orientation));
          emit_qec();
          break;
        }
        case GateType::kH: {
          PatchState& patch = require_alive(op.qubit(0));
          for (int d = 0; d < num_data; ++d) {
            program.push_back(
                {Opcode::kH, virtual_qubit(op.qubit(0), d), 0});
          }
          patch.orientation = qec::flip(patch.orientation);
          emit_qec();
          break;
        }
        case GateType::kCnot: {
          const PatchState& control = require_alive(op.control());
          const PatchState& target = require_alive(op.target());
          const bool same = control.orientation == target.orientation;
          for (int n = 0; n < num_data; ++n) {
            const int m = same ? n : layout.rotated_partner(n);
            program.push_back({Opcode::kCnot,
                               virtual_qubit(op.control(), n),
                               virtual_qubit(op.target(), m)});
          }
          emit_qec();
          break;
        }
        case GateType::kCz: {
          const PatchState& a = require_alive(op.control());
          const PatchState& b = require_alive(op.target());
          // Inverted pairing rule relative to CNOT_L (§2.6.1).
          const bool same = a.orientation == b.orientation;
          for (int n = 0; n < num_data; ++n) {
            const int m = same ? layout.rotated_partner(n) : n;
            program.push_back({Opcode::kCz, virtual_qubit(op.control(), n),
                               virtual_qubit(op.target(), m)});
          }
          emit_qec();
          break;
        }
        default:
          throw QcuError("compile",
                         "no fault-tolerant SC17 implementation for " +
                             op.str());
      }
    }
  }
  if (options.emit_halt) {
    program.push_back({Opcode::kHalt, 0, 0});
  }
  return program;
}

}  // namespace qpf::qcu
