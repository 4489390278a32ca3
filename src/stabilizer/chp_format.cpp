#include "stabilizer/chp_format.h"

#include <sstream>
#include <stdexcept>

#include "circuit/error.h"

namespace qpf::stab {

std::string to_chp(const Circuit& circuit) {
  std::ostringstream os;
  os << "#\n";
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      switch (op.gate()) {
        case GateType::kH:
          os << "h " << op.qubit(0) << "\n";
          break;
        case GateType::kS:
          os << "p " << op.qubit(0) << "\n";
          break;
        case GateType::kCnot:
          os << "c " << op.control() << " " << op.target() << "\n";
          break;
        case GateType::kMeasureZ:
          os << "m " << op.qubit(0) << "\n";
          break;
        default:
          throw std::invalid_argument("to_chp: gate not in CHP set: " +
                                      op.str());
      }
    }
  }
  return os.str();
}

Circuit from_chp(const std::string& text) {
  std::istringstream is(text);
  std::string line;
  Circuit circuit{"chp"};
  std::size_t line_no = 0;
  bool in_header = true;
  while (std::getline(is, line)) {
    ++line_no;
    if (line.empty()) {
      continue;
    }
    if (in_header) {
      // The CHP header runs until a line starting with '#'.
      if (line[0] == '#') {
        in_header = false;
      }
      continue;
    }
    std::istringstream ls(line);
    char mnemonic = 0;
    ls >> mnemonic;
    unsigned long a = 0;
    unsigned long b = 0;
    switch (mnemonic) {
      case 'h':
        ls >> a;
        circuit.append(GateType::kH, static_cast<Qubit>(a));
        break;
      case 'p':
        ls >> a;
        circuit.append(GateType::kS, static_cast<Qubit>(a));
        break;
      case 'c':
        ls >> a >> b;
        circuit.append(GateType::kCnot, static_cast<Qubit>(a),
                       static_cast<Qubit>(b));
        break;
      case 'm':
        ls >> a;
        circuit.append(GateType::kMeasureZ, static_cast<Qubit>(a));
        break;
      default:
        throw QasmParseError("chp: bad mnemonic", line_no);
    }
    if (ls.fail()) {
      throw QasmParseError("chp: bad operands", line_no);
    }
  }
  return circuit;
}

Circuit expand_to_chp_gates(const Circuit& circuit) {
  Circuit out{circuit.name()};
  const auto q0 = [](const Operation& op) { return op.qubit(0); };
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      switch (op.gate()) {
        case GateType::kI:
          break;
        case GateType::kH:
        case GateType::kS:
        case GateType::kCnot:
        case GateType::kMeasureZ:
          out.append(op);
          break;
        case GateType::kX:  // X = H Z H = H S S H
          out.append(GateType::kH, q0(op));
          out.append(GateType::kS, q0(op));
          out.append(GateType::kS, q0(op));
          out.append(GateType::kH, q0(op));
          break;
        case GateType::kZ:  // Z = S S
          out.append(GateType::kS, q0(op));
          out.append(GateType::kS, q0(op));
          break;
        case GateType::kY:  // Y ~ Z X up to global phase
          out.append(GateType::kS, q0(op));
          out.append(GateType::kS, q0(op));
          out.append(GateType::kH, q0(op));
          out.append(GateType::kS, q0(op));
          out.append(GateType::kS, q0(op));
          out.append(GateType::kH, q0(op));
          break;
        case GateType::kSdag:  // S† = S S S
          out.append(GateType::kS, q0(op));
          out.append(GateType::kS, q0(op));
          out.append(GateType::kS, q0(op));
          break;
        case GateType::kCz:  // CZ = (I ⊗ H) CNOT (I ⊗ H)
          out.append(GateType::kH, op.target());
          out.append(GateType::kCnot, op.control(), op.target());
          out.append(GateType::kH, op.target());
          break;
        case GateType::kSwap:
          out.append(GateType::kCnot, op.control(), op.target());
          out.append(GateType::kCnot, op.target(), op.control());
          out.append(GateType::kCnot, op.control(), op.target());
          break;
        default:
          throw std::invalid_argument(
              "expand_to_chp_gates: not expressible in CHP: " + op.str());
      }
    }
  }
  return out;
}

}  // namespace qpf::stab
