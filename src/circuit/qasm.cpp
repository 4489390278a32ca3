#include "circuit/qasm.h"

#include <cctype>
#include <optional>
#include <sstream>
#include <vector>

#include "circuit/error.h"

namespace qpf {

namespace {

/// One whitespace-delimited token plus its 1-based column in the line.
struct Token {
  std::string text;
  std::size_t column = 0;
};

std::vector<Token> tokenize(const std::string& line) {
  std::vector<Token> tokens;
  std::size_t i = 0;
  while (i < line.size()) {
    if (std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
      continue;
    }
    const std::size_t begin = i;
    while (i < line.size() &&
           !std::isspace(static_cast<unsigned char>(line[i]))) {
      ++i;
    }
    tokens.push_back(Token{line.substr(begin, i - begin), begin + 1});
  }
  return tokens;
}

[[noreturn]] void fail(std::size_t line_no, const std::string& why,
                       std::optional<std::size_t> column = std::nullopt) {
  throw QasmParseError("qasm: " + why, line_no, column);
}

Qubit parse_qubit(const Token& token, std::size_t line_no,
                  std::size_t declared_qubits) {
  const std::string& text = token.text;
  if (text.size() < 2 || text[0] != 'q') {
    fail(line_no, "expected qubit operand like q3, got '" + text + "'",
         token.column);
  }
  unsigned long value = 0;
  for (std::size_t i = 1; i < text.size(); ++i) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      fail(line_no, "bad qubit index in '" + text + "'", token.column);
    }
    value = value * 10 + static_cast<unsigned long>(text[i] - '0');
    if (value > 0xFFFFFFFFul) {
      fail(line_no, "qubit index overflows in '" + text + "'", token.column);
    }
  }
  if (declared_qubits != 0 && value >= declared_qubits) {
    fail(line_no,
         "qubit index " + std::to_string(value) +
             " exceeds declared register of " +
             std::to_string(declared_qubits),
         token.column);
  }
  return static_cast<Qubit>(value);
}

}  // namespace

void write_qasm(std::ostream& os, const Circuit& circuit) {
  if (!circuit.name().empty()) {
    os << "# " << circuit.name() << "\n";
  }
  os << "qubits " << circuit.min_register_size() << "\n";
  bool first_slot = true;
  for (const SlotView slot : circuit) {
    if (!first_slot) {
      os << "|\n";
    }
    first_slot = false;
    for (const Operation& op : slot) {
      os << name(op.gate()) << " q" << op.qubit(0);
      if (op.arity() == 2) {
        os << ",q" << op.qubit(1);
      }
      os << "\n";
    }
  }
}

std::string to_qasm(const Circuit& circuit) {
  std::ostringstream os;
  write_qasm(os, circuit);
  return os.str();
}

Circuit read_qasm(std::istream& is) {
  Circuit circuit;
  TimeSlot slot;
  std::string line;
  std::size_t line_no = 0;
  bool slot_open = false;
  std::size_t declared_qubits = 0;  // 0 = no "qubits N" header seen
  while (std::getline(is, line)) {
    ++line_no;
    const std::vector<Token> tokens = tokenize(line);
    if (tokens.empty() || tokens[0].text[0] == '#') {
      continue;
    }
    const Token& head = tokens[0];
    if (head.text == "|") {
      if (tokens.size() > 1) {
        fail(line_no, "trailing token after slot boundary",
             tokens[1].column);
      }
      circuit.append_slot(std::move(slot));
      slot = TimeSlot{};
      slot_open = true;  // boundary seen; next ops open a fresh slot
      continue;
    }
    if (head.text == "qubits") {
      if (tokens.size() != 2) {
        fail(line_no, "qubits header needs exactly one count");
      }
      const std::string& count = tokens[1].text;
      unsigned long value = 0;
      for (const char c : count) {
        if (!std::isdigit(static_cast<unsigned char>(c))) {
          fail(line_no, "bad qubit count '" + count + "'", tokens[1].column);
        }
        value = value * 10 + static_cast<unsigned long>(c - '0');
        if (value > 0xFFFFFFFFul) {
          fail(line_no, "qubit count overflows", tokens[1].column);
        }
      }
      if (count.empty() || value == 0) {
        fail(line_no, "qubit count must be positive", tokens[1].column);
      }
      declared_qubits = value;
      continue;
    }
    const auto gate = parse_gate(head.text);
    if (!gate) {
      fail(line_no, "unknown gate '" + head.text + "'", head.column);
    }
    if (tokens.size() < 2) {
      fail(line_no, "missing operands");
    }
    if (tokens.size() > 2) {
      fail(line_no, "trailing token '" + tokens[2].text + "'",
           tokens[2].column);
    }
    const Token& operands = tokens[1];
    const std::size_t comma = operands.text.find(',');
    std::optional<Operation> op;
    if (arity(*gate) == 1) {
      if (comma != std::string::npos) {
        fail(line_no, "single-qubit gate with two operands", operands.column);
      }
      op.emplace(*gate, parse_qubit(operands, line_no, declared_qubits));
    } else {
      if (comma == std::string::npos) {
        fail(line_no, "two-qubit gate needs two operands", operands.column);
      }
      const Token first{operands.text.substr(0, comma), operands.column};
      const Token second{operands.text.substr(comma + 1),
                         operands.column + comma + 1};
      const Qubit c = parse_qubit(first, line_no, declared_qubits);
      const Qubit t = parse_qubit(second, line_no, declared_qubits);
      if (c == t) {
        fail(line_no, "two-qubit gate operands must differ", operands.column);
      }
      op.emplace(*gate, c, t);
    }
    // Greedy scheduling: a conflicting operation opens the next slot
    // implicitly; "|" lines force a boundary explicitly.
    if (slot.conflicts(*op)) {
      circuit.append_slot(std::move(slot));
      slot = TimeSlot{};
    }
    slot.add(*op);
    slot_open = true;
  }
  if (slot_open) {
    circuit.append_slot(std::move(slot));
  }
  return circuit;
}

Circuit from_qasm(const std::string& text) {
  std::istringstream is(text);
  return read_qasm(is);
}

}  // namespace qpf
