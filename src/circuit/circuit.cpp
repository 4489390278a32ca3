#include "circuit/circuit.h"

#include <algorithm>
#include <functional>
#include <stdexcept>

namespace qpf {

bool SlotView::conflicts(const Operation& op) const noexcept {
  if (touches(op.qubit(0))) {
    return true;
  }
  return op.arity() == 2 && touches(op.qubit(1));
}

bool SlotView::touches(Qubit q) const noexcept {
  return std::any_of(begin(), end(),
                     [q](const Operation& op) { return op.touches(q); });
}

bool SlotView::operator==(const SlotView& other) const noexcept {
  return std::equal(begin(), end(), other.begin(), other.end());
}

void TimeSlot::add(const Operation& op) {
  if (conflicts(op)) {
    throw std::invalid_argument("time-slot conflict: qubit already busy");
  }
  ops_.push_back(op);
}

void Circuit::append(const Operation& op) {
  if (empty() || slot(num_slots() - 1).conflicts(op)) {
    append_in_new_slot(op);
    return;
  }
  widen(op);
  ops_.push_back(op);
  ++ends_.back();
}

void Circuit::append_in_new_slot(const Operation& op) {
  widen(op);
  ops_.push_back(op);
  ends_.push_back(ops_.size());
}

void Circuit::append_slot(SlotView slot) {
  const std::less_equal<const Operation*> le;
  if (!slot.empty() && le(ops_.data(), slot.begin()) &&
      le(slot.end(), ops_.data() + ops_.size())) {
    // A view into this circuit: copy it before ops_ can reallocate.
    const std::vector<Operation> copy(slot.begin(), slot.end());
    append_slot(SlotView(copy.data(), copy.data() + copy.size()));
    return;
  }
  for (const Operation& op : slot) {
    widen(op);
  }
  ops_.insert(ops_.end(), slot.begin(), slot.end());
  close_slot();
}

void Circuit::append_circuit(const Circuit& other) {
  if (&other == this) {
    const Circuit copy = other;
    append_circuit(copy);
    return;
  }
  for (const SlotView slot : other) {
    append_slot(slot);
  }
}

std::size_t Circuit::count(GateType g) const noexcept {
  const SlotView ops = operations();
  return static_cast<std::size_t>(std::count_if(
      ops.begin(), ops.end(),
      [g](const Operation& op) { return op.gate() == g; }));
}

std::size_t Circuit::count(GateCategory c) const noexcept {
  const SlotView ops = operations();
  return static_cast<std::size_t>(std::count_if(
      ops.begin(), ops.end(),
      [c](const Operation& op) { return category(op.gate()) == c; }));
}

std::string Circuit::str() const {
  std::string out;
  if (!name_.empty()) {
    out += "circuit ";
    out += name_;
    out += '\n';
  }
  for (std::size_t i = 0; i < num_slots(); ++i) {
    out += "slot ";
    out += std::to_string(i);
    out += ':';
    for (const Operation& op : slot(i)) {
      out += ' ';
      out += op.str();
      out += ';';
    }
    out += '\n';
  }
  return out;
}

bool Circuit::operator==(const Circuit& other) const noexcept {
  return ends_ == other.ends_ && operations() == other.operations();
}

}  // namespace qpf
