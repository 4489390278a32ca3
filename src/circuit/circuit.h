// Quantum circuits built from time slots (paper Fig 4.4).
//
// A circuit is an ordered list of time slots.  Within one time slot every
// qubit participates in at most one operation, so a slot models one
// machine cycle in which all its operations execute in parallel; every
// operation is assumed to take the same amount of time (thesis §4.2.2).
//
// Storage is flat: one operation array plus the end offset of every
// slot.  Slots are read through SlotView, a non-owning view of a run of
// operations, and clear() keeps both arrays' capacity, so a circuit used
// as a rewrite buffer stops allocating once it has seen its largest
// input.
#pragma once

#include <cstddef>
#include <iterator>
#include <string>
#include <string_view>
#include <vector>

#include "circuit/operation.h"

namespace qpf {

class TimeSlot;

/// Read-only view of a contiguous run of operations: one slot of a
/// Circuit, a TimeSlot, or (Circuit::operations()) a whole circuit.
/// Valid until the owner is next modified.
class SlotView {
 public:
  SlotView() = default;
  SlotView(const Operation* first, const Operation* last) noexcept
      : first_(first), last_(last) {}
  // Implicit, so a TimeSlot can be passed wherever a view is taken.
  SlotView(const TimeSlot& slot) noexcept;  // NOLINT(google-explicit-constructor)

  [[nodiscard]] const Operation* begin() const noexcept { return first_; }
  [[nodiscard]] const Operation* end() const noexcept { return last_; }
  [[nodiscard]] std::size_t size() const noexcept {
    return static_cast<std::size_t>(last_ - first_);
  }
  [[nodiscard]] bool empty() const noexcept { return first_ == last_; }
  [[nodiscard]] const Operation& operator[](std::size_t i) const noexcept {
    return first_[i];
  }
  [[nodiscard]] const Operation& front() const noexcept { return *first_; }
  [[nodiscard]] const Operation& back() const noexcept { return last_[-1]; }

  /// True if op shares a qubit with any operation in the view.
  [[nodiscard]] bool conflicts(const Operation& op) const noexcept;
  /// True if any operation in the view acts on q.
  [[nodiscard]] bool touches(Qubit q) const noexcept;

  /// Same operations in the same order.
  [[nodiscard]] bool operator==(const SlotView& other) const noexcept;

 private:
  const Operation* first_ = nullptr;
  const Operation* last_ = nullptr;
};

/// Builder for one parallel layer of operations, handed to
/// Circuit::append_slot.  Invariant: no qubit appears twice.
class TimeSlot {
 public:
  TimeSlot() = default;

  /// Add an operation; throws std::invalid_argument if it conflicts with
  /// an operation already in this slot (shared qubit).
  void add(const Operation& op);

  /// True if op shares a qubit with any operation already in the slot.
  [[nodiscard]] bool conflicts(const Operation& op) const noexcept {
    return SlotView(*this).conflicts(op);
  }

  /// True if any operation in the slot acts on q.
  [[nodiscard]] bool touches(Qubit q) const noexcept {
    return SlotView(*this).touches(q);
  }

  [[nodiscard]] const std::vector<Operation>& operations() const noexcept {
    return ops_;
  }
  [[nodiscard]] std::size_t size() const noexcept { return ops_.size(); }
  [[nodiscard]] bool empty() const noexcept { return ops_.empty(); }

  [[nodiscard]] auto begin() const noexcept { return ops_.begin(); }
  [[nodiscard]] auto end() const noexcept { return ops_.end(); }

 private:
  std::vector<Operation> ops_;
};

inline SlotView::SlotView(const TimeSlot& slot) noexcept
    : first_(slot.operations().data()),
      last_(slot.operations().data() + slot.size()) {}

/// An ordered sequence of time slots.
class Circuit {
 public:
  /// Iterates the slots as SlotViews.
  class const_iterator {
   public:
    using iterator_category = std::forward_iterator_tag;
    using value_type = SlotView;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = SlotView;

    const_iterator() = default;
    const_iterator(const Circuit* circuit, std::size_t slot) noexcept
        : circuit_(circuit), slot_(slot) {}

    [[nodiscard]] SlotView operator*() const noexcept {
      return circuit_->slot(slot_);
    }
    const_iterator& operator++() noexcept {
      ++slot_;
      return *this;
    }
    const_iterator operator++(int) noexcept {
      const_iterator before = *this;
      ++slot_;
      return before;
    }
    [[nodiscard]] bool operator==(const const_iterator& other) const noexcept {
      return slot_ == other.slot_;
    }

   private:
    const Circuit* circuit_ = nullptr;
    std::size_t slot_ = 0;
  };

  Circuit() = default;
  explicit Circuit(std::string name) : name_(std::move(name)) {}

  /// Greedy ASAP scheduling: place op in the last slot when possible,
  /// otherwise open a new slot.  Measurement and preparation schedule
  /// like any other operation.
  void append(const Operation& op);
  void append(GateType g, Qubit q) { append(Operation{g, q}); }
  void append(GateType g, Qubit control, Qubit target) {
    append(Operation{g, control, target});
  }

  /// Force op into a fresh time slot (sequential semantics).
  void append_in_new_slot(const Operation& op);

  /// Append a slot verbatim (empty slots are dropped).  A TimeSlot
  /// converts to a view.
  void append_slot(SlotView slot);

  /// Concatenate another circuit slot-by-slot (no re-packing).
  void append_circuit(const Circuit& other);

  /// Slot-by-slot building without a TimeSlot: push_op() adds op to an
  /// open slot at the end of the circuit and close_slot() ends it (an
  /// empty open slot adds nothing, like append_slot).  push_op() does
  /// not check for conflicts: the caller guarantees that one slot's
  /// operations touch distinct qubits.  Every other member sees only
  /// closed slots; close the open slot before using them.
  void push_op(const Operation& op) {
    widen(op);
    ops_.push_back(op);
  }
  void close_slot() {
    if (ops_.size() > num_operations()) {
      ends_.push_back(ops_.size());
    }
  }

  /// Remove every slot and the name, keeping the storage capacity.
  void clear() noexcept {
    name_.clear();
    ops_.clear();
    ends_.clear();
    width_ = 0;
  }

  [[nodiscard]] const std::string& name() const noexcept { return name_; }
  void set_name(std::string_view n) { name_.assign(n.data(), n.size()); }

  [[nodiscard]] std::size_t num_slots() const noexcept { return ends_.size(); }
  [[nodiscard]] std::size_t num_operations() const noexcept {
    return ends_.empty() ? 0 : ends_.back();
  }
  [[nodiscard]] bool empty() const noexcept { return ends_.empty(); }

  /// Slot i (0-based, i < num_slots()).
  [[nodiscard]] SlotView slot(std::size_t i) const noexcept {
    return SlotView(ops_.data() + (i == 0 ? 0 : ends_[i - 1]),
                    ops_.data() + ends_[i]);
  }
  /// Every operation, slot after slot.
  [[nodiscard]] SlotView operations() const noexcept {
    return SlotView(ops_.data(), ops_.data() + num_operations());
  }

  /// Count of operations with the given gate type.
  [[nodiscard]] std::size_t count(GateType g) const noexcept;
  /// Count of operations in the given Pauli-frame category.
  [[nodiscard]] std::size_t count(GateCategory c) const noexcept;

  /// Smallest register size able to run this circuit (max index + 1);
  /// 0 for an empty circuit.
  [[nodiscard]] std::size_t min_register_size() const noexcept {
    return width_;
  }

  /// Multi-line "slot k: op; op; ..." rendering.
  [[nodiscard]] std::string str() const;

  [[nodiscard]] const_iterator begin() const noexcept { return {this, 0}; }
  [[nodiscard]] const_iterator end() const noexcept {
    return {this, num_slots()};
  }

  [[nodiscard]] bool operator==(const Circuit& other) const noexcept;

 private:
  void widen(const Operation& op) noexcept {
    if (op.max_qubit() >= width_) {
      width_ = std::size_t{op.max_qubit()} + 1;
    }
  }

  std::string name_;
  std::vector<Operation> ops_;
  std::vector<std::size_t> ends_;  ///< one past slot i's last op, in ops_
  std::size_t width_ = 0;          ///< min_register_size(), kept by appends
};

}  // namespace qpf
