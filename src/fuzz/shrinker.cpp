#include "fuzz/shrinker.h"

#include <algorithm>
#include <map>
#include <vector>

namespace qpf::fuzz {

namespace {

Circuit without_slots(const Circuit& circuit, std::size_t lo, std::size_t hi) {
  Circuit out;
  for (std::size_t s = 0; s < circuit.num_slots(); ++s) {
    if (s < lo || s >= hi) {
      out.append_slot(circuit.slot(s));
    }
  }
  return out;
}

Circuit without_op(const Circuit& circuit, std::size_t slot_index,
                   std::size_t op_index) {
  Circuit out;
  for (std::size_t s = 0; s < circuit.num_slots(); ++s) {
    if (s != slot_index) {
      out.append_slot(circuit.slot(s));
      continue;
    }
    TimeSlot slot;
    const SlotView ops = circuit.slot(s);
    for (std::size_t i = 0; i < ops.size(); ++i) {
      if (i != op_index) {
        slot.add(ops[i]);
      }
    }
    out.append_slot(std::move(slot));  // empty slots are dropped
  }
  return out;
}

/// Remap the used qubits onto a dense prefix 0..k-1 (order-preserving).
Circuit compacted(const Circuit& circuit) {
  std::map<Qubit, Qubit> remap;
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      for (int i = 0; i < op.arity(); ++i) {
        remap.emplace(op.qubit(i), 0);
      }
    }
  }
  Qubit next = 0;
  for (auto& [from, to] : remap) {
    to = next++;
  }
  Circuit out;
  for (const SlotView slot : circuit) {
    TimeSlot mapped;
    for (const Operation& op : slot) {
      mapped.add(op.arity() == 1
                     ? Operation{op.gate(), remap.at(op.qubit(0))}
                     : Operation{op.gate(), remap.at(op.qubit(0)),
                                 remap.at(op.qubit(1))});
    }
    out.append_slot(std::move(mapped));
  }
  return out;
}

}  // namespace

ShrinkResult shrink_circuit(
    const Circuit& failing,
    const std::function<bool(const Circuit&)>& still_fails,
    std::size_t max_evaluations) {
  ShrinkResult result;
  result.circuit = failing;

  const auto try_candidate = [&](const Circuit& candidate) {
    if (result.evaluations >= max_evaluations) {
      return false;
    }
    ++result.evaluations;
    if (still_fails(candidate)) {
      result.circuit = candidate;
      return true;
    }
    return false;
  };

  // Pass 1: slot-level ddmin.
  std::size_t chunk = std::max<std::size_t>(1, result.circuit.num_slots() / 2);
  while (chunk >= 1 && result.evaluations < max_evaluations) {
    bool reduced = false;
    for (std::size_t lo = 0; lo < result.circuit.num_slots();) {
      const std::size_t hi =
          std::min(lo + chunk, result.circuit.num_slots());
      if (hi - lo < result.circuit.num_slots() &&
          try_candidate(without_slots(result.circuit, lo, hi))) {
        reduced = true;  // slots shifted down; retry the same offset
      } else {
        lo = hi;
      }
      if (result.evaluations >= max_evaluations) {
        break;
      }
    }
    if (!reduced) {
      if (chunk == 1) {
        break;
      }
      chunk /= 2;
    }
  }

  // Pass 2: individual gate pruning until a fixpoint.
  bool pruned = true;
  while (pruned && result.evaluations < max_evaluations) {
    pruned = false;
    for (std::size_t s = 0; s < result.circuit.num_slots() && !pruned; ++s) {
      const std::size_t ops = result.circuit.slot(s).size();
      for (std::size_t i = 0; i < ops; ++i) {
        if (result.circuit.num_operations() <= 1) {
          break;
        }
        if (try_candidate(without_op(result.circuit, s, i))) {
          pruned = true;  // indices shifted; restart the scan
          break;
        }
        if (result.evaluations >= max_evaluations) {
          break;
        }
      }
    }
  }

  // Pass 3: dense qubit renumbering (may change the register size the
  // oracle derives, so it must still fail to be accepted).
  const Circuit dense = compacted(result.circuit);
  if (!(dense == result.circuit)) {
    try_candidate(dense);
  }
  return result;
}

}  // namespace qpf::fuzz
