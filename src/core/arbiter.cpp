#include "core/arbiter.h"

#include <stdexcept>

#include "circuit/bug_plant.h"
#include "circuit/error.h"
#include <utility>

namespace qpf::pf {

PauliArbiter::PauliArbiter(PauliFrameUnit& pfu, PelSink pel,
                           bool trace_enabled)
    : pfu_(pfu), pel_(std::move(pel)), trace_enabled_(trace_enabled) {
  if (!pel_) {
    throw StackConfigError("PauliArbiter", "null PEL sink");
  }
}

void PauliArbiter::forward(const Operation& op,
                           std::vector<Operation>* record) {
  pel_(op);
  if (record != nullptr) {
    record->push_back(op);
  }
}

Route PauliArbiter::submit(const Operation& op) {
  PauliFrame& frame = pfu_.frame();
  Route route;
  std::vector<Operation> forwarded;
  std::vector<Operation>* rec = trace_enabled_ ? &forwarded : nullptr;
  switch (category(op.gate())) {
    case GateCategory::kInitialization:
      // (a) Reset: forward to the PEL and clear the record.
      route = Route::kResetBoth;
      forward(op, rec);
      pfu_.process_reset(op.qubit(0));
      break;
    case GateCategory::kMeasurement:
      // (b) Measurement: forward; the result path maps the outcome.
      route = Route::kMeasureToPel;
      forward(op, rec);
      break;
    case GateCategory::kPauli:
      // (c) Pauli gate: absorb into the PFU, nothing reaches the PEL.
      route = Route::kPauliToPfu;
      if (op.gate() != GateType::kI) {
        frame.track(op.gate(), op.qubit(0));
      }
      if (plant::bug(11)) {  // mutation hook: absorbed gate leaks to PEL
        forward(op, rec);
      }
      break;
    case GateCategory::kClifford:
      // (d) Clifford: map the record(s) and forward the gate.
      route = Route::kCliffordBoth;
      frame.apply_clifford(op);
      forward(op, rec);
      break;
    case GateCategory::kNonClifford:
    default: {
      // (e) Non-Clifford: stall, flush the pending record(s) onto the
      // qubit(s), then forward the gate itself.
      route = Route::kFlushThenPel;
      for (int i = 0; i < op.arity(); ++i) {
        for (const Operation& pending : frame.flush(op.qubit(i))) {
          forward(pending, rec);
        }
      }
      forward(op, rec);
      break;
    }
  }
  if (trace_enabled_) {
    trace_.push_back(TraceEntry{op, route, std::move(forwarded)});
  }
  return route;
}

void PauliArbiter::submit(const Circuit& circuit) {
  for (const SlotView slot : circuit) {
    for (const Operation& op : slot) {
      submit(op);
    }
  }
}

}  // namespace qpf::pf
