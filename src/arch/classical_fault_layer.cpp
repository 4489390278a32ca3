#include "arch/classical_fault_layer.h"

#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "circuit/error.h"
#include "journal/run_journal.h"

namespace qpf::arch {

namespace {

void require_rate(double p, const char* kind) {
  if (!(p >= 0.0 && p <= 1.0)) {  // NaN fails too
    throw StackConfigError("ClassicalFaultLayer",
                           std::string(kind) + " rate out of [0,1]");
  }
}

}  // namespace

void write_chaos_fields(journal::JournalEntry& entry, const ChaosConfig& chaos) {
  char stall_ns[40];
  std::snprintf(stall_ns, sizeof stall_ns, "%.17g", chaos.stall_ns);
  entry.fields["chaos_seed"] = std::to_string(chaos.seed);
  entry.fields["chaos_min_gap"] = std::to_string(chaos.min_gap);
  entry.fields["chaos_max_gap"] = std::to_string(chaos.max_gap);
  entry.fields["chaos_crash_w"] = std::to_string(chaos.crash_weight);
  entry.fields["chaos_stall_w"] = std::to_string(chaos.stall_weight);
  entry.fields["chaos_burst_w"] = std::to_string(chaos.burst_weight);
  entry.fields["chaos_stall_ns"] = stall_ns;
  entry.fields["chaos_burst_len"] = std::to_string(chaos.burst_length);
}

ClassicalFaultLayer::ClassicalFaultLayer(Core* lower,
                                         ClassicalFaultRates rates,
                                         std::uint64_t seed)
    : ClassicalFaultLayer(lower, rates, seed, ChaosConfig{}) {}

ClassicalFaultLayer::ClassicalFaultLayer(Core* lower,
                                         ClassicalFaultRates rates,
                                         std::uint64_t seed,
                                         const ChaosConfig& chaos)
    : Layer(lower), rates_(rates), rng_(seed), chaos_(chaos) {
  require_rate(rates.drop, "drop");
  require_rate(rates.duplicate, "duplicate");
  require_rate(rates.reorder, "reorder");
  require_rate(rates.readout_flip, "readout-flip");
  if (chaos_.min_gap > chaos_.max_gap) {
    throw StackConfigError("ClassicalFaultLayer",
                           "chaos min gap exceeds max gap");
  }
  if (chaos_.stall_ns < 0.0) {
    throw StackConfigError("ClassicalFaultLayer", "negative chaos stall");
  }
  if (chaos_.burst_weight > 0 && chaos_.burst_length == 0) {
    throw StackConfigError("ClassicalFaultLayer",
                           "chaos burst length must be at least 1");
  }
  if (chaos_.any()) {
    chaos_lcg_ = chaos_.seed;
    chaos_countdown_ = chaos_gap();
  }
}

bool ClassicalFaultLayer::flip(double probability) const {
  return probability > 0.0 && uniform_(rng_) < probability;
}

std::uint64_t ClassicalFaultLayer::chaos_draw(std::uint64_t bound) {
  // Deterministic 64-bit LCG (same constants as the campaign seed
  // chain); the high bits feed the draw.
  chaos_lcg_ =
      chaos_lcg_ * 6364136223846793005ULL + 1442695040888963407ULL;
  return bound == 0 ? 0 : (chaos_lcg_ >> 33) % bound;
}

std::uint64_t ClassicalFaultLayer::chaos_gap() {
  const std::uint64_t span = chaos_.max_gap - chaos_.min_gap + 1;
  const std::uint64_t gap = chaos_.min_gap + chaos_draw(span);
  return gap == 0 ? 1 : gap;
}

void ClassicalFaultLayer::chaos_crash(const char* where) {
  ++chaos_tally_.crashes;
  throw TransientFaultError(
      "classical-fault-layer",
      std::string("injected transient fault in ") + where, chaos_calls_);
}

ClassicalFaultLayer::ChaosAction ClassicalFaultLayer::chaos_tick() {
  ++chaos_calls_;
  if (burst_remaining_ > 0) {
    --burst_remaining_;
    return chaos_draw(2) == 0 ? ChaosAction::kCrashPre
                              : ChaosAction::kCrashPost;
  }
  if (chaos_countdown_ > 1) {
    --chaos_countdown_;
    return ChaosAction::kNone;
  }
  chaos_countdown_ = chaos_gap();
  const std::uint64_t total = static_cast<std::uint64_t>(chaos_.crash_weight) +
                              chaos_.stall_weight + chaos_.burst_weight;
  const std::uint64_t r = chaos_draw(total);
  if (r < chaos_.crash_weight) {
    return chaos_draw(2) == 0 ? ChaosAction::kCrashPre
                              : ChaosAction::kCrashPost;
  }
  if (r < static_cast<std::uint64_t>(chaos_.crash_weight) +
              chaos_.stall_weight) {
    ++chaos_tally_.stalls;
    chaos_tally_.stalled_ns += chaos_.stall_ns;
    pending_stall_ns_ += chaos_.stall_ns;
    return ChaosAction::kNone;
  }
  ++chaos_tally_.bursts;
  burst_remaining_ = chaos_.burst_length - 1;
  return chaos_draw(2) == 0 ? ChaosAction::kCrashPre
                            : ChaosAction::kCrashPost;
}

void ClassicalFaultLayer::execute() {
  ChaosAction action = ChaosAction::kNone;
  if (!bypass_ && chaos_.any()) {
    action = chaos_tick();
  }
  if (action == ChaosAction::kCrashPre) {
    chaos_crash("execute (before forwarding)");
  }
  lower().execute();
  if (action == ChaosAction::kCrashPost) {
    chaos_crash("execute (after forwarding)");
  }
}

void ClassicalFaultLayer::add(const Circuit& circuit) {
  ChaosAction action = ChaosAction::kNone;
  if (!bypass_ && chaos_.any()) {
    action = chaos_tick();
  }
  if (action == ChaosAction::kCrashPre) {
    chaos_crash("add (before forwarding)");
  }
  if (bypass_ || !rates_.any()) {
    lower().add(circuit);
    if (action == ChaosAction::kCrashPost) {
      chaos_crash("add (after forwarding)");
    }
    return;
  }
  Circuit faulty{circuit.name()};
  for (const SlotView slot : circuit) {
    std::vector<Operation> ops;
    std::vector<Operation> duplicates;
    ops.reserve(slot.size());
    for (const Operation& op : slot) {
      if (flip(rates_.drop)) {
        ++tally_.dropped;
        continue;
      }
      if (flip(rates_.duplicate)) {
        ++tally_.duplicated;
        duplicates.push_back(op);
      }
      ops.push_back(op);
    }
    // Stream reordering: swap an operation with its slot neighbour.
    // Operations inside one slot are qubit-disjoint, so the slot
    // invariant survives any permutation.
    for (std::size_t i = 0; i + 1 < ops.size(); ++i) {
      if (flip(rates_.reorder)) {
        std::swap(ops[i], ops[i + 1]);
        ++tally_.reordered;
      }
    }
    TimeSlot surviving;
    for (const Operation& op : ops) {
      surviving.add(op);
    }
    faulty.append_slot(std::move(surviving));
    // A stuttering link re-issues the duplicated operations right after
    // their own slot; they are mutually qubit-disjoint by construction.
    TimeSlot echo;
    for (const Operation& op : duplicates) {
      echo.add(op);
    }
    faulty.append_slot(std::move(echo));
  }
  lower().add(faulty);
  if (action == ChaosAction::kCrashPost) {
    chaos_crash("add (after forwarding)");
  }
}

BinaryState ClassicalFaultLayer::get_state() const {
  BinaryState state = lower().get_state();
  if (bypass_ || rates_.readout_flip <= 0.0) {
    return state;
  }
  for (BinaryValue& value : state) {
    if (value == BinaryValue::kUnknown) {
      continue;
    }
    if (flip(rates_.readout_flip)) {
      value = value == BinaryValue::kZero ? BinaryValue::kOne
                                          : BinaryValue::kZero;
      ++tally_.readout_flips;
    }
  }
  return state;
}

void ClassicalFaultLayer::save_state(journal::SnapshotWriter& out) const {
  out.tag("classical-fault-layer");
  out.write_double(rates_.drop);
  out.write_double(rates_.duplicate);
  out.write_double(rates_.reorder);
  out.write_double(rates_.readout_flip);
  out.write_rng(rng_);
  out.write_size(tally_.dropped);
  out.write_size(tally_.duplicated);
  out.write_size(tally_.reordered);
  out.write_size(tally_.readout_flips);
  lower().save_state(out);
}

void ClassicalFaultLayer::load_state(journal::SnapshotReader& in) {
  in.expect_tag("classical-fault-layer");
  const double drop = in.read_double();
  const double duplicate = in.read_double();
  const double reorder = in.read_double();
  const double readout_flip = in.read_double();
  if (drop != rates_.drop || duplicate != rates_.duplicate ||
      reorder != rates_.reorder || readout_flip != rates_.readout_flip) {
    throw CheckpointError(
        "classical fault layer snapshot: fault rates differ from the "
        "configured stack");
  }
  rng_ = in.read_rng();
  uniform_.reset();
  tally_.dropped = in.read_size();
  tally_.duplicated = in.read_size();
  tally_.reordered = in.read_size();
  tally_.readout_flips = in.read_size();
  lower().load_state(in);
}

}  // namespace qpf::arch
