#include "circuit/bug_plant.h"

#include <cstdlib>

namespace qpf::plant {

namespace {

[[nodiscard]] int from_environment() noexcept {
  const char* env = std::getenv("QPF_PLANT_BUG");
  if (env == nullptr) {
    return 0;
  }
  const int n = std::atoi(env);
  return (n >= 1 && n <= kCount) ? n : 0;
}

// Read once, on first use.
[[nodiscard]] int environment_value() noexcept {
  static const int value = from_environment();
  return value;
}

}  // namespace

namespace detail {

int read_environment() noexcept {
  // Publish the environment value unless set_for_testing() got there
  // first.
  int expected = -1;
  g_active.compare_exchange_strong(expected, environment_value(),
                                   std::memory_order_relaxed);
  return g_active.load(std::memory_order_relaxed);
}

}  // namespace detail

void set_for_testing(int n) noexcept {
  detail::g_active.store(n < 0 ? environment_value() : (n <= kCount ? n : 0),
                         std::memory_order_relaxed);
}

const char* describe(int n) noexcept {
  switch (n) {
    case 1:
      return "frame-h-row: H conjugation leaves the record unchanged "
             "(Table 3.4 H row dropped)";
    case 2:
      return "frame-s-row: S conjugation keeps Z instead of Z^=X "
             "(Table 3.4 S row wrong)";
    case 3:
      return "frame-cnot-swap: CNOT conjugation swaps control and target "
             "records (Table 3.5 reversed)";
    case 4:
      return "frame-skip-flush: non-Clifford gates pass through without "
             "flushing pending records (Table 3.1 row e skipped)";
    case 5:
      return "frame-reset-keeps-record: preparation forwards without "
             "resetting the record to I (Table 3.1 row a half-applied)";
    case 6:
      return "layer-measure-z-correct: measurement results corrected by the "
             "Z component instead of X (Table 3.2 wrong column)";
    case 7:
      return "tableau-h-sign: the word-parallel H kernel skips the packed "
             "sign-column update";
    case 8:
      return "lut-window-shift: the 3-round decode window compares carried "
             "vs r1 instead of r1 vs r2 (off-by-one round, Fig 5.9)";
    case 9:
      return "supervisor-replay-drop: recovery replay skips the first "
             "pending circuit after a snapshot restore";
    case 10:
      return "frame-snapshot-drop: the frame snapshot serializes qubit 0's "
             "record as I";
    case 11:
      return "arbiter-pauli-forward: the arbiter forwards Pauli gates to "
             "the PEL besides absorbing them (Fig 3.12 route c violated)";
    case 12:
      return "serve-codec-crc-skip: the wire-frame decoder trusts frames "
             "without verifying the body CRC, so bit-flipped bodies are "
             "accepted";
    case 13:
      return "checkpoint-skip-dir-fsync: write_checkpoint_file returns "
             "without fsyncing the parent directory, so a power loss after "
             "rename can roll the checkpoint back";
    case 14:
      return "serve-dedup-skip: the server's per-session idempotency "
             "window (and close tombstones) are silently bypassed, so "
             "retried requests re-execute against the tenant's stack";
    case 15:
      return "executor-commit-reorder: the deterministic executor commits "
             "results in completion-arrival order instead of task-index "
             "order, so parallel output bytes depend on scheduling";
    case 16:
      return "frame-read-ignores-z: the frame's observable read flips a "
             "value only for X records, ignoring the Z half, so X-type "
             "checks and chains read the pre-correction sign";
    case 17:
      return "frame-core-hit-ignores-x: a FrameCore memo hit reports the "
             "reference's measurement bit without the X record's flip";
    case 18:
      return "noise-fired-redraw: once a noise draw fires, the rewrite "
             "draws the fired location again instead of taking the fault";
    case 19:
      return "frame-map-reset-keeps-x: a FrameCore compiled map keeps a "
             "reset qubit's X record instead of clearing it";
    default:
      return "?";
  }
}

}  // namespace qpf::plant
