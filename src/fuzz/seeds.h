// Seed-stream labels for the differential fuzzing engine.
//
// Every random draw in the fuzzer flows from one master seed through
// the executor's splitmix64 chain (exec::task_seed, exec::SplitMix), so
// a fuzz run is a pure function of its seed: the same seed reproduces
// the same cases, the same oracle schedules, the same shrinks, and a
// byte-identical triage report.  The engine never uses std::mt19937_64
// for its own draws — splitmix64 is fully specified, so the case stream
// is portable across standard libraries.  A stream is named by hashing
// a label: exec::task_seed(parent, label_hash("shape")).
#pragma once

#include <cstdint>

#include "exec/executor.h"

namespace qpf::fuzz {

/// FNV-1a hash of a string label, for naming seed streams after oracles.
[[nodiscard]] constexpr std::uint64_t label_hash(const char* s) noexcept {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (; *s != '\0'; ++s) {
    h = (h ^ static_cast<unsigned char>(*s)) * 0x100000001b3ULL;
  }
  return h;
}

}  // namespace qpf::fuzz
