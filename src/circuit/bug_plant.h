// Mutation-testing hooks: a catalogue of deliberately plantable bugs.
//
// The differential fuzzing engine (src/fuzz/, DESIGN.md "Fuzzing
// engine") is itself tested for sensitivity: QPF_PLANT_BUG=<n> (or
// plant::set_for_testing(n) in-process) activates exactly one known
// bug in a hot correctness path — a wrong Table 3.4 row, a skipped
// non-Clifford flush, a dropped tableau sign word, ... — and the
// mutation smoke suite asserts the fuzzer's oracles catch every one
// within a bounded budget.  With no bug planted (the default) every
// hook is an inline relaxed load of a cached int and a predicted
// branch, and the behavior is bit-identical to a build without the
// hooks.
#pragma once

#include <atomic>

namespace qpf::plant {

/// Number of catalogued bugs; valid plant ids are 1..kCount.
inline constexpr int kCount = 19;

namespace detail {
/// The active bug once known; negative until the first active() call.
inline std::atomic<int> g_active{-1};
/// Slow path of active(): caches the environment value.
[[nodiscard]] int read_environment() noexcept;
}  // namespace detail

/// The active planted bug: 0 when clean, 1..kCount when planted.
/// Reads QPF_PLANT_BUG from the environment once (first call) unless
/// overridden by set_for_testing().
[[nodiscard]] inline int active() noexcept {
  const int n = detail::g_active.load(std::memory_order_relaxed);
  return n >= 0 ? n : detail::read_environment();
}

/// True when bug `n` is the active planted bug.
[[nodiscard]] inline bool bug(int n) noexcept { return active() == n; }

/// In-process override for the mutation smoke suite: n in [1, kCount]
/// plants bug n, 0 forces a clean build, a negative value reverts to
/// the environment variable.
void set_for_testing(int n) noexcept;

/// One-line description of bug `n` ("?" outside [1, kCount]), for the
/// catalogue in TESTING.md and the qpf_fuzz --list-bugs output.
[[nodiscard]] const char* describe(int n) noexcept;

}  // namespace qpf::plant
