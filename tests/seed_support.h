// Seed announcement for randomized tests: QPF_ANNOUNCE_SEED prints the
// seed to stderr when the test starts AND attaches it to every gtest
// failure message (via SCOPED_TRACE), so a red randomized test can
// always be replayed exactly from its log.
//
// Seeds follow the same splitmix64 chain as the fuzzing engine
// (src/fuzz/seeds.h): tests that need several independent random
// streams derive them with exec::task_seed(seed, label) instead of reusing
// one engine, so the announced seed alone reproduces every stream.
// QPF_TEST_SEED=<n> overrides any announced default seed, letting a
// failure from a fuzz triage report be replayed through the unit
// suite without recompiling.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdlib>
#include <iostream>
#include <sstream>
#include <string>

#include "fuzz/seeds.h"

namespace qpf::test {

/// The seed a randomized test should run with: QPF_TEST_SEED when set,
/// otherwise the test's built-in default.
inline std::uint64_t test_seed(std::uint64_t default_seed) {
  if (const char* env = std::getenv("QPF_TEST_SEED");
      env != nullptr && *env != '\0') {
    return std::strtoull(env, nullptr, 0);
  }
  return default_seed;
}

/// A labelled sub-stream of `seed`, on the fuzz engine's seed chain.
inline std::uint64_t stream_seed(std::uint64_t seed, const char* label) {
  return exec::task_seed(seed, fuzz::label_hash(label));
}

inline std::string seed_banner(std::uint64_t seed) {
  const ::testing::TestInfo* info =
      ::testing::UnitTest::GetInstance()->current_test_info();
  std::ostringstream out;
  out << "[seed] ";
  if (info != nullptr) {
    out << info->test_suite_name() << "." << info->name();
  } else {
    out << "unknown-test";
  }
  out << ": seed=" << seed;
  return out.str();
}

inline std::uint64_t announce_seed(std::uint64_t seed) {
  std::cerr << seed_banner(seed) << "\n";
  return seed;
}

}  // namespace qpf::test

/// Announce `seed` on stderr now and on any failure in this scope.
#define QPF_ANNOUNCE_SEED(seed)                       \
  ::qpf::test::announce_seed(seed);                   \
  SCOPED_TRACE(::qpf::test::seed_banner(seed))
