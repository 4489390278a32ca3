// A pass-through arch::Layer that times and counts every call into the
// element below it.  The benchmark puts one between every pair of
// elements of a hand-built Fig 5.8 stack; a layer's self time is then
// the inclusive time of the probe above it minus that of the probe
// below it (self_times()).
#pragma once

#include <cstdint>
#include <vector>

#include "arch/layer.h"
#include "common.h"

namespace qpfbench {

struct ProbeStats {
  std::uint64_t add_calls = 0;
  std::uint64_t execute_calls = 0;
  std::uint64_t get_state_calls = 0;
  std::uint64_t ops_in = 0;
  std::uint64_t slots_in = 0;
  std::uint64_t measurements_in = 0;  ///< counted only when asked to
  std::int64_t add_ns = 0;
  std::int64_t execute_ns = 0;
  std::int64_t get_state_ns = 0;

  [[nodiscard]] std::int64_t inclusive_ns() const noexcept {
    return add_ns + execute_ns + get_state_ns;
  }
  ProbeStats& operator+=(const ProbeStats& o) noexcept;
};

/// State shared by every probe of one stack.
struct ProbeContext {
  static constexpr int kPhases = 2;
  int phase = 0;             ///< which ProbeStats slot calls file into
  SpanLog* spans = nullptr;  ///< where sampled calls become spans
  bool record = false;       ///< the current window is sampled
  std::int64_t open = -1;    ///< innermost open span (parent of the next)
  std::uint64_t item = 0;    ///< window id stamped on spans
};

/// Span names of one probe's three calls; string literals, because
/// spans outlive the probes that recorded them.
struct ProbeNames {
  const char* add;
  const char* execute;
  const char* get_state;
};

class ProbeLayer final : public qpf::arch::Layer {
 public:
  using ClockFn = std::int64_t (*)();

  ProbeLayer(qpf::arch::Core* lower, ProbeContext* context, ProbeNames names,
             bool count_measurements = false, ClockFn clock = &now_ns);

  void add(const qpf::Circuit& circuit) override;
  void execute() override;
  [[nodiscard]] qpf::arch::BinaryState get_state() const override;

  [[nodiscard]] const ProbeStats& stats(int phase) const noexcept {
    return stats_[phase];
  }

 private:
  [[nodiscard]] ProbeStats& current() const noexcept {
    return stats_[context_->phase];
  }
  /// Open a span for a sampled call; -1 when the call is not sampled.
  std::int64_t open_span(const char* name, std::int64_t start) const;
  void close_span(std::int64_t span, std::int64_t parent,
                  std::int64_t end) const;

  ProbeContext* context_;
  ProbeNames names_;
  bool count_measurements_;
  ClockFn clock_;
  mutable ProbeStats stats_[ProbeContext::kPhases];
};

/// Self time of each element of a chain, top first, from the inclusive
/// time of the calls into each element: self[i] = inclusive[i] -
/// inclusive[i + 1], and the bottom element keeps its inclusive time.
[[nodiscard]] std::vector<std::int64_t> self_times(
    const std::vector<std::int64_t>& inclusive);

}  // namespace qpfbench
