// Shared pieces of the repository benchmark: the clock, bounded latency
// samples and the percentile rule, per-thread accumulators, digests,
// spans, and the result line every run prints.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace qpfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline std::int64_t now_ns() noexcept {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             Clock::now().time_since_epoch())
      .count();
}

/// A uniform random sample of a stream of values (reservoir sampling
/// with a fixed-seed generator).  Its memory is allocated and touched at
/// construction, so a faster program, which sees more values in the same
/// time, does not grow the benchmark's resident set.
class SampleBuffer {
 public:
  explicit SampleBuffer(std::size_t capacity = std::size_t{1} << 16,
                        std::uint64_t seed = 0x5eed);

  void add(double value) noexcept;

  /// Values offered so far.
  [[nodiscard]] std::uint64_t seen() const noexcept { return seen_; }
  /// Values held: min(seen, capacity).
  [[nodiscard]] std::size_t size() const noexcept;
  [[nodiscard]] double at(std::size_t i) const noexcept { return values_[i]; }

 private:
  std::vector<double> values_;
  std::uint64_t seen_ = 0;
  std::uint64_t rng_;
};

/// One sampled value and the number of stream values it stands for.
struct Sample {
  double value = 0.0;
  double weight = 1.0;
};

/// Pool several buffers; each held value is weighted by seen / size of
/// its buffer, so streams of different lengths count in proportion.
[[nodiscard]] std::vector<Sample> merge_samples(
    const std::vector<const SampleBuffer*>& buffers);

/// The weighted p-quantile (0 < p < 1) of `samples`, nearest rank.
/// Throws std::domain_error when fewer than ten samples lie beyond the
/// chosen one: such a percentile is not measured, only guessed.
[[nodiscard]] double percentile(std::vector<Sample> samples, double p);

/// Unweighted convenience overload.
[[nodiscard]] double percentile(const std::vector<double>& values, double p);

/// Samples filed by the segment of the run in which they were taken.
/// Memory is fixed at construction.
class SegmentedSamples {
 public:
  SegmentedSamples(std::int64_t start_ns, std::size_t segments,
                   std::int64_t segment_ns, std::size_t capacity = 2048);

  /// File `value`, taken at `at_ns`; values past the last segment drop.
  void add(std::int64_t at_ns, double value) noexcept;

  [[nodiscard]] std::size_t segments() const noexcept {
    return buffers_.size();
  }
  [[nodiscard]] const SampleBuffer& segment(std::size_t i) const noexcept {
    return buffers_[i];
  }

 private:
  std::int64_t start_ns_;
  std::int64_t segment_ns_;
  std::vector<SampleBuffer> buffers_;
};

/// Times a fixed loop: xorshift-driven, branchy updates of an L1-sized
/// table, code that no change to the repository touches.  On a shared
/// machine, neighbours slow every thread by up to a third for spells
/// from a fraction of a second to minutes; the loop slows with them, so
/// its time tells how fast the machine was while an operation ran.
class Calibrator {
 public:
  /// One pass of the loop; its wall time in ns.  Passes are meant to be
  /// spaced out between the operations being measured.
  std::int64_t run() noexcept;

 private:
  std::uint64_t table_[4096] = {};
};

/// The loop's time on an undisturbed machine; calibrated figures read
/// as if measured there.
inline constexpr double kCalibrationRefNs = 6500.0;
/// One calibration pass per this much measured time and thread.
inline constexpr std::int64_t kCalibrationPeriodNs = 2'000'000;

/// One measuring thread: the time of each operation and, every
/// kCalibrationPeriodNs, one calibration pass, both filed by segment.
class OpTimer {
 public:
  OpTimer(std::int64_t start_ns, std::size_t segments, std::int64_t segment_ns);

  /// File an operation that ran from t0 to t1, then calibrate if due.
  /// Returns when the next operation starts being timed.
  std::int64_t record(std::int64_t t0, std::int64_t t1) noexcept;

  [[nodiscard]] const SegmentedSamples& ops() const noexcept { return ops_; }
  [[nodiscard]] const SegmentedSamples& calibration() const noexcept {
    return calibration_;
  }

 private:
  SegmentedSamples ops_;
  SegmentedSamples calibration_;
  Calibrator calibrator_;
  std::int64_t last_calibration_ = 0;
};

/// A run's figures from several threads' OpTimers.  Per segment: the
/// operations per second and the p50 and p99 of their times, each
/// scaled by the segment's median calibration time over
/// kCalibrationRefNs; then the median over segments.  The raw_ figures
/// are the same medians unscaled.
struct SegmentStats {
  double rate = 0.0;
  double p50 = 0.0;
  double p99 = 0.0;
  double raw_rate = 0.0;
  double raw_p50 = 0.0;
  double raw_p99 = 0.0;
  double calibration_ns = 0.0;  ///< median over segments
  std::size_t segments = 0;
  std::uint64_t values = 0;  ///< operations in those segments
  std::size_t held = 0;      ///< sampled times behind the percentiles
};
[[nodiscard]] SegmentStats segment_stats(
    const std::vector<const OpTimer*>& threads, std::size_t segments,
    double segment_s);

/// Human note for a metric taken from `stats`.
[[nodiscard]] std::string describe(const SegmentStats& stats, double raw,
                                   const char* what);

/// All of several threads' samples pooled, for whole-run percentiles.
[[nodiscard]] std::vector<Sample> pooled_samples(
    const std::vector<const SegmentedSamples*>& threads);

/// The q-quantile of `values`, interpolating between closest ranks.
[[nodiscard]] double quantile(std::vector<double> values, double q);

/// Thread-keyed accumulators: each thread gets its own T, built by
/// `make`, on first use; read them all once the threads are done.
template <typename T>
class PerThread {
 public:
  explicit PerThread(std::function<std::unique_ptr<T>()> make =
                         [] { return std::make_unique<T>(); })
      : make_(std::move(make)) {}

  T& local() {
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<T>& slot = slots_[std::this_thread::get_id()];
    if (!slot) {
      slot = make_();
    }
    return *slot;
  }

  template <typename F>
  void for_each(F&& f) const {
    std::lock_guard<std::mutex> lock(mutex_);
    for (const auto& [id, slot] : slots_) {
      f(*slot);
    }
  }

 private:
  std::function<std::unique_ptr<T>()> make_;
  mutable std::mutex mutex_;
  std::map<std::thread::id, std::unique_ptr<T>> slots_;
};

/// FNV-1a over raw bytes, chainable.
[[nodiscard]] std::uint64_t fnv1a(const void* data, std::size_t size,
                                  std::uint64_t hash = 0xcbf29ce484222325ULL);
template <typename T>
[[nodiscard]] std::uint64_t fnv1a_value(const T& value, std::uint64_t hash) {
  return fnv1a(&value, sizeof value, hash);
}

/// Peak resident set of this process (VmHWM), in MiB.
[[nodiscard]] double peak_rss_mb();

/// One traced interval.  `parent` is the index of the enclosing span in
/// the same log (-1 for a root); `item` is the window or request id.
struct Span {
  const char* name = "";
  std::int64_t start_ns = 0;
  std::int64_t end_ns = 0;
  std::int64_t parent = -1;
  std::uint64_t item = 0;
};

/// Spans kept in memory up to a fixed cap and written as JSON lines when
/// the run ends.
class SpanLog {
 public:
  explicit SpanLog(std::size_t cap = 200000) : cap_(cap) {}
  /// Index of the new span, or -1 when the log is full.
  std::int64_t add(const Span& span);
  void set_end(std::int64_t index, std::int64_t end_ns);
  void append(const SpanLog& other);
  [[nodiscard]] std::size_t size() const noexcept { return spans_.size(); }
  /// Write one JSON object per span; false when the file cannot be written.
  bool write(const std::string& path) const;

 private:
  std::size_t cap_;
  std::vector<Span> spans_;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string detail;  ///< human note: sample count, derivation
};

/// What one run reports: the correctness verdict, the attempted and
/// failed operation counts, and the metrics.
struct Report {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::vector<Metric> metrics;
  std::vector<std::string> problems;

  void add(std::string name, double value, std::string unit,
           std::string detail = "");
  /// Record a failed check (sets correct = false).
  void problem(std::string what);
};

/// Human-readable table on stderr, then the single JSON result line on
/// stdout.  Returns the process exit code: 0 when correct.
int emit(const Report& report, const std::string& workload);

struct RunArgs {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_dir;  ///< where traced runs write their spans
};

}  // namespace qpfbench
