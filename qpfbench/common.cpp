#include "common.h"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <stdexcept>

#include "bench_json.h"

namespace qpfbench {

SampleBuffer::SampleBuffer(std::size_t capacity, std::uint64_t seed)
    : values_(std::max<std::size_t>(capacity, 1), 0.0),
      rng_(seed | 1) {}

void SampleBuffer::add(double value) noexcept {
  const std::uint64_t index = seen_++;
  if (index < values_.size()) {
    values_[index] = value;
    return;
  }
  // xorshift64*: cheap, and fixed-seeded so a run's sample is a pure
  // function of the value stream.
  rng_ ^= rng_ >> 12;
  rng_ ^= rng_ << 25;
  rng_ ^= rng_ >> 27;
  const std::uint64_t draw = (rng_ * 0x2545F4914F6CDD1DULL) % (index + 1);
  if (draw < values_.size()) {
    values_[draw] = value;
  }
}

std::size_t SampleBuffer::size() const noexcept {
  return static_cast<std::size_t>(
      std::min<std::uint64_t>(seen_, values_.size()));
}

std::vector<Sample> merge_samples(
    const std::vector<const SampleBuffer*>& buffers) {
  std::vector<Sample> out;
  for (const SampleBuffer* buffer : buffers) {
    const std::size_t held = buffer->size();
    if (held == 0) {
      continue;
    }
    const double weight =
        static_cast<double>(buffer->seen()) / static_cast<double>(held);
    for (std::size_t i = 0; i < held; ++i) {
      out.push_back(Sample{buffer->at(i), weight});
    }
  }
  return out;
}

double percentile(std::vector<Sample> samples, double p) {
  if (!(p > 0.0 && p < 1.0)) {
    throw std::domain_error("percentile: p must lie in (0, 1)");
  }
  std::sort(samples.begin(), samples.end(),
            [](const Sample& a, const Sample& b) { return a.value < b.value; });
  double total = 0.0;
  for (const Sample& s : samples) {
    total += s.weight;
  }
  const double target = p * total;
  double cumulative = 0.0;
  std::size_t chosen = samples.size();
  for (std::size_t i = 0; i < samples.size(); ++i) {
    cumulative += samples[i].weight;
    if (cumulative >= target) {
      chosen = i;
      break;
    }
  }
  if (chosen == samples.size() || samples.size() - chosen - 1 < 10) {
    throw std::domain_error(
        "percentile: p" + std::to_string(p * 100.0) + " of " +
        std::to_string(samples.size()) +
        " samples has fewer than ten samples beyond it");
  }
  return samples[chosen].value;
}

double percentile(const std::vector<double>& values, double p) {
  std::vector<Sample> samples;
  samples.reserve(values.size());
  for (const double v : values) {
    samples.push_back(Sample{v, 1.0});
  }
  return percentile(std::move(samples), p);
}

SegmentedSamples::SegmentedSamples(std::int64_t start_ns, std::size_t segments,
                                   std::int64_t segment_ns,
                                   std::size_t capacity)
    : start_ns_(start_ns), segment_ns_(segment_ns) {
  buffers_.reserve(segments);
  for (std::size_t i = 0; i < segments; ++i) {
    buffers_.emplace_back(capacity, 0x5eed + i);
  }
}

void SegmentedSamples::add(std::int64_t at_ns, double value) noexcept {
  if (at_ns < start_ns_) {
    return;
  }
  const auto index = static_cast<std::size_t>((at_ns - start_ns_) / segment_ns_);
  if (index < buffers_.size()) {
    buffers_[index].add(value);
  }
}

std::int64_t Calibrator::run() noexcept {
  const std::int64_t t0 = now_ns();
  std::uint64_t x = 0x9e3779b97f4a7c15ULL;
  std::uint64_t acc = 0;
  for (int i = 0; i < 1000; ++i) {
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    std::uint64_t& slot = table_[x & 4095];
    if (((x >> 20) & 1) != 0) {
      slot += x;
    } else {
      acc ^= slot;
    }
  }
  table_[0] += acc;
  return now_ns() - t0;
}

OpTimer::OpTimer(std::int64_t start_ns, std::size_t segments,
                 std::int64_t segment_ns)
    : ops_(start_ns, segments, segment_ns),
      calibration_(start_ns, segments, segment_ns, 1024) {}

std::int64_t OpTimer::record(std::int64_t t0, std::int64_t t1) noexcept {
  ops_.add(t1, static_cast<double>(t1 - t0));
  if (t1 - last_calibration_ < kCalibrationPeriodNs) {
    return t1;
  }
  calibration_.add(t1, static_cast<double>(calibrator_.run()));
  last_calibration_ = now_ns();
  return last_calibration_;
}

SegmentStats segment_stats(const std::vector<const OpTimer*>& threads,
                           std::size_t segments, double segment_s) {
  if (segments == 0) {
    throw std::domain_error("no complete measurement segment");
  }
  SegmentStats out;
  std::vector<double> rates, p50s, p99s, raw_rates, raw_p50s, raw_p99s, cals;
  for (std::size_t i = 0; i < segments; ++i) {
    std::vector<const SampleBuffer*> buffers;
    std::vector<double> calibration;
    std::uint64_t seen = 0;
    for (const OpTimer* t : threads) {
      buffers.push_back(&t->ops().segment(i));
      seen += t->ops().segment(i).seen();
      const SampleBuffer& c = t->calibration().segment(i);
      for (std::size_t k = 0; k < c.size(); ++k) {
        calibration.push_back(c.at(k));
      }
    }
    if (calibration.empty()) {
      throw std::domain_error("segment " + std::to_string(i) +
                              " has no calibration pass");
    }
    const std::vector<Sample> pooled = merge_samples(buffers);
    const double rate = static_cast<double>(seen) / segment_s;
    const double p50 = percentile(pooled, 0.50);
    const double p99 = percentile(pooled, 0.99);
    // > 1 when the machine ran slow: scale the figures to what an
    // undisturbed machine would have shown.
    const double slow = quantile(calibration, 0.5) / kCalibrationRefNs;
    raw_rates.push_back(rate);
    raw_p50s.push_back(p50);
    raw_p99s.push_back(p99);
    rates.push_back(rate * slow);
    p50s.push_back(p50 / slow);
    p99s.push_back(p99 / slow);
    cals.push_back(slow * kCalibrationRefNs);
    out.values += seen;
    out.held += pooled.size();
  }
  out.rate = quantile(rates, 0.5);
  out.p50 = quantile(p50s, 0.5);
  out.p99 = quantile(p99s, 0.5);
  out.raw_rate = quantile(raw_rates, 0.5);
  out.raw_p50 = quantile(raw_p50s, 0.5);
  out.raw_p99 = quantile(raw_p99s, 0.5);
  out.calibration_ns = quantile(cals, 0.5);
  out.segments = segments;
  return out;
}

std::string describe(const SegmentStats& stats, double raw, const char* what) {
  char text[256];
  std::snprintf(text, sizeof text,
                "median of %zu calibrated 0.5-s segments, raw %.6g, "
                "calibration %.0f ns; %zu sampled of %llu %s",
                stats.segments, raw, stats.calibration_ns, stats.held,
                static_cast<unsigned long long>(stats.values), what);
  return text;
}

std::vector<Sample> pooled_samples(
    const std::vector<const SegmentedSamples*>& threads) {
  std::vector<const SampleBuffer*> buffers;
  for (const SegmentedSamples* t : threads) {
    for (std::size_t i = 0; i < t->segments(); ++i) {
      buffers.push_back(&t->segment(i));
    }
  }
  return merge_samples(buffers);
}

double quantile(std::vector<double> values, double q) {
  if (values.empty()) {
    throw std::domain_error("quantile of nothing");
  }
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size() - 1);
  const auto lo = static_cast<std::size_t>(std::floor(rank));
  const std::size_t hi = std::min(lo + 1, values.size() - 1);
  return values[lo] + (values[hi] - values[lo]) * (rank - std::floor(rank));
}

std::uint64_t fnv1a(const void* data, std::size_t size, std::uint64_t hash) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ULL;
  }
  return hash;
}

double peak_rss_mb() {
  std::ifstream status("/proc/self/status");
  std::string line;
  while (std::getline(status, line)) {
    if (line.rfind("VmHWM:", 0) == 0) {
      return std::stod(line.substr(6)) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

std::int64_t SpanLog::add(const Span& span) {
  if (spans_.size() >= cap_) {
    return -1;
  }
  spans_.push_back(span);
  return static_cast<std::int64_t>(spans_.size() - 1);
}

void SpanLog::set_end(std::int64_t index, std::int64_t end_ns) {
  if (index >= 0) {
    spans_[static_cast<std::size_t>(index)].end_ns = end_ns;
  }
}

void SpanLog::append(const SpanLog& other) {
  const auto base = static_cast<std::int64_t>(spans_.size());
  for (Span span : other.spans_) {
    if (spans_.size() >= cap_) {
      return;
    }
    if (span.parent >= 0) {
      span.parent += base;
    }
    spans_.push_back(span);
  }
}

bool SpanLog::write(const std::string& path) const {
  std::ofstream out(path, std::ios::trunc);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << "{\"id\":" << i << ",\"name\":\"" << s.name
        << "\",\"start_ns\":" << s.start_ns << ",\"end_ns\":" << s.end_ns
        << ",\"parent\":" << s.parent << ",\"item\":" << s.item << "}\n";
  }
  return static_cast<bool>(out);
}

void Report::add(std::string name, double value, std::string unit,
                 std::string detail) {
  metrics.push_back(
      Metric{std::move(name), value, std::move(unit), std::move(detail)});
}

void Report::problem(std::string what) {
  correct = false;
  problems.push_back(std::move(what));
}

int emit(const Report& report, const std::string& workload) {
  Report out = report;
  for (Metric& m : out.metrics) {
    if (!std::isfinite(m.value)) {
      out.problem("metric " + m.name + " is not finite");
      m.value = 0.0;
    }
  }
  std::cerr << "qpfbench " << workload << ": attempted=" << out.attempted
            << " failed=" << out.failed << " fail_frac="
            << (out.attempted == 0
                    ? 1.0
                    : static_cast<double>(out.failed) /
                          static_cast<double>(out.attempted))
            << " correct=" << (out.correct ? "true" : "false") << "\n";
  for (const Metric& m : out.metrics) {
    char value[64];
    std::snprintf(value, sizeof value, "%.6g", m.value);
    std::cerr << "  " << m.name << " = " << value << " " << m.unit;
    if (!m.detail.empty()) {
      std::cerr << "  (" << m.detail << ")";
    }
    std::cerr << "\n";
  }
  for (const std::string& p : out.problems) {
    std::cerr << "qpfbench " << workload << ": CHECK FAILED: " << p << "\n";
  }

  std::string metrics = "{";
  for (std::size_t i = 0; i < out.metrics.size(); ++i) {
    const Metric& m = out.metrics[i];
    qpf::bench::JsonObject entry;
    entry.num("value", m.value).text("unit", m.unit);
    metrics += (i == 0 ? "" : ", ") + qpf::bench::json_quote(m.name) + ": " +
               entry.str();
  }
  metrics += "}";
  std::cout << "{\"correct\": " << (out.correct ? "true" : "false")
            << ", \"attempted\": " << out.attempted
            << ", \"failed\": " << out.failed << ", \"metrics\": " << metrics
            << "}" << std::endl;
  return out.correct ? 0 : 1;
}

}  // namespace qpfbench
