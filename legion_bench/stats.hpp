// The benchmark's own statistics: latency histograms, medians and
// quartiles, the supported-percentile rule, per-op ratio bases and the
// layer-closure arithmetic. Header-only and free of Legion dependencies so
// stats_test.cpp covers it without a deployment.
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace legion::bench {

// Median of `values` (mean of the middle pair for an even count); 0 when
// empty.
inline double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

struct Quartiles {
  double q1 = 0.0;
  double q2 = 0.0;
  double q3 = 0.0;
};

// The cut points of Python's statistics.quantiles(values, n=4) (its default
// "exclusive" method), so the spread the benchmark prints is the spread a
// reader recomputes from the same values. Fewer than two values: all three
// cut points equal the lone value (or 0).
inline Quartiles ExclusiveQuartiles(std::vector<double> values) {
  const std::size_t n = values.size();
  if (n == 0) return {};
  std::sort(values.begin(), values.end());
  if (n == 1) return {values[0], values[0], values[0]};
  const std::size_t m = n + 1;
  std::array<double, 3> cut{};
  for (std::size_t i = 1; i <= 3; ++i) {
    std::size_t j = i * m / 4;
    j = std::clamp<std::size_t>(j, 1, n - 1);
    const double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
    cut[i - 1] = (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
  }
  return {cut[0], cut[1], cut[2]};
}

// The ladder of percentiles a timing may be reported at, in parts per
// 100,000 (50 = p50 ... 99.999).
inline constexpr std::array<std::uint32_t, 6> kPercentileLadder = {
    50'000, 90'000, 99'000, 99'900, 99'990, 99'999};

// Samples strictly above the nearest-rank percentile `p` (parts per
// 100,000) of `n` samples.
inline std::uint64_t SamplesBeyond(std::uint64_t n, std::uint32_t p) {
  const std::uint64_t rank = (n * p + 99'999) / 100'000;  // ceil(n * p)
  return n - rank;
}

// The highest ladder percentile with at least `min_beyond` samples beyond
// it, in parts per 100,000; 0 when not even the median qualifies.
inline std::uint32_t HighestSupportedPercentile(std::uint64_t n,
                                                std::uint64_t min_beyond = 10) {
  std::uint32_t best = 0;
  for (const std::uint32_t p : kPercentileLadder) {
    if (SamplesBeyond(n, p) >= min_beyond) best = p;
  }
  return best;
}

// Log-linear latency histogram over nanoseconds: 2^kSubBits linear
// sub-buckets per power of two (under 1.6% relative width, where the
// program's obs::Histogram buckets are a factor of two wide), fixed memory, so
// recording costs no allocation and the benchmark's own footprint does not
// grow with the number of operations it times. Values from 2^kMaxBits ns
// (about 69 s) up share the last bucket.
class LatencyHistogram {
 public:
  static constexpr unsigned kSubBits = 6;
  static constexpr unsigned kMaxBits = 36;
  static constexpr std::uint64_t kSub = 1ull << kSubBits;
  static constexpr std::size_t kBuckets = (kMaxBits - kSubBits + 1) * kSub;

  LatencyHistogram() : counts_(kBuckets, 0) {}

  void record(std::uint64_t ns) {
    ++counts_[std::min(BucketOf(ns), kBuckets - 1)];
    ++count_;
  }
  void merge(const LatencyHistogram& other) {
    for (std::size_t i = 0; i < kBuckets; ++i) counts_[i] += other.counts_[i];
    count_ += other.count_;
  }
  [[nodiscard]] std::uint64_t count() const { return count_; }

  // Value at fraction `p` in [0, 1]: the bucket holding nearest rank
  // ceil(p * n), interpolated linearly by rank inside it. 0 when empty.
  [[nodiscard]] double percentile(double p) const {
    if (count_ == 0) return 0.0;
    const double target = std::max(1.0, p * static_cast<double>(count_));
    std::uint64_t seen = 0;
    for (std::size_t b = 0; b < kBuckets; ++b) {
      const std::uint64_t c = counts_[b];
      if (c == 0) continue;
      if (static_cast<double>(seen + c) >= target) {
        const double within = (target - static_cast<double>(seen)) /
                              static_cast<double>(c);
        const double lo = static_cast<double>(Floor(b));
        const double width = static_cast<double>(Floor(b + 1) - Floor(b));
        return lo + within * width;
      }
      seen += c;
    }
    return static_cast<double>(Floor(kBuckets));
  }

  [[nodiscard]] static std::size_t BucketOf(std::uint64_t v) {
    if (v < kSub) return static_cast<std::size_t>(v);
    const unsigned shift =
        static_cast<unsigned>(std::bit_width(v)) - kSubBits - 1;
    return static_cast<std::size_t>((shift + 1) * kSub +
                                    ((v >> shift) - kSub));
  }
  // Inclusive lower edge of bucket `b`.
  [[nodiscard]] static std::uint64_t Floor(std::size_t b) {
    if (b < kSub) return b;
    const std::uint64_t shift = b / kSub - 1;
    return (kSub + b % kSub) << shift;
  }

 private:
  // 32-bit: a histogram holds one window or one run, far below 2^32 ops,
  // and the benchmark keeps hundreds of window histograms, whose memory
  // peak_rss_mb includes.
  std::vector<std::uint32_t> counts_;
  std::uint64_t count_ = 0;
};

// Percentile p in [0, 1] of a log2-bucketed histogram laid out like the
// program's obs::Histogram (bucket 0 holds 0, bucket b holds
// [2^(b-1), 2^b - 1]), interpolated by rank and returned unrounded
// (obs::PercentileFromBuckets rounds to whole microseconds, a 10% step at
// the 10 us a queue wait takes).
template <std::size_t N>
double Log2BucketPercentile(const std::array<std::uint64_t, N>& buckets,
                            double p) {
  std::uint64_t n = 0;
  for (const std::uint64_t c : buckets) n += c;
  if (n == 0) return 0.0;
  const double target = std::max(1.0, p * static_cast<double>(n));
  std::uint64_t seen = 0;
  for (std::size_t b = 0; b < N; ++b) {
    const std::uint64_t c = buckets[b];
    if (c == 0) continue;
    if (static_cast<double>(seen + c) >= target) {
      if (b == 0) return 0.0;
      const double lo = static_cast<double>(1ull << (b - 1));
      const double within =
          (target - static_cast<double>(seen)) / static_cast<double>(c);
      return lo + within * lo;  // bucket width equals its floor
    }
    seen += c;
  }
  return 0.0;
}

// `count` per operation: the base is the operations of the phase the count
// was taken over. 0 when no operation ran.
inline double PerOp(double count, std::uint64_t ops) {
  return ops == 0 ? 0.0 : count / static_cast<double>(ops);
}

// hits / (hits + misses); 0 when there were no lookups.
inline double HitRatio(std::uint64_t hits, std::uint64_t misses) {
  const std::uint64_t total = hits + misses;
  return total == 0 ? 0.0
                    : static_cast<double>(hits) / static_cast<double>(total);
}

// Sum of the medians of the layers one operation passes through in
// sequence, over the untraced end-to-end median. 1.0 means the layers
// account for the whole call; 0 when the end-to-end median is 0.
inline double LayerClosure(const std::vector<double>& layer_medians,
                           double end_to_end_median) {
  if (end_to_end_median <= 0.0) return 0.0;
  double sum = 0.0;
  for (const double m : layer_medians) sum += m;
  return sum / end_to_end_median;
}

// Throughput lost to tracing, in percent of the untraced throughput.
inline double OverheadPct(double untraced_ops_s, double traced_ops_s) {
  if (untraced_ops_s <= 0.0) return 0.0;
  return (untraced_ops_s - traced_ops_s) / untraced_ops_s * 100.0;
}

}  // namespace legion::bench
