// Latency statistics for the repository benchmark: nearest-rank
// percentiles over sample vectors, a mergeable log-linear histogram for
// the million-sample query workloads, and the reporting rule every
// percentile obeys — it is reported only when at least kMinBeyond samples
// lie beyond it (choosing-metrics §1), so a tail is never read off a
// handful of points.

#ifndef STABLETEXT_BENCHMARK_BENCH_STATS_H_
#define STABLETEXT_BENCHMARK_BENCH_STATS_H_

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <vector>

namespace stbench {

/// Samples that must lie beyond a reported percentile.
constexpr uint64_t kMinBeyond = 10;

/// 1-based nearest rank of percentile `p` (0 < p <= 1) among `n` samples.
inline uint64_t NearestRank(double p, uint64_t n) {
  const double r = std::ceil(p * static_cast<double>(n) - 1e-9);
  return std::clamp<uint64_t>(static_cast<uint64_t>(std::max(r, 1.0)), 1,
                              std::max<uint64_t>(n, 1));
}

/// True when `p` may be reported from `n` samples (>= kMinBeyond beyond).
inline bool PercentileSupported(double p, uint64_t n) {
  return n > 0 && n - NearestRank(p, n) >= kMinBeyond;
}

/// The highest of `candidates` (descending) that `n` samples support, or
/// 0.5 when none does (the median is always reported).
inline double TailPercentile(uint64_t n, const std::vector<double>& candidates) {
  for (double p : candidates) {
    if (PercentileSupported(p, n)) return p;
  }
  return 0.5;
}

/// Nearest-rank percentile of `samples` (copied; order irrelevant).
inline double Percentile(std::vector<double> samples, double p) {
  if (samples.empty()) return 0;
  const uint64_t rank = NearestRank(p, samples.size());
  std::nth_element(samples.begin(), samples.begin() + (rank - 1),
                   samples.end());
  return samples[rank - 1];
}

inline double Median(std::vector<double> samples) {
  return Percentile(std::move(samples), 0.5);
}

/// \brief Log-linear histogram of non-negative integer samples.
///
/// Values below 2^kSubBits are exact; above, each power-of-two octave is
/// split into 2^kSubBits linear buckets and a bucket reports its midpoint,
/// so any reported value is within 1/2^(kSubBits+1) (0.4%) of a sample in
/// that bucket. Recording is a shift and an increment; histograms of one
/// shape merge by adding buckets, so each thread keeps its own and the
/// results are merged after the threads join.
class LogLinearHistogram {
 public:
  static constexpr int kSubBits = 7;
  static constexpr uint64_t kSub = uint64_t{1} << kSubBits;

  LogLinearHistogram() : buckets_((64 - kSubBits + 1) * kSub, 0) {}

  void Record(uint64_t value) {
    ++buckets_[Index(value)];
    ++count_;
  }

  void Merge(const LogLinearHistogram& other) {
    for (size_t i = 0; i < buckets_.size(); ++i) {
      buckets_[i] += other.buckets_[i];
    }
    count_ += other.count_;
  }

  uint64_t count() const { return count_; }

  /// Bucket midpoint of the sample with 1-based rank `rank`.
  double ValueAtRank(uint64_t rank) const {
    uint64_t seen = 0;
    for (size_t i = 0; i < buckets_.size(); ++i) {
      seen += buckets_[i];
      if (seen >= rank && buckets_[i] > 0) return Midpoint(i);
    }
    return 0;
  }

  double Percentile(double p) const {
    return count_ == 0 ? 0 : ValueAtRank(NearestRank(p, count_));
  }

 private:
  static size_t Index(uint64_t v) {
    if (v < kSub) return static_cast<size_t>(v);
    const int octave = 63 - __builtin_clzll(v);
    const int shift = octave - kSubBits;
    return (static_cast<size_t>(octave - kSubBits + 1) << kSubBits) +
           static_cast<size_t>((v >> shift) - kSub);
  }

  static double Midpoint(size_t index) {
    if (index < kSub) return static_cast<double>(index);
    const int shift = static_cast<int>(index >> kSubBits) - 1;
    const double lower = static_cast<double>(
        ((index & (kSub - 1)) + kSub) << shift);
    return lower + static_cast<double>(uint64_t{1} << shift) / 2.0 - 0.5;
  }

  std::vector<uint64_t> buckets_;
  uint64_t count_ = 0;
};

/// \brief A timed run summarized per window.
///
/// The measured period is cut into equal windows and each sample is filed
/// under the window it completed in. Interference from outside the
/// process (other tenants of a shared machine) arrives in bursts of a few
/// seconds; a median over windows ignores a burst unless it covers most
/// of the run, where a median over all samples shifts with every burst.
struct WindowSummary {
  double rate_per_s = 0;       ///< Median over windows of samples / second.
  double p50 = 0;              ///< Median over windows of the window median.
  double tail = 0;             ///< See SummarizeWindows.
  double tail_percentile = 0;
  uint64_t samples = 0;
};

/// Window index of a sample completing at `t_ns`, or -1 outside the run.
inline int64_t WindowOf(int64_t begin_ns, int64_t window_ns, size_t windows,
                        int64_t t_ns) {
  if (t_ns < begin_ns) return -1;
  const int64_t w = (t_ns - begin_ns) / window_ns;
  return w < static_cast<int64_t>(windows) ? w : -1;
}

/// Summarizes per-window samples. The tail is the highest of
/// `tail_candidates` that every window supports, as a median over
/// windows; when windows are too small for any, it is the highest
/// percentile the pooled samples support.
inline WindowSummary SummarizeWindows(
    const std::vector<std::vector<double>>& windows, double window_s,
    const std::vector<double>& tail_candidates) {
  WindowSummary out;
  std::vector<double> all, rates, p50s;
  uint64_t smallest = UINT64_MAX;
  for (const std::vector<double>& w : windows) {
    rates.push_back(static_cast<double>(w.size()) / window_s);
    if (!w.empty()) p50s.push_back(Median(w));
    smallest = std::min<uint64_t>(smallest, w.size());
    all.insert(all.end(), w.begin(), w.end());
  }
  out.samples = all.size();
  out.rate_per_s = Median(rates);
  out.p50 = Median(p50s);
  out.tail_percentile = TailPercentile(smallest, tail_candidates);
  if (out.tail_percentile > 0.5) {
    std::vector<double> tails;
    for (const std::vector<double>& w : windows) {
      tails.push_back(Percentile(w, out.tail_percentile));
    }
    out.tail = Median(tails);
  } else {
    std::vector<double> pooled = tail_candidates;
    pooled.push_back(0.5);
    out.tail_percentile = TailPercentile(all.size(), pooled);
    out.tail = Percentile(all, out.tail_percentile);
  }
  return out;
}

/// Same, over per-window histograms (values in the histogram's unit).
inline WindowSummary SummarizeWindows(
    const std::vector<LogLinearHistogram>& windows, double window_s,
    const std::vector<double>& tail_candidates) {
  WindowSummary out;
  std::vector<double> rates, p50s;
  uint64_t smallest = UINT64_MAX;
  LogLinearHistogram all;
  for (const LogLinearHistogram& w : windows) {
    rates.push_back(static_cast<double>(w.count()) / window_s);
    if (w.count() > 0) p50s.push_back(w.Percentile(0.5));
    smallest = std::min<uint64_t>(smallest, w.count());
    all.Merge(w);
  }
  out.samples = all.count();
  out.rate_per_s = Median(rates);
  out.p50 = Median(p50s);
  out.tail_percentile = TailPercentile(smallest, tail_candidates);
  if (out.tail_percentile > 0.5) {
    std::vector<double> tails;
    for (const LogLinearHistogram& w : windows) {
      tails.push_back(w.Percentile(out.tail_percentile));
    }
    out.tail = Median(tails);
  } else {
    std::vector<double> pooled = tail_candidates;
    pooled.push_back(0.5);
    out.tail_percentile = TailPercentile(all.count(), pooled);
    out.tail = all.Percentile(out.tail_percentile);
  }
  return out;
}

}  // namespace stbench

#endif  // STABLETEXT_BENCHMARK_BENCH_STATS_H_
