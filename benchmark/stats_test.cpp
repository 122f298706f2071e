// Self-test of the benchmark's statistics and trace accounting: the
// percentile reporting rule, nearest-rank percentiles, histogram merge
// error, and span self time. (The compare rules are tested by
// `compare.py --self-test`.) Exits non-zero on the first failure.

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <vector>

#include "bench_stats.h"
#include "trace.h"

namespace {

int failures = 0;

void Expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++failures;
  }
}

void TestPercentileRule() {
  using stbench::PercentileSupported;
  Expect(!PercentileSupported(0.99, 100), "p99 of 100 has 1 beyond");
  Expect(!PercentileSupported(0.99, 999), "p99 of 999 has 9 beyond");
  Expect(PercentileSupported(0.99, 1000), "p99 of 1000 has 10 beyond");
  Expect(!PercentileSupported(0.95, 199), "p95 of 199 has 9 beyond");
  Expect(PercentileSupported(0.95, 200), "p95 of 200 has 10 beyond");
  Expect(!PercentileSupported(0.5, 0), "nothing from no samples");
  Expect(stbench::TailPercentile(580, {0.99, 0.95}) == 0.95,
         "580 samples support p95, not p99");
  Expect(stbench::TailPercentile(5000, {0.99, 0.95}) == 0.99,
         "5000 samples support p99");
  Expect(stbench::TailPercentile(12, {0.99, 0.95, 0.90}) == 0.5,
         "12 samples: median only");
}

void TestExactPercentiles() {
  std::vector<double> v;
  for (int i = 100; i >= 1; --i) v.push_back(i);
  Expect(stbench::Percentile(v, 0.5) == 50, "median of 1..100 is 50");
  Expect(stbench::Percentile(v, 0.99) == 99, "p99 of 1..100 is 99");
  Expect(stbench::Percentile(v, 1.0) == 100, "p100 is the maximum");
  Expect(stbench::Median({3, 1, 2}) == 2, "median of three");
}

void TestHistogramMergeError() {
  // Log-uniform samples over 1 ns .. 10 s, split across two histograms.
  std::vector<double> all;
  stbench::LogLinearHistogram a, b;
  uint64_t state = 88172645463325252ULL;
  for (int i = 0; i < 200000; ++i) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    const double u = static_cast<double>(state >> 11) / 9007199254740992.0;
    const uint64_t v = static_cast<uint64_t>(std::pow(10.0, 10.0 * u));
    all.push_back(static_cast<double>(v));
    (i % 3 == 0 ? a : b).Record(v);
  }
  a.Merge(b);
  Expect(a.count() == all.size(), "merge keeps every sample");
  for (double p : {0.5, 0.9, 0.99, 0.999}) {
    const double exact = stbench::Percentile(all, p);
    const double approx = a.Percentile(p);
    if (std::fabs(approx - exact) > 0.01 * exact + 0.5) {
      std::fprintf(stderr, "p%.3f exact %.1f histogram %.1f\n", p, exact,
                   approx);
      Expect(false, "histogram percentile within 1%");
    }
  }
  stbench::LogLinearHistogram small;
  for (uint64_t v = 0; v < 100; ++v) small.Record(v);
  Expect(small.Percentile(0.5) == 49, "values below 128 are exact");
}

void TestSelfTime() {
  stbench::SpanLog log(0);
  const size_t parent = log.Add("core.tick", 0, 100);
  log.Add("text.process", 10, 30, static_cast<int64_t>(parent));
  log.Add("cooccur.finish", 20, 50, static_cast<int64_t>(parent));
  log.Add("graph.build", 90, 120, static_cast<int64_t>(parent));
  double self_ns = -1;
  for (const auto& t : stbench::ComputeSelfTimes({&log})) {
    if (t.name == "core.tick") self_ns = t.self_ms * 1e6;
  }
  // Children cover [10,50) and [90,100) of the parent: 50 ns.
  Expect(std::fabs(self_ns - 50) < 1e-6, "self time subtracts child union");
}

}  // namespace

int main() {
  TestPercentileRule();
  TestExactPercentiles();
  TestHistogramMergeError();
  TestSelfTime();
  if (failures == 0) std::printf("stats_test: all checks passed\n");
  return failures == 0 ? EXIT_SUCCESS : EXIT_FAILURE;
}
