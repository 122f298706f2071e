// Shared pieces of the benchmark binary: run configuration, the seeded
// corpus, engine settings, query mixes, answer fingerprints and the
// result record every workload fills.

#ifndef STABLETEXT_BENCHMARK_HARNESS_H_
#define STABLETEXT_BENCHMARK_HARNESS_H_

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "bench_stats.h"
#include "core/engine.h"
#include "net/protocol.h"
#include "trace.h"
#include "util/random.h"

namespace stbench {

struct Config {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;       ///< Measured time of one run.
  std::string trace_path;    ///< Non-empty: traced run, trace written here.
  std::string scratch;       ///< Directory for durable state and logs.
  bool smoke = false;        ///< Tiny sizes, every check still on.
  bool inject_wrong_answer = false;  ///< Negative control for the checks.

  bool traced() const { return !trace_path.empty(); }
  /// Engine set-ups per run; setup_s reports their median. A traced run
  /// reports no setup_s and sets up once.
  int setups() const { return smoke || traced() ? 1 : 3; }
  /// Ticks ingested before a query workload starts.
  uint32_t query_backfill() const { return smoke ? 16 : 128; }
  /// Ticks ingested before live_mixed starts.
  uint32_t live_backfill() const { return smoke ? 8 : 64; }
  /// Ticks ingest_stream commits during set-up (gap window, pool and
  /// allocator warm).
  uint32_t ingest_warmup() const { return smoke ? 4 : 32; }
  /// Measured seconds: a traced run measures half as long.
  double measure_seconds() const { return traced() ? seconds / 2 : seconds; }
  /// The measured period is summarized in windows of about one second.
  size_t windows() const {
    return std::max<size_t>(1, static_cast<size_t>(measure_seconds()));
  }
  int64_t window_ns() const {
    return std::max<int64_t>(
        1, static_cast<int64_t>(measure_seconds() * 1e9) /
               static_cast<int64_t>(windows()));
  }
};

/// \brief The seeded corpus: 28 generated days of posts, cycled.
class Corpus {
 public:
  static constexpr uint32_t kDays = 28;
  static constexpr uint32_t kPostsPerTick = 1000;

  explicit Corpus(uint64_t seed);

  /// Posts of tick `n` (day n mod 28).
  const std::vector<std::string>& Tick(uint64_t n) const {
    return days_[n % days_.size()];
  }
  std::vector<std::vector<std::string>> Ticks(uint64_t first,
                                              uint64_t count) const;

 private:
  std::vector<std::vector<std::string>> days_;
};

/// Engine settings of every workload: rho 0.2, min support 5, theta 0.1,
/// the default query cache.
stabletext::EngineOptions BaseOptions(uint32_t gap, size_t threads);

/// Commits `ticks` through IngestTicks (pipelined). With `log`, each
/// tick's commit interval (callback to callback) becomes a "core.tick"
/// span and its EngineStats::publish_ns is appended to `publish_us`.
bool Backfill(stabletext::Engine* engine,
              const std::vector<std::vector<std::string>>& ticks,
              SpanLog* log, std::vector<double>* publish_us);

stabletext::FinderQuery KlQuery(stabletext::FinderAlgorithm algorithm,
                                size_t k, uint32_t l);
stabletext::FinderQuery NormalizedQuery(
    stabletext::FinderAlgorithm algorithm, size_t k, uint32_t lmin);
/// "bfs", "dfs", "ta", "online" or "normalized".
std::string FinderLabel(const stabletext::FinderQuery& q);

/// The eight hot queries (bfs, dfs, ta, online). TA needs gap 0; with a
/// gap the TA slots go to more bfs/dfs shapes, and only one online (k, l)
/// is used so readers never evict the warm configuration a standing
/// subscription keeps.
std::vector<stabletext::FinderQuery> HotSet(bool gap0);

/// \brief The cold query population: bfs/dfs kl-stable with k 1-64 and
/// l 2-8, TA with k 1-64 (gap 0 only), and normalized bfs/dfs with k 1-16
/// and lmin 2-4 drawn 5% of the time.
class ColdMix {
 public:
  explicit ColdMix(bool gap0, bool include_normalized = true);
  /// Index of a query drawn from the mix.
  size_t Draw(stabletext::Rng* rng) const;
  const std::vector<stabletext::FinderQuery>& queries() const {
    return queries_;
  }

 private:
  std::vector<stabletext::FinderQuery> queries_;
  size_t kl_count_ = 0;  ///< queries_[0, kl_count_) are kl-stable.
};

/// Order-sensitive hash of a top-k answer (nodes, weight bits, length).
uint64_t Fingerprint(const std::vector<stabletext::net::WireChain>& chains);
uint64_t Fingerprint(const stabletext::QueryResult& result);

/// Reference answer of `query` at `snap`, through the engine's lock-free
/// read path without the cache (QuerySnapshot). 0 on error.
uint64_t ReferenceFingerprint(const stabletext::GraphSnapshot& snap,
                              const stabletext::FinderQuery& query);

struct Metric {
  std::string name;
  double value = 0;
  std::string unit;
};

/// \brief What one workload run reports.
struct RunResult {
  /// End-to-end metrics (untraced run) or per-layer metrics (traced run).
  std::vector<Metric> metrics;
  /// Workload-specific numbers behind the metrics (printed, not bounded).
  std::vector<Metric> details;
  std::vector<std::pair<std::string, bool>> checks;
  std::vector<std::pair<std::string, std::string>> notes;
  uint64_t attempted = 0;
  uint64_t failed = 0;

  void Add(const std::string& name, double value, const std::string& unit) {
    metrics.push_back(Metric{name, value, unit});
  }
  void Detail(const std::string& name, double value,
              const std::string& unit) {
    details.push_back(Metric{name, value, unit});
  }
  void Note(const std::string& key, const std::string& value) {
    notes.emplace_back(key, value);
  }
  /// Records a correctness check; a failed check also counts a failure.
  void Check(const std::string& name, bool ok);
  bool correct() const;
};

/// Result record as one JSON object (one line).
std::string ResultJson(const Config& config, const RunResult& result);

/// Peak resident set of this process (getrusage), MiB.
double PeakRssMb();

/// The end-to-end numbers of one untraced run.
struct EndToEnd {
  std::vector<double> setup_s;  ///< One entry per set-up; median reported.
  double throughput_per_s = 0;  ///< Median window rate.
  WindowSummary latency;        ///< Milliseconds.
  uint64_t resident_bytes = 0;  ///< EngineStats::resident_bytes at the end.
  uint64_t epochs = 0;          ///< Committed intervals at the end.
};

/// Adds the end-to-end metrics (the BENCHMARK.json list, in its order).
void AddEndToEnd(RunResult* result, const EndToEnd& e2e);

/// Writes the Chrome trace to config.trace_path and prints the per-layer
/// self-time table.
void FinishTrace(const Config& config, const std::vector<const SpanLog*>& logs,
                 RunResult* result);

}  // namespace stbench

#endif  // STABLETEXT_BENCHMARK_HARNESS_H_
