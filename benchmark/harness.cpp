#include "harness.h"

#include <sys/resource.h>

#include <cstdio>
#include <cstring>

#include "bench_stats.h"
#include "gen/corpus_generator.h"

namespace stbench {

using namespace stabletext;

Corpus::Corpus(uint64_t seed) {
  CorpusGenOptions options;
  options.days = kDays;
  options.posts_per_day = kPostsPerTick;
  options.vocabulary = 8000;
  options.min_words_per_post = 12;
  options.max_words_per_post = 28;
  options.micro_events = 600;
  options.seed = seed;
  options.script = EventScript::PaperWeek();
  CorpusGenerator generator(options);
  for (uint32_t day = 0; day < kDays; ++day) {
    days_.push_back(generator.GenerateDay(day));
  }
}

std::vector<std::vector<std::string>> Corpus::Ticks(uint64_t first,
                                                    uint64_t count) const {
  std::vector<std::vector<std::string>> out;
  out.reserve(count);
  for (uint64_t n = first; n < first + count; ++n) out.push_back(Tick(n));
  return out;
}

EngineOptions BaseOptions(uint32_t gap, size_t threads) {
  EngineOptions options;
  options.gap = gap;
  options.threads = threads;
  options.clustering.pruning.rho_threshold = 0.2;
  options.clustering.pruning.min_pair_support = 5;
  options.affinity.theta = 0.1;
  return options;
}

bool Backfill(Engine* engine,
              const std::vector<std::vector<std::string>>& ticks,
              SpanLog* log, std::vector<double>* publish_us) {
  int64_t last = NowNs();
  auto on_tick = [&](uint32_t interval, const std::vector<std::string>&) {
    const int64_t now = NowNs();
    log->Add("core.tick", last, now, -1, interval);
    publish_us->push_back(
        static_cast<double>(engine->stats().publish_ns) / 1e3);
    last = now;
    return Status::OK();
  };
  auto r = engine->IngestTicks(ticks, log != nullptr
                                          ? Engine::TickCallback(on_tick)
                                          : Engine::TickCallback());
  return r.ok() && r.value() == ticks.size();
}

FinderQuery KlQuery(FinderAlgorithm algorithm, size_t k, uint32_t l) {
  FinderQuery q;
  q.algorithm = algorithm;
  q.mode = FinderMode::kKlStable;
  q.k = k;
  q.l = algorithm == FinderAlgorithm::kTa ? 0 : l;
  return q;
}

FinderQuery NormalizedQuery(FinderAlgorithm algorithm, size_t k,
                            uint32_t lmin) {
  FinderQuery q;
  q.algorithm = algorithm;
  q.mode = FinderMode::kNormalized;
  q.k = k;
  q.l = lmin;
  return q;
}

std::string FinderLabel(const FinderQuery& q) {
  if (q.mode == FinderMode::kNormalized) return "normalized";
  return FinderAlgorithmName(q.algorithm);
}

std::vector<FinderQuery> HotSet(bool gap0) {
  using A = FinderAlgorithm;
  if (gap0) {
    return {KlQuery(A::kBfs, 5, 3),    KlQuery(A::kDfs, 5, 3),
            KlQuery(A::kTa, 5, 0),     KlQuery(A::kOnline, 5, 3),
            KlQuery(A::kBfs, 10, 2),   KlQuery(A::kDfs, 10, 4),
            KlQuery(A::kTa, 10, 0),    KlQuery(A::kOnline, 10, 2)};
  }
  return {KlQuery(A::kBfs, 5, 3),  KlQuery(A::kDfs, 5, 3),
          KlQuery(A::kBfs, 3, 4),  KlQuery(A::kOnline, 5, 3),
          KlQuery(A::kBfs, 10, 2), KlQuery(A::kDfs, 10, 4),
          KlQuery(A::kDfs, 3, 2),  KlQuery(A::kBfs, 20, 3)};
}

ColdMix::ColdMix(bool gap0, bool include_normalized) {
  using A = FinderAlgorithm;
  for (A algorithm : {A::kBfs, A::kDfs}) {
    for (size_t k = 1; k <= 64; ++k) {
      for (uint32_t l = 2; l <= 8; ++l) {
        queries_.push_back(KlQuery(algorithm, k, l));
      }
    }
  }
  if (gap0) {
    for (size_t k = 1; k <= 64; ++k) queries_.push_back(KlQuery(A::kTa, k, 0));
  }
  kl_count_ = queries_.size();
  if (include_normalized) {
    for (A algorithm : {A::kBfs, A::kDfs}) {
      for (size_t k = 1; k <= 16; ++k) {
        for (uint32_t lmin = 2; lmin <= 4; ++lmin) {
          queries_.push_back(NormalizedQuery(algorithm, k, lmin));
        }
      }
    }
  }
}

size_t ColdMix::Draw(Rng* rng) const {
  if (queries_.size() > kl_count_ && rng->NextDouble() < 0.05) {
    return kl_count_ + rng->Uniform(queries_.size() - kl_count_);
  }
  return rng->Uniform(kl_count_);
}

namespace {

struct Fnv {
  uint64_t h = 1469598103934665603ULL;
  void Mix(const void* p, size_t n) {
    const auto* b = static_cast<const unsigned char*>(p);
    for (size_t i = 0; i < n; ++i) {
      h ^= b[i];
      h *= 1099511628211ULL;
    }
  }
  template <typename T>
  void Mix(const T& v) {
    Mix(&v, sizeof(v));
  }
};

void MixPath(Fnv* f, const std::vector<NodeId>& nodes, double weight,
             uint32_t length) {
  const uint64_t n = nodes.size();
  f->Mix(n);
  f->Mix(nodes.data(), nodes.size() * sizeof(NodeId));
  f->Mix(weight);
  f->Mix(length);
}

}  // namespace

uint64_t Fingerprint(const std::vector<net::WireChain>& chains) {
  Fnv f;
  for (const net::WireChain& c : chains) {
    MixPath(&f, c.nodes, c.weight, c.length);
  }
  return f.h;
}

uint64_t Fingerprint(const QueryResult& result) {
  Fnv f;
  for (const StableClusterChain& c : result.chains) {
    MixPath(&f, c.path.nodes, c.path.weight, c.path.length);
  }
  return f.h;
}

uint64_t ReferenceFingerprint(const GraphSnapshot& snap,
                              const FinderQuery& query) {
  auto r = QuerySnapshot(snap, query);
  return r.ok() ? Fingerprint(r.value()) : 0;
}

void RunResult::Check(const std::string& name, bool ok) {
  checks.emplace_back(name, ok);
  ++attempted;
  if (!ok) ++failed;
}

bool RunResult::correct() const {
  for (const auto& [name, ok] : checks) {
    if (!ok) return false;
  }
  return !checks.empty();
}

namespace {

std::string Escape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out;
}

std::string Number(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsObject(const std::vector<Metric>& metrics) {
  std::string out = "{";
  for (size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + Escape(metrics[i].name) + "\":{\"value\":" +
           Number(metrics[i].value) + ",\"unit\":\"" +
           Escape(metrics[i].unit) + "\"}";
  }
  return out + "}";
}

}  // namespace

std::string ResultJson(const Config& config, const RunResult& result) {
  std::string out = "{\"workload\":\"" + Escape(config.workload) + "\"";
  out += ",\"seed\":" + std::to_string(config.seed);
  out += ",\"seconds\":" + Number(config.seconds);
  out += ",\"trace\":" + std::string(config.traced() ? "1" : "0");
  out += ",\"smoke\":" + std::string(config.smoke ? "1" : "0");
  out += ",\"correct\":" + std::string(result.correct() ? "true" : "false");
  out += ",\"attempted\":" + std::to_string(result.attempted);
  out += ",\"failed\":" + std::to_string(result.failed);
  out += ",\"metrics\":" + MetricsObject(result.metrics);
  out += ",\"details\":" + MetricsObject(result.details);
  out += ",\"checks\":{";
  for (size_t i = 0; i < result.checks.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + Escape(result.checks[i].first) + "\":" +
           (result.checks[i].second ? "true" : "false");
  }
  out += "},\"notes\":{";
  for (size_t i = 0; i < result.notes.size(); ++i) {
    if (i > 0) out += ",";
    out += "\"" + Escape(result.notes[i].first) + "\":\"" +
           Escape(result.notes[i].second) + "\"";
  }
  return out + "}}";
}

double PeakRssMb() {
  rusage usage;
  std::memset(&usage, 0, sizeof(usage));
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

void AddEndToEnd(RunResult* result, const EndToEnd& e2e) {
  result->Add("setup_s", Median(e2e.setup_s), "s");
  result->Add("throughput_per_s", e2e.throughput_per_s, "1/s");
  result->Add("latency_p50_ms", e2e.latency.p50, "ms");
  result->Add("latency_tail_ms", e2e.latency.tail, "ms");
  result->Add("resident_kb_per_tick",
              e2e.epochs == 0 ? 0
                              : static_cast<double>(e2e.resident_bytes) /
                                    1024.0 / static_cast<double>(e2e.epochs),
              "KiB");
  result->Add("peak_rss_mb", PeakRssMb(), "MiB");
  result->Detail("latency_tail_percentile",
                 100 * e2e.latency.tail_percentile, "%");
  result->Detail("latency_samples",
                 static_cast<double>(e2e.latency.samples), "count");
  result->Detail("epochs", static_cast<double>(e2e.epochs), "count");
  for (size_t i = 0; i < e2e.setup_s.size(); ++i) {
    result->Detail("setup_s." + std::to_string(i), e2e.setup_s[i], "s");
  }
}

void FinishTrace(const Config& config, const std::vector<const SpanLog*>& logs,
                 RunResult* result) {
  size_t spans = 0;
  for (const SpanLog* log : logs) spans += log->spans().size();
  result->Check("trace_written", WriteChromeTrace(config.trace_path, logs));
  result->Detail("trace.spans", static_cast<double>(spans), "count");
  result->Note("trace_file", config.trace_path);
  std::printf("per-layer self time (%s, seed %llu, %zu spans):\n%s",
              config.workload.c_str(),
              static_cast<unsigned long long>(config.seed), spans,
              FormatSelfTimeTable(ComputeSelfTimes(logs)).c_str());
}

}  // namespace stbench
