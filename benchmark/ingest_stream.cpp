// ingest_stream: the writer alone. Ticks of 1000 posts go through
// Engine::IngestText in a closed loop (the next is submitted when the
// previous returns) with gap 1, 4 pool threads, no readers and durability
// off. The tick's Section 3 stages do nearly all the work here; query
// paths and the network layer do nothing, so a read-side change must
// leave this workload unchanged.

#include <memory>
#include <numeric>

#include "bench_stats.h"
#include "probe.h"
#include "replay.h"
#include "workloads.h"

namespace stbench {

using namespace stabletext;

namespace {

// The determinism check compares the measured engine at this epoch with
// a single-threaded engine over the same ticks.
uint64_t PinEpoch(const Config& config) { return config.smoke ? 8 : 64; }

std::vector<FinderQuery> CheckQueries() {
  return {KlQuery(FinderAlgorithm::kBfs, 10, 3),
          KlQuery(FinderAlgorithm::kDfs, 10, 3),
          KlQuery(FinderAlgorithm::kOnline, 10, 3)};
}

}  // namespace

void RunIngestStream(const Config& config, const Corpus& corpus,
                     RunResult* result) {
  const EngineOptions options = BaseOptions(/*gap=*/1, /*threads=*/4);
  EndToEnd e2e;
  std::unique_ptr<Engine> engine;
  bool ingest_ok = true;
  for (int s = 0; s < config.setups(); ++s) {
    engine.reset();
    const int64_t start = NowNs();
    engine = std::make_unique<Engine>(options);
    for (uint32_t t = 0; t < config.ingest_warmup(); ++t) {
      ingest_ok &= engine->IngestText(corpus.Tick(t)).ok();
    }
    e2e.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }

  SpanLog log(0);
  SpanLog* trace = config.traced() ? &log : nullptr;
  std::vector<std::vector<double>> tick_ms(config.windows());
  std::vector<double> publish_us;
  std::shared_ptr<const GraphSnapshot> pinned;
  uint64_t next = config.ingest_warmup();
  const int64_t begin = NowNs();
  const int64_t deadline =
      begin + config.window_ns() * static_cast<int64_t>(config.windows());
  while (NowNs() < deadline) {
    const int64_t start = NowNs();
    auto ingested = engine->IngestText(corpus.Tick(next));
    const int64_t end = NowNs();
    ++result->attempted;
    if (!ingested.ok()) {
      ++result->failed;
      ingest_ok = false;
      break;
    }
    const int64_t w =
        WindowOf(begin, config.window_ns(), config.windows(), end);
    if (w >= 0) tick_ms[w].push_back(static_cast<double>(end - start) / 1e6);
    if (trace != nullptr) {
      trace->Add("core.tick", start, end, -1, next);
      publish_us.push_back(static_cast<double>(engine->stats().publish_ns) /
                           1e3);
    }
    ++next;
    if (next == PinEpoch(config)) pinned = engine->snapshot();
  }
  if (pinned == nullptr) pinned = engine->snapshot();
  result->Check("ingest_ticks_committed",
                ingest_ok && next > config.ingest_warmup());

  // Byte-identical answers at any thread count: replay the pinned epoch's
  // ticks on a threads = 1 engine.
  {
    Engine reference(BaseOptions(/*gap=*/1, /*threads=*/1));
    bool ok = true;
    for (uint64_t t = 0; t < pinned->epoch; ++t) {
      ok &= reference.IngestText(corpus.Tick(t)).ok();
    }
    const auto ref = reference.snapshot();
    ok &= ref->stats.clusters == pinned->stats.clusters &&
          ref->stats.edges == pinned->stats.edges;
    bool first = true;
    for (const FinderQuery& q : CheckQueries()) {
      uint64_t measured = ReferenceFingerprint(*pinned, q);
      if (first && config.inject_wrong_answer) measured ^= 1;
      first = false;
      ok &= measured != 0 && measured == ReferenceFingerprint(*ref, q);
    }
    result->Check("threads1_matches_threads4_at_pinned_epoch", ok);
    result->Detail("pinned_epoch", static_cast<double>(pinned->epoch),
                   "count");
  }

  const EngineStats stats = engine->stats();
  if (!config.traced()) {
    e2e.latency = SummarizeWindows(tick_ms, config.window_ns() / 1e9,
                                   {0.95, 0.90});
    // A window holds ~50 ticks, too few to count in whole ticks; with
    // one writer in a closed loop its rate is ticks over their summed
    // commit time.
    std::vector<double> rates;
    for (const std::vector<double>& w : tick_ms) {
      const double busy_ms = std::accumulate(w.begin(), w.end(), 0.0);
      if (busy_ms > 0) {
        rates.push_back(static_cast<double>(w.size()) *
                        Corpus::kPostsPerTick / (busy_ms / 1e3));
      }
    }
    e2e.throughput_per_s = Median(rates);
    e2e.resident_bytes = stats.resident_bytes;
    e2e.epochs = stats.intervals;
    AddEndToEnd(result, e2e);
    return;
  }
  ReplayCommittedTicks(config, corpus, options, *engine->snapshot(), &log,
                       publish_us, result);
  RunQueryProbes(engine.get(), config, /*port=*/0, WireTraffic{}, &log,
                 result);
  FinishTrace(config, {&log}, result);
}

}  // namespace stbench
