#include "probe.h"

#include <memory>

#include "bench_stats.h"
#include "net/client.h"
#include "net/server.h"

namespace stbench {

using namespace stabletext;

namespace {

constexpr int kBatches = 16;
constexpr int kPinsPerBatch = 4096;
constexpr int kHitsPerBatch = 1024;
constexpr int kProbesPerFinder = 8;
constexpr int kRoundTrips = 256;

std::vector<FinderQuery> ProbeQueries(uint64_t seed, bool gap0) {
  using A = FinderAlgorithm;
  Rng rng(seed ^ 0x70b3);
  std::vector<FinderQuery> out;
  for (A algorithm : {A::kBfs, A::kDfs, A::kOnline}) {
    for (int i = 0; i < kProbesPerFinder; ++i) {
      out.push_back(KlQuery(algorithm, 1 + rng.Uniform(64),
                            static_cast<uint32_t>(2 + rng.Uniform(7))));
    }
  }
  if (gap0) {
    for (int i = 0; i < kProbesPerFinder; ++i) {
      out.push_back(KlQuery(A::kTa, 1 + rng.Uniform(64), 0));
    }
  }
  for (int i = 0; i < kProbesPerFinder; ++i) {
    out.push_back(NormalizedQuery(i % 2 == 0 ? A::kBfs : A::kDfs,
                                  1 + rng.Uniform(16),
                                  static_cast<uint32_t>(2 + rng.Uniform(3))));
  }
  return out;
}

// Per-call nanoseconds of `calls` invocations of `fn`, one span per batch;
// the median batch is reported.
template <typename Fn>
double BatchedNanos(SpanLog* log, const char* span, int calls, Fn&& fn) {
  std::vector<double> per_call;
  for (int b = 0; b < kBatches; ++b) {
    ScopedSpan s(log, span);
    const int64_t start = NowNs();
    for (int i = 0; i < calls; ++i) fn();
    per_call.push_back(static_cast<double>(NowNs() - start) / calls);
  }
  return Median(per_call);
}

}  // namespace

void TraceInProcess(const Engine& engine, const FinderQuery& query,
                    uint64_t request, SpanLog* log) {
  std::shared_ptr<const GraphSnapshot> pinned;
  {
    ScopedSpan s(log, "core.snapshot", -1, request);
    pinned = engine.snapshot();
  }
  Result<StableFinderResult> found = Status::Internal("not run");
  {
    ScopedSpan s(log, "stable.finder." + FinderLabel(query), -1, request);
    found = RunFinder(*pinned->graph, query);
  }
  if (found.ok()) {
    ScopedSpan s(log, "core.to_chains", -1, request);
    (void)pinned->ToChains(found.value().paths);
  }
}

void RunQueryProbes(Engine* engine, const Config& config, uint16_t port,
                    const WireTraffic& traffic, SpanLog* log,
                    RunResult* result) {
  const std::shared_ptr<const GraphSnapshot> snap = engine->snapshot();
  const bool gap0 = snap->graph->gap() == 0;
  const FinderQuery hot = HotSet(gap0)[0];

  std::shared_ptr<const GraphSnapshot> sink;
  const double pin_ns = BatchedNanos(log, "core.pin_batch", kPinsPerBatch,
                                     [&] { sink = engine->snapshot(); });
  bool probes_ok = engine->QueryAt(snap, hot).ok();
  const double hit_ns =
      BatchedNanos(log, "core.cache_hit_batch", kHitsPerBatch, [&] {
        probes_ok &= engine->QueryAt(snap, hot).ok();
      });

  uint64_t heap_offers = 0, nodes_pushed = 0, edges_scanned = 0;
  uint64_t random_probes = 0, peak_memory = 0;
  const std::vector<FinderQuery> probes = ProbeQueries(config.seed, gap0);
  for (size_t i = 0; i < probes.size(); ++i) {
    const FinderQuery& q = probes[i];
    ScopedSpan probe(log, "probe.query", -1, i);
    std::shared_ptr<const GraphSnapshot> pinned;
    {
      ScopedSpan s(log, "core.snapshot", probe.id(), i);
      pinned = engine->snapshot();
    }
    Result<StableFinderResult> found = Status::Internal("not run");
    {
      ScopedSpan s(log, "stable.finder." + FinderLabel(q), probe.id(), i);
      found = RunFinder(*pinned->graph, q);
    }
    if (!found.ok()) {
      probes_ok = false;
      continue;
    }
    {
      ScopedSpan s(log, "core.to_chains", probe.id(), i);
      probes_ok &= pinned->ToChains(found.value().paths).ok();
    }
    heap_offers += found.value().heap_offers;
    nodes_pushed += found.value().nodes_pushed;
    edges_scanned += found.value().edges_scanned;
    random_probes += found.value().random_probes;
    peak_memory += found.value().peak_memory_bytes;
  }

  // Wire round trips of the cached hot query.
  std::unique_ptr<net::Server> own_server;
  if (port == 0) {
    net::ServerOptions options;
    options.workers = 2;
    own_server = std::make_unique<net::Server>(engine, options);
    probes_ok &= own_server->Start().ok();
    port = own_server->port();
  }
  std::vector<double> rtt_us;
  double reply_bytes = 0;
  {
    net::Client client;
    probes_ok &= client.Connect("127.0.0.1", port, 5).ok();
    for (int i = 0; i < kRoundTrips && client.connected(); ++i) {
      bool retry = false;
      const int64_t start = NowNs();
      auto r = client.Query(hot, /*render=*/false, &retry);
      const int64_t end = NowNs();
      log->Add("net.rtt", start, end, -1, static_cast<uint64_t>(i));
      if (!r.ok() || retry) {
        probes_ok = false;
        continue;
      }
      rtt_us.push_back(static_cast<double>(end - start) / 1e3);
      reply_bytes = static_cast<double>(net::EncodeResultBody(r.value()).size() +
                                        net::kFrameHeaderBytes + 9);
    }
    client.Close();
  }
  if (own_server != nullptr) own_server->Shutdown();
  result->Check("query_probes_answered", probes_ok);

  const double n = static_cast<double>(probes.size());
  const EngineStats stats = engine->stats();
  const uint64_t lookups = stats.query_cache_hits + stats.query_cache_misses;
  auto finder_ms = [&](const char* label) {
    return Median(SpanMillis({log}, std::string("stable.finder.") + label));
  };
  const double rtt = Median(rtt_us);
  result->Add("core.pin_ns", pin_ns, "ns");
  result->Add("core.cache_hit_ns", hit_ns, "ns");
  result->Add("core.cache_hit_ratio",
              lookups == 0 ? 0 : static_cast<double>(stats.query_cache_hits) /
                                     static_cast<double>(lookups),
              "ratio");
  result->Add("stable.finder_bfs_ms", finder_ms("bfs"), "ms");
  result->Add("stable.finder_dfs_ms", finder_ms("dfs"), "ms");
  result->Add("stable.finder_normalized_ms", finder_ms("normalized"), "ms");
  result->Add("stable.finder_online_ms", finder_ms("online"), "ms");
  result->Add("stable.heap_offers", heap_offers / n, "count");
  result->Add("stable.nodes_pushed", nodes_pushed / n, "count");
  result->Add("stable.edges_scanned", edges_scanned / n, "count");
  result->Add("stable.random_probes", random_probes / n, "count");
  result->Add("stable.peak_memory_kb", peak_memory / n / 1024.0, "KiB");
  result->Add("core.to_chains_us",
              Median(SpanMillis({log}, "core.to_chains")) * 1e3, "us");
  result->Add("net.rtt_us", rtt, "us");
  result->Add("net.overhead_us", rtt - hit_ns / 1e3, "us");
  result->Add("net.reply_bytes", reply_bytes, "bytes");
  result->Add("net.retry_ratio",
              traffic.attempts == 0
                  ? 0
                  : static_cast<double>(traffic.retries) /
                        static_cast<double>(traffic.attempts),
              "ratio");
  if (gap0) {
    result->Detail("stable.finder_ta_ms", finder_ms("ta"), "ms");
  }
}

}  // namespace stbench
