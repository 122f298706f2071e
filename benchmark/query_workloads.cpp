// The two read-only workloads. Both serve the same graph: set-up commits
// 128 ticks through IngestTicks with gap 0 (so TA can be served) and 4
// pool threads, and nothing is ingested afterwards.
//
// query_cold: 4 connections run a closed loop against net::Server (2
// workers) over about 1,050 distinct queries drawn uniformly and seeded.
// Only ~256 answers fit in the default query cache, so the finders do the
// work and the wire adds ~0.1 ms.
//
// query_hot: 4 threads call Engine::Query in a closed loop over 8
// distinct queries chosen Zipf(1.0), so nearly every query is a cache hit
// and the snapshot pin plus the cache-shard lock are the whole query.
// Latency goes into per-thread log-linear histograms.

#include <map>
#include <memory>
#include <thread>

#include "bench_stats.h"
#include "net/client.h"
#include "net/server.h"
#include "probe.h"
#include "replay.h"
#include "workloads.h"

namespace stbench {

using namespace stabletext;

namespace {

constexpr int kClients = 4;

struct QueryEngine {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<net::Server> server;  // query_cold only.
  bool ok = true;
};

// Builds the served engine config.setups() times (the last one is kept)
// and records each set-up's time: engine construction, backfill and, when
// `serve`, Server::Start.
QueryEngine SetUp(const Config& config, const Corpus& corpus, bool serve,
                  EndToEnd* e2e, SpanLog* log,
                  std::vector<double>* publish_us) {
  const auto ticks = corpus.Ticks(0, config.query_backfill());
  QueryEngine out;
  for (int s = 0; s < config.setups(); ++s) {
    if (out.server != nullptr) out.server->Shutdown();
    out.server.reset();
    out.engine.reset();
    const int64_t start = NowNs();
    out.engine = std::make_unique<Engine>(BaseOptions(/*gap=*/0, 4));
    out.ok &= Backfill(out.engine.get(), ticks, log, publish_us);
    if (serve) {
      net::ServerOptions options;
      options.workers = 2;
      out.server = std::make_unique<net::Server>(out.engine.get(), options);
      out.ok &= out.server->Start().ok();
    }
    e2e->setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  return out;
}

struct ColdClient {
  ColdClient(uint32_t id, size_t windows) : latency_ms(windows), log(id) {}
  std::vector<std::vector<double>> latency_ms;  // Per window.
  std::map<size_t, uint64_t> seen;  // Query index -> first fingerprint.
  uint64_t attempts = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t retries = 0;
  uint64_t inconsistent = 0;  // Same query, different answer, one epoch.
  SpanLog log;
};

}  // namespace

void RunQueryCold(const Config& config, const Corpus& corpus,
                  RunResult* result) {
  EndToEnd e2e;
  SpanLog log(0);
  SpanLog* trace = config.traced() ? &log : nullptr;
  std::vector<double> publish_us;
  QueryEngine q = SetUp(config, corpus, /*serve=*/true, &e2e, trace,
                        &publish_us);
  result->Check("setup_ok", q.ok);
  const auto snap = q.engine->snapshot();
  const ColdMix mix(/*gap0=*/true);
  const uint16_t port = q.server->port();

  std::vector<std::unique_ptr<ColdClient>> clients;
  for (int c = 0; c < kClients; ++c) {
    clients.push_back(std::make_unique<ColdClient>(c + 1, config.windows()));
  }
  const int64_t begin = NowNs();
  const int64_t deadline =
      begin + config.window_ns() * static_cast<int64_t>(config.windows());
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      ColdClient& me = *clients[c];
      net::Client client;
      if (!client.Connect("127.0.0.1", port, 5).ok()) {
        ++me.errors;
        return;
      }
      Rng rng(config.seed * 7919 + static_cast<uint64_t>(c));
      while (NowNs() < deadline) {
        const size_t idx = mix.Draw(&rng);
        const FinderQuery& query = mix.queries()[idx];
        bool retry = false;
        const int64_t start = NowNs();
        auto r = client.Query(query, /*render=*/false, &retry);
        const int64_t end = NowNs();
        ++me.attempts;
        if (!r.ok()) {
          ++me.errors;  // A dead connection ends this client.
          break;
        }
        if (retry) {
          ++me.retries;
          continue;
        }
        ++me.completed;
        const int64_t w =
            WindowOf(begin, config.window_ns(), config.windows(), end);
        if (w >= 0) {
          me.latency_ms[w].push_back(static_cast<double>(end - start) / 1e6);
        }
        const uint64_t fp = r.value().epoch == snap->epoch
                                ? Fingerprint(r.value().chains)
                                : 0;
        auto [it, inserted] = me.seen.emplace(idx, fp);
        if (!inserted && it->second != fp) ++me.inconsistent;
        if (config.traced() && me.attempts % 64 == 0) {
          const uint64_t request =
              (static_cast<uint64_t>(c + 1) << 32) | me.attempts;
          me.log.Add("net.request", start, end, -1, request);
          TraceInProcess(*q.engine, query, request, &me.log);
        }
      }
      client.Close();
    });
  }
  for (std::thread& t : threads) t.join();

  // Every distinct query seen, recomputed on the same epoch (untimed).
  std::map<size_t, uint64_t> reference;
  uint64_t wrong = 0;
  WireTraffic traffic;
  std::vector<std::vector<double>> latency_ms(config.windows());
  uint64_t completed = 0;
  bool first = true;
  for (auto& client : clients) {
    for (auto& [idx, fp] : client->seen) {
      auto [it, inserted] = reference.emplace(idx, 0);
      if (inserted) it->second = ReferenceFingerprint(*snap, mix.queries()[idx]);
      uint64_t got = fp;
      if (first && config.inject_wrong_answer) got ^= 1;
      first = false;
      if (got != it->second || it->second == 0) ++wrong;
    }
    wrong += client->inconsistent;
    traffic.attempts += client->attempts;
    traffic.retries += client->retries;
    completed += client->completed;
    result->attempted += client->attempts;
    result->failed += client->errors + client->retries;
    for (size_t w = 0; w < latency_ms.size(); ++w) {
      latency_ms[w].insert(latency_ms[w].end(), client->latency_ms[w].begin(),
                           client->latency_ms[w].end());
    }
  }
  result->failed += wrong;
  result->Check("cold_replies_match_reference", wrong == 0 && completed > 0);
  result->Detail("distinct_queries_checked",
                 static_cast<double>(reference.size()), "count");
  result->Detail("retries", static_cast<double>(traffic.retries), "count");

  const EngineStats stats = q.engine->stats();
  result->Detail("cache_hit_ratio",
                 static_cast<double>(stats.query_cache_hits) /
                     std::max<double>(1, stats.query_cache_hits +
                                             stats.query_cache_misses),
                 "ratio");
  if (!config.traced()) {
    e2e.latency = SummarizeWindows(latency_ms, config.window_ns() / 1e9,
                                   {0.99, 0.95});
    e2e.throughput_per_s = e2e.latency.rate_per_s;
    e2e.resident_bytes = stats.resident_bytes;
    e2e.epochs = stats.intervals;
    AddEndToEnd(result, e2e);
  } else {
    ReplayCommittedTicks(config, corpus, BaseOptions(0, 4), *snap, &log,
                         publish_us, result);
    RunQueryProbes(q.engine.get(), config, port, traffic, &log, result);
    std::vector<const SpanLog*> logs = {&log};
    for (auto& client : clients) logs.push_back(&client->log);
    FinishTrace(config, logs, result);
  }
  q.server->Shutdown();
}

namespace {

struct HotThread {
  HotThread(uint32_t id, size_t windows) : latency_ns(windows), log(id) {}
  std::vector<LogLinearHistogram> latency_ns;  // Per window.
  uint64_t errors = 0;
  uint64_t checked = 0;
  uint64_t mismatches = 0;
  SpanLog log;
};

}  // namespace

void RunQueryHot(const Config& config, const Corpus& corpus,
                 RunResult* result) {
  EndToEnd e2e;
  SpanLog log(0);
  SpanLog* trace = config.traced() ? &log : nullptr;
  std::vector<double> publish_us;
  QueryEngine q = SetUp(config, corpus, /*serve=*/false, &e2e, trace,
                        &publish_us);
  result->Check("setup_ok", q.ok);
  const Engine& engine = *q.engine;
  const auto snap = engine.snapshot();
  const std::vector<FinderQuery> hot = HotSet(/*gap0=*/true);
  std::vector<uint64_t> reference;
  for (const FinderQuery& query : hot) {
    reference.push_back(ReferenceFingerprint(*snap, query));
  }
  const ZipfDistribution zipf(hot.size(), 1.0);

  std::vector<std::unique_ptr<HotThread>> workers;
  for (int c = 0; c < kClients; ++c) {
    workers.push_back(std::make_unique<HotThread>(c + 1, config.windows()));
  }
  const int64_t begin = NowNs();
  const int64_t deadline =
      begin + config.window_ns() * static_cast<int64_t>(config.windows());
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      HotThread& me = *workers[c];
      // Query choices are drawn before timing starts.
      Rng rng(config.seed * 131 + static_cast<uint64_t>(c));
      std::vector<uint8_t> picks(1 << 16);
      for (uint8_t& p : picks) p = static_cast<uint8_t>(zipf.Sample(&rng));
      uint64_t i = 0;
      for (int64_t now = NowNs(); now < deadline; ++i) {
        const size_t idx = picks[i & (picks.size() - 1)];
        const int64_t start = NowNs();
        auto r = engine.Query(hot[idx]);
        now = NowNs();
        const int64_t w =
            WindowOf(begin, config.window_ns(), config.windows(), now);
        if (w >= 0) me.latency_ns[w].Record(static_cast<uint64_t>(now - start));
        if (!r.ok()) {
          ++me.errors;
          continue;
        }
        if ((i & 1023) == 0) {
          uint64_t fp = Fingerprint(r.value());
          if (c == 0 && me.checked == 0 && config.inject_wrong_answer) fp ^= 1;
          ++me.checked;
          if (fp != reference[idx]) ++me.mismatches;
        }
        if (config.traced() && (i & 16383) == 0) {
          const uint64_t request = (static_cast<uint64_t>(c + 1) << 32) | i;
          me.log.Add("core.query", start, now, -1, request);
          TraceInProcess(engine, hot[idx], request, &me.log);
        }
      }
    });
  }
  for (std::thread& t : threads) t.join();

  std::vector<LogLinearHistogram> latency_ns(config.windows());
  uint64_t checked = 0, mismatches = 0;
  for (auto& worker : workers) {
    for (size_t w = 0; w < latency_ns.size(); ++w) {
      latency_ns[w].Merge(worker->latency_ns[w]);
      result->attempted += worker->latency_ns[w].count();
    }
    checked += worker->checked;
    mismatches += worker->mismatches;
    result->failed += worker->errors + worker->mismatches;
  }
  result->Check("hot_sampled_replies_match_reference",
                mismatches == 0 && checked > 0);
  result->Detail("replies_checked", static_cast<double>(checked), "count");
  const EngineStats stats = engine.stats();
  result->Detail("cache_hit_ratio",
                 static_cast<double>(stats.query_cache_hits) /
                     std::max<double>(1, stats.query_cache_hits +
                                             stats.query_cache_misses),
                 "ratio");
  if (!config.traced()) {
    e2e.latency = SummarizeWindows(latency_ns, config.window_ns() / 1e9,
                                   {0.99, 0.95});
    e2e.throughput_per_s = e2e.latency.rate_per_s;
    e2e.latency.p50 /= 1e6;  // ns -> ms
    e2e.latency.tail /= 1e6;
    e2e.resident_bytes = stats.resident_bytes;
    e2e.epochs = stats.intervals;
    AddEndToEnd(result, e2e);
    return;
  }
  ReplayCommittedTicks(config, corpus, BaseOptions(0, 4), *snap, &log,
                       publish_us, result);
  RunQueryProbes(q.engine.get(), config, /*port=*/0, WireTraffic{}, &log,
                 result);
  std::vector<const SpanLog*> logs = {&log};
  for (auto& w : workers) logs.push_back(&w->log);
  FinishTrace(config, logs, result);
}

}  // namespace stbench
