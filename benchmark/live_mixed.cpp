// live_mixed: writes beside reads, every layer at once. The engine is
// durable (Engine::Recover, WAL fsync on every commit, a checkpoint every
// 16 epochs), serves net::Server (2 workers), and after a 64-tick
// backfill ticks arrive in an open loop, one due every 50 ms, whether or
// not the previous one is done. Three connections run a closed loop of
// 80% hot queries and 20% cold kl-stable queries, and one connection
// holds two standing subscriptions (bfs and online, k 5, l 3), so the
// warm-online writer path and the per-epoch delta pushes run. A change
// that speeds readers by slowing the writer shows here, and so does the
// reverse. Latency is freshness: from a tick's due time to the moment the
// subscriber holds that epoch's delta for both subscriptions.

#include <algorithm>
#include <array>
#include <atomic>
#include <filesystem>
#include <memory>
#include <numeric>
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

constexpr int kReaders = 3;
constexpr double kPeriodMs = 50;
constexpr int64_t kMs = 1000000;

struct Sample {
  uint64_t epoch;
  FinderQuery query;
  uint64_t fingerprint;
};

struct Reader {
  explicit Reader(uint32_t id) : log(id) {}
  std::vector<std::pair<int64_t, double>> replies;  // (end ns, latency ms)
  std::vector<Sample> samples;  // Every 16th reply, rechecked afterwards.
  uint64_t attempts = 0;
  uint64_t completed = 0;
  uint64_t errors = 0;
  uint64_t retries = 0;
  SpanLog log;
};

struct Served {
  std::unique_ptr<Engine> engine;
  std::unique_ptr<net::Server> server;
  std::unique_ptr<net::Client> subscriber;
  std::array<uint64_t, 2> subscriptions{};

  void TearDown() {
    if (subscriber != nullptr) subscriber->Close();
    subscriber.reset();
    if (server != nullptr) server->Shutdown();
    server.reset();
    engine.reset();
  }
};

EngineOptions LiveOptions(const Config& config) {
  EngineOptions options = BaseOptions(/*gap=*/1, /*threads=*/4);
  options.durability.enabled = true;
  options.durability.dir = config.scratch + "/live";
  options.durability.fsync = true;
  options.durability.checkpoint_interval = 16;
  return options;
}

std::array<FinderQuery, 2> Standing() {
  return {KlQuery(FinderAlgorithm::kBfs, 5, 3),
          KlQuery(FinderAlgorithm::kOnline, 5, 3)};
}

}  // namespace

void RunLiveMixed(const Config& config, const Corpus& corpus,
                  RunResult* result) {
  const EngineOptions options = LiveOptions(config);
  const uint64_t base = config.live_backfill();
  const auto backfill = corpus.Ticks(0, base);
  EndToEnd e2e;
  SpanLog log(0);
  SpanLog* trace = config.traced() ? &log : nullptr;
  std::vector<double> publish_us;

  // Set-up: Recover on an empty directory, Server::Start, backfill,
  // subscribe.
  Served live;
  bool setup_ok = true;
  for (int s = 0; s < config.setups() && setup_ok; ++s) {
    live.TearDown();
    std::error_code ec;
    std::filesystem::remove_all(options.durability.dir, ec);
    const int64_t start = NowNs();
    auto recovered = Engine::Recover(options);
    if (!recovered.ok()) {
      setup_ok = false;
      break;
    }
    live.engine = std::move(recovered).value();
    net::ServerOptions server_options;
    server_options.workers = 2;
    live.server = std::make_unique<net::Server>(live.engine.get(),
                                                server_options);
    setup_ok &= live.server->Start().ok();
    setup_ok &= Backfill(live.engine.get(), backfill, trace, &publish_us);
    live.subscriber = std::make_unique<net::Client>();
    setup_ok &=
        live.subscriber->Connect("127.0.0.1", live.server->port(), 5).ok();
    for (size_t i = 0; i < 2 && setup_ok; ++i) {
      auto id = live.subscriber->Subscribe(Standing()[i], /*render=*/false);
      setup_ok &= id.ok();
      if (id.ok()) live.subscriptions[i] = id.value();
    }
    e2e.setup_s.push_back(static_cast<double>(NowNs() - start) / 1e9);
  }
  result->Check("setup_ok", setup_ok);
  if (!setup_ok) {
    live.TearDown();
    return;
  }
  Engine& engine = *live.engine;
  const uint16_t port = live.server->port();

  const uint32_t ticks = std::max<uint32_t>(
      1, static_cast<uint32_t>(config.measure_seconds() * 1000 / kPeriodMs));
  std::vector<std::shared_ptr<const GraphSnapshot>> snaps(base + ticks + 1);
  snaps[base] = engine.snapshot();
  std::vector<int64_t> due(ticks), published(ticks, 0);
  std::vector<std::array<int64_t, 2>> received(ticks, {0, 0});
  std::atomic<bool> feeder_done{false};
  std::atomic<uint64_t> final_epoch{0};
  std::array<std::vector<net::WireChain>, 2> topk;
  bool subscriber_ok = true;

  const std::vector<FinderQuery> hot = HotSet(/*gap0=*/false);
  const ZipfDistribution zipf(hot.size(), 1.0);
  const ColdMix cold(/*gap0=*/false, /*include_normalized=*/false);
  std::vector<std::unique_ptr<Reader>> readers;
  for (int r = 0; r < kReaders; ++r) {
    readers.push_back(std::make_unique<Reader>(r + 1));
  }
  std::vector<std::thread> threads;
  for (int r = 0; r < kReaders; ++r) {
    threads.emplace_back([&, r] {
      Reader& me = *readers[r];
      net::Client client;
      if (!client.Connect("127.0.0.1", port, 5).ok()) {
        ++me.errors;
        return;
      }
      Rng rng(config.seed * 6151 + static_cast<uint64_t>(r));
      while (!feeder_done.load(std::memory_order_acquire)) {
        const FinderQuery query = rng.NextDouble() < 0.8
                                      ? hot[zipf.Sample(&rng)]
                                      : cold.queries()[cold.Draw(&rng)];
        bool retry = false;
        const int64_t start = NowNs();
        auto reply = client.Query(query, /*render=*/false, &retry);
        const int64_t end = NowNs();
        ++me.attempts;
        if (!reply.ok()) {
          ++me.errors;
          break;
        }
        if (retry) {
          ++me.retries;
          continue;
        }
        ++me.completed;
        me.replies.emplace_back(end, static_cast<double>(end - start) / 1e6);
        if (me.completed % 16 == 0) {
          me.samples.push_back(Sample{reply.value().epoch, query,
                                      Fingerprint(reply.value().chains)});
        }
        if (config.traced() && me.attempts % 64 == 0) {
          const uint64_t request =
              (static_cast<uint64_t>(r + 1) << 32) | me.attempts;
          me.log.Add("net.request", start, end, -1, request);
          TraceInProcess(engine, query, request, &me.log);
        }
      }
      client.Close();
    });
  }
  threads.emplace_back([&] {
    // The subscriber: apply every pushed delta and stamp its arrival.
    std::array<uint64_t, 2> last_epoch{0, 0};
    int64_t give_up = 0;  // Set once the feeder has finished.
    for (;;) {
      const uint64_t want = final_epoch.load(std::memory_order_acquire);
      if (want != 0 && last_epoch[0] == want && last_epoch[1] == want) {
        break;
      }
      if (want != 0 && give_up == 0) give_up = NowNs() + 5000 * kMs;
      bool bye = false;
      auto push = live.subscriber->NextPush(/*timeout_ms=*/100, &bye);
      if (!push.ok()) {
        if (push.status().code() == StatusCode::kNotFound &&
            (give_up == 0 || NowNs() < give_up)) {
          continue;
        }
        subscriber_ok = false;  // Error, or the final epoch never came.
        break;
      }
      if (bye) break;
      const net::WireDelta& delta = push.value();
      const size_t which = delta.subscription_id == live.subscriptions[0] ? 0
                           : delta.subscription_id == live.subscriptions[1]
                               ? 1
                               : 2;
      if (which == 2 || !net::ApplyDelta(&topk[which], delta).ok()) {
        subscriber_ok = false;
        break;
      }
      last_epoch[which] = delta.epoch;
      if (delta.epoch > base && delta.epoch <= base + ticks) {
        received[delta.epoch - base - 1][which] = NowNs();
      }
    }
  });

  // The feeder: an open loop on this thread, one tick due every period.
  bool ingest_ok = true;
  const int64_t t0 = NowNs() + 20 * kMs;
  std::vector<double> late_ms;
  uint32_t committed = 0;
  for (uint32_t n = 0; n < ticks; ++n) {
    due[n] = t0 + static_cast<int64_t>(n * kPeriodMs * kMs);
    for (int64_t now = NowNs(); now < due[n]; now = NowNs()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(due[n] - now));
    }
    const int64_t start = NowNs();
    late_ms.push_back(static_cast<double>(start - due[n]) / 1e6);
    auto ingested = engine.IngestText(corpus.Tick(base + n));
    const int64_t end = NowNs();
    ++result->attempted;
    if (!ingested.ok()) {
      ++result->failed;
      ingest_ok = false;
      break;
    }
    published[n] = end;
    snaps[base + n + 1] = engine.snapshot();
    ++committed;
    if (trace != nullptr) {
      trace->Add("core.tick", start, end, -1, base + n);
      publish_us.push_back(static_cast<double>(engine.stats().publish_ns) /
                           1e3);
    }
  }
  final_epoch.store(base + committed, std::memory_order_release);
  feeder_done.store(true, std::memory_order_release);
  for (std::thread& t : threads) t.join();
  result->Check("live_ticks_committed", ingest_ok && committed == ticks);

  // Ticks are filed under the window they were due in, replies under the
  // window they completed in.
  const size_t windows = config.windows();
  const int64_t window_ns = config.window_ns();
  std::vector<std::vector<double>> freshness_ms(windows), tick_ms(windows);
  uint64_t missing_deltas = 0;
  for (uint32_t n = 0; n < committed; ++n) {
    const int64_t w = WindowOf(t0, window_ns, windows, due[n]);
    if (w < 0) continue;
    tick_ms[w].push_back(static_cast<double>(published[n] - due[n]) / 1e6);
    if (received[n][0] == 0 || received[n][1] == 0) {
      ++missing_deltas;
      continue;
    }
    freshness_ms[w].push_back(
        static_cast<double>(std::max(received[n][0], received[n][1]) -
                            due[n]) /
        1e6);
  }
  result->failed += missing_deltas;
  result->Check("live_every_delta_received",
                subscriber_ok && missing_deltas == 0);

  // Every 16th reply against its pinned epoch; the subscriber's
  // delta-applied top-k against the final epoch.
  uint64_t wrong = 0, sampled = 0;
  std::vector<std::vector<double>> query_ms(windows);
  WireTraffic traffic;
  uint64_t completed = 0;
  for (auto& reader : readers) {
    for (const Sample& s : reader->samples) {
      ++sampled;
      const bool known = s.epoch < snaps.size() && snaps[s.epoch] != nullptr;
      uint64_t got = s.fingerprint;
      if (sampled == 1 && config.inject_wrong_answer) got ^= 1;
      if (!known || got != ReferenceFingerprint(*snaps[s.epoch], s.query)) {
        ++wrong;
      }
    }
    traffic.attempts += reader->attempts;
    traffic.retries += reader->retries;
    completed += reader->completed;
    result->attempted += reader->attempts;
    result->failed += reader->errors + reader->retries;
    for (const auto& [end, ms] : reader->replies) {
      const int64_t w = WindowOf(t0, window_ns, windows, end);
      if (w >= 0) query_ms[w].push_back(ms);
    }
  }
  result->failed += wrong;
  result->Check("live_sampled_replies_match_pinned_epoch",
                wrong == 0 && sampled > 0);
  const auto final_snap = engine.snapshot();
  bool deltas_match = true;
  for (size_t i = 0; i < 2; ++i) {
    deltas_match &= Fingerprint(topk[i]) ==
                    ReferenceFingerprint(*final_snap, Standing()[i]);
  }
  result->Check("subscriber_topk_matches_final_epoch", deltas_match);

  const EngineStats stats = engine.stats();
  if (config.traced()) {
    ReplayCommittedTicks(config, corpus, options, *final_snap, &log,
                         publish_us, result);
    RunQueryProbes(&engine, config, port, traffic, &log, result);
  }

  // Recovery: the data directory alone must reproduce the final epoch.
  const std::array<FinderQuery, 3> recheck = {
      Standing()[0], Standing()[1], KlQuery(FinderAlgorithm::kDfs, 5, 3)};
  std::array<uint64_t, 3> expected{};
  for (size_t i = 0; i < recheck.size(); ++i) {
    expected[i] = ReferenceFingerprint(*final_snap, recheck[i]);
  }
  const EngineStats before = final_snap->stats;
  snaps.clear();
  live.TearDown();
  {
    auto recovered = Engine::Recover(options);
    bool same = recovered.ok();
    if (same) {
      const auto snap = recovered.value()->snapshot();
      same = snap->epoch == base + committed &&
             snap->stats.clusters == before.clusters &&
             snap->stats.edges == before.edges &&
             snap->stats.keywords == before.keywords;
      for (size_t i = 0; i < recheck.size(); ++i) {
        same &= ReferenceFingerprint(*snap, recheck[i]) == expected[i];
      }
    }
    result->Check("recover_reproduces_final_epoch", same);
  }
  std::error_code ec;
  std::filesystem::remove_all(options.durability.dir, ec);

  result->Note("flush_policy",
               "WAL fsync on every commit; checkpoint every 16 epochs");
  const double window_s = window_ns / 1e9;
  const WindowSummary ticks_from_due =
      SummarizeWindows(tick_ms, window_s, {0.95, 0.90});
  const WindowSummary queries =
      SummarizeWindows(query_ms, window_s, {0.99, 0.95});
  result->Detail("tick_p50_ms", ticks_from_due.p50, "ms");
  result->Detail("tick_tail_ms", ticks_from_due.tail, "ms");
  result->Detail("feeder_late_mean_ms",
                 late_ms.empty() ? 0
                                 : std::accumulate(late_ms.begin(),
                                                   late_ms.end(), 0.0) /
                                       late_ms.size(),
                 "ms");
  result->Detail("feeder_late_max_ms",
                 late_ms.empty() ? 0
                                 : *std::max_element(late_ms.begin(),
                                                     late_ms.end()),
                 "ms");
  result->Detail("query_p50_ms", queries.p50, "ms");
  result->Detail("query_tail_ms", queries.tail, "ms");
  result->Detail("query_tail_percentile", 100 * queries.tail_percentile, "%");
  result->Detail("replies_checked", static_cast<double>(sampled), "count");
  result->Detail("retries", static_cast<double>(traffic.retries), "count");
  result->Detail("checkpoint_ms", static_cast<double>(stats.checkpoint_ns) / 1e6,
                 "ms");
  if (config.traced()) {
    std::vector<const SpanLog*> logs = {&log};
    for (auto& reader : readers) logs.push_back(&reader->log);
    FinishTrace(config, logs, result);
    return;
  }
  e2e.throughput_per_s = queries.rate_per_s;
  e2e.latency = SummarizeWindows(freshness_ms, window_s, {0.95, 0.90});
  e2e.resident_bytes = stats.resident_bytes;
  e2e.epochs = stats.intervals;
  AddEndToEnd(result, e2e);
}

}  // namespace stbench
