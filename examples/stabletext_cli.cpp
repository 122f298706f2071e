// stabletext_cli: command-line driver for the engine. Subcommands:
//
//   gen <out.corpus> [days] [posts_per_day] [micro_events] [seed]
//       Generate a synthetic planted-event corpus (PaperWeek script).
//   ingest <corpus> [--gap N] [--threads N] [--data-dir DIR [--durable]]
//       Stream the corpus tick by tick through the engine, printing
//       per-tick commit stats. With --data-dir the engine runs durably:
//       every commit is WAL-logged and checkpointed under DIR, and a
//       later run (or `recover`) resumes from exactly the committed
//       state.
//   recover <data-dir> [--gap N] [--threads N] [--algo ...] [--mode ...]
//           [--k N] [--l N]
//       Reopen a durable engine from its data directory: restore the
//       checkpoint, replay the WAL tail, report the recovered epoch and
//       answer one query against the recovered state. This is how an
//       ingested stream is queried offline.
//   query <corpus> [--algo bfs|dfs|ta|brute-force|online]
//         [--mode kl-stable|normalized] [--k N] [--l N] [--gap N]
//         [--threads N] [--diversify P,S] [--per-tick]
//       Ingest and answer one query; --per-tick re-reports the top-k
//       after every ingested interval (the Section 4.6 monitor).
//   serve <corpus> [--readers N] [--algo ...] [--mode ...] [--k N]
//         [--l N] [--gap N] [--threads N]
//         [--listen HOST:PORT [--max-inflight N] [--tick-ms MS]]
//       Concurrent serving: streams the corpus tick by tick while
//       --readers threads query the engine the whole time (snapshot
//       isolation — every answer is a committed epoch). Reports reader
//       throughput and query-cache hit rate at the end.
//       With --listen the readers are network clients instead: a
//       net::Server accepts connections on HOST:PORT (--readers worker
//       threads, --max-inflight admission cap), ingest is paced by
//       --tick-ms per interval so clients overlap live publishes, and
//       the process keeps serving after ingest until SIGTERM/SIGINT
//       triggers a graceful drain (exit 0).
//   client <ping|query|stats|subscribe> --listen HOST:PORT
//          [--algo ...] [--mode ...] [--k N] [--l N] [--render]
//          [--deltas N]
//       Talk to a running `serve --listen` server. `query` runs one
//       admission-controlled query (RETRY handled with backoff);
//       `subscribe` registers a standing query and prints pushed
//       per-epoch deltas until --deltas N frames arrived (or the
//       server said BYE).
//   stats <corpus> [--gap N] [--threads N]
//       Engine stats after ingesting the corpus.
//   refine <corpus> <keyword> <day>
//       Query-refinement suggestions for a keyword on a given day.
//
// Build & run:  ./build/examples/stabletext_cli gen /tmp/week.corpus

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/engine.h"
#include "core/query_refiner.h"
#include "gen/corpus_generator.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "util/thread_pool.h"
#include "util/timer.h"

namespace {

using namespace stabletext;

int Fail(const Status& s) {
  std::fprintf(stderr, "error: %s\n", s.ToString().c_str());
  return 1;
}

EngineOptions DefaultEngineOptions(uint32_t gap, size_t threads = 1) {
  EngineOptions options;
  options.gap = gap;
  options.threads = threads;
  options.clustering.pruning.rho_threshold = 0.2;
  options.clustering.pruning.min_pair_support = 5;
  options.affinity.theta = 0.1;
  return options;
}

// Shared flag set for the engine-backed subcommands. Positional arguments
// (the corpus path, etc.) are collected in order.
struct CliArgs {
  std::vector<std::string> positional;
  Query query;
  uint32_t gap = 1;
  size_t threads = 1;
  size_t readers = 2;
  bool per_tick = false;
  bool durable = false;
  std::string data_dir;
  // Network serving / client flags.
  std::string listen;       // host:port for serve --listen / client.
  size_t max_inflight = 64; // Admission cap (serve --listen).
  long tick_ms = 0;         // Ingest pacing per interval (serve --listen).
  long deltas = 3;          // Pushes to print before client subscribe exits.
  bool render = false;      // Ask the server to render chain text.
  Status status;
};

// Builds the engine for an engine-backed subcommand. --data-dir (or
// --durable) routes construction through Engine::Recover, so an existing
// data directory resumes where the last run stopped.
Result<std::unique_ptr<Engine>> MakeEngine(const CliArgs& args) {
  EngineOptions options = DefaultEngineOptions(args.gap, args.threads);
  if (!args.durable && args.data_dir.empty()) {
    return std::make_unique<Engine>(options);
  }
  if (args.data_dir.empty()) {
    return Status::InvalidArgument("--durable needs --data-dir DIR");
  }
  options.durability.enabled = true;
  options.durability.dir = args.data_dir;
  return Engine::Recover(std::move(options));
}

// Strict decimal parse: the whole string must be a number (no silent
// zero for a forgotten or garbled flag value).
bool ParseNum(const std::string& s, long* out) {
  if (s.empty()) return false;
  char* end = nullptr;
  *out = std::strtol(s.c_str(), &end, 10);
  return end == s.c_str() + s.size();
}

CliArgs ParseCliArgs(int argc, char** argv) {
  CliArgs args;
  for (int i = 0; i < argc; ++i) {
    const std::string a = argv[i];
    auto value = [&]() -> std::string {
      return i + 1 < argc ? argv[++i] : "";
    };
    auto numeric = [&](long* out) {
      const std::string v = value();
      if (!ParseNum(v, out)) {
        args.status = Status::InvalidArgument(
            "flag " + a + " needs a numeric value, got \"" + v + "\"");
        return false;
      }
      return true;
    };
    long n = 0;
    if (a == "--algo") {
      auto algo = ParseFinderAlgorithm(value());
      if (!algo.ok()) {
        args.status = algo.status();
        return args;
      }
      args.query.algorithm = algo.value();
    } else if (a == "--mode") {
      auto mode = ParseFinderMode(value());
      if (!mode.ok()) {
        args.status = mode.status();
        return args;
      }
      args.query.mode = mode.value();
    } else if (a == "--k") {
      if (!numeric(&n)) return args;
      args.query.k = static_cast<size_t>(n);
    } else if (a == "--l") {
      if (!numeric(&n)) return args;
      args.query.l = static_cast<uint32_t>(n);
    } else if (a == "--gap") {
      if (!numeric(&n)) return args;
      args.gap = static_cast<uint32_t>(n);
    } else if (a == "--threads") {
      if (!numeric(&n)) return args;
      args.threads = static_cast<size_t>(std::max(1L, n));
    } else if (a == "--diversify") {
      // P,S — prefix and suffix node counts (just P applies to both).
      const std::string spec = value();
      const size_t comma = spec.find(',');
      long prefix = 0;
      long suffix = 0;
      const bool ok =
          comma == std::string::npos
              ? ParseNum(spec, &prefix) && (suffix = prefix, true)
              : ParseNum(spec.substr(0, comma), &prefix) &&
                    ParseNum(spec.substr(comma + 1), &suffix);
      if (!ok) {
        args.status = Status::InvalidArgument(
            "--diversify needs P or P,S numbers, got \"" + spec + "\"");
        return args;
      }
      args.query.diversify_prefix = static_cast<uint32_t>(prefix);
      args.query.diversify_suffix = static_cast<uint32_t>(suffix);
    } else if (a == "--readers") {
      if (!numeric(&n)) return args;
      args.readers = static_cast<size_t>(std::max(1L, n));
    } else if (a == "--listen") {
      args.listen = value();
      if (args.listen.empty()) {
        args.status =
            Status::InvalidArgument("--listen needs a HOST:PORT value");
        return args;
      }
    } else if (a == "--max-inflight") {
      if (!numeric(&n)) return args;
      args.max_inflight = static_cast<size_t>(std::max(1L, n));
    } else if (a == "--tick-ms") {
      if (!numeric(&n)) return args;
      args.tick_ms = std::max(0L, n);
    } else if (a == "--deltas") {
      if (!numeric(&n)) return args;
      args.deltas = std::max(1L, n);
    } else if (a == "--render") {
      args.render = true;
    } else if (a == "--per-tick") {
      args.per_tick = true;
    } else if (a == "--durable") {
      args.durable = true;
    } else if (a == "--data-dir") {
      args.data_dir = value();
      args.durable = true;
    } else if (!a.empty() && a[0] == '-') {
      args.status = Status::InvalidArgument("unknown flag " + a);
      return args;
    } else {
      args.positional.push_back(a);
    }
  }
  return args;
}

void PrintChains(const Engine& engine, const QueryResult& result) {
  for (const StableClusterChain& chain : result.chains) {
    std::printf("%s\n", engine.RenderChain(chain).c_str());
  }
}

// Prints every EngineStats field: in-process for `stats`, over the wire
// (STATS_RESULT carries the same struct) for `client stats`.
void PrintEngineStats(const EngineStats& stats) {
  std::printf("intervals:      %u\n", stats.intervals);
  std::printf("clusters:       %zu\n", stats.clusters);
  std::printf("edges:          %zu\n", stats.edges);
  std::printf("keywords:       %zu\n", stats.keywords);
  std::printf("graph bytes:    %zu\n", stats.graph_bytes);
  std::printf("resident bytes: %zu (epoch estimate)\n",
              stats.resident_bytes);
  std::printf("last publish:   %.1f us (%zu chunks shared, %zu copied)\n",
              stats.publish_ns / 1e3, stats.shared_chunk_count,
              stats.copied_chunk_count);
  std::printf("ingest io:      %s\n", stats.io.ToString().c_str());
  std::printf("query cache:    %llu hit(s), %llu miss(es)\n",
              static_cast<unsigned long long>(stats.query_cache_hits),
              static_cast<unsigned long long>(stats.query_cache_misses));
  std::printf("durability:     %llu WAL bytes, last checkpoint %.1f ms, "
              "recovered epoch %llu\n",
              static_cast<unsigned long long>(stats.wal_bytes),
              stats.checkpoint_ns / 1e6,
              static_cast<unsigned long long>(stats.recovered_epoch));
  std::printf("serving:        %llu subscription(s), %llu push(es), "
              "%llu served, %llu rejected, %llu failed\n",
              static_cast<unsigned long long>(stats.subscriptions_active),
              static_cast<unsigned long long>(stats.pushes_sent),
              static_cast<unsigned long long>(stats.queries_served),
              static_cast<unsigned long long>(stats.queries_rejected),
              static_cast<unsigned long long>(stats.queries_failed));
}

int CmdGen(int argc, char** argv) {
  if (argc < 1) return 2;
  // The optional operands are all strict decimals; a garbled one is a
  // usage error, not a silent zero.
  long nums[4] = {7, 2000, 200, 7};
  for (int i = 1; i < argc && i <= 4; ++i) {
    if (!ParseNum(argv[i], &nums[i - 1]) || nums[i - 1] < 0) {
      std::fprintf(stderr, "gen: operand %d must be a number, got \"%s\"\n",
                   i, argv[i]);
      return 2;
    }
  }
  CorpusGenOptions options;
  options.days = static_cast<uint32_t>(nums[0]);
  options.posts_per_day = static_cast<uint32_t>(nums[1]);
  options.micro_events = static_cast<uint32_t>(nums[2]);
  options.seed = static_cast<uint64_t>(nums[3]);
  options.min_words_per_post = 12;
  options.max_words_per_post = 28;
  options.script = EventScript::PaperWeek();
  CorpusGenerator generator(options);
  Status s = generator.GenerateToFile(argv[0]);
  if (!s.ok()) return Fail(s);
  std::printf("wrote %u days x %u posts to %s\n", options.days,
              options.posts_per_day, argv[0]);
  return 0;
}

// Streams the corpus through the engine tick by tick, printing a commit
// line per interval — the serving-shaped ingest path.
int CmdIngest(int argc, char** argv) {
  CliArgs args = ParseCliArgs(argc, argv);
  if (!args.status.ok()) return Fail(args.status);
  if (args.positional.empty()) return 2;
  auto made = MakeEngine(args);
  if (!made.ok()) return Fail(made.status());
  Engine& engine = *made.value();
  if (engine.interval_count() > 0) {
    std::printf("recovered %u committed interval(s) from %s\n",
                engine.interval_count(), args.data_dir.c_str());
  }

  auto ingested = engine.IngestCorpusFile(
      args.positional[0],
      [&](uint32_t tick, const std::vector<std::string>& posts) {
        const EngineStats stats = engine.stats();
        std::printf(
            "tick %2u committed: %4zu posts, %3zu clusters, graph now "
            "%zu nodes / %zu edges\n",
            tick, posts.size(),
            engine.interval_result(tick).clusters.size(), stats.clusters,
            stats.edges);
        return Status::OK();
      });
  if (!ingested.ok()) return Fail(ingested.status());
  if (args.durable) {
    const EngineStats stats = engine.stats();
    std::printf(
        "durability: %llu WAL bytes, %llu fsyncs, last checkpoint "
        "%.1f ms\n",
        static_cast<unsigned long long>(stats.wal_bytes),
        static_cast<unsigned long long>(stats.io.fsyncs),
        stats.checkpoint_ns / 1e6);
  }
  return 0;
}

int CmdQuery(int argc, char** argv) {
  CliArgs args = ParseCliArgs(argc, argv);
  if (!args.status.ok()) return Fail(args.status);
  if (args.positional.empty()) return 2;
  auto made = MakeEngine(args);
  if (!made.ok()) return Fail(made.status());
  Engine& engine = *made.value();

  if (!args.per_tick) {
    auto ingested = engine.IngestCorpusFile(args.positional[0]);
    if (!ingested.ok()) return Fail(ingested.status());
    std::fprintf(stderr, "ingested %u interval(s)\n", ingested.value());
    auto result = engine.Query(args.query);
    if (!result.ok()) return Fail(result.status());
    PrintChains(engine, result.value());
    std::printf("io: %s\n", result.value().finder.io.ToString().c_str());
    return 0;
  }

  // --per-tick: the Section 4.6 monitor — re-report after every arrival.
  auto ingested = engine.IngestCorpusFile(
      args.positional[0],
      [&](uint32_t tick, const std::vector<std::string>&) {
        auto result = engine.Query(args.query);
        if (!result.ok()) return result.status();
        std::printf("tick %2u: top-%zu", tick, args.query.k);
        for (const StableClusterChain& chain : result.value().chains) {
          std::printf(" %s", chain.path.ToString().c_str());
        }
        std::printf("\n");
        return Status::OK();
      });
  if (!ingested.ok()) return Fail(ingested.status());
  return 0;
}

// SIGTERM/SIGINT request a graceful serve shutdown (drain in-flight
// queries, flush subscription deltas, BYE every connection).
volatile std::sig_atomic_t g_stop = 0;
void OnStopSignal(int) { g_stop = 1; }

// serve --listen: the engine behind a net::Server. Ingest is paced by
// --tick-ms so network clients overlap live epoch publishes; after the
// corpus ends the process keeps serving until SIGTERM/SIGINT, then
// drains gracefully.
int ServeNetwork(Engine& engine, const CliArgs& args) {
  auto hostport = net::ParseHostPort(args.listen);
  if (!hostport.ok()) return Fail(hostport.status());

  net::ServerOptions options;
  options.host = hostport.value().first;
  options.port = hostport.value().second;
  options.workers = args.readers;
  options.max_inflight = args.max_inflight;
  options.queue_depth = 2 * args.max_inflight;
  net::Server server(&engine, options);
  Status started = server.Start();
  if (!started.ok()) return Fail(started);

  g_stop = 0;
  std::signal(SIGTERM, OnStopSignal);
  std::signal(SIGINT, OnStopSignal);
  std::printf("serving on %s:%u (%zu workers, max in-flight %zu)\n",
              options.host.c_str(), server.port(), options.workers,
              options.max_inflight);
  std::fflush(stdout);

  bool interrupted = false;
  auto ingested = engine.IngestCorpusFile(
      args.positional[0],
      [&](uint32_t tick, const std::vector<std::string>& posts) {
        std::printf("tick %2u committed: %4zu posts (epoch %u live)\n",
                    tick, posts.size(), tick + 1);
        std::fflush(stdout);
        if (args.tick_ms > 0) {
          std::this_thread::sleep_for(
              std::chrono::milliseconds(args.tick_ms));
        }
        if (g_stop) {
          interrupted = true;
          return Status::IOError("interrupted");
        }
        return Status::OK();
      });
  if (!ingested.ok() && !interrupted) {
    server.Shutdown();
    return Fail(ingested.status());
  }

  while (!g_stop) {
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  std::printf("shutting down: draining queries and subscriptions...\n");
  std::fflush(stdout);
  server.Shutdown();

  EngineStats stats = engine.stats();
  server.FillServingStats(&stats);
  std::printf(
      "served %llu queries (%llu shed, %llu failed), pushed %llu deltas "
      "to %llu subscriptions\n",
      static_cast<unsigned long long>(stats.queries_served),
      static_cast<unsigned long long>(stats.queries_rejected),
      static_cast<unsigned long long>(stats.queries_failed),
      static_cast<unsigned long long>(stats.pushes_sent),
      static_cast<unsigned long long>(stats.subscriptions_active));
  return 0;
}

// Concurrent serving: the writer streams the corpus tick by tick while a
// fleet of reader threads queries nonstop. Readers are snapshot-isolated
// — each answer comes from one committed epoch — so nothing here locks
// or pauses around ingest.
int ServeLocal(Engine& engine, const CliArgs& args) {
  std::atomic<bool> done{false};
  std::atomic<uint64_t> queries{0};
  std::atomic<uint64_t> failures{0};
  std::atomic<uint64_t> max_epoch{0};
  WallTimer timer;
  ReaderFleet fleet(args.readers, [&](size_t reader) {
    // Rotate the requested query with a different *algorithm* (same
    // k/l) so the fleet exercises two finders against every epoch.
    Query alt = args.query;
    alt.algorithm = args.query.algorithm == FinderAlgorithm::kBfs
                        ? FinderAlgorithm::kDfs
                        : FinderAlgorithm::kBfs;
    uint64_t n = reader;
    while (!done.load(std::memory_order_acquire)) {
      auto r = engine.Query((n++ & 1) ? alt : args.query);
      if (!r.ok()) {
        failures.fetch_add(1, std::memory_order_relaxed);
        continue;
      }
      queries.fetch_add(1, std::memory_order_relaxed);
      uint64_t seen = max_epoch.load(std::memory_order_relaxed);
      while (r.value().epoch > seen &&
             !max_epoch.compare_exchange_weak(seen, r.value().epoch)) {
      }
    }
  });

  auto ingested = engine.IngestCorpusFile(
      args.positional[0],
      [&](uint32_t tick, const std::vector<std::string>& posts) {
        std::printf("tick %2u committed: %4zu posts (readers at work)\n",
                    tick, posts.size());
        return Status::OK();
      });
  const double ingest_seconds = timer.ElapsedSeconds();
  done.store(true, std::memory_order_release);
  fleet.Join();
  if (!ingested.ok()) return Fail(ingested.status());

  const EngineStats stats = engine.stats();
  std::printf(
      "\nserved %llu queries from %zu readers during %.0f ms of ingest "
      "(%.0f q/s), %llu failed\n",
      static_cast<unsigned long long>(queries.load()), args.readers,
      ingest_seconds * 1e3,
      ingest_seconds > 0 ? queries.load() / ingest_seconds : 0.0,
      static_cast<unsigned long long>(failures.load()));
  std::printf(
      "max epoch observed %llu of %llu; query cache %llu hits / %llu "
      "misses\n",
      static_cast<unsigned long long>(max_epoch.load()),
      static_cast<unsigned long long>(engine.interval_count()),
      static_cast<unsigned long long>(stats.query_cache_hits),
      static_cast<unsigned long long>(stats.query_cache_misses));

  auto final_top = engine.Query(args.query);
  if (!final_top.ok()) return Fail(final_top.status());
  PrintChains(engine, final_top.value());
  return 0;
}

int CmdServe(int argc, char** argv) {
  CliArgs args = ParseCliArgs(argc, argv);
  if (!args.status.ok()) return Fail(args.status);
  if (args.positional.empty()) return 2;
  auto made = MakeEngine(args);
  if (!made.ok()) return Fail(made.status());
  Engine& engine = *made.value();
  return args.listen.empty() ? ServeLocal(engine, args)
                             : ServeNetwork(engine, args);
}

// client <ping|query|stats|subscribe> --listen HOST:PORT [...]
// Thin wrapper over net::Client against a running `serve --listen`.
int CmdClient(int argc, char** argv) {
  if (argc < 1) return 2;
  const std::string action = argv[0];
  CliArgs args = ParseCliArgs(argc - 1, argv + 1);
  if (!args.status.ok()) return Fail(args.status);
  if (args.listen.empty()) return 2;
  auto hostport = net::ParseHostPort(args.listen);
  if (!hostport.ok()) return Fail(hostport.status());

  net::Client client;
  Status connected = client.Connect(hostport.value().first,
                                    hostport.value().second,
                                    /*attempts=*/20);
  if (!connected.ok()) return Fail(connected);

  if (action == "ping") {
    auto epoch = client.Ping();
    if (!epoch.ok()) return Fail(epoch.status());
    std::printf("pong: epoch %llu\n",
                static_cast<unsigned long long>(epoch.value()));
    return 0;
  }

  if (action == "stats") {
    auto stats = client.Stats();
    if (!stats.ok()) return Fail(stats.status());
    PrintEngineStats(stats.value());
    return 0;
  }

  if (action == "query") {
    auto result = client.QueryWithRetry(args.query, args.render);
    if (!result.ok()) return Fail(result.status());
    std::printf("epoch %llu:\n",
                static_cast<unsigned long long>(result.value().epoch));
    for (const net::WireChain& chain : result.value().chains) {
      std::printf("  weight %.4f length %u\n", chain.weight, chain.length);
      if (!chain.rendered.empty()) {
        std::printf("%s\n", chain.rendered.c_str());
      }
    }
    return 0;
  }

  if (action == "subscribe") {
    auto sub = client.Subscribe(args.query, args.render);
    if (!sub.ok()) return Fail(sub.status());
    std::printf("subscribed: id %llu, waiting for %ld delta(s)\n",
                static_cast<unsigned long long>(sub.value()), args.deltas);
    std::fflush(stdout);
    for (long received = 0; received < args.deltas;) {
      bool is_bye = false;
      auto push = client.NextPush(/*timeout_ms=*/60000, &is_bye);
      if (!push.ok()) return Fail(push.status());
      if (is_bye) {
        std::printf("server closing (BYE) after %ld delta(s)\n", received);
        return 0;
      }
      const net::WireDelta& delta = push.value();
      std::printf("epoch %llu: top-%llu, %zu change(s)\n",
                  static_cast<unsigned long long>(delta.epoch),
                  static_cast<unsigned long long>(delta.new_size),
                  delta.changes.size());
      for (const auto& change : delta.changes) {
        std::printf("  rank %u: weight %.4f length %u\n", change.first,
                    change.second.weight, change.second.length);
        if (!change.second.rendered.empty()) {
          std::printf("%s\n", change.second.rendered.c_str());
        }
      }
      std::fflush(stdout);
      ++received;
    }
    Status unsub = client.Unsubscribe(sub.value());
    if (!unsub.ok()) return Fail(unsub);
    std::printf("unsubscribed\n");
    return 0;
  }

  std::fprintf(stderr, "unknown client action: %s\n", action.c_str());
  return 2;
}

int CmdStats(int argc, char** argv) {
  CliArgs args = ParseCliArgs(argc, argv);
  if (!args.status.ok()) return Fail(args.status);
  if (args.positional.empty()) return 2;
  auto made = MakeEngine(args);
  if (!made.ok()) return Fail(made.status());
  Engine& engine = *made.value();
  auto ingested = engine.IngestCorpusFile(args.positional[0]);
  if (!ingested.ok()) return Fail(ingested.status());
  PrintEngineStats(engine.stats());
  return 0;
}

// Reopens a durable data directory: checkpoint restore + WAL-tail
// replay, then one query against the recovered state.
int CmdRecover(int argc, char** argv) {
  CliArgs args = ParseCliArgs(argc, argv);
  if (!args.status.ok()) return Fail(args.status);
  if (args.data_dir.empty() && !args.positional.empty()) {
    args.data_dir = args.positional[0];
  }
  if (args.data_dir.empty()) return 2;
  args.durable = true;
  auto made = MakeEngine(args);
  if (!made.ok()) return Fail(made.status());
  Engine& engine = *made.value();
  const EngineStats stats = engine.stats();
  std::printf(
      "recovered %llu interval(s) from %s: %zu clusters, %zu edges, "
      "%zu keywords\n",
      static_cast<unsigned long long>(stats.recovered_epoch),
      args.data_dir.c_str(), stats.clusters, stats.edges, stats.keywords);
  if (engine.interval_count() == 0) return 0;
  auto result = engine.Query(args.query);
  if (!result.ok()) return Fail(result.status());
  PrintChains(engine, result.value());
  return 0;
}

int CmdRefine(int argc, char** argv) {
  if (argc < 3) return 2;
  long day_num = 0;
  if (!ParseNum(argv[2], &day_num) || day_num < 0) {
    std::fprintf(stderr, "refine: <day> must be a number, got \"%s\"\n",
                 argv[2]);
    return 2;
  }
  Engine engine(DefaultEngineOptions(0));
  auto ingested = engine.IngestCorpusFile(argv[0]);
  if (!ingested.ok()) return Fail(ingested.status());
  QueryRefiner refiner(&engine);
  const uint32_t day = static_cast<uint32_t>(day_num);
  auto suggestions = refiner.Suggest(argv[1], day);
  if (suggestions.empty()) {
    std::printf("no refinements for \"%s\" on day %u\n", argv[1], day);
    return 0;
  }
  for (const Refinement& r : suggestions) {
    std::printf("%-20s %.3f\n", r.keyword.c_str(), r.score);
  }
  return 0;
}

// Per-command usage line, printed to stderr on missing/garbled operands.
const char* UsageFor(const std::string& cmd) {
  if (cmd == "gen")
    return "gen <out.corpus> [days] [posts_per_day] [micro_events] [seed]";
  if (cmd == "ingest")
    return "ingest <corpus> [--gap N] [--threads N] "
           "[--data-dir DIR [--durable]]";
  if (cmd == "recover")
    return "recover <data-dir> [--gap N] [--threads N] "
           "[--algo A] [--mode M] [--k N] [--l N]";
  if (cmd == "query")
    return "query <corpus> [--algo A] [--mode M] [--k N] [--l N] [--gap N] "
           "[--threads N] [--diversify P,S] [--per-tick]";
  if (cmd == "serve")
    return "serve <corpus> [--readers N] [--algo A] [--mode M] [--k N] "
           "[--l N] [--gap N] [--threads N] "
           "[--listen HOST:PORT [--max-inflight N] [--tick-ms MS]]";
  if (cmd == "client")
    return "client <ping|query|stats|subscribe> --listen HOST:PORT "
           "[--algo A] [--mode M] [--k N] [--l N] [--render] [--deltas N]";
  if (cmd == "stats")
    return "stats <corpus> [--gap N] [--threads N]";
  if (cmd == "refine") return "refine <corpus> <keyword> <day>";
  return nullptr;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(
        stderr,
        "usage: %s "
        "<gen|ingest|recover|query|serve|client|stats|refine> "
        "...\n"
        "(see the header comment of stabletext_cli.cpp)\n",
        argv[0]);
    return 2;
  }
  const std::string cmd = argv[1];
  int rc = 2;
  if (cmd == "gen") rc = CmdGen(argc - 2, argv + 2);
  else if (cmd == "ingest") rc = CmdIngest(argc - 2, argv + 2);
  else if (cmd == "recover") rc = CmdRecover(argc - 2, argv + 2);
  else if (cmd == "query") rc = CmdQuery(argc - 2, argv + 2);
  else if (cmd == "serve") rc = CmdServe(argc - 2, argv + 2);
  else if (cmd == "client") rc = CmdClient(argc - 2, argv + 2);
  else if (cmd == "stats") rc = CmdStats(argc - 2, argv + 2);
  else if (cmd == "refine") rc = CmdRefine(argc - 2, argv + 2);
  else std::fprintf(stderr, "unknown command: %s\n", cmd.c_str());
  if (rc == 2) {
    const char* usage = UsageFor(cmd);
    if (usage != nullptr) {
      std::fprintf(stderr, "usage: %s %s\n", argv[0], usage);
    }
  }
  return rc;
}
