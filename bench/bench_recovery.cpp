// bench_recovery: what durability costs and what recovery buys. Three
// measurements on the same synthetic stream:
//
//   1. WAL overhead per tick — ingest latency with durability off vs on
//      (every commit appends + fsyncs a WAL record), plus bytes logged
//      and fsyncs issued.
//   2. Checkpoint cost — wall time of each record-log checkpoint
//      along the durable stream (EngineStats::checkpoint_ns).
//   3. Recovery time vs log length — Engine::Recover wall time against
//      data directories whose WAL tail covers 1/8, 1/4, 1/2 and all of
//      the stream (checkpoints disabled, so recovery replays the whole
//      tail).
//
//   bench_recovery [--threads N] [--repetitions N] [--json PATH]
//
// Emits BENCH_recovery.json.

#include <cstdint>
#include <memory>

#include "bench_common.h"
#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "storage/temp_dir.h"

namespace stabletext {
namespace bench {
namespace {

EngineOptions StreamOptions(size_t threads) {
  EngineOptions options;
  options.gap = 1;
  options.threads = threads;
  options.clustering.pruning.rho_threshold = 0.2;
  options.clustering.pruning.min_pair_support = 5;
  options.affinity.theta = 0.1;
  return options;
}

struct TickSample {
  double tick_ms = 0;
  uint64_t wal_bytes = 0;      // Cumulative bytes logged so far.
  uint64_t checkpoint_ns = 0;  // Last checkpoint's duration.
};

// Streams `ticks` one IngestText at a time; durable when `dir` != "".
std::vector<TickSample> RunStream(
    const std::vector<std::vector<std::string>>& ticks, size_t threads,
    const std::string& dir, uint64_t checkpoint_interval) {
  EngineOptions options = StreamOptions(threads);
  std::unique_ptr<Engine> engine;
  if (dir.empty()) {
    engine = std::make_unique<Engine>(options);
  } else {
    options.durability.enabled = true;
    options.durability.dir = dir;
    options.durability.checkpoint_interval = checkpoint_interval;
    auto r = Engine::Recover(options);
    CheckOk(r.status(), "open");
    engine = std::move(r).value();
  }
  std::vector<TickSample> samples;
  samples.reserve(ticks.size());
  for (const auto& posts : ticks) {
    WallTimer timer;
    CheckOk(engine->IngestText(posts).status(), "ingest");
    TickSample s;
    s.tick_ms = timer.ElapsedMillis();
    const EngineStats stats = engine->stats();
    s.wal_bytes = stats.wal_bytes;
    s.checkpoint_ns = stats.checkpoint_ns;
    samples.push_back(s);
  }
  return samples;
}

double MeanTickMs(const std::vector<TickSample>& samples) {
  double sum = 0;
  for (const TickSample& s : samples) sum += s.tick_ms;
  return samples.empty() ? 0 : sum / samples.size();
}

}  // namespace
}  // namespace bench
}  // namespace stabletext

int main(int argc, char** argv) {
  using namespace stabletext;
  using namespace stabletext::bench;

  BenchArgs args = ParseArgs(argc, argv, "BENCH_recovery.json");
  Header("durability: WAL overhead, checkpoint cost, recovery time",
         "crash-consistent serving (WAL + record-log checkpoints)",
         "plain vs durable stream; recovery vs replayed log length");

  const uint32_t ticks_total = Pick<uint32_t>(64, 256);
  const uint64_t checkpoint_interval = 16;
  CorpusGenOptions corpus;
  corpus.days = 7;
  corpus.posts_per_day = Pick<uint32_t>(120, 600);
  corpus.vocabulary = Pick<uint32_t>(1000, 8000);
  corpus.min_words_per_post = 10;
  corpus.max_words_per_post = 22;
  corpus.micro_events = Pick<uint32_t>(16, 120);
  corpus.script = EventScript::PaperWeek();
  CorpusGenerator generator(corpus);
  std::vector<std::vector<std::string>> ticks;
  ticks.reserve(ticks_total);
  for (uint32_t t = 0; t < ticks_total; ++t) {
    ticks.push_back(generator.GenerateDay(t % corpus.days));
  }

  // 1+2: plain vs durable stream (best repetition by mean tick).
  std::vector<TickSample> plain;
  std::vector<TickSample> durable;
  IoStats durable_io;
  for (int rep = 0; rep < args.repetitions; ++rep) {
    auto p = RunStream(ticks, args.threads, "", 0);
    if (rep == 0 || MeanTickMs(p) < MeanTickMs(plain)) plain = std::move(p);
    TempDir dir("bench_recovery");
    auto d = RunStream(ticks, args.threads, dir.path(),
                       checkpoint_interval);
    if (rep == 0 || MeanTickMs(d) < MeanTickMs(durable)) {
      durable = std::move(d);
    }
  }
  {
    // One more durable pass kept on disk long enough to read its stats.
    TempDir dir("bench_recovery");
    EngineOptions options = StreamOptions(args.threads);
    options.durability.enabled = true;
    options.durability.dir = dir.path();
    options.durability.checkpoint_interval = checkpoint_interval;
    auto r = Engine::Recover(options);
    CheckOk(r.status(), "open");
    CheckOk(r.value()->IngestTicks(ticks).status(), "ingest");
    durable_io = r.value()->stats().io;
  }

  const double plain_ms = MeanTickMs(plain);
  const double durable_ms = MeanTickMs(durable);
  std::printf(
      "mean tick: plain %.2f ms, durable %.2f ms (%+.1f%%); %llu WAL "
      "bytes over %u ticks, %llu fsyncs\n",
      plain_ms, durable_ms,
      plain_ms > 0 ? (durable_ms / plain_ms - 1) * 100 : 0,
      static_cast<unsigned long long>(durable.back().wal_bytes),
      ticks_total,
      static_cast<unsigned long long>(durable_io.fsyncs));

  std::vector<std::string> checkpoint_rows;
  std::printf("\n%8s %16s\n", "epoch", "checkpoint_ms");
  for (size_t i = 0; i < durable.size(); ++i) {
    if ((i + 1) % checkpoint_interval != 0) continue;
    std::printf("%8zu %16.2f\n", i + 1, durable[i].checkpoint_ns / 1e6);
    Json row;
    row.Put("epoch", i + 1).Put("checkpoint_ns", durable[i].checkpoint_ns);
    checkpoint_rows.push_back(row.ToString());
  }

  // 3: recovery time vs WAL length. Checkpoints off, so Recover replays
  // the full tail of n intervals.
  std::vector<std::string> recovery_rows;
  std::printf("\n%12s %14s %14s\n", "wal_ticks", "wal_bytes",
              "recover_ms");
  for (uint32_t n = ticks_total / 8; n <= ticks_total; n *= 2) {
    TempDir dir("bench_recovery");
    EngineOptions options = StreamOptions(args.threads);
    options.durability.enabled = true;
    options.durability.dir = dir.path();
    options.durability.checkpoint_interval = 0;  // WAL only.
    uint64_t wal_bytes = 0;
    {
      auto r = Engine::Recover(options);
      CheckOk(r.status(), "open");
      for (uint32_t t = 0; t < n; ++t) {
        CheckOk(r.value()->IngestText(ticks[t]).status(), "ingest");
      }
      wal_bytes = r.value()->stats().wal_bytes;
    }
    double recover_ms = 0;
    for (int rep = 0; rep < args.repetitions; ++rep) {
      WallTimer timer;
      auto r = Engine::Recover(options);
      const double ms = timer.ElapsedMillis();
      CheckOk(r.status(), "recovery");
      if (r.value()->interval_count() != n) {
        std::fprintf(stderr, "recovery failed at %u ticks\n", n);
        std::exit(1);
      }
      recover_ms = rep == 0 ? ms : std::min(recover_ms, ms);
    }
    std::printf("%12u %14llu %14.1f\n", n,
                static_cast<unsigned long long>(wal_bytes), recover_ms);
    Json row;
    row.Put("wal_ticks", n)
        .Put("wal_bytes", wal_bytes)
        .Put("recover_ms", recover_ms);
    recovery_rows.push_back(row.ToString());
  }

  Json json;
  json.Put("bench", "recovery")
      .Put("ticks", ticks_total)
      .Put("posts_per_tick", corpus.posts_per_day)
      .Put("threads", args.threads)
      .Put("checkpoint_interval", checkpoint_interval)
      .Put("plain_tick_ms", plain_ms)
      .Put("durable_tick_ms", durable_ms)
      .Put("wal_bytes_total", durable.back().wal_bytes)
      .Raw("durable_io", IoStatsJson(durable_io))
      .Raw("checkpoints", Json::Array(checkpoint_rows))
      .Raw("recovery", Json::Array(recovery_rows));
  WriteJsonFile(args.json_path, json.ToString());
  return 0;
}
