// bench_publish: epoch-publication cost vs stream length. Streams a long
// synthetic feed tick by tick and records, per committed interval, the
// snapshot-publish time (EngineStats::publish_ns), the whole ingest
// tick's latency and the chunk accounting of the copy-on-write publish:
// per-tick cost proportional to the tick's delta, flat in the epoch
// count.
//
//   bench_publish [--threads N] [--repetitions N] [--json PATH]
//
// Emits BENCH_publish.json.

#include <cstdint>

#include "bench_common.h"
#include "core/engine.h"
#include "gen/corpus_generator.h"

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
  uint64_t publish_ns = 0;
  double tick_ms = 0;
  size_t shared_chunks = 0;
  size_t copied_chunks = 0;
};

// Streams `ticks` through a fresh engine, one IngestText per tick.
std::vector<TickSample> RunStream(
    const std::vector<std::vector<std::string>>& ticks, size_t threads) {
  Engine engine(StreamOptions(threads));
  std::vector<TickSample> samples;
  samples.reserve(ticks.size());
  for (const auto& posts : ticks) {
    WallTimer timer;
    auto r = engine.IngestText(posts);
    if (!r.ok()) {
      std::fprintf(stderr, "ingest failed: %s\n",
                   r.status().ToString().c_str());
      std::exit(1);
    }
    TickSample s;
    s.tick_ms = timer.ElapsedMillis();
    const EngineStats stats = engine.stats();
    s.publish_ns = stats.publish_ns;
    s.shared_chunks = stats.shared_chunk_count;
    s.copied_chunks = stats.copied_chunk_count;
    samples.push_back(s);
  }
  return samples;
}

double MeanPublishUs(const std::vector<TickSample>& samples, size_t begin,
                     size_t end) {
  double sum = 0;
  for (size_t i = begin; i < end; ++i) sum += samples[i].publish_ns / 1e3;
  return end > begin ? sum / (end - begin) : 0;
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

  BenchArgs args = ParseArgs(argc, argv, "BENCH_publish.json");
  Header("epoch publication: O(delta) chunk sharing",
         "streaming serving scenario (publish cost per committed tick)",
         "long stream, chunked publish");

  // Long enough that the graph spans many adjacency chunks: the
  // copied-chunk count stays flat at the gap window while the graph grows.
  const uint32_t ticks_total = Pick<uint32_t>(256, 1024);
  CorpusGenOptions corpus;
  corpus.days = 7;
  // Reduced scale raised 150 -> 300 posts/tick (one notch toward the
  // paper's full blog-week feed); the JSON records the per-tick budget
  // both scales pay so trajectories stay comparable across the bump.
  constexpr uint32_t kPrevReducedPostsPerTick = 150;
  corpus.posts_per_day = Pick<uint32_t>(300, 600);
  corpus.vocabulary = Pick<uint32_t>(1200, 8000);
  corpus.min_words_per_post = 12;
  corpus.max_words_per_post = 24;
  corpus.micro_events = Pick<uint32_t>(20, 120);
  corpus.script = EventScript::PaperWeek();
  CorpusGenerator generator(corpus);
  std::vector<std::vector<std::string>> ticks;
  ticks.reserve(ticks_total);
  for (uint32_t t = 0; t < ticks_total; ++t) {
    // Cycle the generated week: the engine numbers intervals by arrival,
    // so a long stream just keeps growing the graph.
    ticks.push_back(generator.GenerateDay(t % corpus.days));
  }

  std::vector<TickSample> chunked;
  for (int rep = 0; rep < args.repetitions; ++rep) {
    auto c = RunStream(ticks, args.threads);
    if (rep == 0 ||
        MeanPublishUs(c, 0, c.size()) <
            MeanPublishUs(chunked, 0, chunked.size())) {
      chunked = std::move(c);
    }
  }

  std::printf("%8s %14s %14s %14s\n", "epoch", "publish_us", "shared",
              "copied");
  for (size_t i = 0; i < chunked.size(); i += chunked.size() / 12 + 1) {
    std::printf("%8zu %14.1f %14zu %14zu\n", i + 1,
                chunked[i].publish_ns / 1e3, chunked[i].shared_chunks,
                chunked[i].copied_chunks);
  }
  const size_t q = chunked.size() / 4;
  const double head = MeanPublishUs(chunked, 0, q);
  const double tail = MeanPublishUs(chunked, chunked.size() - q,
                                    chunked.size());
  std::printf("\npublish mean, first->last quartile: %.1f -> %.1f us "
              "(x%.2f)\n",
              head, tail, head > 0 ? tail / head : 0);

  const double stream_ms = MeanTickMs(chunked) * chunked.size();
  std::printf("ingest (%u ticks, %zu threads): %.0f ms\n", ticks_total,
              args.threads, stream_ms);

  std::vector<std::string> per_tick;
  for (size_t i = 0; i < chunked.size(); ++i) {
    Json row;
    row.Put("epoch", i + 1)
        .Put("publish_ns", chunked[i].publish_ns)
        .Put("tick_ms", chunked[i].tick_ms)
        .Put("shared_chunks", chunked[i].shared_chunks)
        .Put("copied_chunks", chunked[i].copied_chunks);
    per_tick.push_back(row.ToString());
  }
  Json json;
  json.Put("bench", "publish")
      .Put("ticks", ticks_total)
      .Put("posts_per_tick", corpus.posts_per_day)
      .Put("posts_per_tick_prev_reduced", kPrevReducedPostsPerTick)
      .Put("tick_ms_mean", MeanTickMs(chunked))
      .Put("threads", args.threads)
      .Put("publish_us_first_quartile", head)
      .Put("publish_us_last_quartile", tail)
      .Put("stream_ingest_ms", stream_ms)
      .Raw("per_tick", Json::Array(per_tick));
  WriteJsonFile(args.json_path, json.ToString());
  return 0;
}
