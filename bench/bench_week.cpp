// Section 5.3 qualitative study: one week of posts (the paper's Jan 6-12
// 2007), day intervals, rho = 0.2, Jaccard affinity, theta = 0.1.
// Reported there: "Around 1100-1500 connected components (clusters) were
// produced for each day" and "42 full paths spanning the complete week
// were discovered", plus the example stable clusters of Figures 1, 2, 4,
// 15 and 16. This harness reruns the study on the planted-event corpus
// and prints the same quantities plus rendered chains.
//
// Flags: --threads N --repetitions N --json PATH (default BENCH_week.json)
// record the perf trajectory; N-thread output is byte-identical to 1
// thread (pipeline_parallel_test), so timings are comparable. Each
// repetition ingests the week with one Engine::IngestTicks call (with
// --threads > 1 the pool fans out the work inside each tick); the last
// epoch's published snapshot is already the sealed graph.

#include <set>

#include "bench_common.h"
#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "stable/brute_force_finder.h"

namespace stabletext {
namespace {

void Run(const bench::BenchArgs& args) {
  bench::Header("Section 5.3: one-week qualitative study",
                "Section 5.3, Figures 1/2/4/15/16",
                "7 days, rho=0.2, Jaccard, theta=0.1, day intervals");
  std::printf("threads=%zu repetitions=%d\n\n", args.threads,
              args.repetitions);

  CorpusGenOptions copt;
  copt.days = 7;
  // Reduced scale raised 1500 -> 3000 posts/day (one notch toward the
  // paper's 20k blog-week feed); the JSON records the per-day budget
  // both scales pay so trajectories stay comparable across the bump.
  constexpr uint32_t kPrevReducedPostsPerDay = 1500;
  copt.posts_per_day = bench::Pick<uint32_t>(3000, 20000);
  copt.vocabulary = bench::Pick<uint32_t>(4000, 50000);
  copt.min_words_per_post = 12;
  copt.max_words_per_post = 28;
  copt.script = EventScript::PaperWeek();
  // The chatter tail: hundreds of short-lived micro-stories, which is
  // what fills the paper's 1100-1500 clusters/day band on real data.
  copt.micro_events = bench::Pick<uint32_t>(250, 500);
  CorpusGenerator gen(copt);

  EngineOptions options;
  options.gap = 2;
  options.threads = args.threads;
  options.clustering.pruning.rho_threshold = 0.2;
  options.clustering.pruning.min_pair_support = 5;
  options.affinity.theta = 0.1;

  // Pre-generate the posts so repetitions time the engine, not the
  // corpus generator.
  std::vector<std::vector<std::string>> days(7);
  for (uint32_t day = 0; day < 7; ++day) days[day] = gen.GenerateDay(day);

  std::vector<double> seconds;
  std::unique_ptr<Engine> engine;
  for (int rep = 0; rep < args.repetitions; ++rep) {
    auto e = std::make_unique<Engine>(options);
    WallTimer timer;
    bench::CheckOk(e->IngestTicks(days).status(), "IngestTicks");
    seconds.push_back(timer.ElapsedSeconds());
    engine = std::move(e);  // Keep the last run for reporting.
  }
  const double best = *std::min_element(seconds.begin(), seconds.end());
  std::printf("engine (7 days) built in %.2fs (best of %d)\n\n", best,
              args.repetitions);

  std::printf("%-6s %10s %14s %14s\n", "day", "clusters", "raw edges",
              "pruned edges");
  std::vector<std::string> day_json;
  for (uint32_t day = 0; day < 7; ++day) {
    const IntervalResult& r = engine->interval_result(day);
    std::printf("%-6u %10zu %14zu %14zu\n", day, r.clusters.size(),
                r.graph_summary.raw_edge_count,
                r.graph_summary.prune.surviving_edges);
    bench::Json j;
    j.Put("day", day)
        .Put("clusters", r.clusters.size())
        .Put("raw_edges", r.graph_summary.raw_edge_count)
        .Put("pruned_edges", r.graph_summary.prune.surviving_edges);
    day_json.push_back(j.ToString());
  }

  // Full paths spanning the complete week (paper: 42 of them).
  size_t full_paths = 0;
  const ClusterGraph& graph = engine->graph();
  BruteForceFinder::ForEachPath(graph, [&](const StablePath& p) {
    if (p.length == 6) ++full_paths;
  });
  std::printf("\nfull paths spanning the week: %zu (paper: 42)\n",
              full_paths);

  Query full_week;
  full_week.k = 3;
  full_week.l = 0;
  auto chains = engine->Query(full_week);
  bench::CheckOk(chains.status(), "full-week query");
  std::printf("\ntop full-week stable clusters (Figure 16 analog):\n");
  for (const StableClusterChain& chain : chains.value().chains) {
    std::printf("%s\n", engine->RenderChain(chain).c_str());
  }
  Query length3;
  length3.k = 2;
  length3.l = 3;
  auto drift = engine->Query(length3);
  bench::CheckOk(drift.status(), "length-3 query");
  std::printf("top length-3 stable clusters (Figures 4/15 analog):\n");
  for (const StableClusterChain& chain : drift.value().chains) {
    std::printf("%s\n", engine->RenderChain(chain).c_str());
  }
  std::printf(
      "shape check (paper Section 5.3): clusters per day in the "
      "hundreds-to-thousands\nband, a few dozen full-week paths, and the "
      "chains surface the planted events\n(gap survival and topic "
      "drift included).\n");

  std::vector<std::string> seconds_json;
  for (const double s : seconds) {
    seconds_json.push_back(StringPrintf("%.6f", s));
  }
  bench::Json out;
  out.Put("bench", "week")
      .Put("full_scale", bench::FullScale() ? 1 : 0)
      .Put("threads", args.threads)
      .Put("repetitions", args.repetitions)
      .Put("best_seconds", best)
      .Raw("seconds", bench::Json::Array(seconds_json))
      .Put("posts_per_day", copt.posts_per_day)
      .Put("posts_per_day_prev_reduced", kPrevReducedPostsPerDay)
      .Put("per_day_seconds_best", best / 7.0)
      .Put("full_week_paths", full_paths)
      .Put("graph_nodes", graph.node_count())
      .Put("graph_edges", graph.edge_count())
      .Raw("days", bench::Json::Array(day_json))
      .Raw("io", bench::IoStatsJson(engine->io()));
  bench::WriteJsonFile(args.json_path, out.ToString());
}

}  // namespace
}  // namespace stabletext

int main(int argc, char** argv) {
  stabletext::Run(stabletext::bench::ParseArgs(argc, argv,
                                               "BENCH_week.json"));
  return 0;
}
