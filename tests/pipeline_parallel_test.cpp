// Parallel-pipeline determinism: 1-thread and N-thread engines must
// produce byte-identical cluster and stable-path output. With threads > 1
// each tick fans tokenization, sort-run generation and the gap-window
// joins out on the pool; keyword ids are interned on the writer thread
// and join results stitched in interval order, so nothing downstream may
// depend on worker scheduling. The engine counts every tick in one pass
// over an inverted index; Section 3's sorted route, forced through spilled
// runs and the pooled run-generation path by a tight sort budget, must
// agree with it on every interval's summary.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <tuple>
#include <vector>

#include "cluster/cluster_extractor.h"
#include "cooccur/cooccurrence_counter.h"
#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "graph/graph_builder.h"
#include "text/document.h"
#include "util/strings.h"

namespace stabletext {
namespace {

CorpusGenOptions SmallCorpus() {
  CorpusGenOptions opt;
  opt.days = 6;
  opt.posts_per_day = 400;
  opt.vocabulary = 1500;
  opt.min_words_per_post = 10;
  opt.max_words_per_post = 24;
  opt.micro_events = 40;
  opt.seed = 31;
  opt.script = EventScript::PaperWeek();
  return opt;
}

EngineOptions BaseOptions(size_t threads) {
  EngineOptions opt;
  opt.gap = 2;
  opt.threads = threads;
  opt.clustering.pruning.rho_threshold = 0.2;
  opt.clustering.pruning.min_pair_support = 5;
  opt.affinity.theta = 0.1;
  return opt;
}

// Renders everything observable about an engine: per-interval
// cluster sets (keywords as text) and the graph's edges.
std::string Fingerprint(const Engine& engine) {
  std::string out;
  for (uint32_t i = 0; i < engine.interval_count(); ++i) {
    const IntervalResult& r = engine.interval_result(i);
    out += StringPrintf("interval %u: %zu clusters, %zu pruned edges\n", i,
                        r.clusters.size(),
                        r.graph_summary.prune.surviving_edges);
    for (const Cluster& c : r.clusters) {
      out += "  " + c.ToString(engine.dict(), 64) + "\n";
    }
  }
  const ClusterGraph& graph = engine.graph();
  out += StringPrintf("graph: %zu nodes, %zu edges\n", graph.node_count(),
                      graph.edge_count());
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    for (const ClusterGraphEdge& e : graph.Children(v)) {
      out += StringPrintf("  %u -> %u %.9f\n", v, e.target, e.weight);
    }
  }
  return out;
}

// One interval's keyword-graph summary and biconnected counters.
std::string RenderSummary(uint32_t interval, const KeywordGraphSummary& g,
                          const BiconnectedStats& b) {
  return StringPrintf(
      "interval %u: docs=%llu keywords=%zu raw=%zu input=%zu "
      "support=%zu chi2=%zu rho=%zu kept=%zu bcc=%zu ap=%zu stack=%zu "
      "spilled=%zu\n",
      interval, static_cast<unsigned long long>(g.document_count),
      g.keyword_count, g.raw_edge_count, g.prune.input_edges,
      g.prune.failed_support, g.prune.failed_chi_square, g.prune.failed_rho,
      g.prune.surviving_edges, b.components, b.articulation_points,
      b.max_stack_entries, b.spilled_entries);
}

std::string SummaryFingerprint(const Engine& engine) {
  std::string out;
  for (uint32_t i = 0; i < engine.interval_count(); ++i) {
    const IntervalResult& r = engine.interval_result(i);
    out += RenderSummary(i, r.graph_summary, r.biconnected);
  }
  return out;
}

// The rendered top-k chains of a bfs full-path, a dfs l=3 and a
// normalized bfs lmin=2 query.
std::string ChainFingerprint(const Engine& engine) {
  std::string out;
  for (const auto& [algorithm, mode, k, l] :
       {std::tuple{FinderAlgorithm::kBfs, FinderMode::kKlStable, 5, 0},
        std::tuple{FinderAlgorithm::kDfs, FinderMode::kKlStable, 4, 3},
        std::tuple{FinderAlgorithm::kBfs, FinderMode::kNormalized, 4, 2}}) {
    Query query;
    query.algorithm = algorithm;
    query.mode = mode;
    query.k = k;
    query.l = l;
    auto r = engine.Query(query);
    EXPECT_TRUE(r.ok()) << r.status().ToString();
    if (!r.ok()) continue;
    for (const StableClusterChain& chain : r.value().chains) {
      out += engine.RenderChain(chain, 16);
    }
  }
  return out;
}

struct RunOutput {
  std::string engine;
  std::string chains;
  std::string summaries;
};

std::vector<std::vector<std::string>> SmallTicks() {
  CorpusGenerator gen(SmallCorpus());
  std::vector<std::vector<std::string>> ticks;
  for (uint32_t day = 0; day < 6; ++day) {
    ticks.push_back(gen.GenerateDay(day));
  }
  return ticks;
}

RunOutput RunWithThreads(size_t threads, size_t sort_memory_bytes) {
  EngineOptions opt = BaseOptions(threads);
  opt.clustering.counting.sort_memory_bytes = sort_memory_bytes;
  Engine engine(opt);
  auto ingested = engine.IngestTicks(SmallTicks());
  EXPECT_TRUE(ingested.ok()) << ingested.status().ToString();
  return RunOutput{Fingerprint(engine), ChainFingerprint(engine),
                   SummaryFingerprint(engine)};
}

// The engine's per-interval summaries, recomputed through Section 3's
// sorted route: pair records external-sorted under `sort_memory_bytes`
// (runs generated on a `threads`-worker pool when threads > 1),
// aggregated and pruned from the table. Adds the spilled runs to `runs`.
std::string SortedRouteSummaries(size_t threads, size_t sort_memory_bytes,
                                 uint64_t* runs) {
  const EngineOptions opt = BaseOptions(threads);
  std::unique_ptr<ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<ThreadPool>(threads);
  CooccurrenceCounterOptions counting = opt.clustering.counting;
  counting.sort_memory_bytes = sort_memory_bytes;
  counting.sort_pool = pool.get();
  KeywordDict dict;
  std::string out;
  const auto ticks = SmallTicks();
  for (uint32_t t = 0; t < ticks.size(); ++t) {
    DocumentProcessor processor;
    IoStats io;
    CooccurrenceCounter counter(&dict, counting, &io);
    for (const std::string& post : ticks[t]) {
      std::vector<KeywordId> ids;
      for (const std::string& w : processor.Process(t, post).keywords) {
        ids.push_back(dict.Intern(w));
      }
      std::sort(ids.begin(), ids.end());
      EXPECT_TRUE(counter.AddInterned(ids).ok());
    }
    CooccurrenceTable table;
    EXPECT_TRUE(counter.Finish(&table).ok());
    *runs += io.sort_runs_spilled;
    KeywordGraphSummary summary;
    const KeywordGraph graph =
        GraphBuilder(opt.clustering.pruning).Build(table, &summary);
    BiconnectedStats biconnected;
    EXPECT_TRUE(ClusterExtractor(opt.clustering.extraction)
                    .Extract(graph, t, &biconnected)
                    .ok());
    out += RenderSummary(t, summary, biconnected);
  }
  return out;
}

TEST(PipelineParallelTest, ThreadCountDoesNotChangeOutput) {
  const RunOutput sequential = RunWithThreads(1, 32 << 20);
  ASSERT_FALSE(sequential.engine.empty());
  ASSERT_FALSE(sequential.chains.empty());
  for (const size_t threads : {2u, 4u, 8u}) {
    const RunOutput parallel = RunWithThreads(threads, 32 << 20);
    EXPECT_EQ(sequential.engine, parallel.engine)
        << "threads=" << threads;
    EXPECT_EQ(sequential.chains, parallel.chains)
        << "threads=" << threads;
  }
}

TEST(PipelineParallelTest, SpilledSortRunsAreDeterministicToo) {
  // The engine's one pass uses no sort, so its budget must not change the
  // answer.
  const RunOutput engine = RunWithThreads(4, 32 << 20);
  const RunOutput tight = RunWithThreads(1, 64 << 10);
  EXPECT_EQ(engine.engine, tight.engine);
  EXPECT_EQ(engine.chains, tight.chains);
  EXPECT_EQ(engine.summaries, tight.summaries);
  // A tiny sort budget forces the sorted route through spilled runs, the
  // pooled run generation and the loser-tree merge; it must agree with
  // the engine at every thread count.
  for (const size_t threads : {1u, 4u}) {
    uint64_t runs = 0;
    EXPECT_EQ(SortedRouteSummaries(threads, 64 << 10, &runs),
              engine.summaries)
        << "threads=" << threads;
    EXPECT_GT(runs, 0u) << "threads=" << threads;
  }
}

}  // namespace
}  // namespace stabletext
