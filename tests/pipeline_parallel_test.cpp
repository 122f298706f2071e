// Parallel-pipeline determinism: 1-thread and N-thread engines must
// produce byte-identical cluster and stable-path output. With threads > 1
// each tick fans tokenization, sort-run generation and the gap-window
// joins out on the pool; keyword ids are interned on the writer thread
// and join results stitched in interval order, so nothing downstream may
// depend on worker scheduling. A tight sort budget additionally forces
// spilled runs through the pooled run-generation path.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/engine.h"
#include "gen/corpus_generator.h"
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

// Renders everything observable about a compacted engine: per-interval
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
};

RunOutput RunWithThreads(size_t threads, size_t sort_memory_bytes) {
  CorpusGenerator gen(SmallCorpus());
  EngineOptions opt = BaseOptions(threads);
  opt.clustering.counting.sort_memory_bytes = sort_memory_bytes;
  std::vector<std::vector<std::string>> ticks;
  for (uint32_t day = 0; day < 6; ++day) {
    ticks.push_back(gen.GenerateDay(day));
  }
  Engine engine(opt);
  auto ingested = engine.IngestTicks(ticks);
  EXPECT_TRUE(ingested.ok()) << ingested.status().ToString();
  EXPECT_TRUE(engine.Compact().ok());
  return RunOutput{Fingerprint(engine), ChainFingerprint(engine)};
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
  // A tiny sort budget forces every interval through spilled runs and the
  // pooled run-generation + loser-tree merge path.
  const RunOutput sequential = RunWithThreads(1, 64 << 10);
  const RunOutput parallel = RunWithThreads(4, 64 << 10);
  EXPECT_EQ(sequential.engine, parallel.engine);
  EXPECT_EQ(sequential.chains, parallel.chains);
  // And the budget itself must not change the answer either.
  const RunOutput roomy = RunWithThreads(4, 32 << 20);
  EXPECT_EQ(sequential.engine, roomy.engine);
}

}  // namespace
}  // namespace stabletext
