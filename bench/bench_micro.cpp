// Microbenchmarks (google-benchmark) for the core primitives: statistics,
// stemming, heaps, the BFS and DFS finders, biconnected decomposition,
// external sorting, and the similarity join. Not tied to a paper figure;
// used for regression tracking of the building blocks every harness
// depends on.

#include <benchmark/benchmark.h>

#include "bench_common.h"
#include "affinity/similarity_join.h"
#include "cluster/cluster_extractor.h"
#include "gen/cluster_graph_generator.h"
#include "graph/chi_square.h"
#include "graph/correlation.h"
#include "stable/finder.h"
#include "stable/topk_heap.h"
#include "storage/external_sorter.h"
#include "text/porter_stemmer.h"
#include "util/random.h"

namespace stabletext {
namespace {

void BM_ChiSquare(benchmark::State& state) {
  Rng rng(1);
  uint64_t a_u = 120, a_v = 340, a_uv = 60, n = 100000;
  for (auto _ : state) {
    benchmark::DoNotOptimize(ChiSquare::Statistic(a_u, a_v, a_uv, n));
  }
}
BENCHMARK(BM_ChiSquare);

void BM_CorrelationRho(benchmark::State& state) {
  for (auto _ : state) {
    benchmark::DoNotOptimize(Correlation::Rho(120, 340, 60, 100000));
  }
}
BENCHMARK(BM_CorrelationRho);

void BM_PorterStemmer(benchmark::State& state) {
  const char* words[] = {"nationalization", "running",  "generalizations",
                         "hopefulness",     "triplicate", "connectivity"};
  size_t i = 0;
  for (auto _ : state) {
    benchmark::DoNotOptimize(PorterStemmer::Stem(words[i++ % 6]));
  }
}
BENCHMARK(BM_PorterStemmer);

void BM_TopKHeapOffer(benchmark::State& state) {
  const size_t k = static_cast<size_t>(state.range(0));
  Rng rng(7);
  std::vector<StablePath> paths;
  for (int i = 0; i < 1024; ++i) {
    StablePath p;
    p.nodes = {static_cast<NodeId>(i), static_cast<NodeId>(i + 1)};
    p.weight = rng.NextWeight();
    p.length = 1;
    paths.push_back(p);
  }
  for (auto _ : state) {
    TopKHeap<> heap(k);
    for (const auto& p : paths) heap.Offer(p);
    benchmark::DoNotOptimize(heap.size());
  }
  state.SetItemsProcessed(state.iterations() * 1024);
}
BENCHMARK(BM_TopKHeapOffer)->Arg(5)->Arg(50);

// One finder query through the registry, the finder layer of a cold
// query: BFS or DFS, kl-stable (k 5, l 3) or normalized (k 5, lmin 2), on
// a fixed generated graph of 128 intervals whose nodes are three quarters
// edge-less, like the engine's.
void BM_RunFinder(benchmark::State& state) {
  static const ClusterGraph graph = [] {
    ClusterGraphGenOptions opt;
    opt.m = 128;
    opt.n = 7;
    opt.d = 1;
    opt.isolated = 3;
    opt.seed = 7;
    return ClusterGraphGenerator::Generate(opt);
  }();
  FinderQuery query;
  query.algorithm =
      state.range(0) == 0 ? FinderAlgorithm::kBfs : FinderAlgorithm::kDfs;
  query.mode = state.range(1) == 0 ? FinderMode::kKlStable
                                   : FinderMode::kNormalized;
  query.k = 5;
  query.l = query.mode == FinderMode::kKlStable ? 3 : 2;
  for (auto _ : state) {
    auto result = RunFinder(graph, query);
    if (!result.ok()) {
      state.SkipWithError(result.status().ToString().c_str());
      break;
    }
    benchmark::DoNotOptimize(result.value().paths.data());
  }
  state.SetLabel(std::string(FinderAlgorithmName(query.algorithm)) + " " +
                 FinderModeName(query.mode));
}
BENCHMARK(BM_RunFinder)
    ->ArgNames({"dfs", "normalized"})
    ->Args({0, 0})
    ->Args({1, 0})
    ->Args({0, 1})
    ->Args({1, 1})
    ->Unit(benchmark::kMicrosecond);

void BM_Biconnected(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  Rng rng(3);
  std::vector<WeightedEdge> edges;
  for (KeywordId u = 0; u < n; ++u) {
    for (int j = 0; j < 4; ++j) {
      KeywordId v = static_cast<KeywordId>(rng.Uniform(n));
      if (v != u) {
        edges.push_back(
            WeightedEdge{std::min(u, v), std::max(u, v), 0.5});
      }
    }
  }
  KeywordGraph g = KeywordGraph::FromEdges(n, edges);
  for (auto _ : state) {
    BiconnectedFinder finder;
    size_t count = 0;
    bench::CheckOk(
        finder.Run(g, [&](const std::vector<WeightedEdge>&) { ++count; }),
        "biconnected");
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * edges.size());
}
BENCHMARK(BM_Biconnected)->Arg(1000)->Arg(10000);

struct SortPair {
  uint32_t a, b;
  friend bool operator<(const SortPair& x, const SortPair& y) {
    return x.a != y.a ? x.a < y.a : x.b < y.b;
  }
};

void BM_ExternalSort(benchmark::State& state) {
  const size_t records = static_cast<size_t>(state.range(0));
  using Pair = SortPair;
  Rng rng(11);
  std::vector<Pair> input(records);
  for (auto& p : input) {
    p = Pair{static_cast<uint32_t>(rng.Uniform(1 << 20)),
             static_cast<uint32_t>(rng.Uniform(1 << 20))};
  }
  for (auto _ : state) {
    ExternalSorterOptions opt;
    opt.memory_budget_bytes = records * sizeof(Pair) / 8;  // Force spills.
    ExternalSorter<Pair> sorter(opt);
    for (const Pair& p : input) bench::CheckOk(sorter.Add(p), "sort input");
    bench::CheckOk(sorter.Sort(), "sort");
    Pair out;
    size_t count = 0;
    while (sorter.Next(&out)) ++count;
    benchmark::DoNotOptimize(count);
  }
  state.SetItemsProcessed(state.iterations() * records);
}
BENCHMARK(BM_ExternalSort)->Arg(100000);

void BM_SimilarityJoin(benchmark::State& state) {
  Rng rng(13);
  auto make_clusters = [&](size_t count) {
    std::vector<Cluster> out;
    for (size_t i = 0; i < count; ++i) {
      Cluster c;
      for (KeywordId v = 0; v < 300; ++v) {
        if (rng.NextBool(0.03)) c.keywords.push_back(v);
      }
      if (c.keywords.empty()) c.keywords.push_back(0);
      out.push_back(std::move(c));
    }
    return out;
  };
  auto left = make_clusters(500);
  auto right = make_clusters(500);
  AffinityOptions opt;
  opt.theta = 0.1;
  SimilarityJoin join(opt);
  for (auto _ : state) {
    benchmark::DoNotOptimize(join.Join(left, right).size());
  }
}
BENCHMARK(BM_SimilarityJoin);

}  // namespace
}  // namespace stabletext

BENCHMARK_MAIN();
