// Section 4.4 (TA finder): exact equality with the oracle on full-path
// queries, early-termination behaviour, bound-table ablation, g=0
// restriction.

#include <gtest/gtest.h>

#include "stable/brute_force_finder.h"
#include "stable/finder.h"
#include "stable/ta_finder.h"
#include "test_helpers.h"

namespace stabletext {
namespace {

TEST(TaFinderTest, PaperFigure5TopPath) {
  // Figure 5 has gap 1; rebuild the same weights with g = 0 and only the
  // consecutive-interval edges (the TA configuration of Table 3).
  ClusterGraph g(3, 0);
  for (uint32_t i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) g.AddNode(i);
  }
  struct E {
    NodeId a, b;
    double w;
  };
  const E edges[] = {{0, 3, 0.5}, {1, 4, 0.1}, {2, 4, 0.8}, {1, 5, 0.4},
                     {3, 6, 0.7}, {4, 6, 0.7}, {3, 7, 0.4}, {4, 8, 0.9},
                     {5, 8, 0.4}};
  for (const E& e : edges) ASSERT_TRUE(g.AddEdge(e.a, e.b, e.w).ok());
  g.SortTouched();

  TaFinderOptions opt;
  opt.k = 2;
  auto result = TaStableFinder(opt).Find(g);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().paths.size(), 2u);
  EXPECT_EQ(result.value().paths[0].nodes,
            (std::vector<NodeId>{2, 4, 8}));  // weight 1.7
  EXPECT_EQ(result.value().paths[1].nodes,
            (std::vector<NodeId>{2, 4, 6}));  // weight 1.5
}

TEST(TaFinderTest, RejectsGaps) {
  ClusterGraph g = MakeRandomGraph(4, 4, 2, 1, 3);
  auto result = TaStableFinder().Find(g);
  EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
}

class TaSweepTest
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, uint32_t, size_t, bool>> {};

TEST_P(TaSweepTest, MatchesBruteForceOnFullPaths) {
  const auto [m, n, d, k, bounds] = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ClusterGraph graph = MakeRandomGraph(m, n, d, 0, seed * 41 + 5);
    TaFinderOptions opt;
    opt.k = k;
    opt.use_bound_tables = bounds;
    auto result = TaStableFinder(opt).Find(graph);
    ASSERT_TRUE(result.ok());
    const auto expected = BruteForceFinder::TopKByWeight(graph, k, 0);
    ASSERT_EQ(result.value().paths.size(), expected.size())
        << "m=" << m << " n=" << n << " seed=" << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(result.value().paths[i].nodes, expected[i].nodes)
          << "m=" << m << " n=" << n << " seed=" << seed << " rank=" << i
          << " bounds=" << bounds;
      ASSERT_EQ(result.value().paths[i].weight, expected[i].weight);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, TaSweepTest,
    ::testing::Values(std::make_tuple(3u, 4u, 2u, size_t{1}, true),
                      std::make_tuple(3u, 4u, 2u, size_t{5}, true),
                      std::make_tuple(4u, 4u, 2u, size_t{3}, true),
                      std::make_tuple(4u, 4u, 2u, size_t{3}, false),
                      std::make_tuple(5u, 3u, 2u, size_t{4}, true),
                      std::make_tuple(5u, 3u, 2u, size_t{4}, false),
                      std::make_tuple(6u, 3u, 1u, size_t{2}, true)),
    [](const auto& info) {
      const auto& p = info.param;
      return "m" + std::to_string(std::get<0>(p)) + "n" +
             std::to_string(std::get<1>(p)) + "d" +
             std::to_string(std::get<2>(p)) + "k" +
             std::to_string(std::get<3>(p)) +
             (std::get<4>(p) ? "_bounds" : "_nobounds");
    });

TEST(TaFinderTest, EarlyTerminationScansFewerEdgesOnSkewedWeights) {
  // One dominant chain of weight-1.0 edges on an otherwise light graph:
  // TA should stop long before exhausting the lists.
  ClusterGraph g(4, 0);
  std::vector<NodeId> heavy;
  for (uint32_t i = 0; i < 4; ++i) {
    heavy.push_back(g.AddNode(i));
    for (int j = 0; j < 20; ++j) g.AddNode(i);
  }
  Rng rng(3);
  for (uint32_t i = 0; i < 3; ++i) {
    for (NodeId a : g.IntervalNodes(i)) {
      for (int c = 0; c < 2; ++c) {
        const auto& next = g.IntervalNodes(i + 1);
        NodeId b = next[rng.Uniform(next.size())];
        // Light edges in (0, 0.2]; ignore rare duplicate-edge adds.
        (void)g.AddEdge(a, b, 0.05 + 0.15 * rng.NextDouble());
      }
    }
    ASSERT_TRUE(g.AddEdge(heavy[i], heavy[i + 1], 1.0).ok());
  }
  g.SortTouched();
  TaFinderOptions opt;
  opt.k = 1;
  auto result = TaStableFinder(opt).Find(g);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().paths.size(), 1u);
  EXPECT_EQ(result.value().paths[0].nodes, heavy);
  // 3 lists x ~43 edges each: early termination must not consume all.
  EXPECT_LT(result.value().edges_scanned, g.edge_count() / 2);
}

TEST(TaFinderTest, BoundTablesCutProbes) {
  ClusterGraph graph = MakeRandomGraph(5, 10, 3, 0, 29);
  TaFinderOptions with;
  with.k = 2;
  TaFinderOptions without = with;
  without.use_bound_tables = false;
  auto a = TaStableFinder(with).Find(graph);
  auto b = TaStableFinder(without).Find(graph);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LE(a.value().random_probes, b.value().random_probes);
  ASSERT_EQ(a.value().paths.size(), b.value().paths.size());
  for (size_t i = 0; i < a.value().paths.size(); ++i) {
    EXPECT_EQ(a.value().paths[i].nodes, b.value().paths[i].nodes);
  }
}

// A spent probe budget is a resource limit, not an unanswerable query:
// callers tell the two apart by code, through the registry too.
TEST(TaFinderTest, ProbeBudgetAborts) {
  ClusterGraph graph = MakeRandomGraph(6, 10, 4, 0, 31);
  TaFinderOptions opt;
  opt.k = 5;
  opt.max_probes = 3;
  auto result = TaStableFinder(opt).Find(graph);
  EXPECT_EQ(result.status().code(), StatusCode::kResourceExhausted);

  FinderQuery query;
  query.algorithm = FinderAlgorithm::kTa;
  query.k = 5;
  query.max_probes = 3;
  EXPECT_EQ(RunFinder(graph, query).status().code(),
            StatusCode::kResourceExhausted);
  query.l = 1;  // Not a full path: unanswerable, whatever the budget.
  EXPECT_EQ(RunFinder(graph, query).status().code(),
            StatusCode::kNotSupported);
}

TEST(TaFinderTest, GraphWithNoFullPathsReturnsEmpty) {
  // Interval 1 is a dead layer with no outgoing edges.
  ClusterGraph g(3, 0);
  const NodeId a = g.AddNode(0);
  const NodeId b = g.AddNode(1);
  g.AddNode(2);
  ASSERT_TRUE(g.AddEdge(a, b, 0.5).ok());
  g.SortTouched();
  auto result = TaStableFinder().Find(g);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.value().paths.empty());
}

}  // namespace
}  // namespace stabletext
