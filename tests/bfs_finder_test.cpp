// Algorithm 2 (BFS finder): the paper's Figure 5 worked example, exact
// equality with the brute-force oracle over randomized parameter sweeps,
// and block-nested-loop (memory-budget) equivalence.

#include <gtest/gtest.h>

#include <tuple>

#include "stable/bfs_finder.h"
#include "stable/brute_force_finder.h"
#include "test_helpers.h"

namespace stabletext {
namespace {

TEST(BfsFinderTest, PaperFigure5WorkedExample) {
  // Section 4.2 ends: "the best two paths are identified as c13c22c31 and
  // c13c22c33" for k = 2, l = 2.
  ClusterGraph g = MakePaperFigure5Graph();
  BfsFinderOptions opt;
  opt.k = 2;
  opt.l = 2;
  auto result = BfsStableFinder(opt).Find(g);
  ASSERT_TRUE(result.ok());
  const auto& paths = result.value().paths;
  ASSERT_EQ(paths.size(), 2u);
  // c13=2, c22=4, c33=8 (weight 1.7); c13=2, c22=4, c31=6 (weight 1.5).
  EXPECT_EQ(paths[0].nodes, (std::vector<NodeId>{2, 4, 8}));
  EXPECT_NEAR(paths[0].weight, 1.7, 1e-12);
  EXPECT_EQ(paths[1].nodes, (std::vector<NodeId>{2, 4, 6}));
  EXPECT_NEAR(paths[1].weight, 1.5, 1e-12);
}

TEST(BfsFinderTest, EmptyAndDegenerateGraphs) {
  ClusterGraph empty(0, 0);
  auto r = BfsStableFinder().Find(empty);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().paths.empty());

  ClusterGraph one(1, 0);
  one.AddNode(0);
  r = BfsStableFinder().Find(one);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().paths.empty());

  // No edges: no paths.
  ClusterGraph sparse(3, 0);
  for (uint32_t i = 0; i < 3; ++i) sparse.AddNode(i);
  BfsFinderOptions opt;
  opt.l = 1;
  r = BfsStableFinder(opt).Find(sparse);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().paths.empty());
}

TEST(BfsFinderTest, RejectsBadLength) {
  ClusterGraph g = MakeRandomGraph(4, 5, 2, 0, 1);
  BfsFinderOptions opt;
  opt.l = 9;  // > m-1.
  auto r = BfsStableFinder(opt).Find(g);
  EXPECT_FALSE(r.ok());
}

class BfsSweepTest
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, size_t,
                     uint32_t>> {};

TEST_P(BfsSweepTest, MatchesBruteForceExactly) {
  const auto [m, n, d, g, k, l] = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ClusterGraph graph = MakeRandomGraph(m, n, d, g, seed * 97);
    BfsFinderOptions opt;
    opt.k = k;
    opt.l = l;
    auto result = BfsStableFinder(opt).Find(graph);
    ASSERT_TRUE(result.ok());
    const auto expected = BruteForceFinder::TopKByWeight(graph, k, l);
    ASSERT_EQ(result.value().paths.size(), expected.size())
        << "m=" << m << " n=" << n << " d=" << d << " g=" << g
        << " k=" << k << " l=" << l << " seed=" << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(result.value().paths[i].nodes, expected[i].nodes)
          << "rank " << i << " seed " << seed;
      ASSERT_EQ(result.value().paths[i].weight, expected[i].weight);
      ASSERT_EQ(result.value().paths[i].length, expected[i].length);
    }
  }
}

// l = 0 means full paths. Kept small: the oracle enumerates every path.
INSTANTIATE_TEST_SUITE_P(
    Sweep, BfsSweepTest,
    ::testing::Values(
        std::make_tuple(3u, 4u, 2u, 0u, size_t{1}, 0u),
        std::make_tuple(3u, 4u, 2u, 0u, size_t{5}, 0u),
        std::make_tuple(4u, 4u, 2u, 0u, size_t{3}, 2u),
        std::make_tuple(4u, 5u, 2u, 1u, size_t{3}, 0u),
        std::make_tuple(4u, 5u, 2u, 1u, size_t{3}, 2u),
        std::make_tuple(5u, 3u, 2u, 2u, size_t{4}, 3u),
        std::make_tuple(5u, 4u, 3u, 0u, size_t{2}, 1u),
        std::make_tuple(6u, 3u, 2u, 1u, size_t{5}, 4u),
        std::make_tuple(6u, 3u, 1u, 0u, size_t{10}, 0u),
        std::make_tuple(7u, 2u, 2u, 2u, size_t{3}, 5u),
        // Edges spanning more than l intervals (l < g+1): the step must
        // skip extending them rather than loop on l - len.
        std::make_tuple(4u, 5u, 2u, 1u, size_t{3}, 1u),
        std::make_tuple(5u, 3u, 2u, 2u, size_t{4}, 2u)),
    [](const auto& info) {
      const auto& p = info.param;
      return "m" + std::to_string(std::get<0>(p)) + "n" +
             std::to_string(std::get<1>(p)) + "d" +
             std::to_string(std::get<2>(p)) + "g" +
             std::to_string(std::get<3>(p)) + "k" +
             std::to_string(std::get<4>(p)) + "l" +
             std::to_string(std::get<5>(p));
    });

TEST(BfsFinderTest, MemoryBudgetForcesPassesButKeepsAnswer) {
  ClusterGraph graph = MakeRandomGraph(6, 30, 3, 1, 13);
  BfsFinderOptions unlimited;
  unlimited.k = 5;
  unlimited.l = 3;
  auto full = BfsStableFinder(unlimited).Find(graph);
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(full.value().passes, 1u);

  BfsFinderOptions tight = unlimited;
  tight.memory_budget_bytes = 4096;  // Far below the window size.
  auto constrained = BfsStableFinder(tight).Find(graph);
  ASSERT_TRUE(constrained.ok());
  EXPECT_GT(constrained.value().passes, 1u);
  // Block-nested-loop re-reads the current interval every pass.
  EXPECT_GT(constrained.value().io.page_reads,
            full.value().io.page_reads);
  // The answer is identical.
  ASSERT_EQ(constrained.value().paths.size(), full.value().paths.size());
  for (size_t i = 0; i < full.value().paths.size(); ++i) {
    EXPECT_EQ(constrained.value().paths[i].nodes,
              full.value().paths[i].nodes);
  }
}

TEST(BfsFinderTest, FullModeUsesOneHeapPerNode) {
  // Full-path mode (l = m-1) must agree with explicitly passing l = m-1.
  ClusterGraph graph = MakeRandomGraph(5, 8, 2, 0, 3);
  BfsFinderOptions implicit;
  implicit.k = 4;
  implicit.l = 0;
  BfsFinderOptions explicit_l;
  explicit_l.k = 4;
  explicit_l.l = 4;
  auto a = BfsStableFinder(implicit).Find(graph);
  auto b = BfsStableFinder(explicit_l).Find(graph);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().paths.size(), b.value().paths.size());
  for (size_t i = 0; i < a.value().paths.size(); ++i) {
    EXPECT_EQ(a.value().paths[i].nodes, b.value().paths[i].nodes);
  }
  // The full-mode memory footprint is the smaller one.
  EXPECT_LE(a.value().peak_memory_bytes, b.value().peak_memory_bytes);
}

TEST(BfsFinderTest, IoGrowsWithGap) {
  // Larger g => wider windows => more window reads per interval.
  BfsFinderOptions opt;
  opt.k = 5;
  opt.l = 3;
  uint64_t prev = 0;
  for (uint32_t g : {0u, 1u, 2u}) {
    ClusterGraph graph = MakeRandomGraph(8, 20, 3, g, 21);
    auto r = BfsStableFinder(opt).Find(graph);
    ASSERT_TRUE(r.ok());
    EXPECT_GE(r.value().io.page_reads, prev);
    prev = r.value().io.page_reads;
  }
}

TEST(BfsFinderTest, PathsRespectGapBound) {
  ClusterGraph graph = MakeRandomGraph(6, 6, 2, 2, 8);
  BfsFinderOptions opt;
  opt.k = 10;
  opt.l = 4;
  auto r = BfsStableFinder(opt).Find(graph);
  ASSERT_TRUE(r.ok());
  for (const StablePath& p : r.value().paths) {
    EXPECT_EQ(p.length, 4u);
    for (size_t i = 1; i < p.nodes.size(); ++i) {
      const uint32_t span = graph.Interval(p.nodes[i]) -
                            graph.Interval(p.nodes[i - 1]);
      EXPECT_GE(span, 1u);
      EXPECT_LE(span, 3u);  // g + 1.
    }
  }
}

}  // namespace
}  // namespace stabletext
