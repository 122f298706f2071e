// Algorithm 3 (DFS finder): the paper's Table 2 worked example, exact
// equality with the brute-force oracle and with the BFS finder across
// randomized sweeps, pruning and children-order ablations.

#include <gtest/gtest.h>

#include <tuple>

#include "stable/bfs_finder.h"
#include "stable/brute_force_finder.h"
#include "stable/dfs_finder.h"
#include "test_helpers.h"

namespace stabletext {
namespace {

TEST(DfsFinderTest, PaperTable2WorkedExample) {
  // Section 4.3's execution over Figure 5 with k = 1, l = 2 ends with
  // H = {c13c22c33} (weight 1.7), and pruning fires at least once (c22).
  ClusterGraph g = MakePaperFigure5Graph();
  DfsFinderOptions opt;
  opt.k = 1;
  opt.l = 2;
  auto result = DfsStableFinder(opt).Find(g);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().paths.size(), 1u);
  EXPECT_EQ(result.value().paths[0].nodes, (std::vector<NodeId>{2, 4, 8}));
  EXPECT_NEAR(result.value().paths[0].weight, 1.7, 1e-12);
  EXPECT_GE(result.value().prunes, 1u);
}

TEST(DfsFinderTest, EmptyGraph) {
  ClusterGraph empty(0, 0);
  auto r = DfsStableFinder().Find(empty);
  ASSERT_TRUE(r.ok());
  EXPECT_TRUE(r.value().paths.empty());
}

class DfsSweepTest
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, size_t,
                     uint32_t, bool>> {};

TEST_P(DfsSweepTest, MatchesBruteForceExactly) {
  const auto [m, n, d, g, k, l, pruning] = GetParam();
  for (uint64_t seed = 1; seed <= 5; ++seed) {
    ClusterGraph graph = MakeRandomGraph(m, n, d, g, seed * 131 + 1);
    DfsFinderOptions opt;
    opt.k = k;
    opt.l = l;
    opt.enable_pruning = pruning;
    auto result = DfsStableFinder(opt).Find(graph);
    ASSERT_TRUE(result.ok());
    const auto expected = BruteForceFinder::TopKByWeight(graph, k, l);
    ASSERT_EQ(result.value().paths.size(), expected.size())
        << "m=" << m << " n=" << n << " d=" << d << " g=" << g
        << " k=" << k << " l=" << l << " pruning=" << pruning
        << " seed=" << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(result.value().paths[i].nodes, expected[i].nodes)
          << "rank " << i << " seed " << seed << " pruning=" << pruning;
      ASSERT_EQ(result.value().paths[i].weight, expected[i].weight);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, DfsSweepTest,
    ::testing::Values(
        std::make_tuple(3u, 4u, 2u, 0u, size_t{1}, 0u, true),
        std::make_tuple(3u, 4u, 2u, 0u, size_t{5}, 0u, true),
        std::make_tuple(4u, 4u, 2u, 0u, size_t{3}, 2u, true),
        std::make_tuple(4u, 4u, 2u, 0u, size_t{3}, 2u, false),
        std::make_tuple(4u, 5u, 2u, 1u, size_t{3}, 0u, true),
        std::make_tuple(4u, 5u, 2u, 1u, size_t{3}, 2u, true),
        std::make_tuple(5u, 3u, 2u, 2u, size_t{4}, 3u, true),
        std::make_tuple(5u, 3u, 2u, 2u, size_t{4}, 3u, false),
        std::make_tuple(5u, 4u, 3u, 0u, size_t{2}, 1u, true),
        std::make_tuple(6u, 3u, 2u, 1u, size_t{5}, 4u, true),
        std::make_tuple(6u, 3u, 1u, 0u, size_t{10}, 0u, true),
        std::make_tuple(7u, 2u, 2u, 2u, size_t{3}, 5u, true)),
    [](const auto& info) {
      const auto& p = info.param;
      return "m" + std::to_string(std::get<0>(p)) + "n" +
             std::to_string(std::get<1>(p)) + "d" +
             std::to_string(std::get<2>(p)) + "g" +
             std::to_string(std::get<3>(p)) + "k" +
             std::to_string(std::get<4>(p)) + "l" +
             std::to_string(std::get<5>(p)) +
             (std::get<6>(p) ? "_prune" : "_noprune");
    });

TEST(DfsFinderTest, AgreesWithBfsOnLargerRandomGraphs) {
  // Graphs too big for the brute-force oracle: cross-check the two
  // independent implementations against each other.
  for (uint64_t seed = 1; seed <= 3; ++seed) {
    ClusterGraph graph = MakeRandomGraph(8, 12, 3, 1, seed * 7);
    for (uint32_t l : {0u, 3u, 5u}) {
      BfsFinderOptions bopt;
      bopt.k = 5;
      bopt.l = l;
      DfsFinderOptions dopt;
      dopt.k = 5;
      dopt.l = l;
      auto bfs = BfsStableFinder(bopt).Find(graph);
      auto dfs = DfsStableFinder(dopt).Find(graph);
      ASSERT_TRUE(bfs.ok());
      ASSERT_TRUE(dfs.ok());
      ASSERT_EQ(bfs.value().paths.size(), dfs.value().paths.size())
          << "seed=" << seed << " l=" << l;
      for (size_t i = 0; i < bfs.value().paths.size(); ++i) {
        ASSERT_EQ(bfs.value().paths[i].nodes, dfs.value().paths[i].nodes)
            << "seed=" << seed << " l=" << l << " rank=" << i;
      }
    }
  }
}

TEST(DfsFinderTest, ChildrenOrderAblationKeepsAnswer) {
  ClusterGraph graph = MakeRandomGraph(6, 8, 2, 1, 99);
  DfsFinderOptions sorted;
  sorted.k = 5;
  sorted.l = 3;
  DfsFinderOptions unsorted = sorted;
  unsorted.sort_children_by_weight = false;
  auto a = DfsStableFinder(sorted).Find(graph);
  auto b = DfsStableFinder(unsorted).Find(graph);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  ASSERT_EQ(a.value().paths.size(), b.value().paths.size());
  for (size_t i = 0; i < a.value().paths.size(); ++i) {
    EXPECT_EQ(a.value().paths[i].nodes, b.value().paths[i].nodes);
  }
}

TEST(DfsFinderTest, ChildrenOrderAblationMatchesBruteForce) {
  // Children in target-id order (the only path that copies adjacency)
  // on g = 2 graphs, with and without CanPrune.
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ClusterGraph graph = MakeRandomGraph(6, 4, 3, 2, seed * 53 + 2);
    for (uint32_t l : {0u, 2u, 4u}) {
      for (bool pruning : {false, true}) {
        DfsFinderOptions opt;
        opt.k = 4;
        opt.l = l;
        opt.enable_pruning = pruning;
        opt.sort_children_by_weight = false;
        auto result = DfsStableFinder(opt).Find(graph);
        ASSERT_TRUE(result.ok());
        const auto expected = BruteForceFinder::TopKByWeight(graph, 4, l);
        ASSERT_EQ(result.value().paths.size(), expected.size())
            << "seed=" << seed << " l=" << l << " pruning=" << pruning;
        for (size_t i = 0; i < expected.size(); ++i) {
          ASSERT_EQ(result.value().paths[i].nodes, expected[i].nodes)
              << "seed=" << seed << " l=" << l << " rank=" << i;
          ASSERT_EQ(result.value().paths[i].weight, expected[i].weight);
        }
      }
    }
  }
}

TEST(DfsFinderTest, PruningFiresAndKeepsAnswer) {
  // CanPrune fires and the answer is unchanged. It does not cut work
  // here: each prune unmarks every stacked node, so their subtrees are
  // explored again (105 pushes without pruning, 126 with).
  ClusterGraph graph = MakeRandomGraph(7, 15, 4, 0, 5);
  DfsFinderOptions with;
  with.k = 1;
  with.l = 6;
  DfsFinderOptions without = with;
  without.enable_pruning = false;
  auto a = DfsStableFinder(with).Find(graph);
  auto b = DfsStableFinder(without).Find(graph);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_GT(a.value().prunes, 0u);
  EXPECT_EQ(b.value().prunes, 0u);
  // Same answer either way.
  ASSERT_EQ(a.value().paths.size(), b.value().paths.size());
  for (size_t i = 0; i < a.value().paths.size(); ++i) {
    EXPECT_EQ(a.value().paths[i].nodes, b.value().paths[i].nodes);
  }
}

TEST(DfsFinderTest, UsesRandomIoUnlikeBfs) {
  ClusterGraph graph = MakeRandomGraph(6, 20, 3, 0, 17);
  DfsFinderOptions dopt;
  dopt.k = 5;
  dopt.l = 5;
  BfsFinderOptions bopt;
  bopt.k = 5;
  bopt.l = 5;
  auto dfs = DfsStableFinder(dopt).Find(graph);
  auto bfs = BfsStableFinder(bopt).Find(graph);
  ASSERT_TRUE(dfs.ok());
  ASSERT_TRUE(bfs.ok());
  // The cost-model claims of Section 4.3 vs 4.2: DFS does random I/O
  // (every child consideration is a random read); BFS is sequential.
  EXPECT_GT(dfs.value().io.random_seeks, 0u);
  EXPECT_EQ(bfs.value().io.random_seeks, 0u);
  EXPECT_GT(dfs.value().io.page_reads, bfs.value().io.page_reads);
}

TEST(DfsFinderTest, MemoryFootprintBelowBfs) {
  // The paper's Section 5.2 memory note, in miniature: DFS annotations
  // live on disk, so resident state is the stack + H only.
  ClusterGraph graph = MakeRandomGraph(9, 40, 3, 0, 23);
  DfsFinderOptions dopt;
  dopt.k = 3;
  dopt.l = 6;
  BfsFinderOptions bopt;
  bopt.k = 3;
  bopt.l = 6;
  auto dfs = DfsStableFinder(dopt).Find(graph);
  auto bfs = BfsStableFinder(bopt).Find(graph);
  ASSERT_TRUE(dfs.ok());
  ASSERT_TRUE(bfs.ok());
  EXPECT_LT(dfs.value().peak_memory_bytes,
            bfs.value().peak_memory_bytes);
}

}  // namespace
}  // namespace stabletext
