// Section 4.5 (normalized stable clusters): exact equality with the
// stability oracle for both the BFS and DFS variants, Theorem 1 itself as a
// property test, and the pruning option's top-1 guarantee. Normalized BFS
// is the interval sweep of Algorithm 2 in normalized mode, so it also
// honours the memory budget and keeps only the g+1-interval window.

#include <gtest/gtest.h>

#include <tuple>

#include "stable/bfs_finder.h"
#include "stable/brute_force_finder.h"
#include "stable/finder.h"
#include "stable/normalized.h"
#include "test_helpers.h"

namespace stabletext {
namespace {

// A normalized query (top-k by stability, length >= lmin) through the
// registry.
Result<StableFinderResult> Normalized(
    const ClusterGraph& graph, size_t k, uint32_t lmin,
    bool theorem1_pruning = false,
    FinderAlgorithm algorithm = FinderAlgorithm::kBfs,
    size_t memory_budget_bytes = MemoryTracker::kUnlimited) {
  FinderQuery query;
  query.algorithm = algorithm;
  query.mode = FinderMode::kNormalized;
  query.k = k;
  query.l = lmin;
  query.theorem1_pruning = theorem1_pruning;
  query.memory_budget_bytes = memory_budget_bytes;
  return RunFinder(graph, query);
}

TEST(NormalizedBfsTest, RanksByStabilityNotWeight) {
  // Two-hop path of weight 1.0 (stability 0.5) vs one-hop edge of weight
  // 0.9 (stability 0.9): with lmin = 1, the single edge must win.
  ClusterGraph g(3, 0);
  const NodeId a = g.AddNode(0);
  const NodeId b = g.AddNode(1);
  const NodeId c = g.AddNode(2);
  ASSERT_TRUE(g.AddEdge(a, b, 0.5).ok());
  ASSERT_TRUE(g.AddEdge(b, c, 0.5).ok());
  ClusterGraph g2(2, 0);
  (void)g2;
  const NodeId d = g.AddNode(1);
  ASSERT_TRUE(g.AddEdge(a, d, 0.9).ok());
  g.SortChildren();

  auto result = Normalized(g, /*k=*/2, /*lmin=*/1);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.value().paths.size(), 2u);
  EXPECT_EQ(result.value().paths[0].nodes, (std::vector<NodeId>{a, d}));
  EXPECT_DOUBLE_EQ(result.value().paths[0].stability(), 0.9);
  EXPECT_DOUBLE_EQ(result.value().paths[1].stability(), 0.5);
}

TEST(NormalizedBfsTest, LminFiltersShortPaths) {
  ClusterGraph g = MakeRandomGraph(5, 4, 2, 0, 3);
  auto result = Normalized(g, /*k=*/20, /*lmin=*/3);
  ASSERT_TRUE(result.ok());
  for (const StablePath& p : result.value().paths) {
    EXPECT_GE(p.length, 3u);
  }
}

class NormalizedSweepTest
    : public ::testing::TestWithParam<
          std::tuple<uint32_t, uint32_t, uint32_t, uint32_t, size_t,
                     uint32_t>> {};

TEST_P(NormalizedSweepTest, BothVariantsMatchBruteForce) {
  const auto [m, n, d, g, k, lmin] = GetParam();
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    ClusterGraph graph = MakeRandomGraph(m, n, d, g, seed * 61 + 11);
    auto bfs = Normalized(graph, k, lmin);
    auto dfs = Normalized(graph, k, lmin, false, FinderAlgorithm::kDfs);
    ASSERT_TRUE(bfs.ok());
    ASSERT_TRUE(dfs.ok());
    const auto expected = BruteForceFinder::TopKByStability(graph, k, lmin);
    ASSERT_EQ(bfs.value().paths.size(), expected.size())
        << "m=" << m << " n=" << n << " seed=" << seed;
    for (size_t i = 0; i < expected.size(); ++i) {
      ASSERT_EQ(bfs.value().paths[i].nodes, expected[i].nodes)
          << "bfs rank " << i << " seed " << seed;
      ASSERT_EQ(dfs.value().paths[i].nodes, expected[i].nodes)
          << "dfs rank " << i << " seed " << seed;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, NormalizedSweepTest,
    ::testing::Values(
        std::make_tuple(3u, 4u, 2u, 0u, size_t{1}, 1u),
        std::make_tuple(3u, 4u, 2u, 0u, size_t{5}, 2u),
        std::make_tuple(4u, 4u, 2u, 0u, size_t{3}, 2u),
        std::make_tuple(4u, 4u, 2u, 1u, size_t{3}, 2u),
        std::make_tuple(5u, 3u, 2u, 0u, size_t{4}, 3u),
        std::make_tuple(5u, 3u, 2u, 2u, size_t{4}, 2u),
        std::make_tuple(6u, 3u, 1u, 0u, size_t{6}, 4u),
        std::make_tuple(6u, 2u, 2u, 1u, size_t{3}, 1u),
        // g = 3 over m = 8: the window evicts heaps mid-sweep.
        std::make_tuple(8u, 3u, 2u, 3u, size_t{4}, 2u),
        std::make_tuple(8u, 3u, 2u, 3u, size_t{3}, 5u)),
    [](const auto& info) {
      const auto& p = info.param;
      return "m" + std::to_string(std::get<0>(p)) + "n" +
             std::to_string(std::get<1>(p)) + "d" +
             std::to_string(std::get<2>(p)) + "g" +
             std::to_string(std::get<3>(p)) + "k" +
             std::to_string(std::get<4>(p)) + "lmin" +
             std::to_string(std::get<5>(p));
    });

// Theorem 1 as a property. The paper's statement is conditional: when
// stability(pre) <= stability(curr), then IF appending a suffix improves
// the combined path (stability(p+c) <= stability(p+c+s)), the reduced path
// dominates (stability(p+c+s) <= stability(c+s)). Equivalently, p+c+s is
// always dominated by p+c (already generated and ranked) or by c+s: the
// extension of a reducible path can be skipped without losing the top-1.
TEST(Theorem1Test, StatementHoldsOnRandomSplits) {
  Rng rng(17);
  for (int trial = 0; trial < 5000; ++trial) {
    const double wp = rng.NextWeight() * 3;
    const double wc = rng.NextWeight() * 3;
    const double ws = rng.NextWeight() * 3;
    const double np = 1 + rng.Uniform(5);
    const double nc = 1 + rng.Uniform(5);
    const double ns = 1 + rng.Uniform(5);
    if (wp / np > wc / nc) continue;  // Not reducible.
    const double pc = (wp + wc) / (np + nc);
    const double pcs = (wp + wc + ws) / (np + nc + ns);
    const double cs = (wc + ws) / (nc + ns);
    // Conditional form, exactly as proved in the paper.
    if (pc <= pcs) {
      EXPECT_LE(pcs, cs + 1e-12);
    }
    // Dominator form used by the pruning implementation.
    EXPECT_LE(pcs, std::max(pc, cs) + 1e-12);
  }
}

TEST(Theorem1Test, ReducibleDetection) {
  // Path a-b-c where the prefix edge (0.1) is weaker than the remaining
  // tail (0.9): reducible for lmin = 1; not reducible for lmin = 2
  // (the tail would be too short).
  ClusterGraph g(3, 0);
  const NodeId a = g.AddNode(0);
  const NodeId b = g.AddNode(1);
  const NodeId c = g.AddNode(2);
  ASSERT_TRUE(g.AddEdge(a, b, 0.1).ok());
  ASSERT_TRUE(g.AddEdge(b, c, 0.9).ok());
  g.SortChildren();
  StablePath p;
  p.nodes = {a, b, c};
  p.weight = 1.0;
  p.length = 2;
  EXPECT_TRUE(Theorem1Reducible(p, g, 1));
  EXPECT_FALSE(Theorem1Reducible(p, g, 2));
  double prefix_weight = 0;
  EXPECT_EQ(Theorem1Split(p, g, 1, &prefix_weight), 1u);
  EXPECT_DOUBLE_EQ(prefix_weight, 0.1);

  // Strong prefix, weak tail: not reducible.
  ClusterGraph h(3, 0);
  const NodeId x = h.AddNode(0);
  const NodeId y = h.AddNode(1);
  const NodeId z = h.AddNode(2);
  ASSERT_TRUE(h.AddEdge(x, y, 0.9).ok());
  ASSERT_TRUE(h.AddEdge(y, z, 0.1).ok());
  h.SortChildren();
  StablePath q;
  q.nodes = {x, y, z};
  q.weight = 1.0;
  q.length = 2;
  EXPECT_FALSE(Theorem1Reducible(q, h, 1));
  // Mirrored (paths grown by prepending): the weak part is cut from the
  // right end, so q reduces to x-y and p does not.
  EXPECT_TRUE(Theorem1Reducible(q, h, 1, Theorem1Cut::kSuffix));
  EXPECT_FALSE(Theorem1Reducible(q, h, 2, Theorem1Cut::kSuffix));
  EXPECT_FALSE(Theorem1Reducible(p, g, 1, Theorem1Cut::kSuffix));
  double suffix_weight = 0;
  EXPECT_EQ(Theorem1Split(q, h, 1, &suffix_weight, Theorem1Cut::kSuffix),
            1u);
  EXPECT_DOUBLE_EQ(suffix_weight, 0.1);
}

TEST(NormalizedBfsTest, Theorem1PruningPreservesTopOne) {
  for (uint64_t seed = 1; seed <= 10; ++seed) {
    ClusterGraph graph = MakeRandomGraph(5, 4, 2, 0, seed * 19 + 3);
    auto a = Normalized(graph, /*k=*/1, /*lmin=*/2);
    auto b = Normalized(graph, /*k=*/1, /*lmin=*/2, /*theorem1_pruning=*/true);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    ASSERT_EQ(a.value().paths.empty(), b.value().paths.empty());
    if (!a.value().paths.empty()) {
      EXPECT_EQ(a.value().paths[0].nodes, b.value().paths[0].nodes)
          << "seed " << seed;
    }
  }
}

TEST(NormalizedDfsTest, Theorem1PruningKeepsTopOneExact) {
  // The DFS grows paths by prepending, so Theorem 1 must cut from the
  // right end. A prefix cut drops left-extensions the theorem does not
  // cover: on MakeRandomGraph(8, 3, 2, 3, 499) with lmin = 3 it returned
  // nodes 4 6 11 12 (stability 0.8405) instead of 4 6 11 12 15 20
  // (0.8455).
  struct Case {
    uint32_t m, n, d, g, lmin;
    uint64_t seed;
  };
  std::vector<Case> cases = {{8, 3, 2, 3, 3, 499}};
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    for (uint32_t g = 0; g <= 3; ++g) {
      cases.push_back({6, 4, 2, g, 1 + static_cast<uint32_t>(seed % 4),
                       seed * 37 + g});
    }
  }
  for (const Case& c : cases) {
    ClusterGraph graph = MakeRandomGraph(c.m, c.n, c.d, c.g, c.seed);
    auto dfs = Normalized(graph, /*k=*/1, c.lmin, /*theorem1_pruning=*/true,
                          FinderAlgorithm::kDfs);
    ASSERT_TRUE(dfs.ok());
    const auto expected = BruteForceFinder::TopKByStability(graph, 1, c.lmin);
    ASSERT_EQ(dfs.value().paths.size(), expected.size())
        << "seed " << c.seed << " g " << c.g;
    if (!expected.empty()) {
      EXPECT_EQ(dfs.value().paths[0].nodes, expected[0].nodes)
          << "seed " << c.seed << " g " << c.g << " lmin " << c.lmin;
    }
  }
}

TEST(NormalizedBfsTest, Theorem1PruningReducesOffers) {
  ClusterGraph graph = MakeRandomGraph(8, 10, 3, 0, 44);
  auto a = Normalized(graph, /*k=*/3, /*lmin=*/2);
  auto b = Normalized(graph, /*k=*/3, /*lmin=*/2, /*theorem1_pruning=*/true);
  ASSERT_TRUE(a.ok());
  ASSERT_TRUE(b.ok());
  EXPECT_LT(b.value().heap_offers, a.value().heap_offers);
}

TEST(NormalizedBfsTest, RejectsBadLmin) {
  ClusterGraph graph = MakeRandomGraph(4, 4, 2, 0, 1);
  EXPECT_FALSE(Normalized(graph, 5, /*lmin=*/9).ok());
  EXPECT_FALSE(
      Normalized(graph, 5, /*lmin=*/9, false, FinderAlgorithm::kDfs).ok());
  // l = 0 means full paths only in kl-stable mode; lmin = 0 is rejected.
  EXPECT_FALSE(Normalized(graph, 5, /*lmin=*/0).ok());
}

TEST(NormalizedBfsTest, MemoryBudgetKeepsAnswerAndAddsPasses) {
  // Under a budget smaller than the window, the sweep runs Section 4.2's
  // block-nested-loop passes; the answer must not change.
  ClusterGraph graph = MakeRandomGraph(8, 6, 3, 1, 29);
  for (bool pruning : {false, true}) {
    auto unlimited = Normalized(graph, 4, 2, pruning);
    auto tiny = Normalized(graph, 4, 2, pruning, FinderAlgorithm::kBfs,
                           /*memory_budget_bytes=*/512);
    ASSERT_TRUE(unlimited.ok());
    ASSERT_TRUE(tiny.ok());
    EXPECT_EQ(unlimited.value().passes, 1u);
    EXPECT_GT(tiny.value().passes, 1u);
    EXPECT_GT(tiny.value().io.page_reads, unlimited.value().io.page_reads);
    ASSERT_FALSE(unlimited.value().paths.empty());
    ASSERT_EQ(tiny.value().paths.size(), unlimited.value().paths.size());
    for (size_t r = 0; r < unlimited.value().paths.size(); ++r) {
      EXPECT_EQ(tiny.value().paths[r].nodes,
                unlimited.value().paths[r].nodes)
          << "rank " << r;
    }
  }
}

TEST(NormalizedBfsTest, SweepHoldsOnlyTheWindow) {
  // Heaps for every path length, but only for the last g+1 intervals:
  // over a long stream the sweep never holds older nodes' annotations.
  const uint32_t m = 40, n = 6, g = 2;
  ClusterGraph graph = MakeRandomGraph(m, n, 3, g, 31);
  IntervalSweep sweep = IntervalSweep::Normalized(3, 4, false);
  for (uint32_t i = 0; i < m; ++i) {
    ASSERT_TRUE(sweep.Advance(graph, i).ok());
    size_t window_nodes = 0;
    for (uint32_t iv = i >= g ? i - g : 0; iv <= i; ++iv) {
      window_nodes += graph.IntervalNodes(iv).size();
    }
    EXPECT_EQ(sweep.WindowAnnotationBytes().size(), window_nodes)
        << "after interval " << i;
  }
  auto batch = Normalized(graph, 3, 4);
  ASSERT_TRUE(batch.ok());
  ASSERT_FALSE(sweep.TopK().empty());
  ASSERT_EQ(sweep.TopK().size(), batch.value().paths.size());
  for (size_t r = 0; r < sweep.TopK().size(); ++r) {
    EXPECT_EQ(sweep.TopK()[r].nodes, batch.value().paths[r].nodes);
  }
}

}  // namespace
}  // namespace stabletext
