// Extension variants from Section 4's discussion: diversified top-k
// (prefix/suffix dedup) and the paper-literal normalized algorithm; plus
// the query validation every registered finder shares.

#include <gtest/gtest.h>

#include <limits>

#include "stable/brute_force_finder.h"
#include "stable/diversify.h"
#include "stable/finder.h"
#include "stable/normalized_literal_finder.h"
#include "test_helpers.h"

namespace stabletext {
namespace {

StablePath P(std::vector<NodeId> nodes, double weight, uint32_t length) {
  StablePath p;
  p.nodes = std::move(nodes);
  p.weight = weight;
  p.length = length;
  return p;
}

TEST(DiversifyTest, ConflictDetection) {
  DiversifyOptions opt;
  opt.prefix_nodes = 2;
  opt.suffix_nodes = 2;
  // Shared first edge.
  EXPECT_TRUE(
      PathsConflict(P({1, 2, 3}, 1, 2), P({1, 2, 9}, 1, 2), opt));
  // Shared last edge.
  EXPECT_TRUE(
      PathsConflict(P({7, 2, 3}, 1, 2), P({9, 2, 3}, 1, 2), opt));
  // Disjoint affixes.
  EXPECT_FALSE(
      PathsConflict(P({1, 2, 3}, 1, 2), P({4, 2, 9}, 1, 2), opt));
  // Constraints disabled.
  DiversifyOptions off;
  off.prefix_nodes = 0;
  off.suffix_nodes = 0;
  EXPECT_FALSE(
      PathsConflict(P({1, 2, 3}, 1, 2), P({1, 2, 3}, 1, 2), off));
}

TEST(DiversifyTest, GreedySelectionSkipsConflicts) {
  DiversifyOptions opt;
  opt.prefix_nodes = 2;
  opt.suffix_nodes = 0;
  std::vector<StablePath> ranked = {
      P({1, 2, 3}, 0.9, 2),  // Kept.
      P({1, 2, 4}, 0.8, 2),  // Same prefix (1,2): skipped.
      P({5, 2, 4}, 0.7, 2),  // Kept.
      P({5, 2, 9}, 0.6, 2),  // Same prefix (5,2): skipped.
      P({6, 2, 9}, 0.5, 2),  // Kept.
  };
  auto out = DiversifyPaths(ranked, 3, opt);
  ASSERT_EQ(out.size(), 3u);
  EXPECT_EQ(out[0].nodes, (std::vector<NodeId>{1, 2, 3}));
  EXPECT_EQ(out[1].nodes, (std::vector<NodeId>{5, 2, 4}));
  EXPECT_EQ(out[2].nodes, (std::vector<NodeId>{6, 2, 9}));
}

TEST(DiversifyTest, EndToEndResultsAreConflictFreeAndRanked) {
  ClusterGraph graph = MakeRandomGraph(6, 10, 3, 1, 77);
  FinderQuery query;
  query.algorithm = FinderAlgorithm::kBfs;
  query.k = 5;
  query.l = 3;
  query.diversify_prefix = 2;
  query.diversify_suffix = 2;
  auto result = RunFinder(graph, query);
  ASSERT_TRUE(result.ok());
  DiversifyOptions dopt;
  dopt.prefix_nodes = 2;
  dopt.suffix_nodes = 2;
  const auto& paths = result.value().paths;
  EXPECT_LE(paths.size(), 5u);
  for (size_t i = 0; i < paths.size(); ++i) {
    for (size_t j = i + 1; j < paths.size(); ++j) {
      EXPECT_FALSE(PathsConflict(paths[i], paths[j], dopt));
    }
    if (i > 0) {
      EXPECT_GE(paths[i - 1].weight, paths[i].weight);
    }
    EXPECT_EQ(paths[i].length, 3u);
  }
  // The best diversified path is the overall best path.
  const auto best = BruteForceFinder::TopKByWeight(graph, 1, 3);
  ASSERT_FALSE(best.empty());
  ASSERT_FALSE(paths.empty());
  EXPECT_EQ(paths[0].nodes, best[0].nodes);
}

TEST(DiversifyTest, CandidateCountOverflowIsInvalidArgument) {
  // k * diversify_candidates must not wrap: a wrapped pool of 0 would
  // answer OK with no paths.
  ClusterGraph graph = MakeRandomGraph(4, 3, 2, 0, 5);
  FinderQuery query;
  query.k = std::numeric_limits<size_t>::max() / 2 + 1;
  query.diversify_candidates = 2;
  query.diversify_prefix = 1;
  auto result = RunFinder(graph, query);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(FinderRegistryTest, EveryFinderAcceptsTheSamePathLengths) {
  // kl-stable accepts l = 0 (full paths) and 1..m-1; normalized, whose l
  // is lmin, accepts 1..m-1. Every finder that supports a mode agrees on
  // OK vs InvalidArgument; TA answers full paths only and reports other
  // lengths as NotSupported.
  const uint32_t m = 5;
  ClusterGraph graph = MakeRandomGraph(m, 3, 2, 0, 7);
  for (FinderMode mode : {FinderMode::kKlStable, FinderMode::kNormalized}) {
    const bool normalized = mode == FinderMode::kNormalized;
    for (uint32_t l : {0u, 1u, m - 1, m}) {
      const bool valid = (l >= 1 && l <= m - 1) || (l == 0 && !normalized);
      for (const FinderInfo& info : FinderRegistry()) {
        if (!(normalized ? info.supports_normalized
                         : info.supports_kl_stable)) {
          continue;
        }
        SCOPED_TRACE(std::string(info.name) + " " + FinderModeName(mode) +
                     " l=" + std::to_string(l));
        FinderQuery query;
        query.algorithm = info.algorithm;
        query.mode = mode;
        query.k = 3;
        query.l = l;
        auto result = RunFinder(graph, query);
        if (info.algorithm == FinderAlgorithm::kTa && l != 0 && l != m - 1) {
          EXPECT_EQ(result.status().code(), StatusCode::kNotSupported);
        } else if (valid) {
          EXPECT_TRUE(result.ok()) << result.status().ToString();
        } else {
          EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
        }
      }
    }
  }
}

TEST(NormalizedLiteralTest, TopOneMatchesOracle) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    for (uint32_t lmin : {1u, 2u, 3u}) {
      ClusterGraph graph = MakeRandomGraph(5, 4, 2, 0, seed * 23 + 1);
      NormalizedFinderOptions opt;
      opt.k = 1;
      opt.lmin = lmin;
      auto literal = NormalizedLiteralFinder(opt).Find(graph);
      ASSERT_TRUE(literal.ok());
      const auto expected =
          BruteForceFinder::TopKByStability(graph, 1, lmin);
      ASSERT_EQ(literal.value().paths.empty(), expected.empty())
          << "seed " << seed << " lmin " << lmin;
      if (!expected.empty()) {
        // Theorem-1 substitution may return a dominating suffix with
        // identical stability; the stability value itself is exact.
        EXPECT_DOUBLE_EQ(literal.value().paths[0].stability(),
                         expected[0].stability())
            << "seed " << seed << " lmin " << lmin;
      }
    }
  }
}

TEST(NormalizedLiteralTest, AllReturnedPathsAreValidAndLongEnough) {
  ClusterGraph graph = MakeRandomGraph(6, 5, 2, 1, 3);
  NormalizedFinderOptions opt;
  opt.k = 5;
  opt.lmin = 2;
  auto result = NormalizedLiteralFinder(opt).Find(graph);
  ASSERT_TRUE(result.ok());
  for (const StablePath& p : result.value().paths) {
    EXPECT_GE(p.length, 2u);
    // Verify edges exist and the weight adds up.
    double weight = 0;
    for (size_t i = 1; i < p.nodes.size(); ++i) {
      bool found = false;
      for (const ClusterGraphEdge& e : graph.Children(p.nodes[i - 1])) {
        if (e.target == p.nodes[i]) {
          weight += e.weight;
          found = true;
          break;
        }
      }
      ASSERT_TRUE(found) << "phantom edge in returned path";
    }
    EXPECT_DOUBLE_EQ(weight, p.weight);
  }
}

TEST(NormalizedLiteralTest, CostGrowsWithLmin) {
  // The paper's Figure 14 driver: smallpaths keep ALL paths of length
  // < lmin, so work grows with lmin (contrast with the exact finder,
  // whose per-length heaps make it lmin-insensitive).
  ClusterGraph graph = MakeRandomGraph(8, 30, 3, 0, 9);
  uint64_t prev = 0;
  for (uint32_t lmin : {2u, 4u, 6u}) {
    NormalizedFinderOptions opt;
    opt.k = 5;
    opt.lmin = lmin;
    auto result = NormalizedLiteralFinder(opt).Find(graph);
    ASSERT_TRUE(result.ok());
    EXPECT_GE(result.value().heap_offers, prev) << "lmin " << lmin;
    prev = result.value().heap_offers;
  }
}

}  // namespace
}  // namespace stabletext
