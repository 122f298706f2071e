// Algorithm 1: biconnected components and articulation points, validated on
// the paper's Figure 3 example, hand graphs, and randomized cross-checks of
// three independent implementations (BCC-based, direct DFS, brute force).

#include <gtest/gtest.h>

#include <algorithm>
#include <set>
#include <tuple>

#include "cluster/articulation.h"
#include "cluster/cluster_extractor.h"
#include "util/random.h"

namespace stabletext {
namespace {

using EdgeSet = std::set<std::pair<KeywordId, KeywordId>>;

KeywordGraph FromPairs(size_t n,
                       const std::vector<std::pair<int, int>>& pairs) {
  std::vector<WeightedEdge> edges;
  for (auto [u, v] : pairs) {
    edges.push_back(WeightedEdge{static_cast<KeywordId>(u),
                                 static_cast<KeywordId>(v), 1.0});
  }
  return KeywordGraph::FromEdges(n, edges);
}

std::vector<EdgeSet> Components(const KeywordGraph& g,
                                BiconnectedStats* stats = nullptr,
                                BiconnectedOptions options = {}) {
  BiconnectedFinder finder(options);
  std::vector<EdgeSet> out;
  EXPECT_TRUE(finder
                  .Run(g,
                       [&](const std::vector<WeightedEdge>& edges) {
                         EdgeSet set;
                         for (const WeightedEdge& e : edges) {
                           set.insert({std::min(e.u, e.v),
                                       std::max(e.u, e.v)});
                         }
                         EXPECT_EQ(set.size(), edges.size())
                             << "duplicate edge in component";
                         out.push_back(std::move(set));
                       },
                       stats)
                  .ok());
  return out;
}

// The Figure 3 example: triangle a-b-c, bridge b-d, triangle d-e-f.
// Expected: three biconnected components; articulation points b and d.
TEST(BiconnectedTest, PaperFigure3Example) {
  enum { a, b, c, d, e, f };
  KeywordGraph g = FromPairs(
      6, {{a, b}, {b, c}, {c, a}, {b, d}, {d, e}, {e, f}, {f, d}});
  BiconnectedStats stats;
  auto components = Components(g, &stats);
  ASSERT_EQ(components.size(), 3u);
  std::sort(components.begin(), components.end());
  EXPECT_TRUE(std::count(components.begin(), components.end(),
                         EdgeSet{{a, b}, {b, c}, {a, c}}) == 1);
  EXPECT_TRUE(std::count(components.begin(), components.end(),
                         EdgeSet{{b, d}}) == 1);
  EXPECT_TRUE(std::count(components.begin(), components.end(),
                         EdgeSet{{d, e}, {e, f}, {d, f}}) == 1);
  EXPECT_EQ(stats.articulation_points, 2u);

  BiconnectedFinder finder;
  auto arts = finder.ArticulationPoints(g);
  ASSERT_TRUE(arts.ok());
  EXPECT_EQ(arts.value(), (std::vector<KeywordId>{b, d}));
  EXPECT_EQ(FindArticulationPoints(g), (std::vector<KeywordId>{b, d}));
  EXPECT_EQ(FindArticulationPointsBruteForce(g),
            (std::vector<KeywordId>{b, d}));
}

TEST(BiconnectedTest, SingleEdgeIsOneComponent) {
  KeywordGraph g = FromPairs(2, {{0, 1}});
  auto components = Components(g);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0], (EdgeSet{{0, 1}}));
  EXPECT_TRUE(FindArticulationPoints(g).empty());
}

TEST(BiconnectedTest, CycleIsBiconnected) {
  KeywordGraph g = FromPairs(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 0}});
  auto components = Components(g);
  ASSERT_EQ(components.size(), 1u);
  EXPECT_EQ(components[0].size(), 5u);
  EXPECT_TRUE(FindArticulationPoints(g).empty());
}

TEST(BiconnectedTest, PathDecomposesIntoEdges) {
  KeywordGraph g = FromPairs(4, {{0, 1}, {1, 2}, {2, 3}});
  auto components = Components(g);
  EXPECT_EQ(components.size(), 3u);
  EXPECT_EQ(FindArticulationPoints(g), (std::vector<KeywordId>{1, 2}));
}

TEST(BiconnectedTest, EmptyAndIsolatedVertices) {
  KeywordGraph g = FromPairs(10, {{7, 8}});
  BiconnectedStats stats;
  auto components = Components(g, &stats);
  EXPECT_EQ(components.size(), 1u);
  KeywordGraph empty = FromPairs(3, {});
  EXPECT_TRUE(Components(empty).empty());
}

TEST(BiconnectedTest, DisconnectedGraphHandlesAllPieces) {
  KeywordGraph g =
      FromPairs(7, {{0, 1}, {1, 2}, {0, 2}, {3, 4}, {5, 6}});
  auto components = Components(g);
  EXPECT_EQ(components.size(), 3u);
}

TEST(BiconnectedTest, EveryEdgeInExactlyOneComponent) {
  Rng rng(5);
  for (int trial = 0; trial < 30; ++trial) {
    const size_t n = 2 + rng.Uniform(40);
    std::vector<WeightedEdge> edges;
    for (KeywordId u = 0; u < n; ++u) {
      for (KeywordId v = u + 1; v < n; ++v) {
        if (rng.NextBool(0.12)) edges.push_back(WeightedEdge{u, v, 1.0});
      }
    }
    KeywordGraph g = KeywordGraph::FromEdges(n, edges);
    EdgeSet all;
    size_t total = 0;
    for (const auto& comp : Components(g)) {
      total += comp.size();
      for (const auto& e : comp) {
        EXPECT_TRUE(all.insert(e).second) << "edge in two components";
      }
    }
    EXPECT_EQ(total, edges.size());
  }
}

class ArticulationRandomTest
    : public ::testing::TestWithParam<std::tuple<size_t, double>> {};

TEST_P(ArticulationRandomTest, ThreeImplementationsAgree) {
  const auto [n, p] = GetParam();
  Rng rng(n * 1000 + static_cast<uint64_t>(p * 100));
  for (int trial = 0; trial < 20; ++trial) {
    std::vector<WeightedEdge> edges;
    for (KeywordId u = 0; u < n; ++u) {
      for (KeywordId v = u + 1; v < n; ++v) {
        if (rng.NextBool(p)) edges.push_back(WeightedEdge{u, v, 1.0});
      }
    }
    KeywordGraph g = KeywordGraph::FromEdges(n, edges);
    const auto brute = FindArticulationPointsBruteForce(g);
    const auto direct = FindArticulationPoints(g);
    BiconnectedFinder finder;
    auto via_bcc = finder.ArticulationPoints(g);
    ASSERT_TRUE(via_bcc.ok());
    ASSERT_EQ(direct, brute) << "n=" << n << " p=" << p;
    ASSERT_EQ(via_bcc.value(), brute) << "n=" << n << " p=" << p;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, ArticulationRandomTest,
    ::testing::Combine(::testing::Values<size_t>(5, 12, 30, 60),
                       ::testing::Values(0.05, 0.15, 0.4)),
    [](const auto& info) {
      return "n" + std::to_string(std::get<0>(info.param)) + "_p" +
             std::to_string(static_cast<int>(std::get<1>(info.param) *
                                             100));
    });

TEST(BiconnectedTest, SpillingStackGivesIdenticalComponents) {
  Rng rng(77);
  std::vector<WeightedEdge> edges;
  const size_t n = 60;
  for (KeywordId u = 0; u < n; ++u) {
    for (KeywordId v = u + 1; v < n; ++v) {
      if (rng.NextBool(0.3)) edges.push_back(WeightedEdge{u, v, 1.0});
    }
  }
  KeywordGraph g = KeywordGraph::FromEdges(n, edges);
  auto in_memory = Components(g);

  BiconnectedOptions tiny;
  tiny.stack_memory_entries = 32;
  tiny.stack_block_entries = 16;
  IoStats stats;
  tiny.io_stats = &stats;
  BiconnectedStats bstats;
  auto spilled = Components(g, &bstats, tiny);
  EXPECT_GT(bstats.spilled_entries, 0u);
  EXPECT_GT(stats.page_writes, 0u);
  std::sort(in_memory.begin(), in_memory.end());
  std::sort(spilled.begin(), spilled.end());
  EXPECT_EQ(in_memory, spilled);
}

TEST(ClusterTest, NormalizeAndAccessors) {
  Cluster c;
  c.edges = {{3, 1, 0.5}, {2, 1, 0.25}};
  c.keywords = {3, 1, 2, 1};
  NormalizeCluster(&c);
  EXPECT_EQ(c.keywords, (KeywordArray{1, 2, 3}));
  EXPECT_EQ(c.edges[0].u, 1u);  // Canonical orientation and order.
  EXPECT_EQ(c.edges[0].v, 2u);
  EXPECT_EQ(c.edges[1].v, 3u);
  EXPECT_TRUE(c.Contains(2));
  EXPECT_FALSE(c.Contains(4));
  EXPECT_DOUBLE_EQ(c.TotalEdgeWeight(), 0.75);
}

TEST(ClusterTest, ToStringUsesDictionary) {
  KeywordDict dict;
  dict.Intern("apple");
  dict.Intern("iphone");
  Cluster c;
  c.keywords = {0, 1};
  EXPECT_EQ(c.ToString(dict), "{apple, iphone}");
  EXPECT_EQ(c.ToString(dict, 1), "{apple, ...}");
}

TEST(ClusterExtractorTest, BiconnectedModeMatchesFinder) {
  enum { a, b, c, d, e, f };
  KeywordGraph g = FromPairs(
      6, {{a, b}, {b, c}, {c, a}, {b, d}, {d, e}, {e, f}, {f, d}});
  ClusterExtractor extractor;
  auto clusters = extractor.Extract(g, 9);
  ASSERT_TRUE(clusters.ok());
  EXPECT_EQ(clusters.value().size(), 3u);
  for (const Cluster& cl : clusters.value()) {
    EXPECT_GE(cl.keywords.size(), 2u);
  }
}

TEST(ClusterExtractorTest, ConnectedComponentMode) {
  KeywordGraph g = FromPairs(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}});
  ClusterExtractorOptions opt;
  opt.mode = ClusterMode::kConnectedComponent;
  ClusterExtractor extractor(opt);
  auto clusters = extractor.Extract(g, 0);
  ASSERT_TRUE(clusters.ok());
  ASSERT_EQ(clusters.value().size(), 3u);
  // The 0-1-2 path is a single connected cluster with both edges.
  size_t sizes[3];
  for (int i = 0; i < 3; ++i) {
    sizes[i] = clusters.value()[i].keywords.size();
  }
  std::sort(sizes, sizes + 3);
  EXPECT_EQ(sizes[0], 2u);
  EXPECT_EQ(sizes[1], 2u);
  EXPECT_EQ(sizes[2], 3u);
}

TEST(ClusterExtractorTest, MinKeywordsFilter) {
  enum { a, b, c, d, e, f };
  KeywordGraph g = FromPairs(
      6, {{a, b}, {b, c}, {c, a}, {b, d}, {d, e}, {e, f}, {f, d}});
  ClusterExtractorOptions opt;
  opt.min_keywords = 3;
  ClusterExtractor extractor(opt);
  auto clusters = extractor.Extract(g, 0);
  ASSERT_TRUE(clusters.ok());
  EXPECT_EQ(clusters.value().size(), 2u);  // The bridge {b, d} is dropped.
}

TEST(ArticulationTest, CountConnectedComponents) {
  KeywordGraph g = FromPairs(7, {{0, 1}, {1, 2}, {3, 4}, {5, 6}});
  EXPECT_EQ(CountConnectedComponents(g), 3u);
  EXPECT_EQ(CountConnectedComponents(g, 1), 4u);  // 0, 2, {3,4}, {5,6}.
  EXPECT_EQ(CountConnectedComponents(g, 3), 3u);  // 4 remains alone.
}

}  // namespace
}  // namespace stabletext
