// Affinity measures and the threshold similarity join (Section 4 / [11]):
// hand-computed values, metric properties, join == brute-force join across
// randomized cluster sets and thresholds.

#include <gtest/gtest.h>

#include <tuple>

#include "affinity/similarity_join.h"
#include "util/random.h"

namespace stabletext {
namespace {

Cluster MakeCluster(std::vector<KeywordId> keywords) {
  Cluster c;
  c.keywords.assign(keywords.begin(), keywords.end());
  std::sort(c.keywords.begin(), c.keywords.end());
  return c;
}

TEST(AffinityTest, IntersectionSize) {
  Cluster a = MakeCluster({1, 2, 3, 4});
  Cluster b = MakeCluster({3, 4, 5});
  EXPECT_EQ(KeywordIntersectionSize(a, b), 2u);
  EXPECT_EQ(KeywordIntersectionSize(a, a), 4u);
  EXPECT_EQ(KeywordIntersectionSize(a, MakeCluster({9})), 0u);
  EXPECT_EQ(KeywordIntersectionSize(a, MakeCluster({})), 0u);
}

TEST(AffinityTest, JaccardValues) {
  Cluster a = MakeCluster({1, 2, 3, 4});
  Cluster b = MakeCluster({3, 4, 5});
  // |∩| = 2, |∪| = 5.
  EXPECT_DOUBLE_EQ(ClusterAffinity(a, b, AffinityMeasure::kJaccard), 0.4);
  EXPECT_DOUBLE_EQ(ClusterAffinity(a, a, AffinityMeasure::kJaccard), 1.0);
  EXPECT_DOUBLE_EQ(
      ClusterAffinity(a, MakeCluster({7}), AffinityMeasure::kJaccard), 0.0);
}

TEST(AffinityTest, OverlapValues) {
  Cluster a = MakeCluster({1, 2, 3, 4});
  Cluster b = MakeCluster({3, 4, 5});
  // |∩| = 2, min size = 3.
  EXPECT_DOUBLE_EQ(ClusterAffinity(a, b, AffinityMeasure::kOverlap),
                   2.0 / 3.0);
  EXPECT_DOUBLE_EQ(ClusterAffinity(b, b, AffinityMeasure::kOverlap), 1.0);
}

TEST(AffinityTest, IntersectionMeasureIsRaw) {
  Cluster a = MakeCluster({1, 2, 3, 4});
  Cluster b = MakeCluster({3, 4, 5});
  EXPECT_DOUBLE_EQ(ClusterAffinity(a, b, AffinityMeasure::kIntersection),
                   2.0);
}

TEST(AffinityTest, WeightedJaccardValues) {
  Cluster a;
  a.keywords = {1, 2, 3};
  a.edges = {{1, 2, 0.8}, {2, 3, 0.4}};
  Cluster b;
  b.keywords = {1, 2, 4};
  b.edges = {{1, 2, 0.6}, {2, 4, 0.5}};
  // Shared edge (1,2): min 0.6, max 0.8; unmatched 0.4 + 0.5.
  const double expected = 0.6 / (0.8 + 0.4 + 0.5);
  EXPECT_DOUBLE_EQ(
      ClusterAffinity(a, b, AffinityMeasure::kWeightedJaccard), expected);
  EXPECT_DOUBLE_EQ(
      ClusterAffinity(a, a, AffinityMeasure::kWeightedJaccard), 1.0);
}

// Cluster sizes around 16 and 32 elements (±1): the dispatched
// intersection and every affinity derived from it must match a
// hand-maintained merge count.
TEST(AffinityTest, SizesAround16And32) {
  Rng rng(160032);
  for (size_t na : {15u, 16u, 17u, 31u, 32u, 33u}) {
    for (size_t nb : {15u, 16u, 17u, 31u, 32u, 33u}) {
      std::vector<KeywordId> ka, kb;
      for (size_t idx : rng.SampleWithoutReplacement(96, na)) {
        ka.push_back(static_cast<KeywordId>(idx));
      }
      for (size_t idx : rng.SampleWithoutReplacement(96, nb)) {
        kb.push_back(static_cast<KeywordId>(idx));
      }
      Cluster a = MakeCluster(ka), b = MakeCluster(kb);
      size_t expected = 0, i = 0, j = 0;
      while (i < a.keywords.size() && j < b.keywords.size()) {
        if (a.keywords[i] < b.keywords[j]) {
          ++i;
        } else if (b.keywords[j] < a.keywords[i]) {
          ++j;
        } else {
          ++expected, ++i, ++j;
        }
      }
      ASSERT_EQ(KeywordIntersectionSize(a, b), expected)
          << "na=" << na << " nb=" << nb;
      const auto inter = KeywordIntersection(a, b);
      ASSERT_EQ(inter.size(), expected);
      EXPECT_TRUE(std::is_sorted(inter.begin(), inter.end()));
      const double denom = static_cast<double>(
          a.keywords.size() + b.keywords.size() - expected);
      EXPECT_DOUBLE_EQ(ClusterAffinity(a, b, AffinityMeasure::kJaccard),
                       denom == 0 ? 0.0 : expected / denom);
    }
  }
}

TEST(AffinityTest, SymmetryAndRange) {
  Rng rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::vector<KeywordId> ka, kb;
    for (KeywordId v = 0; v < 20; ++v) {
      if (rng.NextBool(0.4)) ka.push_back(v);
      if (rng.NextBool(0.4)) kb.push_back(v);
    }
    if (ka.empty() || kb.empty()) continue;
    Cluster a = MakeCluster(ka), b = MakeCluster(kb);
    for (auto measure :
         {AffinityMeasure::kJaccard, AffinityMeasure::kOverlap,
          AffinityMeasure::kIntersection}) {
      const double ab = ClusterAffinity(a, b, measure);
      const double ba = ClusterAffinity(b, a, measure);
      ASSERT_DOUBLE_EQ(ab, ba);
      ASSERT_GE(ab, 0.0);
      if (measure != AffinityMeasure::kIntersection) {
        ASSERT_LE(ab, 1.0);
      }
    }
  }
}

TEST(AffinityTest, MeasureNames) {
  EXPECT_STREQ(AffinityMeasureName(AffinityMeasure::kJaccard), "jaccard");
  EXPECT_STREQ(AffinityMeasureName(AffinityMeasure::kIntersection),
               "intersection");
  EXPECT_STREQ(AffinityMeasureName(AffinityMeasure::kOverlap), "overlap");
  EXPECT_STREQ(AffinityMeasureName(AffinityMeasure::kWeightedJaccard),
               "weighted-jaccard");
}

std::vector<Cluster> RandomClusters(size_t count, size_t vocab,
                                    double density, Rng* rng) {
  std::vector<Cluster> out;
  for (size_t i = 0; i < count; ++i) {
    std::vector<KeywordId> kws;
    for (KeywordId v = 0; v < vocab; ++v) {
      if (rng->NextBool(density)) kws.push_back(v);
    }
    if (kws.empty()) kws.push_back(static_cast<KeywordId>(i % vocab));
    out.push_back(MakeCluster(kws));
  }
  return out;
}

class SimilarityJoinSweepTest
    : public ::testing::TestWithParam<std::tuple<double, AffinityMeasure>> {
};

TEST_P(SimilarityJoinSweepTest, JoinMatchesBruteForce) {
  const auto [theta, measure] = GetParam();
  Rng rng(static_cast<uint64_t>(theta * 1000) + 17);
  for (int trial = 0; trial < 10; ++trial) {
    auto left = RandomClusters(30, 40, 0.2, &rng);
    auto right = RandomClusters(25, 40, 0.2, &rng);
    AffinityOptions opt;
    opt.theta = theta;
    opt.measure = measure;
    SimilarityJoin join(opt);
    SimilarityJoinStats stats;
    auto fast = join.Join(left, right, &stats);
    auto slow = join.JoinBruteForce(left, right);
    ASSERT_EQ(fast.size(), slow.size()) << "theta=" << theta;
    for (size_t i = 0; i < fast.size(); ++i) {
      ASSERT_EQ(fast[i].left, slow[i].left);
      ASSERT_EQ(fast[i].right, slow[i].right);
      ASSERT_DOUBLE_EQ(fast[i].affinity, slow[i].affinity);
    }
    EXPECT_EQ(stats.result_pairs, fast.size());
    EXPECT_LE(stats.result_pairs, stats.candidate_pairs);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, SimilarityJoinSweepTest,
    ::testing::Combine(
        ::testing::Values(0.05, 0.1, 0.3, 0.6),
        ::testing::Values(AffinityMeasure::kJaccard,
                          AffinityMeasure::kOverlap,
                          AffinityMeasure::kIntersection)),
    [](const auto& info) {
      return std::string("theta") +
             std::to_string(
                 static_cast<int>(std::get<0>(info.param) * 100)) +
             "_" +
             AffinityMeasureName(std::get<1>(info.param));
    });

TEST(SimilarityJoinTest, PrefixFilterPrunesCandidates) {
  Rng rng(23);
  auto left = RandomClusters(100, 200, 0.05, &rng);
  auto right = RandomClusters(100, 200, 0.05, &rng);
  AffinityOptions opt;
  opt.theta = 0.5;  // High threshold: short prefixes.
  opt.measure = AffinityMeasure::kJaccard;
  SimilarityJoin join(opt);
  SimilarityJoinStats stats;
  auto result = join.Join(left, right, &stats);
  EXPECT_LT(stats.candidate_pairs, 100ull * 100ull);
  // Exactness regardless.
  EXPECT_EQ(result.size(), join.JoinBruteForce(left, right).size());
}

// Pins the threshold boundary documented in similarity_join.h: the join
// keeps affinity STRICTLY GREATER than theta, while the Jaccard prefix
// filter is derived for ">= theta". A pair at exactly theta must survive
// the filter (it is a candidate) and be rejected by verification — in
// both Join and JoinBruteForce.
TEST(SimilarityJoinTest, ThetaBoundary) {
  // J(a, b) = |{2,3}| / |{1,2,3,4}| = 0.5 exactly.
  Cluster a = MakeCluster({1, 2, 3});
  Cluster b = MakeCluster({2, 3, 4});
  // J(a, c) = 3/4 = 0.75: strictly above, must stay.
  Cluster c = MakeCluster({1, 2, 3, 4});
  AffinityOptions opt;
  opt.theta = 0.5;
  opt.measure = AffinityMeasure::kJaccard;
  SimilarityJoin join(opt);

  SimilarityJoinStats stats;
  auto result = join.Join({a}, {b, c}, &stats);
  ASSERT_EQ(result.size(), 1u);
  EXPECT_EQ(result[0].right, 1u);  // c, not the exact-theta pair with b.
  EXPECT_DOUBLE_EQ(result[0].affinity, 0.75);
  // The exact-theta pair passed the prefix filter — it was evaluated.
  EXPECT_EQ(stats.candidate_pairs, 2u);
  EXPECT_EQ(stats.result_pairs, 1u);

  auto brute = join.JoinBruteForce({a}, {b, c});
  ASSERT_EQ(brute.size(), 1u);
  EXPECT_EQ(brute[0].right, 1u);

  // Nudge theta just below 0.5: the boundary pair is now strictly above
  // and must appear in both implementations.
  opt.theta = 0.5 - 1e-9;
  SimilarityJoin loose(opt);
  EXPECT_EQ(loose.Join({a}, {b, c}).size(), 2u);
  EXPECT_EQ(loose.JoinBruteForce({a}, {b, c}).size(), 2u);
}

TEST(SimilarityJoinTest, EmptyInputs) {
  SimilarityJoin join;
  EXPECT_TRUE(join.Join({}, {}).empty());
  Rng rng(1);
  auto some = RandomClusters(5, 10, 0.3, &rng);
  EXPECT_TRUE(join.Join(some, {}).empty());
  EXPECT_TRUE(join.Join({}, some).empty());
}

}  // namespace
}  // namespace stabletext
