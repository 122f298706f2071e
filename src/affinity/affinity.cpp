#include "affinity/affinity.h"

#include <algorithm>

#include "util/setops.h"

namespace stabletext {

size_t KeywordIntersectionSize(const Cluster& a, const Cluster& b) {
  // Dispatched kernel (util/setops.h): galloping for skewed sizes, the
  // scalar merge otherwise — both return identical counts (setops_test
  // property sweep).
  return setops::IntersectionSize(a.keywords.data(), a.keywords.size(),
                                  b.keywords.data(), b.keywords.size());
}

std::vector<KeywordId> KeywordIntersection(const Cluster& a,
                                           const Cluster& b) {
  std::vector<KeywordId> out(
      std::min(a.keywords.size(), b.keywords.size()));
  const size_t n =
      setops::IntersectInto(a.keywords.data(), a.keywords.size(),
                            b.keywords.data(), b.keywords.size(),
                            out.data());
  out.resize(n);
  return out;
}

namespace {

double WeightedJaccard(const Cluster& a, const Cluster& b) {
  // Shared edges (same endpoints) contribute min weight to the
  // numerator; the denominator accumulates max over matched edges plus
  // all unmatched ones — the weighted generalization of Jaccard.
  double num = 0, den = 0;
  auto ea = a.edges.begin();
  auto eb = b.edges.begin();
  auto edge_less = [](const WeightedEdge& x, const WeightedEdge& y) {
    return x.u != y.u ? x.u < y.u : x.v < y.v;
  };
  while (ea != a.edges.end() && eb != b.edges.end()) {
    if (edge_less(*ea, *eb)) {
      den += ea->weight;
      ++ea;
    } else if (edge_less(*eb, *ea)) {
      den += eb->weight;
      ++eb;
    } else {
      num += std::min(ea->weight, eb->weight);
      den += std::max(ea->weight, eb->weight);
      ++ea;
      ++eb;
    }
  }
  for (; ea != a.edges.end(); ++ea) den += ea->weight;
  for (; eb != b.edges.end(); ++eb) den += eb->weight;
  return den > 0 ? num / den : 0;
}

}  // namespace

double ClusterAffinity(const Cluster& a, const Cluster& b,
                       AffinityMeasure measure) {
  switch (measure) {
    case AffinityMeasure::kJaccard: {
      const size_t inter = KeywordIntersectionSize(a, b);
      const size_t uni = a.keywords.size() + b.keywords.size() - inter;
      return uni > 0 ? static_cast<double>(inter) /
                           static_cast<double>(uni)
                     : 0;
    }
    case AffinityMeasure::kIntersection:
      return static_cast<double>(KeywordIntersectionSize(a, b));
    case AffinityMeasure::kOverlap: {
      const size_t inter = KeywordIntersectionSize(a, b);
      const size_t denom = std::min(a.keywords.size(), b.keywords.size());
      return denom > 0 ? static_cast<double>(inter) /
                             static_cast<double>(denom)
                       : 0;
    }
    case AffinityMeasure::kWeightedJaccard:
      return WeightedJaccard(a, b);
  }
  return 0;
}

const char* AffinityMeasureName(AffinityMeasure measure) {
  switch (measure) {
    case AffinityMeasure::kJaccard:
      return "jaccard";
    case AffinityMeasure::kIntersection:
      return "intersection";
    case AffinityMeasure::kOverlap:
      return "overlap";
    case AffinityMeasure::kWeightedJaccard:
      return "weighted-jaccard";
  }
  return "unknown";
}

}  // namespace stabletext
