// Shared helpers for finder tests: small random cluster graphs with
// quantized weights (exact binary fractions make path-weight sums
// independent of summation order, so cross-algorithm comparisons are
// exact).

#ifndef STABLETEXT_TESTS_TEST_HELPERS_H_
#define STABLETEXT_TESTS_TEST_HELPERS_H_

#include <vector>

#include "gen/cluster_graph_generator.h"
#include "stable/cluster_graph.h"
#include "stable/path.h"

namespace stabletext {

inline ClusterGraph MakeRandomGraph(uint32_t m, uint32_t n, uint32_t d,
                                    uint32_t g, uint64_t seed) {
  ClusterGraphGenOptions opt;
  opt.m = m;
  opt.n = n;
  opt.d = d;
  opt.g = g;
  opt.seed = seed;
  opt.weight_quantum = 1024;  // Exact binary fractions.
  return ClusterGraphGenerator::Generate(opt);
}

// The Figure 5 cluster graph of the paper: three intervals, three clusters
// each, g = 1. Node ids: c11=0 c12=1 c13=2 | c21=3 c22=4 c23=5 |
// c31=6 c32=7 c33=8. Edge weights follow the worked example in
// Sections 4.2 and 4.3 (h-heap values and Table 2 are reproduced with
// them).
inline ClusterGraph MakePaperFigure5Graph() {
  ClusterGraph graph(3, 1);
  for (uint32_t i = 0; i < 3; ++i) {
    for (int j = 0; j < 3; ++j) graph.AddNode(i);
  }
  struct E {
    NodeId a, b;
    double w;
  };
  // Weights chosen to reproduce the paper's numbers:
  //   c11c21 = 0.5, c12c22 = 0.1, c13c22 = 0.8, c12c23 = 0.4,
  //   c21c31 = 0.7, c22c31 = 0.7, c21c32 = 0.4, c22c33 = 0.9,
  //   c23c33 = 0.4, c11c32 (gap edge, length 2) = 0.9.
  // Checks from the text: weight(c11c21c31) = 1.2, weight(c13c22c31)
  //  = 1.5, weight(c12c22c31) = 0.8, weight(c13c22c33) = 1.7,
  //  maxweight(c33, 2) via c23 = 0.8, h2_32 contains c11c21c32 (0.9)
  //  and c11c32 (0.9).
  const E edges[] = {{0, 3, 0.5}, {1, 4, 0.1}, {2, 4, 0.8}, {1, 5, 0.4},
                     {3, 6, 0.7}, {4, 6, 0.7}, {3, 7, 0.4}, {4, 8, 0.9},
                     {5, 8, 0.4}, {0, 7, 0.9}};
  for (const E& e : edges) {
    Status s = graph.AddEdge(e.a, e.b, e.w);
    (void)s;
  }
  graph.SortTouched();
  return graph.SealedCopy();
}

inline std::vector<double> Weights(const std::vector<StablePath>& paths) {
  std::vector<double> out;
  out.reserve(paths.size());
  for (const auto& p : paths) out.push_back(p.weight);
  return out;
}

}  // namespace stabletext

#endif  // STABLETEXT_TESTS_TEST_HELPERS_H_
