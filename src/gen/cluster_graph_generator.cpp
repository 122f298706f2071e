#include "gen/cluster_graph_generator.h"

#include <cassert>
#include <cmath>

namespace stabletext {

ClusterGraph ClusterGraphGenerator::Generate(
    const ClusterGraphGenOptions& options) {
  assert(options.m >= 1 && options.n >= 1 && options.d >= 1);
  ClusterGraph graph(options.m, options.g);
  Rng rng(options.seed);

  for (uint32_t i = 0; i < options.m; ++i) {
    for (uint32_t j = 0; j < options.n; ++j) graph.AddNode(i);
  }

  auto draw_weight = [&]() {
    double w = rng.NextWeight();
    if (options.weight_quantum > 0) {
      const double q = static_cast<double>(options.weight_quantum);
      w = std::ceil(w * q) / q;  // (0,1] stays (0,1].
    }
    return w;
  };

  // One edge batch per reachable interval pair, as in Section 5.
  for (uint32_t i = 0; i + 1 < options.m; ++i) {
    const uint32_t reach =
        std::min(options.m - 1, i + options.g + 1);
    for (uint32_t j = i + 1; j <= reach; ++j) {
      for (NodeId from : graph.IntervalNodes(i)) {
        const uint32_t out_degree = static_cast<uint32_t>(
            rng.UniformInt(1, 2 * static_cast<int64_t>(options.d)));
        const uint32_t take =
            std::min<uint32_t>(out_degree, options.n);
        std::vector<size_t> picks =
            rng.SampleWithoutReplacement(options.n, take);
        for (size_t pick : picks) {
          const NodeId to = graph.IntervalNodes(j)[pick];
          Status s = graph.AddEdge(from, to, draw_weight());
          assert(s.ok());
          (void)s;
        }
      }
    }
  }
  graph.SortTouched();
  return graph.SealedCopy();
}

}  // namespace stabletext
