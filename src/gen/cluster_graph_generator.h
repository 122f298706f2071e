// Synthetic cluster-graph generator replicating Section 5's workload model:
// "The data was generated by first creating a set of nodes of size n for
// each of the m temporal intervals. For pairs of temporal intervals i and
// i', i - i' <= g + 1, edges were added as follows: for each node cij from
// the first temporal interval, its out degree dij was selected randomly and
// uniformly between 1 and 2*d, and then dij nodes were randomly selected
// from the second temporal interval to construct edges for cij. Edge
// weights were selected from (0, 1] uniformly."

#ifndef STABLETEXT_GEN_CLUSTER_GRAPH_GENERATOR_H_
#define STABLETEXT_GEN_CLUSTER_GRAPH_GENERATOR_H_

#include "stable/cluster_graph.h"
#include "util/random.h"

namespace stabletext {

/// Parameters of the Section 5 synthetic model.
struct ClusterGraphGenOptions {
  uint32_t m = 6;        ///< Temporal intervals.
  uint32_t n = 400;      ///< Nodes per interval.
  uint32_t d = 5;        ///< Average out degree (per reachable interval).
  uint32_t g = 0;        ///< Gap size.
  uint64_t seed = 42;    ///< RNG seed; equal seeds give equal graphs.
  /// When > 0, weights are quantized to multiples of 1/quantum (still in
  /// (0, 1]). Exact binary fractions make path-weight sums associativity-
  /// independent, which the cross-algorithm equality tests rely on.
  uint32_t weight_quantum = 0;
  /// Edge-less nodes added before each of the n nodes of every interval,
  /// so that a fraction isolated / (isolated + 1) of the nodes has no
  /// edge, as in the engine's cluster graphs. The edges, and the random
  /// draws that make them, are those of isolated = 0.
  uint32_t isolated = 0;
};

/// \brief Generates synthetic cluster graphs for the performance study.
class ClusterGraphGenerator {
 public:
  /// Builds a graph per the options and returns it sealed
  /// (ClusterGraph::SealedCopy), children lists sorted by descending
  /// weight.
  static ClusterGraph Generate(const ClusterGraphGenOptions& options);
};

}  // namespace stabletext

#endif  // STABLETEXT_GEN_CLUSTER_GRAPH_GENERATOR_H_
