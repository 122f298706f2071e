// Cluster: a set of correlated keywords for one temporal interval, produced
// by the biconnected-component decomposition of the pruned keyword graph.

#ifndef STABLETEXT_CLUSTER_CLUSTER_H_
#define STABLETEXT_CLUSTER_CLUSTER_H_

#include <cstdint>
#include <string>
#include <vector>

#include "cooccur/keyword_dict.h"
#include "graph/keyword_graph.h"

namespace stabletext {

/// Flat sorted keyword storage, read by the intersection kernels
/// (util/setops.h).
using KeywordArray = std::vector<KeywordId>;

/// \brief One keyword cluster: vertices plus their member edges.
///
/// A cluster does not record its temporal interval: the container holding
/// it does (IntervalResult::interval, a cluster-graph node's
/// ClusterGraph::Interval). A long stream keeps every cluster, so the
/// struct holds only what each one needs.
struct Cluster {
  KeywordArray keywords;               ///< Distinct, sorted ascending.
  std::vector<WeightedEdge> edges;     ///< Member edges (u < v).

  size_t size() const { return keywords.size(); }

  /// Sum of member edge weights (used by weighted affinity functions).
  double TotalEdgeWeight() const;

  /// True if `id` is a member keyword (binary search).
  bool Contains(KeywordId id) const;

  /// Renders keywords as text using `dict`, comma-separated, for display.
  std::string ToString(const KeywordDict& dict, size_t max_keywords = 12)
      const;
};

/// Normalizes a cluster: sorts and dedups keywords, sorts edges, canonical
/// (u < v) edge orientation.
void NormalizeCluster(Cluster* cluster);

}  // namespace stabletext

#endif  // STABLETEXT_CLUSTER_CLUSTER_H_
