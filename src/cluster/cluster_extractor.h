// ClusterExtractor: turns the pruned keyword graph of one interval into the
// interval's cluster set. Section 3: "Our algorithm identifies all
// articulation points in G' and reports all vertices (with their associated
// edges) in each biconnected component as a cluster"; Section 5.3 counts
// connected components, so both decompositions are offered.

#ifndef STABLETEXT_CLUSTER_CLUSTER_EXTRACTOR_H_
#define STABLETEXT_CLUSTER_CLUSTER_EXTRACTOR_H_

#include <vector>

#include "cluster/biconnected.h"
#include "cluster/cluster.h"

namespace stabletext {

/// Which graph decomposition defines a cluster.
enum class ClusterMode {
  kBiconnected,         ///< One cluster per biconnected component (paper
                        ///< default, Section 3).
  kConnectedComponent,  ///< One cluster per connected component (the
                        ///< granularity reported in Section 5.3).
};

/// Options for cluster extraction.
struct ClusterExtractorOptions {
  ClusterMode mode = ClusterMode::kBiconnected;
  /// Clusters with fewer keywords are dropped. 2 keeps everything
  /// (bridges / "trees connecting components" are two-keyword clusters).
  size_t min_keywords = 2;
  /// Biconnected-finder tuning.
  BiconnectedOptions biconnected;
};

/// \brief Extracts the cluster set of one interval.
class ClusterExtractor {
 public:
  explicit ClusterExtractor(ClusterExtractorOptions options = {})
      : options_(options) {}

  /// Decomposes `graph`, the keyword graph of interval `interval`, into
  /// clusters. The clusters do not record the interval (see Cluster); the
  /// argument only names it at the call site. `stats` may be null and is
  /// only filled in biconnected mode.
  Result<std::vector<Cluster>> Extract(const KeywordGraph& graph,
                                       uint32_t interval,
                                       BiconnectedStats* stats = nullptr);

 private:
  ClusterExtractorOptions options_;
};

}  // namespace stabletext

#endif  // STABLETEXT_CLUSTER_CLUSTER_EXTRACTOR_H_
