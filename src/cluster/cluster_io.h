// Persistence for interval cluster sets. Clusters are the natural
// checkpoint between the two halves of the system (Section 3 cluster
// generation is expensive and append-only per interval; Section 4 stable-
// cluster queries are re-run with different parameters), so production use
// stores each interval's clusters on disk and reloads them for analysis.
//
// Format: line-oriented text, one cluster per line:
//   <interval>\t<k1,k2,...>\t<u:v:weight,...>
// Weights round-trip exactly (C99 hex floats).

#ifndef STABLETEXT_CLUSTER_CLUSTER_IO_H_
#define STABLETEXT_CLUSTER_CLUSTER_IO_H_

#include <string>
#include <vector>

#include "cluster/cluster.h"
#include "util/status.h"

namespace stabletext {

/// Writes `clusters`, the clusters of interval `interval`, to `path`
/// (truncates).
Status SaveClusters(const std::vector<Cluster>& clusters, uint32_t interval,
                    const std::string& path);

/// Reads clusters previously written by SaveClusters into *out
/// (replacing its contents). `intervals`, when non-null, receives each
/// cluster's interval.
Status LoadClusters(const std::string& path, std::vector<Cluster>* out,
                    std::vector<uint32_t>* intervals = nullptr);

}  // namespace stabletext

#endif  // STABLETEXT_CLUSTER_CLUSTER_IO_H_
