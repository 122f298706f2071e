// Paths in the cluster graph (Section 4). A path's *length* is measured in
// temporal intervals ("the length of an edge over a single gap of length g
// is considered to be g+1"), its *weight* is the sum of its edge weights,
// and its *stability* is weight / length (Section 4.5).

#ifndef STABLETEXT_STABLE_PATH_H_
#define STABLETEXT_STABLE_PATH_H_

#include <cstdint>
#include <string>
#include <vector>

namespace stabletext {

/// Node id in a cluster graph. Dense in [0, node_count).
using NodeId = uint32_t;

/// Sentinel node id.
inline constexpr NodeId kInvalidNode = UINT32_MAX;

/// \brief A weighted path through cluster-graph nodes, earliest first.
struct StablePath {
  std::vector<NodeId> nodes;
  double weight = 0;     ///< Sum of edge weights.
  uint32_t length = 0;   ///< interval(back) - interval(front).

  double stability() const {
    return length == 0 ? 0 : weight / static_cast<double>(length);
  }

  bool empty() const { return nodes.empty(); }

  std::string ToString() const;

  friend bool operator==(const StablePath& a, const StablePath& b) {
    return a.nodes == b.nodes;
  }
};

/// Total order used by every finder and the brute-force oracle so top-k
/// results are uniquely determined even under weight ties: higher weight
/// first, then lexicographically smaller node sequence first.
///
/// The comparator is prefix- and suffix-monotone: extending two equal-
/// weight paths by the same edge preserves their relative order, which is
/// what makes per-node top-k pruning exact.
struct PathBetter {
  bool operator()(const StablePath& a, const StablePath& b) const {
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.nodes < b.nodes;
  }
};

/// Total order by stability (Problem 2), with the same tie-breaking.
struct PathMoreStable {
  bool operator()(const StablePath& a, const StablePath& b) const {
    const double sa = a.stability();
    const double sb = b.stability();
    if (sa != sb) return sa > sb;
    if (a.weight != b.weight) return a.weight > b.weight;
    return a.nodes < b.nodes;
  }
};

/// The global heap's order, chosen at run time: PathMoreStable for
/// Problem 2, PathBetter for Problem 1. Shared by the BFS sweep and the
/// DFS, which serve both problems with one heap type.
struct GlobalOrder {
  bool by_stability;
  bool operator()(const StablePath& a, const StablePath& b) const {
    return by_stability ? PathMoreStable()(a, b) : PathBetter()(a, b);
  }
};

/// True if `sub`'s node sequence occurs contiguously inside `super`'s.
bool IsSubpath(const StablePath& sub, const StablePath& super);

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_PATH_H_
