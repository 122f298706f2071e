#include "stable/normalized.h"

namespace stabletext {

size_t Theorem1Split(const StablePath& path, const ClusterGraph& graph,
                     uint32_t lmin, double* prefix_weight) {
  if (path.nodes.size() < 3) return 0;
  // Prefix weight/length accumulated left to right; the remainder is the
  // candidate curr.
  double pre_weight = 0;
  for (size_t split = 1; split + 1 < path.nodes.size(); ++split) {
    pre_weight +=
        graph.EdgeWeight(path.nodes[split - 1], path.nodes[split]);
    const uint32_t prefix_len = graph.Interval(path.nodes[split]) -
                                graph.Interval(path.nodes.front());
    const uint32_t curr_len = path.length - prefix_len;
    if (curr_len < lmin) break;  // Later splits only get shorter.
    const double curr_weight = path.weight - pre_weight;
    // stability(pre) <= stability(curr), cross-multiplied to avoid
    // division: pre_w / pre_len <= curr_w / curr_len.
    if (pre_weight * static_cast<double>(curr_len) <=
        curr_weight * static_cast<double>(prefix_len)) {
      if (prefix_weight != nullptr) *prefix_weight = pre_weight;
      return split;
    }
  }
  return 0;
}

}  // namespace stabletext
