#include "stable/normalized.h"

namespace stabletext {

size_t Theorem1Split(const StablePath& path, const ClusterGraph& graph,
                     uint32_t lmin, double* cut_weight, Theorem1Cut cut) {
  const size_t n = path.nodes.size();
  if (n < 3) return 0;
  const bool prefix = cut == Theorem1Cut::kPrefix;
  // The cut part grows one edge per step from its end of the path; the
  // remainder is the candidate curr.
  const NodeId outer = prefix ? path.nodes.front() : path.nodes.back();
  double weight = 0;
  for (size_t step = 1; step + 1 < n; ++step) {
    const size_t split = prefix ? step : n - 1 - step;
    const NodeId inner = path.nodes[split];
    weight += prefix ? graph.EdgeWeight(path.nodes[split - 1], inner)
                     : graph.EdgeWeight(inner, path.nodes[split + 1]);
    const uint32_t cut_len = prefix
                                 ? graph.Interval(inner) - graph.Interval(outer)
                                 : graph.Interval(outer) - graph.Interval(inner);
    const uint32_t curr_len = path.length - cut_len;
    if (curr_len < lmin) break;  // Later splits only get shorter.
    const double curr_weight = path.weight - weight;
    // stability(cut) <= stability(curr), cross-multiplied to avoid
    // division: cut_w / cut_len <= curr_w / curr_len.
    if (weight * static_cast<double>(curr_len) <=
        curr_weight * static_cast<double>(cut_len)) {
      if (cut_weight != nullptr) *cut_weight = weight;
      return split;
    }
  }
  return 0;
}

}  // namespace stabletext
