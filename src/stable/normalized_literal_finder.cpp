#include "stable/normalized_literal_finder.h"

#include <algorithm>

#include "stable/topk_heap.h"

namespace stabletext {

namespace {

// Applies Theorem 1 repeatedly: strips the first reducible prefix until
// none is left. Returns the (possibly reduced) path.
StablePath Theorem1Reduce(StablePath path, const ClusterGraph& graph,
                          uint32_t lmin) {
  double prefix_weight = 0;
  while (const size_t split =
             Theorem1Split(path, graph, lmin, &prefix_weight)) {
    const uint32_t prefix_len = graph.Interval(path.nodes[split]) -
                                graph.Interval(path.nodes.front());
    path.nodes.erase(path.nodes.begin(),
                     path.nodes.begin() + static_cast<long>(split));
    path.weight -= prefix_weight;
    path.length -= prefix_len;
  }
  return path;
}

// IsSubpath(sub, super) for two paths that end at the same node. A node
// occurs at most once on a path (intervals increase along it), so such a
// contiguous occurrence is a suffix, compared back to front.
bool IsSuffixSubpath(const StablePath& sub, const StablePath& super) {
  return !sub.nodes.empty() && sub.nodes.size() <= super.nodes.size() &&
         std::equal(sub.nodes.rbegin(), sub.nodes.rend(),
                    super.nodes.rbegin());
}

}  // namespace

Result<StableFinderResult> NormalizedLiteralFinder::Find(
    const ClusterGraph& graph) const {
  const uint32_t m = graph.interval_count();
  StableFinderResult result;
  if (m < 2) return result;
  const uint32_t lmin = options_.lmin;
  if (lmin < 1 || lmin > m - 1) {
    return Status::InvalidArgument("lmin out of range");
  }
  const size_t k = options_.k;

  // smallpaths[c][x]: all paths of length x (1 <= x < lmin) ending at c.
  std::vector<std::vector<std::vector<StablePath>>> smallpaths(
      graph.node_count());
  // bestpaths[c]: candidate list (length >= lmin), paper-pruned.
  std::vector<std::vector<StablePath>> bestpaths(graph.node_count());
  for (NodeId v = 0; v < graph.node_count(); ++v) {
    smallpaths[v].assign(lmin, {});
  }

  TopKHeap<PathMoreStable> global(k);
  auto offer_global = [&](const StablePath& p) {
    if (p.length >= lmin) {
      ++result.heap_offers;
      global.Offer(p);
    }
  };

  auto add_bestpath = [&](NodeId c, StablePath path) {
    offer_global(path);  // Rank before pruning, as in the paper.
    path = Theorem1Reduce(std::move(path), graph, lmin);
    // Subpath rule: drop the incoming path if it is a subpath of a kept
    // one; drop kept ones that are subpaths of the incoming path. All of
    // them end at c.
    auto& list = bestpaths[c];
    for (const StablePath& kept : list) {
      if (kept == path || IsSuffixSubpath(path, kept)) return;
    }
    list.erase(std::remove_if(list.begin(), list.end(),
                              [&](const StablePath& kept) {
                                return IsSuffixSubpath(kept, path);
                              }),
               list.end());
    list.push_back(std::move(path));
  };

  size_t live_paths = 0;  // For the memory accounting.
  for (uint32_t i = 1; i < m; ++i) {
    for (NodeId c : graph.IntervalNodes(i)) {
      ++result.io.page_reads;
      for (const ClusterGraphEdge& pe : graph.Parents(c)) {
        const NodeId p = pe.target;
        const uint32_t len = i - graph.Interval(p);
        StablePath bare;
        bare.nodes = {p, c};
        bare.weight = pe.weight;
        bare.length = len;
        if (len < lmin) {
          smallpaths[c][len].push_back(bare);
        } else {
          add_bestpath(c, bare);
        }
        // Extend small paths ending at p.
        for (uint32_t x = 1; x < lmin; ++x) {
          for (const StablePath& pi : smallpaths[p][x]) {
            StablePath ext = pi;
            ext.nodes.push_back(c);
            ext.weight += pe.weight;
            ext.length += len;
            ++result.heap_offers;
            if (ext.length < lmin) {
              smallpaths[c][ext.length].push_back(std::move(ext));
            } else {
              add_bestpath(c, std::move(ext));
            }
          }
        }
        // Extend bestpaths ending at p.
        for (const StablePath& pi : bestpaths[p]) {
          StablePath ext = pi;
          ext.nodes.push_back(c);
          ext.weight += pe.weight;
          ext.length += len;
          ++result.heap_offers;
          add_bestpath(c, std::move(ext));
        }
      }
      ++result.io.page_writes;
      for (uint32_t x = 1; x < lmin; ++x) {
        live_paths += smallpaths[c][x].size();
      }
      live_paths += bestpaths[c].size();
    }
    result.peak_memory_bytes =
        std::max(result.peak_memory_bytes,
                 live_paths * (sizeof(StablePath) + 8 * sizeof(NodeId)));
  }

  result.paths = global.paths();
  return result;
}

}  // namespace stabletext
