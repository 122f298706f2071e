#include "core/snapshot.h"

#include "util/strings.h"

namespace stabletext {

Result<std::vector<StableClusterChain>> GraphSnapshot::ToChains(
    const std::vector<StablePath>& paths) const {
  std::vector<StableClusterChain> chains;
  chains.reserve(paths.size());
  for (const StablePath& path : paths) {
    StableClusterChain chain;
    chain.path = path;
    for (NodeId node : path.nodes) {
      if (node >= graph->node_count()) {
        // A caller-supplied path naming nodes this epoch has never
        // committed is a bad argument (e.g. a path carried over from a
        // newer epoch), not an engine invariant violation.
        return Status::InvalidArgument(
            "path node outside the snapshot epoch");
      }
      chain.clusters.push_back(NodeCluster(node));
    }
    chains.push_back(std::move(chain));
  }
  return chains;
}

std::string GraphSnapshot::RenderChain(const StableClusterChain& chain,
                                       size_t max_keywords) const {
  std::string out = StringPrintf(
      "stable cluster: length=%u weight=%.3f stability=%.3f\n",
      chain.path.length, chain.path.weight, chain.path.stability());
  for (size_t c = 0; c < chain.clusters.size(); ++c) {
    const Cluster* cluster = chain.clusters[c];
    // Same rendering as Cluster::ToString, off the snapshot word table
    // (every keyword id of a committed cluster is below this epoch's
    // vocabulary size).
    std::string keywords = "{";
    for (size_t i = 0;
         i < cluster->keywords.size() && i < max_keywords; ++i) {
      if (i) keywords += ", ";
      keywords += words.Word(cluster->keywords[i]);
    }
    if (cluster->keywords.size() > max_keywords) keywords += ", ...";
    keywords += "}";
    // The cluster's interval is its node's (clusters mirror path nodes).
    const NodeId node =
        c < chain.path.nodes.size() ? chain.path.nodes[c] : kInvalidNode;
    const std::string interval = node < graph->node_count()
                                     ? std::to_string(graph->Interval(node))
                                     : "?";
    out += StringPrintf("  interval %s: %s\n", interval.c_str(),
                        keywords.c_str());
  }
  return out;
}

Result<QueryResult> QuerySnapshot(const GraphSnapshot& snapshot,
                                  const FinderQuery& query) {
  if (query.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  QueryResult out;
  out.epoch = snapshot.epoch;
  // Serving semantics: asking for chains of (minimum) length l before
  // l+1 intervals exist is not an error, the stream just has no such
  // chains yet — in either mode, including the epoch-0 (empty) snapshot.
  // (The graph-level RunFinder keeps strict validation.)
  if (query.l != 0 && query.l >= snapshot.epoch) {
    return out;
  }
  auto r = RunFinder(*snapshot.graph, query);
  if (!r.ok()) return r.status();
  out.finder = std::move(r).value();
  ST_ASSIGN_OR_RETURN(out.chains, snapshot.ToChains(out.finder.paths));
  return out;
}

}  // namespace stabletext
