#include "stable/finder.h"

#include <algorithm>
#include <limits>

#include "stable/bfs_finder.h"
#include "stable/brute_force_finder.h"
#include "stable/cluster_graph.h"
#include "stable/dfs_finder.h"
#include "stable/diversify.h"
#include "stable/ta_finder.h"

namespace stabletext {

namespace {

Result<StableFinderResult> RunBfs(const ClusterGraph& graph,
                                  const FinderQuery& query) {
  BfsFinderOptions options;
  options.mode = query.mode;
  options.k = query.k;
  options.l = query.l;
  options.theorem1_pruning = query.theorem1_pruning;
  options.memory_budget_bytes = query.memory_budget_bytes;
  return BfsStableFinder(options).Find(graph);
}

Result<StableFinderResult> RunDfs(const ClusterGraph& graph,
                                  const FinderQuery& query) {
  DfsFinderOptions options;
  options.mode = query.mode;
  options.k = query.k;
  options.l = query.l;
  options.theorem1_pruning = query.theorem1_pruning;
  return DfsStableFinder(options).Find(graph);
}

Result<StableFinderResult> RunTa(const ClusterGraph& graph,
                                 const FinderQuery& query) {
  const uint32_t m = graph.interval_count();
  if (query.l != 0 && (m < 2 || query.l != m - 1)) {
    return Status::NotSupported(
        "the TA finder answers full-path queries only (l = 0 or m-1)");
  }
  TaFinderOptions options;
  options.k = query.k;
  options.max_probes = query.max_probes;
  return TaStableFinder(options).Find(graph);
}

Result<StableFinderResult> RunBruteForce(const ClusterGraph& graph,
                                         const FinderQuery& query) {
  StableFinderResult result;
  const uint32_t m = graph.interval_count();
  if (m < 2) return result;
  // The oracle itself accepts any l; a query gets BFS's and DFS's range.
  ST_ASSIGN_OR_RETURN(const uint32_t l,
                      ResolvePathLength(query.mode, query.l, m));
  if (query.mode == FinderMode::kNormalized) {
    result.paths = BruteForceFinder::TopKByStability(graph, query.k, l);
  } else {
    result.paths = BruteForceFinder::TopKByWeight(graph, query.k, l);
  }
  return result;
}

}  // namespace

const std::vector<FinderInfo>& FinderRegistry() {
  static const std::vector<FinderInfo> registry = {
      {FinderAlgorithm::kBfs, "bfs", true, true, &RunBfs},
      {FinderAlgorithm::kDfs, "dfs", true, true, &RunDfs},
      {FinderAlgorithm::kTa, "ta", true, false, &RunTa},
      {FinderAlgorithm::kBruteForce, "brute-force", true, true,
       &RunBruteForce},
      // A one-shot online query is the batch BFS sweep; only a standing
      // query advances an IntervalSweep incrementally (net::Server).
      {FinderAlgorithm::kOnline, "online", true, false, &RunBfs},
  };
  return registry;
}

const FinderInfo& GetFinderInfo(FinderAlgorithm algorithm) {
  for (const FinderInfo& info : FinderRegistry()) {
    if (info.algorithm == algorithm) return info;
  }
  return FinderRegistry().front();  // Unreachable: all enums registered.
}

Result<FinderAlgorithm> ParseFinderAlgorithm(std::string_view name) {
  for (const FinderInfo& info : FinderRegistry()) {
    if (name == info.name) return info.algorithm;
  }
  if (name == "brute") return FinderAlgorithm::kBruteForce;
  return Status::InvalidArgument(
      "unknown algorithm \"" + std::string(name) +
      "\" (known: bfs, dfs, ta, brute-force, online)");
}

const char* FinderAlgorithmName(FinderAlgorithm algorithm) {
  return GetFinderInfo(algorithm).name;
}

Result<FinderMode> ParseFinderMode(std::string_view name) {
  if (name == "kl-stable" || name == "stable") {
    return FinderMode::kKlStable;
  }
  if (name == "normalized") return FinderMode::kNormalized;
  return Status::InvalidArgument(
      "unknown mode \"" + std::string(name) +
      "\" (known: kl-stable, normalized)");
}

const char* FinderModeName(FinderMode mode) {
  return mode == FinderMode::kKlStable ? "kl-stable" : "normalized";
}

Result<uint32_t> ResolvePathLength(FinderMode mode, uint32_t l, uint32_t m) {
  const bool normalized = mode == FinderMode::kNormalized;
  if (l == 0 && !normalized) l = m - 1;
  if (l < 1 || l > m - 1) {
    return Status::InvalidArgument(normalized ? "lmin out of range"
                                              : "path length l out of range");
  }
  return l;
}

Result<StableFinderResult> RunFinder(const ClusterGraph& graph,
                                     const FinderQuery& query) {
  const FinderInfo& info = GetFinderInfo(query.algorithm);
  if (query.mode == FinderMode::kNormalized && !info.supports_normalized) {
    return Status::NotSupported(std::string(info.name) +
                                " does not answer normalized queries");
  }
  if (query.k == 0) {
    return Status::InvalidArgument("k must be positive");
  }
  const bool diversify =
      query.diversify_prefix > 0 || query.diversify_suffix > 0;
  if (!diversify) return info.run(graph, query);

  // Diversified selection: enlarge the candidate pool, then apply the
  // greedy affix filter. Exact whenever the diversified top-k lies in the
  // enlarged ranking (raise diversify_candidates for redundant graphs).
  const size_t candidates = std::max<size_t>(1, query.diversify_candidates);
  if (query.k > std::numeric_limits<size_t>::max() / candidates) {
    return Status::InvalidArgument("k * diversify_candidates overflows");
  }
  FinderQuery enlarged = query;
  enlarged.k = query.k * candidates;
  auto r = info.run(graph, enlarged);
  if (!r.ok()) return r.status();
  StableFinderResult result = std::move(r).value();
  DiversifyOptions dopt;
  dopt.prefix_nodes = query.diversify_prefix;
  dopt.suffix_nodes = query.diversify_suffix;
  result.paths = DiversifyPaths(result.paths, query.k, dopt);
  return result;
}

}  // namespace stabletext
