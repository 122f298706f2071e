// Shared option/result types for the stable-cluster finders (Sections
// 4.2-4.5), plus the finder registry: every finder (BFS, DFS, TA,
// brute-force, online) is reachable through one FinderQuery/RunFinder
// surface so callers (Engine, CLI, benches) never hard-code a traversal.

#ifndef STABLETEXT_STABLE_FINDER_H_
#define STABLETEXT_STABLE_FINDER_H_

#include <cstdint>
#include <string_view>
#include <vector>

#include "stable/path.h"
#include "storage/io_stats.h"
#include "util/memory_tracker.h"
#include "util/status.h"

namespace stabletext {

class ClusterGraph;

/// \brief Answer plus cost counters from one finder run.
struct StableFinderResult {
  /// Top paths, best first, under the finder's total order.
  std::vector<StablePath> paths;
  /// Simulated-disk traffic (node reads/writes, spills).
  IoStats io;
  /// Peak bytes of finder-resident state (per the paper's memory model:
  /// node annotations not currently needed count as on-disk).
  size_t peak_memory_bytes = 0;
  /// Block-nested-loop passes (BFS under a memory budget; 1 otherwise).
  size_t passes = 1;
  /// Candidate paths offered to any heap (work proxy).
  uint64_t heap_offers = 0;
  /// DFS: stack pushes (node activations, counting re-visits).
  uint64_t nodes_pushed = 0;
  /// DFS: CanPrune firings.
  uint64_t prunes = 0;
  /// TA: edges consumed from the sorted lists.
  uint64_t edges_scanned = 0;
  /// TA: random probes into adjacency during path assembly.
  uint64_t random_probes = 0;
};

/// Which traversal answers a query.
enum class FinderAlgorithm {
  kBfs,         ///< Interval sweep (Algorithm 2, Sections 4.2 and 4.5).
  kDfs,         ///< Depth-first (Algorithm 3, Sections 4.3 and 4.5).
  kTa,          ///< Threshold algorithm (Section 4.4); full paths, g = 0.
  kBruteForce,  ///< Exhaustive enumeration (testing oracle).
  /// Online (Section 4.6): the BFS interval sweep. A one-shot query runs
  /// batch BFS; a standing query (net::Server subscription) advances
  /// its own sweep one interval per epoch.
  kOnline,
};

/// What the query ranks by.
enum class FinderMode {
  kKlStable,    ///< Problem 1: top-k by weight, length exactly l.
  kNormalized,  ///< Problem 2: top-k by stability, length >= lmin.
};

/// \brief One self-contained stable-cluster query against a ClusterGraph.
///
/// The single query surface for all finders: pick an algorithm and a mode,
/// set k and l, and RunFinder() dispatches through the registry. Unsupported
/// combinations (TA with gaps, online normalized, ...) come back as
/// NotSupported statuses, never as silent fallbacks.
struct FinderQuery {
  FinderAlgorithm algorithm = FinderAlgorithm::kBfs;
  FinderMode mode = FinderMode::kKlStable;
  size_t k = 5;  ///< Paths sought.
  /// kKlStable: exact path length, 0 = full (m-1).
  /// kNormalized: minimum path length lmin.
  uint32_t l = 0;
  /// Diversified selection (Section 4's affix-constraint variant): run the
  /// finder with an enlarged k, then greedily drop paths sharing the first
  /// `diversify_prefix` / last `diversify_suffix` nodes with a better kept
  /// path. 0/0 disables diversification.
  uint32_t diversify_prefix = 0;
  uint32_t diversify_suffix = 0;
  /// Candidate pool multiplier for diversified selection.
  size_t diversify_candidates = 8;
  /// BFS: window memory budget (block-nested-loop fallback when exceeded).
  size_t memory_budget_bytes = MemoryTracker::kUnlimited;
  /// Normalized BFS/DFS: Theorem 1 pruning (stable/normalized.h).
  bool theorem1_pruning = false;
  /// TA: probe budget safety valve (0 = unlimited); running out is
  /// ResourceExhausted.
  uint64_t max_probes = 0;

  /// Field-wise identity — two equal queries at the same epoch have the
  /// same answer, which is what the engine's query cache keys on.
  friend bool operator==(const FinderQuery& a, const FinderQuery& b) {
    return a.algorithm == b.algorithm && a.mode == b.mode && a.k == b.k &&
           a.l == b.l && a.diversify_prefix == b.diversify_prefix &&
           a.diversify_suffix == b.diversify_suffix &&
           a.diversify_candidates == b.diversify_candidates &&
           a.memory_budget_bytes == b.memory_budget_bytes &&
           a.theorem1_pruning == b.theorem1_pruning &&
           a.max_probes == b.max_probes;
  }
  friend bool operator!=(const FinderQuery& a, const FinderQuery& b) {
    return !(a == b);
  }
};

/// Registry entry: one finder algorithm with its capabilities.
struct FinderInfo {
  FinderAlgorithm algorithm;
  const char* name;  ///< Stable identifier ("bfs", "dfs", "ta", ...).
  bool supports_kl_stable;
  bool supports_normalized;
  /// Runs this finder; `query.algorithm` is ignored (already dispatched).
  Result<StableFinderResult> (*run)(const ClusterGraph& graph,
                                    const FinderQuery& query);
};

/// All registered finders, in a stable order (bfs first).
const std::vector<FinderInfo>& FinderRegistry();

/// Registry lookup; never null (every FinderAlgorithm is registered).
const FinderInfo& GetFinderInfo(FinderAlgorithm algorithm);

/// Parses "bfs" | "dfs" | "ta" | "brute-force" | "online" (also accepts
/// "brute"). InvalidArgument on anything else.
Result<FinderAlgorithm> ParseFinderAlgorithm(std::string_view name);

/// The registered name of `algorithm`.
const char* FinderAlgorithmName(FinderAlgorithm algorithm);

/// Parses "kl-stable" | "normalized" (also accepts "stable").
Result<FinderMode> ParseFinderMode(std::string_view name);

/// The canonical name of `mode`.
const char* FinderModeName(FinderMode mode);

/// The path length a kKlStable query seeks, or the lmin of a kNormalized
/// one, on a graph of m >= 2 intervals: kKlStable's l = 0 means m - 1.
/// InvalidArgument outside [1, m - 1], the range every finder accepts.
Result<uint32_t> ResolvePathLength(FinderMode mode, uint32_t l, uint32_t m);

/// \brief Runs `query` against `graph` through the registry.
///
/// Validates the (algorithm, mode) combination, dispatches, and applies the
/// diversification post-pass when requested. The graph's children lists
/// must be sorted (ClusterGraph::SortTouched after the last AddEdge; a
/// sealed copy of a sorted graph is sorted).
Result<StableFinderResult> RunFinder(const ClusterGraph& graph,
                                     const FinderQuery& query);

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_FINDER_H_
