// GraphSnapshot: the immutable per-epoch read view that makes concurrent
// serving possible. After every committed interval the Engine seals its
// private mutable ClusterGraph into chunked CSR adjacency
// (ClusterGraph::SealedCopy — only the fixed-size chunks the tick touched
// are rebuilt; every untouched chunk is shared by shared_ptr with the
// previous epoch, so publishing costs O(delta), not O(graph)), bundles it
// with the interval metadata a query answer needs (clusters, keyword
// table) and the warm online sweep's top-k, and publishes the bundle
// with an atomic shared_ptr swap. Readers pin an epoch by grabbing the
// pointer (C++17 shared_ptr atomics use a briefly held pooled lock, never
// the writer's tick), and nothing the snapshot references is ever mutated
// afterwards, so any number of queries can run while the next interval
// commits. Engine::Query pins only on a query-cache miss: a hit is keyed
// on the published epoch counter and synchronizes on nothing but the
// cache shard's shared lock (core/query_cache.h).
//
// The shared result types of the serving API (StableClusterChain,
// QueryResult, EngineStats) live here so both the Engine facade and the
// query cache can name them without a dependency cycle.

#ifndef STABLETEXT_CORE_SNAPSHOT_H_
#define STABLETEXT_CORE_SNAPSHOT_H_

#include <cstdint>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "cooccur/keyword_dict.h"
#include "core/interval_clusterer.h"
#include "stable/cluster_graph.h"
#include "stable/finder.h"
#include "storage/io_stats.h"

namespace stabletext {

/// A stable cluster rendered for consumption: the chain of clusters plus
/// the path's weight/length/stability.
struct StableClusterChain {
  StablePath path;
  /// Borrowed from the engine; valid for the engine's lifetime (committed
  /// intervals are immutable and never dropped).
  std::vector<const Cluster*> clusters;
};

/// \brief Answer to one Query: resolved chains plus the finder's raw
/// paths and cost counters.
struct QueryResult {
  std::vector<StableClusterChain> chains;
  StableFinderResult finder;  ///< paths mirror chains; io/memory/work.
  /// The epoch (committed-interval count) this answer was computed at.
  /// Monotone across queries on one Engine; constant for a pinned
  /// snapshot.
  uint64_t epoch = 0;
  /// True when the answer came from the snapshot's warm online state
  /// (Section 4.6) instead of a finder run.
  bool warm_online = false;
};

/// Aggregate engine state for monitoring endpoints. Captured at publish
/// time, so concurrent readers see a consistent point-in-time view.
struct EngineStats {
  uint32_t intervals = 0;
  size_t clusters = 0;       ///< Graph nodes.
  size_t edges = 0;
  size_t keywords = 0;       ///< Dictionary size.
  size_t graph_bytes = 0;    ///< Writer graph: live adjacency lists
                             ///< plus the seal cache.
  IoStats io;                ///< Ingest-side traffic, all ticks summed.
  uint64_t query_cache_hits = 0;    ///< Live counter, not point-in-time.
  uint64_t query_cache_misses = 0;  ///< Live counter, not point-in-time.
  /// Wall-clock nanoseconds the publish of this epoch took (seal + bundle,
  /// up to the atomic swap). O(delta) under chunk-shared publishing.
  uint64_t publish_ns = 0;
  /// Adjacency chunks this epoch shares with the previous one (pointer
  /// reuse) vs. chunks the publish rebuilt — the copy-on-write ratio.
  size_t shared_chunk_count = 0;
  size_t copied_chunk_count = 0;
  /// Estimated resident bytes of the published epoch: chunked graph
  /// (shared chunks counted once), keyword table and cluster payloads.
  /// A cluster counts its struct and keywords only: its member edges
  /// (Cluster::edges, about half of what a tick keeps) are not counted.
  /// Readers pinning old epochs retain their unshared chunks on top.
  size_t resident_bytes = 0;
  // Durability counters, all zero when durability is off. WAL and
  // checkpoint traffic (including IoStats::fsyncs) is folded into `io`
  // at publish; the engine keeps its ingest-side accounting separate
  // internally so a recovered engine reproduces the ingest counters
  // exactly.
  uint64_t wal_bytes = 0;       ///< WAL record bytes appended (live).
  uint64_t checkpoint_ns = 0;   ///< Wall clock of the latest checkpoint.
  uint64_t recovered_epoch = 0; ///< Epoch Engine::Recover restored.
  // Serving-layer counters, filled by net::Server::FillServingStats when
  // the engine sits behind the network server (zero otherwise — the
  // engine itself has no connections to count).
  uint64_t subscriptions_active = 0;  ///< Standing queries registered.
  uint64_t pushes_sent = 0;           ///< Per-epoch DELTA frames pushed.
  uint64_t queries_rejected = 0;      ///< Admission-control RETRYs.
  uint64_t queries_failed = 0;        ///< Queries that errored or whose
                                      ///< worker died mid-query.
};

/// One committed interval's immutable outputs, shared between the writer
/// and every snapshot that includes it.
struct SnapshotInterval {
  IntervalResult result;
  IoStats io;
  /// Dictionary size once this interval was interned: the keyword-table
  /// watermark its epoch publishes. The WAL delta logs the words between
  /// the previous interval's watermark and this one, so replay re-interns
  /// exactly the ids the original run assigned.
  size_t vocab_size = 0;
};

/// \brief Keyword table (id -> string) of one epoch.
///
/// Holds the engine dictionary's own storage chunks, shared
/// (KeywordDict::ShareChunks): a publish copies chunk pointers, never a
/// word, and every epoch reads the same strings the writer interned. That
/// is race-free because the dictionary is append-only and reserves each
/// chunk in full: interning later ticks constructs strings only past
/// `total` without moving any below it, and rolling back a failed tick
/// (KeywordDict::TruncateTo) destroys only the words that tick interned,
/// which no published epoch covers. Word() reads through the chunk's data
/// pointer, which appends never change.
class SnapshotWords {
 public:
  /// Precondition: id < size().
  const std::string& Word(KeywordId id) const {
    return chunks[id >> KeywordDict::kChunkShift]
        ->data()[id & (KeywordDict::kChunkWords - 1)];
  }
  size_t size() const { return total; }

  // Set by the engine at publish; immutable afterwards.
  std::vector<std::shared_ptr<const KeywordDict::Chunk>> chunks;
  size_t total = 0;
};

/// \brief Immutable read view of the engine at one epoch.
///
/// Published by the writer after every commit; all fields are frozen at
/// publish time. Hold it by shared_ptr<const GraphSnapshot> to pin the
/// epoch across several queries.
struct GraphSnapshot {
  /// Number of committed intervals (== graph->interval_count()).
  uint64_t epoch = 0;
  /// Sealed chunked-CSR adjacency (ClusterGraph::SealedCopy, the graph's
  /// one frozen form); every finder traverses this via
  /// EdgeSpan. Chunks untouched by this epoch's tick are shared with the
  /// previous snapshot's graph.
  std::shared_ptr<const ClusterGraph> graph;
  /// Per-interval cluster outputs, in interval order.
  std::vector<std::shared_ptr<const SnapshotInterval>> intervals;
  /// Keyword id -> string, for rendering: the first `words.total` words
  /// of the writer's dictionary, shared with it (see SnapshotWords).
  SnapshotWords words;
  /// Warm online state (Section 4.6) at this epoch: the top-k of the
  /// writer's BFS IntervalSweep for one (k, l) configuration, advanced
  /// one interval per commit. Queries matching the configuration are
  /// answered from here without running a finder.
  bool has_online = false;
  size_t online_k = 0;
  uint32_t online_l = 0;
  std::vector<StablePath> online_topk;
  /// Point-in-time stats (cache counters filled in by Engine::stats()).
  EngineStats stats;

  /// Node ids are dense and contiguous per interval (the writer adds an
  /// interval's nodes in cluster order), so the cluster is recovered
  /// from the graph itself — no per-tick map copy.
  const Cluster* NodeCluster(NodeId node) const {
    const uint32_t interval = graph->Interval(node);
    const uint32_t j = node - graph->IntervalNodes(interval).front();
    return &intervals[interval]->result.clusters[j];
  }

  /// Resolves finder paths to cluster chains against this snapshot.
  Result<std::vector<StableClusterChain>> ToChains(
      const std::vector<StablePath>& paths) const;

  /// Renders a chain like the paper's stable-cluster figures, resolving
  /// keywords through this snapshot's word table and intervals through
  /// the chain's path nodes — safe from any reader thread while ingest
  /// runs (Engine::RenderChain delegates here).
  std::string RenderChain(const StableClusterChain& chain,
                          size_t max_keywords = 8) const;
};

/// \brief Answers `query` on the snapshot view — the lock-free read path
/// shared by Engine::Query and any caller that pinned an epoch.
///
/// Semantics match Engine::Query: asking for chains longer than the
/// stream is an empty answer (serving grace), warm online state answers
/// matching streaming queries directly, and everything else dispatches
/// through the finder registry over the epoch's sealed CSR graph. Does not
/// consult the query cache or record warm-up hints — Engine layers those
/// on top.
Result<QueryResult> QuerySnapshot(const GraphSnapshot& snapshot,
                                  const FinderQuery& query);

}  // namespace stabletext

#endif  // STABLETEXT_CORE_SNAPSHOT_H_
