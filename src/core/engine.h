// Engine: the library's public serving API, shaped for the paper's online
// scenario (Section 4.6) — intervals arrive continuously from a crawler and
// queries may be asked at any time, from any number of reader threads.
// Ingest(interval) commits one interval: it clusters the documents
// (Section 3), affinity-joins the new clusters against the gap-window
// frontier (Section 4.1), extends the cluster graph in place, and then
// publishes an immutable GraphSnapshot (chunked CSR adjacency + interval
// metadata) with an atomic shared_ptr swap.
// Publishing is O(delta): only the adjacency chunks the tick touched are
// sealed; every untouched chunk is shared by shared_ptr with the previous
// epoch, and raw-intersection weights renormalize lazily through a
// per-snapshot scale instead of an O(E) rewrite. The keyword table is not
// copied at all: a snapshot shares the dictionary's own word chunks. That
// is race-free because the dictionary is append-only with chunks reserved
// in full — the writer only constructs words past every published epoch's
// vocabulary, and a failed tick's rollback only removes words no epoch
// has published (see SnapshotWords).
// Query() runs entirely against the snapshot — read-only EdgeSpan
// traversal — so readers never wait on ingest work and never observe a
// half-committed interval. Repeated hot queries are absorbed by the query
// cache (core/query_cache.h), a small sharded LRU keyed by (epoch, query)
// and swept at every publish. A cache hit reads the published epoch from
// an atomic counter and copies the answer out under the shard's shared
// lock: it takes no snapshot pin and writes no shared line but that
// lock's. Only a miss pins the snapshot (C++17 atomic shared_ptr load: a
// briefly held pooled lock, never the writer's tick) and runs a finder.
//
// With options.threads > 1 tokenization and the per-window affinity joins
// fan out on a thread pool; counting, pruning (one pass over an inverted
// index, see core/interval_clusterer.h) and biconnected decomposition run
// on the writer. Tokenizing workers fill flat buffers the writer reserved
// (PackedDocuments), so the per-post keyword strings of a tick are never
// allocated in the pool threads' malloc arenas. Output is deterministic
// across thread counts.

#ifndef STABLETEXT_CORE_ENGINE_H_
#define STABLETEXT_CORE_ENGINE_H_

#include <atomic>
#include <filesystem>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "affinity/similarity_join.h"
#include "core/durability.h"
#include "core/interval_clusterer.h"
#include "core/query_cache.h"
#include "core/snapshot.h"
#include "stable/cluster_graph.h"
#include "stable/finder.h"
#include "text/document.h"
#include "util/annotated_mutex.h"
#include "util/thread_pool.h"

namespace stabletext {

/// Options for the engine.
struct EngineOptions {
  IntervalClustererOptions clustering;
  AffinityOptions affinity;
  uint32_t gap = 0;  ///< g of Section 4: edges span <= gap+1 intervals.
  /// Worker threads for tokenization and the per-tick affinity joins.
  /// 1 = fully sequential (no pool).
  /// Results are byte-identical for every value.
  size_t threads = 1;
  /// Query-cache knobs (entries_per_shard = 0 disables caching).
  QueryCacheOptions query_cache;
  /// Crash durability (WAL + checkpoints; see core/durability.h). When
  /// enabled the engine must be built with Engine::Recover — a plain
  /// constructor refuses to ingest, because it has no way to report a
  /// failed log/checkpoint recovery. Disabled: no file is ever touched.
  DurabilityOptions durability;
};

/// The library-wide query type: algorithm, mode, k, l, diversification.
/// (Defined next to the finder registry; the gap is an ingest-time
/// property fixed by EngineOptions, not a query-time knob.)
using Query = FinderQuery;

/// \brief Incremental stable-cluster engine with snapshot-isolated serving.
///
/// Usage:
///   Engine engine(options);
///   engine.IngestText(day0_posts);        // one call per arriving tick
///   auto r = engine.Query({...});         // valid at any time
///   engine.IngestText(day1_posts);
///   r = engine.Query({...});              // reflects both intervals
///
/// Ingest commits synchronously: when it returns OK the interval is
/// queryable (the commit's last step publishes the new epoch's snapshot).
/// A failed ingest publishes nothing — readers keep serving the last
/// epoch — and, if the failure hit mid-commit, further ingest is
/// refused (the half-committed writer state can never become visible).
/// Query never mutates observable state. Every published epoch is already
/// an immutable chunked-CSR seal of the graph, so a caller done ingesting
/// keeps serving the last snapshot; there is no separate freeze step.
///
/// Thread contract: Ingest* are writers and must be externally exclusive
/// with each other; Query()/QueryAt()/snapshot()/stats()/RenderChain()
/// may run concurrently with them — and with each other — from any
/// number of threads. Each query reads one published epoch: it
/// sees either the state before an in-flight ingest or the state after
/// it, never a partial interval. The remaining introspection accessors
/// (graph(), dict(), interval_result(), io()) read writer-side state
/// and are only safe on the ingest thread, or when ingest is quiescent.
///
/// The writer side of this contract is machine-checked (Clang
/// -Wthread-safety): `writer_role_` is a ThreadRole capability
/// (util/annotated_mutex.h). Every writer-side field is
/// GUARDED_BY(writer_role_) and every commit-path method REQUIRES it;
/// public entry points assume the role and delegate to private *Locked
/// implementations, so "CommitInterval runs on the writer thread only"
/// is a compile-time statement, not a comment.
class Engine {
 public:
  explicit Engine(EngineOptions options = {});

  /// \brief Opens (or creates) a durable engine from its data directory.
  ///
  /// Restores the newest checkpoint, replays the write-ahead log's valid
  /// tail (a torn or corrupt tail is truncated, never replayed), and
  /// resumes ingest exactly where the crash left off: the recovered
  /// engine is byte-identical to one that ingested the same intervals
  /// uninterrupted — same keyword ids, clusters, adjacency bits and
  /// query answers.
  /// Recovery lands on the epoch that was published at the crash, or one
  /// later when the crash hit between the WAL fsync and the publish.
  /// Requires options.durability.enabled and a directory; this is the
  /// only way to construct an engine that accepts durable ingest.
  static Result<std::unique_ptr<Engine>> Recover(EngineOptions options);

  /// Preprocesses, clusters and commits one interval of raw posts.
  /// Intervals are implicitly numbered 0, 1, ... in arrival order.
  /// Returns the interval index.
  Result<uint32_t> IngestText(const std::vector<std::string>& posts);

  /// Invoked after each corpus interval commits: the interval index and
  /// its raw posts. A non-OK return aborts the ingest.
  using TickCallback =
      std::function<Status(uint32_t interval,
                           const std::vector<std::string>& posts)>;

  /// Ingests a batch of ticks (one interval per element) in order: a
  /// plain loop of IngestText commits, so each interval is queryable
  /// before `on_tick` runs for it. The first failing tick or callback
  /// ends the batch; the intervals committed before it stay committed.
  /// Returns the number of intervals ingested.
  Result<uint32_t> IngestTicks(
      const std::vector<std::vector<std::string>>& ticks,
      const TickCallback& on_tick = nullptr);

  /// Reads a whole corpus file (CorpusWriter format; intervals must be
  /// contiguous from the engine's next interval) and commits it tick by
  /// tick through IngestTicks. Returns the number of intervals ingested.
  /// `on_tick`, when non-null, runs after each committed interval
  /// (per-tick reporting, interleaved queries).
  Result<uint32_t> IngestCorpusFile(const std::filesystem::path& path,
                                    const TickCallback& on_tick = nullptr);

  /// Answers `query` on the latest published epoch. Algorithms: bfs, dfs,
  /// ta (full paths, gap 0), brute-force, online (a one-shot online query
  /// is the batch BFS sweep; net::Server advances a sweep per standing
  /// query instead). Modes: kl-stable, normalized. See FinderQuery for the
  /// diversification and tuning knobs. Safe to call concurrently with
  /// ingest from any number of threads; the answer's epoch is recorded in
  /// QueryResult::epoch. A query-cache hit is served without pinning the
  /// snapshot. With the cache enabled, each valid call (here and in
  /// QueryAt) counts exactly one cache hit or one miss.
  Result<QueryResult> Query(const stabletext::Query& query) const;

  /// Answers `query` on a pinned snapshot (from snapshot(), possibly
  /// several epochs old) — several queries against the same pointer see
  /// one consistent epoch even while ingest advances. Uses the query
  /// cache exactly like Query().
  Result<QueryResult> QueryAt(
      const std::shared_ptr<const GraphSnapshot>& snap,
      const stabletext::Query& query) const;

  /// The latest published epoch's read view. Never null; epoch 0 (an
  /// empty snapshot) before the first ingest. Holding the pointer pins
  /// every structure the epoch references.
  std::shared_ptr<const GraphSnapshot> snapshot() const;

  /// Invoked on the writer thread right after every epoch publish
  /// (constructor, Ingest*, Recover), with the snapshot just
  /// made visible. The callback runs inside the ingest path, so it must
  /// be O(1) — hand the pointer to another thread, don't query on it.
  using PublishCallback =
      std::function<void(const std::shared_ptr<const GraphSnapshot>&)>;

  /// Installs (or, with nullptr, clears) the publish callback. Writer-
  /// side: must not race Ingest* — install before ingest starts,
  /// clear after it stops. The serving layer (net::Server) uses this to
  /// learn about new epochs for subscription pushes.
  void SetPublishCallback(PublishCallback cb) {
    AssumeRole role(writer_role_);
    on_publish_ = std::move(cb);
  }

  // Introspection. interval_count/stats are reader-safe; the borrowed
  // references below are writer-side (see the thread contract above).
  // They carry NO_THREAD_SAFETY_ANALYSIS as a *documented escape*: the
  // caller, not the engine, guarantees quiescence, which the analysis
  // cannot see.
  uint32_t interval_count() const {
    return static_cast<uint32_t>(snapshot()->epoch);
  }
  const IntervalResult& interval_result(uint32_t i) const
      NO_THREAD_SAFETY_ANALYSIS {
    return slots_[i]->result;
  }
  const KeywordDict& dict() const NO_THREAD_SAFETY_ANALYSIS {
    return dict_;
  }
  const ClusterGraph& graph() const NO_THREAD_SAFETY_ANALYSIS {
    return graph_;
  }
  /// Ingest-side I/O accounting (per-interval stats summed in order).
  const IoStats& io() const NO_THREAD_SAFETY_ANALYSIS { return io_; }
  /// Point-in-time stats of the latest epoch plus live cache counters.
  EngineStats stats() const;

  /// Renders a chain like the paper's stable-cluster figures: one line per
  /// interval with the cluster's keywords. Resolves keywords through the
  /// published snapshot's word table, so it is safe from reader threads
  /// while ingest runs.
  std::string RenderChain(const StableClusterChain& chain,
                          size_t max_keywords = 8) const;

 private:
  // *Locked bodies of the public writer entry points: public methods
  // assume writer_role_ once and delegate here, so writer methods can
  // call each other without re-acquiring (the analysis rejects a
  // double-assume).
  Result<uint32_t> IngestTextLocked(const std::vector<std::string>& posts)
      REQUIRES(writer_role_);
  // The one tick path: intern, cluster (Section 3), then CommitInterval.
  // A clustering failure rolls interning back and leaves no trace.
  Result<uint32_t> IngestDocumentsLocked(
      std::vector<PackedDocuments> documents) REQUIRES(writer_role_);
  Result<uint32_t> IngestTicksLocked(
      const std::vector<std::vector<std::string>>& ticks,
      const TickCallback& on_tick) REQUIRES(writer_role_);
  // Pool-parallel tokenization of raw posts into chunks of consecutive
  // posts (document order preserved), in flat buffers the writer
  // reserves. InvalidArgument when a chunk's text would overflow their
  // 32-bit offsets.
  Result<std::vector<PackedDocuments>> TokenizePosts(
      const std::vector<std::string>& posts);
  // Serial keyword interning in document order (dictionary ids must be
  // assigned exactly as a sequential run would assign them).
  std::vector<std::vector<KeywordId>> InternDocuments(
      const std::vector<PackedDocuments>& chunks) REQUIRES(writer_role_);
  // Commits a clustered interval: slot adoption, frontier joins, graph
  // extension, WAL record, snapshot publish.
  Result<uint32_t> CommitInterval(std::shared_ptr<SnapshotInterval> slot)
      REQUIRES(writer_role_);
  // A new edge of the cluster graph, by node id. Stored weight: raw for
  // measures without a (0, 1] range, the affinity itself otherwise.
  struct IntervalEdge {
    NodeId from;
    NodeId to;
    double weight;
  };
  // Joins the new interval's clusters against the gap window and extends
  // the graph in place (the incremental half of the old BuildClusterGraph).
  Status ExtendGraph(uint32_t interval) REQUIRES(writer_role_);
  // The graph-extension tail shared by commit and replay: appends
  // interval `interval` with `cluster_count` nodes (cluster j of the
  // interval is its j-th node), updates the running-max scale, adds
  // `edges` and re-sorts the touched adjacency. Edges reference the new nodes by the ids they
  // are about to get (node_count() + cluster index).
  Status GrowGraph(uint32_t interval, size_t cluster_count,
                   const std::vector<IntervalEdge>& edges)
      REQUIRES(writer_role_);
  // Builds and atomically publishes the snapshot for the current state.
  void Publish() REQUIRES(writer_role_);
  // The miss path of Query and QueryAt, after their one cache lookup:
  // runs the finder on `snap` and caches the answer.
  Result<QueryResult> AnswerMiss(const GraphSnapshot& snap,
                                 const stabletext::Query& query) const;
  // Serializes committed interval `interval`'s delta — new keywords
  // since the previous watermark, clusters, per-tick I/O, and its
  // adjacency edges at stored weights — into the blob ReplayInterval
  // consumes, with util/bytes.h (the record codec the wire protocol
  // shares). Used for both the per-commit WAL record and the
  // checkpoint's record for that interval, which are byte-identical
  // (the adjacency is read back from the graph, so nothing per-tick
  // needs retaining).
  std::string SerializeIntervalDelta(uint32_t interval) const
      REQUIRES(writer_role_);
  // Replays one serialized delta: re-interns the words (validating id
  // assignment and, with ByteReader::Fits, every count against the bytes
  // left), adopts the slot and hands the logged edges to GrowGraph — the
  // same tail the commit runs, so a replayed graph matches by
  // construction. The write-side mirror of CommitInterval minus
  // durability and publish.
  Status ReplayInterval(const std::string& blob) REQUIRES(writer_role_);

  // The writer-thread capability: held (via AssumeRole) by whichever
  // single thread is currently allowed to ingest. Zero-cost — it only
  // exists so the annotations below are checkable.
  ThreadRole writer_role_;

  EngineOptions options_;
  // Shared read-only by the tokenizing workers.
  const DocumentProcessor processor_;
  KeywordDict dict_ GUARDED_BY(writer_role_);
  IoStats io_ GUARDED_BY(writer_role_);
  std::vector<std::shared_ptr<const SnapshotInterval>> slots_
      GUARDED_BY(writer_role_);
  std::unique_ptr<ThreadPool> pool_;  // Null when threads <= 1.
  // Cluster j of interval i is node graph_.IntervalNodes(i)[j]: an
  // interval's node ids are dense and contiguous in cluster order (see
  // GraphSnapshot::NodeCluster), so no per-interval map is kept.
  ClusterGraph graph_ GUARDED_BY(writer_role_);
  // Arena discipline for the per-tick gap-window joins (the CommitInterval
  // hot path): one JoinScratch per window position, created on first use
  // and reused every tick, so the flat inverted index and the seen set
  // stop allocating once they reach the stream's high-water mark. Slot i
  // is owned by window job i for the duration of ExtendGraph (jobs may
  // run on pool workers; the per-slot ownership keeps them disjoint).
  std::vector<std::unique_ptr<JoinScratch>> join_scratch_
      GUARDED_BY(writer_role_);
  // Running maximum raw affinity, for measures without a (0, 1] range
  // (kIntersection): edges store the *raw* weight and reads apply the
  // scale 1/max (ClusterGraph::set_weight_scale), so a growing maximum is
  // an O(1) scale update instead of an O(E) rewrite. Every snapshot
  // seals the stored weights and carries the epoch's scale.
  double running_max_affinity_ GUARDED_BY(writer_role_) = 0;
  // Incremental byte accounting for EngineStats::resident_bytes: the
  // first words_counted_ keywords (a string object plus its characters
  // each) and committed cluster payloads.
  size_t words_bytes_ GUARDED_BY(writer_role_) = 0;
  size_t words_counted_ GUARDED_BY(writer_role_) = 0;
  size_t clusters_bytes_ GUARDED_BY(writer_role_) = 0;

  // The published read view; swapped with std::atomic_store at every
  // commit. Readers pin it with std::atomic_load (Engine::snapshot()).
  std::shared_ptr<const GraphSnapshot> snapshot_;
  // The published epoch, stored (release) right before each swap of
  // snapshot_. Query keys its cache lookup on it, so a hit never pins
  // snapshot_.
  std::atomic<uint64_t> published_epoch_{0};

  // Writer-side epoch-publish hook (SetPublishCallback); invoked after
  // every atomic snapshot swap.
  PublishCallback on_publish_ GUARDED_BY(writer_role_);

  // Repeated-query absorber; internally synchronized (sharded).
  mutable std::unique_ptr<QueryCache> cache_;

  // Non-OK after an ingest failed mid-commit: the writer state holds a
  // half-committed interval that must never be published, so further
  // ingest is refused while queries keep serving the last epoch.
  Status broken_ GUARDED_BY(writer_role_);

  // Durability (null unless built by Engine::Recover with
  // options_.durability.enabled): WAL + checkpoint writer, plus the
  // epoch recovery restored (0 for a fresh directory).
  std::unique_ptr<Durability> durability_;
  uint64_t recovered_epoch_ GUARDED_BY(writer_role_) = 0;
};

}  // namespace stabletext

#endif  // STABLETEXT_CORE_ENGINE_H_
