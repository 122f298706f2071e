// The cluster graph G of Section 4.1: nodes are per-interval keyword
// clusters, directed edges connect clusters of nearby intervals (within the
// gap bound) whose affinity exceeds the threshold theta. Edge length is the
// interval distance; edge weight is the affinity, normalized to (0, 1].
//
// Storage model (streaming-first): while building, adjacency lives in
// per-node vectors the writer keeps extending, but only for *live* nodes:
// once no later interval can reach a node (ReleaseSettled, called by a
// streaming writer after each seal), its vectors are dropped and its
// reads go to the sealed chunks, which already hold the same edges.
// The one frozen form is the per-epoch seal (SealedCopy): an immutable
// view whose adjacency and node metadata live in fixed-size CSR *chunks*
// held by shared_ptr, with every node released and every interval
// settled. Sealing an epoch rebuilds only the chunks touched since the
// previous seal and shares every other chunk pointer with it
// (copy-on-write at chunk granularity), so publishing a tick costs
// O(delta), not O(graph), and any number of pinned old epochs stay
// byte-stable while the writer keeps committing. Node metadata (each
// node's interval, each interval's node list) has one copy for the
// writer and its seals: a seal shares its chunks, and the writer copies a
// chunk or list before appending to one a seal holds.
//
// Weights can be stored raw (EnableRawWeights): reads through EdgeSpan then
// apply a per-graph scale (min(raw * scale, 1.0)) so a running-max
// renormalization is a single scale update instead of an O(E) rewrite.

#ifndef STABLETEXT_STABLE_CLUSTER_GRAPH_H_
#define STABLETEXT_STABLE_CLUSTER_GRAPH_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <iterator>
#include <limits>
#include <memory>
#include <vector>

#include "stable/path.h"
#include "util/status.h"

namespace stabletext {

/// Sentinel interval index: what a sealed copy's AddInterval returns.
inline constexpr uint32_t kInvalidInterval = UINT32_MAX;

/// A directed edge to `target` with affinity `weight`.
struct ClusterGraphEdge {
  NodeId target;
  double weight;
};

/// Non-owning view of one node's adjacency list.
///
/// Stored entries may hold raw (unnormalized) weights; iteration and
/// indexing return edges with the graph's read-time scale applied
/// (min(stored * scale, cap) with cap 1 — bit-identical to the stored
/// weight when the scale is 1 and weights are normalized; an infinite cap
/// reads raw weights as stored). Edges are therefore returned by value;
/// binding the usual `const ClusterGraphEdge&` loop variable works as
/// before.
class EdgeSpan {
 public:
  EdgeSpan(const ClusterGraphEdge* data, size_t size, double scale = 1.0,
           double cap = 1.0)
      : data_(data), size_(size), scale_(scale), cap_(cap) {}

  class Iterator {
   public:
    // Multipass over immutable storage: forward, so vector::assign and
    // std::distance size their result in one pass (the edges are
    // returned by value, which forward consumers here never notice).
    using iterator_category = std::forward_iterator_tag;
    using value_type = ClusterGraphEdge;
    using difference_type = std::ptrdiff_t;
    using pointer = const ClusterGraphEdge*;
    using reference = ClusterGraphEdge;

    Iterator(const ClusterGraphEdge* p, double scale, double cap)
        : p_(p), scale_(scale), cap_(cap) {}
    ClusterGraphEdge operator*() const {
      return ClusterGraphEdge{p_->target,
                              std::min(p_->weight * scale_, cap_)};
    }
    Iterator& operator++() {
      ++p_;
      return *this;
    }
    Iterator operator++(int) {
      Iterator old = *this;
      ++p_;
      return old;
    }
    friend bool operator==(const Iterator& a, const Iterator& b) {
      return a.p_ == b.p_;
    }
    friend bool operator!=(const Iterator& a, const Iterator& b) {
      return a.p_ != b.p_;
    }

   private:
    const ClusterGraphEdge* p_;
    double scale_;
    double cap_;
  };

  Iterator begin() const { return Iterator(data_, scale_, cap_); }
  Iterator end() const { return Iterator(data_ + size_, scale_, cap_); }
  size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  ClusterGraphEdge operator[](size_t i) const {
    return ClusterGraphEdge{data_[i].target,
                            std::min(data_[i].weight * scale_, cap_)};
  }

 private:
  const ClusterGraphEdge* data_;
  size_t size_;
  double scale_;
  double cap_;
};

/// \brief Interval-partitioned weighted DAG over cluster nodes.
///
/// Nodes are added per interval; edges may only go forward in time by at
/// most gap+1 intervals and must carry weight in (0, 1] (or any positive
/// weight once EnableRawWeights() arms read-time normalization). Children
/// lists are kept sorted by descending stored weight — the DFS finder's
/// exploration heuristic (Section 4.3: "while precomputing the list of
/// children for all nodes, we sort them in the descending order of edge
/// weights").
///
/// Two phases: while building, adjacency lives in per-node vectors (for
/// nodes not yet released by ReleaseSettled; released nodes read from the
/// seal cache); SealedCopy() produces an immutable chunked-CSR view per
/// epoch (O(delta): untouched chunks are shared with the previous seal).
/// A sealed copy takes no nodes or edges.
class ClusterGraph {
 public:
  /// Nodes per immutable chunk (power of two). A committed tick touches
  /// only the chunks covering its gap window, so per-epoch sealing
  /// rebuilds O(window / kChunkNodes + 1) chunks.
  static constexpr size_t kChunkShift = 9;
  static constexpr size_t kChunkNodes = size_t{1} << kChunkShift;
  static constexpr size_t kChunkMask = kChunkNodes - 1;

  /// One immutable CSR chunk: the adjacency of nodes
  /// [chunk * kChunkNodes, chunk * kChunkNodes + offsets.size() - 1).
  struct AdjChunk {
    std::vector<uint32_t> offsets;  ///< Relative; size = nodes in chunk + 1.
    std::vector<ClusterGraphEdge> edges;

    size_t MemoryBytes() const {
      return sizeof(*this) + offsets.capacity() * sizeof(uint32_t) +
             edges.capacity() * sizeof(ClusterGraphEdge);
    }
  };

  /// Chunk accounting of one SealedCopy() call.
  struct SealStats {
    size_t shared_chunks = 0;  ///< Reused pointers (children + parents).
    size_t copied_chunks = 0;  ///< Rebuilt chunks (children + parents).
  };

  /// \param interval_count m, the number of temporal intervals.
  /// \param gap g >= 0; edges span at most gap+1 intervals.
  ClusterGraph(uint32_t interval_count, uint32_t gap);

  // A copy would share node metadata that both graphs then append to;
  // SealedCopy() is the copy that shares it safely.
  ClusterGraph(const ClusterGraph&) = delete;
  ClusterGraph& operator=(const ClusterGraph&) = delete;
  ClusterGraph(ClusterGraph&&) = default;
  ClusterGraph& operator=(ClusterGraph&&) = default;

  /// Appends a new (empty) temporal interval and returns its index. The
  /// streaming entry point: a graph constructed with interval_count 0
  /// grows one interval per ingested tick. A sealed copy refuses: it
  /// returns kInvalidInterval and stays unchanged.
  uint32_t AddInterval();

  /// Adds a node to interval `interval` (0-based). Returns its id, or
  /// kInvalidNode when `interval` is settled (see ReleaseSettled) or the
  /// graph is a sealed copy.
  NodeId AddNode(uint32_t interval);

  /// Adds a directed edge. Requires interval(from) < interval(to),
  /// interval distance <= gap+1, and weight in (0, 1] — or merely a
  /// positive finite weight in raw-weights mode, where reads normalize.
  /// Fails on a sealed copy, and for an endpoint in a settled interval.
  Status AddEdge(NodeId from, NodeId to, double weight);

  /// \brief Settles intervals [0, `end`): they take no more nodes or
  /// edges, and the build-phase adjacency lists of their nodes are freed.
  ///
  /// A streaming writer calls this after each seal with the intervals the
  /// gap window has left behind. Released nodes are the id prefix below
  /// the first node of any interval >= `end`; Children(), Parents() and
  /// StoredParents() read them from the seal cache, and a later seal
  /// rebuilds a chunk that mixes them with live nodes from the previous
  /// chunk plus the live lists. Requires the last SealedCopy() to have
  /// covered every released node after its last AddEdge, with stored
  /// weights (materialize_scale false); later seals keep stored weights
  /// in the cache, and SealedCopy(true) bakes the scale into its copy.
  /// InvalidArgument otherwise, leaving the graph unchanged. A no-op on a
  /// sealed copy or when `end` is not past the settled intervals.
  Status ReleaseSettled(uint32_t end);

  /// Intervals settled by ReleaseSettled.
  uint32_t settled_intervals() const { return settled_intervals_; }

  /// Re-sorts the adjacency lists touched by AddEdge since the last sort:
  /// children by descending stored weight (stable order: weight desc,
  /// then target asc), parents by source id. The graph stays extendable;
  /// queries between ingests and SealedCopy() rely on this order.
  /// O(touched lists) per call.
  void SortTouched();

  /// Accepts weights outside (0, 1]: AddEdge then only requires a
  /// positive finite weight, and callers are expected to normalize at
  /// read time via set_weight_scale. Build phase only.
  void EnableRawWeights() { raw_weights_ = true; }

  /// Read-time weight scale: every EdgeSpan read returns
  /// min(stored * scale, 1.0). Updating the scale re-normalizes the whole
  /// graph in O(1), instead of rewriting every stored weight.
  void set_weight_scale(double scale) { weight_scale_ = scale; }
  double weight_scale() const { return weight_scale_; }

  /// \brief O(delta) frozen chunk-shared copy — the per-epoch seal.
  ///
  /// Returns an immutable (frozen) view of the current graph: chunks
  /// covering nodes untouched since the previous SealedCopy() are shared
  /// by pointer with it; only dirtied chunks are rebuilt. Requires the
  /// adjacency lists to be in sorted order (SortTouched after the last
  /// AddEdge batch). Chunks keep stored weights and the copy inherits the
  /// scale; with `materialize_scale` the rebuilt chunks instead store
  /// min(weight * weight_scale(), 1.0) and the copy reads at scale 1 (a
  /// scale change then dirties every chunk, and after ReleaseSettled
  /// every chunk of the copy is baked afresh). The engine never
  /// materializes; the flag stays for the layer replay in benchmark/.
  /// Sealing a sealed copy shares every chunk (or bakes fresh ones when
  /// materializing a scale). `stats`, when non-null, receives the
  /// shared/copied counts.
  ClusterGraph SealedCopy(bool materialize_scale = false,
                          SealStats* stats = nullptr);

  /// True when this graph was produced by SealedCopy().
  bool frozen() const { return frozen_; }

  uint32_t interval_count() const { return interval_count_; }
  uint32_t gap() const { return gap_; }
  size_t node_count() const { return node_count_; }
  size_t edge_count() const { return edge_count_; }

  uint32_t Interval(NodeId n) const {
    return (*node_interval_chunks_[n >> kChunkShift])[n & kChunkMask];
  }
  const std::vector<NodeId>& IntervalNodes(uint32_t interval) const {
    return *interval_nodes_[interval];
  }

  EdgeSpan Children(NodeId n) const {
    return AdjSpan(sealed_children_, build_children_, n, weight_scale_);
  }
  EdgeSpan Parents(NodeId n) const {
    return AdjSpan(sealed_parents_, build_parents_, n, weight_scale_);
  }
  /// Parents at *stored* weights (scale 1, no cap), bypassing the
  /// read-time normalization: raw weights above 1 read as stored. The
  /// durability log serializes these so replaying AddEdge reproduces the
  /// stored bits — and the running-max scale — exactly.
  EdgeSpan StoredParents(NodeId n) const {
    return AdjSpan(sealed_parents_, build_parents_, n, 1.0,
                   std::numeric_limits<double>::infinity());
  }

  /// Length of the edge (a, b) in intervals.
  uint32_t EdgeLength(NodeId a, NodeId b) const {
    return Interval(b) - Interval(a);
  }

  /// Weight of the edge (a, b); -1 when absent. A graph has at most one
  /// edge per ordered pair.
  double EdgeWeight(NodeId a, NodeId b) const {
    for (const ClusterGraphEdge& e : Children(a)) {
      if (e.target == b) return e.weight;
    }
    return -1;
  }

  /// Maximum out-degree (the d of Section 4.4's cost analysis).
  size_t MaxOutDegree() const;

  /// Approximate resident bytes of the adjacency structure. Chunks shared
  /// with other epochs are counted once per graph (the paper's streaming
  /// setting shares them across every live snapshot).
  size_t MemoryBytes() const;

  // Chunk introspection (sealed copies), for the chunk-sharing tests.
  size_t chunk_count() const { return sealed_children_.size(); }
  std::shared_ptr<const AdjChunk> child_chunk(size_t chunk) const {
    return sealed_children_[chunk];
  }
  std::shared_ptr<const AdjChunk> parent_chunk(size_t chunk) const {
    return sealed_parents_[chunk];
  }

 private:
  using AdjChunkPtr = std::shared_ptr<const AdjChunk>;
  // Node metadata is appended in place while this graph alone holds it
  // (see the owned_* members), so these point at mutable vectors.
  using IntervalChunkPtr = std::shared_ptr<std::vector<uint32_t>>;
  using IntervalNodesPtr = std::shared_ptr<std::vector<NodeId>>;

  using AdjLists = std::deque<std::vector<ClusterGraphEdge>>;

  // Node n's adjacency: from the seal `chunks` for a released node (every
  // node of a sealed copy) or from its live build-phase list.
  EdgeSpan AdjSpan(const std::vector<AdjChunkPtr>& chunks,
                   const AdjLists& lists, NodeId n, double scale,
                   double cap = 1.0) const {
    if (n < live_base_) {
      const AdjChunk& c = *chunks[n >> kChunkShift];
      const uint32_t i = static_cast<uint32_t>(n & kChunkMask);
      return EdgeSpan(c.edges.data() + c.offsets[i],
                      c.offsets[i + 1] - c.offsets[i], scale, cap);
    }
    const std::vector<ClusterGraphEdge>& list = lists[n - live_base_];
    return EdgeSpan(list.data(), list.size(), scale, cap);
  }

  // Builds the chunk covering nodes [chunk*kChunkNodes, ...) from the
  // live build-phase `lists`, copying released nodes from `previous` (the
  // chunk's last seal), optionally materializing the read scale.
  AdjChunkPtr BuildChunk(const AdjLists& lists, const AdjChunkPtr& previous,
                         size_t chunk, bool materialize_scale) const;

  // Refreshes the seal cache (sealed_* members) from the build-phase
  // state, rebuilding only dirty chunks. Returns chunk accounting.
  SealStats RefreshSeal(bool materialize_scale);

  // Forces the next RefreshSeal() to rebuild every chunk.
  void MarkAllSealDirty();

  // Marks node `n`'s chunk dirty in `flags` (growing it as needed).
  void MarkChunkDirty(std::vector<uint8_t>* flags, NodeId n);

  // Records node `id` of `interval` in the node metadata, first copying
  // the chunk or node list it extends if a sealed copy shares it.
  void AppendNodeMeta(NodeId id, uint32_t interval);

  // Marks all node metadata shared, as a sealed copy is about to hold it
  // (the node lists just appended to are trimmed to size first).
  void ShareNodeMeta();

  uint32_t interval_count_;
  uint32_t gap_;
  size_t node_count_ = 0;
  size_t edge_count_ = 0;
  bool frozen_ = false;
  bool raw_weights_ = false;
  double weight_scale_ = 1.0;

  // ---- node metadata, both phases: each node's interval in chunks of
  // kChunkNodes, and each interval's node list. Sealed copies share the
  // pointers; copy on write keeps what they hold unchanged. ----
  std::vector<IntervalChunkPtr> node_interval_chunks_;
  std::vector<IntervalNodesPtr> interval_nodes_;
  // Whether this graph alone holds the last metadata chunk and each
  // interval's node list (created or copied since the last share), and
  // the intervals whose lists it holds alone.
  bool owned_tail_chunk_ = false;
  std::vector<uint8_t> owned_interval_;
  std::vector<uint32_t> owned_intervals_;

  // ---- build-phase state (empty in a sealed copy) ----
  // Adjacency lists of the live nodes [live_base_, node_count_), indexed
  // from live_base_; released nodes read the seal cache instead.
  AdjLists build_children_;
  AdjLists build_parents_;
  NodeId live_base_ = 0;
  uint32_t settled_intervals_ = 0;
  // Edge entries (children + parents) freed by ReleaseSettled.
  size_t released_entries_ = 0;
  // Nodes whose build-phase lists gained edges since the last sort.
  std::vector<NodeId> touched_children_;
  std::vector<NodeId> touched_parents_;
  std::vector<uint8_t> child_touched_flag_;
  std::vector<uint8_t> parent_touched_flag_;

  // ---- seal cache: the chunks of the last SealedCopy, shared with every
  // epoch that still pins them (a sealed copy's own adjacency); per-chunk
  // dirty bits track what the next seal must rebuild. ----
  std::vector<AdjChunkPtr> sealed_children_;
  std::vector<AdjChunkPtr> sealed_parents_;
  std::vector<uint8_t> seal_child_dirty_;
  std::vector<uint8_t> seal_parent_dirty_;
  bool sealed_materialized_ = false;
  double sealed_scale_ = 1.0;
};

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_CLUSTER_GRAPH_H_
