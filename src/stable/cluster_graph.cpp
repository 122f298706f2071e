#include "stable/cluster_graph.h"

#include <cassert>
#include <cmath>

namespace stabletext {

ClusterGraph::ClusterGraph(uint32_t interval_count, uint32_t gap)
    : interval_count_(0), gap_(gap) {
  while (interval_count_ < interval_count) AddInterval();
}

uint32_t ClusterGraph::AddInterval() {
  if (frozen_) return kInvalidInterval;
  interval_nodes_.push_back(std::make_shared<std::vector<NodeId>>());
  owned_interval_.push_back(1);
  owned_intervals_.push_back(interval_count_);
  return interval_count_++;
}

void ClusterGraph::AppendNodeMeta(NodeId id, uint32_t interval) {
  if ((id & kChunkMask) == 0 || !owned_tail_chunk_) {
    // A fresh chunk, or a private copy of the shared tail, reserved in
    // full: at most one partial chunk exists, and a full one has no slack.
    auto chunk = std::make_shared<std::vector<uint32_t>>();
    chunk->reserve(kChunkNodes);
    if ((id & kChunkMask) != 0) {
      chunk->assign(node_interval_chunks_.back()->begin(),
                    node_interval_chunks_.back()->end());
      node_interval_chunks_.pop_back();
    }
    node_interval_chunks_.push_back(std::move(chunk));
    owned_tail_chunk_ = true;
  }
  node_interval_chunks_.back()->push_back(interval);
  if (!owned_interval_[interval]) {
    interval_nodes_[interval] =
        std::make_shared<std::vector<NodeId>>(*interval_nodes_[interval]);
    owned_interval_[interval] = 1;
    owned_intervals_.push_back(interval);
  }
  interval_nodes_[interval]->push_back(id);
}

void ClusterGraph::ShareNodeMeta() {
  for (uint32_t i : owned_intervals_) {
    interval_nodes_[i]->shrink_to_fit();
    owned_interval_[i] = 0;
  }
  owned_intervals_.clear();
  owned_tail_chunk_ = false;
}

NodeId ClusterGraph::AddNode(uint32_t interval) {
  if (frozen_ || interval < settled_intervals_) return kInvalidNode;
  const NodeId id = static_cast<NodeId>(node_count_++);
  AppendNodeMeta(id, interval);
  build_children_.emplace_back();
  build_parents_.emplace_back();
  child_touched_flag_.push_back(0);
  parent_touched_flag_.push_back(0);
  // A new node extends its chunk: the next seal must rebuild it.
  MarkChunkDirty(&seal_child_dirty_, id);
  MarkChunkDirty(&seal_parent_dirty_, id);
  return id;
}

Status ClusterGraph::AddEdge(NodeId from, NodeId to, double weight) {
  if (frozen_) {
    return Status::InvalidArgument("a sealed cluster graph takes no edges");
  }
  if (from >= node_count() || to >= node_count()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  const uint32_t fi = Interval(from);
  const uint32_t ti = Interval(to);
  if (ti <= fi) {
    return Status::InvalidArgument("edges must go forward in time");
  }
  if (ti - fi > gap_ + 1) {
    return Status::InvalidArgument("edge exceeds gap bound");
  }
  // Released nodes all lie in settled intervals, and `to` is later.
  if (fi < settled_intervals_) {
    return Status::InvalidArgument("edge source is in a settled interval");
  }
  if (raw_weights_ ? !(weight > 0) || !std::isfinite(weight)
                   : !(weight > 0) || weight > 1) {
    return Status::InvalidArgument(
        raw_weights_ ? "edge weight must be positive and finite"
                     : "edge weight must be in (0, 1]");
  }
  build_children_[from - live_base_].push_back(
      ClusterGraphEdge{to, weight});
  build_parents_[to - live_base_].push_back(
      ClusterGraphEdge{from, weight});
  if (!child_touched_flag_[from]) {
    child_touched_flag_[from] = 1;
    touched_children_.push_back(from);
  }
  if (!parent_touched_flag_[to]) {
    parent_touched_flag_[to] = 1;
    touched_parents_.push_back(to);
  }
  MarkChunkDirty(&seal_child_dirty_, from);
  MarkChunkDirty(&seal_parent_dirty_, to);
  ++edge_count_;
  return Status::OK();
}

Status ClusterGraph::ReleaseSettled(uint32_t end) {
  if (frozen_ || end <= settled_intervals_) return Status::OK();
  if (end > interval_count_) {
    return Status::InvalidArgument("cannot settle intervals not yet added");
  }
  // Nodes are numbered in creation order, so each interval's list is
  // ascending and the released nodes are the ids below `base`.
  NodeId base = static_cast<NodeId>(node_count_);
  for (uint32_t i = end; i < interval_count_; ++i) {
    const std::vector<NodeId>& nodes = *interval_nodes_[i];
    if (!nodes.empty()) base = std::min(base, nodes.front());
  }
  if (base > live_base_) {
    auto unsealed = [&] {
      if (sealed_materialized_) return true;
      for (size_t c = live_base_ >> kChunkShift;
           c <= (size_t{base} - 1) >> kChunkShift; ++c) {
        if (c >= sealed_children_.size() || sealed_children_[c] == nullptr ||
            sealed_parents_[c] == nullptr || seal_child_dirty_[c] ||
            seal_parent_dirty_[c]) {
          return true;
        }
      }
      auto below = [&](const std::vector<NodeId>& touched) {
        return std::any_of(touched.begin(), touched.end(),
                           [&](NodeId v) { return v < base; });
      };
      return below(touched_children_) || below(touched_parents_);
    };
    if (unsealed()) {
      return Status::InvalidArgument(
          "settled nodes need a sorted seal with stored weights first");
    }
    for (NodeId v = live_base_; v < base; ++v) {
      released_entries_ +=
          build_children_.front().size() + build_parents_.front().size();
      build_children_.pop_front();
      build_parents_.pop_front();
    }
    live_base_ = base;
  }
  settled_intervals_ = end;
  return Status::OK();
}

void ClusterGraph::MarkChunkDirty(std::vector<uint8_t>* flags, NodeId n) {
  const size_t chunk = n >> kChunkShift;
  if (chunk >= flags->size()) flags->resize(chunk + 1, 0);
  (*flags)[chunk] = 1;
}

namespace {

// Children: stored weight desc, then target asc (Section 4.3's exploration
// heuristic, and a total order so a list's order never depends on the
// order its edges arrived in).
bool ByWeightDesc(const ClusterGraphEdge& a, const ClusterGraphEdge& b) {
  if (a.weight != b.weight) return a.weight > b.weight;
  return a.target < b.target;
}

// Parents sorted by source id: deterministic iteration for the BFS
// finder's parent probes.
bool BySourceAsc(const ClusterGraphEdge& a, const ClusterGraphEdge& b) {
  return a.target < b.target;
}

}  // namespace

void ClusterGraph::SortTouched() {
  for (NodeId v : touched_children_) {
    std::vector<ClusterGraphEdge>& list = build_children_[v - live_base_];
    std::sort(list.begin(), list.end(), ByWeightDesc);
    child_touched_flag_[v] = 0;
  }
  for (NodeId v : touched_parents_) {
    std::vector<ClusterGraphEdge>& list = build_parents_[v - live_base_];
    std::sort(list.begin(), list.end(), BySourceAsc);
    parent_touched_flag_[v] = 0;
  }
  touched_children_.clear();
  touched_parents_.clear();
}

void ClusterGraph::MarkAllSealDirty() {
  std::fill(seal_child_dirty_.begin(), seal_child_dirty_.end(), 1);
  std::fill(seal_parent_dirty_.begin(), seal_parent_dirty_.end(), 1);
}

ClusterGraph::AdjChunkPtr ClusterGraph::BuildChunk(
    const AdjLists& lists, const AdjChunkPtr& previous, size_t chunk,
    bool materialize_scale) const {
  const size_t base = chunk << kChunkShift;
  const size_t end = std::min(node_count_, base + kChunkNodes);
  // Released nodes [base, released_end) keep their edges from the last
  // seal, which stored unscaled weights (ReleaseSettled checks, and
  // SealedCopy never materializes into the cache after a release).
  const size_t released_end = std::clamp<size_t>(live_base_, base, end);
  assert(released_end == base ||
         (previous != nullptr && !materialize_scale &&
          previous->offsets.size() > released_end - base));
  auto list = [&](size_t v) {
    if (v < released_end) {
      const uint32_t* o = previous->offsets.data() + (v - base);
      return std::make_pair(previous->edges.data() + o[0],
                            previous->edges.data() + o[1]);
    }
    const std::vector<ClusterGraphEdge>& live = lists[v - live_base_];
    return std::make_pair(live.data(), live.data() + live.size());
  };
  AdjChunk out;
  out.offsets.reserve(end - base + 1);
  out.offsets.push_back(0);
  size_t total = 0;
  for (size_t v = base; v < end; ++v) {
    const auto [first, last] = list(v);
    total += static_cast<size_t>(last - first);
    out.offsets.push_back(static_cast<uint32_t>(total));
  }
  out.edges.reserve(total);
  for (size_t v = base; v < end; ++v) {
    const auto [first, last] = list(v);
    out.edges.insert(out.edges.end(), first, last);
  }
  if (materialize_scale) {
    for (ClusterGraphEdge& e : out.edges) {
      e.weight = std::min(e.weight * weight_scale_, 1.0);
    }
  }
  return std::make_shared<const AdjChunk>(std::move(out));
}

ClusterGraph::SealStats ClusterGraph::RefreshSeal(bool materialize_scale) {
  // A scale-mode change invalidates every materialized chunk (the baked
  // weights differ), as does flipping materialization on or off.
  if (materialize_scale != sealed_materialized_ ||
      (materialize_scale && weight_scale_ != sealed_scale_)) {
    MarkAllSealDirty();
  }
  const size_t chunks = (node_count_ + kChunkNodes - 1) >> kChunkShift;
  SealStats stats;
  sealed_children_.resize(chunks);
  sealed_parents_.resize(chunks);
  // A chunk not built yet is null; a sealed copy keeps no dirty bits, as
  // nothing can change its chunks.
  seal_child_dirty_.resize(chunks, 0);
  seal_parent_dirty_.resize(chunks, 0);
  for (size_t c = 0; c < chunks; ++c) {
    if (seal_child_dirty_[c] || sealed_children_[c] == nullptr) {
      sealed_children_[c] = BuildChunk(build_children_, sealed_children_[c],
                                       c, materialize_scale);
      seal_child_dirty_[c] = 0;
      ++stats.copied_chunks;
    } else {
      ++stats.shared_chunks;
    }
    if (seal_parent_dirty_[c] || sealed_parents_[c] == nullptr) {
      sealed_parents_[c] = BuildChunk(build_parents_, sealed_parents_[c],
                                      c, materialize_scale);
      seal_parent_dirty_[c] = 0;
      ++stats.copied_chunks;
    } else {
      ++stats.shared_chunks;
    }
  }
  // The node metadata is current already; the seal shares it as is.
  ShareNodeMeta();
  sealed_materialized_ = materialize_scale;
  sealed_scale_ = weight_scale_;
  return stats;
}

ClusterGraph ClusterGraph::SealedCopy(bool materialize_scale,
                                      SealStats* stats) {
  // Released nodes' edges live only in the seal cache, which must keep
  // stored weights: once any node is released (every node of a sealed
  // copy), a materialized copy bakes the scale into its own chunks and
  // leaves the cache unscaled.
  const bool bake_copy = materialize_scale && live_base_ > 0;
  SealStats local = RefreshSeal(materialize_scale && !bake_copy);
  ClusterGraph out(0, gap_);
  out.interval_count_ = interval_count_;
  out.node_count_ = node_count_;
  out.edge_count_ = edge_count_;
  out.raw_weights_ = raw_weights_;
  out.frozen_ = true;
  out.live_base_ = static_cast<NodeId>(node_count_);
  out.settled_intervals_ = interval_count_;
  out.weight_scale_ = materialize_scale ? 1.0 : weight_scale_;
  if (bake_copy) {
    // Fresh chunks with the scale baked in (O(E), off the streaming path).
    auto bake = [&](const std::vector<AdjChunkPtr>& in,
                    std::vector<AdjChunkPtr>* dst) {
      dst->reserve(in.size());
      for (const AdjChunkPtr& chunk : in) {
        AdjChunk scaled = *chunk;
        for (ClusterGraphEdge& e : scaled.edges) {
          e.weight = std::min(e.weight * weight_scale_, 1.0);
        }
        dst->push_back(std::make_shared<const AdjChunk>(std::move(scaled)));
        ++local.copied_chunks;
      }
    };
    bake(sealed_children_, &out.sealed_children_);
    bake(sealed_parents_, &out.sealed_parents_);
  } else {
    out.sealed_children_ = sealed_children_;
    out.sealed_parents_ = sealed_parents_;
  }
  if (stats != nullptr) *stats = local;
  out.node_interval_chunks_ = node_interval_chunks_;
  out.interval_nodes_ = interval_nodes_;
  out.owned_interval_.assign(interval_count_, 0);
  return out;
}

size_t ClusterGraph::MaxOutDegree() const {
  size_t d = 0;
  for (NodeId v = 0; v < node_count(); ++v) {
    d = std::max(d, Children(v).size());
  }
  return d;
}

size_t ClusterGraph::MemoryBytes() const {
  size_t bytes = sizeof(*this);
  if (frozen_) {
    for (const AdjChunkPtr& c : sealed_children_) bytes += c->MemoryBytes();
    for (const AdjChunkPtr& c : sealed_parents_) bytes += c->MemoryBytes();
    // Node metadata by size: the partial tail chunk's reserved capacity
    // is mostly untouched pages.
    for (const IntervalChunkPtr& c : node_interval_chunks_) {
      bytes += c->size() * sizeof(uint32_t);
    }
    for (const IntervalNodesPtr& iv : interval_nodes_) {
      bytes += sizeof(*iv) + iv->size() * sizeof(NodeId);
    }
    return bytes;
  }
  // Build phase: a size-based estimate (capacity ~ size) so per-publish
  // stats stay O(chunks), not O(nodes).
  bytes += node_count_ * sizeof(uint32_t);  // Node -> interval chunks.
  bytes += node_count_ * sizeof(NodeId);    // Interval node lists.
  bytes += interval_count_ * sizeof(std::vector<NodeId>);
  // Adjacency lists exist for live nodes only.
  bytes += 2 * (node_count_ - live_base_) *
           sizeof(std::vector<ClusterGraphEdge>);
  bytes += (2 * edge_count_ - released_entries_) * sizeof(ClusterGraphEdge);
  for (const AdjChunkPtr& c : sealed_children_) {
    if (c != nullptr) bytes += c->MemoryBytes();
  }
  for (const AdjChunkPtr& c : sealed_parents_) {
    if (c != nullptr) bytes += c->MemoryBytes();
  }
  return bytes;
}

}  // namespace stabletext
