#include "stable/cluster_graph.h"

#include <cmath>

namespace stabletext {

uint32_t ClusterGraph::AddInterval() {
  if (frozen_) {
    frozen_intervals_.push_back(
        std::make_shared<const std::vector<NodeId>>());
  } else {
    intervals_.emplace_back();
  }
  return interval_count_++;
}

NodeId ClusterGraph::AddNode(uint32_t interval) {
  const NodeId id = static_cast<NodeId>(node_count_++);
  if (frozen_) {
    // Late nodes keep the chunked view indexable; they have no adjacency.
    // Cold path: copy-on-write the (partial) tail chunks.
    const size_t chunk = id >> kChunkShift;
    auto append_empty = [&](std::vector<AdjChunkPtr>* chunks) {
      AdjChunk next;
      if (chunk < chunks->size()) {
        next = *(*chunks)[chunk];
        chunks->pop_back();
      } else {
        next.offsets.push_back(0);
      }
      next.offsets.push_back(next.offsets.back());
      chunks->push_back(std::make_shared<const AdjChunk>(std::move(next)));
    };
    append_empty(&child_chunks_);
    append_empty(&parent_chunks_);
    std::vector<uint32_t> meta;
    if (chunk < node_interval_chunks_.size()) {
      meta = *node_interval_chunks_[chunk];
      node_interval_chunks_.pop_back();
    }
    meta.push_back(interval);
    node_interval_chunks_.push_back(
        std::make_shared<const std::vector<uint32_t>>(std::move(meta)));
    std::vector<NodeId> nodes = *frozen_intervals_[interval];
    nodes.push_back(id);
    frozen_intervals_[interval] =
        std::make_shared<const std::vector<NodeId>>(std::move(nodes));
    return id;
  }
  node_interval_.push_back(interval);
  intervals_[interval].push_back(id);
  build_children_.emplace_back();
  build_parents_.emplace_back();
  child_touched_flag_.push_back(0);
  parent_touched_flag_.push_back(0);
  // A new node extends its chunk (and its interval's node list): the next
  // seal must rebuild them.
  MarkChunkDirty(&seal_child_dirty_, id);
  MarkChunkDirty(&seal_parent_dirty_, id);
  MarkChunkDirty(&seal_meta_dirty_, id);
  if (interval < seal_clean_intervals_) seal_clean_intervals_ = interval;
  return id;
}

Status ClusterGraph::AddEdge(NodeId from, NodeId to, double weight) {
  if (frozen_) {
    return Status::InvalidArgument(
        "cluster graph is frozen (SortChildren already called)");
  }
  if (from >= node_count() || to >= node_count()) {
    return Status::InvalidArgument("edge endpoint out of range");
  }
  const uint32_t fi = node_interval_[from];
  const uint32_t ti = node_interval_[to];
  if (ti <= fi) {
    return Status::InvalidArgument("edges must go forward in time");
  }
  if (ti - fi > gap_ + 1) {
    return Status::InvalidArgument("edge exceeds gap bound");
  }
  if (raw_weights_ ? !(weight > 0) || !std::isfinite(weight)
                   : !(weight > 0) || weight > 1) {
    return Status::InvalidArgument(
        raw_weights_ ? "edge weight must be positive and finite"
                     : "edge weight must be in (0, 1]");
  }
  build_children_[from].push_back(ClusterGraphEdge{to, weight});
  build_parents_[to].push_back(ClusterGraphEdge{from, weight});
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

void ClusterGraph::MarkChunkDirty(std::vector<uint8_t>* flags, NodeId n) {
  const size_t chunk = n >> kChunkShift;
  if (chunk >= flags->size()) flags->resize(chunk + 1, 0);
  (*flags)[chunk] = 1;
}

namespace {

// Children: stored weight desc, then target asc (Section 4.3's exploration
// heuristic, and a total order so incremental re-sorts match the freeze).
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
  if (frozen_) return;
  for (NodeId v : touched_children_) {
    std::sort(build_children_[v].begin(), build_children_[v].end(),
              ByWeightDesc);
    child_touched_flag_[v] = 0;
  }
  for (NodeId v : touched_parents_) {
    std::sort(build_parents_[v].begin(), build_parents_[v].end(),
              BySourceAsc);
    parent_touched_flag_[v] = 0;
  }
  touched_children_.clear();
  touched_parents_.clear();
}

void ClusterGraph::MarkAllSealDirty() {
  std::fill(seal_child_dirty_.begin(), seal_child_dirty_.end(), 1);
  std::fill(seal_parent_dirty_.begin(), seal_parent_dirty_.end(), 1);
  std::fill(seal_meta_dirty_.begin(), seal_meta_dirty_.end(), 1);
  seal_clean_intervals_ = 0;
}

ClusterGraph::AdjChunkPtr ClusterGraph::BuildChunk(
    const std::vector<std::vector<ClusterGraphEdge>>& lists, size_t chunk,
    bool materialize_scale) const {
  const size_t base = chunk << kChunkShift;
  const size_t end = std::min(node_count_, base + kChunkNodes);
  AdjChunk out;
  out.offsets.reserve(end - base + 1);
  out.offsets.push_back(0);
  size_t total = 0;
  for (size_t v = base; v < end; ++v) {
    total += lists[v].size();
    out.offsets.push_back(static_cast<uint32_t>(total));
  }
  out.edges.reserve(total);
  for (size_t v = base; v < end; ++v) {
    out.edges.insert(out.edges.end(), lists[v].begin(), lists[v].end());
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
  sealed_node_intervals_.resize(chunks);
  seal_child_dirty_.resize(chunks, 1);
  seal_parent_dirty_.resize(chunks, 1);
  seal_meta_dirty_.resize(chunks, 1);
  for (size_t c = 0; c < chunks; ++c) {
    if (seal_child_dirty_[c] || sealed_children_[c] == nullptr) {
      sealed_children_[c] = BuildChunk(build_children_, c,
                                       materialize_scale);
      seal_child_dirty_[c] = 0;
      ++stats.copied_chunks;
    } else {
      ++stats.shared_chunks;
    }
    if (seal_parent_dirty_[c] || sealed_parents_[c] == nullptr) {
      sealed_parents_[c] = BuildChunk(build_parents_, c,
                                      materialize_scale);
      seal_parent_dirty_[c] = 0;
      ++stats.copied_chunks;
    } else {
      ++stats.shared_chunks;
    }
    if (seal_meta_dirty_[c] || sealed_node_intervals_[c] == nullptr) {
      const size_t base = c << kChunkShift;
      const size_t end = std::min(node_count_, base + kChunkNodes);
      sealed_node_intervals_[c] =
          std::make_shared<const std::vector<uint32_t>>(
              node_interval_.begin() + base, node_interval_.begin() + end);
      seal_meta_dirty_[c] = 0;
    }
  }
  sealed_intervals_.resize(interval_count_);
  for (uint32_t i = 0; i < interval_count_; ++i) {
    if (i >= seal_clean_intervals_ || sealed_intervals_[i] == nullptr) {
      sealed_intervals_[i] =
          std::make_shared<const std::vector<NodeId>>(intervals_[i]);
    }
  }
  seal_clean_intervals_ = interval_count_;
  sealed_materialized_ = materialize_scale;
  sealed_scale_ = weight_scale_;
  return stats;
}

ClusterGraph ClusterGraph::SealedCopy(bool materialize_scale,
                                      SealStats* stats) {
  ClusterGraph out(0, gap_);
  out.interval_count_ = interval_count_;
  out.node_count_ = node_count_;
  out.edge_count_ = edge_count_;
  out.raw_weights_ = raw_weights_;
  out.frozen_ = true;
  if (frozen_) {
    SealStats local;
    if (materialize_scale && weight_scale_ != 1.0) {
      // Terminal-freeze graphs in lazy mode store raw weights; bake the
      // scale into fresh chunks once (O(E), off the streaming hot path).
      auto bake = [&](const std::vector<AdjChunkPtr>& in,
                      std::vector<AdjChunkPtr>* dst) {
        dst->reserve(in.size());
        for (const AdjChunkPtr& chunk : in) {
          AdjChunk scaled = *chunk;
          for (ClusterGraphEdge& e : scaled.edges) {
            e.weight = std::min(e.weight * weight_scale_, 1.0);
          }
          dst->push_back(
              std::make_shared<const AdjChunk>(std::move(scaled)));
          ++local.copied_chunks;
        }
      };
      bake(child_chunks_, &out.child_chunks_);
      bake(parent_chunks_, &out.parent_chunks_);
      out.weight_scale_ = 1.0;
    } else {
      out.child_chunks_ = child_chunks_;
      out.parent_chunks_ = parent_chunks_;
      out.weight_scale_ = weight_scale_;
      local.shared_chunks = child_chunks_.size() + parent_chunks_.size();
    }
    out.node_interval_chunks_ = node_interval_chunks_;
    out.frozen_intervals_ = frozen_intervals_;
    if (stats != nullptr) *stats = local;
    return out;
  }
  const SealStats local = RefreshSeal(materialize_scale);
  if (stats != nullptr) *stats = local;
  out.child_chunks_ = sealed_children_;
  out.parent_chunks_ = sealed_parents_;
  out.node_interval_chunks_ = sealed_node_intervals_;
  out.frozen_intervals_ = sealed_intervals_;
  out.weight_scale_ = materialize_scale ? 1.0 : weight_scale_;
  return out;
}

void ClusterGraph::SortChildren() {
  if (frozen_) return;
  for (auto& list : build_children_) {
    std::sort(list.begin(), list.end(), ByWeightDesc);
  }
  for (auto& list : build_parents_) {
    std::sort(list.begin(), list.end(), BySourceAsc);
  }
  // The terminal freeze keeps stored weights (lazy scale still applies at
  // read time), so sealed chunks from the streaming path stay valid.
  RefreshSeal(/*materialize_scale=*/false);
  child_chunks_ = std::move(sealed_children_);
  parent_chunks_ = std::move(sealed_parents_);
  node_interval_chunks_ = std::move(sealed_node_intervals_);
  frozen_intervals_ = std::move(sealed_intervals_);
  sealed_children_.clear();
  sealed_parents_.clear();
  sealed_node_intervals_.clear();
  sealed_intervals_.clear();
  seal_child_dirty_.clear();
  seal_parent_dirty_.clear();
  seal_meta_dirty_.clear();
  intervals_.clear();
  intervals_.shrink_to_fit();
  node_interval_.clear();
  node_interval_.shrink_to_fit();
  build_children_.clear();
  build_children_.shrink_to_fit();
  build_parents_.clear();
  build_parents_.shrink_to_fit();
  touched_children_.clear();
  touched_parents_.clear();
  child_touched_flag_.clear();
  parent_touched_flag_.clear();
  frozen_ = true;
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
    for (const AdjChunkPtr& c : child_chunks_) bytes += c->MemoryBytes();
    for (const AdjChunkPtr& c : parent_chunks_) bytes += c->MemoryBytes();
    for (const IntervalChunkPtr& c : node_interval_chunks_) {
      bytes += c->capacity() * sizeof(uint32_t);
    }
    for (const IntervalNodesPtr& iv : frozen_intervals_) {
      bytes += sizeof(*iv) + iv->capacity() * sizeof(NodeId);
    }
    return bytes;
  }
  // Build phase: a size-based estimate (capacity ~ size) so per-publish
  // stats stay O(chunks), not O(nodes).
  bytes += node_count_ * sizeof(uint32_t);  // node_interval_
  bytes += node_count_ * sizeof(NodeId);    // intervals_ payloads
  bytes += intervals_.size() * sizeof(std::vector<NodeId>);
  bytes += 2 * node_count_ * sizeof(std::vector<ClusterGraphEdge>);
  bytes += 2 * edge_count_ * sizeof(ClusterGraphEdge);
  for (const AdjChunkPtr& c : sealed_children_) {
    if (c != nullptr) bytes += c->MemoryBytes();
  }
  for (const AdjChunkPtr& c : sealed_parents_) {
    if (c != nullptr) bytes += c->MemoryBytes();
  }
  return bytes;
}

}  // namespace stabletext
