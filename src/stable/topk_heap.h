// Fixed-capacity top-k container for paths, with duplicate rejection and a
// pluggable total order. Used for the per-node heaps h^x_ij of Algorithm 2,
// the bestpaths structures of Algorithm 3, and the global heap H everywhere.
//
// A heap pays per admitted path, not per offer: admission is decided
// before anything is copied, an admitted path overwrites the evicted
// slot's node buffer, and Clear() keeps the buffers for the next fill. So
// a full heap whose buffers have seen paths as long admits without
// allocating. The memory model charges the paper's heap (its capacity,
// order and path vector) plus each held path, kept as a running sum, not
// the buffers this class keeps spare.
//
// HeapPool recycles whole heaps for the finders that make many: the BFS
// sweep takes a node's heaps as its interval is built and gives them back
// as the interval leaves the window; the DFS takes a node's bestpaths
// heaps as paths are admitted and gives them all back when the query
// ends, and the pool is freed if it would then keep more than the DFS's
// bound. A heap given back keeps its path vectors and node buffers, so
// the next heap taken from a warm pool fills without allocating.

#ifndef STABLETEXT_STABLE_TOPK_HEAP_H_
#define STABLETEXT_STABLE_TOPK_HEAP_H_

#include <algorithm>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <vector>

#include "stable/path.h"

namespace stabletext {

/// \brief Keeps the k best paths under a strict total order `Better`.
///
/// Backed by a sorted vector (best first); k is small in all of the paper's
/// experiments (top-5), so O(k) inserts beat a real heap in practice and
/// give deterministic iteration order for free.
template <typename Better = PathBetter>
class TopKHeap {
  // What the memory model charges a heap for: its capacity, its order and
  // its path vector.
  struct ModelledHeap {
    size_t k;
    Better better;
    std::vector<StablePath> paths;
  };

 public:
  /// Bytes the memory model charges a heap that holds no path.
  static constexpr size_t kEmptyBytes = sizeof(ModelledHeap);

  using PathVector = std::vector<StablePath>;

  explicit TopKHeap(size_t k = 0, Better better = Better())
      : k_(k), better_(better) {}

  /// Offers a path. Returns true if it was admitted (strictly better than
  /// the current k-th or capacity not yet reached, and not a duplicate).
  bool Offer(const StablePath& path) {
    if (k_ == 0) return false;
    if (paths_.size() == k_ && !better_(path, paths_.back())) return false;
    // Duplicate rejection (identical node sequences).
    for (const StablePath& p : paths_) {
      if (p == path) return false;
    }
    const size_t pos = static_cast<size_t>(
        std::lower_bound(paths_.begin(), paths_.end(), path, better_) -
        paths_.begin());
    // The slot that takes the path: the evicted k-th path's when full,
    // else a spare from an earlier fill, else a new one.
    if (paths_.size() == k_) {
      path_bytes_ -= BytesOf(paths_.back());
    } else if (!spare_.empty()) {
      paths_.push_back(std::move(spare_.back()));
      spare_.pop_back();
    } else {
      paths_.emplace_back();
    }
    StablePath& slot = paths_.back();
    slot.nodes.assign(path.nodes.begin(), path.nodes.end());
    slot.weight = path.weight;
    slot.length = path.length;
    path_bytes_ += BytesOf(slot);
    std::rotate(paths_.begin() + pos, paths_.end() - 1, paths_.end());
    return true;
  }

  bool empty() const { return paths_.empty(); }
  bool full() const { return paths_.size() == k_; }
  size_t size() const { return paths_.size(); }
  size_t capacity() const { return k_; }

  /// Weight of the worst retained path; the "min-k" of Algorithm 3.
  /// For a non-full heap (including empty, and any k = 0 heap) there is
  /// no k-th path yet, so the pruning bound is the documented sentinel
  /// -infinity — reading paths_.back() here was UB before. Current
  /// finders call this only under full(); the sentinel keeps future
  /// call sites from silently reading garbage.
  double MinWeight() const {
    assert(k_ > 0 && "MinWeight on a k=0 heap is always -infinity");
    if (paths_.size() < k_ || paths_.empty()) {
      return -std::numeric_limits<double>::infinity();
    }
    return paths_.back().weight;
  }

  /// Best-first view.
  const PathVector& paths() const { return paths_; }

  /// Modelled bytes of the held paths alone.
  size_t PathBytes() const { return path_bytes_; }

  /// Modelled bytes of the heap and its paths (memory experiments).
  size_t MemoryBytes() const { return kEmptyBytes + path_bytes_; }

  /// Empties the heap; the paths' buffers are kept for the next fill.
  void Clear() {
    for (StablePath& p : paths_) spare_.push_back(std::move(p));
    paths_.clear();
    path_bytes_ = 0;
  }

  /// Empties the heap and makes its capacity k; buffers are kept.
  void Reset(size_t k) {
    Clear();
    k_ = k;
  }

  /// Bytes the heap has allocated, held paths and spares alike: its path
  /// vectors, as Clear() will leave them, and every node buffer.
  size_t BufferBytes() const {
    const size_t slots =
        paths_.capacity() +
        std::max(spare_.capacity(), spare_.size() + paths_.size());
    size_t bytes = slots * sizeof(StablePath);
    for (const PathVector* v : {&paths_, &spare_}) {
      for (const StablePath& p : *v) {
        bytes += p.nodes.capacity() * sizeof(NodeId);
      }
    }
    return bytes;
  }

 private:
  // Bytes the memory model charges for holding `path`.
  static size_t BytesOf(const StablePath& path) {
    return sizeof(StablePath) + path.nodes.size() * sizeof(NodeId);
  }

  size_t k_;
  Better better_;
  PathVector paths_;
  PathVector spare_;       // Emptied slots, buffers kept.
  size_t path_bytes_ = 0;  // Sum of BytesOf over paths_.
};

/// \brief Recycles TopKHeap<>s of any k, named by index.
///
/// Take() hands out the heap given back last, else the next heap not
/// taken since the last GiveAll(), else a new one; so a holder that takes
/// heaps in the order it did before GiveAll() gets the same heaps, with
/// buffers sized for what they held. A heap stays put while others are
/// taken, so a reference to one stays valid until it is given back.
class HeapPool {
 public:
  /// Takes an empty heap of capacity k.
  uint32_t Take(size_t k) {
    uint32_t heap;
    if (!free_.empty()) {
      heap = free_.back();
      free_.pop_back();
    } else {
      if (used_ == slots_.size()) slots_.emplace_back();
      heap = used_++;
    }
    slots_[heap].heap.Reset(k);
    return heap;
  }

  TopKHeap<>& operator[](uint32_t heap) { return slots_[heap].heap; }
  const TopKHeap<>& operator[](uint32_t heap) const {
    return slots_[heap].heap;
  }

  /// A link that the holder of a taken heap may set, say to chain its
  /// heaps; the pool does not read it.
  uint32_t& Link(uint32_t heap) { return slots_[heap].link; }

  /// Gives a taken heap back.
  void Give(uint32_t heap) {
    slots_[heap].heap.Clear();
    free_.push_back(heap);
  }

  /// Gives every heap back; if the pool would then keep more than
  /// `max_bytes` of heaps and buffers, frees them all instead.
  void GiveAll(size_t max_bytes) {
    for (uint32_t heap = 0; heap < used_; ++heap) {
      Slot& slot = slots_[heap];
      retained_ -= slot.bytes;
      slot.bytes = slot.heap.BufferBytes();
      retained_ += slot.bytes;
    }
    if (RetainedBytes() > max_bytes) {
      *this = HeapPool();
      return;
    }
    for (uint32_t heap = 0; heap < used_; ++heap) slots_[heap].heap.Clear();
    used_ = 0;
    free_.clear();
  }

  /// Bytes the pool keeps for its heaps and their buffers, as of the last
  /// GiveAll().
  size_t RetainedBytes() const {
    return slots_.size() * sizeof(Slot) + retained_;
  }

 private:
  struct Slot {
    TopKHeap<> heap;
    size_t bytes = 0;   // heap.BufferBytes() as of the last GiveAll().
    uint32_t link = 0;  // The holder's.
  };

  std::deque<Slot> slots_;
  std::vector<uint32_t> free_;  // Heaps given back since the last GiveAll().
  uint32_t used_ = 0;           // Heaps taken since the last GiveAll().
  size_t retained_ = 0;         // Sum of Slot::bytes.
};

}  // namespace stabletext

#endif  // STABLETEXT_STABLE_TOPK_HEAP_H_
