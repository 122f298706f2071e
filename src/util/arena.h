// Allocation discipline for the per-tick hot path: reusable scratch
// containers that are allocated once and rebuilt in place every tick,
// instead of per-call unordered_map/unordered_set churn.
//
// Lifetime rules (see README "Hot-path kernels"): a scratch object is
// owned by exactly one long-lived writer-side component (e.g. one
// affinity-join slot per gap-window position), is NOT thread-safe, and
// holds no pointers into tick data after the call that filled it
// returns — it may be reused or destroyed freely between ticks.

#ifndef STABLETEXT_UTIL_ARENA_H_
#define STABLETEXT_UTIL_ARENA_H_

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace stabletext {

/// \brief Epoch-stamped membership set over dense ids [0, n).
///
/// Clear() is O(1): it bumps the epoch instead of touching the stamp
/// array, so a per-probe "seen" set costs nothing to reset. The array
/// only grows (never shrinks) — reuse across ticks is allocation-free
/// once it has reached the high-water mark.
class EpochStampedSet {
 public:
  /// Makes the set empty and able to hold ids [0, n). O(1) unless the
  /// capacity grows or the 32-bit epoch wraps (once per 2^32 clears).
  void Clear(size_t n) {
    if (stamps_.size() < n) stamps_.resize(n, 0);
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Inserts `id`; returns true if it was not yet a member.
  bool Insert(uint32_t id) {
    if (stamps_[id] == epoch_) return false;
    stamps_[id] = epoch_;
    return true;
  }

  bool Contains(uint32_t id) const { return stamps_[id] == epoch_; }

  size_t MemoryBytes() const {
    return sizeof(*this) + stamps_.capacity() * sizeof(uint32_t);
  }

 private:
  std::vector<uint32_t> stamps_;
  uint32_t epoch_ = 0;
};

/// \brief Epoch-stamped map from dense ids to a POD value, same O(1)
/// reset discipline as EpochStampedSet. Reading an unset key yields the
/// default value without touching the stamp.
template <typename V>
class EpochStampedArray {
 public:
  void Clear(size_t n) {
    if (stamps_.size() < n) {
      stamps_.resize(n, 0);
      values_.resize(n);
    }
    if (++epoch_ == 0) {
      std::fill(stamps_.begin(), stamps_.end(), 0);
      epoch_ = 1;
    }
  }

  /// Current value for `id` (default-constructed if unset this epoch).
  V Get(uint32_t id) const {
    return stamps_[id] == epoch_ ? values_[id] : V{};
  }

  bool IsSet(uint32_t id) const { return stamps_[id] == epoch_; }

  void Set(uint32_t id, V value) {
    stamps_[id] = epoch_;
    values_[id] = value;
  }

  size_t MemoryBytes() const {
    return sizeof(*this) + stamps_.capacity() * sizeof(uint32_t) +
           values_.capacity() * sizeof(V);
  }

 private:
  std::vector<uint32_t> stamps_;
  std::vector<V> values_;
  uint32_t epoch_ = 0;
};

}  // namespace stabletext

#endif  // STABLETEXT_UTIL_ARENA_H_
