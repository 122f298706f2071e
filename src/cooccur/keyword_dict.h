// Keyword dictionary: bidirectional mapping between keyword strings and
// dense uint32 ids. All downstream graph machinery works on ids; the
// dictionary is only consulted when rendering clusters back to text.
//
// The index is an open-addressing flat hash table (power-of-two capacity,
// linear probing, cached hashes) rather than node-based unordered_map:
// probes are cache-line friendly and lookups never allocate — the old
// implementation built a std::string per Lookup/Intern call, which was the
// single hottest allocation site of the counting pass.
//
// Concurrency contract: Intern() requires external serialization (the
// engine interns on its writer thread, in document order, so ids are
// deterministic across thread counts). Lookup()/Word() are safe to call
// concurrently from many threads once ingest is quiescent.

#ifndef STABLETEXT_COOCCUR_KEYWORD_DICT_H_
#define STABLETEXT_COOCCUR_KEYWORD_DICT_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "util/status.h"

namespace stabletext {

/// Id type for keywords. Dense, starting at 0.
using KeywordId = uint32_t;

/// Sentinel for "not present".
inline constexpr KeywordId kInvalidKeyword = UINT32_MAX;

/// \brief Append-only keyword interning table.
class KeywordDict {
 public:
  KeywordDict() { Rehash(kInitialSlots); }

  /// Returns the id of `word`, inserting it if new.
  KeywordId Intern(std::string_view word);

  /// Returns the id of `word` or kInvalidKeyword if absent.
  KeywordId Lookup(std::string_view word) const;

  /// Returns the keyword for an id. Precondition: id < size().
  const std::string& Word(KeywordId id) const { return words_[id]; }

  size_t size() const { return words_.size(); }

  /// Drops every keyword with id >= `size`, rolling interning back to a
  /// previous watermark (ids below `size` are untouched). O(size) probe
  /// table rebuild — meant for cold abort paths (an ingest that failed
  /// after interning), never the ingest hot path.
  void TruncateTo(size_t size);

  /// Serializes to a text file (one word per line, line number = id).
  Status Save(const std::string& path) const;

  /// Loads a dictionary previously written by Save into *this (replacing
  /// current contents).
  Status Load(const std::string& path);

 private:
  static constexpr size_t kInitialSlots = 64;
  static constexpr KeywordId kEmptySlot = kInvalidKeyword;

  static uint64_t Hash(std::string_view word);
  void Rehash(size_t new_slots);
  // Probe for `word` with known hash; returns the slot holding its id or
  // the empty slot where it would be inserted.
  size_t FindSlot(std::string_view word, uint64_t hash) const;

  // slots_[probe] = keyword id, or kEmptySlot. Capacity is a power of two.
  std::vector<KeywordId> slots_;
  size_t slot_mask_ = 0;
  std::vector<std::string> words_;
  std::vector<uint64_t> hashes_;  // Cached Hash(words_[id]) for rehashing.
};

}  // namespace stabletext

#endif  // STABLETEXT_COOCCUR_KEYWORD_DICT_H_
