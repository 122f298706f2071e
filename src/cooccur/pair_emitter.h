// Pair emission: Section 3's single pass over documents. "For each document
// D, output all pairs of keywords that appear in D ... for each keyword
// u ∈ D, (u,u) is also included as a keyword pair appearing in D." The
// (u,u) pairs yield the per-keyword document frequencies A(u).

#ifndef STABLETEXT_COOCCUR_PAIR_EMITTER_H_
#define STABLETEXT_COOCCUR_PAIR_EMITTER_H_

#include <cstdint>

#include "cooccur/keyword_dict.h"
#include "storage/external_sorter.h"
#include "text/document.h"

namespace stabletext {

/// A single (u, v) keyword-pair occurrence. Canonical form: u <= v; the
/// diagonal (u, u) carries unary document frequency.
struct PairRecord {
  KeywordId u;
  KeywordId v;

  friend bool operator<(const PairRecord& a, const PairRecord& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  }
  friend bool operator==(const PairRecord& a, const PairRecord& b) {
    return a.u == b.u && a.v == b.v;
  }
};

/// Sorter specialization used for the pair file.
using PairSorter = ExternalSorter<PairRecord>;

/// \brief Emits all canonical keyword pairs of documents into a PairSorter.
///
/// Interns keywords into the dictionary as a side effect and counts
/// processed documents (the n = |D| of the chi-squared test).
class PairEmitter {
 public:
  /// \param dict  dictionary to intern into; must outlive the emitter.
  /// \param sorter destination sorter; must outlive the emitter.
  PairEmitter(KeywordDict* dict, PairSorter* sorter)
      : dict_(dict), sorter_(sorter) {}

  /// Emits pairs for one preprocessed document (interning its keywords).
  Status EmitDocument(const Document& doc);

  /// Emits pairs for a document whose keywords are already interned.
  /// `sorted_ids` must be distinct and ascending. This is the path the
  /// engine uses: interning happens first, in document order, on the
  /// writer thread.
  Status EmitIds(const std::vector<KeywordId>& sorted_ids);

  /// Documents processed so far.
  uint64_t document_count() const { return documents_; }
  /// Pair records emitted so far (including diagonal records).
  uint64_t pair_count() const { return pairs_; }

 private:
  KeywordDict* dict_;
  PairSorter* sorter_;
  uint64_t documents_ = 0;
  uint64_t pairs_ = 0;
};

}  // namespace stabletext

#endif  // STABLETEXT_COOCCUR_PAIR_EMITTER_H_
