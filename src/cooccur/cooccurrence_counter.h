// CooccurrenceCounter: the full Section 3 counting pipeline for one
// temporal interval — stream documents, emit pairs, external-sort, aggregate.

#ifndef STABLETEXT_COOCCUR_COOCCURRENCE_COUNTER_H_
#define STABLETEXT_COOCCUR_COOCCURRENCE_COUNTER_H_

#include <functional>

#include "cooccur/pair_aggregator.h"
#include "storage/io_stats.h"

namespace stabletext {

class ThreadPool;

/// Options for CooccurrenceCounter.
struct CooccurrenceCounterOptions {
  /// Memory budget handed to the external sorter for the pair file.
  size_t sort_memory_bytes = 32 << 20;
  size_t page_size = 4096;
  /// When set, external-sort run generation is offloaded to this pool
  /// (see ExternalSorterOptions::pool). Caller-owned.
  ThreadPool* sort_pool = nullptr;
};

/// \brief Counts keyword co-occurrences for one document collection.
///
/// The dictionary is shared across intervals so keyword ids are stable over
/// the whole analysis window (needed when clusters from different intervals
/// are compared by keyword overlap).
class CooccurrenceCounter {
 public:
  /// \param dict shared dictionary; must outlive the counter.
  /// \param stats I/O accounting; may be null.
  CooccurrenceCounter(KeywordDict* dict,
                      CooccurrenceCounterOptions options = {},
                      IoStats* stats = nullptr);

  /// Adds one preprocessed document (interning its keywords).
  Status Add(const Document& doc);

  /// Adds one document given its distinct keyword ids, ascending. Used by
  /// the engine, which interns on its writer thread before counting;
  /// never touches the dictionary.
  Status AddInterned(const std::vector<KeywordId>& sorted_ids);

  /// Finishes the pass: sorts the pair file and aggregates into *out,
  /// sizing the unary table to the dictionary's current size. The
  /// counter cannot be reused afterwards.
  Status Finish(CooccurrenceTable* out);

  /// Same, sizing the unary table to an explicit `keyword_count`.
  Status Finish(CooccurrenceTable* out, size_t keyword_count);

  uint64_t document_count() const { return emitter_.document_count(); }
  uint64_t pair_count() const { return emitter_.pair_count(); }
  /// Sorted runs spilled by the pair sorter (0 = stayed in memory).
  size_t spill_runs() const { return sorter_.run_count(); }

 private:
  KeywordDict* dict_;
  PairSorter sorter_;
  PairEmitter emitter_;
};

}  // namespace stabletext

#endif  // STABLETEXT_COOCCUR_COOCCURRENCE_COUNTER_H_
