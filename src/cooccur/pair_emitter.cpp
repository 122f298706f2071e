#include "cooccur/pair_emitter.h"

#include <algorithm>
#include <cassert>
#include <functional>

namespace stabletext {

Status PairEmitter::EmitDocument(const Document& doc) {
  // Intern all distinct keywords of the document.
  std::vector<KeywordId> ids;
  ids.reserve(doc.keywords.size());
  for (const std::string& w : doc.keywords) ids.push_back(dict_->Intern(w));
  // Canonical pair order requires sorted ids (Document keywords are sorted
  // as strings, which is not id order).
  std::sort(ids.begin(), ids.end());
  return EmitIds(ids);
}

Status PairEmitter::EmitIds(const std::vector<KeywordId>& sorted_ids) {
  assert(std::adjacent_find(sorted_ids.begin(), sorted_ids.end(),
                            std::greater_equal<KeywordId>()) ==
             sorted_ids.end() &&
         "EmitIds needs distinct, ascending ids");
  for (size_t i = 0; i < sorted_ids.size(); ++i) {
    // Diagonal record for A(u).
    ST_RETURN_IF_ERROR(sorter_->Add(PairRecord{sorted_ids[i],
                                               sorted_ids[i]}));
    ++pairs_;
    for (size_t j = i + 1; j < sorted_ids.size(); ++j) {
      ST_RETURN_IF_ERROR(sorter_->Add(PairRecord{sorted_ids[i],
                                                 sorted_ids[j]}));
      ++pairs_;
    }
  }
  ++documents_;
  return Status::OK();
}

}  // namespace stabletext
