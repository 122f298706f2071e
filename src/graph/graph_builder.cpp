#include "graph/graph_builder.h"

#include <algorithm>
#include <cstdint>

namespace stabletext {

KeywordGraph GraphBuilder::Build(const CooccurrenceTable& table,
                                 KeywordGraphSummary* summary) const {
  KeywordGraphSummary local;
  local.document_count = table.document_count;
  local.raw_edge_count = table.triplets.size();
  for (uint32_t a : table.unary) {
    if (a > 0) ++local.keyword_count;
  }
  std::vector<WeightedEdge> edges = pruner_.Prune(table, &local.prune);
  if (summary != nullptr) *summary = local;
  return KeywordGraph::FromEdges(table.unary.size(), edges);
}

Result<KeywordGraph> GraphBuilder::BuildFromDocuments(
    const std::vector<std::vector<KeywordId>>& documents,
    size_t keyword_count, KeywordGraphSummary* summary) const {
  // Inverted index in CSR form: keyword u's postings are the (document,
  // position) of its occurrences, so A(u) is the posting-list length and
  // the keywords after `position` are exactly the v > u it pairs with.
  if (documents.size() > UINT32_MAX) {
    return Status::InvalidArgument("too many documents for one pass");
  }
  std::vector<size_t> offsets(keyword_count + 1, 0);
  for (const std::vector<KeywordId>& ids : documents) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] >= keyword_count || (i > 0 && ids[i] <= ids[i - 1])) {
        return Status::InvalidArgument(
            "documents need distinct ascending keyword ids below the "
            "keyword count");
      }
      ++offsets[ids[i] + 1];
    }
  }
  for (size_t u = 0; u < keyword_count; ++u) offsets[u + 1] += offsets[u];
  struct Posting {
    uint32_t document;
    uint32_t position;
  };
  std::vector<Posting> postings(offsets[keyword_count]);
  {
    std::vector<size_t> fill(offsets.begin(), offsets.end() - 1);
    for (size_t d = 0; d < documents.size(); ++d) {
      const std::vector<KeywordId>& ids = documents[d];
      for (size_t i = 0; i < ids.size(); ++i) {
        postings[fill[ids[i]]++] = Posting{static_cast<uint32_t>(d),
                                           static_cast<uint32_t>(i)};
      }
    }
  }
  auto unary = [&](KeywordId u) -> uint64_t {
    return offsets[u + 1] - offsets[u];
  };

  KeywordGraphSummary local;
  local.document_count = documents.size();
  std::vector<uint32_t> pair_count(keyword_count, 0);
  std::vector<KeywordId> touched;
  std::vector<WeightedEdge> edges;
  for (KeywordId u = 0; u < keyword_count; ++u) {
    if (offsets[u + 1] == offsets[u]) continue;
    ++local.keyword_count;
    for (size_t p = offsets[u]; p < offsets[u + 1]; ++p) {
      const std::vector<KeywordId>& ids = documents[postings[p].document];
      for (size_t j = postings[p].position + 1; j < ids.size(); ++j) {
        if (pair_count[ids[j]]++ == 0) touched.push_back(ids[j]);
      }
    }
    // Ascending v: edges come out in the (u, v) order of the sorted
    // triplet table, so the graph is built from the same edge list.
    std::sort(touched.begin(), touched.end());
    for (KeywordId v : touched) {
      double rho = 0;
      if (pruner_.Keep(unary(u), unary(v), pair_count[v],
                       local.document_count, &local.prune, &rho)) {
        edges.push_back(WeightedEdge{u, v, rho});
      }
      pair_count[v] = 0;
    }
    local.raw_edge_count += touched.size();
    touched.clear();
  }
  if (summary != nullptr) *summary = local;
  return KeywordGraph::FromEdges(keyword_count, edges);
}

}  // namespace stabletext
