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
  if (documents.size() > UINT32_MAX) {
    return Status::InvalidArgument("too many documents for one pass");
  }
  // A(u) for every keyword, validating the documents on the way.
  std::vector<uint32_t> unary(keyword_count, 0);
  uint64_t occurrences = 0;
  for (const std::vector<KeywordId>& ids : documents) {
    for (size_t i = 0; i < ids.size(); ++i) {
      if (ids[i] >= keyword_count || (i > 0 && ids[i] <= ids[i - 1])) {
        return Status::InvalidArgument(
            "documents need distinct ascending keyword ids below the "
            "keyword count");
      }
      ++unary[ids[i]];
    }
    occurrences += ids.size();
  }
  // Positions in `flat` below (occurrences plus one end mark per
  // document) are 32-bit.
  if (occurrences + documents.size() >= UINT32_MAX) {
    return Status::InvalidArgument("too many keywords for one pass");
  }

  // A(u,v) <= min(A(u), A(v)), so a pair with an endpoint below the
  // support floor fails the support test whatever its count. Only "high"
  // keywords (A(u) >= floor) enter the inverted index; "mid" keywords
  // (2 <= A(u) < floor) and A(u) = 1 keywords are only counted as
  // endpoints of failing pairs, below. Ranks number each class densely in
  // id order, so rank order is id order.
  const uint32_t support = pruner_.options().min_pair_support;
  const uint32_t floor = std::max<uint32_t>(support, 1);
  KeywordGraphSummary local;
  local.document_count = documents.size();
  std::vector<uint32_t> rank(keyword_count);
  std::vector<KeywordId> high;
  std::vector<KeywordId> mid;
  for (KeywordId u = 0; u < keyword_count; ++u) {
    if (unary[u] == 0) continue;
    ++local.keyword_count;
    if (unary[u] >= floor) {
      rank[u] = static_cast<uint32_t>(high.size());
      high.push_back(u);
    } else if (unary[u] >= 2) {
      rank[u] = static_cast<uint32_t>(mid.size());
      mid.push_back(u);
    }
  }

  // Each document's high ranks, back to back, for the documents with two
  // or more of them (the others hold no high pair). Alongside: the
  // documents of each mid keyword (CSR by mid rank), and the pairs with an
  // A(u) = 1 endpoint. Such a u has one document, so its partners are the
  // other n - 1 keywords there, all distinct; a pair of two A = 1
  // keywords of one document is counted from both ends, so each document
  // with c of them gives c (n - 1) - c (c - 1) / 2 pairs.
  std::vector<uint32_t> flat;
  std::vector<uint32_t> high_offsets(high.size() + 1, 0);
  std::vector<uint32_t> mid_offsets(mid.size() + 1, 0);
  for (size_t r = 0; r < mid.size(); ++r) {
    mid_offsets[r + 1] = mid_offsets[r] + unary[mid[r]];
  }
  std::vector<uint32_t> mid_documents(mid_offsets.back());
  std::vector<uint32_t> mid_fill(mid_offsets.begin(), mid_offsets.end() - 1);
  uint64_t low_pairs = 0;
  for (size_t d = 0; d < documents.size(); ++d) {
    const std::vector<KeywordId>& ids = documents[d];
    const size_t start = flat.size();
    uint64_t singles = 0;
    for (KeywordId u : ids) {
      if (unary[u] >= floor) {
        flat.push_back(rank[u]);
      } else if (unary[u] == 1) {
        ++singles;
      } else {
        mid_documents[mid_fill[rank[u]]++] = static_cast<uint32_t>(d);
      }
    }
    low_pairs += singles * (ids.size() - 1) - singles * (singles - 1) / 2;
    if (flat.size() - start < 2) {
      flat.resize(start);
    } else {
      for (size_t j = start; j < flat.size(); ++j) ++high_offsets[flat[j] + 1];
      flat.push_back(UINT32_MAX);  // Document end.
    }
  }
  // A mid keyword v has at most floor - 1 documents: count its distinct
  // partners w with A(w) >= 2 by a stamped scan of them (A(w) = 1 pairs
  // were counted above), a mid-mid pair only from its smaller id.
  if (!mid.empty()) {
    std::vector<uint32_t> high_stamp(high.size(), UINT32_MAX);
    std::vector<uint32_t> mid_stamp(mid.size(), UINT32_MAX);
    for (uint32_t r = 0; r < mid.size(); ++r) {
      const KeywordId v = mid[r];
      for (uint32_t p = mid_offsets[r]; p < mid_offsets[r + 1]; ++p) {
        for (KeywordId w : documents[mid_documents[p]]) {
          if (unary[w] >= floor) {
            if (high_stamp[rank[w]] != r) {
              high_stamp[rank[w]] = r;
              ++low_pairs;
            }
          } else if (unary[w] >= 2 && w > v && mid_stamp[rank[w]] != r) {
            mid_stamp[rank[w]] = r;
            ++low_pairs;
          }
        }
      }
    }
  }

  // Inverted index over the high ranks, in CSR form: a posting is the
  // position of one occurrence in `flat`, and the ranks after it up to
  // its document's end are exactly the higher-ranked keywords it pairs
  // with.
  for (size_t r = 0; r < high.size(); ++r) {
    high_offsets[r + 1] += high_offsets[r];
  }
  std::vector<uint32_t> postings(high_offsets.back());
  {
    std::vector<uint32_t> fill(high_offsets.begin(), high_offsets.end() - 1);
    for (uint32_t j = 0; j < flat.size(); ++j) {
      if (flat[j] != UINT32_MAX) postings[fill[flat[j]]++] = j;
    }
  }

  std::vector<uint32_t> pair_count(high.size(), 0);
  std::vector<uint32_t> touched;
  std::vector<WeightedEdge> edges;
  for (uint32_t r = 0; r < high.size(); ++r) {
    for (uint32_t p = high_offsets[r]; p < high_offsets[r + 1]; ++p) {
      for (uint32_t j = postings[p] + 1; flat[j] != UINT32_MAX; ++j) {
        if (pair_count[flat[j]]++ == 0) touched.push_back(flat[j]);
      }
    }
    // Ascending v: edges come out in the (u, v) order of the sorted
    // triplet table, so the graph is built from the same edge list.
    std::sort(touched.begin(), touched.end());
    const KeywordId u = high[r];
    for (uint32_t t : touched) {
      const KeywordId v = high[t];
      double rho = 0;
      if (pruner_.Keep(unary[u], unary[v], pair_count[t],
                       local.document_count, &local.prune, &rho)) {
        edges.push_back(WeightedEdge{u, v, rho});
      }
      pair_count[t] = 0;
    }
    local.raw_edge_count += touched.size();
    touched.clear();
  }
  // The pairs left out of the index are pre-prune edges that fail the
  // support test, exactly as the sorted route counts them.
  local.raw_edge_count += low_pairs;
  local.prune.input_edges += low_pairs;
  local.prune.failed_support += low_pairs;
  if (summary != nullptr) *summary = local;
  return KeywordGraph::FromEdges(keyword_count, edges);
}

}  // namespace stabletext
