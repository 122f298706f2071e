#include "core/query_refiner.h"

#include <algorithm>
#include <unordered_map>

#include "text/porter_stemmer.h"
#include "util/strings.h"

namespace stabletext {

std::vector<Refinement> QueryRefiner::Suggest(const std::string& query,
                                              uint32_t interval,
                                              size_t max_suggestions)
    const {
  std::vector<Refinement> out;
  if (interval >= engine_->interval_count()) return out;
  std::string lowered = query;
  ToLowerAscii(&lowered);
  const std::string stem = PorterStemmer::Stem(lowered);
  const KeywordId id = engine_->dict().Lookup(stem);
  if (id == kInvalidKeyword) return out;

  // Strongest correlation per co-clustered keyword.
  std::unordered_map<KeywordId, double> best;
  const IntervalResult& result = engine_->interval_result(interval);
  for (const Cluster& cluster : result.clusters) {
    if (!cluster.Contains(id)) continue;
    // Direct edges first: the strongest correlations.
    for (const WeightedEdge& e : cluster.edges) {
      if (e.u == id || e.v == id) {
        const KeywordId other = e.u == id ? e.v : e.u;
        auto [it, inserted] = best.emplace(other, e.weight);
        if (!inserted) it->second = std::max(it->second, e.weight);
      }
    }
    // Cluster co-members without a direct edge still qualify ("the rest
    // of the keywords in that cluster are good candidates"), scored by
    // the cluster's mean edge weight.
    const double mean =
        cluster.edges.empty()
            ? 0
            : cluster.TotalEdgeWeight() /
                  static_cast<double>(cluster.edges.size());
    for (KeywordId other : cluster.keywords) {
      if (other == id) continue;
      best.emplace(other, mean);  // Keeps a direct-edge score if present.
    }
  }

  out.reserve(best.size());
  for (const auto& [kw, score] : best) {
    out.push_back(Refinement{engine_->dict().Word(kw), score, interval});
  }
  std::sort(out.begin(), out.end(),
            [](const Refinement& a, const Refinement& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.keyword < b.keyword;
            });
  if (out.size() > max_suggestions) out.resize(max_suggestions);
  return out;
}

}  // namespace stabletext
