// QueryRefiner: the query-refinement application motivated in Sections 1
// and 3 — "If a search query for a specific interval falls in a cluster,
// the rest of the keywords in that cluster are good candidates for query
// refinement" and "for a query keyword we may suggest the strongest
// correlation as a refinement".

#ifndef STABLETEXT_CORE_QUERY_REFINER_H_
#define STABLETEXT_CORE_QUERY_REFINER_H_

#include <string>
#include <vector>

#include "core/engine.h"

namespace stabletext {

/// One refinement suggestion.
struct Refinement {
  std::string keyword;
  double score;       ///< Correlation (edge weight) or cluster affinity.
  uint32_t interval;  ///< Interval the evidence comes from.
};

/// \brief Suggests query refinements from an engine's interval clusters.
class QueryRefiner {
 public:
  /// \param engine must outlive the refiner; borrowed. Suggestions track
  ///        the engine live: refinements for an interval are available as
  ///        soon as its ingest committed. Reads writer-side state (the
  ///        dictionary and interval clusters), so per the Engine thread
  ///        contract it belongs on the ingest thread or a quiescent
  ///        engine — unlike Engine::Query it is not safe concurrently
  ///        with ingest.
  explicit QueryRefiner(const Engine* engine) : engine_(engine) {}

  /// Top refinements for `query` in `interval`: keywords sharing a cluster
  /// with the query keyword, scored by the correlation (edge weight) to
  /// it, strongest first. The query is stemmed with the same preprocessing
  /// as the corpus. Empty if the keyword is unknown or unclustered.
  std::vector<Refinement> Suggest(const std::string& query,
                                  uint32_t interval,
                                  size_t max_suggestions = 10) const;

 private:
  const Engine* engine_;
};

}  // namespace stabletext

#endif  // STABLETEXT_CORE_QUERY_REFINER_H_
