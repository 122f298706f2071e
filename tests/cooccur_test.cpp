// Co-occurrence pipeline: dictionary, pair emission, aggregation — checked
// against a brute-force document-pair counter on random corpora — and the
// one-pass inverted-index build of the pruned graph, checked against the
// sorted-pair-file route at every sort budget.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cooccur/cooccurrence_counter.h"
#include "graph/graph_builder.h"
#include "storage/temp_dir.h"
#include "util/random.h"
#include "util/strings.h"

namespace stabletext {
namespace {

Document MakeDoc(uint32_t interval, std::vector<std::string> words) {
  Document d;
  d.interval = interval;
  d.keywords = std::move(words);
  std::sort(d.keywords.begin(), d.keywords.end());
  d.keywords.erase(std::unique(d.keywords.begin(), d.keywords.end()),
                   d.keywords.end());
  return d;
}

// Every vertex's neighbors with weight bits, then the summary counters.
std::string Render(const KeywordGraph& graph,
                   const KeywordGraphSummary& summary) {
  std::string out = StringPrintf(
      "vertices=%zu docs=%llu keywords=%zu raw=%zu input=%zu support=%zu "
      "chi2=%zu rho=%zu kept=%zu\n",
      graph.vertex_count(),
      static_cast<unsigned long long>(summary.document_count),
      summary.keyword_count, summary.raw_edge_count,
      summary.prune.input_edges, summary.prune.failed_support,
      summary.prune.failed_chi_square, summary.prune.failed_rho,
      summary.prune.surviving_edges);
  for (KeywordId u = 0; u < graph.vertex_count(); ++u) {
    for (size_t i = 0; i < graph.Degree(u); ++i) {
      out += StringPrintf("%u-%u:%a\n", u, graph.Neighbors(u)[i],
                          graph.Weights(u)[i]);
    }
  }
  return out;
}

// The graph the sorted pair file gives for `documents` (distinct ascending
// ids) under `budget`, rendered.
std::string SortedRoute(const std::vector<std::vector<KeywordId>>& documents,
                        size_t keyword_count, size_t budget,
                        const GraphPrunerOptions& pruning) {
  KeywordDict unused;
  CooccurrenceCounterOptions opt;
  opt.sort_memory_bytes = budget;
  CooccurrenceCounter counter(&unused, opt);
  for (const auto& ids : documents) {
    EXPECT_TRUE(counter.AddInterned(ids).ok());
  }
  CooccurrenceTable table;
  EXPECT_TRUE(counter.Finish(&table, keyword_count).ok());
  KeywordGraphSummary summary;
  const KeywordGraph graph = GraphBuilder(pruning).Build(table, &summary);
  return Render(graph, summary);
}

std::string OnePassRoute(const std::vector<std::vector<KeywordId>>& documents,
                         size_t keyword_count,
                         const GraphPrunerOptions& pruning) {
  KeywordGraphSummary summary;
  auto graph = GraphBuilder(pruning).BuildFromDocuments(
      documents, keyword_count, &summary);
  EXPECT_TRUE(graph.ok()) << graph.status().ToString();
  if (!graph.ok()) return "";
  return Render(graph.value(), summary);
}

TEST(KeywordDictTest, InternIsIdempotent) {
  KeywordDict dict;
  const KeywordId a = dict.Intern("apple");
  const KeywordId b = dict.Intern("banana");
  EXPECT_NE(a, b);
  EXPECT_EQ(dict.Intern("apple"), a);
  EXPECT_EQ(dict.size(), 2u);
  EXPECT_EQ(dict.Word(a), "apple");
  EXPECT_EQ(dict.Lookup("banana"), b);
  EXPECT_EQ(dict.Lookup("cherry"), kInvalidKeyword);
}

TEST(KeywordDictTest, SaveLoadRoundTrip) {
  TempDir dir;
  KeywordDict dict;
  dict.Intern("alpha");
  dict.Intern("beta");
  dict.Intern("gamma");
  ASSERT_TRUE(dict.Save(dir.FilePath("dict.txt")).ok());
  KeywordDict loaded;
  ASSERT_TRUE(loaded.Load(dir.FilePath("dict.txt")).ok());
  EXPECT_EQ(loaded.size(), 3u);
  EXPECT_EQ(loaded.Lookup("beta"), dict.Lookup("beta"));
  EXPECT_EQ(loaded.Word(0), "alpha");
}

TEST(CooccurrenceCounterTest, CountsSimpleCorpus) {
  KeywordDict dict;
  CooccurrenceCounter counter(&dict);
  // Three documents: {a,b}, {a,b,c}, {c}.
  ASSERT_TRUE(counter.Add(MakeDoc(0, {"a", "b"})).ok());
  ASSERT_TRUE(counter.Add(MakeDoc(0, {"a", "b", "c"})).ok());
  ASSERT_TRUE(counter.Add(MakeDoc(0, {"c"})).ok());
  CooccurrenceTable table;
  ASSERT_TRUE(counter.Finish(&table).ok());

  EXPECT_EQ(table.document_count, 3u);
  const KeywordId a = dict.Lookup("a");
  const KeywordId b = dict.Lookup("b");
  const KeywordId c = dict.Lookup("c");
  EXPECT_EQ(table.unary[a], 2u);
  EXPECT_EQ(table.unary[b], 2u);
  EXPECT_EQ(table.unary[c], 2u);

  std::map<std::pair<KeywordId, KeywordId>, uint32_t> pairs;
  for (const Triplet& t : table.triplets) {
    pairs[{std::min(t.u, t.v), std::max(t.u, t.v)}] = t.count;
  }
  EXPECT_EQ(pairs.size(), 3u);
  EXPECT_EQ((pairs[{std::min(a, b), std::max(a, b)}]), 2u);
  EXPECT_EQ((pairs[{std::min(a, c), std::max(a, c)}]), 1u);
  EXPECT_EQ((pairs[{std::min(b, c), std::max(b, c)}]), 1u);
}

TEST(CooccurrenceCounterTest, EmptyCorpus) {
  KeywordDict dict;
  CooccurrenceCounter counter(&dict);
  CooccurrenceTable table;
  ASSERT_TRUE(counter.Finish(&table).ok());
  EXPECT_EQ(table.document_count, 0u);
  EXPECT_TRUE(table.triplets.empty());
}

TEST(CooccurrenceCounterTest, SingleWordDocumentsProduceNoTriplets) {
  KeywordDict dict;
  CooccurrenceCounter counter(&dict);
  ASSERT_TRUE(counter.Add(MakeDoc(0, {"solo"})).ok());
  ASSERT_TRUE(counter.Add(MakeDoc(0, {"solo"})).ok());
  CooccurrenceTable table;
  ASSERT_TRUE(counter.Finish(&table).ok());
  EXPECT_TRUE(table.triplets.empty());
  EXPECT_EQ(table.unary[dict.Lookup("solo")], 2u);
}

TEST(CooccurrenceCounterTest, TripletsAreCanonicalAndSorted) {
  KeywordDict dict;
  CooccurrenceCounter counter(&dict);
  ASSERT_TRUE(counter.Add(MakeDoc(0, {"z", "m", "a"})).ok());
  CooccurrenceTable table;
  ASSERT_TRUE(counter.Finish(&table).ok());
  ASSERT_EQ(table.triplets.size(), 3u);
  for (const Triplet& t : table.triplets) EXPECT_LT(t.u, t.v);
  for (size_t i = 1; i < table.triplets.size(); ++i) {
    const Triplet& p = table.triplets[i - 1];
    const Triplet& q = table.triplets[i];
    EXPECT_TRUE(p.u < q.u || (p.u == q.u && p.v < q.v));
  }
}

// Property sweep: pipeline counts == brute-force counts on random corpora,
// across sort budgets small enough to force external runs.
class CooccurRandomTest
    : public ::testing::TestWithParam<std::tuple<size_t, size_t>> {};

TEST_P(CooccurRandomTest, MatchesBruteForce) {
  const auto [docs, sort_budget] = GetParam();
  Rng rng(docs * 131 + sort_budget);
  const size_t vocab = 30;

  std::vector<Document> corpus;
  for (size_t i = 0; i < docs; ++i) {
    const size_t words = 1 + rng.Uniform(8);
    std::vector<std::string> ws;
    for (size_t w = 0; w < words; ++w) {
      ws.push_back("w" + std::to_string(rng.Uniform(vocab)));
    }
    corpus.push_back(MakeDoc(0, ws));
  }

  KeywordDict dict;
  CooccurrenceCounterOptions opt;
  opt.sort_memory_bytes = sort_budget;
  CooccurrenceCounter counter(&dict, opt);
  for (const Document& d : corpus) ASSERT_TRUE(counter.Add(d).ok());
  CooccurrenceTable table;
  ASSERT_TRUE(counter.Finish(&table).ok());

  // Brute force.
  std::map<std::string, uint32_t> unary;
  std::map<std::pair<std::string, std::string>, uint32_t> pairs;
  for (const Document& d : corpus) {
    for (size_t i = 0; i < d.keywords.size(); ++i) {
      ++unary[d.keywords[i]];
      for (size_t j = i + 1; j < d.keywords.size(); ++j) {
        ++pairs[{d.keywords[i], d.keywords[j]}];
      }
    }
  }

  EXPECT_EQ(table.document_count, docs);
  for (const auto& [word, count] : unary) {
    const KeywordId id = dict.Lookup(word);
    ASSERT_NE(id, kInvalidKeyword);
    EXPECT_EQ(table.unary[id], count) << word;
  }
  std::map<std::pair<KeywordId, KeywordId>, uint32_t> got;
  for (const Triplet& t : table.triplets) got[{t.u, t.v}] = t.count;
  ASSERT_EQ(got.size(), pairs.size());
  for (const auto& [key, count] : pairs) {
    KeywordId u = dict.Lookup(key.first);
    KeywordId v = dict.Lookup(key.second);
    if (u > v) std::swap(u, v);
    EXPECT_EQ((got[{u, v}]), count);
  }

  // Third path: the one pass over an inverted index gives the same
  // surviving edges (weight bits) and summary as pruning this table, with
  // the paper's tests and with every test off (all pairs survive).
  std::vector<std::vector<KeywordId>> interned;
  for (const Document& d : corpus) {
    std::vector<KeywordId> ids;
    for (const std::string& w : d.keywords) ids.push_back(dict.Lookup(w));
    std::sort(ids.begin(), ids.end());
    interned.push_back(std::move(ids));
  }
  GraphPrunerOptions keep_all;
  keep_all.apply_chi_square = false;
  keep_all.apply_rho = false;
  for (const GraphPrunerOptions& pruning : {GraphPrunerOptions{}, keep_all}) {
    KeywordGraphSummary expected;
    const KeywordGraph graph = GraphBuilder(pruning).Build(table, &expected);
    EXPECT_EQ(OnePassRoute(interned, dict.size(), pruning),
              Render(graph, expected));
    EXPECT_EQ(expected.raw_edge_count, pairs.size());
  }
  KeywordGraphSummary all;
  ASSERT_TRUE(GraphBuilder(keep_all)
                  .BuildFromDocuments(interned, dict.size(), &all)
                  .ok());
  EXPECT_EQ(all.prune.surviving_edges, pairs.size());
  EXPECT_EQ(all.keyword_count, unary.size());
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, CooccurRandomTest,
    ::testing::Combine(::testing::Values<size_t>(10, 200, 1000),
                       ::testing::Values<size_t>(64, 4096, 1 << 22)),
    [](const auto& info) {
      return "docs" + std::to_string(std::get<0>(info.param)) + "_budget" +
             std::to_string(std::get<1>(info.param));
    });

TEST(OnePassGraphTest, EdgeCasesMatchTheSortedRoute) {
  GraphPrunerOptions keep_all;
  keep_all.apply_chi_square = false;
  keep_all.apply_rho = false;
  const std::vector<std::vector<std::vector<KeywordId>>> corpora = {
      {},                    // No documents.
      {{}, {}},              // Documents without keywords.
      {{3}, {0}, {3}, {7}},  // Single-keyword documents only.
      // Ids 1, 2, 5, 6, 8 and 9 are never used.
      {{0, 3, 7}, {3, 4}, {0, 4, 7}, {0, 3, 4, 7}, {4}},
  };
  for (size_t c = 0; c < corpora.size(); ++c) {
    SCOPED_TRACE(c);
    for (const GraphPrunerOptions& pruning :
         {GraphPrunerOptions{}, keep_all}) {
      const std::string one_pass = OnePassRoute(corpora[c], 10, pruning);
      EXPECT_EQ(one_pass, SortedRoute(corpora[c], 10, 32 << 20, pruning));
      EXPECT_EQ(one_pass, SortedRoute(corpora[c], 10, 64, pruning));
    }
  }
  KeywordGraphSummary summary;
  ASSERT_TRUE(GraphBuilder(keep_all)
                  .BuildFromDocuments(corpora[3], 10, &summary)
                  .ok());
  EXPECT_EQ(summary.document_count, 5u);
  EXPECT_EQ(summary.keyword_count, 4u);
  EXPECT_EQ(summary.raw_edge_count, 6u);
}

TEST(OnePassGraphTest, RejectsIdsOutOfOrderOrRange) {
  const GraphBuilder builder;
  EXPECT_FALSE(builder.BuildFromDocuments({{2, 1}}, 5).ok());
  EXPECT_FALSE(builder.BuildFromDocuments({{1, 1}}, 5).ok());
  EXPECT_FALSE(builder.BuildFromDocuments({{1, 5}}, 5).ok());
  EXPECT_TRUE(builder.BuildFromDocuments({{1, 4}}, 5).ok());
}

TEST(CooccurrenceCounterTest, SpillsUnderTinyBudget) {
  KeywordDict dict;
  CooccurrenceCounterOptions opt;
  opt.sort_memory_bytes = 64;
  IoStats stats;
  CooccurrenceCounter counter(&dict, opt, &stats);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(counter.Add(MakeDoc(0, {"a", "b", "c", "d"})).ok());
  }
  CooccurrenceTable table;
  ASSERT_TRUE(counter.Finish(&table).ok());
  EXPECT_GT(counter.spill_runs(), 0u);
  EXPECT_GT(stats.page_writes, 0u);
  // Counts still exact despite spilling.
  EXPECT_EQ(table.unary[dict.Lookup("a")], 50u);
}

}  // namespace
}  // namespace stabletext
