// Co-occurrence pipeline: dictionary, pair emission, aggregation — checked
// against a brute-force document-pair counter on random corpora — and the
// one-pass inverted-index build of the pruned graph, checked against the
// sorted-pair-file route at every sort budget.

#include <gtest/gtest.h>

#include <map>
#include <set>

#include "cooccur/cooccurrence_counter.h"
#include "graph/graph_builder.h"
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

// Words live in fixed-capacity chunks handed out by ShareChunks: a shared
// chunk keeps every word below the size it was shared at, in place, while
// the dictionary interns past it, truncates across a chunk boundary and
// interns again.
TEST(KeywordDictTest, SharedChunksKeepTheirWords) {
  KeywordDict dict;
  const size_t words = KeywordDict::kChunkWords + 10;
  for (size_t i = 0; i < words; ++i) dict.Intern("w" + std::to_string(i));
  const size_t shared_size = KeywordDict::kChunkWords - 5;
  const auto shared = dict.ShareChunks();
  ASSERT_EQ(shared.size(), 2u);
  const std::string* first = shared[0]->data();
  dict.TruncateTo(shared_size);
  EXPECT_EQ(dict.size(), shared_size);
  EXPECT_EQ(dict.Lookup("w" + std::to_string(shared_size)), kInvalidKeyword);
  for (size_t i = 0; i < 20; ++i) dict.Intern("x" + std::to_string(i));
  EXPECT_EQ(dict.Word(static_cast<KeywordId>(shared_size)), "x0");
  EXPECT_EQ(dict.Lookup("x19"), shared_size + 19);
  EXPECT_EQ(dict.ShareChunks()[0]->data(), first);  // Never reallocated.
  for (size_t i = 0; i < shared_size; ++i) {
    ASSERT_EQ(first[i], "w" + std::to_string(i));
    ASSERT_EQ(&dict.Word(static_cast<KeywordId>(i)), &first[i]);
  }
  dict.TruncateTo(0);
  EXPECT_EQ(dict.size(), 0u);
  EXPECT_EQ(dict.Intern("fresh"), 0u);
  EXPECT_EQ(first[0], "w0");  // The shared chunk outlives the truncation.
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
  // At a support floor the one pass indexes only keywords at or above it
  // and counts the other pairs apart.
  GraphPrunerOptions support2;
  support2.min_pair_support = 2;
  GraphPrunerOptions support5 = keep_all;
  support5.min_pair_support = 5;
  for (const GraphPrunerOptions& pruning :
       {GraphPrunerOptions{}, keep_all, support2, support5}) {
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

// The support prefilter: keywords with A(u) below min_pair_support stay out
// of the inverted index, and their pairs (all failing the support test) are
// counted from distinct partners. Every summary field and edge must still
// be the sorted route's, at supports that disable the prefilter (0, 1),
// make only A(u) = 1 keywords low (2), and the engine's floor (5).
TEST(OnePassGraphTest, SupportPrefilterMatchesTheSortedRoute) {
  const std::vector<std::vector<std::vector<KeywordId>>> corpora = {
      // Keyword 9 (A = 1) alone among keywords frequent at every floor.
      {{0, 1, 2, 9}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 1, 2}, {0, 2}},
      // A = 1 keywords 11, 12 beside each other, beside 10 (A = 2) and 3
      // (A = 4), and 13 (A = 1) beside 3.
      {{0, 1, 3, 10, 11, 12},
       {0, 1, 3},
       {0, 1, 3, 13},
       {0, 1},
       {0, 1},
       {0, 3, 10}},
      // Low keywords 4 (A = 4) and 5 (A = 3) share three documents: their
      // pair is one pre-prune edge.
      {{0, 4, 5}, {0, 4, 5}, {0, 4, 5, 6}, {0, 6}, {0, 1}, {0, 1}, {1, 4}},
      // Keyword 7 at A = s - 1 = 4, whose documents repeat partners 0-2.
      {{0, 1, 7}, {0, 2, 7}, {1, 2, 7}, {0, 1, 2, 7}, {0, 1, 2}, {0, 1, 2},
       {0}, {1}},
      // Every keyword below 5.
      {{0, 1}, {2, 3}, {0, 2}, {1, 3, 4}, {4, 5, 6}, {5}},
      // Every keyword at 5 or more.
      {{0, 1, 2, 3}, {0, 1, 2, 3}, {0, 1, 2}, {0, 1, 3}, {0, 2, 3},
       {1, 2, 3}, {0, 1, 2, 3}},
  };
  // Plus skewed random corpora, where every class of keyword is common.
  std::vector<std::vector<std::vector<KeywordId>>> all = corpora;
  for (uint64_t seed = 1; seed <= 4; ++seed) {
    Rng rng(seed);
    std::vector<std::vector<KeywordId>> corpus(40);
    for (auto& ids : corpus) {
      const size_t words = rng.Uniform(9);
      for (size_t w = 0; w < words; ++w) {
        const double x = rng.NextDouble();
        ids.push_back(static_cast<KeywordId>(16 * x * x * x));
      }
      std::sort(ids.begin(), ids.end());
      ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    }
    all.push_back(std::move(corpus));
  }
  for (size_t c = 0; c < all.size(); ++c) {
    for (uint32_t support : {0u, 1u, 2u, 5u}) {
      SCOPED_TRACE(StringPrintf("corpus %zu support %u", c, support));
      GraphPrunerOptions paper;
      paper.min_pair_support = support;
      GraphPrunerOptions keep_all = paper;
      keep_all.apply_chi_square = false;
      keep_all.apply_rho = false;
      for (const GraphPrunerOptions& pruning : {paper, keep_all}) {
        EXPECT_EQ(OnePassRoute(all[c], 16, pruning),
                  SortedRoute(all[c], 16, 32 << 20, pruning));
      }
    }
  }
  // The shared low pair of corpus 2 is counted once: at support 5 only 0
  // is indexed, and the pre-prune edges are 0-1, 0-4, 0-5, 0-6, 1-4 and
  // 4-5, 4-6, 5-6.
  GraphPrunerOptions floor5;
  floor5.min_pair_support = 5;
  KeywordGraphSummary summary;
  ASSERT_TRUE(GraphBuilder(floor5)
                  .BuildFromDocuments(corpora[2], 16, &summary)
                  .ok());
  EXPECT_EQ(summary.raw_edge_count, 8u);
  EXPECT_EQ(summary.prune.failed_support, 8u);
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
