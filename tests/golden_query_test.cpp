// Golden-file regression: a tiny checked-in fixture corpus and the
// expected top-k rendering for every algorithm in the registry (both
// modes, plus a diversified run). Any refactor that silently changes
// ranking, weights, tie-breaking or chain resolution fails here with a
// readable diff.
//
// Regenerating (after an *intentional* ranking change):
//   STABLETEXT_REGEN_GOLDEN=1 ./build/golden_query_test
// rewrites tests/data/golden.corpus and tests/data/golden_expected.txt
// in the source tree; review the diff before committing.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.h"
#include "gen/corpus_generator.h"
#include "util/strings.h"

#ifndef STABLETEXT_TEST_DATA_DIR
#error "STABLETEXT_TEST_DATA_DIR must point at tests/data"
#endif

namespace stabletext {
namespace {

const char kCorpusPath[] = STABLETEXT_TEST_DATA_DIR "/golden.corpus";
const char kExpectedPath[] =
    STABLETEXT_TEST_DATA_DIR "/golden_expected.txt";

// Fixture parameters are part of the golden contract: changing them
// requires regenerating both files.
CorpusGenOptions FixtureCorpus() {
  CorpusGenOptions opt;
  opt.days = 4;
  opt.posts_per_day = 150;
  opt.vocabulary = 800;
  opt.min_words_per_post = 12;
  opt.max_words_per_post = 24;
  opt.micro_events = 12;
  opt.seed = 21;
  opt.script = EventScript::PaperWeek();
  return opt;
}

EngineOptions FixtureEngine() {
  EngineOptions opt;
  opt.gap = 0;  // TA is gap-0/full-path; keep it in the golden set.
  opt.threads = 1;
  opt.clustering.pruning.rho_threshold = 0.2;
  opt.clustering.pruning.min_pair_support = 5;
  opt.affinity.theta = 0.1;
  return opt;
}

struct GoldenQuery {
  const char* name;
  Query query;
};

std::vector<GoldenQuery> GoldenQueries() {
  std::vector<GoldenQuery> out;
  Query q;
  q.k = 3;
  q.l = 2;
  q.algorithm = FinderAlgorithm::kBfs;
  out.push_back({"bfs/kl-stable/k=3/l=2", q});
  q.algorithm = FinderAlgorithm::kDfs;
  out.push_back({"dfs/kl-stable/k=3/l=2", q});
  q.algorithm = FinderAlgorithm::kBruteForce;
  out.push_back({"brute-force/kl-stable/k=3/l=2", q});
  q.algorithm = FinderAlgorithm::kOnline;
  out.push_back({"online/kl-stable/k=3/l=2", q});
  q.algorithm = FinderAlgorithm::kTa;
  q.l = 0;
  out.push_back({"ta/kl-stable/k=3/l=full", q});
  q = Query{};
  q.k = 3;
  q.l = 2;
  q.mode = FinderMode::kNormalized;
  q.algorithm = FinderAlgorithm::kBfs;
  out.push_back({"bfs/normalized/k=3/lmin=2", q});
  q.algorithm = FinderAlgorithm::kDfs;
  out.push_back({"dfs/normalized/k=3/lmin=2", q});
  q.algorithm = FinderAlgorithm::kBruteForce;
  out.push_back({"brute-force/normalized/k=3/lmin=2", q});
  q = Query{};
  q.k = 3;
  q.l = 2;
  q.algorithm = FinderAlgorithm::kBfs;
  q.diversify_prefix = 1;
  q.diversify_suffix = 1;
  out.push_back({"bfs/kl-stable/k=3/l=2/diversify=1,1", q});
  return out;
}

// Full-precision rendering: node chains, weights, lengths, and the
// keywords of every chain cluster (so cluster resolution is pinned too).
std::string Render(const Engine& engine, const char* name,
                   const Result<QueryResult>& result) {
  std::string out = std::string(name) + ":\n";
  if (!result.ok()) {
    return out + "  ERROR: " + result.status().ToString() + "\n";
  }
  for (const StableClusterChain& chain : result.value().chains) {
    out += "  ";
    for (NodeId n : chain.path.nodes) {
      out += StringPrintf("%u-", n);
    }
    out += StringPrintf(" w=%.17g len=%u stab=%.17g\n", chain.path.weight,
                        chain.path.length, chain.path.stability());
    for (size_t i = 0; i < chain.clusters.size(); ++i) {
      out += StringPrintf(
          "    interval %u: %s\n",
          engine.graph().Interval(chain.path.nodes[i]),
          chain.clusters[i]->ToString(engine.dict(), 6).c_str());
    }
  }
  return out;
}

// Fatal assertions require a void helper; callers wrap with
// ASSERT_NO_FATAL_FAILURE so a missing/corrupt fixture aborts the test
// with guidance instead of dereferencing an error Result.
void RenderAll(std::string* out) {
  Engine engine(FixtureEngine());
  auto loaded = engine.IngestCorpusFile(kCorpusPath);
  ASSERT_TRUE(loaded.ok())
      << loaded.status().ToString() << " — regenerate the fixture with "
      << "STABLETEXT_REGEN_GOLDEN=1";
  ASSERT_EQ(loaded.value(), FixtureCorpus().days);
  for (const GoldenQuery& gq : GoldenQueries()) {
    *out += Render(engine, gq.name, engine.Query(gq.query));
  }
}

bool RegenRequested() {
  const char* env = std::getenv("STABLETEXT_REGEN_GOLDEN");
  return env != nullptr && env[0] == '1';
}

TEST(GoldenQueryTest, TopKMatchesCheckedInExpectations) {
  if (RegenRequested()) {
    CorpusGenerator gen(FixtureCorpus());
    ASSERT_TRUE(gen.GenerateToFile(kCorpusPath).ok());
    std::string rendered;
    ASSERT_NO_FATAL_FAILURE(RenderAll(&rendered));
    ASSERT_FALSE(rendered.empty());
    std::ofstream out(kExpectedPath, std::ios::trunc);
    ASSERT_TRUE(out.good());
    out << rendered;
    GTEST_SKIP() << "regenerated " << kExpectedPath;
  }

  std::ifstream in(kExpectedPath);
  ASSERT_TRUE(in.good())
      << "missing " << kExpectedPath
      << " — run with STABLETEXT_REGEN_GOLDEN=1 to create it";
  std::stringstream buffer;
  buffer << in.rdbuf();
  const std::string expected = buffer.str();
  ASSERT_FALSE(expected.empty());

  std::string actual;
  ASSERT_NO_FATAL_FAILURE(RenderAll(&actual));
  EXPECT_EQ(actual, expected)
      << "ranking changed; if intentional, regenerate with "
         "STABLETEXT_REGEN_GOLDEN=1 and review the diff";

  // The golden answers are non-trivial: every kl-stable section must
  // contain at least one chain.
  EXPECT_NE(actual.find("w="), std::string::npos);
}

}  // namespace
}  // namespace stabletext
