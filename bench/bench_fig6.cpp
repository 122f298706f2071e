// Figure 6: "Running time of the Art algorithm." Total cluster-generation
// time (chi-squared test, rho pruning, biconnected-component extraction)
// for one day of posts, as the rho pruning threshold increases. The
// paper's shape: time decreases drastically with rho because pruning
// shrinks the graph.

#include "bench_common.h"
#include "cluster/cluster_extractor.h"
#include "cooccur/cooccurrence_counter.h"
#include "gen/corpus_generator.h"
#include "graph/graph_builder.h"
#include "text/document.h"

namespace stabletext {
namespace {

void Run() {
  bench::Header("Figure 6: cluster generation time vs rho threshold",
                "Section 5.1, Figure 6",
                "one synthetic day; chi^2 + rho pruning + Art algorithm");

  CorpusGenOptions copt;
  copt.days = 1;
  copt.posts_per_day = bench::Pick<uint32_t>(4000, 40000);
  copt.vocabulary = bench::Pick<uint32_t>(20000, 100000);
  copt.script = EventScript::PaperWeek();
  CorpusGenerator gen(copt);

  // Counting happens once; the figure times the per-threshold work the
  // paper describes (reading triplets, tests, pruning, Art), which is why
  // the curve falls as rho rises.
  DocumentProcessor processor;
  KeywordDict dict;
  CooccurrenceCounter counter(&dict);
  for (const std::string& post : gen.GenerateDay(0)) {
    bench::CheckOk(counter.Add(processor.Process(0, post)), "counting");
  }
  CooccurrenceTable table;
  bench::CheckOk(counter.Finish(&table), "counting");

  std::printf("%-6s %12s %12s %12s %10s\n", "rho", "edges(G')",
              "vertices(G')", "clusters", "time(s)");
  for (double rho : {0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9}) {
    double seconds = 0;
    size_t edges = 0, vertices = 0, clusters = 0;
    seconds = bench::TimeSeconds([&] {
      GraphPrunerOptions popt;
      popt.rho_threshold = rho;
      KeywordGraphSummary summary;
      GraphBuilder builder(popt);
      KeywordGraph graph = builder.Build(table, &summary);
      edges = graph.edge_count();
      vertices = graph.NonIsolatedCount();
      ClusterExtractor extractor;
      auto result = extractor.Extract(graph, 0);
      bench::CheckOk(result.status(), "cluster extraction");
      clusters = result.value().size();
    });
    std::printf("%-6.1f %12zu %12zu %12zu %10.3f\n", rho, edges, vertices,
                clusters, seconds);
  }
  std::printf(
      "\nshape check (paper Figure 6): time decreases drastically as rho "
      "increases,\nsince pruning removes edges and vertices before Art "
      "runs.\n");
}

}  // namespace
}  // namespace stabletext

int main() {
  stabletext::Run();
  return 0;
}
