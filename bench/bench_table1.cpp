// Table 1: "Sizes of resulting keyword graphs (each for a single day) for
// January 6 and 7 2007 after stemming and removal of stop words."
// Columns: Date | File Size | # keywords | # edges.
//
// The corpus is the synthetic BlogScope substitute (see DESIGN.md); the
// shape claim — edges vastly outnumber keywords, consecutive days are
// comparable — is scale-free.
//
// Each day is counted once by the paper's route (pair file, external
// sort, aggregation) and pruned at two support floors: 0 (the paper's
// formulation) and 5 (every benchmark engine's). At each floor the one
// pass over an inverted index the engine uses builds the same graph; at 5
// it indexes only keywords with A(u) >= 5 and counts the other pairs
// apart. Both times are reported; the run exits non-zero if the two routes
// disagree on the keyword, pre-prune edge or surviving edge count at
// either floor.
//
// Flags: --threads N offloads external-sort run generation to a pool;
// --json PATH (default BENCH_table1.json) records sizes and timings.

#include <algorithm>
#include <map>
#include <memory>

#include "bench_common.h"
#include "cooccur/cooccurrence_counter.h"
#include "gen/corpus_generator.h"
#include "graph/graph_builder.h"
#include "storage/temp_dir.h"
#include "text/corpus.h"
#include "text/document.h"
#include "util/strings.h"
#include "util/thread_pool.h"

namespace stabletext {
namespace {

// Returns false when a step fails or the two counting routes disagree.
bool Run(const bench::BenchArgs& args) {
  bench::Header("Table 1: keyword graph sizes per day",
                "Section 3, Table 1",
                "2 synthetic days of blog posts; pair counting after "
                "stemming and stop-word removal");
  std::printf("threads=%zu\n\n", args.threads);

  CorpusGenOptions copt;
  copt.days = 2;
  copt.posts_per_day = bench::Pick<uint32_t>(4000, 40000);
  copt.vocabulary = bench::Pick<uint32_t>(20000, 200000);
  copt.script = EventScript::PaperWeek();
  CorpusGenerator gen(copt);

  std::unique_ptr<ThreadPool> pool;
  if (args.threads > 1) pool = std::make_unique<ThreadPool>(args.threads);

  TempDir dir("bench_table1");
  bench::CheckOk(dir.status(), "scratch directory");
  std::printf("%-8s %8s %12s %12s %14s %12s %12s %12s\n", "Day",
              "support", "File Size", "# keywords", "# edges", "kept",
              "sort+prune s", "one pass s");
  std::vector<std::string> day_json;
  IoStats io;
  bool agree = true;
  for (uint32_t day = 0; day < 2; ++day) {
    const std::string path =
        dir.FilePath("day" + std::to_string(day) + ".txt");
    CorpusWriter writer;
    bench::CheckOk(writer.Open(path), "corpus write");
    DocumentProcessor processor;
    KeywordDict dict;
    std::vector<std::vector<KeywordId>> documents;
    for (const std::string& post : gen.GenerateDay(day)) {
      bench::CheckOk(writer.Append(day, post), "corpus write");
      std::vector<KeywordId> ids;
      for (const std::string& w : processor.Process(day, post).keywords) {
        ids.push_back(dict.Intern(w));
      }
      std::sort(ids.begin(), ids.end());
      documents.push_back(std::move(ids));
    }
    bench::CheckOk(writer.Finish(), "corpus write");

    // The paper's route: pair file, external sort, aggregate.
    CooccurrenceCounterOptions opt;
    opt.sort_pool = pool.get();
    CooccurrenceCounter counter(&dict, opt, &io);
    WallTimer sort_timer;
    for (const std::vector<KeywordId>& ids : documents) {
      bench::CheckOk(counter.AddInterned(ids), "sorted route");
    }
    CooccurrenceTable table;
    bench::CheckOk(counter.Finish(&table), "sorted route");
    const double count_seconds = sort_timer.ElapsedSeconds();

    for (const uint32_t support : {0u, 5u}) {
      GraphPrunerOptions pruning;
      pruning.min_pair_support = support;
      const GraphBuilder builder(pruning);
      WallTimer prune_timer;
      KeywordGraphSummary sorted;
      builder.Build(table, &sorted);
      const double sort_seconds = count_seconds + prune_timer.ElapsedSeconds();

      // The engine's route: one pass over an inverted index.
      WallTimer pass_timer;
      KeywordGraphSummary one_pass;
      bench::CheckOk(
          builder.BuildFromDocuments(documents, dict.size(), &one_pass)
              .status(),
          "one pass");
      const double pass_seconds = pass_timer.ElapsedSeconds();

      std::printf("%-8u %8u %12s %12zu %14zu %12zu %12.3f %12.3f\n", day,
                  support, HumanBytes(FileSizeBytes(path)).c_str(),
                  sorted.keyword_count, sorted.raw_edge_count,
                  sorted.prune.surviving_edges, sort_seconds, pass_seconds);
      if (one_pass.keyword_count != sorted.keyword_count ||
          one_pass.raw_edge_count != sorted.raw_edge_count ||
          one_pass.prune.surviving_edges != sorted.prune.surviving_edges) {
        std::printf("MISMATCH at support %u: one pass gives %zu keywords, "
                    "%zu edges, %zu kept; the sorted route %zu, %zu, %zu\n",
                    support, one_pass.keyword_count, one_pass.raw_edge_count,
                    one_pass.prune.surviving_edges, sorted.keyword_count,
                    sorted.raw_edge_count, sorted.prune.surviving_edges);
        agree = false;
      }
      bench::Json j;
      j.Put("day", day)
          .Put("min_pair_support", support)
          .Put("file_bytes", FileSizeBytes(path))
          .Put("keywords", sorted.keyword_count)
          .Put("edges", sorted.raw_edge_count)
          .Put("kept_edges", sorted.prune.surviving_edges)
          .Put("seconds", sort_seconds)
          .Put("one_pass_seconds", pass_seconds);
      day_json.push_back(j.ToString());
    }
  }
  std::printf(
      "\nshape check (paper: 2889k/2872k keywords, 138M/136M edges):\n"
      "  - edges >> keywords on both days\n"
      "  - consecutive days are comparable in size\n");

  bench::Json out;
  out.Put("bench", "table1")
      .Put("full_scale", bench::FullScale() ? 1 : 0)
      .Put("threads", args.threads)
      .Raw("days", bench::Json::Array(day_json))
      .Raw("io", bench::IoStatsJson(io));
  bench::WriteJsonFile(args.json_path, out.ToString());
  return agree;
}

}  // namespace
}  // namespace stabletext

int main(int argc, char** argv) {
  return stabletext::Run(stabletext::bench::ParseArgs(
             argc, argv, "BENCH_table1.json"))
             ? 0
             : 1;
}
