// stb_bench: runs one benchmark workload in this process and prints its
// result record as the last line of standard output.
//
//   stb_bench --workload NAME --seed N --seconds S --scratch DIR
//             [--trace-out PATH] [--smoke] [--inject-wrong-answer]
//
// NAME is ingest_stream, query_cold, query_hot or live_mixed. DIR holds
// durable state, replay logs and the library's spill directories (TMPDIR
// is pointed at it). --trace-out makes this a traced run. Exits 1 when a
// correctness check fails and 2 on a usage error.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>

#include "harness.h"
#include "workloads.h"

namespace {

int Usage(const char* argv0, const char* problem) {
  std::fprintf(stderr,
               "%s\nusage: %s --workload "
               "ingest_stream|query_cold|query_hot|live_mixed --seed N "
               "--seconds S --scratch DIR [--trace-out PATH] [--smoke] "
               "[--inject-wrong-answer]\n",
               problem, argv0);
  return 2;
}

// Whole-string parses: "10abc" or "" is a usage error, not a silent 0.
bool ParseSeconds(const char* s, double* out) {
  char* end = nullptr;
  *out = std::strtod(s, &end);
  return *s != '\0' && *end == '\0';
}

bool ParseSeed(const char* s, uint64_t* out) {
  char* end = nullptr;
  *out = std::strtoull(s, &end, 10);
  return *s >= '0' && *s <= '9' && *end == '\0';
}

}  // namespace

int main(int argc, char** argv) {
  stbench::Config config;
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    if (flag == "--smoke") {
      config.smoke = true;
    } else if (flag == "--inject-wrong-answer") {
      config.inject_wrong_answer = true;
    } else if (value == nullptr) {
      return Usage(argv[0], ("missing value for " + flag).c_str());
    } else if (flag == "--workload") {
      config.workload = argv[++i];
    } else if (flag == "--seed") {
      if (!ParseSeed(argv[++i], &config.seed)) {
        return Usage(argv[0], "--seed needs a non-negative integer");
      }
    } else if (flag == "--seconds") {
      if (!ParseSeconds(argv[++i], &config.seconds) ||
          !(config.seconds > 0)) {
        return Usage(argv[0], "--seconds needs a positive number");
      }
    } else if (flag == "--scratch") {
      config.scratch = argv[++i];
    } else if (flag == "--trace-out") {
      config.trace_path = argv[++i];
    } else {
      return Usage(argv[0], ("unknown flag " + flag).c_str());
    }
  }
  if (config.scratch.empty()) return Usage(argv[0], "--scratch is required");
  std::error_code ec;
  std::filesystem::create_directories(config.scratch, ec);
  if (ec) return Usage(argv[0], "cannot create the scratch directory");
  // The library's external sorter and spill stacks create their
  // directories under TMPDIR; keep them inside the scratch directory.
  setenv("TMPDIR", config.scratch.c_str(), 1);

  using RunFn = void (*)(const stbench::Config&, const stbench::Corpus&,
                         stbench::RunResult*);
  RunFn run = nullptr;
  if (config.workload == "ingest_stream") run = stbench::RunIngestStream;
  if (config.workload == "query_cold") run = stbench::RunQueryCold;
  if (config.workload == "query_hot") run = stbench::RunQueryHot;
  if (config.workload == "live_mixed") run = stbench::RunLiveMixed;
  if (run == nullptr) return Usage(argv[0], "unknown --workload");

  const stbench::Corpus corpus(config.seed);  // Not timed.
  stbench::RunResult result;
  run(config, corpus, &result);
  std::fflush(stdout);
  std::printf("%s\n", stbench::ResultJson(config, result).c_str());
  return result.correct() ? 0 : 1;
}
