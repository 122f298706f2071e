// Shared plumbing for the table/figure reproduction harnesses. Each bench
// binary regenerates tables or figures of the paper: same axes, same
// parameter sweeps, printed as aligned rows (bench_finders holds every
// Section 5.2 finder figure; the others one table or study each).
//
// Scale: by default sweeps run at a reduced scale so every bench finishes
// in seconds to a minute. Set STABLETEXT_BENCH_FULL=1 for the paper's
// exact parameters.

#ifndef STABLETEXT_BENCH_BENCH_COMMON_H_
#define STABLETEXT_BENCH_BENCH_COMMON_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <type_traits>
#include <vector>

#include "gen/cluster_graph_generator.h"
#include "stable/finder.h"
#include "storage/io_stats.h"
#include "util/status.h"
#include "util/strings.h"
#include "util/timer.h"

namespace stabletext {
namespace bench {

/// Common command-line knobs shared by the harness binaries:
///   --threads N       worker threads for the parallel pipeline (default 1)
///   --repetitions N   timed repetitions; the best is reported (default 1)
///   --json PATH       write a machine-readable result file (default: the
///                     harness's own BENCH_*.json name; "" disables)
struct BenchArgs {
  size_t threads = 1;
  int repetitions = 1;
  std::string json_path;
};

/// Strict decimal parse (same contract as stabletext_cli's ParseNum):
/// the whole string must be a number — "10abc" or "" is a usage error,
/// not a silent zero the way atoi/atol would report it.
inline bool ParseBenchNum(const char* s, long* out) {
  if (s == nullptr || *s == '\0') return false;
  char* end = nullptr;
  *out = std::strtol(s, &end, 10);
  return *end == '\0';
}

inline BenchArgs ParseArgs(int argc, char** argv,
                           const char* default_json = "") {
  BenchArgs args;
  args.json_path = default_json;
  const auto usage_exit = [&](const char* flag, const char* got) {
    std::fprintf(stderr,
                 "flag %s needs a non-negative numeric value, got \"%s\"\n"
                 "usage: %s [--threads N] [--repetitions N] [--json PATH]\n",
                 flag, got, argv[0]);
    std::exit(2);
  };
  for (int i = 1; i < argc; ++i) {
    const char* a = argv[i];
    auto value = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : "";
    };
    long n = 0;
    if (std::strcmp(a, "--threads") == 0) {
      // Garbled values ("10abc", "") are usage errors — no atoi
      // silent-zero; an explicit 0 keeps its historical clamp-to-1.
      const char* v = value();
      if (!ParseBenchNum(v, &n) || n < 0) usage_exit(a, v);
      args.threads = n == 0 ? 1 : static_cast<size_t>(n);
    } else if (std::strcmp(a, "--repetitions") == 0) {
      const char* v = value();
      if (!ParseBenchNum(v, &n) || n < 0) usage_exit(a, v);
      args.repetitions = n == 0 ? 1 : static_cast<int>(n);
    } else if (std::strcmp(a, "--json") == 0) {
      args.json_path = value();
    } else {
      std::fprintf(stderr,
                   "unknown flag %s (known: --threads N "
                   "--repetitions N --json PATH)\n",
                   a);
      std::exit(2);
    }
  }
  return args;
}

/// Minimal JSON object builder for the BENCH_*.json trajectory files.
/// Values are emitted in insertion order; Raw() splices nested
/// objects/arrays built the same way.
class Json {
 public:
  Json& Put(const std::string& key, const std::string& value) {
    return Emit(key, "\"" + Escaped(value) + "\"");
  }
  Json& Put(const std::string& key, const char* value) {
    return Put(key, std::string(value));
  }
  Json& Put(const std::string& key, double value) {
    return Emit(key, StringPrintf("%.6f", value));
  }
  template <typename T,
            typename = std::enable_if_t<std::is_integral_v<T>>>
  Json& Put(const std::string& key, T value) {
    if constexpr (std::is_signed_v<T>) {
      return Emit(key, std::to_string(static_cast<long long>(value)));
    } else {
      return Emit(key,
                  std::to_string(static_cast<unsigned long long>(value)));
    }
  }
  Json& Raw(const std::string& key, const std::string& raw) {
    return Emit(key, raw);
  }
  std::string ToString() const { return "{" + body_ + "}"; }

  static std::string Array(const std::vector<std::string>& items) {
    std::string out = "[";
    for (size_t i = 0; i < items.size(); ++i) {
      if (i > 0) out += ",";
      out += items[i];
    }
    return out + "]";
  }

 private:
  static std::string Escaped(const std::string& s) {
    std::string out;
    for (const char c : s) {
      switch (c) {
        case '"': out += "\\\""; break;
        case '\\': out += "\\\\"; break;
        case '\n': out += "\\n"; break;
        case '\r': out += "\\r"; break;
        case '\t': out += "\\t"; break;
        default:
          if (static_cast<unsigned char>(c) < 0x20) {
            out += StringPrintf("\\u%04x", c);
          } else {
            out += c;
          }
      }
    }
    return out;
  }
  Json& Emit(const std::string& key, const std::string& rendered) {
    if (!body_.empty()) body_ += ",";
    body_ += "\"" + Escaped(key) + "\":" + rendered;
    return *this;
  }
  std::string body_;
};

/// JSON object for an IoStats snapshot.
inline std::string IoStatsJson(const IoStats& io) {
  Json j;
  j.Put("page_reads", io.page_reads)
      .Put("page_writes", io.page_writes)
      .Put("logical_reads", io.logical_reads)
      .Put("random_seeks", io.random_seeks)
      .Put("bytes_read", io.bytes_read)
      .Put("bytes_written", io.bytes_written)
      .Put("fsyncs", io.fsyncs)
      .Put("sort_runs_spilled", io.sort_runs_spilled)
      .Put("sort_merge_passes", io.sort_merge_passes)
      .Put("sort_in_memory_sorts", io.sort_in_memory_sorts)
      .Put("sort_tail_records", io.sort_tail_records);
  return j.ToString();
}

/// Writes `json` to `path` (no-op when path is empty).
inline void WriteJsonFile(const std::string& path,
                          const std::string& json) {
  if (path.empty()) return;
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    return;
  }
  out << json << "\n";
  std::printf("json written to %s\n", path.c_str());
}

/// Prints `what` and `status` to stderr and exits 1 when `status` is an
/// error: a bench whose run failed must not report success.
inline void CheckOk(const Status& status, const char* what) {
  if (status.ok()) return;
  std::fprintf(stderr, "%s failed: %s\n", what, status.ToString().c_str());
  std::exit(1);
}

/// True when the paper's full-scale parameters were requested.
inline bool FullScale() {
  const char* env = std::getenv("STABLETEXT_BENCH_FULL");
  return env != nullptr && env[0] == '1';
}

/// Picks the reduced or full value.
template <typename T>
T Pick(T reduced, T full) {
  return FullScale() ? full : reduced;
}

inline void Header(const char* title, const char* paper_ref,
                   const char* setting) {
  std::printf("== %s ==\n", title);
  std::printf("paper: %s\n", paper_ref);
  std::printf("setting: %s%s\n\n", setting,
              FullScale() ? " [FULL SCALE]" : " [reduced scale; set "
                                              "STABLETEXT_BENCH_FULL=1 "
                                              "for paper parameters]");
}

inline ClusterGraph Generate(uint32_t m, uint32_t n, uint32_t d, uint32_t g,
                             uint64_t seed = 42) {
  ClusterGraphGenOptions opt;
  opt.m = m;
  opt.n = n;
  opt.d = d;
  opt.g = g;
  opt.seed = seed;
  return ClusterGraphGenerator::Generate(opt);
}

/// Wall-clock of one finder invocation, in seconds.
template <typename Fn>
double TimeSeconds(Fn&& fn) {
  WallTimer timer;
  fn();
  return timer.ElapsedSeconds();
}

}  // namespace bench
}  // namespace stabletext

#endif  // STABLETEXT_BENCH_BENCH_COMMON_H_
