// Query-layer probes of a traced run. On a quiescent engine they time, as
// spans, the snapshot pin (Engine::snapshot), a query-cache hit
// (Engine::QueryAt on a cached key), every finder through RunFinder on
// the pinned graph, GraphSnapshot::ToChains, and a cached query's round
// trip over loopback TCP — the same calls in every workload, so each
// workload's traced run reports every query-layer metric.

#ifndef STABLETEXT_BENCHMARK_PROBE_H_
#define STABLETEXT_BENCHMARK_PROBE_H_

#include <cstdint>

#include "core/engine.h"
#include "harness.h"
#include "trace.h"

namespace stbench {

/// Wire traffic the workload itself sent (for net.retry_ratio).
struct WireTraffic {
  uint64_t attempts = 0;
  uint64_t retries = 0;
};

/// In-process sibling spans of a sampled request, sharing its id:
/// Engine::snapshot(), RunFinder on the pinned graph, and
/// GraphSnapshot::ToChains.
void TraceInProcess(const stabletext::Engine& engine,
                    const stabletext::FinderQuery& query, uint64_t request,
                    SpanLog* log);

/// Runs the probes and adds the query-layer metrics. `port` is a running
/// net::Server on `engine`, or 0 to start one for the probes.
void RunQueryProbes(stabletext::Engine* engine, const Config& config,
                    uint16_t port, const WireTraffic& traffic, SpanLog* log,
                    RunResult* result);

}  // namespace stbench

#endif  // STABLETEXT_BENCHMARK_PROBE_H_
