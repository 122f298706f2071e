// The four benchmark workloads. Each runs in this process: the load comes
// from at most 4 generator threads and at most 4 connections, and any
// server runs in the same process, reached over loopback TCP.
//
//   ingest_stream  writer only, closed loop of IngestText ticks.
//   query_cold     read only over the wire, ~1,050 distinct queries.
//   query_hot      read only in process, 8 hot queries, cache hits.
//   live_mixed     open-loop durable ticks beside wire readers and two
//                  standing subscriptions.
//
// An untraced run reports the end-to-end metrics; a traced run
// (Config::traced) measures a shorter version with spans, replays every
// committed tick through the layers, runs the query-layer probes and
// reports the per-layer metrics. Both run every correctness check.

#ifndef STABLETEXT_BENCHMARK_WORKLOADS_H_
#define STABLETEXT_BENCHMARK_WORKLOADS_H_

#include "harness.h"

namespace stbench {

void RunIngestStream(const Config& config, const Corpus& corpus,
                     RunResult* result);
void RunQueryCold(const Config& config, const Corpus& corpus,
                  RunResult* result);
void RunQueryHot(const Config& config, const Corpus& corpus,
                 RunResult* result);
void RunLiveMixed(const Config& config, const Corpus& corpus,
                  RunResult* result);

}  // namespace stbench

#endif  // STABLETEXT_BENCHMARK_WORKLOADS_H_
