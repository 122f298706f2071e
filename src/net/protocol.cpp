#include "net/protocol.h"

#include <iterator>
#include <type_traits>

#include "core/snapshot.h"
#include "util/bytes.h"
#include "util/crc32.h"

namespace stabletext {
namespace net {

namespace {

Status Malformed(const char* what) {
  return Status::Corruption(std::string("malformed ") + what + " body");
}

void PutChain(ByteWriter* w, const WireChain& chain) {
  w->Put<uint32_t>(chain.nodes.size());
  for (const NodeId node : chain.nodes) w->Put<uint32_t>(node);
  w->Put<double>(chain.weight);
  w->Put<uint32_t>(chain.length);
  w->PutString(chain.rendered);
}

// Smallest encoding of one chain: node count, weight, length and the
// rendered-text length, with no nodes and no text.
constexpr size_t kMinChainBytes =
    sizeof(uint32_t) + sizeof(double) + sizeof(uint32_t) + sizeof(uint32_t);

bool GetChain(ByteReader* in, WireChain* chain) {
  uint32_t n = 0;
  if (!in->Get(&n) || !in->Fits(n, sizeof(NodeId))) return false;
  chain->nodes.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!in->Get(&chain->nodes[i])) return false;
  }
  return in->Get(&chain->weight) && in->Get(&chain->length) &&
         in->GetString(&chain->rendered);
}

// STATS_RESULT: EngineStats in declaration order — the u32 `intervals`,
// these counters, `io`, then the rest. Every size_t counter is a u64.
static_assert(std::is_same_v<size_t, uint64_t>);
constexpr uint64_t EngineStats::*kStatsBeforeIo[] = {
    &EngineStats::clusters, &EngineStats::edges, &EngineStats::keywords,
    &EngineStats::graph_bytes};
constexpr uint64_t EngineStats::*kStatsAfterIo[] = {
    &EngineStats::query_cache_hits,     &EngineStats::query_cache_misses,
    &EngineStats::publish_ns,           &EngineStats::shared_chunk_count,
    &EngineStats::copied_chunk_count,   &EngineStats::resident_bytes,
    &EngineStats::wal_bytes,            &EngineStats::checkpoint_ns,
    &EngineStats::recovered_epoch,      &EngineStats::subscriptions_active,
    &EngineStats::pushes_sent,          &EngineStats::queries_rejected,
    &EngineStats::queries_served,       &EngineStats::queries_failed};
static_assert(sizeof(EngineStats) ==
                  sizeof(uint64_t) * (1 + std::size(kStatsBeforeIo) +
                                      std::size(kStatsAfterIo)) +
                      sizeof(IoStats),
              "the STATS_RESULT codec must carry every EngineStats field");

}  // namespace

std::string EncodeFrame(MsgType type, uint64_t request_id,
                        const std::string& body) {
  std::string payload;
  payload.reserve(1 + 8 + body.size());
  ByteWriter p(&payload);
  p.Put<uint8_t>(static_cast<uint8_t>(type));
  p.Put<uint64_t>(request_id);
  payload.append(body);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  ByteWriter f(&frame);
  f.Put<uint32_t>(payload.size());
  f.Put<uint32_t>(Crc32(payload.data(), payload.size()));
  frame.append(payload);
  return frame;
}

void FrameReader::Feed(const void* data, size_t size) {
  // Compact the consumed prefix before it dominates the buffer.
  if (off_ > 0 && (off_ == buf_.size() || off_ > 64 * 1024)) {
    buf_.erase(0, off_);
    off_ = 0;
  }
  buf_.append(static_cast<const char*>(data), size);
}

Status FrameReader::Next(Frame* frame) {
  ByteReader in(std::string_view(buf_).substr(off_));
  uint32_t len = 0;
  uint32_t crc = 0;
  if (!in.Get(&len) || !in.Get(&crc)) {
    return Status::NotFound("need more bytes");
  }
  if (len < 9 || len > kMaxFramePayload) {
    return Status::Corruption("bad frame length");
  }
  if (in.remaining() < len) return Status::NotFound("need more bytes");
  const char* payload = buf_.data() + off_ + kFrameHeaderBytes;
  if (Crc32(payload, len) != crc) {
    return Status::Corruption("frame checksum mismatch");
  }
  uint8_t type = 0;
  in.Get(&type);
  in.Get(&frame->request_id);
  frame->type = static_cast<MsgType>(type);
  frame->body.assign(payload + 9, len - 9);
  off_ += kFrameHeaderBytes + len;
  return Status::OK();
}

std::string EncodeQueryBody(const FinderQuery& query, uint8_t flags) {
  std::string body;
  ByteWriter w(&body);
  w.Put<uint8_t>(static_cast<uint8_t>(query.algorithm));
  w.Put<uint8_t>(static_cast<uint8_t>(query.mode));
  w.Put<uint64_t>(query.k);
  w.Put<uint32_t>(query.l);
  w.Put<uint32_t>(query.diversify_prefix);
  w.Put<uint32_t>(query.diversify_suffix);
  w.Put<uint64_t>(query.diversify_candidates);
  w.Put<uint64_t>(query.memory_budget_bytes);
  w.Put<uint8_t>(query.theorem1_pruning ? 1 : 0);
  w.Put<uint64_t>(query.max_probes);
  w.Put<uint8_t>(flags);
  return body;
}

Status DecodeQueryBody(const std::string& body, FinderQuery* query,
                       uint8_t* flags) {
  ByteReader in(body);
  uint8_t algorithm = 0;
  uint8_t mode = 0;
  uint64_t k = 0;
  uint8_t theorem1 = 0;
  if (!in.Get(&algorithm) || !in.Get(&mode) || !in.Get(&k) ||
      !in.Get(&query->l) || !in.Get(&query->diversify_prefix) ||
      !in.Get(&query->diversify_suffix)) {
    return Malformed("query");
  }
  uint64_t candidates = 0;
  uint64_t budget = 0;
  uint64_t max_probes = 0;
  if (!in.Get(&candidates) || !in.Get(&budget) || !in.Get(&theorem1) ||
      !in.Get(&max_probes) || !in.Get(flags) || !in.Done()) {
    return Malformed("query");
  }
  if (algorithm > static_cast<uint8_t>(FinderAlgorithm::kOnline) ||
      mode > static_cast<uint8_t>(FinderMode::kNormalized)) {
    return Malformed("query");
  }
  query->algorithm = static_cast<FinderAlgorithm>(algorithm);
  query->mode = static_cast<FinderMode>(mode);
  query->k = static_cast<size_t>(k);
  query->diversify_candidates = static_cast<size_t>(candidates);
  query->memory_budget_bytes = static_cast<size_t>(budget);
  query->theorem1_pruning = theorem1 != 0;
  query->max_probes = max_probes;
  return Status::OK();
}

std::string EncodeResultBody(const WireResult& result) {
  std::string body;
  ByteWriter w(&body);
  w.Put<uint64_t>(result.epoch);
  w.Put<uint32_t>(result.chains.size());
  for (const WireChain& chain : result.chains) PutChain(&w, chain);
  return body;
}

Status DecodeResultBody(const std::string& body, WireResult* result) {
  ByteReader in(body);
  uint32_t n = 0;
  if (!in.Get(&result->epoch) || !in.Get(&n) ||
      !in.Fits(n, kMinChainBytes)) {
    return Malformed("result");
  }
  result->chains.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!GetChain(&in, &result->chains[i])) return Malformed("result");
  }
  return in.Done() ? Status::OK() : Malformed("result");
}

std::string EncodeDeltaBody(const WireDelta& delta) {
  std::string body;
  ByteWriter w(&body);
  w.Put<uint64_t>(delta.subscription_id);
  w.Put<uint64_t>(delta.epoch);
  w.Put<uint32_t>(delta.new_size);
  w.Put<uint32_t>(delta.changes.size());
  for (const auto& [rank, chain] : delta.changes) {
    w.Put<uint32_t>(rank);
    PutChain(&w, chain);
  }
  return body;
}

Status DecodeDeltaBody(const std::string& body, WireDelta* delta) {
  ByteReader in(body);
  uint32_t n = 0;
  if (!in.Get(&delta->subscription_id) || !in.Get(&delta->epoch) ||
      !in.Get(&delta->new_size) || !in.Get(&n) ||
      !in.Fits(n, sizeof(uint32_t) + kMinChainBytes)) {
    return Malformed("delta");
  }
  delta->changes.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!in.Get(&delta->changes[i].first) ||
        !GetChain(&in, &delta->changes[i].second)) {
      return Malformed("delta");
    }
  }
  return in.Done() ? Status::OK() : Malformed("delta");
}

std::string EncodeStatsBody(const EngineStats& stats) {
  std::string body;
  ByteWriter w(&body);
  w.Put<uint32_t>(stats.intervals);
  for (const auto field : kStatsBeforeIo) w.Put<uint64_t>(stats.*field);
  WriteIoStats(&w, stats.io);
  for (const auto field : kStatsAfterIo) w.Put<uint64_t>(stats.*field);
  return body;
}

Status DecodeStatsBody(const std::string& body, EngineStats* stats) {
  ByteReader in(body);
  bool ok = in.Get(&stats->intervals);
  for (const auto field : kStatsBeforeIo) ok = ok && in.Get(&(stats->*field));
  ok = ok && ReadIoStats(&in, &stats->io);
  for (const auto field : kStatsAfterIo) ok = ok && in.Get(&(stats->*field));
  return ok && in.Done() ? Status::OK() : Malformed("stats");
}

std::string EncodeRetryBody(const WireRetry& retry) {
  std::string body;
  ByteWriter w(&body);
  w.Put<uint32_t>(retry.inflight);
  w.Put<uint32_t>(retry.queued);
  return body;
}

Status DecodeRetryBody(const std::string& body, WireRetry* retry) {
  ByteReader in(body);
  if (!in.Get(&retry->inflight) || !in.Get(&retry->queued) ||
      !in.Done()) {
    return Malformed("retry");
  }
  return Status::OK();
}

std::string EncodeErrorBody(const Status& status) {
  std::string body;
  ByteWriter w(&body);
  w.Put<uint8_t>(static_cast<uint8_t>(status.code()));
  w.PutString(status.message());
  return body;
}

Status DecodeErrorBody(const std::string& body, Status* status) {
  ByteReader in(body);
  uint8_t code = 0;
  std::string message;
  if (!in.Get(&code) || !in.GetString(&message) || !in.Done() ||
      code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Malformed("error");
  }
  *status =
      Status::FromCode(static_cast<StatusCode>(code), std::move(message));
  return Status::OK();
}

std::string EncodeU64Body(uint64_t value) {
  std::string body;
  ByteWriter(&body).Put<uint64_t>(value);
  return body;
}

Status DecodeU64Body(const std::string& body, uint64_t* value) {
  ByteReader in(body);
  if (!in.Get(value) || !in.Done()) return Malformed("u64");
  return Status::OK();
}

Status ApplyDelta(std::vector<WireChain>* topk, const WireDelta& delta) {
  if (delta.new_size > topk->size() + delta.changes.size()) {
    return Status::Corruption("delta grows past its changed ranks");
  }
  for (const auto& [rank, chain] : delta.changes) {
    if (rank >= delta.new_size) {
      return Status::Corruption("delta rank out of range");
    }
  }
  topk->resize(delta.new_size);
  for (const auto& [rank, chain] : delta.changes) (*topk)[rank] = chain;
  return Status::OK();
}

WireDelta DiffTopK(const std::vector<WireChain>& last,
                   const std::vector<WireChain>& now) {
  WireDelta delta;
  delta.new_size = static_cast<uint32_t>(now.size());
  for (uint32_t rank = 0; rank < now.size(); ++rank) {
    if (rank >= last.size() || last[rank] != now[rank]) {
      delta.changes.emplace_back(rank, now[rank]);
    }
  }
  return delta;
}

}  // namespace net
}  // namespace stabletext
