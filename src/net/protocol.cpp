#include "net/protocol.h"

#include <cstring>

#include "util/crc32.h"

namespace stabletext {
namespace net {

namespace {

// Append/consume helpers. Fixed-width fields are memcpy'd host-endian —
// the same machine-local discipline as the storage layer (see the header
// comment).

template <typename T>
void PutPod(std::string* out, T value) {
  static_assert(std::is_trivially_copyable_v<T>);
  out->append(reinterpret_cast<const char*>(&value), sizeof(value));
}

void PutString(std::string* out, const std::string& s) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(s.size()));
  out->append(s);
}

// Bounds-checked sequential reader over a decoded body.
class BodyReader {
 public:
  explicit BodyReader(const std::string& body) : body_(body) {}

  template <typename T>
  bool Get(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    if (body_.size() - off_ < sizeof(T)) return false;
    std::memcpy(value, body_.data() + off_, sizeof(T));
    off_ += sizeof(T);
    return true;
  }

  bool GetString(std::string* s) {
    uint32_t len = 0;
    if (!Get(&len)) return false;
    if (body_.size() - off_ < len) return false;
    s->assign(body_.data() + off_, len);
    off_ += len;
    return true;
  }

  bool Done() const { return off_ == body_.size(); }
  size_t remaining() const { return body_.size() - off_; }

 private:
  const std::string& body_;
  size_t off_ = 0;
};

Status Malformed(const char* what) {
  return Status::Corruption(std::string("malformed ") + what + " body");
}

void PutChain(std::string* out, const WireChain& chain) {
  PutPod<uint32_t>(out, static_cast<uint32_t>(chain.nodes.size()));
  for (const NodeId node : chain.nodes) PutPod<uint32_t>(out, node);
  PutPod<double>(out, chain.weight);
  PutPod<uint32_t>(out, chain.length);
  PutString(out, chain.rendered);
}

// Smallest encoding of one chain: node count, weight, length and the
// rendered-text length, with no nodes and no text.
constexpr size_t kMinChainBytes =
    sizeof(uint32_t) + sizeof(double) + sizeof(uint32_t) + sizeof(uint32_t);

bool GetChain(BodyReader* in, WireChain* chain) {
  uint32_t n = 0;
  if (!in->Get(&n)) return false;
  if (n > kMaxFramePayload / sizeof(NodeId)) return false;
  chain->nodes.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!in->Get(&chain->nodes[i])) return false;
  }
  return in->Get(&chain->weight) && in->Get(&chain->length) &&
         in->GetString(&chain->rendered);
}

}  // namespace

std::string EncodeFrame(MsgType type, uint64_t request_id,
                        const std::string& body) {
  std::string payload;
  payload.reserve(1 + 8 + body.size());
  PutPod<uint8_t>(&payload, static_cast<uint8_t>(type));
  PutPod<uint64_t>(&payload, request_id);
  payload.append(body);
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  PutPod<uint32_t>(&frame, static_cast<uint32_t>(payload.size()));
  PutPod<uint32_t>(&frame, Crc32(payload.data(), payload.size()));
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
  if (buffered() < kFrameHeaderBytes) {
    return Status::NotFound("need more bytes");
  }
  uint32_t len = 0;
  uint32_t crc = 0;
  std::memcpy(&len, buf_.data() + off_, sizeof(len));
  std::memcpy(&crc, buf_.data() + off_ + 4, sizeof(crc));
  if (len < 9 || len > kMaxFramePayload) {
    return Status::Corruption("bad frame length");
  }
  if (buffered() < kFrameHeaderBytes + len) {
    return Status::NotFound("need more bytes");
  }
  const char* payload = buf_.data() + off_ + kFrameHeaderBytes;
  if (Crc32(payload, len) != crc) {
    return Status::Corruption("frame checksum mismatch");
  }
  frame->type = static_cast<MsgType>(static_cast<uint8_t>(payload[0]));
  std::memcpy(&frame->request_id, payload + 1, sizeof(uint64_t));
  frame->body.assign(payload + 9, len - 9);
  off_ += kFrameHeaderBytes + len;
  return Status::OK();
}

std::string EncodeQueryBody(const FinderQuery& query, uint8_t flags) {
  std::string body;
  PutPod<uint8_t>(&body, static_cast<uint8_t>(query.algorithm));
  PutPod<uint8_t>(&body, static_cast<uint8_t>(query.mode));
  PutPod<uint64_t>(&body, query.k);
  PutPod<uint32_t>(&body, query.l);
  PutPod<uint32_t>(&body, query.diversify_prefix);
  PutPod<uint32_t>(&body, query.diversify_suffix);
  PutPod<uint64_t>(&body, query.diversify_candidates);
  PutPod<uint64_t>(&body, query.memory_budget_bytes);
  PutPod<uint8_t>(&body, query.theorem1_pruning ? 1 : 0);
  PutPod<uint64_t>(&body, query.max_probes);
  PutPod<uint8_t>(&body, flags);
  return body;
}

Status DecodeQueryBody(const std::string& body, FinderQuery* query,
                       uint8_t* flags) {
  BodyReader in(body);
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
  PutPod<uint64_t>(&body, result.epoch);
  PutPod<uint8_t>(&body, result.warm_online ? 1 : 0);
  PutPod<uint32_t>(&body, static_cast<uint32_t>(result.chains.size()));
  for (const WireChain& chain : result.chains) PutChain(&body, chain);
  return body;
}

Status DecodeResultBody(const std::string& body, WireResult* result) {
  BodyReader in(body);
  uint8_t warm = 0;
  uint32_t n = 0;
  if (!in.Get(&result->epoch) || !in.Get(&warm) || !in.Get(&n) ||
      n > in.remaining() / kMinChainBytes) {
    return Malformed("result");
  }
  result->warm_online = warm != 0;
  result->chains.resize(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (!GetChain(&in, &result->chains[i])) return Malformed("result");
  }
  return in.Done() ? Status::OK() : Malformed("result");
}

std::string EncodeDeltaBody(const WireDelta& delta) {
  std::string body;
  PutPod<uint64_t>(&body, delta.subscription_id);
  PutPod<uint64_t>(&body, delta.epoch);
  PutPod<uint32_t>(&body, delta.new_size);
  PutPod<uint32_t>(&body, static_cast<uint32_t>(delta.changes.size()));
  for (const auto& [rank, chain] : delta.changes) {
    PutPod<uint32_t>(&body, rank);
    PutChain(&body, chain);
  }
  return body;
}

Status DecodeDeltaBody(const std::string& body, WireDelta* delta) {
  BodyReader in(body);
  uint32_t n = 0;
  if (!in.Get(&delta->subscription_id) || !in.Get(&delta->epoch) ||
      !in.Get(&delta->new_size) || !in.Get(&n) ||
      n > in.remaining() / (sizeof(uint32_t) + kMinChainBytes)) {
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

std::string EncodeStatsBody(const WireStats& stats) {
  std::string body;
  PutPod<uint64_t>(&body, stats.epoch);
  PutPod<uint32_t>(&body, stats.intervals);
  PutPod<uint64_t>(&body, stats.clusters);
  PutPod<uint64_t>(&body, stats.edges);
  PutPod<uint64_t>(&body, stats.keywords);
  PutPod<uint64_t>(&body, stats.resident_bytes);
  PutPod<uint64_t>(&body, stats.query_cache_hits);
  PutPod<uint64_t>(&body, stats.query_cache_misses);
  PutPod<uint64_t>(&body, stats.subscriptions_active);
  PutPod<uint64_t>(&body, stats.pushes_sent);
  PutPod<uint64_t>(&body, stats.queries_rejected);
  PutPod<uint64_t>(&body, stats.queries_served);
  PutPod<uint64_t>(&body, stats.queries_failed);
  return body;
}

Status DecodeStatsBody(const std::string& body, WireStats* stats) {
  BodyReader in(body);
  if (!in.Get(&stats->epoch) || !in.Get(&stats->intervals) ||
      !in.Get(&stats->clusters) || !in.Get(&stats->edges) ||
      !in.Get(&stats->keywords) || !in.Get(&stats->resident_bytes) ||
      !in.Get(&stats->query_cache_hits) ||
      !in.Get(&stats->query_cache_misses) ||
      !in.Get(&stats->subscriptions_active) ||
      !in.Get(&stats->pushes_sent) || !in.Get(&stats->queries_rejected) ||
      !in.Get(&stats->queries_served) || !in.Get(&stats->queries_failed) ||
      !in.Done()) {
    return Malformed("stats");
  }
  return Status::OK();
}

std::string EncodeRetryBody(const WireRetry& retry) {
  std::string body;
  PutPod<uint32_t>(&body, retry.inflight);
  PutPod<uint32_t>(&body, retry.queued);
  return body;
}

Status DecodeRetryBody(const std::string& body, WireRetry* retry) {
  BodyReader in(body);
  if (!in.Get(&retry->inflight) || !in.Get(&retry->queued) ||
      !in.Done()) {
    return Malformed("retry");
  }
  return Status::OK();
}

std::string EncodeErrorBody(const Status& status) {
  std::string body;
  PutPod<uint8_t>(&body, static_cast<uint8_t>(status.code()));
  PutString(&body, status.message());
  return body;
}

Status DecodeErrorBody(const std::string& body, Status* status) {
  BodyReader in(body);
  uint8_t code = 0;
  std::string message;
  if (!in.Get(&code) || !in.GetString(&message) || !in.Done() ||
      code > static_cast<uint8_t>(StatusCode::kResourceExhausted)) {
    return Malformed("error");
  }
  switch (static_cast<StatusCode>(code)) {
    case StatusCode::kOk:
      *status = Status::OK();
      break;
    case StatusCode::kInvalidArgument:
      *status = Status::InvalidArgument(std::move(message));
      break;
    case StatusCode::kNotFound:
      *status = Status::NotFound(std::move(message));
      break;
    case StatusCode::kIOError:
      *status = Status::IOError(std::move(message));
      break;
    case StatusCode::kOutOfMemoryBudget:
      *status = Status::OutOfMemoryBudget(std::move(message));
      break;
    case StatusCode::kCorruption:
      *status = Status::Corruption(std::move(message));
      break;
    case StatusCode::kNotSupported:
      *status = Status::NotSupported(std::move(message));
      break;
    case StatusCode::kInternal:
      *status = Status::Internal(std::move(message));
      break;
    case StatusCode::kDataLoss:
      *status = Status::DataLoss(std::move(message));
      break;
    case StatusCode::kResourceExhausted:
      *status = Status::ResourceExhausted(std::move(message));
      break;
  }
  return Status::OK();
}

std::string EncodeU64Body(uint64_t value) {
  std::string body;
  PutPod<uint64_t>(&body, value);
  return body;
}

Status DecodeU64Body(const std::string& body, uint64_t* value) {
  BodyReader in(body);
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
