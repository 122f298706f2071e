// Wire protocol of the network serving layer: a small length-prefixed
// binary framing that reuses the CRC32-checksummed record discipline of
// the write-ahead log (storage/wal.h), so a torn or bit-rotten frame is
// detected instead of misparsed.
//
// Frame layout (multi-byte fields host-endian, like every other byte
// stream this codebase writes — the protocol is machine-local; clients
// and servers are expected to share an architecture). Frames and bodies
// are encoded with util/bytes.h, the codec the WAL uses:
//
//   [u32 payload_len][u32 crc32(payload)][payload]
//   payload = [u8 MsgType][u64 request_id][body]
//
// request_id echoes the client's id on responses so a client can
// interleave one-shot requests with server-initiated pushes; push frames
// (kDelta, kBye) carry request_id 0.
//
// Request types: PING, QUERY, SUBSCRIBE, UNSUBSCRIBE, STATS.
// Response types: PONG, RESULT, RETRY (admission control shed the
// request), ERROR, SUBSCRIBED, UNSUBSCRIBED, STATS_RESULT (an
// EngineStats; field order at EncodeStatsBody), and the pushed
// DELTA / BYE frames.

#ifndef STABLETEXT_NET_PROTOCOL_H_
#define STABLETEXT_NET_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "stable/finder.h"
#include "stable/path.h"
#include "util/status.h"

namespace stabletext {

struct EngineStats;

namespace net {

/// Upper bound on one frame's payload; a peer announcing more is corrupt
/// (or hostile) and the connection is dropped.
constexpr uint32_t kMaxFramePayload = 8u << 20;

/// Bytes of framing overhead in front of every payload.
constexpr size_t kFrameHeaderBytes = 8;

enum class MsgType : uint8_t {
  // Requests.
  kPing = 0x01,
  kQuery = 0x02,
  kSubscribe = 0x03,
  kUnsubscribe = 0x04,
  kStats = 0x05,
  // Responses and pushes.
  kPong = 0x81,
  kResult = 0x82,
  kRetry = 0x83,
  kError = 0x84,
  kSubscribed = 0x85,
  kUnsubscribed = 0x86,
  kStatsResult = 0x87,
  kDelta = 0x88,  ///< Pushed per-epoch top-k delta for a subscription.
  kBye = 0x89,    ///< Graceful-shutdown farewell; no more frames follow.
};

/// QUERY/SUBSCRIBE flag bits.
constexpr uint8_t kFlagRender = 0x01;  ///< Server renders chain text.

/// One decoded frame.
struct Frame {
  MsgType type = MsgType::kPing;
  uint64_t request_id = 0;
  std::string body;
};

/// Serializes a complete frame (header + checksummed payload).
std::string EncodeFrame(MsgType type, uint64_t request_id,
                        const std::string& body);

/// \brief Incremental frame decoder over a non-blocking byte stream.
///
/// Feed() whatever read(2) returned; Next() yields complete frames in
/// order. A checksum mismatch or oversized length is kCorruption — the
/// stream can no longer be trusted and the connection must be dropped.
class FrameReader {
 public:
  void Feed(const void* data, size_t size);

  /// OK: *frame holds the next complete frame. kNotFound: need more
  /// bytes. kCorruption: the stream is torn (bad checksum / bad length).
  Status Next(Frame* frame);

  size_t buffered() const { return buf_.size() - off_; }

 private:
  std::string buf_;
  size_t off_ = 0;  // Consumed prefix, compacted opportunistically.
};

// ---------------------------------------------------------------------
// Message bodies. Every Decode* validates bounds and enum ranges and
// returns kCorruption on a malformed body; a decoded count must fit in
// the bytes left (ByteReader::Fits) before it sizes an allocation.

/// One top-k entry as it travels over the wire: the path plus an
/// optional server-rendered text (kFlagRender).
struct WireChain {
  std::vector<NodeId> nodes;
  double weight = 0;
  uint32_t length = 0;
  std::string rendered;

  friend bool operator==(const WireChain& a, const WireChain& b) {
    return a.nodes == b.nodes && a.weight == b.weight &&
           a.length == b.length && a.rendered == b.rendered;
  }
  friend bool operator!=(const WireChain& a, const WireChain& b) {
    return !(a == b);
  }
};

/// RESULT body: one query's answer.
struct WireResult {
  uint64_t epoch = 0;
  std::vector<WireChain> chains;
};

/// DELTA body: the rank-wise difference between a subscription's last
/// pushed top-k and the top-k at `epoch`. Apply with ApplyDelta(): resize
/// to new_size, then overwrite each changed rank.
struct WireDelta {
  uint64_t subscription_id = 0;
  uint64_t epoch = 0;
  uint32_t new_size = 0;
  std::vector<std::pair<uint32_t, WireChain>> changes;  ///< (rank, entry).
};

/// RETRY body: queue diagnostics at rejection time.
struct WireRetry {
  uint32_t inflight = 0;
  uint32_t queued = 0;
};

std::string EncodeQueryBody(const FinderQuery& query, uint8_t flags);
Status DecodeQueryBody(const std::string& body, FinderQuery* query,
                       uint8_t* flags);

std::string EncodeResultBody(const WireResult& result);
Status DecodeResultBody(const std::string& body, WireResult* result);

std::string EncodeDeltaBody(const WireDelta& delta);
Status DecodeDeltaBody(const std::string& body, WireDelta* delta);

/// STATS_RESULT body: an EngineStats (core/snapshot.h), the same struct
/// in-process monitoring reads, with the serving counters filled in by
/// Server::FillServingStats. Fields in declaration order, every counter
/// a u64 except the leading u32:
///   intervals, clusters, edges, keywords, graph_bytes,
///   io (the 11 IoStats counters, see WriteIoStats),
///   query_cache_hits, query_cache_misses, publish_ns,
///   shared_chunk_count, copied_chunk_count, resident_bytes,
///   wal_bytes, checkpoint_ns, recovered_epoch,
///   subscriptions_active, pushes_sent, queries_rejected,
///   queries_served, queries_failed.
std::string EncodeStatsBody(const EngineStats& stats);
Status DecodeStatsBody(const std::string& body, EngineStats* stats);

std::string EncodeRetryBody(const WireRetry& retry);
Status DecodeRetryBody(const std::string& body, WireRetry* retry);

/// ERROR body: status code + message.
std::string EncodeErrorBody(const Status& status);
Status DecodeErrorBody(const std::string& body, Status* status);

/// PONG / SUBSCRIBED / UNSUBSCRIBED bodies: a single u64.
std::string EncodeU64Body(uint64_t value);
Status DecodeU64Body(const std::string& body, uint64_t* value);

/// Replaces `topk` with the state after `delta`: resize to new_size,
/// overwrite changed ranks. kCorruption, with `topk` untouched, when a
/// changed rank is out of range or new_size exceeds topk->size() +
/// changes.size() (DiffTopK lists every rank at or beyond the old size,
/// so a larger new_size cannot come from a well-formed delta).
Status ApplyDelta(std::vector<WireChain>* topk, const WireDelta& delta);

/// The rank-wise delta turning `last` into `now` (what the notifier
/// pushes): every rank whose entry differs — including ranks beyond
/// last's size — plus the new size (ranks beyond it are dropped).
WireDelta DiffTopK(const std::vector<WireChain>& last,
                   const std::vector<WireChain>& now);

}  // namespace net
}  // namespace stabletext

#endif  // STABLETEXT_NET_PROTOCOL_H_
