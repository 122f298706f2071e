// Blocking client for the network serving layer: connects, issues
// one-shot requests (QUERY/STATS/PING), manages subscriptions and reads
// the server-pushed DELTA frames. Pushed frames interleaving a pending
// request's response are buffered and handed out in order through
// NextPush(), so a subscriber can keep issuing one-shot queries on the
// same connection.
//
// Not thread-safe: one Client per thread (the protocol itself multiplexes
// by request id, but this helper keeps a single read cursor).

#ifndef STABLETEXT_NET_CLIENT_H_
#define STABLETEXT_NET_CLIENT_H_

#include <cstdint>
#include <deque>
#include <string>

#include "core/snapshot.h"
#include "net/protocol.h"
#include "stable/finder.h"
#include "util/status.h"

namespace stabletext {
namespace net {

class Client {
 public:
  Client() = default;
  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Connects to host:port. `attempts` > 1 retries a refused connection
  /// with a short backoff (a just-spawned server may not be listening
  /// yet).
  Status Connect(const std::string& host, uint16_t port,
                 int attempts = 1);

  void Close();
  bool connected() const { return fd_ >= 0; }

  /// One-shot query. Admission-control shedding is not an error: when
  /// the server answers RETRY, *retry is set true and the returned
  /// result is empty; server-side failures come back as their Status.
  Result<WireResult> Query(const FinderQuery& query, bool render,
                           bool* retry);

  /// Query with bounded RETRY backoff (for CLI/bench convenience).
  Result<WireResult> QueryWithRetry(const FinderQuery& query, bool render,
                                    int max_attempts = 10,
                                    int backoff_ms = 50);

  /// Registers a standing query; returns the subscription id.
  Result<uint64_t> Subscribe(const FinderQuery& query, bool render);

  Status Unsubscribe(uint64_t subscription_id);

  /// The server's EngineStats, serving counters included.
  Result<EngineStats> Stats();

  /// Round-trip liveness probe; returns the server's latest epoch.
  Result<uint64_t> Ping();

  /// Next pushed frame (kDelta or kBye). Blocks up to `timeout_ms`
  /// (-1 = indefinitely); kNotFound on timeout. A kBye push reports
  /// code kOk via *is_bye and an empty delta.
  Result<WireDelta> NextPush(int timeout_ms, bool* is_bye);

 private:
  /// Sends `body` as `type` and reads until the response to this
  /// request id arrives; pushes seen on the way are buffered.
  Result<Frame> Call(MsgType type, const std::string& body);

  Status SendFrame(MsgType type, uint64_t request_id,
                   const std::string& body);
  /// Reads one frame from the socket (blocking, bounded by timeout).
  Result<Frame> ReadFrame(int timeout_ms);

  int fd_ = -1;
  uint64_t next_request_id_ = 1;
  FrameReader reader_;
  std::deque<Frame> pending_pushes_;
};

}  // namespace net
}  // namespace stabletext

#endif  // STABLETEXT_NET_CLIENT_H_
