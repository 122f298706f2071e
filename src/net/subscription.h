// Standing-query registry for the serving layer. A SUBSCRIBE frame
// registers an (algorithm, mode, k, l) query for its connection; after
// every epoch publish the server's notifier thread runs each standing
// query against the freshly pinned snapshot, diffs the answer against the
// subscription's last pushed top-k, and pushes one DELTA frame per epoch
// — server-push instead of client re-poll, riding the same per-epoch
// snapshot swap the readers use. An online kl-stable query of fixed l is
// the paper's online setting (Section 4.6): its subscription holds a BFS
// IntervalSweep that the notifier advances by the epoch's new interval,
// so each push costs the marginal sweep step, not a batch BFS.
//
// Threading: Add/Remove/RemoveConnection run on the event-loop thread;
// Snapshot() and size() may run from any thread. A Subscription's
// `last` answer and its sweep are owned by the notifier thread
// exclusively (the loop never reads them), so the registry's lock only
// guards the table.

#ifndef STABLETEXT_NET_SUBSCRIPTION_H_
#define STABLETEXT_NET_SUBSCRIPTION_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "net/protocol.h"
#include "stable/bfs_finder.h"
#include "stable/finder.h"
#include "util/annotated_mutex.h"

namespace stabletext {
namespace net {

/// One standing query. `last` is the top-k most recently pushed to the
/// client; `sweep` (online queries of fixed l, made on first use) and
/// `sweep_scale`, the graph weight scale it last advanced at. All three
/// are notifier-owned (see header comment).
struct Subscription {
  uint64_t id = 0;
  uint64_t connection_id = 0;
  FinderQuery query;
  uint8_t flags = 0;  ///< kFlagRender et al.
  std::vector<WireChain> last;
  std::unique_ptr<IntervalSweep> sweep;
  double sweep_scale = 0;
};

class SubscriptionRegistry {
 public:
  /// Registers a standing query; returns its id (never 0).
  uint64_t Add(uint64_t connection_id, const FinderQuery& query,
               uint8_t flags);

  /// Removes subscription `id` if it belongs to `connection_id`.
  /// Returns false when no such subscription exists.
  bool Remove(uint64_t connection_id, uint64_t id);

  /// Drops every subscription of a closing connection.
  void RemoveConnection(uint64_t connection_id);

  /// Stable view for one notifier pass. Entries removed concurrently
  /// stay alive through the shared_ptr; their pushes target a dead
  /// connection id and are dropped at enqueue.
  std::vector<std::shared_ptr<Subscription>> Snapshot() const;

  size_t size() const;

 private:
  // Reader-writer split: Add/Remove/RemoveConnection (loop thread) take
  // the write side; Snapshot()/size() (notifier, stats, any thread) share
  // the read side. The lock guards only the table — each Subscription's
  // `last` is notifier-owned (see header comment).
  mutable SharedMutex mu_;
  std::map<uint64_t, std::shared_ptr<Subscription>> subscriptions_
      GUARDED_BY(mu_);
  uint64_t next_id_ GUARDED_BY(mu_) = 1;
};

}  // namespace net
}  // namespace stabletext

#endif  // STABLETEXT_NET_SUBSCRIPTION_H_
