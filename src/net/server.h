// TCP serving layer in front of an Engine: a poll-based event loop on one
// thread (non-blocking sockets, no thread-per-connection), a worker pool
// built on ReaderFleet executing admitted QUERY requests against pinned
// epochs, and a notifier thread that turns every published epoch into
// per-subscription DELTA pushes (net/subscription.h).
//
// Admission control: QUERY frames pass a bounded admission gate —
// at most `max_inflight` admitted-but-unanswered queries plus a
// `queue_depth` cap on the waiting queue. Past either bound the loop
// replies RETRY immediately instead of stalling; the event loop never
// blocks on query execution, so PING/STATS/SUBSCRIBE stay responsive
// under overload. Frames arriving in one socket read are decoded and
// admitted as a batch within a single event-loop turn.
//
// Lifecycle: Start() must run before the engine begins ingesting (it
// registers the engine's publish callback, a writer-side operation) and
// Shutdown() must not race Ingest* for the same reason. Shutdown is
// graceful: stop accepting, shed new queries with RETRY, drain every
// admitted query, let the notifier flush the deltas of every already
// published epoch, send each connection a BYE frame, flush, close.
//
// The query path keeps the engine's lock-freedom intact: workers and the
// notifier go through Engine::QueryAt on pinned snapshots exactly like
// in-process readers; the serving layer adds no lock on that path (its
// queues synchronize only admission and response hand-off). The one
// exception is the paper's online setting (Section 4.6): an online
// kl-stable subscription of fixed l keeps its own interval sweep, which
// the notifier advances one interval per epoch over the pinned graph.

#ifndef STABLETEXT_NET_SERVER_H_
#define STABLETEXT_NET_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <string>
#include <thread>

#include "core/engine.h"
#include "net/event_loop.h"
#include "net/protocol.h"
#include "net/subscription.h"
#include "util/annotated_mutex.h"
#include "util/status.h"
#include "util/thread_pool.h"

namespace stabletext {
namespace net {

struct ServerOptions {
  std::string host = "127.0.0.1";
  uint16_t port = 0;        ///< 0 = ephemeral; read back via port().
  size_t workers = 2;       ///< Query worker threads (ReaderFleet).
  /// Admitted-but-unanswered QUERY cap (queued + executing + responses
  /// not yet handed to the connection). Past it: RETRY.
  size_t max_inflight = 64;
  /// Waiting-queue cap (jobs admitted but not yet picked up). Past it:
  /// RETRY even below max_inflight.
  size_t queue_depth = 128;
  /// Graceful-shutdown budget: drain in-flight queries and pending
  /// subscription pushes for at most this long before force-closing.
  int drain_timeout_ms = 5000;
  /// Test-only: runs on a worker thread before each admitted query
  /// executes (lets tests hold workers to force deterministic overload).
  std::function<void()> worker_test_hook;
};

class Server {
 public:
  /// `engine` must outlive the server and must not be ingesting yet
  /// when Start() runs (see the lifecycle note above).
  Server(Engine* engine, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, registers the engine publish hook, spawns the loop, worker
  /// and notifier threads. Returns the bound state via port().
  Status Start();

  /// Graceful shutdown (see header comment). Idempotent; must not race
  /// Engine::Ingest*.
  void Shutdown();

  bool running() const { return running_.load(std::memory_order_acquire); }
  uint16_t port() const { return port_; }

  /// Folds the live serving-layer counters into an EngineStats (the
  /// fields engine-side code leaves zero). The one place they are read:
  /// the STATS handler replies with engine stats() plus these, and the
  /// CLI prints the same. queries_failed counts error replies plus
  /// workers that died mid-query (ReaderFleet::failed — their query
  /// never got a reply).
  void FillServingStats(EngineStats* stats) const;

 private:
  struct Connection {
    uint64_t id = 0;
    int fd = -1;
    FrameReader reader;
    std::string out;
    size_t out_off = 0;
  };

  // Admitted query awaiting a worker.
  struct Job {
    uint64_t connection_id = 0;
    uint64_t request_id = 0;
    FinderQuery query;
    uint8_t flags = 0;
  };

  // Response/push bytes headed for a connection, handed to the loop.
  struct Outbound {
    uint64_t connection_id = 0;
    std::string bytes;
    bool completes_query = false;  ///< Decrements the admission gate.
  };

  // Thread entry points: each assumes the capabilities of the thread it
  // runs on internally (RunLoop holds loop_.role for its whole life).
  void RunLoop();
  void WorkerLoop();
  void NotifierLoop();
  void OnPublish(const std::shared_ptr<const GraphSnapshot>& snap);
  // Answers `query` on the pinned `snap`, rendered for the wire.
  Result<WireResult> RunQuery(const std::shared_ptr<const GraphSnapshot>& snap,
                              const FinderQuery& query, uint8_t flags) const;
  // The notifier's answer for `sub` at `snap`: RunQuery, or for an
  // online kl-stable query of fixed l its sweep advanced to `snap`.
  Result<std::vector<WireChain>> StandingAnswer(
      const std::shared_ptr<const GraphSnapshot>& snap,
      Subscription* sub) const;

  // Loop-thread-affine handlers and helpers: REQUIRES(loop_.role) makes
  // "only the loop thread touches connection state" compile-checked.
  void OnAccept() REQUIRES(loop_.role);
  void OnConnEvent(uint64_t connection_id, uint32_t events)
      REQUIRES(loop_.role);
  void HandleFrame(Connection* conn, const Frame& frame)
      REQUIRES(loop_.role);
  void HandleQuery(Connection* conn, const Frame& frame)
      REQUIRES(loop_.role);
  void Reply(Connection* conn, MsgType type, uint64_t request_id,
             const std::string& body) REQUIRES(loop_.role);
  void AppendOut(Connection* conn, const std::string& bytes)
      REQUIRES(loop_.role);
  // May close the connection.
  void TryFlush(Connection* conn) REQUIRES(loop_.role);
  void CloseConnection(uint64_t connection_id) REQUIRES(loop_.role);
  void EnqueueOutbound(uint64_t connection_id, std::string bytes,
                       bool completes_query);
  void DrainOutbound() REQUIRES(loop_.role);
  bool DrainComplete();
  bool AnyPendingOutput() const REQUIRES(loop_.role);
  // Ids of the open connections, for loops that may close some of them.
  std::vector<uint64_t> ConnectionIds() const REQUIRES(loop_.role);

  // The served engine (borrowed; must outlive the server).
  Engine* const engine_;
  const ServerOptions options_;

  EventLoop loop_;
  int listen_fd_ GUARDED_BY(loop_.role) = -1;
  uint16_t port_ = 0;  // Set in Start() before any thread exists.
  std::thread loop_thread_;
  std::unique_ptr<ReaderFleet> workers_;
  std::unique_ptr<ReaderFleet> notifier_;

  // Loop-thread state: owned by whichever thread holds loop_.role (the
  // setup thread during Start(), then the loop thread exclusively).
  std::map<uint64_t, std::unique_ptr<Connection>> connections_
      GUARDED_BY(loop_.role);
  uint64_t next_connection_id_ GUARDED_BY(loop_.role) = 1;

  // Admission gate and work queue.
  std::atomic<size_t> admitted_{0};
  Mutex work_mu_;
  CondVar work_cv_;
  std::deque<Job> work_ GUARDED_BY(work_mu_);
  bool stop_workers_ GUARDED_BY(work_mu_) = false;

  // Completed responses / pushes headed back to the loop thread.
  Mutex out_mu_;
  std::deque<Outbound> outbound_ GUARDED_BY(out_mu_);

  // Published epochs awaiting notifier processing.
  Mutex snap_mu_;
  CondVar snap_cv_;
  std::deque<std::shared_ptr<const GraphSnapshot>> snapshots_
      GUARDED_BY(snap_mu_);
  bool notifier_busy_ GUARDED_BY(snap_mu_) = false;
  bool stop_notifier_ GUARDED_BY(snap_mu_) = false;

  SubscriptionRegistry registry_;

  std::atomic<bool> running_{false};
  std::atomic<bool> draining_{false};
  std::atomic<bool> shutdown_started_{false};
  std::atomic<uint64_t> pushes_sent_{0};
  std::atomic<uint64_t> queries_rejected_{0};
  std::atomic<uint64_t> queries_served_{0};
  std::atomic<uint64_t> queries_errored_{0};
};

}  // namespace net
}  // namespace stabletext

#endif  // STABLETEXT_NET_SERVER_H_
