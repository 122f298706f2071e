#include "net/server.h"

#include <sys/socket.h>
#include <unistd.h>

#include "net/socket.h"
#include "util/timer.h"

namespace stabletext {
namespace net {

namespace {

constexpr size_t kReadChunk = 16 * 1024;

// Renders chains for the wire: paths, weights, lengths, plus
// snapshot-rendered chain text when `flags` has kFlagRender.
std::vector<WireChain> ToWireChains(
    const GraphSnapshot& snapshot,
    const std::vector<StableClusterChain>& chains, uint8_t flags) {
  std::vector<WireChain> out;
  out.reserve(chains.size());
  for (const StableClusterChain& chain : chains) {
    WireChain wire;
    wire.nodes = chain.path.nodes;
    wire.weight = chain.path.weight;
    wire.length = chain.path.length;
    if (flags & kFlagRender) {
      wire.rendered = snapshot.RenderChain(chain);
    }
    out.push_back(std::move(wire));
  }
  return out;
}

// Standing queries the notifier answers with a Section 4.6 sweep: online
// kl-stable of a fixed length, undiversified. l = 0 means a different
// length every epoch, so it runs the batch finder like any other query.
bool AdvancesSweep(const FinderQuery& query) {
  return query.algorithm == FinderAlgorithm::kOnline &&
         query.mode == FinderMode::kKlStable && query.l >= 1 &&
         query.diversify_prefix == 0 && query.diversify_suffix == 0;
}

}  // namespace

Server::Server(Engine* engine, ServerOptions options)
    : engine_(engine), options_(std::move(options)) {}

Server::~Server() { Shutdown(); }

Status Server::Start() {
  if (running_.load()) return Status::InvalidArgument("already started");
  // The loop is not running yet: the starting thread is the loop thread
  // for the duration of setup.
  AssumeRole loop_role(loop_.role);
  auto listener = ListenTcp(options_.host, options_.port);
  if (!listener.ok()) return listener.status();
  listen_fd_ = listener.value();
  auto port = LocalPort(listen_fd_);
  if (!port.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return port.status();
  }
  port_ = port.value();
  Status s = loop_.Init();
  if (!s.ok()) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return s;
  }
  loop_.set_wake_handler([this] {
    AssumeRole role(loop_.role);  // Wake handlers run on the loop thread.
    DrainOutbound();
  });
  loop_.Add(listen_fd_, EventLoop::kReadable, [this](uint32_t) {
    AssumeRole role(loop_.role);  // Dispatched on the loop thread.
    OnAccept();
  });
  const size_t worker_count = std::max<size_t>(1, options_.workers);
  workers_ = std::make_unique<ReaderFleet>(
      worker_count, [this](size_t) { WorkerLoop(); });
  notifier_ = std::make_unique<ReaderFleet>(
      1, [this](size_t) { NotifierLoop(); });
  engine_->SetPublishCallback(
      [this](const std::shared_ptr<const GraphSnapshot>& snap) {
        OnPublish(snap);
      });
  running_.store(true, std::memory_order_release);
  loop_thread_ = std::thread([this] { RunLoop(); });
  return Status::OK();
}

void Server::Shutdown() {
  bool expected = false;
  if (!shutdown_started_.compare_exchange_strong(expected, true)) {
    if (loop_thread_.joinable()) loop_thread_.join();
    return;
  }
  if (!running_.load()) return;
  draining_.store(true, std::memory_order_release);
  loop_.Wakeup();
  if (loop_thread_.joinable()) loop_thread_.join();
  {
    MutexLock lock(work_mu_);
    stop_workers_ = true;
  }
  work_cv_.NotifyAll();
  workers_->Join();
  {
    MutexLock lock(snap_mu_);
    stop_notifier_ = true;
  }
  snap_cv_.NotifyAll();
  notifier_->Join();
  // Writer-side deregistration: the caller guarantees ingest is
  // quiescent across Shutdown (see the lifecycle note in the header).
  engine_->SetPublishCallback(nullptr);
  running_.store(false, std::memory_order_release);
}

void Server::FillServingStats(EngineStats* stats) const {
  stats->subscriptions_active = registry_.size();
  stats->pushes_sent = pushes_sent_.load(std::memory_order_relaxed);
  stats->queries_rejected =
      queries_rejected_.load(std::memory_order_relaxed);
  stats->queries_served = queries_served_.load(std::memory_order_relaxed);
  stats->queries_failed = queries_errored_.load(std::memory_order_relaxed) +
                          (workers_ ? workers_->failed() : 0);
}

void Server::RunLoop() {
  AssumeRole role(loop_.role);  // This thread IS the loop thread.
  bool listener_closed = false;
  WallTimer drain_timer;
  bool drain_timing = false;
  for (;;) {
    const bool draining = draining_.load(std::memory_order_acquire);
    auto polled = loop_.PollOnce(draining ? 20 : -1);
    if (!polled.ok()) break;  // poll(2) failure: nothing left to serve.
    DrainOutbound();
    if (!draining) continue;
    if (!listener_closed) {
      loop_.Remove(listen_fd_);
      ::close(listen_fd_);
      listen_fd_ = -1;
      listener_closed = true;
      drain_timer.Restart();
      drain_timing = true;
    }
    const bool expired =
        drain_timing &&
        drain_timer.ElapsedSeconds() * 1e3 >= options_.drain_timeout_ms;
    if (DrainComplete() || expired) {
      // Farewell: every connection gets a BYE after its drained
      // responses and final deltas, then a bounded flush window. A failed
      // flush closes (erases) the connection, so iterate over ids, not
      // the map.
      const std::string bye = EncodeFrame(MsgType::kBye, 0, "");
      for (const uint64_t id : ConnectionIds()) {
        auto it = connections_.find(id);
        if (it != connections_.end()) AppendOut(it->second.get(), bye);
      }
      WallTimer flush_timer;
      while (AnyPendingOutput() && flush_timer.ElapsedSeconds() < 1.0) {
        auto flushed = loop_.PollOnce(20);
        if (!flushed.ok()) break;
      }
      break;
    }
  }
  for (const uint64_t id : ConnectionIds()) CloseConnection(id);
  if (listen_fd_ >= 0) {
    loop_.Remove(listen_fd_);
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
}

bool Server::DrainComplete() {
  if (admitted_.load(std::memory_order_acquire) != 0) return false;
  {
    MutexLock lock(work_mu_);
    if (!work_.empty()) return false;
  }
  {
    MutexLock lock(snap_mu_);
    if (!snapshots_.empty() || notifier_busy_) return false;
  }
  MutexLock lock(out_mu_);
  return outbound_.empty();
}

std::vector<uint64_t> Server::ConnectionIds() const {
  std::vector<uint64_t> ids;
  ids.reserve(connections_.size());
  for (const auto& [id, conn] : connections_) ids.push_back(id);
  return ids;
}

bool Server::AnyPendingOutput() const {
  for (const auto& [id, conn] : connections_) {
    if (conn->out_off < conn->out.size()) return true;
  }
  return false;
}

void Server::OnAccept() {
  for (;;) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) return;  // EAGAIN/EINTR/transient: next poll retries.
    if (!SetNonBlocking(fd).ok()) {
      ::close(fd);
      continue;
    }
    auto conn = std::make_unique<Connection>();
    conn->id = next_connection_id_++;
    conn->fd = fd;
    const uint64_t id = conn->id;
    connections_.emplace(id, std::move(conn));
    loop_.Add(fd, EventLoop::kReadable, [this, id](uint32_t events) {
      AssumeRole role(loop_.role);  // Dispatched on the loop thread.
      OnConnEvent(id, events);
    });
  }
}

void Server::OnConnEvent(uint64_t connection_id, uint32_t events) {
  auto it = connections_.find(connection_id);
  if (it == connections_.end()) return;
  Connection* conn = it->second.get();
  if (events & EventLoop::kError) {
    CloseConnection(connection_id);
    return;
  }
  if (events & EventLoop::kReadable) {
    char buf[kReadChunk];
    for (;;) {
      const IoOutcome io = ReadSome(conn->fd, buf, sizeof(buf));
      if (!io.ok || (io.n == 0 && !io.would_block)) {
        CloseConnection(connection_id);
        return;
      }
      if (io.would_block) break;
      conn->reader.Feed(buf, static_cast<size_t>(io.n));
      if (static_cast<size_t>(io.n) < sizeof(buf)) break;
    }
    // Batch-decode every complete frame this turn delivered.
    Frame frame;
    for (;;) {
      Status s = conn->reader.Next(&frame);
      if (s.code() == StatusCode::kNotFound) break;
      if (!s.ok()) {
        // Torn stream: past this point nothing can be trusted.
        CloseConnection(connection_id);
        return;
      }
      HandleFrame(conn, frame);
      if (connections_.find(connection_id) == connections_.end()) {
        return;  // Handler closed the connection.
      }
    }
  }
  if (events & EventLoop::kWritable) TryFlush(conn);
}

void Server::HandleFrame(Connection* conn, const Frame& frame) {
  switch (frame.type) {
    case MsgType::kPing:
      Reply(conn, MsgType::kPong, frame.request_id,
            EncodeU64Body(engine_->snapshot()->epoch));
      return;
    case MsgType::kStats: {
      EngineStats stats = engine_->stats();
      FillServingStats(&stats);
      Reply(conn, MsgType::kStatsResult, frame.request_id,
            EncodeStatsBody(stats));
      return;
    }
    case MsgType::kQuery:
      HandleQuery(conn, frame);
      return;
    case MsgType::kSubscribe: {
      FinderQuery query;
      uint8_t flags = 0;
      Status s = DecodeQueryBody(frame.body, &query, &flags);
      if (s.ok() && query.k == 0) {
        s = Status::InvalidArgument("k must be positive");
      }
      if (s.ok()) {
        // Static capability check so an unsupported standing query
        // fails at SUBSCRIBE time instead of silently never pushing.
        const FinderInfo& info = GetFinderInfo(query.algorithm);
        const bool supported = query.mode == FinderMode::kKlStable
                                   ? info.supports_kl_stable
                                   : info.supports_normalized;
        if (!supported) {
          s = Status::NotSupported(
              std::string(info.name) + " does not support mode " +
              FinderModeName(query.mode));
        } else if (query.algorithm == FinderAlgorithm::kTa &&
                   engine_->snapshot()->graph->gap() != 0) {
          s = Status::NotSupported("ta answers gap-0 graphs only");
        } else if (query.algorithm == FinderAlgorithm::kTa && query.l != 0) {
          // TA answers l = m-1 only, which names a different l each epoch.
          s = Status::NotSupported("a standing ta query needs l = 0");
        }
      }
      if (!s.ok()) {
        Reply(conn, MsgType::kError, frame.request_id,
              EncodeErrorBody(s));
        return;
      }
      const uint64_t id = registry_.Add(conn->id, query, flags);
      Reply(conn, MsgType::kSubscribed, frame.request_id,
            EncodeU64Body(id));
      return;
    }
    case MsgType::kUnsubscribe: {
      uint64_t id = 0;
      if (!DecodeU64Body(frame.body, &id).ok()) {
        Reply(conn, MsgType::kError, frame.request_id,
              EncodeErrorBody(
                  Status::Corruption("malformed unsubscribe body")));
        return;
      }
      if (registry_.Remove(conn->id, id)) {
        Reply(conn, MsgType::kUnsubscribed, frame.request_id,
              EncodeU64Body(id));
      } else {
        Reply(conn, MsgType::kError, frame.request_id,
              EncodeErrorBody(Status::NotFound(
                  "no subscription " + std::to_string(id))));
      }
      return;
    }
    default:
      Reply(conn, MsgType::kError, frame.request_id,
            EncodeErrorBody(Status::InvalidArgument(
                "unexpected message type " +
                std::to_string(static_cast<int>(frame.type)))));
      return;
  }
}

void Server::HandleQuery(Connection* conn, const Frame& frame) {
  FinderQuery query;
  uint8_t flags = 0;
  const Status s = DecodeQueryBody(frame.body, &query, &flags);
  if (!s.ok()) {
    Reply(conn, MsgType::kError, frame.request_id, EncodeErrorBody(s));
    return;
  }
  size_t queued;
  {
    MutexLock lock(work_mu_);
    queued = work_.size();
  }
  const size_t admitted = admitted_.load(std::memory_order_acquire);
  if (draining_.load(std::memory_order_acquire) ||
      admitted >= options_.max_inflight || queued >= options_.queue_depth) {
    queries_rejected_.fetch_add(1, std::memory_order_relaxed);
    WireRetry retry;
    retry.inflight = static_cast<uint32_t>(admitted);
    retry.queued = static_cast<uint32_t>(queued);
    Reply(conn, MsgType::kRetry, frame.request_id,
          EncodeRetryBody(retry));
    return;
  }
  admitted_.fetch_add(1, std::memory_order_acq_rel);
  {
    MutexLock lock(work_mu_);
    work_.push_back(Job{conn->id, frame.request_id, query, flags});
  }
  work_cv_.NotifyOne();
}

void Server::WorkerLoop() {
  for (;;) {
    Job job;
    {
      MutexLock lock(work_mu_);
      while (!stop_workers_ && work_.empty()) work_cv_.Wait(lock);
      if (work_.empty()) return;  // stop_workers_ and drained.
      job = std::move(work_.front());
      work_.pop_front();
    }
    if (options_.worker_test_hook) options_.worker_test_hook();
    // Pin the latest epoch for this query; the finder runs entirely on
    // the pinned snapshot, concurrent with ingest and the other workers.
    auto result = RunQuery(engine_->snapshot(), job.query, job.flags);
    std::string frame;
    if (result.ok()) {
      frame = EncodeFrame(MsgType::kResult, job.request_id,
                          EncodeResultBody(result.value()));
      queries_served_.fetch_add(1, std::memory_order_relaxed);
    } else {
      frame = EncodeFrame(MsgType::kError, job.request_id,
                          EncodeErrorBody(result.status()));
      queries_errored_.fetch_add(1, std::memory_order_relaxed);
    }
    EnqueueOutbound(job.connection_id, std::move(frame),
                    /*completes_query=*/true);
  }
}

Result<WireResult> Server::RunQuery(
    const std::shared_ptr<const GraphSnapshot>& snap,
    const FinderQuery& query, uint8_t flags) const {
  auto result = engine_->QueryAt(snap, query);
  ST_RETURN_IF_ERROR(result.status());
  WireResult wire;
  wire.epoch = result.value().epoch;
  wire.chains = ToWireChains(*snap, result.value().chains, flags);
  return wire;
}

Result<std::vector<WireChain>> Server::StandingAnswer(
    const std::shared_ptr<const GraphSnapshot>& snap, Subscription* sub) const {
  if (!AdvancesSweep(sub->query)) {
    ST_ASSIGN_OR_RETURN(WireResult result,
                        RunQuery(snap, sub->query, sub->flags));
    return std::move(result.chains);
  }
  // No length-l path exists yet, and a sweep for an l beyond the stream
  // would keep heaps of every length: start it once l fits.
  if (sub->query.l >= snap->epoch) return std::vector<WireChain>{};
  const ClusterGraph& graph = *snap->graph;
  if (sub->sweep == nullptr || sub->sweep_scale != graph.weight_scale()) {
    // The sweep's paths carry weights at the scale it read them at; a
    // rescaled graph (intersection measure) restarts it from interval 0.
    sub->sweep = std::make_unique<IntervalSweep>(sub->query.k, sub->query.l);
    sub->sweep_scale = graph.weight_scale();
  }
  for (uint32_t i = sub->sweep->next_interval(); i < snap->epoch; ++i) {
    ST_RETURN_IF_ERROR(sub->sweep->Advance(graph, i));
  }
  ST_ASSIGN_OR_RETURN(const std::vector<StableClusterChain> chains,
                      snap->ToChains(sub->sweep->TopK()));
  return ToWireChains(*snap, chains, sub->flags);
}

void Server::OnPublish(const std::shared_ptr<const GraphSnapshot>& snap) {
  if (draining_.load(std::memory_order_acquire)) return;
  {
    MutexLock lock(snap_mu_);
    snapshots_.push_back(snap);
  }
  snap_cv_.NotifyOne();
}

void Server::NotifierLoop() {
  for (;;) {
    std::shared_ptr<const GraphSnapshot> snap;
    {
      MutexLock lock(snap_mu_);
      while (!stop_notifier_ && snapshots_.empty()) snap_cv_.Wait(lock);
      if (snapshots_.empty()) return;  // stop_notifier_ and drained.
      snap = std::move(snapshots_.front());
      snapshots_.pop_front();
      notifier_busy_ = true;
    }
    // Every epoch is processed (never coalesced): subscribers see the
    // exact per-epoch delta sequence a serial replay would compute.
    for (const auto& sub : registry_.Snapshot()) {
      auto result = StandingAnswer(snap, sub.get());
      if (!result.ok()) continue;  // Validated at SUBSCRIBE.
      std::vector<WireChain> now = std::move(result).value();
      WireDelta delta = DiffTopK(sub->last, now);
      delta.subscription_id = sub->id;
      delta.epoch = snap->epoch;
      sub->last = std::move(now);
      // Counted before it is queued: once queued, the event loop may send
      // it, and a client that has read the DELTA must see it counted.
      pushes_sent_.fetch_add(1, std::memory_order_relaxed);
      EnqueueOutbound(sub->connection_id,
                      EncodeFrame(MsgType::kDelta, 0,
                                  EncodeDeltaBody(delta)),
                      /*completes_query=*/false);
    }
    {
      MutexLock lock(snap_mu_);
      notifier_busy_ = false;
    }
    loop_.Wakeup();  // Re-evaluate drain progress.
  }
}

void Server::EnqueueOutbound(uint64_t connection_id, std::string bytes,
                             bool completes_query) {
  {
    MutexLock lock(out_mu_);
    outbound_.push_back(
        Outbound{connection_id, std::move(bytes), completes_query});
  }
  loop_.Wakeup();
}

void Server::DrainOutbound() {
  std::deque<Outbound> batch;
  {
    MutexLock lock(out_mu_);
    batch.swap(outbound_);
  }
  for (Outbound& out : batch) {
    // The admission gate frees regardless of whether the connection is
    // still alive — a dead client must not leak in-flight slots.
    if (out.completes_query) {
      admitted_.fetch_sub(1, std::memory_order_acq_rel);
    }
    auto it = connections_.find(out.connection_id);
    if (it == connections_.end()) continue;
    AppendOut(it->second.get(), out.bytes);
  }
}

void Server::Reply(Connection* conn, MsgType type, uint64_t request_id,
                   const std::string& body) {
  AppendOut(conn, EncodeFrame(type, request_id, body));
}

void Server::AppendOut(Connection* conn, const std::string& bytes) {
  conn->out.append(bytes);
  TryFlush(conn);
}

void Server::TryFlush(Connection* conn) {
  while (conn->out_off < conn->out.size()) {
    const IoOutcome io =
        WriteSome(conn->fd, conn->out.data() + conn->out_off,
                  conn->out.size() - conn->out_off);
    if (!io.ok) {
      CloseConnection(conn->id);
      return;
    }
    if (io.would_block) break;
    conn->out_off += static_cast<size_t>(io.n);
  }
  if (conn->out_off >= conn->out.size()) {
    conn->out.clear();
    conn->out_off = 0;
    loop_.SetInterest(conn->fd, EventLoop::kReadable);
  } else {
    if (conn->out_off > 256 * 1024) {
      conn->out.erase(0, conn->out_off);
      conn->out_off = 0;
    }
    loop_.SetInterest(conn->fd,
                      EventLoop::kReadable | EventLoop::kWritable);
  }
}

void Server::CloseConnection(uint64_t connection_id) {
  auto it = connections_.find(connection_id);
  if (it == connections_.end()) return;
  const int fd = it->second->fd;
  loop_.Remove(fd);
  ::close(fd);
  registry_.RemoveConnection(connection_id);
  connections_.erase(it);
}

}  // namespace net
}  // namespace stabletext
