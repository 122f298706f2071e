// Fixed-size thread pool used to parallelize the work inside one ingest
// tick: tokenization chunks, external-sort run generation and the
// gap-window affinity joins. Waiting helpers let a blocked submitter
// execute queued tasks itself, so the writer thread helps instead of
// idling and nested submission cannot deadlock the fixed worker set.

#ifndef STABLETEXT_UTIL_THREAD_POOL_H_
#define STABLETEXT_UTIL_THREAD_POOL_H_

#include <atomic>
#include <deque>
#include <functional>
#include <future>
#include <thread>
#include <vector>

#include "util/annotated_mutex.h"

namespace stabletext {

/// \brief Fixed-size pool of worker threads with a FIFO task queue.
class ThreadPool {
 public:
  /// Spawns `threads` workers (at least 1).
  explicit ThreadPool(size_t threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  size_t size() const { return workers_.size(); }

  /// Enqueues a task; the future resolves when it finishes.
  std::future<void> Submit(std::function<void()> fn);

  /// Runs one queued task on the calling thread, if any is pending.
  /// Returns false when the queue was empty.
  bool TryRunOneTask();

  /// Blocks until `future` is ready, draining queued tasks on this thread
  /// while waiting (deadlock-free when called from inside a pool task).
  void Wait(std::future<void>& future);

  /// Wait() over a batch.
  void WaitAll(std::vector<std::future<void>>& futures);

 private:
  void WorkerLoop();

  Mutex mu_;
  CondVar cv_;
  std::deque<std::packaged_task<void()>> queue_ GUARDED_BY(mu_);
  std::vector<std::thread> workers_;
  bool stop_ GUARDED_BY(mu_) = false;
};

/// \brief A fleet of dedicated reader threads for concurrent serving.
///
/// Runs `fn(0) .. fn(n-1)` on n dedicated threads, started immediately.
/// Unlike ThreadPool (the writer's worker set, whose queue an ingest may
/// be draining), fleet threads are not shared with ingest work, so a
/// reader blocked on a long query can never starve the commit path. The
/// concurrency tests, the network server's workers, the streaming monitor
/// example and the CLI serve mode all drive their readers through this
/// instead of hand-rolled thread vectors.
class ReaderFleet {
 public:
  ReaderFleet(size_t n, std::function<void(size_t)> fn);
  ~ReaderFleet() { Join(); }

  ReaderFleet(const ReaderFleet&) = delete;
  ReaderFleet& operator=(const ReaderFleet&) = delete;

  size_t size() const { return threads_.size(); }

  /// Readers whose fn exited by throwing. A throw ends that reader only
  /// (the exception is swallowed here instead of std::terminate-ing the
  /// process); callers that care check this after Join().
  size_t failed() const { return failed_.load(std::memory_order_acquire); }

  /// Blocks until every reader returns. Idempotent.
  void Join();

 private:
  std::vector<std::thread> threads_;
  std::atomic<size_t> failed_{0};
};

}  // namespace stabletext

#endif  // STABLETEXT_UTIL_THREAD_POOL_H_
