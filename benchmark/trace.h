// Span recording for the benchmark's traced runs. Spans are recorded from
// the benchmark's own code around calls into each layer's public
// functions (nothing inside src/ is instrumented), kept in memory per
// thread, and written as Chrome trace-event JSON when the run ends. Each
// span has a name, start, end, parent span and request id; a layer's
// self time is its duration minus what its child spans cover.
//
// A null SpanLog* disables recording: ScopedSpan then costs one branch,
// which is how the untimed and untraced paths share code.

#ifndef STABLETEXT_BENCHMARK_TRACE_H_
#define STABLETEXT_BENCHMARK_TRACE_H_

#include <chrono>
#include <cstdint>
#include <string>
#include <vector>

namespace stbench {

/// Monotonic nanoseconds (steady_clock).
inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int64_t parent = -1;   ///< Index in the same log, -1 for a root.
  uint64_t request = 0;  ///< Shared by every span of one request or tick.
};

/// \brief One thread's spans. Not thread-safe: one log per thread.
class SpanLog {
 public:
  explicit SpanLog(uint32_t thread) : thread_(thread) {}

  size_t Begin(std::string name, int64_t parent = -1, uint64_t request = 0) {
    spans_.push_back(Span{std::move(name), NowNs(), 0, parent, request});
    return spans_.size() - 1;
  }
  void End(size_t span) { spans_[span].end_ns = NowNs(); }
  /// Records an already-timed interval.
  size_t Add(std::string name, int64_t start_ns, int64_t end_ns,
             int64_t parent = -1, uint64_t request = 0) {
    spans_.push_back(Span{std::move(name), start_ns, end_ns, parent, request});
    return spans_.size() - 1;
  }

  uint32_t thread() const { return thread_; }
  const std::vector<Span>& spans() const { return spans_; }

 private:
  uint32_t thread_;
  std::vector<Span> spans_;
};

/// RAII span; a no-op when `log` is null.
class ScopedSpan {
 public:
  ScopedSpan(SpanLog* log, std::string name, int64_t parent = -1,
             uint64_t request = 0)
      : log_(log),
        index_(log ? log->Begin(std::move(name), parent, request) : 0) {}
  ~ScopedSpan() {
    if (log_ != nullptr) log_->End(index_);
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

  /// Index to pass as a child's parent (-1 when disabled).
  int64_t id() const {
    return log_ ? static_cast<int64_t>(index_) : -1;
  }

 private:
  SpanLog* log_;
  size_t index_;
};

/// Durations (ms) of every span called `name`, across `logs`.
std::vector<double> SpanMillis(const std::vector<const SpanLog*>& logs,
                               const std::string& name);

/// Self time per span name: duration minus the union of its children.
struct SelfTime {
  std::string name;
  uint64_t count = 0;
  double total_ms = 0;
  double self_ms = 0;
};
std::vector<SelfTime> ComputeSelfTimes(
    const std::vector<const SpanLog*>& logs);

/// Writes Chrome trace-event JSON ("X" events, microsecond timestamps).
/// Returns false when the file cannot be written.
bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs);

/// Per-layer self-time table, grouped by the module prefix of each span
/// name ("text.process" -> "text"), with each module's share.
std::string FormatSelfTimeTable(const std::vector<SelfTime>& self_times);

}  // namespace stbench

#endif  // STABLETEXT_BENCHMARK_TRACE_H_
