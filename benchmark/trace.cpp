#include "trace.h"

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <map>

namespace stbench {

std::vector<double> SpanMillis(const std::vector<const SpanLog*>& logs,
                               const std::string& name) {
  std::vector<double> out;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) {
      if (s.name == name) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) / 1e6);
      }
    }
  }
  return out;
}

std::vector<SelfTime> ComputeSelfTimes(
    const std::vector<const SpanLog*>& logs) {
  std::map<std::string, SelfTime> by_name;
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    std::vector<std::vector<size_t>> children(spans.size());
    for (size_t i = 0; i < spans.size(); ++i) {
      if (spans[i].parent >= 0) {
        children[static_cast<size_t>(spans[i].parent)].push_back(i);
      }
    }
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      // Union of the children's intervals, clipped to the parent.
      std::vector<std::pair<int64_t, int64_t>> cover;
      for (size_t c : children[i]) {
        cover.emplace_back(std::max(spans[c].start_ns, s.start_ns),
                           std::min(spans[c].end_ns, s.end_ns));
      }
      std::sort(cover.begin(), cover.end());
      int64_t covered = 0;
      int64_t reach = s.start_ns;
      for (const auto& [begin, end] : cover) {
        const int64_t from = std::max(begin, reach);
        if (end > from) {
          covered += end - from;
          reach = end;
        }
      }
      SelfTime& t = by_name[s.name];
      t.name = s.name;
      ++t.count;
      t.total_ms += static_cast<double>(s.end_ns - s.start_ns) / 1e6;
      t.self_ms +=
          static_cast<double>(s.end_ns - s.start_ns - covered) / 1e6;
    }
  }
  std::vector<SelfTime> out;
  for (auto& [name, t] : by_name) out.push_back(t);
  return out;
}

namespace {

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

bool WriteChromeTrace(const std::string& path,
                      const std::vector<const SpanLog*>& logs) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return false;
  int64_t origin = INT64_MAX;
  for (const SpanLog* log : logs) {
    for (const Span& s : log->spans()) origin = std::min(origin, s.start_ns);
  }
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  bool first = true;
  char buf[160];
  for (const SpanLog* log : logs) {
    const std::vector<Span>& spans = log->spans();
    for (size_t i = 0; i < spans.size(); ++i) {
      const Span& s = spans[i];
      if (!first) out << ",\n";
      first = false;
      std::snprintf(buf, sizeof(buf),
                    "\"ts\":%.3f,\"dur\":%.3f,\"pid\":1,\"tid\":%u",
                    static_cast<double>(s.start_ns - origin) / 1e3,
                    static_cast<double>(s.end_ns - s.start_ns) / 1e3,
                    log->thread());
      out << "{\"name\":\"" << JsonEscape(s.name) << "\",\"ph\":\"X\","
          << buf << ",\"args\":{\"id\":\"" << log->thread() << ":" << i
          << "\",\"parent\":\"";
      if (s.parent >= 0) out << log->thread() << ":" << s.parent;
      out << "\",\"request\":" << s.request << "}}";
    }
  }
  out << "]}\n";
  return static_cast<bool>(out);
}

std::string FormatSelfTimeTable(const std::vector<SelfTime>& self_times) {
  struct Module {
    double self_ms = 0;
    std::vector<const SelfTime*> spans;
  };
  std::map<std::string, Module> modules;
  double total = 0;
  for (const SelfTime& t : self_times) {
    const std::string module = t.name.substr(0, t.name.find('.'));
    modules[module].self_ms += t.self_ms;
    modules[module].spans.push_back(&t);
    total += t.self_ms;
  }
  std::string out;
  char line[200];
  std::snprintf(line, sizeof(line), "%-34s %8s %12s %12s %7s\n", "span",
                "count", "total ms", "self ms", "share");
  out += line;
  for (const auto& [name, m] : modules) {
    std::snprintf(line, sizeof(line), "%-34s %8s %12s %12.3f %6.1f%%\n",
                  (name + " (module)").c_str(), "", "", m.self_ms,
                  total > 0 ? 100.0 * m.self_ms / total : 0.0);
    out += line;
    for (const SelfTime* t : m.spans) {
      std::snprintf(line, sizeof(line), "  %-32s %8llu %12.3f %12.3f %6.1f%%\n",
                    t->name.c_str(),
                    static_cast<unsigned long long>(t->count), t->total_ms,
                    t->self_ms, total > 0 ? 100.0 * t->self_ms / total : 0.0);
      out += line;
    }
  }
  return out;
}

}  // namespace stbench
