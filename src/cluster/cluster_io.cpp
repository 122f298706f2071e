#include "cluster/cluster_io.h"

#include <cinttypes>
#include <cstdio>
#include <fstream>

#include "util/strings.h"

namespace stabletext {

Status SaveClusters(const std::vector<Cluster>& clusters, uint32_t interval,
                    const std::string& path) {
  std::ofstream out(path, std::ios::out | std::ios::trunc);
  if (!out) return Status::IOError("cannot open " + path);
  char buf[64];
  for (const Cluster& c : clusters) {
    out << interval << '\t';
    for (size_t i = 0; i < c.keywords.size(); ++i) {
      if (i) out << ',';
      out << c.keywords[i];
    }
    out << '\t';
    for (size_t i = 0; i < c.edges.size(); ++i) {
      if (i) out << ',';
      // Hex float: exact binary round trip.
      std::snprintf(buf, sizeof(buf), "%u:%u:%a", c.edges[i].u,
                    c.edges[i].v, c.edges[i].weight);
      out << buf;
    }
    out << '\n';
  }
  out.flush();
  if (!out) return Status::IOError("write failed on " + path);
  return Status::OK();
}

Status LoadClusters(const std::string& path, std::vector<Cluster>* out,
                    std::vector<uint32_t>* intervals) {
  std::ifstream in(path);
  if (!in) return Status::IOError("cannot open " + path);
  out->clear();
  if (intervals != nullptr) intervals->clear();
  std::string line;
  size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    const auto fields = Split(line, '\t');
    if (fields.size() != 3) {
      return Status::Corruption(path + ": bad field count at line " +
                                std::to_string(line_no));
    }
    if (intervals != nullptr) {
      intervals->push_back(static_cast<uint32_t>(
          std::strtoul(fields[0].c_str(), nullptr, 10)));
    }
    Cluster c;
    if (!fields[1].empty()) {
      for (const std::string& kw : Split(fields[1], ',')) {
        c.keywords.push_back(static_cast<KeywordId>(
            std::strtoul(kw.c_str(), nullptr, 10)));
      }
    }
    if (!fields[2].empty()) {
      for (const std::string& es : Split(fields[2], ',')) {
        WeightedEdge e;
        char* cursor = nullptr;
        e.u = static_cast<KeywordId>(
            std::strtoul(es.c_str(), &cursor, 10));
        if (cursor == nullptr || *cursor != ':') {
          return Status::Corruption(path + ": bad edge at line " +
                                    std::to_string(line_no));
        }
        e.v = static_cast<KeywordId>(std::strtoul(cursor + 1, &cursor,
                                                  10));
        if (cursor == nullptr || *cursor != ':') {
          return Status::Corruption(path + ": bad edge at line " +
                                    std::to_string(line_no));
        }
        e.weight = std::strtod(cursor + 1, nullptr);
        c.edges.push_back(e);
      }
    }
    out->push_back(std::move(c));
  }
  return Status::OK();
}

}  // namespace stabletext
