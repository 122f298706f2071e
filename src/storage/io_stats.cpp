#include "storage/io_stats.h"

#include <iterator>

#include "util/bytes.h"
#include "util/strings.h"

namespace stabletext {

namespace {

// Every counter, in declaration order: the one list that summing,
// differencing and the byte codec walk.
constexpr uint64_t IoStats::*kCounters[] = {
    &IoStats::page_reads,        &IoStats::page_writes,
    &IoStats::logical_reads,     &IoStats::random_seeks,
    &IoStats::bytes_read,        &IoStats::bytes_written,
    &IoStats::fsyncs,            &IoStats::sort_runs_spilled,
    &IoStats::sort_merge_passes, &IoStats::sort_in_memory_sorts,
    &IoStats::sort_tail_records,
};
static_assert(std::size(kCounters) == sizeof(IoStats) / sizeof(uint64_t),
              "kCounters must list every IoStats counter");

}  // namespace

IoStats& IoStats::operator+=(const IoStats& other) {
  for (const auto counter : kCounters) this->*counter += other.*counter;
  return *this;
}

IoStats operator-(IoStats a, const IoStats& b) {
  for (const auto counter : kCounters) a.*counter -= b.*counter;
  return a;
}

void WriteIoStats(ByteWriter* w, const IoStats& io) {
  for (const auto counter : kCounters) w->Put<uint64_t>(io.*counter);
}

bool ReadIoStats(ByteReader* r, IoStats* io) {
  for (const auto counter : kCounters) {
    if (!r->Get(&(io->*counter))) return false;
  }
  return true;
}

std::string IoStats::ToString() const {
  return StringPrintf(
      "reads=%llu writes=%llu cached=%llu seeks=%llu read=%s written=%s "
      "fsyncs=%llu sort[runs=%llu passes=%llu memsorts=%llu tail=%llu]",
      static_cast<unsigned long long>(page_reads),
      static_cast<unsigned long long>(page_writes),
      static_cast<unsigned long long>(logical_reads),
      static_cast<unsigned long long>(random_seeks),
      HumanBytes(bytes_read).c_str(), HumanBytes(bytes_written).c_str(),
      static_cast<unsigned long long>(fsyncs),
      static_cast<unsigned long long>(sort_runs_spilled),
      static_cast<unsigned long long>(sort_merge_passes),
      static_cast<unsigned long long>(sort_in_memory_sorts),
      static_cast<unsigned long long>(sort_tail_records));
}

}  // namespace stabletext
