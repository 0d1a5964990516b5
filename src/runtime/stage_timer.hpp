// Per-stage flow instrumentation.
//
// A StageTable maps stage names to StageStats (wall seconds, invocation
// count, item count); StageTimer is the RAII probe that records one timed
// section into it and opens an obs::Span, so traced runs see every stage in
// the Chrome-trace timeline. The flow owns one table and times its stages
// one after another, so the table is plain data.
//
// Wall-clock values are measurement, not output: flow results compared
// across thread counts exclude them (see DESIGN.md §11); the deterministic
// work counts live in obs/counters.hpp.
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <string_view>

#include "obs/trace.hpp"
#include "util/stopwatch.hpp"

namespace mbrc::runtime {

struct StageStats {
  double seconds = 0.0;     // accumulated wall time
  std::int64_t calls = 0;   // timed sections recorded
  std::int64_t items = 0;   // stage-defined work units (subgraphs, pins, ...)
};

using StageTable = std::map<std::string, StageStats, std::less<>>;

/// Formats a table as one line per stage (name, calls, items, seconds), in
/// name order.
std::string format_stage_table(const StageTable& stats);

/// RAII stage probe: times its scope, records into the table on destruction
/// (or earlier via stop()), and spans the scope in the trace.
class StageTimer {
public:
  StageTimer(StageTable& table, std::string_view stage)
      : table_(&table), stage_(stage), span_(stage) {}

  StageTimer(const StageTimer&) = delete;
  StageTimer& operator=(const StageTimer&) = delete;

  ~StageTimer() { stop(); }

  /// Attributes `count` work units to this section.
  void add_items(std::int64_t count) { items_ += count; }

  /// Records now instead of at scope exit; idempotent. The trace span still
  /// closes at scope exit.
  void stop() {
    if (table_ == nullptr) return;
    StageStats& stats = (*table_)[stage_];
    stats.seconds += clock_.seconds();
    ++stats.calls;
    stats.items += items_;
    table_ = nullptr;
  }

private:
  StageTable* table_;
  std::string stage_;
  std::int64_t items_ = 0;
  obs::Span span_;
  util::Stopwatch clock_;
};

}  // namespace mbrc::runtime
