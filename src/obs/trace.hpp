// The one way to time things: a hierarchical span tracer with Chrome
// trace_event export, and the per-stage table the flow reports.
//
// One Tracer is installed for the duration of a traced flow run; `Span`
// probes throughout the codebase then record named, nested wall-clock
// intervals into per-thread buffers (lock-free on the recording path — each
// buffer is written only by its owning thread). The result loads in
// Perfetto / chrome://tracing.
//
// A Span built with a StageTable also adds its wall seconds and one call to
// that table's row when it closes, traced or not; the flow's stage rows
// (FlowResult::stages) come from these spans and nothing else. now_ns() is
// the only measurement read of the clock in src/.
//
// Zero-cost when off: with no tracer installed, constructing a Span without
// a table is a single relaxed-failure atomic load and no clock read. Span
// durations are wall time and therefore *measurement, not output* — the
// mbrc-lint R6 rule enforces that they never feed flow results (DESIGN.md
// §11); deterministic work counts live in obs/counters.hpp.
//
// Lifecycle contract: install() -> record spans -> join all worker activity
// -> uninstall() -> take(). The caller must quiesce every thread that
// recorded spans before uninstall(); the flow driver satisfies this because
// run_composition_flow joins all pool work before it finishes.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <string_view>
#include <vector>

namespace mbrc::obs {

/// Monotonic wall-clock nanoseconds (steady_clock, arbitrary epoch). Every
/// measurement in src/ reads the clock through this function.
std::int64_t now_ns();

/// One row of a stage table: accumulated wall seconds and closed spans.
struct StageStats {
  double seconds = 0.0;
  std::int64_t calls = 0;
};

using StageTable = std::map<std::string, StageStats, std::less<>>;

/// Formats a table as one line per stage (name, calls, seconds), in name
/// order.
std::string format_stage_table(const StageTable& stats);

/// One closed span. `start_us`/`dur_us` are microseconds relative to the
/// tracer's install time; `depth` is the nesting depth on its thread (0 =
/// top level), recorded so tests can assert well-nestedness exactly.
struct TraceEvent {
  std::string name;
  std::uint32_t tid = 0;
  int depth = 0;
  std::int64_t start_us = 0;
  std::int64_t dur_us = 0;
};

/// Everything a finished trace holds: events in per-thread completion order
/// (children complete before their parents) plus thread labels.
struct TraceData {
  std::vector<TraceEvent> events;
  std::map<std::uint32_t, std::string> thread_names;

  bool empty() const { return events.empty(); }
};

namespace detail {
struct ThreadBuffer {
  std::uint32_t tid = 0;
  std::string label;
  std::vector<TraceEvent> events;  // written only by the owning thread
  int depth = 0;                   // currently open spans on that thread
};
}  // namespace detail

class Tracer {
public:
  Tracer() = default;
  ~Tracer();

  Tracer(const Tracer&) = delete;
  Tracer& operator=(const Tracer&) = delete;

  /// Makes this tracer the process-wide active one and starts its clock.
  /// At most one tracer may be active at a time.
  void install();

  /// Stops collection. Every span must be closed and every recording
  /// thread quiesced before this is called.
  void uninstall();

  /// Moves the collected events out. Only valid after uninstall().
  TraceData take();

  /// The active tracer, or nullptr. This is the whole cost of a Span when
  /// tracing is off.
  static Tracer* active() {
    return active_.load(std::memory_order_acquire);
  }

  /// Labels the calling thread in the exported trace (e.g. "worker-3").
  /// No-op when no tracer is active.
  static void set_thread_label(std::string_view label);

private:
  friend class Span;

  /// The calling thread's buffer under this tracer, registering it on
  /// first use. The returned pointer is owned by the tracer and written
  /// only by the calling thread.
  detail::ThreadBuffer* local_buffer();

  /// Microseconds from install time to the now_ns() reading `ns`.
  std::int64_t since_install_us(std::int64_t ns) const {
    return (ns - epoch_ns_) / 1000;
  }

  static std::atomic<Tracer*> active_;

  std::uint64_t generation_ = 0;
  std::int64_t epoch_ns_ = 0;
  bool installed_ = false;
  std::mutex mutex_;  // guards buffer registration, not event appends
  std::vector<std::unique_ptr<detail::ThreadBuffer>> buffers_;
};

/// RAII span probe. Construct at the top of the region to measure; the
/// span closes (and the event is appended) at scope exit or at close().
class Span {
public:
  /// Trace-only span: records an event while a tracer is installed and
  /// costs one atomic load otherwise.
  explicit Span(std::string_view name) {
    if (Tracer* t = Tracer::active()) begin(t, name);
  }

  /// Stage span: reads the clock whether or not a tracer is installed, and
  /// on close adds its seconds and one call to `table[name]`. When traced,
  /// the row's seconds and the event's dur_us come from the same two clock
  /// reads.
  Span(std::string_view name, StageTable& table) : table_(&table) {
    begin(Tracer::active(), name);
  }

  Span(const Span&) = delete;
  Span& operator=(const Span&) = delete;

  ~Span() { close(); }

  /// Closes now instead of at scope exit; idempotent.
  void close() {
    if (tracer_ != nullptr || table_ != nullptr) end();
  }

private:
  void begin(Tracer* tracer, std::string_view name);
  void end();

  Tracer* tracer_ = nullptr;
  StageTable* table_ = nullptr;
  detail::ThreadBuffer* buffer_ = nullptr;
  std::string name_;
  std::int64_t start_ns_ = 0;
  int depth_ = 0;
};

/// Writes `trace` as Chrome trace_event JSON ("X" complete events plus
/// thread_name metadata), loadable in Perfetto / chrome://tracing.
void write_chrome_trace(std::ostream& os, const TraceData& trace);

}  // namespace mbrc::obs
