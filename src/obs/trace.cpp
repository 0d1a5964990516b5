#include "obs/trace.hpp"

#include <chrono>
#include <cstdio>

#include "obs/json.hpp"
#include "util/assert.hpp"

namespace mbrc::obs {

std::int64_t now_ns() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::string format_stage_table(const StageTable& stats) {
  std::string out;
  char line[160];
  for (const auto& [name, s] : stats) {
    std::snprintf(line, sizeof(line), "%-24s %6lld calls %9.3f s\n",
                  name.c_str(), static_cast<long long>(s.calls), s.seconds);
    out += line;
  }
  return out;
}

namespace {

std::atomic<std::uint64_t> next_generation{1};

// Caches the thread's buffer for one tracer generation. A stale generation
// (tracer uninstalled, possibly destroyed, maybe a new one installed) makes
// the cached pointer unreachable rather than dangling-dereferenced:
// generations are globally monotonic and never reused.
struct TlsSlot {
  std::uint64_t generation = 0;
  detail::ThreadBuffer* buffer = nullptr;
};

thread_local TlsSlot tls_slot;

}  // namespace

std::atomic<Tracer*> Tracer::active_{nullptr};

Tracer::~Tracer() {
  // Normally uninstall() already ran; self-deactivating here keeps a
  // mid-flow exception from leaving a dangling active tracer behind.
  Tracer* expected = this;
  active_.compare_exchange_strong(expected, nullptr,
                                  std::memory_order_acq_rel,
                                  std::memory_order_relaxed);
}

void Tracer::install() {
  MBRC_ASSERT_MSG(!installed_, "Tracer::install called twice");
  generation_ = next_generation.fetch_add(1, std::memory_order_relaxed);
  epoch_ns_ = now_ns();
  installed_ = true;
  Tracer* expected = nullptr;
  const bool won = active_.compare_exchange_strong(
      expected, this, std::memory_order_release, std::memory_order_relaxed);
  MBRC_ASSERT_MSG(won, "another Tracer is already active");
}

void Tracer::uninstall() {
  Tracer* expected = this;
  const bool won = active_.compare_exchange_strong(
      expected, nullptr, std::memory_order_acq_rel,
      std::memory_order_relaxed);
  MBRC_ASSERT_MSG(won, "Tracer::uninstall on a tracer that is not active");
}

TraceData Tracer::take() {
  MBRC_ASSERT_MSG(active_.load(std::memory_order_relaxed) != this,
                  "Tracer::take before uninstall");
  std::lock_guard<std::mutex> lock(mutex_);
  TraceData data;
  std::size_t total = 0;
  for (const auto& buffer : buffers_) total += buffer->events.size();
  data.events.reserve(total);
  for (auto& buffer : buffers_) {
    MBRC_ASSERT_MSG(buffer->depth == 0,
                    "Tracer::take with a span still open");
    data.thread_names.emplace(buffer->tid, buffer->label);
    for (auto& event : buffer->events) data.events.push_back(std::move(event));
    buffer->events.clear();
  }
  return data;
}

detail::ThreadBuffer* Tracer::local_buffer() {
  if (tls_slot.generation == generation_) return tls_slot.buffer;
  std::lock_guard<std::mutex> lock(mutex_);
  auto buffer = std::make_unique<detail::ThreadBuffer>();
  buffer->tid = static_cast<std::uint32_t>(buffers_.size());
  buffer->label = "thread-" + std::to_string(buffer->tid);
  detail::ThreadBuffer* raw = buffer.get();
  buffers_.push_back(std::move(buffer));
  tls_slot = {generation_, raw};
  return raw;
}

void Tracer::set_thread_label(std::string_view label) {
  Tracer* tracer = active();
  if (tracer == nullptr) return;
  tracer->local_buffer()->label = std::string(label);
}

void Span::begin(Tracer* tracer, std::string_view name) {
  tracer_ = tracer;
  name_ = std::string(name);
  if (tracer != nullptr) {
    buffer_ = tracer->local_buffer();
    depth_ = buffer_->depth++;
  }
  start_ns_ = now_ns();
}

void Span::end() {
  const std::int64_t end_ns = now_ns();
  if (table_ != nullptr) {
    StageStats& stats = (*table_)[name_];
    stats.seconds += static_cast<double>(end_ns - start_ns_) / 1e9;
    ++stats.calls;
    table_ = nullptr;
  }
  if (tracer_ != nullptr) {
    TraceEvent event;
    event.name = std::move(name_);
    event.tid = buffer_->tid;
    event.depth = depth_;
    event.start_us = tracer_->since_install_us(start_ns_);
    event.dur_us = tracer_->since_install_us(end_ns) - event.start_us;
    --buffer_->depth;
    buffer_->events.push_back(std::move(event));
    tracer_ = nullptr;
  }
}

void write_chrome_trace(std::ostream& os, const TraceData& trace) {
  JsonWriter w(os, /*indent_width=*/0);
  w.begin_object();
  w.kv("displayTimeUnit", "ms");
  w.key("traceEvents").begin_array();
  for (const auto& event : trace.events) {
    w.begin_object()
        .kv("name", std::string_view(event.name))
        .kv("ph", "X")
        .kv("pid", 0)
        .kv("tid", static_cast<std::int64_t>(event.tid))
        .kv("ts", event.start_us)
        .kv("dur", event.dur_us)
        .end_object();
  }
  for (const auto& [tid, label] : trace.thread_names) {
    w.begin_object()
        .kv("name", "thread_name")
        .kv("ph", "M")
        .kv("pid", 0)
        .kv("tid", static_cast<std::int64_t>(tid))
        .key("args")
        .begin_object()
        .kv("name", std::string_view(label))
        .end_object()
        .end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
  MBRC_ASSERT_MSG(w.complete(), "chrome trace document left unbalanced");
}

}  // namespace mbrc::obs
