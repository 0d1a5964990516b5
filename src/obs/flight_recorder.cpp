#include "obs/flight_recorder.hpp"

#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>
#include <ostream>

#include "obs/json.hpp"
#include "obs/trace.hpp"

namespace mbrc::obs::flight {

namespace {

constexpr std::size_t kLabelBytes = 24;

char sanitize(char c) {
  if (c < 0x20 || c > 0x7e || c == '"' || c == '\\') return '_';
  return c;
}

/// One event slot. A per-slot seqlock (odd while the owner rewrites it)
/// layered over all-atomic fields: the owner's writes are wait-free, and a
/// concurrent dump detects mid-write or recycled slots and skips them.
struct Slot {
  std::atomic<std::uint32_t> seq{0};
  std::atomic<std::int64_t> t_us{0};
  std::atomic<std::uint64_t> index{0};  // ring head at write: record order
  std::atomic<std::uint8_t> kind{0};
  std::atomic<std::int64_t> a{0};
  std::atomic<std::int64_t> b{0};
  std::atomic<std::uint8_t> len{0};
  std::array<std::atomic<char>, kDetailBytes> detail{};
};

struct ThreadRing {
  std::uint32_t id = 0;
  std::atomic<bool> in_use{false};
  std::atomic<std::uint64_t> head{0};  // next slot index; owner-only writes
  std::atomic<std::uint8_t> label_len{0};
  std::array<std::atomic<char>, kLabelBytes> label{};
  std::array<Slot, kRingCapacity> slots{};
};

/// Fixed table of ring pointers: readable from a signal handler without a
/// lock. Entries are published once and never freed; all members are
/// trivially destructible so process exit never tears the table down under
/// a late dump.
struct RingTable {
  std::array<std::atomic<ThreadRing*>, kMaxRings> rings{};
  std::atomic<std::uint32_t> count{0};
};

RingTable& table() {
  static RingTable t;
  return t;
}

std::int64_t now_us() {
  static const std::int64_t epoch_ns = now_ns();
  return (now_ns() - epoch_ns) / 1000;
}

/// Seqlock write of one slot: mark odd, store fields, release the even
/// mark. Fence-free so GCC's TSan (which rejects atomic_thread_fence) can
/// model it: the odd mark is an acquire RMW, whose acquire half forbids
/// the field stores from moving before it, and the even mark's release
/// half forbids them from moving after.
void write_slot(Slot& slot, std::int64_t t, std::uint64_t index,
                EventKind kind, std::string_view detail, std::int64_t a,
                std::int64_t b) {
  const std::uint32_t seq0 = slot.seq.load(std::memory_order_relaxed);
  slot.seq.exchange(seq0 + 1, std::memory_order_acq_rel);
  slot.t_us.store(t, std::memory_order_relaxed);
  slot.index.store(index, std::memory_order_relaxed);
  slot.kind.store(static_cast<std::uint8_t>(kind), std::memory_order_relaxed);
  slot.a.store(a, std::memory_order_relaxed);
  slot.b.store(b, std::memory_order_relaxed);
  const std::size_t len = std::min(detail.size(), kDetailBytes);
  slot.len.store(static_cast<std::uint8_t>(len), std::memory_order_relaxed);
  for (std::size_t i = 0; i < len; ++i)
    slot.detail[i].store(sanitize(detail[i]), std::memory_order_relaxed);
  slot.seq.store(seq0 + 2, std::memory_order_release);
}

/// Decoded slot without heap storage, safe to build in a signal handler.
struct RawEvent {
  std::int64_t t_us = 0;
  std::uint64_t index = 0;
  EventKind kind = EventKind::kNone;
  std::int64_t a = 0;
  std::int64_t b = 0;
  char detail[kDetailBytes + 1] = {};
};

/// Seqlock read of one slot into `out`. False when the slot is empty, mid
/// write, or was recycled during the read. Allocation-free. The initial
/// acquire load pins the field loads after it; the recheck is an RMW whose
/// release half pins them before it (the fence-free reader dual of
/// write_slot -- readers do write the sequence word, but only dumps read,
/// so the cache-line traffic is negligible).
bool read_slot(Slot& slot, RawEvent& out) {
  const std::uint32_t seq0 = slot.seq.load(std::memory_order_acquire);
  if (seq0 % 2 != 0) return false;
  out.t_us = slot.t_us.load(std::memory_order_relaxed);
  out.index = slot.index.load(std::memory_order_relaxed);
  out.kind = static_cast<EventKind>(slot.kind.load(std::memory_order_relaxed));
  out.a = slot.a.load(std::memory_order_relaxed);
  out.b = slot.b.load(std::memory_order_relaxed);
  const std::size_t len =
      std::min<std::size_t>(slot.len.load(std::memory_order_relaxed),
                            kDetailBytes);
  for (std::size_t i = 0; i < len; ++i)
    out.detail[i] = slot.detail[i].load(std::memory_order_relaxed);
  out.detail[len] = '\0';
  if (slot.seq.fetch_add(0, std::memory_order_acq_rel) != seq0) return false;
  return out.kind != EventKind::kNone;
}

ThreadRing* acquire_ring() {
  RingTable& t = table();
  const std::uint32_t n =
      std::min<std::uint32_t>(t.count.load(std::memory_order_acquire),
                              kMaxRings);
  // Prefer a ring released by an exited thread: keeps the table bounded
  // under thread-per-connection transports.
  for (std::uint32_t i = 0; i < n; ++i) {
    ThreadRing* ring = t.rings[i].load(std::memory_order_acquire);
    bool expected = false;
    if (ring != nullptr &&
        ring->in_use.compare_exchange_strong(expected, true))
      return ring;
  }
  const std::uint32_t slot = t.count.fetch_add(1, std::memory_order_acq_rel);
  if (slot >= kMaxRings) return nullptr;  // table full: drop events
  auto* ring = new ThreadRing;  // lives for the process, reused across threads
  ring->id = slot;
  ring->in_use.store(true, std::memory_order_relaxed);
  t.rings[slot].store(ring, std::memory_order_release);
  return ring;
}

/// Clears a ring on (re)acquisition so a reused ring does not attribute a
/// previous thread's events to the new owner.
void reset_ring(ThreadRing& ring) {
  ring.head.store(0, std::memory_order_relaxed);
  ring.label_len.store(0, std::memory_order_relaxed);
  for (Slot& slot : ring.slots)
    write_slot(slot, 0, 0, EventKind::kNone, {}, 0, 0);
}

struct TlsRing {
  ThreadRing* ring = nullptr;
  bool tried = false;
  ~TlsRing() {
    if (ring != nullptr) ring->in_use.store(false, std::memory_order_release);
  }
};

thread_local TlsRing tls_ring;

ThreadRing* local_ring() {
  if (!tls_ring.tried) {
    tls_ring.tried = true;
    tls_ring.ring = acquire_ring();
    if (tls_ring.ring != nullptr) reset_ring(*tls_ring.ring);
  }
  return tls_ring.ring;
}

std::string read_label(const ThreadRing& ring) {
  const std::size_t len =
      std::min<std::size_t>(ring.label_len.load(std::memory_order_relaxed),
                            kLabelBytes);
  std::string out;
  for (std::size_t i = 0; i < len; ++i)
    out.push_back(ring.label[i].load(std::memory_order_relaxed));
  return out;
}

}  // namespace

const char* to_string(EventKind kind) {
  switch (kind) {
    case EventKind::kNone: return "none";
    case EventKind::kRequest: return "request";
    case EventKind::kEdit: return "edit";
    case EventKind::kSnapshot: return "snapshot";
    case EventKind::kRollback: return "rollback";
    case EventKind::kCheckFailure: return "check_failure";
    case EventKind::kProtocolError: return "protocol_error";
    case EventKind::kTraceControl: return "trace_control";
    case EventKind::kConnection: return "connection";
    case EventKind::kNote: return "note";
  }
  return "unknown";
}

void record(EventKind kind, std::string_view detail, std::int64_t a,
            std::int64_t b) {
  ThreadRing* ring = local_ring();
  if (ring == nullptr) return;
  const std::uint64_t index =
      ring->head.fetch_add(1, std::memory_order_relaxed);
  write_slot(ring->slots[index % kRingCapacity], now_us(), index, kind, detail,
             a, b);
}

void set_thread_label(std::string_view label) {
  ThreadRing* ring = local_ring();
  if (ring == nullptr) return;
  const std::size_t len = std::min(label.size(), kLabelBytes);
  for (std::size_t i = 0; i < len; ++i)
    ring->label[i].store(sanitize(label[i]), std::memory_order_relaxed);
  ring->label_len.store(static_cast<std::uint8_t>(len),
                        std::memory_order_release);
}

std::vector<Event> snapshot() {
  std::vector<Event> events;
  RingTable& t = table();
  const std::uint32_t n =
      std::min<std::uint32_t>(t.count.load(std::memory_order_acquire),
                              kMaxRings);
  for (std::uint32_t i = 0; i < n; ++i) {
    ThreadRing* ring = t.rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    const std::string label = read_label(*ring);
    for (Slot& slot : ring->slots) {
      RawEvent raw;
      if (!read_slot(slot, raw)) continue;
      Event event;
      event.t_us = raw.t_us;
      event.ring = ring->id;
      event.seq = raw.index;
      event.kind = raw.kind;
      event.a = raw.a;
      event.b = raw.b;
      event.detail = raw.detail;
      event.thread_label = label;
      events.push_back(std::move(event));
    }
  }
  // Microsecond timestamps collide for back-to-back records, so within a
  // ring the record sequence breaks the tie -- it IS the true order there.
  std::sort(events.begin(), events.end(), [](const Event& x, const Event& y) {
    if (x.t_us != y.t_us) return x.t_us < y.t_us;
    if (x.ring != y.ring) return x.ring < y.ring;
    return x.seq < y.seq;
  });
  return events;
}

void write_json(std::ostream& os, std::string_view trigger) {
  const std::vector<Event> events = snapshot();
  JsonWriter w(os, 2);
  w.begin_object();
  w.kv("schema", 1).kv("kind", "flight_recorder");
  w.kv("trigger", std::string(trigger));
  w.kv("events_retained", static_cast<std::int64_t>(events.size()));
  w.key("events").begin_array();
  for (const Event& event : events) {
    w.begin_object();
    w.kv("t_us", event.t_us);
    w.kv("ring", static_cast<std::int64_t>(event.ring));
    if (!event.thread_label.empty()) w.kv("thread", event.thread_label);
    w.kv("kind", to_string(event.kind));
    w.kv("detail", event.detail);
    w.kv("a", event.a).kv("b", event.b);
    w.end_object();
  }
  w.end_array();
  w.end_object();
  os << '\n';
}

bool dump_to_file(const std::string& path, std::string_view trigger) {
  // Two strands can trip failures at once; one file write at a time keeps
  // the dump parseable (last writer wins).
  static std::mutex dump_mutex;
  std::lock_guard<std::mutex> lock(dump_mutex);
  std::ofstream out(path, std::ios::trunc);
  if (!out) return false;
  write_json(out, trigger);
  return out.good();
}

namespace {

void fd_write(int fd, const char* data, std::size_t size) {
  std::size_t off = 0;
  while (off < size) {
    const ssize_t n = ::write(fd, data + off, size - off);
    if (n <= 0) return;
    off += static_cast<std::size_t>(n);
  }
}

void fd_puts(int fd, const char* s) { fd_write(fd, s, std::strlen(s)); }

}  // namespace

void dump_to_fd(int fd, const char* trigger) {
  // Async-signal-safe: atomics, snprintf into stack buffers and write(2)
  // only. Detail/label bytes are pre-sanitized, so quoting needs no
  // escaping. Events come out in ring order, not time order.
  char buf[kDetailBytes + kLabelBytes + 160];
  std::snprintf(buf, sizeof(buf),
                "{\"schema\":1,\"kind\":\"flight_recorder\",\"trigger\":\"%s\","
                "\"events\":[",
                trigger);
  fd_puts(fd, buf);
  RingTable& t = table();
  const std::uint32_t n =
      std::min<std::uint32_t>(t.count.load(std::memory_order_acquire),
                              kMaxRings);
  bool first = true;
  for (std::uint32_t i = 0; i < n; ++i) {
    ThreadRing* ring = t.rings[i].load(std::memory_order_acquire);
    if (ring == nullptr) continue;
    char label[kLabelBytes + 1];
    const std::size_t label_len =
        std::min<std::size_t>(ring->label_len.load(std::memory_order_relaxed),
                              kLabelBytes);
    for (std::size_t k = 0; k < label_len; ++k)
      label[k] = ring->label[k].load(std::memory_order_relaxed);
    label[label_len] = '\0';
    for (Slot& slot : ring->slots) {
      RawEvent raw;
      if (!read_slot(slot, raw)) continue;
      std::snprintf(buf, sizeof(buf),
                    "%s{\"t_us\":%lld,\"ring\":%u,\"thread\":\"%s\","
                    "\"kind\":\"%s\",\"detail\":\"%s\",\"a\":%lld,"
                    "\"b\":%lld}",
                    first ? "" : ",", static_cast<long long>(raw.t_us),
                    ring->id, label, to_string(raw.kind), raw.detail,
                    static_cast<long long>(raw.a),
                    static_cast<long long>(raw.b));
      fd_puts(fd, buf);
      first = false;
    }
  }
  fd_puts(fd, "]}\n");
}

}  // namespace mbrc::obs::flight
