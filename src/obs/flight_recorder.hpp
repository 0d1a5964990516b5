// Always-on flight recorder: a bounded, lock-free ring of recent events
// per thread, dumped as JSON when something goes wrong (checker failure,
// protocol error, fatal signal). The service records every request, edit,
// snapshot and rollback here so a crash or a failed invariant always
// leaves a post-mortem artifact naming what the daemon was doing.
//
// Design:
//   - Each thread owns a ring of kRingCapacity fixed-size slots. Recording
//     is wait-free for the owner: bump the head, seqlock-write one slot. No
//     allocation, no locks, no clock syscalls beyond one obs::now_ns() read.
//   - Every slot field is an atomic and each slot carries a sequence word
//     (odd while being written), so a dump can run concurrently with
//     recording from any thread — including another thread's — without a
//     data race; torn slots are detected via the sequence and skipped.
//   - Rings live in a fixed global table and are never freed; a thread
//     that exits releases its ring to be reused by the next new thread.
//   - Detail strings are sanitized at record time (printable ASCII, no
//     quotes or backslashes), so the async-signal-safe dump path can quote
//     them into JSON without any escaping logic.
//
// Wall-clock timestamps make flight dumps measurement-only output
// (DESIGN.md §11): they never feed responses or flow results, and
// src/obs/ is clock-exempt under mbrc-lint rule R3.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

namespace mbrc::obs::flight {

enum class EventKind : std::uint8_t {
  kNone = 0,  // empty slot marker; never recorded explicitly
  kRequest,
  kEdit,
  kSnapshot,
  kRollback,
  kCheckFailure,
  kProtocolError,
  kTraceControl,
  kConnection,
  kNote,
};

const char* to_string(EventKind kind);

/// Slots retained per thread ring. 256 comfortably covers the "last >= 32
/// events on one strand" post-mortem contract with room for interleaved
/// per-edit events.
inline constexpr std::size_t kRingCapacity = 256;
/// Detail bytes retained per event (truncated, sanitized).
inline constexpr std::size_t kDetailBytes = 48;
/// Maximum simultaneously live recording threads; later threads drop
/// events rather than blocking.
inline constexpr std::size_t kMaxRings = 256;

/// Records one event on the calling thread's ring (wait-free; drops the
/// oldest event once the ring is full). `detail` is truncated to
/// kDetailBytes and sanitized to printable ASCII without quotes.
void record(EventKind kind, std::string_view detail, std::int64_t a = 0,
            std::int64_t b = 0);

/// Labels the calling thread's ring in dumps (e.g. a session name or
/// "serve"). Sanitized and truncated like a detail string.
void set_thread_label(std::string_view label);

/// One decoded event, as read back by snapshot().
struct Event {
  std::int64_t t_us = 0;  // microseconds since the recorder's first use
  std::uint32_t ring = 0;
  std::uint64_t seq = 0;  // record order within the ring
  EventKind kind = EventKind::kNone;
  std::int64_t a = 0;
  std::int64_t b = 0;
  std::string detail;
  std::string thread_label;
};

/// Stable view of every ring, oldest event first (sorted by t_us, ring).
/// Safe to call from any thread at any time; slots being concurrently
/// rewritten are skipped.
std::vector<Event> snapshot();

/// Writes the snapshot as a JSON document ({"kind": "flight_recorder",
/// "trigger": ..., "events": [...]}).
void write_json(std::ostream& os, std::string_view trigger);

/// write_json to `path` (truncating). Serialized internally so concurrent
/// failure triggers do not interleave in one file. Returns false when the
/// file cannot be written.
bool dump_to_file(const std::string& path, std::string_view trigger);

/// Async-signal-safe dump for fatal-signal handlers: walks the rings with
/// snprintf + write(2) only — no allocation, no locks, no sorting (events
/// appear in ring order rather than time order).
void dump_to_fd(int fd, const char* trigger);

}  // namespace mbrc::obs::flight
