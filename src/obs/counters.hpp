// Process-wide work-counter and histogram registry.
//
// Counters and histograms record *work counts* — solver nodes explored,
// simplex iterations, dirty-cone sizes, cliques enumerated — never wall
// time. That split carries the determinism contract (DESIGN.md §11): work
// counts are integer sums of per-call quantities that do not depend on
// scheduling, so a flow's counter delta is bit-identical at any `jobs`
// value and is part of the tested output
// (tests/parallel_flow_test.cpp). Wall-clock stays in the span tracer and
// the stage table its spans fill (obs/trace.hpp), which are
// measurement-only.
//
// Usage at a probe site (one interning lookup ever, then relaxed atomic
// adds):
//
//   static obs::Counter& nodes = obs::counter("ilp.set_partition.nodes");
//   nodes.add(search.nodes);
//
// Probes flush once per call with locally accumulated totals; never put an
// atomic add inside a hot inner loop.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <vector>

namespace mbrc::obs {

/// Monotonic counter. Addition is commutative and associative over
/// integers, so concurrent probes from pool workers sum to the same total
/// regardless of interleaving.
class Counter {
public:
  void add(std::int64_t n = 1) {
    value_.fetch_add(n, std::memory_order_relaxed);
  }
  std::int64_t value() const {
    return value_.load(std::memory_order_relaxed);
  }

private:
  std::atomic<std::int64_t> value_{0};
};

/// Bucketed distribution of non-negative integer work counts. Bucket `b`
/// counts the values whose bit width is `b` (value 0 -> bucket 0, 1 -> 1,
/// 2..3 -> 2, 4..7 -> 3, ...): power-of-two buckets keep the table small
/// at any scale and make merging pure integer addition, so the same
/// determinism argument as Counter applies.
class Histogram {
public:
  static constexpr int kBuckets = 65;  // bit_width of an int64 plus bucket 0

  static int bucket_of(std::int64_t value);

  /// Exact percentile over raw samples: `sorted` must be ascending, `q` in
  /// [0, 1]. Rank convention: floor(q * size) clamped to the last element —
  /// the convention bench/service_throughput.cpp has always used, kept here
  /// so regenerated BENCH artifacts stay comparable across revisions. Used
  /// by the benches and the service stats verb; raw samples are wall-clock
  /// latencies and therefore measurement-only data.
  static double percentile(const std::vector<double>& sorted, double q);

  void record(std::int64_t value) {
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    buckets_[static_cast<std::size_t>(bucket_of(value))].fetch_add(
        1, std::memory_order_relaxed);
  }

  std::int64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::int64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::int64_t bucket(int b) const {
    return buckets_[static_cast<std::size_t>(b)].load(
        std::memory_order_relaxed);
  }

private:
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
  std::array<std::atomic<std::int64_t>, kBuckets> buckets_{};
};

/// Interns `name` in the global registry and returns its counter. The
/// reference stays valid for the life of the process; cache it in a
/// function-local static at the probe site.
Counter& counter(std::string_view name);

/// Histogram analogue of counter().
Histogram& histogram(std::string_view name);

// ---------------------------------------------------------------------------
// Snapshots: plain comparable data for reports and tests.
// ---------------------------------------------------------------------------

struct HistogramSnapshot {
  std::int64_t count = 0;
  std::int64_t sum = 0;
  std::map<int, std::int64_t> buckets;  // bucket index -> count, nonzero only

  friend bool operator==(const HistogramSnapshot&,
                         const HistogramSnapshot&) = default;
};

struct CountersSnapshot {
  std::map<std::string, std::int64_t> counters;
  std::map<std::string, HistogramSnapshot> histograms;

  friend bool operator==(const CountersSnapshot&,
                         const CountersSnapshot&) = default;
};

/// Snapshot of the whole registry (cumulative since process start).
CountersSnapshot counters_snapshot();

/// `after - before`, entrywise; entries whose delta is entirely zero are
/// dropped so deltas over disjoint runs compare cleanly.
CountersSnapshot counters_delta(const CountersSnapshot& before,
                                const CountersSnapshot& after);

/// One line per entry, name order: for humans and test-failure output.
std::string format_counters(const CountersSnapshot& snapshot);

}  // namespace mbrc::obs
