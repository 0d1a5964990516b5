// Shared pieces of the repository benchmark: clocks and order statistics,
// the seeded generator behind every workload input, digests, the host block
// and the result line the runner prints last.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <string_view>
#include <thread>
#include <variant>
#include <vector>

#include "obs/counters.hpp"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Times one call and adds its wall seconds to `total`.
template <class F>
decltype(auto) timed(double& total, F&& f) {
  struct Add {
    double& total;
    Clock::time_point start = Clock::now();
    ~Add() { total += seconds_since(start); }
  } add{total};
  return f();
}

/// Median of `values` (0 when empty).
double median(std::vector<double> values);
/// Nearest-rank percentile, q in [0, 1] (0 when empty).
double percentile(std::vector<double> values, double q);
/// Peak resident set of this process over the sampler's lifetime: it
/// returns freed heap to the system, then samples VmRSS every 10 ms on a
/// background thread. Set-up memory that was freed does not count.
class RssSampler {
public:
  RssSampler();
  ~RssSampler();
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  double peak_mb() const;

private:
  std::atomic<std::int64_t> peak_kb_{0};
  std::jthread thread_;  // last: it reads peak_kb_
};

/// SplitMix64: the one generator for workload inputs, so a seed names the
/// same inputs on every platform and standard library.
class Rng {
public:
  explicit Rng(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, 1).
  double unit() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  double uniform(double lo, double hi) { return lo + (hi - lo) * unit(); }
  /// Uniform integer in [lo, hi].
  int between(int lo, int hi) {
    return lo + static_cast<int>(next() % static_cast<std::uint64_t>(hi - lo + 1));
  }

private:
  std::uint64_t state_;
};

/// Derives an independent stream seed from the workload seed and a tag.
std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag);

/// FNV-1a over text, hex-encoded; the digest format of every output check.
class Digest {
public:
  Digest& add(std::string_view text);
  Digest& add(double value);  // exact bits, not a rounded rendering
  Digest& add(std::int64_t value);
  Digest& add(const mbrc::obs::CountersSnapshot& counters);
  std::uint64_t value() const { return hash_; }
  std::string hex() const;

private:
  std::uint64_t hash_ = 0xcbf29ce484222325ULL;
};

/// Host block printed with every result: what the numbers were measured on.
struct Host {
  std::string cpu_model;
  int nproc = 0;             // CPUs this process may run on
  int hardware_threads = 0;  // std::thread::hardware_concurrency
  std::string build_type;
  std::string compiler;
  std::string git_describe;  // passed in by the runner
};
Host detect_host(const std::string& git_describe);

struct Metric {
  double value = 0.0;
  std::string unit;
};

/// What one workload run reports: the contract's last output line plus the
/// human-readable detail that precedes it.
struct Result {
  bool correct = true;
  std::int64_t attempted = 0;
  std::int64_t failed = 0;
  std::map<std::string, Metric> metrics;
  std::vector<std::string> failures;  // one line per failed check
  /// Free-form detail: digests, quality flags, sample counts, jobs.
  std::map<std::string, std::variant<double, std::string>> details;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = {value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    failures.push_back(why);
  }
  void detail(const std::string& key, double value) { details[key] = value; }
  void detail(const std::string& key, const std::string& text) {
    details[key] = text;
  }
};

/// Prints the detail line (host, jobs, checks, extra numbers) and then the
/// result object as the last line of standard output.
void print_result(const std::string& workload, std::uint64_t seed,
                  bool trace, const Host& host, const Result& result);

}  // namespace perfbench
