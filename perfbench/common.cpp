#include "common.hpp"

#include <malloc.h>
#include <sched.h>

#include <algorithm>
#include <bit>
#include <cstdio>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>

#include "obs/json.hpp"

namespace perfbench {

double median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const std::size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

double percentile(std::vector<double> values, double q) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const double rank = q * static_cast<double>(values.size());
  std::size_t index = static_cast<std::size_t>(rank);
  if (static_cast<double>(index) == rank && index > 0) --index;
  return values[std::min(index, values.size() - 1)];
}

namespace {

std::int64_t resident_kb() {
  std::ifstream status("/proc/self/status");
  for (std::string line; std::getline(status, line);)
    if (line.rfind("VmRSS:", 0) == 0) return std::stoll(line.substr(6));
  return 0;
}

}  // namespace

RssSampler::RssSampler() {
  malloc_trim(0);
  peak_kb_ = resident_kb();
  thread_ = std::jthread([this](std::stop_token stop) {
    while (!stop.stop_requested()) {
      const std::int64_t kb = resident_kb();
      if (kb > peak_kb_.load()) peak_kb_ = kb;
      std::this_thread::sleep_for(std::chrono::milliseconds(10));
    }
  });
}

RssSampler::~RssSampler() {
  thread_.request_stop();
  thread_.join();
}

double RssSampler::peak_mb() const {
  return static_cast<double>(std::max(peak_kb_.load(), resident_kb())) / 1024.0;
}

std::uint64_t Rng::next() {
  std::uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

std::uint64_t derive_seed(std::uint64_t seed, std::string_view tag) {
  Digest digest;
  digest.add(static_cast<std::int64_t>(seed)).add(tag);
  return Rng(digest.value()).next();
}

Digest& Digest::add(std::string_view text) {
  for (const unsigned char c : text) {
    hash_ ^= c;
    hash_ *= 0x100000001b3ULL;
  }
  hash_ ^= 0xff;  // field separator: "ab","c" and "a","bc" differ
  hash_ *= 0x100000001b3ULL;
  return *this;
}

Digest& Digest::add(double value) {
  return add(static_cast<std::int64_t>(std::bit_cast<std::uint64_t>(value)));
}

Digest& Digest::add(std::int64_t value) {
  char buf[24];
  std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(value));
  return add(std::string_view(buf));
}

Digest& Digest::add(const mbrc::obs::CountersSnapshot& counters) {
  for (const auto& [name, value] : counters.counters) add(name).add(value);
  for (const auto& [name, histogram] : counters.histograms) {
    add(name).add(histogram.count).add(histogram.sum);
    for (const auto& [bucket, count] : histogram.buckets)
      add(static_cast<std::int64_t>(bucket)).add(count);
  }
  return *this;
}

std::string Digest::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof(buf), "%016llx",
                static_cast<unsigned long long>(hash_));
  return buf;
}

Host detect_host(const std::string& git_describe) {
  Host host;
  std::ifstream cpuinfo("/proc/cpuinfo");
  for (std::string line; std::getline(cpuinfo, line);) {
    if (line.rfind("model name", 0) != 0) continue;
    const std::size_t colon = line.find(':');
    if (colon != std::string::npos)
      host.cpu_model = line.substr(line.find_first_not_of(' ', colon + 1));
    break;
  }
  cpu_set_t set;
  CPU_ZERO(&set);
  host.nproc = sched_getaffinity(0, sizeof(set), &set) == 0
                   ? CPU_COUNT(&set)
                   : static_cast<int>(std::thread::hardware_concurrency());
  host.hardware_threads =
      static_cast<int>(std::thread::hardware_concurrency());
  host.build_type = MBRC_PERFBENCH_BUILD_TYPE;
  host.compiler = MBRC_PERFBENCH_COMPILER;
  host.git_describe = git_describe;
  return host;
}

void print_result(const std::string& workload, std::uint64_t seed,
                  bool trace, const Host& host, const Result& result) {
  {
    std::ostringstream os;
    mbrc::obs::JsonWriter w(os, 0);
    w.begin_object();
    w.kv("workload", workload);
    w.kv("seed", static_cast<std::int64_t>(seed));
    w.kv("trace", trace);
    w.key("host").begin_object();
    w.kv("cpu_model", host.cpu_model);
    w.kv("nproc", host.nproc);
    w.kv("hardware_threads", host.hardware_threads);
    w.kv("build_type", host.build_type);
    w.kv("compiler", host.compiler);
    w.kv("git_describe", host.git_describe);
    w.end_object();
    w.key("failures").begin_array();
    for (const std::string& failure : result.failures) w.value(failure);
    w.end_array();
    w.key("details").begin_object();
    for (const auto& [key, value] : result.details)
      std::visit([&](const auto& v) { w.kv(key, v); }, value);
    w.end_object();
    w.end_object();
    std::cout << os.str() << '\n';
  }

  std::ostringstream os;
  mbrc::obs::JsonWriter w(os, 0);
  w.begin_object();
  w.kv("correct", result.correct);
  w.kv("attempted", result.attempted);
  w.kv("failed", result.failed);
  w.key("metrics").begin_object();
  for (const auto& [name, metric] : result.metrics) {
    w.key(name).begin_object();
    w.kv("value", metric.value).kv("unit", metric.unit);
    w.end_object();
  }
  w.end_object();
  w.end_object();
  std::cout << os.str() << std::endl;
}

}  // namespace perfbench
