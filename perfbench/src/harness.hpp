// Shared plumbing of the perfbench binary: clocks, process resource usage,
// quantiles and the result line.
#pragma once

#include <sys/resource.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

inline double ms_since(Clock::time_point t0) {
  return seconds_since(t0) * 1e3;
}

/// Linear-interpolation quantile (q in [0,1]) of an unsorted sample; 0 for
/// an empty sample.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const double pos = q * static_cast<double>(v.size() - 1);
  const auto lo = static_cast<std::size_t>(pos);
  const std::size_t hi = std::min(lo + 1, v.size() - 1);
  return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

inline double median(const std::vector<double>& v) { return quantile(v, 0.5); }

inline double mean(const std::vector<double>& v) {
  if (v.empty()) return 0;
  double s = 0;
  for (const double x : v) s += x;
  return s / static_cast<double>(v.size());
}

/// The 64-bit seed of draw stream `stream` of a run: every random choice of
/// the benchmark derives from --seed through this, so one seed gives one set
/// of inputs.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::seed_seq seq{static_cast<std::uint32_t>(seed),
                    static_cast<std::uint32_t>(seed >> 32),
                    static_cast<std::uint32_t>(stream)};
  std::uint32_t out[2];
  seq.generate(out, out + 2);
  return (std::uint64_t{out[0]} << 32) | out[1];
}

inline rusage usage(int who) {
  rusage u{};
  getrusage(who, &u);
  return u;
}

inline double cpu_seconds(const rusage& u) {
  return static_cast<double>(u.ru_utime.tv_sec + u.ru_stime.tv_sec) +
         static_cast<double>(u.ru_utime.tv_usec + u.ru_stime.tv_usec) * 1e-6;
}

/// Current resident set size in bytes (VmRSS from /proc/self/statm).
inline std::uint64_t current_rss_bytes() {
  std::ifstream in("/proc/self/statm");
  std::uint64_t pages = 0;
  std::uint64_t resident = 0;
  in >> pages >> resident;
  return resident * static_cast<std::uint64_t>(sysconf(_SC_PAGESIZE));
}

/// Samples the process RSS every 2 ms on a helper thread and keeps the
/// maximum: the high-water mark of one phase, which ru_maxrss (a
/// process-lifetime maximum) cannot give for any phase but the first.
class RssSampler {
 public:
  RssSampler() : peak_(current_rss_bytes()), thread_([this] { loop(); }) {}
  ~RssSampler() { stop(); }
  RssSampler(const RssSampler&) = delete;
  RssSampler& operator=(const RssSampler&) = delete;

  /// Stops sampling; returns the peak RSS seen, in bytes.
  std::uint64_t stop() {
    if (thread_.joinable()) {
      done_.store(true);
      thread_.join();
      peak_ = std::max(peak_.load(), current_rss_bytes());
    }
    return peak_.load();
  }

 private:
  void loop() {
    while (!done_.load()) {
      const std::uint64_t now = current_rss_bytes();
      if (now > peak_.load()) peak_.store(now);
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }

  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> peak_;
  std::thread thread_;
};

/// One named metric of the result line.
struct Metric {
  double value = 0;
  std::string unit;
};

/// What one run reports: the last line of standard output.
struct RunResult {
  bool correct = true;
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  std::map<std::string, Metric> metrics;
  /// Why `correct` is false (printed to stderr, one line each).
  std::vector<std::string> errors;

  void set(const std::string& name, double value, const std::string& unit) {
    metrics[name] = Metric{value, unit};
  }
  void fail(const std::string& why) {
    correct = false;
    errors.push_back(why);
  }
};

inline void print_result(const RunResult& r) {
  for (const std::string& e : r.errors) {
    std::fprintf(stderr, "check failed: %s\n", e.c_str());
  }
  std::string line = "{\"correct\": ";
  line += r.correct ? "true" : "false";
  line += ", \"attempted\": " + std::to_string(r.attempted);
  line += ", \"failed\": " + std::to_string(r.failed);
  line += ", \"metrics\": {";
  bool first = true;
  char buf[64];
  for (const auto& [name, m] : r.metrics) {
    std::snprintf(buf, sizeof buf, "%.17g", m.value);
    line += (first ? "" : ", ") + std::string("\"") + name +
            "\": {\"value\": " + buf + ", \"unit\": \"" + m.unit + "\"}";
    first = false;
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
  std::fflush(stdout);
}

}  // namespace perfbench
