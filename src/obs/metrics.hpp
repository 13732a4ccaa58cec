// Metrics registry: named counters, gauges, and fixed-bucket histograms —
// the V$SYSSTAT analogue every engine component registers into.
//
// Hot-path discipline: components resolve their instruments ONCE (at
// construction / wiring time, under the registry mutex) and then update
// them through stable pointers with relaxed atomics — one atomic add per
// event, no allocation, no locking. The transaction coordinator's worker
// threads (src/txn/coordinator) update instruments, not all under one lock,
// which is why every cell is a std::atomic and why the ThreadSanitizer CI
// job covers this subsystem.
//
// Histograms use fixed power-of-two buckets over simulated microseconds:
// bucket i counts values v with 2^(i-1) <= v < 2^i (bucket 0 holds 0),
// so recording is a bit_width + one relaxed fetch_add — no allocation on
// the hot path, ever.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

namespace vdb::obs {

/// Monotonic event count (V$SYSSTAT statistic).
class Counter {
 public:
  void inc(std::uint64_t delta = 1) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::uint64_t value() const { return value_.load(std::memory_order_relaxed); }
  void reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::uint64_t> value_{0};
};

/// Point-in-time level (e.g. bytes pending in the log buffer).
class Gauge {
 public:
  void set(std::int64_t v) { value_.store(v, std::memory_order_relaxed); }
  void add(std::int64_t delta) {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  std::int64_t value() const { return value_.load(std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket latency histogram over simulated microseconds.
class Histogram {
 public:
  static constexpr std::size_t kBuckets = 40;

  /// Lower bound of bucket i: 0 for bucket 0, else 2^(i-1).
  static std::uint64_t bucket_lower_bound(std::size_t i);

  void record(std::uint64_t value);

  std::uint64_t count() const { return count_.load(std::memory_order_relaxed); }
  std::uint64_t sum() const { return sum_.load(std::memory_order_relaxed); }
  std::uint64_t min() const;  // 0 when empty
  std::uint64_t max() const { return max_.load(std::memory_order_relaxed); }
  std::uint64_t bucket(std::size_t i) const {
    return buckets_[i].load(std::memory_order_relaxed);
  }

  /// Approximate quantile (upper bound of the bucket holding the q-th
  /// sample). `q` in (0, 1]; returns 0 when empty.
  std::uint64_t percentile(double q) const;

  double mean() const {
    const std::uint64_t n = count();
    return n == 0 ? 0.0 : static_cast<double>(sum()) / static_cast<double>(n);
  }

 private:
  std::atomic<std::uint64_t> buckets_[kBuckets]{};
  std::atomic<std::uint64_t> count_{0};
  std::atomic<std::uint64_t> sum_{0};
  std::atomic<std::uint64_t> min_{UINT64_MAX};
  std::atomic<std::uint64_t> max_{0};
};

/// Name -> instrument registry. Registration (get-or-create) takes a mutex
/// and returns a pointer that stays valid for the registry's lifetime;
/// updates through the pointer are lock-free.
class MetricsRegistry {
 public:
  Counter* counter(const std::string& name);
  Gauge* gauge(const std::string& name);
  Histogram* histogram(const std::string& name);

  /// Sorted name order (std::map iteration) — deterministic reports.
  template <typename Fn>
  void for_each_counter(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, c] : counters_) fn(name, *c);
  }
  template <typename Fn>
  void for_each_gauge(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, g] : gauges_) fn(name, *g);
  }
  template <typename Fn>
  void for_each_histogram(Fn&& fn) const {
    std::lock_guard<std::mutex> lock(mu_);
    for (const auto& [name, h] : histograms_) fn(name, *h);
  }

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace vdb::obs
