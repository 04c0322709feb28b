#ifndef SQLINK_COMMON_METRICS_H_
#define SQLINK_COMMON_METRICS_H_

#include <array>
#include <atomic>
#include <bit>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

namespace sqlink {

/// Monotonic counter. Lock-free; pointer-stable once handed out by the
/// registry, so hot paths acquire the handle once and pay a single relaxed
/// atomic add per event instead of a map lookup under a global mutex.
class Counter {
 public:
  void Add(int64_t delta) { value_.fetch_add(delta, std::memory_order_relaxed); }
  void Increment() { Add(1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  void Reset() { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<int64_t> value_{0};
};

/// Up/down gauge with a high-water mark (spill-queue depth, live channels).
class Gauge {
 public:
  void Set(int64_t value) {
    value_.store(value, std::memory_order_relaxed);
    UpdateMax(value);
  }
  void Add(int64_t delta) {
    const int64_t now = value_.fetch_add(delta, std::memory_order_relaxed) + delta;
    UpdateMax(now);
  }
  void Increment() { Add(1); }
  void Decrement() { Add(-1); }
  int64_t value() const { return value_.load(std::memory_order_relaxed); }
  int64_t max_value() const { return max_.load(std::memory_order_relaxed); }
  void Reset() {
    value_.store(0, std::memory_order_relaxed);
    max_.store(0, std::memory_order_relaxed);
  }

 private:
  void UpdateMax(int64_t candidate) {
    int64_t seen = max_.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !max_.compare_exchange_weak(seen, candidate,
                                       std::memory_order_relaxed)) {
    }
  }

  std::atomic<int64_t> value_{0};
  std::atomic<int64_t> max_{0};
};

/// Fixed-bucket latency histogram: power-of-two upper bounds 2^0..2^39 plus
/// an overflow bucket. Recording is one O(1) bucket pick (bit width) and a
/// handful of relaxed atomics; percentiles are estimated at snapshot time by
/// linear interpolation inside the owning bucket. Values are unit-agnostic
/// (the convention in this codebase is microseconds, suffix `_micros`).
class Histogram {
 public:
  static constexpr int kNumBounds = 40;             ///< 2^0 .. 2^39.
  static constexpr int kNumBuckets = kNumBounds + 1;  ///< + overflow.

  struct Snapshot {
    int64_t count = 0;
    int64_t sum = 0;
    int64_t min = 0;
    int64_t max = 0;
    double p50 = 0.0;
    double p95 = 0.0;
    double p99 = 0.0;
    std::array<int64_t, kNumBuckets> buckets{};

    double Percentile(double quantile) const;
    double Mean() const { return count == 0 ? 0.0 : static_cast<double>(sum) / static_cast<double>(count); }
  };

  void Record(int64_t value) {
    buckets_[static_cast<size_t>(BucketIndex(value))].fetch_add(
        1, std::memory_order_relaxed);
    count_.fetch_add(1, std::memory_order_relaxed);
    sum_.fetch_add(value, std::memory_order_relaxed);
    UpdateExtremum(&min_, value, /*want_min=*/true);
    UpdateExtremum(&max_, value, /*want_min=*/false);
  }

  int64_t count() const { return count_.load(std::memory_order_relaxed); }
  Snapshot GetSnapshot() const;
  void Reset();

  /// Index of the bucket that holds `value`; bucket i (< kNumBounds) covers
  /// (2^{i-1}, 2^i], bucket 0 covers (-inf, 1].
  static int BucketIndex(int64_t value) {
    if (value <= 1) return 0;
    const int width = std::bit_width(static_cast<uint64_t>(value - 1));
    return width < kNumBounds ? width : kNumBounds;
  }

  /// Inclusive upper bound of bucket `index` (overflow: INT64_MAX).
  static int64_t BucketUpperBound(int index);

 private:
  static void UpdateExtremum(std::atomic<int64_t>* slot, int64_t candidate,
                             bool want_min) {
    int64_t seen = slot->load(std::memory_order_relaxed);
    while ((want_min ? candidate < seen : candidate > seen) &&
           !slot->compare_exchange_weak(seen, candidate,
                                        std::memory_order_relaxed)) {
    }
  }

  std::array<std::atomic<int64_t>, kNumBuckets> buckets_{};
  std::atomic<int64_t> count_{0};
  std::atomic<int64_t> sum_{0};
  std::atomic<int64_t> min_{INT64_MAX};
  std::atomic<int64_t> max_{INT64_MIN};
};

/// Thread-safe named instrument registry. Subsystems record operational
/// facts (bytes streamed, rows spilled, queue depths, frame latencies) that
/// tests and benchmarks assert on or report.
///
/// Naming convention: `subsystem.noun.verb` or `subsystem.noun_unit`
/// (e.g. `stream.wire.frames_sent`, `stream.spill.write_micros`); see
/// DESIGN.md §7.
///
/// Writers acquire a typed handle (`GetCounter` etc. — the returned pointer
/// stays valid and keeps its identity for the registry's lifetime, across
/// Reset()) and update it lock-free; hot paths resolve it once. `Get` reads
/// a counter by name at one mutex-guarded map lookup per call.
class MetricsRegistry {
 public:
  MetricsRegistry() = default;

  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// Typed handles; created on first use, pointer-stable afterwards.
  Counter* GetCounter(const std::string& name);
  Gauge* GetGauge(const std::string& name);
  Histogram* GetHistogram(const std::string& name);

  /// Current value of counter `name`; 0 when absent.
  int64_t Get(const std::string& name) const;

  /// Counter and gauge values by name (histograms are summarized only in
  /// ToJson()/ToText()).
  std::map<std::string, int64_t> Snapshot() const;

  /// Zeroes every instrument. Handles stay valid: Reset never deallocates.
  void Reset();

  /// Full dump — counters, gauges (value + high-water mark), and histogram
  /// snapshots with p50/p95/p99 — as a JSON object.
  std::string ToJson() const;

  /// Human-readable aligned text table of the same data.
  std::string ToText() const;

  /// Prometheus text exposition (version 0.0.4) of every instrument, for
  /// the ops server's /metrics route. Names are sanitized to the Prometheus
  /// charset and prefixed `sqlink_` (`sql.planner.qerror_x100` becomes
  /// `sqlink_sql_planner_qerror_x100`). Counters expose as `counter`,
  /// gauges as `gauge` plus a `_max` high-water gauge, histograms as
  /// `summary` (quantiles 0.5/0.95/0.99 with `_sum` and `_count`).
  std::string ToPrometheusText() const;

  /// Writes ToJson() to the path named by `SQLINK_METRICS_DUMP` (if set).
  /// Returns true when a dump was written.
  bool DumpIfConfigured() const;

  /// Writes ToJson() to `path`; false on I/O failure.
  bool WriteJson(const std::string& path) const;

  /// Process-wide registry shared by subsystems that have no natural owner.
  static MetricsRegistry& Global();

 private:
  mutable std::mutex mu_;
  std::map<std::string, std::unique_ptr<Counter>> counters_;
  std::map<std::string, std::unique_ptr<Gauge>> gauges_;
  std::map<std::string, std::unique_ptr<Histogram>> histograms_;
};

}  // namespace sqlink

#endif  // SQLINK_COMMON_METRICS_H_
