// Tests for the typed metrics instruments (counters, gauges, histograms)
// and the registry: bucket/percentile math, concurrency, handle pointer
// stability across Reset, the legacy string shim, and the JSON/text dumps
// (including failpoint hit/fire counters flowing into the dump).

#include "common/metrics.h"

#include <cstdlib>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/failpoint.h"

namespace sqlink {
namespace {

// --- Histogram buckets ------------------------------------------------------

TEST(HistogramTest, BucketIndexPowerOfTwoBounds) {
  // Bucket 0 covers (-inf, 1]; bucket i covers (2^{i-1}, 2^i].
  EXPECT_EQ(Histogram::BucketIndex(0), 0);
  EXPECT_EQ(Histogram::BucketIndex(1), 0);
  EXPECT_EQ(Histogram::BucketIndex(2), 1);
  EXPECT_EQ(Histogram::BucketIndex(3), 2);
  EXPECT_EQ(Histogram::BucketIndex(4), 2);
  EXPECT_EQ(Histogram::BucketIndex(5), 3);
  EXPECT_EQ(Histogram::BucketIndex(8), 3);
  EXPECT_EQ(Histogram::BucketIndex(9), 4);
  EXPECT_EQ(Histogram::BucketIndex(1024), 10);
  EXPECT_EQ(Histogram::BucketIndex(1025), 11);
  // Everything past 2^39 lands in the overflow bucket.
  EXPECT_EQ(Histogram::BucketIndex(int64_t{1} << 39), 39);
  EXPECT_EQ(Histogram::BucketIndex((int64_t{1} << 39) + 1),
            Histogram::kNumBounds);
  EXPECT_EQ(Histogram::BucketIndex(INT64_MAX), Histogram::kNumBounds);
}

TEST(HistogramTest, BucketUpperBoundMatchesIndex) {
  for (int64_t v : {int64_t{1}, int64_t{2}, int64_t{3}, int64_t{100},
                    int64_t{4096}, int64_t{1} << 30}) {
    const int index = Histogram::BucketIndex(v);
    EXPECT_LE(v, Histogram::BucketUpperBound(index)) << v;
    if (index > 0) {
      EXPECT_GT(v, Histogram::BucketUpperBound(index - 1)) << v;
    }
  }
  EXPECT_EQ(Histogram::BucketUpperBound(Histogram::kNumBounds), INT64_MAX);
}

TEST(HistogramTest, SnapshotCountSumMinMax) {
  Histogram h;
  for (int64_t v : {5, 10, 20, 40, 80}) h.Record(v);
  const Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, 5);
  EXPECT_EQ(snap.sum, 155);
  EXPECT_EQ(snap.min, 5);
  EXPECT_EQ(snap.max, 80);
  EXPECT_DOUBLE_EQ(snap.Mean(), 31.0);
}

TEST(HistogramTest, PercentilesOfUniformRange) {
  Histogram h;
  for (int64_t v = 1; v <= 1000; ++v) h.Record(v);
  const Histogram::Snapshot snap = h.GetSnapshot();
  // The percentile is interpolated inside its power-of-two bucket, so it is
  // accurate to within that bucket's bounds.
  EXPECT_GE(snap.p50, 256.0);
  EXPECT_LE(snap.p50, 512.0);
  EXPECT_GE(snap.p95, 512.0);
  EXPECT_LE(snap.p95, 1000.0);
  EXPECT_GE(snap.p99, snap.p95);
  EXPECT_LE(snap.p99, 1000.0);  // Clamped to the observed max.
  EXPECT_LE(snap.p50, snap.p95);
}

TEST(HistogramTest, PercentileOfConstantSeriesIsExact) {
  Histogram h;
  for (int i = 0; i < 100; ++i) h.Record(7);
  const Histogram::Snapshot snap = h.GetSnapshot();
  // min == max == 7 clamps every interpolated percentile to exactly 7.
  EXPECT_DOUBLE_EQ(snap.p50, 7.0);
  EXPECT_DOUBLE_EQ(snap.p95, 7.0);
  EXPECT_DOUBLE_EQ(snap.p99, 7.0);
}

TEST(HistogramTest, EmptySnapshotIsZero) {
  Histogram h;
  const Histogram::Snapshot snap = h.GetSnapshot();
  EXPECT_EQ(snap.count, 0);
  EXPECT_EQ(snap.sum, 0);
  EXPECT_DOUBLE_EQ(snap.p50, 0.0);
  EXPECT_DOUBLE_EQ(snap.Mean(), 0.0);
}

TEST(HistogramTest, ConcurrentRecordsLoseNothing) {
  Histogram h;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 10000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kPerThread; ++i) {
        h.Record(t * 100 + i % 100 + 1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  const Histogram::Snapshot snap = h.GetSnapshot();
  int64_t bucket_total = 0;
  for (int64_t b : snap.buckets) bucket_total += b;
  EXPECT_EQ(bucket_total, kThreads * kPerThread);
}

// --- Gauge ------------------------------------------------------------------

TEST(GaugeTest, TracksValueAndHighWaterMark) {
  Gauge g;
  g.Add(5);
  g.Add(3);
  g.Add(-6);
  EXPECT_EQ(g.value(), 2);
  EXPECT_EQ(g.max_value(), 8);
  g.Set(1);
  EXPECT_EQ(g.value(), 1);
  EXPECT_EQ(g.max_value(), 8);  // Max survives Set to a lower value.
}

TEST(GaugeTest, ConcurrentUpDownNetsToZero) {
  Gauge g;
  constexpr int kThreads = 8;
  constexpr int kPerThread = 20000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&g] {
      for (int i = 0; i < kPerThread; ++i) {
        g.Increment();
        g.Decrement();
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(g.value(), 0);
  EXPECT_GE(g.max_value(), 1);
  EXPECT_LE(g.max_value(), kThreads);
}

// --- Registry ---------------------------------------------------------------

TEST(MetricsRegistryTest, HandlesArePointerStableAcrossReset) {
  MetricsRegistry registry;
  Counter* counter = registry.GetCounter("stable.counter");
  Gauge* gauge = registry.GetGauge("stable.gauge");
  Histogram* histogram = registry.GetHistogram("stable.histogram");
  counter->Add(10);
  gauge->Set(4);
  histogram->Record(100);

  registry.Reset();

  // Same objects, zeroed values — hot-path handles acquired before a Reset
  // keep working after it.
  EXPECT_EQ(registry.GetCounter("stable.counter"), counter);
  EXPECT_EQ(registry.GetGauge("stable.gauge"), gauge);
  EXPECT_EQ(registry.GetHistogram("stable.histogram"), histogram);
  EXPECT_EQ(counter->value(), 0);
  EXPECT_EQ(gauge->value(), 0);
  EXPECT_EQ(gauge->max_value(), 0);
  EXPECT_EQ(histogram->count(), 0);
  counter->Increment();
  EXPECT_EQ(registry.Get("stable.counter"), 1);
}

TEST(MetricsRegistryTest, SameNameSameHandle) {
  MetricsRegistry registry;
  EXPECT_EQ(registry.GetCounter("x"), registry.GetCounter("x"));
  EXPECT_NE(registry.GetCounter("x"), registry.GetCounter("y"));
  // The three namespaces are independent: a counter "x" and a gauge "x"
  // coexist.
  EXPECT_NE(static_cast<void*>(registry.GetCounter("x")),
            static_cast<void*>(registry.GetGauge("x")));
}

TEST(MetricsRegistryTest, SnapshotIncludesGauges) {
  MetricsRegistry registry;
  registry.GetGauge("depth")->Set(3);
  registry.GetCounter("events")->Add(2);
  const auto snapshot = registry.Snapshot();
  EXPECT_EQ(snapshot.at("depth"), 3);
  EXPECT_EQ(snapshot.at("events"), 2);
}

TEST(MetricsRegistryTest, ToJsonContainsAllInstrumentKinds) {
  MetricsRegistry registry;
  registry.GetCounter("stream.wire.frames_sent")->Add(7);
  registry.GetGauge("stream.spill.queue_depth_frames")->Set(2);
  registry.GetHistogram("stream.wire.send_frame_micros")->Record(150);
  const std::string json = registry.ToJson();
  EXPECT_NE(json.find("\"counters\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"gauges\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"histograms\""), std::string::npos) << json;
  EXPECT_NE(json.find("\"stream.wire.frames_sent\":7"), std::string::npos)
      << json;
  EXPECT_NE(json.find("stream.spill.queue_depth_frames"), std::string::npos);
  EXPECT_NE(json.find("\"p99\""), std::string::npos) << json;
}

TEST(MetricsRegistryTest, ToTextMentionsEveryInstrument) {
  MetricsRegistry registry;
  registry.GetCounter("a.counter")->Add(1);
  registry.GetGauge("a.gauge")->Set(5);
  registry.GetHistogram("a.histogram")->Record(9);
  const std::string text = registry.ToText();
  EXPECT_NE(text.find("a.counter"), std::string::npos) << text;
  EXPECT_NE(text.find("a.gauge"), std::string::npos) << text;
  EXPECT_NE(text.find("a.histogram"), std::string::npos) << text;
}

TEST(MetricsRegistryTest, WriteJsonRoundTripsToDisk) {
  MetricsRegistry registry;
  registry.GetCounter("written.counter")->Add(3);
  const std::string path = ::testing::TempDir() + "/metrics_dump.json";
  ASSERT_TRUE(registry.WriteJson(path));
  std::FILE* file = std::fopen(path.c_str(), "rb");
  ASSERT_NE(file, nullptr);
  char buffer[4096] = {};
  const size_t n = std::fread(buffer, 1, sizeof(buffer) - 1, file);
  std::fclose(file);
  std::remove(path.c_str());
  const std::string contents(buffer, n);
  EXPECT_NE(contents.find("\"written.counter\":3"), std::string::npos)
      << contents;
}

// Satellite: failpoint evaluations flow into the global registry, so the
// injected-fault activity of a chaos run shows up in the same JSON dump as
// every other metric.
TEST(MetricsRegistryTest, FailpointCountersAppearInGlobalJsonDump) {
  ScopedFailpoint failpoint("metrics.test.point", "error(1)");
  ASSERT_TRUE(failpoint.status().ok());
  EXPECT_EQ(SQLINK_FAILPOINT("metrics.test.point"), FailpointOutcome::kError);
  EXPECT_EQ(SQLINK_FAILPOINT("metrics.test.point"), FailpointOutcome::kNone);

  EXPECT_GE(MetricsRegistry::Global().Get("failpoint.metrics.test.point.hits"),
            2);
  EXPECT_GE(
      MetricsRegistry::Global().Get("failpoint.metrics.test.point.fired"), 1);
  const std::string json = MetricsRegistry::Global().ToJson();
  EXPECT_NE(json.find("failpoint.metrics.test.point.hits"), std::string::npos);
  EXPECT_NE(json.find("failpoint.metrics.test.point.fired"),
            std::string::npos);
}

}  // namespace
}  // namespace sqlink
