// Tests of the benchmark's own arithmetic: the tail-percentile rule,
// latency charged from the scheduled send, span self time, the
// generator-lag rejection and the /metrics scraper.

#include <cmath>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "metrics_scrape.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(TailRule, HighestPercentileWithTenSamplesBeyond) {
  EXPECT_EQ(SamplesBeyond(1000, 99.0), 10u);
  EXPECT_EQ(SamplesBeyond(1000, 99.9), 1u);
  EXPECT_EQ(TailPercentile(1000), 99.0);
  EXPECT_EQ(TailPercentile(999), 95.0);  // p99 would leave only 9 beyond
  EXPECT_EQ(TailPercentile(10000), 99.9);
  EXPECT_EQ(TailPercentile(200), 95.0);
  EXPECT_EQ(TailPercentile(100), 90.0);
  EXPECT_EQ(TailPercentile(15), 0.0);  // not even the median leaves 10
}

TEST(TailRule, NearestRankPercentile) {
  std::vector<double> v;
  for (int i = 1; i <= 1000; ++i) v.push_back(i);
  EXPECT_EQ(Percentile(v, 50.0), 500.0);
  EXPECT_EQ(Percentile(v, 99.0), 990.0);
  EXPECT_EQ(Percentile({}, 99.0), 0.0);
  EXPECT_EQ(Percentile({7.0}, 99.0), 7.0);
}

TEST(Latency, TimedFromScheduledSend) {
  OpTiming t;
  t.scheduled_ns = 1'000'000;
  t.free_ns = 3'000'000;  // every connection was busy until 3 ms
  t.sent_ns = 3'000'000;
  t.done_ns = 4'000'000;
  t.ok = true;
  // The 2 ms spent queued behind a stall is charged to the op...
  EXPECT_DOUBLE_EQ(LatencyMs(t), 3.0);
  // ...but not to the generator, which sent as soon as it could.
  EXPECT_DOUBLE_EQ(LatenessMs(t), 0.0);
  t.free_ns = 0;
  t.sent_ns = 1'250'000;  // free in time, sent 0.25 ms late
  EXPECT_DOUBLE_EQ(LatenessMs(t), 0.25);
}

TEST(Latency, RefusedOpsMissEveryLimit) {
  std::vector<OpTiming> ops(1000);
  for (size_t i = 0; i < ops.size(); ++i) {
    ops[i].scheduled_ns = 0;
    ops[i].done_ns = 1'000'000;  // 1 ms
    ops[i].ok = true;
  }
  for (size_t i = 0; i < 20; ++i) ops[i].ok = false;  // refused (429)
  EXPECT_TRUE(std::isinf(LatencyMs(ops[0])));
  const LatencySummary s = Summarize(ops, 5.0);
  EXPECT_EQ(s.failed, 20u);
  EXPECT_EQ(s.over_limit, 20u);
  EXPECT_DOUBLE_EQ(s.p50_ms, 1.0);
  EXPECT_TRUE(s.p99_valid);
  EXPECT_EQ(s.tail_p, 99.0);
  EXPECT_TRUE(std::isinf(s.tail_ms));  // 2% refused: the p99 misses the limit
}

TEST(Latency, FewSamplesInvalidateP99) {
  std::vector<OpTiming> ops(500);
  for (OpTiming& t : ops) t.ok = true;
  const LatencySummary s = Summarize(ops, 5.0);
  EXPECT_FALSE(s.p99_valid);
  EXPECT_EQ(s.tail_p, 95.0);
}

std::vector<OpTiming> OkOps(const std::vector<double>& latencies_ms) {
  std::vector<OpTiming> ops;
  int64_t t = 0;
  for (double ms : latencies_ms) {
    OpTiming op;
    op.scheduled_ns = op.free_ns = op.sent_ns = t;
    op.done_ns = t + static_cast<int64_t>(ms * 1e6);
    op.ok = true;
    ops.push_back(op);
    t = op.done_ns;
  }
  return ops;
}

TEST(Windows, QuantileOverWindowsIgnoresASlowStretch) {
  // Eight windows' worth of 1 ms ops, with one stretch three times slower.
  std::vector<double> ms(800, 1.0);
  for (size_t i = 300; i < 400; ++i) ms[i] = 3.0;
  const std::vector<OpTiming> ops = OkOps(ms);
  EXPECT_DOUBLE_EQ(WindowedLatencyMs(ops, 50.0, 100, 25.0), 1.0);
  EXPECT_DOUBLE_EQ(WindowedLatencyMs(ops, 50.0, 100, 100.0), 3.0);
  // Fewer ops than one window: the whole set is the window.
  EXPECT_DOUBLE_EQ(WindowedLatencyMs(OkOps({1, 2, 3}), 50.0, 100, 25.0), 2.0);
}

TEST(Windows, ChunkThroughputCountsOnlyCorrectAnswers) {
  std::vector<OpTiming> ops = OkOps(std::vector<double>(100, 1.0));
  // 4 chunks of 25 ops, each 25 ms long: 1000 ops/s.
  EXPECT_NEAR(ChunkedOpsPerSecond(ops, 4, 50.0), 1000.0, 1e-6);
  for (size_t i = 0; i < 25; ++i) ops[i].ok = false;
  EXPECT_NEAR(ChunkedOpsPerSecond(ops, 4, 0.0), 0.0, 1e-6);
  EXPECT_NEAR(ChunkedOpsPerSecond(ops, 4, 75.0), 1000.0, 1e-6);
}

TEST(Spans, SelfTimeSubtractsCoveredChildTime) {
  std::vector<Span> spans(5);
  spans[0] = {"op", 0, 100, -1, 0};
  spans[1] = {"a", 10, 30, 0, 0};
  spans[2] = {"b", 20, 50, 0, 0};  // overlaps a: 10..50 covered once
  spans[3] = {"c", 90, 130, 0, 0};  // runs past the parent: clipped to 90..100
  spans[4] = {"a.child", 12, 18, 1, 0};
  const std::vector<int64_t> self = SelfTimesNs(spans);
  EXPECT_EQ(self[0], 100 - 40 - 10);
  EXPECT_EQ(self[1], 20 - 6);
  EXPECT_EQ(self[2], 30);
  EXPECT_EQ(self[3], 40);
  EXPECT_EQ(self[4], 6);
}

TEST(Spans, TracerNestsUnderInnermostOpenSpan) {
  Tracer tracer;
  {
    ScopedSpan root(&tracer, "op", 7);
    { ScopedSpan child(&tracer, "child", 7); }
    { ScopedSpan sibling(&tracer, "sibling", 7); }
  }
  const std::vector<Span>& spans = tracer.spans();
  ASSERT_EQ(spans.size(), 3u);
  EXPECT_EQ(spans[0].parent, -1);
  EXPECT_EQ(spans[1].parent, 0);
  EXPECT_EQ(spans[2].parent, 0);
  EXPECT_EQ(spans[2].op_id, 7);
  for (const Span& s : spans) EXPECT_GE(s.end_ns, s.start_ns);
}

TEST(GeneratorLag, RunRejectedWhenLateP99ExceedsBound) {
  EXPECT_EQ(CheckGeneratorLag(0.5, 2.0), "");
  EXPECT_EQ(CheckGeneratorLag(2.0, 2.0), "");
  EXPECT_NE(CheckGeneratorLag(2.5, 2.0), "");
}

TEST(MetricsScrape, DeltasAndRecomputedDerivedValues) {
  MetricsSnapshot before = ParsePrometheus(
      "# TYPE galaxy_cache_hits_total counter\n"
      "galaxy_cache_hits_total 10\n"
      "galaxy_cache_misses_total 10\n"
      "# TYPE galaxy_cache_evictions_total gauge\n"
      "galaxy_cache_evictions_total 3\n"
      "galaxy_cache_hit_ratio_percent 50\n"
      "galaxy_http_requests_total 100\n"
      "galaxy_http_responses_total{code=\"429\"} 1\n"
      "galaxy_wal_fsync_seconds_count 4\n");
  before.taken_s = 1.0;
  MetricsSnapshot after = ParsePrometheus(
      "galaxy_cache_hits_total 100\n"
      "galaxy_cache_misses_total 10\n"
      "galaxy_cache_evictions_total 5\n"
      "galaxy_cache_hit_ratio_percent 90\n"
      "galaxy_http_requests_total 300\n"
      "galaxy_http_responses_total{code=\"429\"} 4\n"
      "galaxy_wal_fsync_seconds_count 9\n");
  after.taken_s = 3.0;
  const MetricsDelta d(before, after);
  EXPECT_DOUBLE_EQ(d.CacheHitRatio(), 1.0);  // 90 hits, 0 misses in between
  EXPECT_DOUBLE_EQ(d.Counter("galaxy_cache_evictions_total"), 2.0);
  EXPECT_DOUBLE_EQ(d.Counter("galaxy_http_responses_total{code=\"429\"}"),
                   3.0);
  EXPECT_DOUBLE_EQ(d.Counter("galaxy_wal_fsync_seconds_count"), 5.0);
  EXPECT_DOUBLE_EQ(d.Qps(), 100.0);
  EXPECT_DOUBLE_EQ(d.Counter("galaxy_absent_total"), 0.0);
}

}  // namespace
}  // namespace perfbench
