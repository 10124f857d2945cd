#include "src/observability/metrics.h"

#include <gtest/gtest.h>

#include <string>
#include <thread>
#include <vector>

namespace svx {
namespace {

TEST(CounterTest, StripedSumIsExactUnderConcurrentIncrement) {
  Counter c;
  constexpr int kThreads = 8;
  constexpr int kIncrements = 100000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&c] {
      for (int i = 0; i < kIncrements; ++i) c.Add(i % 3 == 0 ? 2 : 1);
    });
  }
  for (std::thread& t : threads) t.join();
  // Per thread: ceil(kIncrements / 3) adds of 2, the rest of 1.
  const int64_t twos = (kIncrements + 2) / 3;
  const int64_t per_thread = 2 * twos + (kIncrements - twos);
  EXPECT_EQ(c.Value(), kThreads * per_thread);
}

TEST(GaugeTest, SetAndAdd) {
  Gauge g;
  EXPECT_EQ(g.Value(), 0);
  g.Set(42);
  EXPECT_EQ(g.Value(), 42);
  g.Add(-2);
  EXPECT_EQ(g.Value(), 40);
  g.Set(-7);
  EXPECT_EQ(g.Value(), -7);
}

TEST(HistogramTest, BucketBoundaries) {
  Histogram h;
  h.Observe(0);   // bucket 0 (exact zeros)
  h.Observe(-5);  // clamped to 0
  h.Observe(1);   // bucket 1: [1, 2)
  h.Observe(2);   // bucket 2: [2, 4)
  h.Observe(3);   // bucket 2
  h.Observe(4);   // bucket 3: [4, 8)
  h.Observe(7);   // bucket 3
  h.Observe(8);   // bucket 4: [8, 16)
  EXPECT_EQ(h.BucketCount(0), 2);
  EXPECT_EQ(h.BucketCount(1), 1);
  EXPECT_EQ(h.BucketCount(2), 2);
  EXPECT_EQ(h.BucketCount(3), 2);
  EXPECT_EQ(h.BucketCount(4), 1);
  EXPECT_EQ(h.Count(), 8);
  EXPECT_EQ(h.Sum(), 0 + 0 + 1 + 2 + 3 + 4 + 7 + 8);
  EXPECT_EQ(Histogram::BucketUpperBound(0), 0);
  EXPECT_EQ(Histogram::BucketUpperBound(1), 1);
  EXPECT_EQ(Histogram::BucketUpperBound(2), 3);
  EXPECT_EQ(Histogram::BucketUpperBound(3), 7);
}

TEST(HistogramTest, QuantileInterpolation) {
  Histogram h;
  EXPECT_EQ(h.Quantile(0.5), 0);  // empty
  // Three samples: buckets 0, 1, 3.
  h.Observe(0);
  h.Observe(1);
  h.Observe(5);
  // p0 clamps to rank 1 → the zero bucket.
  EXPECT_DOUBLE_EQ(h.Quantile(0.0), 0);
  // rank 1.5 lands mid-bucket-1 ([1, 2)): 1 + 0.5 * 1.
  EXPECT_DOUBLE_EQ(h.Quantile(0.5), 1.5);
  // rank 2.7 lands in bucket 3 ([4, 8)) at within = 0.7.
  EXPECT_NEAR(h.Quantile(0.9), 6.8, 1e-9);
  // p1 is the top of the highest non-empty bucket's interpolation.
  EXPECT_NEAR(h.Quantile(1.0), 8.0, 1e-9);
}

TEST(HistogramTest, CountIsExactUnderConcurrentObserve) {
  Histogram h;
  constexpr int kThreads = 4;
  constexpr int kObservations = 50000;
  std::vector<std::thread> threads;
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&h, t] {
      for (int i = 0; i < kObservations; ++i) h.Observe((t + 1) * 100 + i % 7);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(h.Count(), kThreads * kObservations);
}

TEST(MetricRegistryTest, SameNameReturnsSameHandle) {
  MetricRegistry reg;
  Counter* a = reg.counter("x_total", "first help wins");
  Counter* b = reg.counter("x_total", "ignored");
  EXPECT_EQ(a, b);
  Gauge* g1 = reg.gauge("g");
  Gauge* g2 = reg.gauge("g");
  EXPECT_EQ(g1, g2);
  Histogram* h1 = reg.histogram("h_us");
  Histogram* h2 = reg.histogram("h_us");
  EXPECT_EQ(h1, h2);
}

/// Fills a private registry with one metric of each kind and deterministic
/// values, for the golden exposition tests below.
void FillGoldenRegistry(MetricRegistry* reg) {
  reg->counter("test_requests_total", "requests served")->Add(3);
  reg->gauge("test_epoch")->Set(7);
  Histogram* h = reg->histogram("test_latency_us", "op latency");
  h->Observe(0);
  h->Observe(1);
  h->Observe(5);
}

TEST(MetricRegistryTest, GoldenPrometheusText) {
  MetricRegistry reg;
  FillGoldenRegistry(&reg);
  const char* expected =
      "# TYPE test_epoch gauge\n"
      "test_epoch 7\n"
      "# HELP test_latency_us op latency\n"
      "# TYPE test_latency_us histogram\n"
      "test_latency_us_bucket{le=\"0\"} 1\n"
      "test_latency_us_bucket{le=\"1\"} 2\n"
      "test_latency_us_bucket{le=\"3\"} 2\n"
      "test_latency_us_bucket{le=\"7\"} 3\n"
      "test_latency_us_bucket{le=\"+Inf\"} 3\n"
      "test_latency_us_sum 6\n"
      "test_latency_us_count 3\n"
      "# HELP test_requests_total requests served\n"
      "# TYPE test_requests_total counter\n"
      "test_requests_total 3\n";
  EXPECT_EQ(reg.RenderPrometheusText(), expected);
}

TEST(MetricRegistryTest, GoldenJson) {
  MetricRegistry reg;
  FillGoldenRegistry(&reg);
  const char* expected =
      "{\n"
      "  \"counters\": {\n"
      "    \"test_requests_total\": 3\n"
      "  },\n"
      "  \"gauges\": {\n"
      "    \"test_epoch\": 7\n"
      "  },\n"
      "  \"histograms\": {\n"
      "    \"test_latency_us\": {\n"
      "      \"count\": 3,\n"
      "      \"sum\": 6,\n"
      "      \"p50\": 1.500,\n"
      "      \"p90\": 6.800,\n"
      "      \"p99\": 7.880\n"
      "    }\n"
      "  }\n"
      "}";
  EXPECT_EQ(reg.RenderJson(), expected);
}

TEST(MetricRegistryTest, StandardCatalogCoversAllDomains) {
  metrics::RegisterStandardMetrics();
  std::string text = MetricRegistry::Global().RenderPrometheusText();
  // One representative metric per domain, present even when unexercised.
  EXPECT_NE(text.find("svx_rewrite_calls_total"), std::string::npos);
  EXPECT_NE(text.find("svx_containment_memo_hits_total"), std::string::npos);
  EXPECT_NE(text.find("svx_maintenance_passes_total"), std::string::npos);
  EXPECT_NE(text.find("svx_epoch_current"), std::string::npos);
  EXPECT_NE(text.find("svx_executor_runs_total"), std::string::npos);
  EXPECT_NE(text.find("svx_persist_bytes_written_total"), std::string::npos);
  EXPECT_NE(text.find("svx_rewrite_latency_us_bucket"), std::string::npos);
}

/// The exposition block of one metric family in `text`: from its HELP line
/// up to the next family's HELP line.
std::string FamilyBlock(const std::string& text, const std::string& family) {
  size_t begin = text.find("# HELP " + family + " ");
  if (begin == std::string::npos) return "";
  size_t end = text.find("# HELP ", begin + 1);
  return text.substr(begin, end == std::string::npos ? end : end - begin);
}

TEST(MetricRegistryTest, GoldenSummaryClassFamilies) {
  // Nothing in this binary publishes epochs, so the series are zero.
  metrics::RegisterStandardMetrics();
  std::string text = MetricRegistry::Global().RenderPrometheusText();
  EXPECT_EQ(
      FamilyBlock(text, "svx_rewrite_cache_invalidations_total"),
      "# HELP svx_rewrite_cache_invalidations_total Epoch publishes that "
      "left the served rewrite cache cold, by cause\n"
      "# TYPE svx_rewrite_cache_invalidations_total counter\n"
      "svx_rewrite_cache_invalidations_total{cause=\"no_summary\"} 0\n"
      "svx_rewrite_cache_invalidations_total{cause=\"summary_new\"} 0\n"
      "svx_rewrite_cache_invalidations_total{cause=\"view_set\"} 0\n");
  EXPECT_EQ(FamilyBlock(text, "svx_summary_class_reuses_total"),
            "# HELP svx_summary_class_reuses_total Document changes whose "
            "summary matched a kept summary class\n"
            "# TYPE svx_summary_class_reuses_total counter\n"
            "svx_summary_class_reuses_total 0\n");
}

TEST(MetricRegistryTest, GoldenLabeledHistogram) {
  // A labeled histogram series keeps its labels on every line, merged with
  // `le` on the buckets, and shares HELP/TYPE with its family.
  MetricRegistry reg;
  Histogram* decode = reg.histogram("test_phase_us{phase=\"decode\"}",
                                    "phase time");
  decode->Observe(0);
  decode->Observe(5);
  reg.histogram("test_phase_us{phase=\"publish\"}", "phase time")->Observe(1);
  const char* expected =
      "# HELP test_phase_us phase time\n"
      "# TYPE test_phase_us histogram\n"
      "test_phase_us_bucket{phase=\"decode\",le=\"0\"} 1\n"
      "test_phase_us_bucket{phase=\"decode\",le=\"1\"} 1\n"
      "test_phase_us_bucket{phase=\"decode\",le=\"3\"} 1\n"
      "test_phase_us_bucket{phase=\"decode\",le=\"7\"} 2\n"
      "test_phase_us_bucket{phase=\"decode\",le=\"+Inf\"} 2\n"
      "test_phase_us_sum{phase=\"decode\"} 5\n"
      "test_phase_us_count{phase=\"decode\"} 2\n"
      "test_phase_us_bucket{phase=\"publish\",le=\"0\"} 0\n"
      "test_phase_us_bucket{phase=\"publish\",le=\"1\"} 1\n"
      "test_phase_us_bucket{phase=\"publish\",le=\"+Inf\"} 1\n"
      "test_phase_us_sum{phase=\"publish\"} 1\n"
      "test_phase_us_count{phase=\"publish\"} 1\n";
  EXPECT_EQ(reg.RenderPrometheusText(), expected);
}

TEST(MetricRegistryTest, GoldenMaintenancePhaseFamilies) {
  // Nothing in this binary runs maintenance, so every series is zero; the
  // standard catalog still exposes every phase.
  metrics::RegisterStandardMetrics();
  std::string text = MetricRegistry::Global().RenderPrometheusText();
  std::string phases =
      "# HELP svx_maintenance_phase_us Time one maintenance pass spent in a "
      "phase, summed over views (us)\n"
      "# TYPE svx_maintenance_phase_us histogram\n";
  for (const char* phase :
       {"decode", "delta_eval", "fold_columnar", "fold_rows", "persist",
        "publish", "stats", "wal_append"}) {
    const std::string label = std::string("phase=\"") + phase + "\"";
    phases += "svx_maintenance_phase_us_bucket{" + label + ",le=\"0\"} 0\n";
    phases +=
        "svx_maintenance_phase_us_bucket{" + label + ",le=\"+Inf\"} 0\n";
    phases += "svx_maintenance_phase_us_sum{" + label + "} 0\n";
    phases += "svx_maintenance_phase_us_count{" + label + "} 0\n";
  }
  EXPECT_EQ(FamilyBlock(text, "svx_maintenance_phase_us"), phases);
  EXPECT_EQ(FamilyBlock(text, "svx_maintenance_views_decoded_total"),
            "# HELP svx_maintenance_views_decoded_total Views whose rows "
            "maintenance read because their diff was non-empty\n"
            "# TYPE svx_maintenance_views_decoded_total counter\n"
            "svx_maintenance_views_decoded_total 0\n");
  for (int i = 0; i < metrics::kMaintenancePhases; ++i) {
    const auto phase = static_cast<metrics::MaintenancePhase>(i);
    EXPECT_EQ(metrics::MaintenancePhaseUs(phase),
              MetricRegistry::Global().histogram(
                  std::string("svx_maintenance_phase_us{phase=\"") +
                  metrics::MaintenancePhaseName(phase) + "\"}"));
  }
}

}  // namespace
}  // namespace svx
