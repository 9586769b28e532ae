// rcr::obs metrics registry semantics: counter/gauge/histogram arithmetic,
// labelled cells, disabled-path no-ops, reset, snapshot determinism, the two
// export formats, and exact merges under concurrent writers (the property
// the lock-sharded registry + thread-local cache must never lose).
//
// Metric names here are test-local literals ("test.obs.*") so the suite
// never collides with solver instrumentation counters registered by other
// binaries' workloads; the registry is process-global and cells persist,
// which is why every case pins values via ScopedMetrics (arm + zero).
#include "rcr/obs/metrics.hpp"

#include <gtest/gtest.h>

#include <unistd.h>

#include <atomic>
#include <cmath>
#include <cstdio>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "obs_json.hpp"

namespace rcr::obs {
namespace {

const MetricSample* find_sample(const std::vector<MetricSample>& snapshot,
                                const std::string& name,
                                const std::string& label_value = "") {
  for (const MetricSample& s : snapshot)
    if (s.name == name && s.label_value == label_value) return &s;
  return nullptr;
}

TEST(Metrics, CounterAccumulatesDeltas) {
  ScopedMetrics scope;
  counter_add("test.obs.counter");
  counter_add("test.obs.counter");
  counter_add("test.obs.counter", 5);
  const auto snap = metrics_snapshot();
  const MetricSample* s = find_sample(snap, "test.obs.counter");
  ASSERT_NE(s, nullptr);
  EXPECT_EQ(s->kind, "counter");
  EXPECT_DOUBLE_EQ(s->value, 7.0);
  EXPECT_TRUE(s->label_key.empty());
}

TEST(Metrics, LabelledCountersKeepSeparateCells) {
  ScopedMetrics scope;
  counter_add("test.obs.labelled", "site", "alpha", 2);
  counter_add("test.obs.labelled", "site", "beta", 3);
  counter_add("test.obs.labelled", "site", "alpha");
  const auto snap = metrics_snapshot();
  const MetricSample* a = find_sample(snap, "test.obs.labelled", "alpha");
  const MetricSample* b = find_sample(snap, "test.obs.labelled", "beta");
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_DOUBLE_EQ(a->value, 3.0);
  EXPECT_DOUBLE_EQ(b->value, 3.0);
  EXPECT_EQ(a->label_key, "site");
}

TEST(Metrics, SameLabelContentFromDifferentPointersMerges) {
  // The TL cache keys on pointer identity, but the registry keys on string
  // content: two distinct buffers holding equal text must hit one cell.
  ScopedMetrics scope;
  static const char buf_a[] = {'s', 'a', 'm', 'e', '\0'};
  static const char buf_b[] = {'s', 'a', 'm', 'e', '\0'};
  ASSERT_NE(static_cast<const void*>(buf_a), static_cast<const void*>(buf_b));
  counter_add("test.obs.merge", "site", buf_a, 2);
  counter_add("test.obs.merge", "site", buf_b, 3);
  const auto snap = metrics_snapshot();
  const MetricSample* s = find_sample(snap, "test.obs.merge", "same");
  ASSERT_NE(s, nullptr);
  EXPECT_DOUBLE_EQ(s->value, 5.0);
}

TEST(Metrics, GaugeSetIsLastWriteAndMaxIsHighWater) {
  ScopedMetrics scope;
  gauge_set("test.obs.gauge", 4.0);
  gauge_set("test.obs.gauge", 2.5);
  gauge_max("test.obs.highwater", 8.0);
  gauge_max("test.obs.highwater", 3.0);   // lower: must not regress
  gauge_max("test.obs.highwater", 11.0);  // higher: must raise
  const auto snap = metrics_snapshot();
  const MetricSample* g = find_sample(snap, "test.obs.gauge");
  const MetricSample* hw = find_sample(snap, "test.obs.highwater");
  ASSERT_NE(g, nullptr);
  ASSERT_NE(hw, nullptr);
  EXPECT_EQ(g->kind, "gauge");
  EXPECT_DOUBLE_EQ(g->value, 2.5);
  EXPECT_DOUBLE_EQ(hw->value, 11.0);
}

TEST(Metrics, HistogramBucketsArePowersOfTwo) {
  ScopedMetrics scope;
  histogram_observe("test.obs.hist", 0.5);   // le=1   -> bucket 0
  histogram_observe("test.obs.hist", 3.0);   // le=4   -> bucket 2
  histogram_observe("test.obs.hist", 4.0);   // le=4   -> bucket 2 (inclusive)
  histogram_observe("test.obs.hist", 1e9);   // beyond 2^19 -> overflow
  const auto snap = metrics_snapshot();
  const MetricSample* h = find_sample(snap, "test.obs.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->kind, "histogram");
  EXPECT_EQ(h->count, 4u);
  EXPECT_DOUBLE_EQ(h->value, 0.5 + 3.0 + 4.0 + 1e9);  // sum
  ASSERT_EQ(h->buckets.size(), static_cast<std::size_t>(kHistogramBuckets) + 1);
  EXPECT_EQ(h->buckets[0], 1u);
  EXPECT_EQ(h->buckets[1], 0u);
  EXPECT_EQ(h->buckets[2], 2u);
  EXPECT_EQ(h->buckets.back(), 1u);
}

TEST(Metrics, DisabledCallsAreNoOps) {
  ScopedMetrics scope;
  counter_add("test.obs.disabled.probe");  // registers the cell while armed
  set_metrics_enabled(false);
  counter_add("test.obs.disabled.probe", 100);
  gauge_set("test.obs.disabled.gauge", 1.0);
  histogram_observe("test.obs.disabled.hist", 1.0);
  set_metrics_enabled(true);
  const auto snap = metrics_snapshot();
  const MetricSample* probe = find_sample(snap, "test.obs.disabled.probe");
  ASSERT_NE(probe, nullptr);
  EXPECT_DOUBLE_EQ(probe->value, 1.0);  // only the armed increment landed
  // The disabled gauge/histogram writes must not even register cells.
  EXPECT_EQ(find_sample(snap, "test.obs.disabled.gauge"), nullptr);
  EXPECT_EQ(find_sample(snap, "test.obs.disabled.hist"), nullptr);
}

TEST(Metrics, ResetZeroesButKeepsCellsRegistered) {
  ScopedMetrics scope;
  counter_add("test.obs.reset", 9);
  histogram_observe("test.obs.reset.hist", 2.0);
  reset_metrics();
  const auto snap = metrics_snapshot();
  const MetricSample* c = find_sample(snap, "test.obs.reset");
  const MetricSample* h = find_sample(snap, "test.obs.reset.hist");
  ASSERT_NE(c, nullptr);
  ASSERT_NE(h, nullptr);
  EXPECT_DOUBLE_EQ(c->value, 0.0);
  EXPECT_EQ(h->count, 0u);
  EXPECT_DOUBLE_EQ(h->value, 0.0);
  // Cached pointers stay valid: writing after reset accumulates from zero.
  counter_add("test.obs.reset", 4);
  const auto snap2 = metrics_snapshot();
  const MetricSample* c2 = find_sample(snap2, "test.obs.reset");
  ASSERT_NE(c2, nullptr);
  EXPECT_DOUBLE_EQ(c2->value, 4.0);
}

TEST(Metrics, SnapshotIsSortedByNameThenLabel) {
  ScopedMetrics scope;
  counter_add("test.obs.sort.b");
  counter_add("test.obs.sort.a", "k", "z");
  counter_add("test.obs.sort.a", "k", "a");
  const auto snap = metrics_snapshot();
  for (std::size_t i = 1; i < snap.size(); ++i) {
    const auto key = [](const MetricSample& s) {
      return std::make_tuple(s.name, s.label_key, s.label_value);
    };
    EXPECT_LE(key(snap[i - 1]), key(snap[i])) << "snapshot not sorted at " << i;
  }
}

TEST(Metrics, ConcurrentCountersMergeExactly) {
  // The core lock-sharded property: N threads hammering shared + private
  // cells lose no increments and the merged totals are schedule-independent.
  ScopedMetrics scope;
  constexpr int kThreads = 4;
  constexpr std::uint64_t kPerThread = 20000;
  static const char* const kPrivateNames[kThreads] = {
      "test.obs.mt.t0", "test.obs.mt.t1", "test.obs.mt.t2", "test.obs.mt.t3"};
  std::vector<std::thread> workers;
  workers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([t] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        counter_add("test.obs.mt.shared");
        counter_add(kPrivateNames[t]);
        if (i % 64 == 0) histogram_observe("test.obs.mt.hist", double(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  const auto snap = metrics_snapshot();
  const MetricSample* shared = find_sample(snap, "test.obs.mt.shared");
  ASSERT_NE(shared, nullptr);
  EXPECT_DOUBLE_EQ(shared->value, double(kThreads * kPerThread));
  for (int t = 0; t < kThreads; ++t) {
    const MetricSample* mine = find_sample(snap, kPrivateNames[t]);
    ASSERT_NE(mine, nullptr);
    EXPECT_DOUBLE_EQ(mine->value, double(kPerThread));
  }
  const MetricSample* h = find_sample(snap, "test.obs.mt.hist");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count, kThreads * ((kPerThread + 63) / 64));
}

TEST(Metrics, ManyDistinctNamesOverflowTheTlCacheSafely) {
  // More label values than TL-cache slots forces eviction on the fast path;
  // totals must still be exact.
  ScopedMetrics scope;
  static std::vector<std::string> labels;  // static: cells cache the pointers
  if (labels.empty())
    for (int i = 0; i < 600; ++i) labels.push_back("v" + std::to_string(i));
  for (int round = 0; round < 3; ++round)
    for (const std::string& l : labels)
      counter_add("test.obs.evict", "id", l.c_str());
  const auto snap = metrics_snapshot();
  std::uint64_t total = 0;
  for (const MetricSample& s : snap)
    if (s.name == "test.obs.evict") total += static_cast<std::uint64_t>(s.value);
  EXPECT_EQ(total, 3u * labels.size());
}

TEST(Metrics, JsonExportParsesAndCarriesKindFields) {
  ScopedMetrics scope;
  counter_add("test.obs.json.counter", 2);
  gauge_set("test.obs.json.gauge", 1.5);
  histogram_observe("test.obs.json.hist", 3.0);
  const obstest::JsonValue doc = obstest::parse_json(metrics_json());
  ASSERT_TRUE(doc.is_object());
  const obstest::JsonValue& metrics = doc.at("metrics");
  ASSERT_TRUE(metrics.is_array());
  bool saw_counter = false, saw_gauge = false, saw_hist = false;
  for (const obstest::JsonValue& m : metrics.array) {
    ASSERT_TRUE(m.is_object());
    const std::string name = m.at("name").string;
    const std::string kind = m.at("kind").string;
    if (name == "test.obs.json.counter") {
      saw_counter = true;
      EXPECT_EQ(kind, "counter");
      EXPECT_DOUBLE_EQ(m.at("value").number, 2.0);
    } else if (name == "test.obs.json.gauge") {
      saw_gauge = true;
      EXPECT_EQ(kind, "gauge");
      EXPECT_DOUBLE_EQ(m.at("value").number, 1.5);
    } else if (name == "test.obs.json.hist") {
      saw_hist = true;
      EXPECT_EQ(kind, "histogram");
      EXPECT_DOUBLE_EQ(m.at("count").number, 1.0);
      EXPECT_DOUBLE_EQ(m.at("sum").number, 3.0);
      EXPECT_EQ(m.at("buckets").array.size(),
                static_cast<std::size_t>(kHistogramBuckets) + 1);
    }
  }
  EXPECT_TRUE(saw_counter);
  EXPECT_TRUE(saw_gauge);
  EXPECT_TRUE(saw_hist);
}

TEST(Metrics, PrometheusExportSanitizesAndCumulates) {
  ScopedMetrics scope;
  counter_add("test.obs.prom.counter", "site", "x", 3);
  histogram_observe("test.obs.prom.hist", 3.0);  // lands in le=4
  const std::string text = metrics_prometheus();
  EXPECT_NE(text.find("# TYPE test_obs_prom_counter counter"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_counter{site=\"x\"} 3"),
            std::string::npos);
  EXPECT_NE(text.find("# TYPE test_obs_prom_hist histogram"),
            std::string::npos);
  // Cumulative buckets: le=2 excludes the 3.0 sample, le=4 and +Inf include.
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"2\"} 0"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"4\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_hist_bucket{le=\"+Inf\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_prom_hist_count 1"), std::string::npos);
  // No raw dots may survive in metric names.
  EXPECT_EQ(text.find("test.obs.prom"), std::string::npos);
}

TEST(Metrics, LabelledHistogramsKeepOneCellPerLabelValue) {
  ScopedMetrics scope;
  histogram_observe("test.obs.lhist", "stage", "a", 3.0);
  histogram_observe("test.obs.lhist", "stage", "a", 5.0);
  histogram_observe("test.obs.lhist", "stage", "b", 1.0);
  int seen = 0;
  for (const MetricSample& s : metrics_snapshot()) {
    if (s.name != "test.obs.lhist") continue;
    ++seen;
    EXPECT_EQ(s.kind, "histogram");
    EXPECT_EQ(s.label_key, "stage");
    if (s.label_value == "a") {
      EXPECT_EQ(s.count, 2u);
      EXPECT_DOUBLE_EQ(s.value, 8.0);
    } else {
      EXPECT_EQ(s.label_value, "b");
      EXPECT_EQ(s.count, 1u);
    }
  }
  EXPECT_EQ(seen, 2);
  // Prometheus puts the label beside `le` and on _sum and _count.
  const std::string text = metrics_prometheus();
  EXPECT_NE(text.find("test_obs_lhist_bucket{stage=\"a\",le=\"4\"} 1"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_lhist_bucket{stage=\"a\",le=\"+Inf\"} 2"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_lhist_sum{stage=\"a\"} 8"),
            std::string::npos);
  EXPECT_NE(text.find("test_obs_lhist_count{stage=\"b\"} 1"),
            std::string::npos);
}

TEST(Metrics, WriteMetricsExpandsPidAndPicksFormatBySuffix) {
  ScopedMetrics scope;
  counter_add("test.obs.write", 1);
  const std::string json_path = "obs_test_metrics_%p.json";
  const std::string prom_path = "obs_test_metrics_%p.prom";
  ASSERT_TRUE(write_metrics(json_path));
  ASSERT_TRUE(write_metrics(prom_path));
  const std::string pid = std::to_string(static_cast<long>(::getpid()));
  const std::string json_file = "obs_test_metrics_" + pid + ".json";
  const std::string prom_file = "obs_test_metrics_" + pid + ".prom";
  auto slurp = [](const std::string& p) {
    std::string out;
    if (FILE* f = std::fopen(p.c_str(), "rb")) {
      char buf[4096];
      std::size_t n;
      while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
      std::fclose(f);
    }
    return out;
  };
  const std::string json_text = slurp(json_file);
  const std::string prom_text = slurp(prom_file);
  std::remove(json_file.c_str());
  std::remove(prom_file.c_str());
  ASSERT_FALSE(json_text.empty()) << "pid expansion failed for " << json_path;
  ASSERT_FALSE(prom_text.empty());
  EXPECT_NO_THROW(obstest::parse_json(json_text));
  EXPECT_NE(prom_text.find("# TYPE test_obs_write counter"),
            std::string::npos);
}

TEST(Metrics, ScopedMetricsRestoresPriorState) {
  const bool before = metrics_enabled();
  {
    ScopedMetrics scope;
    EXPECT_TRUE(metrics_enabled());
  }
  EXPECT_EQ(metrics_enabled(), before);
}

}  // namespace
}  // namespace rcr::obs
