// Fleet-layer tests: latency percentile math, per-seed byte-identical
// determinism, worker-count independence, aggregation arithmetic, and the
// dense-world knob leaving verdicts untouched.
#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "fleet/fleet.hpp"
#include "obs/obs.hpp"
#include "sim/deck.hpp"

namespace rabit {
namespace {

TEST(SummarizeLatencies, NearestRankPercentiles) {
  std::vector<double> samples;
  for (int i = 100; i >= 1; --i) samples.push_back(static_cast<double>(i));

  fleet::LatencySummary s = fleet::summarize_latencies(samples);
  EXPECT_EQ(s.samples, 100u);
  EXPECT_DOUBLE_EQ(s.p50_us, 50.0);
  EXPECT_DOUBLE_EQ(s.p90_us, 90.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 99.0);
  // ceil(0.999 * 100) = 100: below 1000 samples the nearest-rank p999 IS the
  // max — the conservative direction for a tail gate.
  EXPECT_DOUBLE_EQ(s.p999_us, 100.0);
  EXPECT_DOUBLE_EQ(s.max_us, 100.0);
}

TEST(SummarizeLatencies, EmptyInputYieldsZeroes) {
  fleet::LatencySummary s = fleet::summarize_latencies({});
  EXPECT_EQ(s.samples, 0u);
  EXPECT_DOUBLE_EQ(s.p50_us, 0.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 0.0);
  EXPECT_DOUBLE_EQ(s.p999_us, 0.0);
  EXPECT_DOUBLE_EQ(s.max_us, 0.0);
}

// The exact nearest-rank convention (rank = clamp(ceil(q * N), 1, N), value
// = sorted[rank - 1]) at its edges. These pin the behaviour obs::Histogram
// percentiles must match — one shared implementation, one answer.

TEST(SummarizeLatencies, OneSampleIsEveryPercentile) {
  fleet::LatencySummary s = fleet::summarize_latencies({42.0});
  EXPECT_EQ(s.samples, 1u);
  // ceil(q * 1) = 1 for every q in (0, 1]: the sample is p50, p90, p99,
  // p999, max.
  EXPECT_DOUBLE_EQ(s.p50_us, 42.0);
  EXPECT_DOUBLE_EQ(s.p90_us, 42.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 42.0);
  EXPECT_DOUBLE_EQ(s.p999_us, 42.0);
  EXPECT_DOUBLE_EQ(s.max_us, 42.0);
}

TEST(SummarizeLatencies, TwoSamplesSplitAtTheMedian) {
  fleet::LatencySummary s = fleet::summarize_latencies({9.0, 1.0});
  EXPECT_EQ(s.samples, 2u);
  // ceil(0.50 * 2) = 1 -> the smaller sample; ceil(0.90 * 2) = ceil(0.99 *
  // 2) = 2 -> the larger.
  EXPECT_DOUBLE_EQ(s.p50_us, 1.0);
  EXPECT_DOUBLE_EQ(s.p90_us, 9.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 9.0);
  EXPECT_DOUBLE_EQ(s.p999_us, 9.0);
  EXPECT_DOUBLE_EQ(s.max_us, 9.0);
}

TEST(SummarizeLatencies, AllDuplicatesYieldTheDuplicate) {
  fleet::LatencySummary s = fleet::summarize_latencies({5.0, 5.0, 5.0, 5.0, 5.0});
  EXPECT_EQ(s.samples, 5u);
  EXPECT_DOUBLE_EQ(s.p50_us, 5.0);
  EXPECT_DOUBLE_EQ(s.p90_us, 5.0);
  EXPECT_DOUBLE_EQ(s.p99_us, 5.0);
  EXPECT_DOUBLE_EQ(s.max_us, 5.0);
}

TEST(SummarizeLatencies, MatchesObsHistogramPercentiles) {
  std::vector<double> samples;
  for (int i = 0; i < 37; ++i) samples.push_back(static_cast<double>((i * 17) % 101));

  obs::Registry reg;
  obs::Histogram& h = reg.histogram("h", "");
  for (double v : samples) h.observe(v);
  fleet::LatencySummary s = fleet::summarize_latencies(samples);

  EXPECT_DOUBLE_EQ(s.p50_us, h.percentile(0.50));
  EXPECT_DOUBLE_EQ(s.p90_us, h.percentile(0.90));
  EXPECT_DOUBLE_EQ(s.p99_us, h.percentile(0.99));
  EXPECT_DOUBLE_EQ(s.p999_us, h.percentile(0.999));
}

TEST(FleetDeterminism, SameSeedProducesByteIdenticalTrace) {
  fleet::StreamSpec spec =
      fleet::testbed_stream("repro", core::Variant::ModifiedWithSim, 42);

  fleet::StreamResult first = fleet::FleetRunner::run_stream(spec);
  fleet::StreamResult second = fleet::FleetRunner::run_stream(spec);

  ASSERT_FALSE(first.trace_jsonl.empty());
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);
  EXPECT_EQ(first.engine_stats.commands_checked, second.engine_stats.commands_checked);
  EXPECT_EQ(first.report.alerts, second.report.alerts);
}

TEST(FleetDeterminism, WorkerCountDoesNotChangeResults) {
  std::vector<fleet::StreamSpec> specs;
  for (unsigned i = 0; i < 4; ++i) {
    specs.push_back(fleet::testbed_stream("stream-" + std::to_string(i),
                                          core::Variant::ModifiedWithSim, 100 + i));
  }

  fleet::FleetReport serial = fleet::FleetRunner({.workers = 1}).run(specs);
  fleet::FleetReport pooled = fleet::FleetRunner({.workers = 4}).run(specs);

  ASSERT_EQ(serial.streams.size(), specs.size());
  ASSERT_EQ(pooled.streams.size(), specs.size());
  for (std::size_t i = 0; i < specs.size(); ++i) {
    SCOPED_TRACE(specs[i].name);
    // Stream i lands at index i regardless of finish order.
    EXPECT_EQ(serial.streams[i].name, specs[i].name);
    EXPECT_EQ(pooled.streams[i].name, specs[i].name);
    EXPECT_EQ(serial.streams[i].trace_jsonl, pooled.streams[i].trace_jsonl);
    EXPECT_EQ(serial.streams[i].engine_stats.commands_checked,
              pooled.streams[i].engine_stats.commands_checked);
    EXPECT_EQ(serial.streams[i].report.alerts, pooled.streams[i].report.alerts);
  }
}

TEST(FleetAggregation, TotalsSumPerStreamStats) {
  std::vector<fleet::StreamSpec> specs;
  for (unsigned i = 0; i < 3; ++i) {
    specs.push_back(fleet::testbed_stream("agg-" + std::to_string(i),
                                          core::Variant::ModifiedWithSim, 7 + i));
  }

  fleet::FleetReport report = fleet::FleetRunner({.workers = 2}).run(specs);

  std::size_t commands = 0;
  std::size_t alerts = 0;
  std::size_t trajectory_checks = 0;
  for (const fleet::StreamResult& stream : report.streams) {
    commands += stream.engine_stats.commands_checked;
    alerts += stream.report.alerts;
    trajectory_checks += stream.engine_stats.trajectory_checks;
  }
  EXPECT_GT(commands, 0u);
  EXPECT_EQ(report.commands_checked, commands);
  EXPECT_EQ(report.totals.commands_checked, commands);
  EXPECT_EQ(report.alerts, alerts);
  EXPECT_EQ(report.totals.trajectory_checks, trajectory_checks);

  EXPECT_GT(report.wall_s, 0.0);
  EXPECT_GT(report.commands_per_s, 0.0);
  EXPECT_GT(report.check_latency.samples, 0u);
  EXPECT_LE(report.check_latency.p50_us, report.check_latency.p90_us);
  EXPECT_LE(report.check_latency.p90_us, report.check_latency.p99_us);
  EXPECT_LE(report.check_latency.p99_us, report.check_latency.p999_us);
  EXPECT_LE(report.check_latency.p999_us, report.check_latency.max_us);
}

TEST(FleetInput, MalformedMovePositionIsAG3AlertNotACrash) {
  // A move_to whose position holds three values that are not all numbers is
  // an unresolvable target: a G3 alert on each stream, never an exception
  // escaping a worker thread.
  std::vector<fleet::StreamSpec> specs;
  for (json::Array position : {json::Array{"a", 0, 0.2}, json::Array{0.3, nullptr, 0.2}}) {
    json::Object args;
    args["position"] = std::move(position);
    fleet::StreamSpec spec;
    spec.name = "malformed-" + std::to_string(specs.size());
    spec.commands = {dev::Command{sim::deck_ids::kViperX, "move_to", json::Value(std::move(args))}};
    specs.push_back(std::move(spec));
  }

  fleet::FleetReport report = fleet::FleetRunner({.workers = 2}).run(specs);

  ASSERT_EQ(report.streams.size(), specs.size());
  for (const fleet::StreamResult& stream : report.streams) {
    ASSERT_EQ(stream.report.steps.size(), 1u) << stream.name;
    const std::optional<core::Alert>& alert = stream.report.steps.front().alert;
    ASSERT_TRUE(alert.has_value()) << stream.name;
    EXPECT_EQ(alert->rule, "G3") << stream.name;
  }
  EXPECT_EQ(report.alerts, specs.size());
}

// --- observability: golden determinism and the sharded-sink audit -----------

std::vector<fleet::StreamSpec> observed_specs(std::size_t n) {
  std::vector<fleet::StreamSpec> specs;
  for (unsigned i = 0; i < n; ++i) {
    fleet::StreamSpec spec = fleet::testbed_stream("obs-" + std::to_string(i),
                                                   core::Variant::ModifiedWithSim, 500 + i);
    spec.obs = true;
    specs.push_back(std::move(spec));
  }
  return specs;
}

TEST(FleetObservability, MergedExportIsByteIdenticalAcrossWorkerCounts) {
  std::vector<fleet::StreamSpec> specs = observed_specs(16);

  std::string golden_events;
  std::string golden_trace;
  std::string golden_fleet_jsonl;
  for (std::size_t workers : {1u, 4u, 16u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    fleet::FleetReport report = fleet::FleetRunner({.workers = workers}).run(specs);
    ASSERT_NE(report.obs_events, nullptr);
    ASSERT_NE(report.obs_metrics, nullptr);

    std::string events = obs::export_events_jsonl(*report.obs_events);
    std::string trace = obs::export_chrome_trace(*report.obs_events);
    std::string fleet_jsonl;
    for (const fleet::StreamResult& s : report.streams) fleet_jsonl += s.trace_jsonl;

    if (golden_events.empty()) {
      golden_events = events;
      golden_trace = trace;
      golden_fleet_jsonl = fleet_jsonl;
      ASSERT_FALSE(golden_events.empty());
    } else {
      // Byte-identical: merge order is stream-spec order, never finish
      // order, and the exports carry modeled time only.
      EXPECT_EQ(events, golden_events);
      EXPECT_EQ(trace, golden_trace);
      EXPECT_EQ(fleet_jsonl, golden_fleet_jsonl);
    }
  }

  // A repeated run at the same worker count is also byte-identical.
  fleet::FleetReport again = fleet::FleetRunner({.workers = 4}).run(specs);
  EXPECT_EQ(obs::export_events_jsonl(*again.obs_events), golden_events);
  EXPECT_EQ(obs::export_chrome_trace(*again.obs_events), golden_trace);
}

TEST(FleetObservability, MergedMetricsAggregatePerStreamRegistries) {
  std::vector<fleet::StreamSpec> specs = observed_specs(4);
  fleet::FleetReport report = fleet::FleetRunner({.workers = 4}).run(specs);
  ASSERT_NE(report.obs_metrics, nullptr);

  std::uint64_t per_stream_total = 0;
  for (const fleet::StreamResult& s : report.streams) {
    ASSERT_NE(s.obs_metrics, nullptr);
    const obs::Counter* c = s.obs_metrics->find_counter("rabit_commands_total");
    ASSERT_NE(c, nullptr);
    per_stream_total += c->value();
  }
  const obs::Counter* merged = report.obs_metrics->find_counter("rabit_commands_total");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->value(), per_stream_total);
  EXPECT_EQ(merged->value(), report.commands_checked);

  const obs::Gauge* streams = report.obs_metrics->find_gauge("rabit_fleet_streams");
  ASSERT_NE(streams, nullptr);
  EXPECT_DOUBLE_EQ(streams->value(), 4.0);

  // Unobserved specs leave the report's obs fields null.
  std::vector<fleet::StreamSpec> plain = observed_specs(2);
  for (fleet::StreamSpec& s : plain) s.obs = false;
  fleet::FleetReport no_obs = fleet::FleetRunner({.workers = 2}).run(plain);
  EXPECT_EQ(no_obs.obs_events, nullptr);
  EXPECT_EQ(no_obs.obs_metrics, nullptr);
}

// The sharded-sink audit (run under TSan in CI): 64 observed streams over a
// heavily contended pool. Every stream owns its collector and registry —
// metric handles are deliberately unsynchronized, so this test is exactly
// the workload that would trip TSan if any observability state were ever
// shared across workers. The assertions pin the aggregation arithmetic; the
// sanitizer pins the absence of data races.
TEST(FleetObservability, SixtyFourStreamShardedSinkAudit) {
  std::vector<fleet::StreamSpec> specs = observed_specs(64);
  fleet::FleetReport report = fleet::FleetRunner({.workers = 16}).run(specs);

  ASSERT_EQ(report.streams.size(), 64u);
  ASSERT_NE(report.obs_events, nullptr);
  std::size_t span_total = 0;
  for (const fleet::StreamResult& s : report.streams) {
    ASSERT_NE(s.obs_events, nullptr);
    span_total += s.obs_events->spans().size();
    EXPECT_EQ(s.obs_events->spans().size(), s.report.steps.size());
  }
  EXPECT_EQ(report.obs_events->spans().size(), span_total);
  const obs::Counter* merged = report.obs_metrics->find_counter("rabit_commands_total");
  ASSERT_NE(merged, nullptr);
  EXPECT_EQ(merged->value(), report.commands_checked);
  const obs::Histogram* lat = report.obs_metrics->find_histogram("rabit_check_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_GT(lat->count(), 0u);
}

TEST(DenseWorld, ExtraObstaclesDoNotChangeVerdicts) {
  fleet::StreamSpec sparse =
      fleet::testbed_stream("density", core::Variant::ModifiedWithSim, 42);
  fleet::StreamSpec dense = sparse;
  dense.extra_obstacles = 400;

  fleet::StreamResult sparse_result = fleet::FleetRunner::run_stream(sparse);
  fleet::StreamResult dense_result = fleet::FleetRunner::run_stream(dense);

  // The shelf rack sits outside every motion path: same trace, same alerts.
  ASSERT_FALSE(sparse_result.trace_jsonl.empty());
  EXPECT_EQ(sparse_result.trace_jsonl, dense_result.trace_jsonl);
  EXPECT_EQ(sparse_result.report.alerts, dense_result.report.alerts);
  EXPECT_EQ(sparse_result.engine_stats.commands_checked,
            dense_result.engine_stats.commands_checked);
}

}  // namespace
}  // namespace rabit
