// Fleet-layer tests: latency percentile math, per-seed byte-identical
// determinism of one supervised lab, worker-count independence and
// aggregation of sharded campaigns, their merged observability, and the
// dense-world shelf leaving verdicts untouched.
#include <gtest/gtest.h>

#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "bugs/bugs.hpp"
#include "core/lab.hpp"
#include "devices/stations.hpp"
#include "fleet/fleet.hpp"
#include "obs/obs.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit {
namespace {

using bugs::cmd;

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

// --- one supervised lab -----------------------------------------------------

/// What one supervised V3 run of the seed-42 testbed workflow leaves behind.
struct LabRun {
  std::string trace_jsonl;
  std::size_t alerts = 0;
  std::size_t commands_checked = 0;
};

/// Records the Fig. 5 safe workflow on a pristine seed-42 testbed, then runs
/// it under a Supervisor on a fresh V3 lab whose simulator world carries
/// `shelf_boxes` extra shelf boxes.
LabRun run_testbed_workflow(std::size_t shelf_boxes) {
  sim::LabBackend staging(sim::testbed_profile(), 42);
  sim::build_hein_testbed_deck(staging);
  std::vector<dev::Command> commands =
      script::record_workflow(staging, script::testbed_workflow_source());

  core::Lab lab(core::Variant::ModifiedWithSim, 42);
  sim::add_shelf_rack(lab.simulator->world(), shelf_boxes);
  trace::Supervisor supervisor(&lab.engine, &lab.backend);
  trace::RunReport report = supervisor.run(commands);
  return LabRun{supervisor.log().to_jsonl(), report.alerts, lab.engine.stats().commands_checked};
}

TEST(FleetDeterminism, SameSeedProducesByteIdenticalTrace) {
  LabRun first = run_testbed_workflow(0);
  LabRun second = run_testbed_workflow(0);

  ASSERT_FALSE(first.trace_jsonl.empty());
  EXPECT_EQ(first.trace_jsonl, second.trace_jsonl);
  EXPECT_EQ(first.commands_checked, second.commands_checked);
  EXPECT_EQ(first.alerts, second.alerts);
}

TEST(DenseWorld, ExtraObstaclesDoNotChangeVerdicts) {
  LabRun sparse = run_testbed_workflow(0);
  LabRun dense = run_testbed_workflow(400);

  // The shelf rack sits outside every motion path: same trace, same alerts.
  ASSERT_FALSE(sparse.trace_jsonl.empty());
  EXPECT_EQ(sparse.trace_jsonl, dense.trace_jsonl);
  EXPECT_EQ(sparse.alerts, dense.alerts);
  EXPECT_EQ(sparse.commands_checked, dense.commands_checked);
}

// --- sharded campaigns ---------------------------------------------------------

json::Object num_args(const char* key, double value) {
  json::Object args;
  args[key] = value;
  return args;
}

json::Object door_args(const char* state) {
  json::Object args;
  args["state"] = std::string(state);
  return args;
}

/// The Hein testbed deck plus a spin coater, so the campaign below has eight
/// disjoint device groups (the two arms share the motion token, so they
/// count as one).
void testbed_with_spin_coater(sim::LabBackend& backend) {
  sim::build_hein_testbed_deck(backend);
  backend.registry().add(std::make_unique<dev::GenericActionDevice>(
      "spin_coater",
      std::vector<dev::GenericActionDevice::ValueActionSpec>{
          {"set_spin_speed", "spinSpeed", "rpm", 8000.0}},
      /*has_door=*/false, std::nullopt));
}

/// `streams` V3 streams, stream i in device group i % 8: six testbed
/// stations, the spin coater and the viperx motion group. Groups share
/// nothing, so the planner certifies one shard per group in use.
fleet::CampaignSpec grouped_campaign(std::size_t streams, unsigned seed) {
  const std::vector<std::vector<dev::Command>> groups = {
      {cmd("hotplate", "set_temperature", num_args("celsius", 60.0)), cmd("hotplate", "stop")},
      {cmd("thermoshaker", "set_temperature", num_args("celsius", 40.0)),
       cmd("thermoshaker", "stop")},
      {cmd("centrifuge", "set_door", door_args("open")),
       cmd("centrifuge", "set_door", door_args("closed"))},
      {cmd("syringe_pump", "draw_solvent", num_args("volume", 0.05)),
       cmd("syringe_pump", "draw_solvent", num_args("volume", 0.05))},
      {cmd("dosing_device", "set_door", door_args("open")),
       cmd("dosing_device", "set_door", door_args("closed"))},
      {cmd("camera", "start"), cmd("camera", "stop")},
      {cmd("spin_coater", "set_spin_speed", num_args("rpm", 500.0)), cmd("spin_coater", "stop")},
      {cmd("viperx", "go_home"), cmd("viperx", "go_sleep")},
  };
  fleet::CampaignSpec spec;
  spec.variant = core::Variant::ModifiedWithSim;
  spec.seed = seed;
  spec.deck = testbed_with_spin_coater;
  for (std::size_t i = 0; i < streams; ++i) {
    spec.streams.push_back({"stream-" + std::to_string(i), groups[i % groups.size()], ""});
  }
  return spec;
}

std::size_t total_commands(const fleet::CampaignSpec& spec) {
  std::size_t n = 0;
  for (const fleet::CampaignStreamSpec& s : spec.streams) n += s.commands.size();
  return n;
}

/// Everything in a campaign report that must not depend on the worker count.
using Verdicts = std::vector<std::tuple<std::size_t, std::size_t, std::string, bool>>;

Verdicts verdicts(const fleet::CampaignReport& report) {
  Verdicts out;
  for (const fleet::CampaignAlert& a : report.alerts) {
    out.emplace_back(a.stream, a.command_index, a.alert.rule, a.cross_stream);
  }
  return out;
}

fleet::CampaignReport run_grouped(const fleet::CampaignSpec& spec, std::size_t workers,
                                  bool obs = false) {
  fleet::ShardedCampaignOptions options;
  options.workers = workers;
  options.obs = obs;
  return fleet::Fleet::run(spec, options);
}

TEST(FleetDeterminism, WorkerCountDoesNotChangeResults) {
  fleet::CampaignSpec spec = grouped_campaign(12, 100);
  // One stream alerts (over the hotplate's 150 C limit), so the solo
  // classification runs too.
  spec.streams[0].commands[0] = cmd("hotplate", "set_temperature", num_args("celsius", 200.0));

  fleet::CampaignReport serial = run_grouped(spec, 1);
  fleet::CampaignReport pooled = run_grouped(spec, 4);

  EXPECT_EQ(serial.shards, 8u);
  EXPECT_EQ(pooled.shards, serial.shards);
  ASSERT_FALSE(serial.alerts.empty());
  EXPECT_EQ(verdicts(serial), verdicts(pooled));
  EXPECT_EQ(serial.schedule, pooled.schedule);
  EXPECT_EQ(serial.commands_checked, pooled.commands_checked);
  EXPECT_EQ(serial.snapshot_pose_serves, pooled.snapshot_pose_serves);
  EXPECT_EQ(serial.coordination_events, 0u);
  EXPECT_EQ(pooled.coordination_events, 0u);
}

TEST(FleetAggregation, TotalsSumPerStreamStats) {
  fleet::CampaignSpec spec = grouped_campaign(12, 7);
  spec.streams[0].commands[0] = cmd("hotplate", "set_temperature", num_args("celsius", 200.0));

  for (std::size_t workers : {1u, 3u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    fleet::CampaignReport report = run_grouped(spec, workers, /*obs=*/true);
    ASSERT_NE(report.obs_metrics, nullptr);

    // halt_on_alert is off, so every command of every stream is checked.
    EXPECT_GT(report.shards, 1u);
    EXPECT_EQ(report.commands_checked, total_commands(spec));
    const obs::Counter* commands = report.obs_metrics->find_counter("rabit_commands_total");
    ASSERT_NE(commands, nullptr);
    EXPECT_EQ(commands->value(), report.commands_checked);
    const obs::Counter* alerts =
        report.obs_metrics->find_counter("rabit_alerts_total", "kind=\"invalid_command\"");
    ASSERT_NE(alerts, nullptr);
    EXPECT_EQ(alerts->value(), report.alerts.size());
    EXPECT_EQ(report.alerts.size(), 1u);

    EXPECT_GT(report.wall_s, 0.0);
    EXPECT_GT(report.commands_per_s, 0.0);
    EXPECT_EQ(report.check_latency.samples, report.commands_checked);
    EXPECT_LE(report.check_latency.p50_us, report.check_latency.p90_us);
    EXPECT_LE(report.check_latency.p90_us, report.check_latency.p99_us);
    EXPECT_LE(report.check_latency.p99_us, report.check_latency.p999_us);
    EXPECT_LE(report.check_latency.p999_us, report.check_latency.max_us);
  }
}

TEST(FleetInput, MalformedMovePositionIsAG3AlertNotACrash) {
  // A move_to whose position holds three values that are not all numbers is
  // an unresolvable target: a G3 alert on each stream, never an exception
  // escaping a worker thread.
  fleet::CampaignSpec spec;
  spec.variant = core::Variant::ModifiedWithSim;
  for (json::Array position : {json::Array{"a", 0, 0.2}, json::Array{0.3, nullptr, 0.2}}) {
    json::Object args;
    args["position"] = std::move(position);
    spec.streams.push_back({"malformed-" + std::to_string(spec.streams.size()),
                            {cmd(sim::deck_ids::kViperX, "move_to", std::move(args))},
                            ""});
  }
  // Both streams drive viperx, so the planner would merge them; a hand-built
  // plan puts each in its own shard, on its own worker.
  analysis::ShardPlan plan;
  plan.stream_names = {spec.streams[0].name, spec.streams[1].name};
  plan.shards = {analysis::Shard{{0}}, analysis::Shard{{1}}};

  fleet::ShardedCampaignOptions options;
  options.workers = 2;
  fleet::CampaignReport report = fleet::Fleet::run_campaign(spec, plan, options);

  EXPECT_EQ(report.commands_checked, 2u);
  ASSERT_EQ(report.alerts.size(), spec.streams.size());
  for (std::size_t s = 0; s < spec.streams.size(); ++s) {
    SCOPED_TRACE(spec.streams[s].name);
    const fleet::CampaignAlert* alert = nullptr;
    for (const fleet::CampaignAlert& a : report.alerts) {
      if (a.stream == s) alert = &a;
    }
    ASSERT_NE(alert, nullptr);
    EXPECT_EQ(alert->command_index, 0u);
    EXPECT_EQ(alert->alert.rule, "G3");
  }
}

// A pump action sent to a station without the pump's volumes is the
// firmware's rejection, not an exception out of a worker (which ends the
// process in std::terminate) or out of Fleet::run.
TEST(FleetInput, SolventActionOnAHotplateIsAFirmwareRejection) {
  fleet::CampaignSpec spec;
  spec.variant = core::Variant::ModifiedWithSim;
  for (const char* name : {"draw-a", "draw-b"}) {
    spec.streams.push_back({name, {cmd("hotplate", "draw_solvent", num_args("volume", 1.0))}, ""});
  }
  for (std::size_t workers : {1u, 2u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    fleet::CampaignReport report = run_grouped(spec, workers);
    EXPECT_EQ(report.commands_checked, 2u);
    EXPECT_TRUE(report.alerts.empty());
  }
}

TEST(FleetPlan, ShardsMustPartitionTheStreams) {
  // Three V2 streams of two commands each on disjoint stations.
  fleet::CampaignSpec spec;
  spec.variant = core::Variant::Modified;
  spec.streams = {{"a",
                   {cmd("hotplate", "set_temperature", num_args("celsius", 60.0)),
                    cmd("hotplate", "stop")},
                   ""},
                  {"b",
                   {cmd("thermoshaker", "set_temperature", num_args("celsius", 40.0)),
                    cmd("thermoshaker", "stop")},
                   ""},
                  {"c", {cmd("camera", "start"), cmd("camera", "stop")}, ""}};
  auto plan_with = [&spec](std::vector<analysis::Shard> shards) {
    analysis::ShardPlan plan;
    for (const fleet::CampaignStreamSpec& s : spec.streams) plan.stream_names.push_back(s.name);
    plan.shards = std::move(shards);
    return plan;
  };
  auto error_of = [&spec](const analysis::ShardPlan& plan) -> std::string {
    try {
      (void)fleet::Fleet::run_campaign(spec, plan);
    } catch (const std::runtime_error& e) {
      return e.what();
    }
    return "accepted";
  };
  // Stream c in no shard: it would go unchecked (4 of 6 commands).
  EXPECT_NE(error_of(plan_with({analysis::Shard{{0, 1}}})).find("stream 'c' is in no shard"),
            std::string::npos);
  // Stream c in two shards: checked twice, its alerts duplicated (8 of 6).
  EXPECT_NE(error_of(plan_with({analysis::Shard{{0, 1, 2}}, analysis::Shard{{2}}}))
                .find("stream 'c' is in shards 0 and 1"),
            std::string::npos);
  // A stream index past the spec's streams.
  EXPECT_NE(error_of(plan_with({analysis::Shard{{0, 1, 2, 7}}})).find("names stream #7"),
            std::string::npos);
  // A partition runs every command once.
  analysis::ShardPlan partition = plan_with({analysis::Shard{{0, 2}}, analysis::Shard{{1}}});
  EXPECT_EQ(fleet::Fleet::run_campaign(spec, partition).commands_checked, 6u);
}

// --- observability: golden determinism and the sharded-sink audit -----------

TEST(FleetObservability, MergedExportIsByteIdenticalAcrossWorkerCounts) {
  fleet::CampaignSpec spec = grouped_campaign(16, 500);

  std::string golden_events;
  std::string golden_trace;
  for (std::size_t workers : {1u, 4u, 16u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    fleet::CampaignReport report = run_grouped(spec, workers, /*obs=*/true);
    ASSERT_NE(report.obs_events, nullptr);
    ASSERT_NE(report.obs_metrics, nullptr);
    EXPECT_EQ(report.shards, 8u);

    std::string events = obs::export_events_jsonl(*report.obs_events);
    std::string trace = obs::export_chrome_trace(*report.obs_events);
    if (golden_events.empty()) {
      golden_events = events;
      golden_trace = trace;
      ASSERT_FALSE(golden_events.empty());
    } else {
      // Byte-identical: merge order is shard order, never finish order, and
      // the exports carry modeled time only.
      EXPECT_EQ(events, golden_events);
      EXPECT_EQ(trace, golden_trace);
    }
  }

  // A repeated run at the same worker count is also byte-identical.
  fleet::CampaignReport again = run_grouped(spec, 4, /*obs=*/true);
  EXPECT_EQ(obs::export_events_jsonl(*again.obs_events), golden_events);
  EXPECT_EQ(obs::export_chrome_trace(*again.obs_events), golden_trace);
}

TEST(FleetObservability, MergedMetricsAggregatePerStreamRegistries) {
  fleet::CampaignSpec spec = grouped_campaign(4, 500);
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    fleet::CampaignReport report = run_grouped(spec, workers, /*obs=*/true);
    ASSERT_NE(report.obs_metrics, nullptr);
    EXPECT_EQ(report.shards, 4u);

    // The per-shard registries merge into exactly the report's totals.
    const obs::Counter* merged = report.obs_metrics->find_counter("rabit_commands_total");
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->value(), report.commands_checked);
    EXPECT_EQ(merged->value(), total_commands(spec));
    const obs::Histogram* lat = report.obs_metrics->find_histogram("rabit_check_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_EQ(lat->count(), report.check_latency.samples);
  }

  // An unobserved campaign leaves the report's obs fields null.
  fleet::CampaignReport no_obs = run_grouped(spec, 2);
  EXPECT_EQ(no_obs.obs_events, nullptr);
  EXPECT_EQ(no_obs.obs_metrics, nullptr);
}

TEST(FleetObservability, MergedMetricsCarryTheEngineCounters) {
  // Shards step without Supervisor::run; each exports its engine's Stats
  // into its own registry, so the merged registry counts every check.
  fleet::CampaignSpec spec = grouped_campaign(12, 7);
  spec.streams[0].commands[0] = cmd("hotplate", "set_temperature", num_args("celsius", 200.0));
  ASSERT_FALSE(spec.halt_on_alert);
  for (std::size_t workers : {1u, 4u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    fleet::CampaignReport report = run_grouped(spec, workers, /*obs=*/true);
    ASSERT_NE(report.obs_metrics, nullptr);
    EXPECT_GT(report.shards, 1u);
    const obs::Counter* checked =
        report.obs_metrics->find_counter("rabit_engine_commands_checked_total");
    const obs::Counter* commands = report.obs_metrics->find_counter("rabit_commands_total");
    const obs::Counter* blocked =
        report.obs_metrics->find_counter("rabit_engine_precondition_alerts_total");
    ASSERT_NE(checked, nullptr);
    ASSERT_NE(commands, nullptr);
    ASSERT_NE(blocked, nullptr);
    EXPECT_EQ(checked->value(), report.commands_checked);
    EXPECT_EQ(checked->value(), commands->value());
    EXPECT_EQ(blocked->value(), report.alerts.size());
  }
}

// The sharded-sink audit (run under TSan in CI): 64 observed streams in 8
// shards over a contended pool. Every shard owns its collector and registry —
// metric handles are deliberately unsynchronized, so this test is exactly
// the workload that would trip TSan if any observability state were ever
// shared across workers. The assertions pin the aggregation arithmetic; the
// sanitizer pins the absence of data races.
TEST(FleetObservability, SixtyFourStreamShardedSinkAudit) {
  fleet::CampaignSpec spec = grouped_campaign(64, 500);
  for (std::size_t workers : {4u, 16u}) {
    SCOPED_TRACE("workers=" + std::to_string(workers));
    fleet::CampaignReport report = run_grouped(spec, workers, /*obs=*/true);

    EXPECT_EQ(report.shards, 8u);
    EXPECT_EQ(report.commands_checked, total_commands(spec));
    ASSERT_NE(report.obs_events, nullptr);
    // One span per supervised command, across every shard's collector.
    EXPECT_EQ(report.obs_events->spans().size(), report.commands_checked);
    const obs::Counter* merged = report.obs_metrics->find_counter("rabit_commands_total");
    ASSERT_NE(merged, nullptr);
    EXPECT_EQ(merged->value(), report.commands_checked);
    const obs::Histogram* lat = report.obs_metrics->find_histogram("rabit_check_latency_us");
    ASSERT_NE(lat, nullptr);
    EXPECT_GT(lat->count(), 0u);
  }
}

}  // namespace
}  // namespace rabit
