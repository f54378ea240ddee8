// rabit::obs tests: the nearest-rank percentile convention, the metrics
// registry (counters, gauges, exact-percentile histograms, deterministic
// merge), span/rung emission through the Supervisor, and schema validation
// of all three exporters (JSONL events, Chrome trace-event JSON, Prometheus
// text exposition).
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "core/lab.hpp"
#include "json/json.hpp"
#include "obs/obs.hpp"
#include "recovery/recovery.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit::obs {
namespace {

using dev::Command;
namespace ids = sim::deck_ids;

Command make_cmd(std::string device, std::string action, json::Object args = {}) {
  Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

// --- nearest-rank convention -------------------------------------------------

TEST(NearestRank, EmptyIsZero) { EXPECT_DOUBLE_EQ(nearest_rank({}, 0.5), 0.0); }

TEST(NearestRank, SingleSampleIsEveryQuantile) {
  std::vector<double> one{7.5};
  EXPECT_DOUBLE_EQ(nearest_rank(one, 0.01), 7.5);
  EXPECT_DOUBLE_EQ(nearest_rank(one, 0.50), 7.5);
  EXPECT_DOUBLE_EQ(nearest_rank(one, 0.99), 7.5);
  EXPECT_DOUBLE_EQ(nearest_rank(one, 1.00), 7.5);
}

TEST(NearestRank, TwoSamplesSplitAtMedian) {
  std::vector<double> two{1.0, 9.0};
  // ceil(0.5 * 2) = 1 -> the smaller sample; anything above 0.5 -> larger.
  EXPECT_DOUBLE_EQ(nearest_rank(two, 0.50), 1.0);
  EXPECT_DOUBLE_EQ(nearest_rank(two, 0.51), 9.0);
  EXPECT_DOUBLE_EQ(nearest_rank(two, 0.90), 9.0);
  EXPECT_DOUBLE_EQ(nearest_rank(two, 0.99), 9.0);
}

TEST(NearestRank, HundredSamplesMatchTextbookRanks) {
  std::vector<double> v;
  for (int i = 1; i <= 100; ++i) v.push_back(static_cast<double>(i));
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.50), 50.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.90), 90.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.99), 99.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 1.00), 100.0);
}

TEST(NearestRank, RankClampsIntoValidRange) {
  // q = 1.0 must never index past the end, and tiny q never below the front,
  // even when floating-point round-up pushes ceil(q * N) out of [1, N].
  std::vector<double> v{2.0, 4.0, 6.0};
  EXPECT_DOUBLE_EQ(nearest_rank(v, 1.0), 6.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 0.0), 2.0);
  EXPECT_DOUBLE_EQ(nearest_rank(v, 1e-12), 2.0);
}

// --- histogram ---------------------------------------------------------------

TEST(Histogram, ExactPercentilesAndBuckets) {
  Registry reg;
  Histogram& h = reg.histogram("latency_us", "test", {10.0, 100.0, 1000.0});
  for (int i = 1; i <= 100; ++i) h.observe(static_cast<double>(i));

  EXPECT_EQ(h.count(), 100u);
  EXPECT_DOUBLE_EQ(h.sum(), 5050.0);
  // Percentiles come from retained samples, not bucket interpolation.
  EXPECT_DOUBLE_EQ(h.percentile(0.50), 50.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.90), 90.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.99), 99.0);
  // Cumulative bucket counts: <=10 -> 10, <=100 -> 100, <=1000 -> 100.
  EXPECT_EQ(h.cumulative_count(0), 10u);
  EXPECT_EQ(h.cumulative_count(1), 100u);
  EXPECT_EQ(h.cumulative_count(2), 100u);
}

TEST(Histogram, ObserveAfterPercentileStaysSorted) {
  Registry reg;
  Histogram& h = reg.histogram("h", "");
  h.observe(5.0);
  h.observe(1.0);
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.0);
  h.observe(0.5);  // arrives after a sort; percentile must re-sort
  EXPECT_DOUBLE_EQ(h.percentile(0.5), 1.0);
  EXPECT_DOUBLE_EQ(h.percentile(1.0), 5.0);
}

TEST(Histogram, DefaultBoundsAscendCoveringMicrosecondsToSeconds) {
  std::vector<double> bounds = Histogram::default_latency_bounds_us();
  ASSERT_GE(bounds.size(), 2u);
  EXPECT_DOUBLE_EQ(bounds.front(), 1.0);
  EXPECT_DOUBLE_EQ(bounds.back(), 1e6);
  for (std::size_t i = 1; i < bounds.size(); ++i) EXPECT_GT(bounds[i], bounds[i - 1]);
}

// --- registry ----------------------------------------------------------------

TEST(Registry, CountersGaugesAndLookup) {
  Registry reg;
  reg.counter("rabit_commands_total", "", "help").increment(3);
  reg.counter("rabit_verdicts_total", "verdict=\"pass\"").increment();
  reg.gauge("rabit_fleet_streams").set(4.0);

  ASSERT_NE(reg.find_counter("rabit_commands_total"), nullptr);
  EXPECT_EQ(reg.find_counter("rabit_commands_total")->value(), 3u);
  ASSERT_NE(reg.find_counter("rabit_verdicts_total", "verdict=\"pass\""), nullptr);
  EXPECT_EQ(reg.find_counter("rabit_verdicts_total", "verdict=\"pass\"")->value(), 1u);
  EXPECT_EQ(reg.find_counter("rabit_verdicts_total", "verdict=\"blocked\""), nullptr);
  EXPECT_EQ(reg.find_counter("absent"), nullptr);
  ASSERT_NE(reg.find_gauge("rabit_fleet_streams"), nullptr);
  EXPECT_DOUBLE_EQ(reg.find_gauge("rabit_fleet_streams")->value(), 4.0);
}

TEST(Registry, MergeSumsScalarsAndConcatenatesHistograms) {
  Registry a;
  Registry b;
  a.counter("c").increment(2);
  b.counter("c").increment(5);
  b.counter("only_b").increment(1);
  a.gauge("g").set(1.5);
  b.gauge("g").set(2.5);
  a.histogram("h", "", {10.0}).observe(3.0);
  b.histogram("h", "", {10.0}).observe(7.0);

  a.merge_from(b);
  EXPECT_EQ(a.find_counter("c")->value(), 7u);
  EXPECT_EQ(a.find_counter("only_b")->value(), 1u);
  EXPECT_DOUBLE_EQ(a.find_gauge("g")->value(), 4.0);
  const Histogram* h = a.find_histogram("h");
  ASSERT_NE(h, nullptr);
  EXPECT_EQ(h->count(), 2u);
  EXPECT_DOUBLE_EQ(h->sum(), 10.0);
  EXPECT_DOUBLE_EQ(h->percentile(0.5), 3.0);
}

// Validates the Prometheus text exposition format: every family dumps a
// `# HELP` then `# TYPE` header followed by its samples; histogram bucket
// series are cumulative, end at le="+Inf", and agree with _count.
void validate_prometheus(const std::string& text) {
  std::istringstream in(text);
  std::string line;
  std::string last_family;
  std::string expected_next_header;  // "" | "TYPE <family>"
  std::vector<std::string> families_seen;
  double last_bucket = -1.0;
  double inf_bucket = -1.0;
  bool saw_any = false;

  while (std::getline(in, line)) {
    ASSERT_FALSE(line.empty()) << "blank line in exposition";
    saw_any = true;
    if (line.rfind("# HELP ", 0) == 0) {
      std::istringstream hdr(line.substr(7));
      std::string family;
      hdr >> family;
      ASSERT_FALSE(family.empty()) << line;
      expected_next_header = "TYPE " + family;
      families_seen.push_back(family);
      last_family = family;
      last_bucket = -1.0;
      inf_bucket = -1.0;
      continue;
    }
    if (line.rfind("# TYPE ", 0) == 0) {
      std::istringstream hdr(line.substr(7));
      std::string family;
      std::string type;
      hdr >> family >> type;
      EXPECT_EQ("TYPE " + family, expected_next_header) << line;
      expected_next_header.clear();
      EXPECT_TRUE(type == "counter" || type == "gauge" || type == "histogram") << line;
      continue;
    }
    // Sample line: name{labels} value — must belong to the current family.
    EXPECT_TRUE(expected_next_header.empty()) << "samples before # TYPE: " << line;
    EXPECT_EQ(line.rfind(last_family, 0), 0u) << line << " vs family " << last_family;
    std::size_t space = line.rfind(' ');
    ASSERT_NE(space, std::string::npos) << line;
    double value = std::stod(line.substr(space + 1));
    std::size_t brace = line.find('{');
    if (brace != std::string::npos && line.find("le=\"") != std::string::npos) {
      // Cumulative bucket series: non-decreasing, +Inf closes it.
      EXPECT_GE(value, last_bucket) << line;
      last_bucket = value;
      if (line.find("le=\"+Inf\"") != std::string::npos) inf_bucket = value;
    }
    if (line.rfind(last_family + "_count ", 0) == 0 && inf_bucket >= 0.0) {
      EXPECT_DOUBLE_EQ(value, inf_bucket) << "_count must equal the +Inf bucket";
    }
  }
  EXPECT_TRUE(saw_any);
  // Families dump in lexicographic order, so the layout is deterministic.
  for (std::size_t i = 1; i < families_seen.size(); ++i) {
    EXPECT_LT(families_seen[i - 1], families_seen[i]);
  }
}

TEST(Registry, PrometheusTextIsSchemaValid) {
  Registry reg;
  reg.counter("rabit_commands_total", "", "Commands intercepted").increment(4);
  reg.counter("rabit_verdicts_total", "verdict=\"blocked\"", "Verdicts").increment();
  reg.counter("rabit_verdicts_total", "verdict=\"pass\"", "Verdicts").increment(3);
  reg.gauge("rabit_fleet_streams", "", "Streams").set(2.0);
  Histogram& h = reg.histogram("rabit_check_latency_us", "Check latency", {1.0, 10.0, 100.0});
  h.observe(0.5);
  h.observe(5.0);
  h.observe(50.0);
  h.observe(5000.0);

  std::string text = reg.prometheus_text();
  validate_prometheus(text);
  EXPECT_NE(text.find("rabit_check_latency_us_bucket{le=\"+Inf\"} 4"), std::string::npos)
      << text;
  EXPECT_NE(text.find("rabit_check_latency_us_count 4"), std::string::npos);
  EXPECT_NE(text.find("rabit_verdicts_total{verdict=\"blocked\"} 1"), std::string::npos);
}

// --- spans and rungs through the Supervisor ----------------------------------

class ObsSupervisorTest : public ::testing::Test {
 protected:
  trace::Supervisor::Options observed_options() {
    trace::Supervisor::Options opts;
    opts.obs_sink = &events;
    opts.obs_metrics = &metrics;
    opts.obs_stream = "test-stream";
    return opts;
  }

  core::Lab lab{core::Variant::Modified};
  sim::LabBackend& backend = lab.backend;
  core::RabitEngine* engine = &lab.engine;
  Collector events;
  Registry metrics;
};

TEST_F(ObsSupervisorTest, OneSpanPerCommandWithOrderedPhases) {
  trace::Supervisor sup(engine, &backend, observed_options());
  auto workflow = script::record_workflow(backend, script::testbed_workflow_source());
  trace::RunReport report = sup.run(workflow);

  ASSERT_EQ(events.spans().size(), report.steps.size());
  double prev_t0 = -1.0;
  for (std::size_t i = 0; i < events.spans().size(); ++i) {
    const SpanRecord& span = events.spans()[i];
    SCOPED_TRACE(span.device + "." + span.action);
    EXPECT_EQ(span.seq, i);
    EXPECT_EQ(span.stream, "test-stream");
    EXPECT_EQ(span.verdict, "pass");
    EXPECT_GE(span.t0_modeled_s, prev_t0);
    prev_t0 = span.t0_modeled_s;
    // Pipeline order: canonicalize, precondition, dispatch, postcondition.
    ASSERT_GE(span.phases.size(), 4u);
    EXPECT_EQ(span.phases[0].phase, Phase::Canonicalize);
    EXPECT_EQ(span.phases[1].phase, Phase::Precondition);
    ASSERT_NE(span.find_phase(Phase::Dispatch), nullptr);
    ASSERT_NE(span.find_phase(Phase::Postcondition), nullptr);
    // The precondition phase carries the paper's modeled base check cost.
    EXPECT_DOUBLE_EQ(span.find_phase(Phase::Precondition)->dur_modeled_s,
                     core::RabitEngine::kBaseCheckCost_s);
  }
  EXPECT_TRUE(events.rungs().empty());

  // Metrics agree with the span stream.
  ASSERT_NE(metrics.find_counter("rabit_commands_total"), nullptr);
  EXPECT_EQ(metrics.find_counter("rabit_commands_total")->value(), report.steps.size());
  ASSERT_NE(metrics.find_counter("rabit_verdicts_total", "verdict=\"pass\""), nullptr);
  EXPECT_EQ(metrics.find_counter("rabit_verdicts_total", "verdict=\"pass\"")->value(),
            report.steps.size());
  const Histogram* lat = metrics.find_histogram("rabit_check_latency_us");
  ASSERT_NE(lat, nullptr);
  EXPECT_EQ(lat->count(), report.steps.size());
  // run() absorbs the engine's Stats counters once at the end.
  ASSERT_NE(metrics.find_counter("rabit_engine_commands_checked_total"), nullptr);
  EXPECT_EQ(metrics.find_counter("rabit_engine_commands_checked_total")->value(),
            report.steps.size());
}

TEST_F(ObsSupervisorTest, BlockedCommandGetsVerdictAndRule) {
  trace::Supervisor sup(engine, &backend, observed_options());
  sup.start();
  // G1: commanding the arm into a device's space without a reason.
  geom::Vec3 target =
      backend.arm(ids::kViperX).to_local(backend.find_site("dosing_device")->lab_position);
  json::Object args;
  args["position"] = json::Array{target.x, target.y, target.z};
  trace::SupervisedStep step = sup.step(make_cmd(ids::kViperX, "move_to", std::move(args)));

  ASSERT_TRUE(step.alert.has_value());
  ASSERT_EQ(events.spans().size(), 1u);
  const SpanRecord& span = events.spans()[0];
  EXPECT_EQ(span.verdict, "blocked");
  EXPECT_EQ(span.rule, "G1");
  // Blocked pre-execution: no dispatch or postcondition phase ever ran.
  EXPECT_EQ(span.find_phase(Phase::Dispatch), nullptr);
  EXPECT_EQ(span.find_phase(Phase::Postcondition), nullptr);
  ASSERT_NE(metrics.find_counter("rabit_verdicts_total", "verdict=\"blocked\""), nullptr);
  ASSERT_NE(metrics.find_counter("rabit_alerts_total", "kind=\"invalid_command\""), nullptr);
}

TEST_F(ObsSupervisorTest, RecoveryRetriesEmitRungs) {
  dev::FaultSchedule schedule;
  dev::TransientFault fault;
  fault.device = ids::kDosingDevice;
  fault.action = "set_door";
  fault.kind = dev::TransientKind::FirmwareBusy;
  fault.clear_after_attempts = 2;
  schedule.add(fault);
  backend.set_fault_schedule(std::move(schedule));

  trace::Supervisor::Options opts = observed_options();
  opts.recovery = recovery::RecoveryPolicy{};
  trace::Supervisor sup(engine, &backend, opts);
  sup.start();
  json::Object door;
  door["state"] = std::string("open");
  trace::SupervisedStep step = sup.step(make_cmd(ids::kDosingDevice, "set_door", std::move(door)));

  EXPECT_EQ(step.retries, 2u);
  ASSERT_EQ(events.rungs().size(), 2u);
  for (std::size_t i = 0; i < events.rungs().size(); ++i) {
    const RungRecord& rung = events.rungs()[i];
    EXPECT_EQ(rung.kind, "retry");
    EXPECT_EQ(rung.attempt, i + 1);
    EXPECT_EQ(rung.span_seq, 0u);
    EXPECT_EQ(rung.device, ids::kDosingDevice);
    EXPECT_EQ(rung.stream, "test-stream");
  }
  ASSERT_EQ(events.spans().size(), 1u);
  EXPECT_EQ(events.spans()[0].verdict, "pass");
  // The span's recovery phase carries the modeled backoff time.
  const PhaseSample* rec = events.spans()[0].find_phase(Phase::Recovery);
  ASSERT_NE(rec, nullptr);
  EXPECT_GT(rec->dur_modeled_s, 0.0);
  ASSERT_NE(metrics.find_counter("rabit_recovery_retries_total"), nullptr);
  EXPECT_EQ(metrics.find_counter("rabit_recovery_retries_total")->value(), 2u);
}

TEST_F(ObsSupervisorTest, NoSinkMeansNoObservationAndNoSpanLeft) {
  trace::Supervisor sup(engine, &backend,
                        trace::Supervisor::Options{});  // obs disabled
  auto workflow = script::record_workflow(backend, script::testbed_workflow_source());
  (void)sup.run(workflow);
  EXPECT_TRUE(events.empty());
  // The engine must not be left pointing at a dead span.
  EXPECT_EQ(engine->span(), nullptr);
}

// --- exporters ---------------------------------------------------------------

/// A full observed run — testbed workflow, one transient fault so the
/// collector sees rungs as well as spans. Self-contained so tests can run it
/// several times to compare export bytes.
struct ObservedRun {
  ObservedRun() : backend(sim::testbed_profile()) {
    sim::build_hein_testbed_deck(backend);
    core::RabitEngine engine(core::config_from_backend(backend, core::Variant::Modified));
    // Record first (recording interprets the workflow against the backend),
    // then arm the transient fault so only the supervised run sees it.
    auto workflow = script::record_workflow(backend, script::testbed_workflow_source());
    dev::FaultSchedule schedule;
    dev::TransientFault fault;
    fault.device = ids::kDosingDevice;
    fault.action = "set_door";
    fault.kind = dev::TransientKind::FirmwareBusy;
    fault.clear_after_attempts = 1;
    schedule.add(fault);
    backend.set_fault_schedule(std::move(schedule));

    trace::Supervisor::Options opts;
    opts.obs_sink = &events;
    opts.obs_metrics = &metrics;
    opts.obs_stream = "test-stream";
    opts.recovery = recovery::RecoveryPolicy{};
    trace::Supervisor sup(&engine, &backend, opts);
    (void)sup.run(workflow);
  }

  sim::LabBackend backend;
  Collector events;
  Registry metrics;
};

TEST(ObsExport, EventsJsonlIsModeledTimeOnlyAndParses) {
  ObservedRun run;
  const Collector& events = run.events;
  ASSERT_FALSE(events.spans().empty());
  ASSERT_FALSE(events.rungs().empty());
  std::string jsonl = export_events_jsonl(events);
  std::istringstream in(jsonl);
  std::string line;
  std::size_t spans = 0;
  std::size_t rungs = 0;
  while (std::getline(in, line)) {
    json::Value v = json::parse(line);
    const json::Object& o = v.as_object();
    const std::string& kind = o.at("kind").as_string();
    ASSERT_TRUE(kind == "span" || kind == "rung") << line;
    if (kind == "span") {
      ++spans;
      EXPECT_NE(o.find("seq"), nullptr);
      EXPECT_NE(o.find("device"), nullptr);
      EXPECT_NE(o.find("verdict"), nullptr);
      EXPECT_NE(o.find("t_modeled_s"), nullptr);
      for (const json::Value& p : o.at("phases").as_array()) {
        const json::Object& phase = p.as_object();
        EXPECT_NE(phase.find("phase"), nullptr);
        EXPECT_NE(phase.find("dur_modeled_s"), nullptr);
        // Determinism contract: no wall-clock field ever reaches the export.
        EXPECT_EQ(phase.find("wall_us"), nullptr);
      }
    } else {
      ++rungs;
      EXPECT_NE(o.find("span_seq"), nullptr);
      EXPECT_NE(o.find("rung"), nullptr);
      EXPECT_NE(o.find("attempt"), nullptr);
    }
    EXPECT_EQ(line.find("wall"), std::string::npos) << line;
  }
  EXPECT_EQ(spans, events.spans().size());
  EXPECT_EQ(rungs, events.rungs().size());
}

TEST(ObsExport, ChromeTraceIsSchemaValid) {
  ObservedRun run;
  const Collector& events = run.events;
  ASSERT_FALSE(events.spans().empty());
  ASSERT_FALSE(events.rungs().empty());
  std::string text = export_chrome_trace(events);
  json::Value root = json::parse(text);
  const json::Array& trace = root.as_object().at("traceEvents").as_array();
  ASSERT_FALSE(trace.empty());

  std::set<int> pids_with_metadata;
  std::size_t complete = 0;
  std::size_t instants = 0;
  for (const json::Value& ev : trace) {
    const json::Object& o = ev.as_object();
    ASSERT_NE(o.find("name"), nullptr);
    ASSERT_NE(o.find("ph"), nullptr);
    ASSERT_NE(o.find("pid"), nullptr);
    ASSERT_NE(o.find("tid"), nullptr);
    const std::string& ph = o.at("ph").as_string();
    int pid = static_cast<int>(o.at("pid").as_double());
    if (ph == "M") {
      EXPECT_EQ(o.at("name").as_string(), "process_name");
      pids_with_metadata.insert(pid);
      continue;
    }
    // Any event stream for a pid starts with its process_name metadata.
    EXPECT_TRUE(pids_with_metadata.count(pid)) << "pid " << pid << " lacks metadata";
    if (ph == "X") {
      ++complete;
      EXPECT_GE(o.at("ts").as_double(), 0.0);
      EXPECT_GE(o.at("dur").as_double(), 0.0);
    } else if (ph == "i") {
      ++instants;
      EXPECT_NE(o.find("ts"), nullptr);
      EXPECT_EQ(o.at("s").as_string(), "t");
    } else {
      FAIL() << "unexpected phase type " << ph;
    }
  }
  // One enclosing X per span plus one X per recorded phase; one i per rung.
  std::size_t phase_events = 0;
  for (const SpanRecord& s : events.spans()) phase_events += s.phases.size();
  EXPECT_EQ(complete, events.spans().size() + phase_events);
  EXPECT_EQ(instants, events.rungs().size());
}

TEST(ObsExport, ExportsAreByteIdenticalAcrossRuns) {
  // Two fresh runs of the same deterministic setup: the exports depend only
  // on the modeled history, never on wall clock.
  ObservedRun first;
  ObservedRun second;
  ASSERT_FALSE(first.events.empty());
  EXPECT_EQ(export_events_jsonl(first.events), export_events_jsonl(second.events));
  EXPECT_EQ(export_chrome_trace(first.events), export_chrome_trace(second.events));
}

TEST(ObsExport, WriteExportDirEmitsAllThreeFormats) {
  ObservedRun run;
  const Collector& events = run.events;
  const Registry& metrics = run.metrics;
  std::filesystem::path dir =
      std::filesystem::path(::testing::TempDir()) / "rabit_obs_export";
  std::filesystem::remove_all(dir);
  std::string error;
  ASSERT_TRUE(write_export_dir(dir.string(), events, metrics, &error)) << error;

  for (const char* name : {"events.jsonl", "trace.json", "metrics.prom"}) {
    SCOPED_TRACE(name);
    std::ifstream in(dir / name);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    EXPECT_FALSE(buf.str().empty());
  }
  // The metrics dump is the registry's exposition, schema and all.
  std::ifstream in(dir / "metrics.prom");
  std::ostringstream buf;
  buf << in.rdbuf();
  validate_prometheus(buf.str());
}

}  // namespace
}  // namespace rabit::obs
