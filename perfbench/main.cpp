// perfbench: the end-to-end and per-layer benchmark.
//
//   perfbench --workload <campaign_sharded|campaign_contended|session_motion>
//             --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]
//
// Each workload is a closed loop on one process: the next operation (one
// campaign, or one motion session) is issued when the previous returns.
// Before any timing the run refuses to report unless the 16-bug catalogue
// still gives the paper's 8/12/13 detection progression, then it generates
// a seeded pool of inputs and computes every input's expected output on an
// untimed verification pass. Each timed operation's output is checked
// against it.
//
// --trace 0 prints the end-to-end metrics. --trace 1 alternates traced and
// untraced passes over the inputs: traced operations are decomposed into the
// program's public calls, each wrapped in a benchmark span, with the
// program's own obs spans switched on, and the run prints the per-layer
// ledger. The last stdout line is one JSON object: {"correct", "attempted",
// "failed", "metrics"}. --setup-only 1 stops after the cold set-up pass and
// prints only {"setup_s"}; run.py runs it in fresh processes so setup_s is a
// median over several cold starts.
#include <sched.h>
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <optional>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/shard_plan.hpp"
#include "bugs/bugs.hpp"
#include "core/config.hpp"
#include "fleet/fleet.hpp"
#include "json/json.hpp"
#include "obs/obs.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "stats.hpp"
#include "tracer.hpp"
#include "trace/trace.hpp"
#include "workloads.hpp"

namespace {

using namespace perfbench;
namespace fleet = rabit::fleet;
namespace json = rabit::json;
namespace sim = rabit::sim;
using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

/// The timed loop may overrun --seconds to reach its minimum sample counts,
/// but never past this.
constexpr double kLoopCapSeconds = 120.0;

struct OpOutcome {
  std::size_t input = 0;  ///< index into the workload's input pool
  double ms = 0.0;  ///< program-side wall time of the whole operation
  std::size_t commands = 0;
  std::string signature;  ///< compared against the verified expectation
  std::vector<double> step_us;  ///< session_motion: benchmark-timed steps
  fleet::LatencySummary check_latency;  ///< campaigns: the report's check latencies
};

/// Per-layer samples of the traced run, keyed by metric name.
using LayerSamples = std::map<std::string, std::vector<double>>;

class Workload {
 public:
  virtual ~Workload() = default;
  [[nodiscard]] virtual std::size_t pool_size() const = 0;
  /// Untimed verification pass: the expected signature of input `i`.
  /// Throws when the program's output fails the workload's checks.
  [[nodiscard]] virtual std::string verify(std::size_t i) = 0;
  [[nodiscard]] virtual OpOutcome run(std::size_t i) = 0;
  [[nodiscard]] virtual OpOutcome run_traced(std::size_t i, std::uint64_t op, Tracer& tracer,
                                             LayerSamples& layers) = 0;
  [[nodiscard]] virtual bool campaign() const { return true; }
};

// ---------------------------------------------------------------------------
// Campaign workloads
// ---------------------------------------------------------------------------

std::string campaign_signature(const fleet::CampaignReport& r) {
  std::string s = "checked=";
  s += std::to_string(r.commands_checked);
  s += " shards=";
  s += std::to_string(r.shards);
  s += " coordination=";
  s += std::to_string(r.coordination_events);
  s += " breaches=";
  s += std::to_string(r.certificate_breaches.size());
  s += " alerts:";
  for (const fleet::CampaignAlert& a : r.alerts) {
    s += ' ';
    s += std::to_string(a.stream);
    s += '/';
    s += std::to_string(a.command_index);
    s += '/';
    s += a.alert.rule;
    if (a.cross_stream) s += "/x";
  }
  return s;
}

std::size_t workers() {
  return std::clamp<std::size_t>(std::thread::hardware_concurrency(), 1, 4);
}

/// The program's obs phases of one command, one sample per command.
void add_phases(const rabit::obs::SpanRecord& span, LayerSamples& layers) {
  double phase_us[rabit::obs::kPhaseCount] = {};
  for (const rabit::obs::PhaseSample& p : span.phases) {
    phase_us[static_cast<std::size_t>(p.phase)] += p.wall_us;
  }
  using rabit::obs::Phase;
  layers["core.canonicalize_us"].push_back(phase_us[static_cast<int>(Phase::Canonicalize)]);
  layers["core.precondition_us"].push_back(phase_us[static_cast<int>(Phase::Precondition)]);
  layers["devices.dispatch_us"].push_back(phase_us[static_cast<int>(Phase::Dispatch)]);
  layers["core.postcondition_us"].push_back(phase_us[static_cast<int>(Phase::Postcondition)]);
}

/// Both campaign workloads: a pool of campaigns, each submitted either as a
/// spec (campaign_sharded) or as JSON text (campaign_contended), and run
/// through Fleet::run with min(4, nproc) workers.
class CampaignWorkload : public Workload {
 public:
  CampaignWorkload(std::uint64_t seed, std::size_t pool, bool json_ingest)
      : json_ingest_(json_ingest) {
    for (std::size_t i = 0; i < pool; ++i) {
      std::uint64_t s = mix_seed(seed, 1000 + i);
      if (json_ingest_) {
        texts_.push_back(contended_campaign_json(s));
      } else {
        specs_.push_back(sharded_campaign(s));
      }
    }
    options_.workers = workers();
  }

  [[nodiscard]] std::size_t pool_size() const override {
    return json_ingest_ ? texts_.size() : specs_.size();
  }

  std::string verify(std::size_t i) override {
    fleet::CampaignSpec spec = ingest(i);
    rabit::analysis::ShardPlan plan;
    fleet::CampaignReport sharded = fleet::Fleet::run(spec, options_, &plan);
    fleet::CampaignReport monolithic = fleet::Fleet::run_campaign(spec);
    std::vector<std::string> violations =
        fleet::certificate_violations(plan, monolithic, sharded);
    if (!violations.empty()) throw std::runtime_error("certificate violation: " + violations[0]);
    if (!sharded.certificate_breaches.empty() || sharded.coordination_events != 0) {
      throw std::runtime_error("planner plan left the lock-free path");
    }
    if (sharded.commands_checked != monolithic.commands_checked) {
      throw std::runtime_error("sharded and monolithic runs checked different command counts");
    }
    if (!json_ingest_) {
      std::size_t generated = 0;
      for (const fleet::CampaignStreamSpec& s : spec.streams) generated += s.commands.size();
      if (sharded.commands_checked != generated || !sharded.alerts.empty() ||
          sharded.shards != kShardedGroups) {
        throw std::runtime_error("campaign_sharded expectation failed: " +
                                 campaign_signature(sharded));
      }
    }
    return campaign_signature(sharded);
  }

  OpOutcome run(std::size_t i) override {
    OpOutcome out;
    auto t0 = Clock::now();
    fleet::CampaignReport report;
    if (json_ingest_) {
      report = fleet::Fleet::run(fleet::load_campaign(json::parse(texts_[i])), options_);
    } else {
      report = fleet::Fleet::run(specs_[i], options_);
    }
    out.ms = ms_between(t0, Clock::now());
    fill(out, report);
    return out;
  }

  /// The traced operation makes Fleet::run's public calls itself — resolve
  /// script streams, build the probe lab, plan, run_campaign — so each is a
  /// span; run_campaign repeats the resolve and probe-lab build internally,
  /// exactly as Fleet::run does. After the operation, outside its time, one
  /// full V3 lab is assembled the way fleet builds each shard and solo
  /// replay lab: that span is sim.lab_build_us.
  OpOutcome run_traced(std::size_t i, std::uint64_t op, Tracer& tracer,
                       LayerSamples& layers) override {
    OpOutcome out;
    int root = tracer.begin("campaign", op);
    fleet::CampaignSpec parsed;
    if (json_ingest_) {
      json::Value doc = tracer.span("json.parse", op, [&] { return json::parse(texts_[i]); });
      parsed = tracer.span("fleet.load_campaign", op, [&] { return fleet::load_campaign(doc); });
    }
    const fleet::CampaignSpec& spec = json_ingest_ ? parsed : specs_[i];

    std::vector<rabit::analysis::CampaignStream> planned;
    std::size_t recorded = 0;
    int resolve = tracer.begin("fleet.resolve", op);
    for (const fleet::CampaignStreamSpec& s : spec.streams) {
      if (!s.commands.empty() || s.script.empty()) {
        planned.push_back({s.name, s.commands});
        continue;
      }
      std::optional<sim::LabBackend> staging;
      tracer.span("sim.staging_build", op, [&] {
        staging.emplace(sim::testbed_profile(), spec.seed);
        sim::build_hein_testbed_deck(*staging);
      });
      planned.push_back({s.name, tracer.span("script.record_workflow", op, [&] {
                           return rabit::script::record_workflow(*staging, s.script);
                         })});
      ++recorded;
    }
    tracer.end(resolve);

    std::optional<sim::LabBackend> probe;
    rabit::core::EngineConfig config;
    tracer.span("sim.probe_build", op, [&] {
      probe.emplace(sim::testbed_profile(), spec.seed);
      sim::build_hein_testbed_deck(*probe);
      config = rabit::core::config_from_backend(*probe, spec.variant);
    });
    int probe_span = tracer.last_closed();
    rabit::analysis::ShardPlan plan = tracer.span("analysis.plan_campaign_shards", op, [&] {
      return rabit::analysis::plan_campaign_shards(config, planned);
    });
    int plan_span = tracer.last_closed();
    fleet::ShardedCampaignOptions traced_options = options_;
    traced_options.obs = true;
    fleet::CampaignReport report = tracer.span("fleet.run_campaign", op, [&] {
      return fleet::Fleet::run_campaign(spec, plan, traced_options);
    });
    int run_span = tracer.last_closed();
    tracer.end(root);
    out.ms = tracer.duration_us(root) / 1000.0;
    fill(out, report);
    tracer.span("sim.lab_build", op, [&] { V3Lab lab(spec.seed, 0); });
    layers["sim.lab_build_us"].push_back(tracer.duration_us(tracer.last_closed()));

    std::map<std::string, double> self = tracer.self_since(root);
    auto per_op = [&layers](const char* name, double v) { layers[name].push_back(v); };
    std::set<std::size_t> alerted;
    for (const fleet::CampaignAlert& a : report.alerts) alerted.insert(a.stream);
    double shard_ms = report.wall_s * 1000.0;
    // Derived by subtraction: what run_campaign spends outside the shard
    // phase, less its internal resolve and probe-lab build (timed above).
    per_op("fleet.classify_ms", tracer.duration_us(run_span) / 1000.0 - shard_ms -
                                    tracer.duration_us(resolve) / 1000.0 -
                                    tracer.duration_us(probe_span) / 1000.0);
    per_op("fleet.solo_replays", static_cast<double>(alerted.size()));
    per_op("fleet.labs_built", static_cast<double>(2 + report.shards + alerted.size()));
    per_op("fleet.shard_phase_ms", shard_ms);
    per_op("fleet.shards", static_cast<double>(report.shards));
    per_op("fleet.snapshot_pose_serves", static_cast<double>(report.snapshot_pose_serves));
    per_op("fleet.coordination_events", static_cast<double>(report.coordination_events));
    per_op("fleet.certificate_breaches", static_cast<double>(report.certificate_breaches.size()));
    per_op("fleet.alerts", static_cast<double>(report.alerts.size()));
    per_op("fleet.cross_stream_alerts", static_cast<double>(report.cross_stream_alerts()));
    per_op("analysis.plan_ms", tracer.duration_us(plan_span) / 1000.0);
    per_op("analysis.conflict_edges", static_cast<double>(plan.edges.size()));
    per_op("analysis.certificates", static_cast<double>(plan.certificates.size()));
    if (recorded > 0) {
      per_op("script.record_us", self["script.record_workflow"]);
      per_op("script.streams_recorded", static_cast<double>(recorded));
    }
    if (json_ingest_) {
      per_op("json.parse_us", self["json.parse"]);
      per_op("json.bytes", static_cast<double>(texts_[i].size()));
      per_op("fleet.load_campaign_us", self["fleet.load_campaign"]);
    }
    // Per-shard busy time: the program's per-command phase wall times,
    // grouped by the span's "shard-<k>" stream label.
    std::map<std::string, double> busy_us;
    if (report.obs_events != nullptr) {
      for (const rabit::obs::SpanRecord& span : report.obs_events->spans()) {
        double total = 0.0;
        for (const rabit::obs::PhaseSample& p : span.phases) total += p.wall_us;
        busy_us[span.stream] += total;
        add_phases(span, layers);
      }
    }
    double busy_max = 0.0;
    double busy_sum = 0.0;
    for (const auto& [shard, us] : busy_us) {
      busy_max = std::max(busy_max, us);
      busy_sum += us;
    }
    per_op("fleet.shard_busy_max_ms", busy_max / 1000.0);
    per_op("fleet.shard_busy_mean_ms",
           busy_us.empty() ? 0.0 : busy_sum / static_cast<double>(busy_us.size()) / 1000.0);
    return out;
  }

 private:
  fleet::CampaignSpec ingest(std::size_t i) const {
    return json_ingest_ ? fleet::load_campaign(json::parse(texts_[i])) : specs_[i];
  }

  static void fill(OpOutcome& out, const fleet::CampaignReport& report) {
    out.commands = report.commands_checked;
    out.signature = campaign_signature(report);
    out.check_latency = report.check_latency;
  }

  bool json_ingest_;
  std::vector<fleet::CampaignSpec> specs_;
  std::vector<std::string> texts_;
  fleet::ShardedCampaignOptions options_;
};

// ---------------------------------------------------------------------------
// session_motion
// ---------------------------------------------------------------------------

std::string step_signature(const rabit::trace::SupervisedStep& step) {
  std::string s = step.alert ? step.alert->rule : std::string("-");
  if (step.demoted) s += "/demoted";
  if (step.exec && !step.exec->executed) s += "/not-executed";
  return s + ";";
}

class SessionWorkload : public Workload {
 public:
  SessionWorkload(std::uint64_t seed, std::size_t pool) {
    for (std::size_t i = 0; i < pool; ++i) {
      std::uint64_t s = mix_seed(seed, 2000 + i);
      sessions_.push_back(motion_session(s));
      lab_seeds_.push_back(session_lab_seed(s));
    }
  }

  [[nodiscard]] std::size_t pool_size() const override { return sessions_.size(); }
  [[nodiscard]] bool campaign() const override { return false; }

  std::string verify(std::size_t i) override { return run(i).signature; }

  OpOutcome run(std::size_t i) override {
    OpOutcome out;
    auto t0 = Clock::now();
    V3Lab lab(lab_seeds_[i], kSessionShelfBoxes);
    rabit::trace::Supervisor supervisor(&*lab.engine, &lab.backend, options());
    supervisor.start();
    for (const rabit::dev::Command& cmd : sessions_[i]) {
      auto s0 = Clock::now();
      rabit::trace::SupervisedStep step = supervisor.step(cmd);
      out.step_us.push_back(ms_between(s0, Clock::now()) * 1000.0);
      out.signature += step_signature(step);
    }
    out.ms = ms_between(t0, Clock::now());
    out.commands = sessions_[i].size();
    return out;
  }

  OpOutcome run_traced(std::size_t i, std::uint64_t op, Tracer& tracer,
                       LayerSamples& layers) override {
    OpOutcome out;
    int root = tracer.begin("session", op);
    std::optional<V3Lab> lab;
    tracer.span("sim.lab_build", op, [&] { lab.emplace(lab_seeds_[i], kSessionShelfBoxes); });
    int lab_span = tracer.last_closed();
    rabit::obs::Collector events;
    rabit::obs::Registry metrics;
    rabit::trace::Supervisor::Options traced = options();
    traced.obs_sink = &events;
    traced.obs_metrics = &metrics;
    rabit::trace::Supervisor supervisor(&*lab->engine, &lab->backend, traced);
    tracer.span("trace.Supervisor.start", op, [&] { supervisor.start(); });
    std::size_t demotions = 0;
    for (const rabit::dev::Command& cmd : sessions_[i]) {
      int id = tracer.begin("trace.Supervisor.step", op);
      rabit::trace::SupervisedStep step = supervisor.step(cmd);
      tracer.end(id);
      out.step_us.push_back(tracer.duration_us(id));
      out.signature += step_signature(step);
      if (step.demoted) ++demotions;
    }
    tracer.end(root);
    out.ms = tracer.duration_us(root) / 1000.0;
    out.commands = sessions_[i].size();

    // Supervisor::step emits exactly one obs span per call, in call order.
    const std::vector<rabit::obs::SpanRecord>& spans = events.spans();
    for (std::size_t k = 0; k < spans.size() && k < out.step_us.size(); ++k) {
      add_phases(spans[k], layers);
      double phases = 0.0;
      for (const rabit::obs::PhaseSample& p : spans[k].phases) phases += p.wall_us;
      layers["trace.step_self_us"].push_back(out.step_us[k] - phases);
    }
    layers["sim.lab_build_us"].push_back(tracer.duration_us(lab_span));
    const sim::ExtendedSimulator& simulator = *lab->simulator;
    layers["sim.trajectory_checks"].push_back(static_cast<double>(simulator.checks_performed()));
    layers["sim.verdict_cache_hits"].push_back(static_cast<double>(simulator.verdict_cache_hits()));
    layers["sim.narrow_phase_runs"].push_back(static_cast<double>(simulator.narrow_phase_runs()));
    layers["sim.margin_scans"].push_back(static_cast<double>(simulator.margin_scans()));
    layers["assurance.demotions"].push_back(static_cast<double>(demotions));
    return out;
  }

 private:
  static rabit::trace::Supervisor::Options options() {
    rabit::trace::Supervisor::Options o;
    o.halt_on_alert = false;
    o.assurance = rabit::assurance::AssuranceConfig{};
    return o;
  }

  std::vector<std::vector<rabit::dev::Command>> sessions_;
  std::vector<unsigned> lab_seeds_;
};

// ---------------------------------------------------------------------------
// Reporting
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::string basis;  ///< sample count, ratio base, or how it was derived
};

std::string fmt(const char* format, double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), format, v);
  return buf;
}

/// The CPUs this process may run on, ascending; empty if unknown.
std::vector<int> allowed_cpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  std::vector<int> cpus;
  if (sched_getaffinity(0, sizeof(set), &set) != 0) return cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &set)) cpus.push_back(c);
  }
  return cpus;
}

/// Restricts the calling thread to `cpus`. Best effort: work that ran
/// unpinned is still valid work.
void pin_to(const std::vector<int>& cpus) {
  cpu_set_t set;
  CPU_ZERO(&set);
  for (int c : cpus) CPU_SET(c, &set);
  sched_setaffinity(0, sizeof(set), &set);
}

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

bool catalogue_gate() {
  using rabit::core::Variant;
  constexpr Variant kVariants[] = {Variant::Initial, Variant::Modified, Variant::ModifiedWithSim};
  constexpr std::size_t kExpected[] = {8, 12, 13};
  std::size_t detected[3] = {0, 0, 0};
  for (const rabit::bugs::BugSpec& bug : rabit::bugs::bug_catalogue()) {
    for (std::size_t v = 0; v < 3; ++v) {
      if (rabit::bugs::evaluate_bug(bug, kVariants[v]).detected) ++detected[v];
    }
  }
  std::printf("catalogue: V1=%zu V2=%zu V3=%zu detected (expected 8/12/13)\n", detected[0],
              detected[1], detected[2]);
  return std::equal(std::begin(detected), std::end(detected), std::begin(kExpected));
}

struct LayerSpec {
  const char* name;
  const char* unit;
  enum Agg { MedianPerOp, MeanPerOp, MeanPerCommand, MedianPerBuild } agg;
  const char* note;  ///< printed beside the value; "derived" marks subtraction
};

// The per-layer ledger, in BENCHMARK.json order. ledger.json maps each to the
// end-to-end metric and workload it should move.
constexpr LayerSpec kLayers[] = {
    {"fleet.classify_ms", "ms", LayerSpec::MedianPerOp,
     "derived: run_campaign - shard phase - resolve - probe lab"},
    {"fleet.solo_replays", "count", LayerSpec::MeanPerOp, "distinct alerted streams"},
    {"fleet.labs_built", "count", LayerSpec::MeanPerOp, "derived: 2 probe + shards + solo"},
    {"sim.lab_build_us", "us", LayerSpec::MedianPerBuild, "full V3 lab assembly"},
    {"fleet.shard_phase_ms", "ms", LayerSpec::MedianPerOp, "CampaignReport::wall_s"},
    {"fleet.shard_busy_max_ms", "ms", LayerSpec::MedianPerOp, "obs phases by shard-<k>"},
    {"fleet.shard_busy_mean_ms", "ms", LayerSpec::MedianPerOp, "obs phases by shard-<k>"},
    {"fleet.shards", "count", LayerSpec::MeanPerOp, ""},
    {"fleet.snapshot_pose_serves", "count", LayerSpec::MeanPerOp, ""},
    {"fleet.coordination_events", "count", LayerSpec::MeanPerOp, ""},
    {"fleet.certificate_breaches", "count", LayerSpec::MeanPerOp, ""},
    {"fleet.alerts", "count", LayerSpec::MeanPerOp, ""},
    {"fleet.cross_stream_alerts", "count", LayerSpec::MeanPerOp, ""},
    {"analysis.plan_ms", "ms", LayerSpec::MedianPerOp, ""},
    {"analysis.conflict_edges", "count", LayerSpec::MeanPerOp, ""},
    {"analysis.certificates", "count", LayerSpec::MeanPerOp, ""},
    {"script.record_us", "us", LayerSpec::MedianPerOp, "summed over script streams"},
    {"script.streams_recorded", "count", LayerSpec::MeanPerOp, ""},
    {"json.parse_us", "us", LayerSpec::MedianPerOp, ""},
    {"json.bytes", "bytes", LayerSpec::MeanPerOp, ""},
    {"fleet.load_campaign_us", "us", LayerSpec::MedianPerOp, ""},
    {"core.canonicalize_us", "us", LayerSpec::MeanPerCommand, "obs phase"},
    {"core.precondition_us", "us", LayerSpec::MeanPerCommand,
     "obs phase; includes the V3 sweep"},
    {"devices.dispatch_us", "us", LayerSpec::MeanPerCommand, "obs phase"},
    {"core.postcondition_us", "us", LayerSpec::MeanPerCommand, "obs phase"},
    {"trace.step_self_us", "us", LayerSpec::MeanPerCommand,
     "derived: timed step - obs phases"},
    {"sim.trajectory_checks", "count", LayerSpec::MeanPerOp, "simulator sweeps charged"},
    {"sim.narrow_phase_runs", "count", LayerSpec::MeanPerOp, ""},
    {"sim.margin_scans", "count", LayerSpec::MeanPerOp, ""},
    {"assurance.demotions", "count", LayerSpec::MeanPerOp, ""},
};

std::vector<Metric> layer_metrics(const LayerSamples& layers, double traced_ms,
                                  double untraced_ms, std::size_t traced_ops,
                                  std::size_t untraced_ops) {
  std::vector<Metric> out;
  for (const LayerSpec& spec : kLayers) {
    Metric m{spec.name, 0.0, spec.unit, "idle on this workload"};
    auto it = layers.find(spec.name);
    if (it != layers.end() && !it->second.empty()) {
      const std::vector<double>& v = it->second;
      std::string n = std::to_string(v.size());
      switch (spec.agg) {
        case LayerSpec::MedianPerOp:
          m.value = median(v);
          m.basis = "median of " + n + " traced ops";
          break;
        case LayerSpec::MeanPerOp:
          m.value = mean(v);
          m.basis = "mean per op over " + n + " traced ops";
          break;
        case LayerSpec::MeanPerCommand:
          m.value = mean(v);
          m.basis = "mean over " + n + " commands";
          break;
        case LayerSpec::MedianPerBuild:
          m.value = median(v);
          m.basis = "median of " + n + " lab builds";
          break;
      }
      if (spec.note[0] != '\0') m.basis += "; " + std::string(spec.note);
    }
    out.push_back(std::move(m));
    if (std::strcmp(spec.name, "sim.trajectory_checks") == 0) {
      Ratio hits;
      if (auto h = layers.find("sim.verdict_cache_hits"); h != layers.end()) {
        for (double x : h->second) hits.numerator += x;
      }
      if (it != layers.end()) {
        for (double x : it->second) hits.base += x;
      }
      out.push_back({"sim.verdict_cache_hit_ratio", hits.value(), "ratio",
                     "verdict-cache hits / trajectory checks = " + hits.describe()});
    }
  }
  double pct = untraced_ms > 0.0 ? (traced_ms - untraced_ms) / untraced_ms * 100.0 : 0.0;
  out.push_back({"obs.tracing_overhead_pct", pct, "%",
                 "median traced op " + fmt("%.3f", traced_ms) + " ms (n=" +
                     std::to_string(traced_ops) + ") vs untraced " + fmt("%.3f", untraced_ms) +
                     " ms (n=" + std::to_string(untraced_ops) + ")"});
  return out;
}

/// The timing metrics of one window of consecutive timed operations.
struct Window {
  Percentile op50, op90, step50, step99;
  double commands_per_s = 0.0;
  std::size_t commands = 0;
  double seconds = 0.0;
};

Window measure_window(const std::vector<OpOutcome>& ops, bool campaign) {
  Window w;
  std::vector<double> op_ms, step_us;
  std::map<std::size_t, std::vector<double>> check50, check99;  // by input
  std::size_t min_checks = ops.empty() ? 0 : ~std::size_t{0};
  for (const OpOutcome& op : ops) {
    op_ms.push_back(op.ms);
    w.seconds += op.ms / 1000.0;
    w.commands += op.commands;
    step_us.insert(step_us.end(), op.step_us.begin(), op.step_us.end());
    check50[op.input].push_back(op.check_latency.p50_us);
    check99[op.input].push_back(op.check_latency.p99_us);
    min_checks = std::min(min_checks, op.check_latency.samples);
  }
  w.op50 = percentile(op_ms, 0.50);
  w.op90 = percentile(op_ms, 0.90);
  w.commands_per_s = w.seconds > 0.0 ? static_cast<double>(w.commands) / w.seconds : 0.0;
  if (campaign) {
    // Per-command check latency as each CampaignReport records it
    // (thread-CPU time), each percentile over at least `min_checks` checks.
    // Repeats of one campaign differ up to twofold on a shared machine, so
    // each input contributes the median of its repeats; the inputs' tails
    // differ by design, so those medians are averaged. The run reports this
    // over all its windows, for the most repeats per input.
    auto per_input = [](const std::map<std::size_t, std::vector<double>>& by_input) {
      std::vector<double> medians;
      for (const auto& [input, values] : by_input) medians.push_back(median(values));
      return mean(medians);
    };
    w.step50 = {per_input(check50), min_checks, samples_beyond(min_checks, 0.50),
                samples_beyond(min_checks, 0.50) >= kMinTail};
    w.step99 = {per_input(check99), min_checks, samples_beyond(min_checks, 0.99),
                samples_beyond(min_checks, 0.99) >= kMinTail};
  } else {
    w.step50 = percentile(step_us, 0.50);
    w.step99 = percentile(step_us, 0.99);
  }
  return w;
}

/// Machines shared with other tenants slow down for seconds at a time. The
/// timed operations are cut into consecutive windows of `window_ops`
/// operations, each a whole number of passes over the input pool so every
/// window sees the same input mix, and each metric reports its best window
/// (lowest time, highest rate): one noisy stretch does not move the run's
/// figure. A trailing partial window is not reported. On campaigns the step
/// metrics come from `all`, every window's operations measured together.
std::vector<Metric> end_to_end_metrics(const std::vector<Window>& w, const Window& all,
                                       std::size_t window_ops, bool campaign, bool* reportable) {
  *reportable = !w.empty();
  for (const Window& x : w) {
    *reportable = *reportable && x.op50.reportable && x.op90.reportable &&
                  x.step50.reportable && x.step99.reportable;
  }
  auto best = [&w](auto key, bool highest) {
    std::size_t b = 0;
    for (std::size_t k = 1; k < w.size(); ++k) {
      if (highest ? key(w[k]) > key(w[b]) : key(w[k]) < key(w[b])) b = k;
    }
    return b;
  };
  std::string of = " (best of " + std::to_string(w.size()) + " windows of " +
                   std::to_string(window_ops) + " ops)";
  auto pct_metric = [&](const char* name, const char* unit, auto get, const char* what) {
    if (w.empty()) return Metric{name, 0.0, unit, "no samples"};
    const Percentile& p = get(w[best([&](const Window& x) { return get(x).value; }, false)]);
    return Metric{name, p.value, unit,
                  "n=" + std::to_string(p.samples) + " " + what + ", " +
                      std::to_string(p.beyond) + " beyond" + of};
  };
  std::vector<Metric> out;
  out.push_back(pct_metric("campaign_ms_p50", "ms", [](const Window& x) -> const Percentile& {
    return x.op50;
  }, "ops"));
  out.push_back(pct_metric("campaign_ms_p90", "ms", [](const Window& x) -> const Percentile& {
    return x.op90;
  }, "ops"));
  if (!w.empty()) {
    const Window& b = w[best([](const Window& x) { return x.commands_per_s; }, true)];
    out.push_back({"commands_per_s", b.commands_per_s, "1/s",
                   std::to_string(b.commands) + " commands / " + fmt("%.3f", b.seconds) +
                       " s of timed ops" + of});
  } else {
    out.push_back({"commands_per_s", 0.0, "1/s", "no samples"});
  }
  auto step_metric = [&](const char* name, auto get) {
    if (!campaign) return pct_metric(name, "us", get, "steps");
    const Percentile& p = get(all);
    return Metric{name, p.value, "us",
                  "n>=" + std::to_string(p.samples) + " checks per campaign, " +
                      std::to_string(p.beyond) + " beyond; each input's median over " +
                      std::to_string(w.size()) + " windows of " + std::to_string(window_ops) +
                      " ops, mean over inputs"};
  };
  out.push_back(step_metric("step_us_p50", [](const Window& x) -> const Percentile& {
    return x.step50;
  }));
  out.push_back(step_metric("step_us_p99", [](const Window& x) -> const Percentile& {
    return x.step99;
  }));
  return out;
}

void print_result(bool correct, std::size_t attempted, std::size_t failed,
                  const std::vector<Metric>& metrics) {
  for (const Metric& m : metrics) {
    std::printf("  %-30s %14.4f %-6s %s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.basis.c_str());
  }
  std::string line = "{\"correct\": " + std::string(correct ? "true" : "false") +
                     ", \"attempted\": " + std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) + ", \"metrics\": {";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    if (i > 0) line += ", ";
    line += "\"" + metrics[i].name + "\": {\"value\": " + fmt("%.17g", metrics[i].value) +
            ", \"unit\": \"" + metrics[i].unit + "\"}";
  }
  line += "}}";
  std::printf("%s\n", line.c_str());
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string trace_out;
  bool setup_only = false;
};

int usage() {
  std::fprintf(stderr,
               "usage: perfbench --workload <campaign_sharded|campaign_contended|"
               "session_motion> --seed <n> --seconds <s> --trace <0|1> [--trace-out <file>]\n"
               "       perfbench --workload <w> --seed <n> --setup-only 1\n");
  return 2;
}

int run(const Args& args) {
  std::unique_ptr<Workload> workload;
  // The loop runs at least --seconds and at least this many windows; ~120 ms
  // contended campaigns fill about one window per 18 s, so a best-of-two
  // there needs the minimum.
  std::size_t min_windows = 1;
  // The set-up pass covers the first `setup_inputs` inputs. Contended
  // campaigns' check-latency tails differ widely, so that workload draws a
  // larger pool to keep the seed's pool mean steady, but its set-up stays
  // as short as the others'.
  std::size_t setup_inputs = 16;
  if (args.workload == "campaign_sharded") {
    workload = std::make_unique<CampaignWorkload>(args.seed, 16, false);
  } else if (args.workload == "campaign_contended") {
    workload = std::make_unique<CampaignWorkload>(args.seed, 48, true);
    min_windows = 2;
  } else if (args.workload == "session_motion") {
    workload = std::make_unique<SessionWorkload>(args.seed, 64);
    setup_inputs = 64;
  } else {
    return usage();
  }

  if (!catalogue_gate()) {
    std::fprintf(stderr, "perfbench: detection progression diverged from 8/12/13; refusing\n");
    return 1;
  }

  const bool campaign = workload->campaign();
  // On a shared machine one vCPU can run this program 1.6x slower than
  // another for tens of seconds, and a single-threaded session would
  // otherwise stay on whichever vCPU the process landed on. So session work
  // that is measured rotates over the allowed CPUs: each set-up operation,
  // and each window of the untraced loop, runs pinned to the next one.
  // Campaigns are left unpinned: Fleet's worker threads would inherit the pin.
  const std::vector<int> rotate_cpus = campaign ? std::vector<int>{} : allowed_cpus();

  // Set-up: the cold first pass of the process over the first inputs. Only
  // program-side time counts, one-time initialisation included.
  double setup_s = 0.0;
  for (std::size_t i = 0; i < setup_inputs; ++i) {
    if (!rotate_cpus.empty()) pin_to({rotate_cpus[i % rotate_cpus.size()]});
    setup_s += workload->run(i).ms / 1000.0;
  }
  if (!rotate_cpus.empty()) pin_to(rotate_cpus);
  if (args.setup_only) {
    std::printf("{\"setup_s\": %.17g}\n", setup_s);
    return 0;
  }

  std::vector<std::string> expected;
  for (std::size_t i = 0; i < workload->pool_size(); ++i) {
    try {
      expected.push_back(workload->verify(i));
    } catch (const std::exception& e) {
      std::fprintf(stderr, "perfbench: verification of input %zu failed: %s\n", i, e.what());
      return 1;
    }
  }

  // Whole passes over the pool, enough operations for a p90 with kMinTail
  // beyond (session windows hold >= 100 x ~100 steps, plenty for p99).
  const std::size_t pool = workload->pool_size();
  const std::size_t window_ops = pool * ((min_samples_for(0.90) + pool - 1) / pool);

  Tracer tracer;
  LayerSamples layers;
  std::vector<OpOutcome> current;  // the window being filled
  std::vector<Window> windows;
  std::vector<OpOutcome> windowed;  // campaigns: every complete window's operations
  std::vector<double> untraced_ms, traced_ms;
  std::size_t attempted = 0;
  std::size_t failed = 0;
  auto start = Clock::now();
  for (std::uint64_t n = 0;; ++n) {
    double elapsed = ms_between(start, Clock::now()) / 1000.0;
    // The traced run alternates whole passes over the pool, so every input
    // runs both traced and untraced, and stops only after an untraced pass.
    bool enough = args.trace ? n % (2 * pool) == 0 &&
                                   std::min(untraced_ms.size(), traced_ms.size()) >= 2 * kMinTail
                             : windows.size() >= min_windows;
    if ((elapsed >= args.seconds && enough) || elapsed >= kLoopCapSeconds) break;
    std::size_t input = n % pool;
    bool traced = args.trace && (n / pool) % 2 == 0;
    if (!rotate_cpus.empty() && !args.trace && current.empty()) {
      pin_to({rotate_cpus[windows.size() % rotate_cpus.size()]});
    }
    ++attempted;
    try {
      OpOutcome out = traced ? workload->run_traced(input, n, tracer, layers)
                             : workload->run(input);
      if (out.signature != expected[input]) {
        ++failed;
        std::fprintf(stderr, "perfbench: op %llu (input %zu) output differs from verification\n",
                     static_cast<unsigned long long>(n), input);
        continue;
      }
      (traced ? traced_ms : untraced_ms).push_back(out.ms);
      if (args.trace) continue;
      out.input = input;
      out.signature.clear();
      current.push_back(std::move(out));
      if (current.size() == window_ops) {
        windows.push_back(measure_window(current, campaign));
        if (campaign) windowed.insert(windowed.end(), current.begin(), current.end());
        current.clear();
      }
    } catch (const std::exception& e) {
      ++failed;
      tracer.close_all();
      std::fprintf(stderr, "perfbench: op %llu threw: %s\n", static_cast<unsigned long long>(n),
                   e.what());
    }
  }

  std::printf("workload %s seed %llu: %zu ops attempted, %zu failed (error_rate %.4f)\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), attempted,
              failed, attempted > 0 ? static_cast<double>(failed) / attempted : 0.0);

  std::vector<Metric> metrics;
  bool reportable = true;
  if (args.trace) {
    metrics = layer_metrics(layers, median(traced_ms), median(untraced_ms), traced_ms.size(),
                            untraced_ms.size());
    if (!args.trace_out.empty()) {
      std::ofstream out(args.trace_out);
      out << tracer.to_jsonl();
      if (!out) std::fprintf(stderr, "perfbench: cannot write %s\n", args.trace_out.c_str());
    }
  } else {
    metrics = end_to_end_metrics(windows, measure_window(windowed, campaign), window_ops,
                                 campaign, &reportable);
    metrics.push_back({"setup_s", setup_s, "s",
                       "cold first pass over " + std::to_string(setup_inputs) + " of " +
                           std::to_string(pool) + " inputs"});
    metrics.push_back({"rss_mb", peak_rss_mb(), "MB", "peak resident set"});
  }
  if (!reportable) std::fprintf(stderr, "perfbench: too few samples for a percentile\n");
  print_result(failed == 0 && reportable, attempted, failed, metrics);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; ++i) {
    std::string flag = argv[i];
    if (i + 1 >= argc) return usage();
    std::string value = argv[++i];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--trace-out") {
      args.trace_out = value;
    } else if (flag == "--setup-only") {
      args.setup_only = value == "1";
    } else {
      return usage();
    }
  }
  try {
    return run(args);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 1;
  }
}
