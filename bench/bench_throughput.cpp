// Fleet-scale throughput. The paper runs RABIT on a single experiment
// stream; the ROADMAP north-star is a middleware that validates many
// concurrent streams. This harness measures the single-stream *real* CPU
// cost of the checks — not the modeled 0.03 s / 2 s environment constants —
// on the sparse testbed world and on a dense lab world, then the sharded
// campaign path (src/fleet): a 64-stream / 8-group V3 campaign at several
// worker counts, reporting commands/s, p99/p999 real check latency and
// per-worker scaling efficiency.
//
// Modes:
//   (default)            single-stream cost + sharded worker sweep (1, 2, 4
//                        workers) + 64-stream shard smoke + google-benchmark
//                        section, writes BENCH_throughput.json
//   --smoke              quick run (for the TSan CI job): single-stream
//                        cost, the 1- and 4-worker sweep and the shard
//                        smoke; still writes BENCH_throughput.json
//   --shard-smoke        plan-driven sharded campaigns: 16 streams / 4
//                        station groups (V2) and 64 streams / 8 groups (V3,
//                        with a live-motion shard feeding the epoch-versioned
//                        pose board). Builds the static shard plan, verifies
//                        it, runs it across a worker pool with the validation
//                        oracle on, and exits 1 unless the plans split into
//                        exactly 4 and 8 shards, the oracle stays silent, the
//                        certificate monitor records no envelope breach, no
//                        coordination event fires, and (Release, unsanitized)
//                        the worst check latency stays under 1 ms
//   --baseline <path>    perf-regression gate: compares this run's sharded
//                        sweep scaling efficiency against a previously
//                        written BENCH_throughput.json; exits 1 on a >20%
//                        regression (skipped when the CPU counts differ)
//   --verify-catalogue   runs all 16 catalogue bugs x 3 variants once; exits
//                        1 unless every bug is detected exactly from its
//                        documented variant (BugSpec::detected_from) on and
//                        the totals are the paper's 8/12/13
//   --obs-out <dir>      enables per-shard observability on the largest
//                        sweep row and writes the merged events.jsonl,
//                        trace.json (Chrome trace / Perfetto) and
//                        metrics.prom to <dir>
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <sstream>
#include <vector>

#include <unistd.h>

#include "analysis/shard_plan.hpp"
#include "bench_common.hpp"
#include "devices/stations.hpp"
#include "fleet/fleet.hpp"
#include "json/json.hpp"
#include "obs/obs.hpp"
#include "sim/deck.hpp"

// Timing-based gates (tail latency, scaling) only bind on an optimized,
// unsanitized build; Debug or sanitizer instrumentation inflates check cost
// by an order of magnitude and would gate on the instrumentation instead.
#if defined(NDEBUG) && !defined(__SANITIZE_ADDRESS__) && !defined(__SANITIZE_THREAD__)
#if defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define RABIT_BENCH_TIMING_GATES 0
#else
#define RABIT_BENCH_TIMING_GATES 1
#endif
#else
#define RABIT_BENCH_TIMING_GATES 1
#endif
#else
#define RABIT_BENCH_TIMING_GATES 0
#endif

namespace {

using namespace rabit;
using namespace rabit::bench;

/// The worst per-command check latency the sharded hot path may exhibit on
/// the smoke workload (Release, unsanitized). Latencies are thread-CPU time
/// (obs::thread_cpu_now_us), so scheduler preemption on an oversubscribed
/// box cannot push a check past the gate.
constexpr double kTailGateUs = 1000.0;

/// Shelf boxes in the dense lab world (sim::add_shelf_rack).
constexpr std::size_t kDenseShelfBoxes = 400;

std::size_t cpus_online() {
  long n = sysconf(_SC_NPROCESSORS_ONLN);
  return n > 0 ? static_cast<std::size_t>(n) : 1;
}

// --- single-stream real check cost ------------------------------------------

struct CheckCost {
  double us_per_cmd = 0.0;
  std::size_t commands = 0;
  int iterations = 0;
};

/// The Fig. 5 safe workflow, recorded against a pristine seed-42 testbed.
std::vector<dev::Command> testbed_workflow() {
  sim::LabBackend staging(sim::testbed_profile(), 42);
  sim::build_hein_testbed_deck(staging);
  return script::record_workflow(staging, script::testbed_workflow_source());
}

/// One supervised V3 run of `commands` on a fresh seed-42 testbed lab whose
/// simulator world carries `shelf_boxes` extra shelf boxes.
trace::RunReport run_single_stream(const std::vector<dev::Command>& commands,
                                   std::size_t shelf_boxes) {
  core::Lab lab(core::Variant::ModifiedWithSim, 42);
  sim::add_shelf_rack(lab.simulator->world(), shelf_boxes);
  trace::Supervisor supervisor(&lab.engine, &lab.backend);
  return supervisor.run(commands);
}

CheckCost measure_check_cost(const std::vector<dev::Command>& commands, std::size_t shelf_boxes,
                             int min_iters, double min_seconds) {
  CheckCost cost;
  double total_us = 0.0;
  auto t0 = std::chrono::steady_clock::now();
  for (int i = 0; i < 1000; ++i) {
    trace::RunReport r = run_single_stream(commands, shelf_boxes);
    total_us += r.check_cpu_s * 1e6;
    cost.commands += r.steps.size();
    ++cost.iterations;
    double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
    if (cost.iterations >= min_iters && elapsed >= min_seconds) break;
  }
  if (cost.commands > 0) cost.us_per_cmd = total_us / static_cast<double>(cost.commands);
  return cost;
}

// --- plan-driven sharded campaigns -------------------------------------------

/// `streams` command streams across `groups` single-device groups. Groups
/// 0..6 each contend on one station (the six stock testbed stations plus,
/// past group 5, a Berlinguette-style spin coater the custom deck registers);
/// group 7 is the viperx motion group — under V3 its go_home/go_sleep cycles
/// give the epoch-versioned pose board a live writer while every station
/// shard checks lock-free. Across groups nothing is shared and only the
/// motion group carries envelopes, so the planner must certify exactly
/// `groups` shards.
fleet::CampaignSpec make_sharded_campaign(std::size_t streams, std::size_t groups,
                                          core::Variant variant) {
  fleet::CampaignSpec spec;
  spec.variant = variant;
  spec.seed = 77;
  spec.halt_on_alert = false;
  if (groups > 6) {
    spec.deck = [](sim::LabBackend& backend) {
      sim::build_hein_testbed_deck(backend);
      backend.registry().add(std::make_unique<dev::GenericActionDevice>(
          "spin_coater",
          std::vector<dev::GenericActionDevice::ValueActionSpec>{
              {"set_spin_speed", "spinSpeed", "rpm", 8000.0}},
          /*has_door=*/false, std::nullopt));
    };
  }
  for (std::size_t i = 0; i < streams; ++i) {
    fleet::CampaignStreamSpec stream;
    char buf[32];
    std::snprintf(buf, sizeof(buf), "stream-%02zu", i);
    stream.name = buf;
    auto push = [&stream](const char* device, const char* action, json::Object args = {}) {
      dev::Command command;
      command.device = device;
      command.action = action;
      command.args = std::move(args);
      stream.commands.push_back(std::move(command));
    };
    auto num = [i](double base, double step) {
      return base + step * static_cast<double>(i % 16);
    };
    json::Object args;
    switch (i % groups) {
      case 0:
        args["celsius"] = num(40.0, 1.0);
        push("hotplate", "set_temperature", std::move(args));
        push("hotplate", "stop");
        args = {};
        args["celsius"] = num(35.0, 1.0);
        push("hotplate", "set_temperature", std::move(args));
        push("hotplate", "stop");
        break;
      case 1:
        args["celsius"] = num(30.0, 1.0);
        push("thermoshaker", "set_temperature", std::move(args));
        push("thermoshaker", "stop");
        args = {};
        args["celsius"] = num(25.0, 1.0);
        push("thermoshaker", "set_temperature", std::move(args));
        push("thermoshaker", "stop");
        break;
      case 2:
        args["state"] = std::string("open");
        push("centrifuge", "set_door", std::move(args));
        args = {};
        args["state"] = std::string("closed");
        push("centrifuge", "set_door", std::move(args));
        args = {};
        args["state"] = std::string("open");
        push("centrifuge", "set_door", std::move(args));
        args = {};
        args["state"] = std::string("closed");
        push("centrifuge", "set_door", std::move(args));
        break;
      case 3:
        for (int rep = 0; rep < 4; ++rep) {
          args = {};
          args["volume"] = 0.05 + 0.01 * static_cast<double>(i % 8);
          push("syringe_pump", "draw_solvent", std::move(args));
        }
        break;
      case 4:
        args["state"] = std::string("open");
        push("dosing_device", "set_door", std::move(args));
        args = {};
        args["state"] = std::string("closed");
        push("dosing_device", "set_door", std::move(args));
        args = {};
        args["state"] = std::string("open");
        push("dosing_device", "set_door", std::move(args));
        args = {};
        args["state"] = std::string("closed");
        push("dosing_device", "set_door", std::move(args));
        break;
      case 5:
        push("camera", "start");
        push("camera", "stop");
        push("camera", "start");
        push("camera", "stop");
        break;
      case 6:
        args["rpm"] = num(500.0, 100.0);
        push("spin_coater", "set_spin_speed", std::move(args));
        push("spin_coater", "start");
        push("spin_coater", "stop");
        args = {};
        args["rpm"] = num(300.0, 50.0);
        push("spin_coater", "set_spin_speed", std::move(args));
        break;
      default:
        push("viperx", "go_home");
        push("viperx", "go_sleep");
        push("viperx", "go_home");
        push("viperx", "go_sleep");
        break;
    }
    spec.streams.push_back(std::move(stream));
  }
  return spec;
}

struct ShardSmoke {
  std::size_t streams = 0;
  std::size_t groups = 0;
  std::size_t shards = 0;
  std::size_t certificates = 0;
  std::size_t commands_checked = 0;
  std::size_t oracle_violations = 0;
  std::size_t static_violations = 0;
  std::size_t certificate_breaches = 0;
  std::size_t coordination_events = 0;
  std::size_t snapshot_pose_serves = 0;
  fleet::LatencySummary check_latency;
  double wall_s = 0.0;
  double commands_per_s = 0.0;
  bool tail_gated = false;  ///< the <1 ms worst-check gate was enforced
  bool ok = false;
};

ShardSmoke run_shard_smoke(std::size_t streams, std::size_t groups, core::Variant variant,
                           std::size_t workers, bool gate_tail) {
  fleet::CampaignSpec spec = make_sharded_campaign(streams, groups, variant);

  sim::LabBackend backend(sim::testbed_profile(), spec.seed);
  if (spec.deck) {
    spec.deck(backend);
  } else {
    sim::build_hein_testbed_deck(backend);
  }
  core::EngineConfig config = core::config_from_backend(backend, spec.variant);

  std::vector<analysis::StreamSummary> summaries;
  summaries.reserve(spec.streams.size());
  for (const fleet::CampaignStreamSpec& s : spec.streams) {
    summaries.push_back(analysis::summarize_stream(config, s.name, s.commands, {}, nullptr));
  }
  analysis::ShardPlan plan = analysis::plan_shards(config, summaries);

  ShardSmoke result;
  result.streams = streams;
  result.groups = groups;
  result.shards = plan.shards.size();
  result.certificates = plan.certificates.size();
  result.static_violations = analysis::verify_plan(config, summaries, plan).size();

  fleet::ShardedCampaignOptions options;
  options.workers = workers;
  options.validate_certificates = true;
  fleet::CampaignReport report = fleet::Fleet::run_campaign(spec, plan, options);
  result.wall_s = report.wall_s;
  result.commands_checked = report.commands_checked;
  result.commands_per_s = report.commands_per_s;
  result.oracle_violations = report.oracle_violations.size();
  result.certificate_breaches = report.certificate_breaches.size();
  result.coordination_events = report.coordination_events;
  result.snapshot_pose_serves = report.snapshot_pose_serves;
  result.check_latency = report.check_latency;
  for (const std::string& v : report.oracle_violations) {
    std::printf("ORACLE VIOLATION: %s\n", v.c_str());
  }
  for (const std::string& v : report.certificate_breaches) {
    std::printf("ENVELOPE BREACH: %s\n", v.c_str());
  }
  result.ok = result.shards == groups && result.oracle_violations == 0 &&
              result.static_violations == 0 && result.certificate_breaches == 0 &&
              result.coordination_events == 0 && report.shards == plan.shards.size();
  result.tail_gated = gate_tail && RABIT_BENCH_TIMING_GATES != 0;
  if (result.tail_gated && result.check_latency.max_us >= kTailGateUs) {
    std::printf("TAIL GATE: worst check %.1f us >= %.0f us\n", result.check_latency.max_us,
                kTailGateUs);
    result.ok = false;
  }
  return result;
}

void print_shard_smoke(const ShardSmoke& smoke, const char* variant_name) {
  std::printf("plan-driven sharded campaign (%zu streams, %zu groups, %s):\n", smoke.streams,
              smoke.groups, variant_name);
  std::printf("  %-24s %zu\n", "shards", smoke.shards);
  std::printf("  %-24s %zu\n", "certificates", smoke.certificates);
  std::printf("  %-24s %zu\n", "commands checked", smoke.commands_checked);
  std::printf("  %-24s %.0f\n", "commands/s", smoke.commands_per_s);
  std::printf("  %-24s %zu\n", "snapshot pose serves", smoke.snapshot_pose_serves);
  std::printf("  %-24s %zu\n", "coordination events", smoke.coordination_events);
  std::printf("  %-24s %zu\n", "envelope breaches", smoke.certificate_breaches);
  std::printf("  %-24s %zu\n", "static violations", smoke.static_violations);
  std::printf("  %-24s %zu\n", "oracle violations", smoke.oracle_violations);
  std::printf("  %-24s p50 %.1f  p99 %.1f  p999 %.1f  max %.1f%s\n", "check latency (us)",
              smoke.check_latency.p50_us, smoke.check_latency.p99_us,
              smoke.check_latency.p999_us, smoke.check_latency.max_us,
              smoke.tail_gated ? "  (gated < 1 ms)" : "");
  std::printf("  %-24s %s\n\n", "verdict", smoke.ok ? "PASS" : "FAIL");
}

// --- sharded execution worker sweep ------------------------------------------

struct ShardSweepRow {
  std::size_t workers = 0;
  std::size_t shards = 0;
  double scaling_efficiency = 0.0;  ///< (cps / cps_1worker) / workers
  fleet::CampaignReport report;
};

/// The sharded hot path through the *default* entry (Fleet::run plans and
/// executes) at increasing worker counts, on the same 64-stream/8-group V3
/// campaign the smoke gates. Efficiency is relative to the sweep's own
/// 1-worker row, so the number is meaningful on any machine. With
/// `observe_last`, the last (largest) row runs with per-shard observability;
/// the other rows stay unobserved so their throughput compares with earlier
/// runs.
std::vector<ShardSweepRow> run_sharded_sweep(std::size_t streams, std::size_t groups,
                                             const std::vector<std::size_t>& workers_list,
                                             bool observe_last) {
  fleet::CampaignSpec spec =
      make_sharded_campaign(streams, groups, core::Variant::ModifiedWithSim);
  std::vector<ShardSweepRow> rows;
  for (std::size_t w : workers_list) {
    fleet::ShardedCampaignOptions options;
    options.workers = w;
    options.obs = observe_last && rows.size() + 1 == workers_list.size();
    ShardSweepRow row;
    row.workers = w;
    analysis::ShardPlan plan;
    row.report = fleet::Fleet::run(spec, options, &plan);
    row.shards = plan.shards.size();
    rows.push_back(std::move(row));
  }
  if (!rows.empty() && rows.front().workers == 1 && rows.front().report.commands_per_s > 0) {
    for (ShardSweepRow& r : rows) {
      r.scaling_efficiency =
          (r.report.commands_per_s / rows.front().report.commands_per_s) /
          static_cast<double>(r.workers);
    }
  }
  return rows;
}

void print_sharded_sweep(const std::vector<ShardSweepRow>& rows) {
  std::printf("sharded execution worker sweep (64 streams, 8 shards, V3, default entry):\n");
  std::printf("%8s %8s %10s %12s %10s %10s %8s %6s\n", "workers", "shards", "commands",
              "commands/s", "p99 us", "p999 us", "serves", "eff");
  print_rule();
  for (const ShardSweepRow& r : rows) {
    std::printf("%8zu %8zu %10zu %12.0f %10.1f %10.1f %8zu %6.2f\n", r.workers, r.shards,
                r.report.commands_checked, r.report.commands_per_s,
                r.report.check_latency.p99_us, r.report.check_latency.p999_us,
                r.report.snapshot_pose_serves, r.scaling_efficiency);
  }
  print_rule();
  std::printf("\n");
}

// --- BENCH_throughput.json --------------------------------------------------

void write_json(const char* path, bool smoke, const CheckCost& dense_cost,
                const std::vector<ShardSweepRow>& sweep, const ShardSmoke& shard_smoke) {
  json::Object root;
  root["bench"] = "throughput";
  root["mode"] = smoke ? "smoke" : "full";
  // Scaling efficiency is only comparable between runs on the same core
  // count; the regression gate checks this field before comparing.
  root["cpus_online"] = cpus_online();

  json::Object single;
  single["optimized_check_us_per_cmd"] = dense_cost.us_per_cmd;
  single["commands_per_iteration"] =
      dense_cost.iterations > 0 ? dense_cost.commands / dense_cost.iterations : std::size_t{0};
  root["single_stream"] = std::move(single);

  json::Array sweep_rows;
  for (const ShardSweepRow& r : sweep) {
    json::Object o;
    o["workers"] = r.workers;
    o["shards"] = r.shards;
    o["commands_checked"] = r.report.commands_checked;
    o["commands_per_s"] = r.report.commands_per_s;
    o["wall_s"] = r.report.wall_s;
    o["check_p50_us"] = r.report.check_latency.p50_us;
    o["check_p99_us"] = r.report.check_latency.p99_us;
    o["check_p999_us"] = r.report.check_latency.p999_us;
    o["check_max_us"] = r.report.check_latency.max_us;
    o["snapshot_pose_serves"] = r.report.snapshot_pose_serves;
    o["coordination_events"] = r.report.coordination_events;
    o["certificate_breaches"] = r.report.certificate_breaches.size();
    o["scaling_efficiency"] = r.scaling_efficiency;
    sweep_rows.emplace_back(std::move(o));
  }
  root["sharded_fleet"] = std::move(sweep_rows);

  json::Object sharded;
  sharded["streams"] = shard_smoke.streams;
  sharded["groups"] = shard_smoke.groups;
  sharded["shards"] = shard_smoke.shards;
  sharded["certificates"] = shard_smoke.certificates;
  sharded["commands_checked"] = shard_smoke.commands_checked;
  sharded["commands_per_s"] = shard_smoke.commands_per_s;
  sharded["wall_s"] = shard_smoke.wall_s;
  sharded["snapshot_pose_serves"] = shard_smoke.snapshot_pose_serves;
  sharded["coordination_events"] = shard_smoke.coordination_events;
  sharded["certificate_breaches"] = shard_smoke.certificate_breaches;
  sharded["check_p999_us"] = shard_smoke.check_latency.p999_us;
  sharded["check_max_us"] = shard_smoke.check_latency.max_us;
  sharded["static_violations"] = shard_smoke.static_violations;
  sharded["oracle_violations"] = shard_smoke.oracle_violations;
  sharded["ok"] = shard_smoke.ok;
  root["sharded_campaign"] = std::move(sharded);

  std::ofstream out(path);
  out << json::serialize_pretty(json::Value(std::move(root))) << "\n";
  std::printf("wrote %s\n", path);
}

// --- perf-regression gate vs a checked-in baseline ---------------------------

/// One-sided gate: fails only when this run's scaling efficiency dropped
/// more than `tolerance` below the baseline's, never when it improved.
/// "sharded_fleet" rows match on workers; rows without a match are skipped,
/// so growing the sweep never breaks the gate. Skipped entirely (exit 0,
/// with a notice) when the baseline was recorded on a different core count
/// — efficiency is a per-machine number.
int compare_baseline(const std::string& path, const std::string& text,
                     const std::vector<ShardSweepRow>& sweep) {
  constexpr double kTolerance = 0.20;
  json::Value doc;
  try {
    doc = json::parse(text);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "baseline gate: %s: %s\n", path.c_str(), e.what());
    return 1;
  }
  const json::Value* cpus = doc.find("cpus_online");
  if (cpus == nullptr || !cpus->is_number() ||
      static_cast<std::size_t>(cpus->as_double()) != cpus_online()) {
    std::printf("baseline gate: skipped (baseline cpus_online %s != current %zu)\n",
                cpus != nullptr && cpus->is_number()
                    ? std::to_string(static_cast<std::size_t>(cpus->as_double())).c_str()
                    : "absent",
                cpus_online());
    return 0;
  }

  int regressions = 0;
  auto check = [&regressions](const char* table, const std::string& key, double baseline_eff,
                              double current_eff) {
    if (baseline_eff <= 0) return;
    if (current_eff < baseline_eff * (1.0 - kTolerance)) {
      std::printf("baseline gate: %s %s efficiency regressed %.2f -> %.2f (>20%%)\n", table,
                  key.c_str(), baseline_eff, current_eff);
      ++regressions;
    } else {
      std::printf("baseline gate: %s %s efficiency %.2f -> %.2f ok\n", table, key.c_str(),
                  baseline_eff, current_eff);
    }
  };

  if (const json::Value* shard = doc.find("sharded_fleet");
      shard != nullptr && shard->is_array()) {
    for (const json::Value& row : shard->as_array()) {
      const json::Value* workers = row.find("workers");
      const json::Value* eff = row.find("scaling_efficiency");
      if (workers == nullptr || eff == nullptr || !eff->is_number()) continue;
      for (const ShardSweepRow& r : sweep) {
        if (r.workers == static_cast<std::size_t>(workers->as_double())) {
          check("sharded_fleet", std::to_string(r.workers) + "w", eff->as_double(),
                r.scaling_efficiency);
        }
      }
    }
  }
  if (regressions > 0) {
    std::printf("baseline gate: FAIL (%d regression(s) beyond 20%%)\n", regressions);
    return 1;
  }
  std::printf("baseline gate: PASS\n");
  return 0;
}

// --- catalogue detection ---------------------------------------------------

int verify_catalogue() {
  print_header("Catalogue detection: every bug under every variant",
               "RABIT (DSN'24), Table IV — each bug caught from its documented variant on");

  constexpr core::Variant kVariants[] = {core::Variant::Initial, core::Variant::Modified,
                                         core::Variant::ModifiedWithSim};
  const char* kVariantNames[] = {"V1", "V2", "V3"};
  std::size_t detected_per_variant[3] = {0, 0, 0};
  int mismatches = 0;

  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    sim::LabBackend staging(sim::testbed_profile());
    sim::build_hein_testbed_deck(staging);
    std::vector<dev::Command> commands = bug.build(staging);

    for (int v = 0; v < 3; ++v) {
      bugs::BugOutcome outcome = bugs::evaluate_stream(commands, kVariants[v]);
      bool expected = bug.detected_from.has_value() &&
                      static_cast<int>(kVariants[v]) >= static_cast<int>(*bug.detected_from);
      if (outcome.detected != expected) {
        ++mismatches;
        std::printf("MISMATCH %s %s: detected=%d, documented %d (alert rule '%s')\n",
                    bug.id.c_str(), kVariantNames[v], outcome.detected, expected,
                    outcome.alert_rule.c_str());
      }
      if (outcome.detected) ++detected_per_variant[v];
    }
  }

  std::printf("detections: V1=%zu V2=%zu V3=%zu (paper: 8/12/13)\n", detected_per_variant[0],
              detected_per_variant[1], detected_per_variant[2]);
  bool progression_ok = detected_per_variant[0] == 8 && detected_per_variant[1] == 12 &&
                        detected_per_variant[2] == 13;
  if (!progression_ok) std::printf("FAIL: detection progression diverged from 8/12/13\n");
  if (mismatches > 0) std::printf("FAIL: %d outcome(s) differ from detected_from\n", mismatches);
  if (mismatches == 0 && progression_ok) std::printf("PASS: every outcome as documented\n");
  return (mismatches == 0 && progression_ok) ? 0 : 1;
}

// --- google-benchmark section -----------------------------------------------

void BM_SingleStream_Optimized(benchmark::State& state) {
  std::vector<dev::Command> commands = testbed_workflow();
  for (auto _ : state) {
    benchmark::DoNotOptimize(run_single_stream(commands, kDenseShelfBoxes));
  }
}
BENCHMARK(BM_SingleStream_Optimized)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool shard_only = false;
  bool verify = false;
  std::string obs_dir;
  std::string baseline_path;
  std::vector<char*> passthrough;
  passthrough.push_back(argv[0]);
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--shard-smoke") == 0) {
      shard_only = true;
    } else if (std::strcmp(argv[i], "--verify-catalogue") == 0) {
      verify = true;
    } else if (std::strcmp(argv[i], "--obs-out") == 0 && i + 1 < argc) {
      obs_dir = argv[++i];
    } else if (std::strcmp(argv[i], "--baseline") == 0 && i + 1 < argc) {
      baseline_path = argv[++i];
    } else {
      passthrough.push_back(argv[i]);
    }
  }
  if (verify) return verify_catalogue();
  if (shard_only) {
    print_header("Plan-driven sharded campaign smoke",
                 "static shard planner certificates vs the runtime oracle + pose board");
    ShardSmoke small = run_shard_smoke(16, 4, core::Variant::Modified, 4, /*gate_tail=*/false);
    print_shard_smoke(small, "V2");
    ShardSmoke large =
        run_shard_smoke(64, 8, core::Variant::ModifiedWithSim, 8, /*gate_tail=*/true);
    print_shard_smoke(large, "V3");
    return small.ok && large.ok ? 0 : 1;
  }

  // Slurp the baseline before anything runs: the report below writes
  // BENCH_throughput.json into the working directory, which in CI is the
  // very file the gate compares against.
  std::string baseline_text;
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "baseline gate: cannot read %s\n", baseline_path.c_str());
      return 1;
    }
    std::stringstream buffer;
    buffer << in.rdbuf();
    baseline_text = buffer.str();
  }

  print_header("Fleet-scale checking throughput",
               "RABIT (DSN'24), Section II-C latency; ROADMAP multi-stream north-star");

  // Dense variant: same workflow, but the simulator world carries a
  // production-density shelf rack. This is the representative fleet-scale
  // load; the sparse testbed row is reported for transparency.
  std::vector<dev::Command> commands = testbed_workflow();
  int min_iters = smoke ? 1 : 3;
  double min_seconds = smoke ? 0.0 : 0.5;
  CheckCost sparse_cost = measure_check_cost(commands, 0, min_iters, min_seconds);
  CheckCost dense_cost = measure_check_cost(commands, kDenseShelfBoxes, min_iters, min_seconds);

  std::printf("single-stream real check cost (testbed workflow, V3):\n");
  std::printf("  %-40s %10.1f us/cmd  (%d iters)\n", "sparse testbed world",
              sparse_cost.us_per_cmd, sparse_cost.iterations);
  std::printf("  %-40s %10.1f us/cmd  (%d iters)\n\n", "dense lab world (+400 obstacle boxes)",
              dense_cost.us_per_cmd, dense_cost.iterations);

  std::vector<std::size_t> sweep_workers =
      smoke ? std::vector<std::size_t>{1, 4} : std::vector<std::size_t>{1, 2, 4};
  std::vector<ShardSweepRow> sweep = run_sharded_sweep(64, 8, sweep_workers, !obs_dir.empty());
  print_sharded_sweep(sweep);

  ShardSmoke shard_smoke =
      run_shard_smoke(64, 8, core::Variant::ModifiedWithSim, 8, /*gate_tail=*/true);
  print_shard_smoke(shard_smoke, "V3");

  if (!obs_dir.empty()) {
    const fleet::CampaignReport& observed = sweep.back().report;
    std::string error;
    if (!obs::write_export_dir(obs_dir, *observed.obs_events, *observed.obs_metrics, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 1;
    }
    std::printf("observability written to %s/{events.jsonl,trace.json,metrics.prom}\n",
                obs_dir.c_str());
  }

  write_json("BENCH_throughput.json", smoke, dense_cost, sweep, shard_smoke);

  if (!shard_smoke.ok) return 1;
  if (!baseline_path.empty()) {
    int gate = compare_baseline(baseline_path, baseline_text, sweep);
    if (gate != 0) return gate;
  }

  if (smoke) return 0;  // the TSan job wants the sharded path exercised, not microbenches
  int pass_argc = static_cast<int>(passthrough.size());
  benchmark::Initialize(&pass_argc, passthrough.data());
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
