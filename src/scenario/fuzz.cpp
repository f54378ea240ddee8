#include "scenario/fuzz.hpp"

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <map>
#include <optional>
#include <set>
#include <sstream>
#include <stdexcept>

#include "analysis/analysis.hpp"
#include "analysis/interference.hpp"
#include "analysis/shard_plan.hpp"
#include "core/lab.hpp"
#include "devices/fault.hpp"
#include "devices/robot_arm.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

namespace rabit::scenario {

using dev::Command;

// ---------------------------------------------------------------------------
// Verdicts
// ---------------------------------------------------------------------------

std::string ScenarioVerdict::primary_failure_class() const {
  if (oracle_failures.empty()) return "";
  const std::string& first = oracle_failures.front();
  return first.substr(0, first.find(':'));
}

namespace {

json::Array strings_to_json(const std::vector<std::string>& values) {
  json::Array out;
  for (const std::string& v : values) out.emplace_back(v);
  return out;
}

std::vector<std::string> strings_from_json(const json::Value& doc, std::string_view key) {
  std::vector<std::string> out;
  const json::Value* arr = doc.find(key);
  if (arr == nullptr) return out;
  if (!arr->is_array()) {
    throw std::runtime_error("scenario verdict: '" + std::string(key) + "' is not an array");
  }
  for (const json::Value& v : arr->as_array()) out.push_back(v.as_string());
  return out;
}

std::vector<std::string> sorted_unique(std::set<std::string> keys) {
  return {keys.begin(), keys.end()};
}

}  // namespace

json::Value verdict_to_json(const ScenarioVerdict& verdict) {
  json::Object o;
  o["halted"] = verdict.halted;
  o["damage"] = verdict.damage;
  o["alerts"] = strings_to_json(verdict.alerts);
  o["cross_stream_alerts"] = static_cast<std::int64_t>(verdict.cross_stream_alerts);
  o["shards"] = static_cast<std::int64_t>(verdict.shards);
  o["diagnostics"] = strings_to_json(verdict.diagnostics);
  o["rungs"] = strings_to_json(verdict.rungs);
  o["oracle_failures"] = strings_to_json(verdict.oracle_failures);
  return json::Value(std::move(o));
}

ScenarioVerdict verdict_from_json(const json::Value& doc) {
  if (!doc.is_object()) throw std::runtime_error("scenario verdict: not an object");
  ScenarioVerdict v;
  v.halted = doc.get_or("halted", false);
  v.damage = doc.get_or("damage", false);
  v.alerts = strings_from_json(doc, "alerts");
  v.cross_stream_alerts =
      static_cast<std::size_t>(doc.get_or("cross_stream_alerts", std::int64_t{0}));
  v.shards = static_cast<std::size_t>(doc.get_or("shards", std::int64_t{0}));
  v.diagnostics = strings_from_json(doc, "diagnostics");
  v.rungs = strings_from_json(doc, "rungs");
  v.oracle_failures = strings_from_json(doc, "oracle_failures");
  return v;
}

// ---------------------------------------------------------------------------
// Scenario execution
// ---------------------------------------------------------------------------

namespace {

/// Workflows whose unmutated, unfaulted single-stream run is known alert-free
/// under supervision (pinned by scenario_test). RadDosing is excluded because
/// synth_session draws reordering noise whose alert-freeness is not a
/// generator invariant; Dosing is excluded because it is *intentionally*
/// dirty — dosing solvent into a solid-free vial trips C1 by design, which is
/// how the C1/G8 rule family and the I3/I6 budget races stay reachable.
bool oracle_safe_workflow(WorkflowKind kind) {
  switch (kind) {
    case WorkflowKind::Testbed:
    case WorkflowKind::Hotplate:
    case WorkflowKind::Park:
      return true;
    case WorkflowKind::RadDosing:
    case WorkflowKind::Dosing:
    case WorkflowKind::DirtyV3:  // intentionally inside the assurance margin
      return false;
  }
  return false;
}

bool clean_gene(const StreamGene& gene) {
  return gene.mutations == 0 && oracle_safe_workflow(gene.workflow);
}

std::string alert_key(std::size_t stream, std::size_t command, const std::string& rule) {
  return "s" + std::to_string(stream) + ":" + std::to_string(command) + ":" + rule;
}

/// Collects one static report's rule ids into the verdict sets. Analyzer-only
/// findings (A family) and the campaign-level families mint coverage keys;
/// mirrored runtime rules (G/C/M/S1/POST) do not — those count only when the
/// runtime actually raises them, which keeps the coverage map honest.
void absorb_report(const analysis::AnalysisReport& report, std::set<std::string>& diagnostics,
                   std::set<std::string>& coverage) {
  for (const analysis::Diagnostic& d : report.diagnostics) {
    diagnostics.insert(d.rule);
    if (d.rule.rfind("CFG", 0) == 0) {
      coverage.insert("cfg:" + d.rule);
    } else if (d.rule.size() >= 2 && d.rule[0] == 'A' && std::isdigit(d.rule[1]) != 0) {
      coverage.insert("diag:" + d.rule);
    } else if (d.rule.size() >= 2 && d.rule[0] == 'I' && std::isdigit(d.rule[1]) != 0) {
      coverage.insert("ifr:" + d.rule);
    }
  }
}

struct SupervisedOutcome {
  trace::RunReport report;
  std::vector<std::string> rung_kinds;  ///< emission order, with duplicates
};

/// The single-stream runtime harness: a core::Lab (as bugs::evaluate_stream
/// builds it) plus the scenario extras — a seeded fault schedule, the
/// recovery/assurance ladder, and an observability collector the rung
/// coverage is read from.
SupervisedOutcome run_supervised(const ScenarioSpec& spec, const std::vector<Command>& commands) {
  // The deck hook installs the spec's fault schedule on the fresh testbed.
  core::Lab lab(spec.variant, 42, [&](sim::LabBackend& backend) {
    sim::build_hein_testbed_deck(backend);
    if (spec.faults.transients == 0 && !spec.faults.permanent) return;
    dev::FaultSchedule schedule;
    if (spec.faults.transients > 0) {
      std::vector<std::pair<std::string, std::string>> pairs;
      for (const Command& c : commands) {
        std::pair<std::string, std::string> p{c.device, c.action};
        if (std::find(pairs.begin(), pairs.end(), p) == pairs.end()) pairs.push_back(p);
      }
      dev::FaultSchedule::ChaosOptions chaos;
      chaos.transient_count = spec.faults.transients;
      chaos.horizon_s = spec.faults.horizon_s;
      chaos.include_status_faults = spec.faults.include_status;
      std::mt19937_64 rng(derive_seed(spec.seed, 7));
      schedule = dev::FaultSchedule::chaos(rng, pairs, chaos);
    }
    if (spec.faults.permanent) {
      // Kill the first commanded action whose postconditions RABIT tracks: a
      // dead tracked action is observable, so the ladder retries, exhausts,
      // and escalates (quarantine -> safe state -> halt rung coverage).
      const std::vector<std::string>& safe = dev::FaultSchedule::default_dead_safe_actions();
      for (const Command& c : commands) {
        if (std::find(safe.begin(), safe.end(), c.action) == safe.end()) continue;
        dev::FaultPlan plan;
        plan.dead_actions = {c.action};
        schedule.add_permanent(c.device, plan);
        break;
      }
    }
    backend.set_fault_schedule(std::move(schedule));
  });

  obs::Collector collector;
  obs::Registry registry;
  trace::Supervisor::Options options;
  options.halt_on_alert = spec.halt_on_alert;
  if (spec.recovery) options.recovery = recovery::RecoveryPolicy{};
  if (spec.assurance && spec.variant == core::Variant::ModifiedWithSim) {
    options.assurance = assurance::AssuranceConfig{};
  }
  options.obs_sink = &collector;
  options.obs_metrics = &registry;
  options.obs_stream = "s0";

  trace::Supervisor supervisor(&lab.engine, &lab.backend, options);
  SupervisedOutcome outcome;
  outcome.report = supervisor.run(commands);
  for (const obs::RungRecord& rung : collector.rungs()) {
    outcome.rung_kinds.push_back(rung.kind);
  }
  return outcome;
}

}  // namespace

ScenarioResult run_scenario(const ScenarioSpec& spec) {
  MaterializedScenario mat = materialize(spec);

  std::set<std::string> coverage;
  std::set<std::string> diagnostics;
  std::set<std::string> rungs;
  std::set<std::string> oracles;
  ScenarioVerdict verdict;

  // --- static pre-flight -------------------------------------------------
  absorb_report(analysis::lint_config(mat.linted_config), diagnostics, coverage);
  absorb_report(analysis::lint_recovery_policy(mat.linted_policy), diagnostics, coverage);

  std::vector<analysis::AnalysisReport> stream_reports;
  stream_reports.reserve(mat.streams.size());
  for (const fleet::CampaignStreamSpec& stream : mat.streams) {
    stream_reports.push_back(analysis::analyze_stream(mat.config, stream.commands));
    absorb_report(stream_reports.back(), diagnostics, coverage);
  }
  if (!mat.probe_script.empty()) {
    absorb_report(analysis::analyze_script(mat.config, mat.probe_script), diagnostics, coverage);
  }

  analysis::AnalysisReport interference;
  if (mat.streams.size() > 1) {
    std::vector<analysis::CampaignStream> campaign;
    for (const fleet::CampaignStreamSpec& stream : mat.streams) {
      campaign.push_back(analysis::CampaignStream{stream.name, stream.commands});
    }
    interference = analysis::analyze_campaign(mat.config, campaign);
    absorb_report(interference, diagnostics, coverage);
  }

  // --- runtime ------------------------------------------------------------
  // (stream index, command index, alert, cross-stream) across both regimes.
  struct RuntimeAlert {
    std::size_t stream;
    std::size_t command;
    core::Alert alert;
    bool cross_stream;
  };
  std::vector<RuntimeAlert> runtime_alerts;

  bool demoted = false;
  if (mat.streams.size() == 1) {
    SupervisedOutcome outcome = run_supervised(spec, mat.streams.front().commands);
    verdict.halted = outcome.report.halted;
    verdict.damage = !outcome.report.damage.empty();
    for (std::size_t i = 0; i < outcome.report.steps.size(); ++i) {
      const trace::SupervisedStep& step = outcome.report.steps[i];
      if (step.alert) runtime_alerts.push_back({0, i, *step.alert, false});
      if (step.demoted) demoted = true;
    }
    for (const std::string& kind : outcome.rung_kinds) {
      rungs.insert(kind);
      coverage.insert("rung:" + kind);
    }
  } else {
    fleet::CampaignSpec campaign;
    campaign.variant = spec.variant;
    campaign.seed = static_cast<unsigned>(spec.seed);
    campaign.halt_on_alert = spec.halt_on_alert;
    campaign.streams = mat.streams;
    fleet::ShardedCampaignOptions options;
    options.workers = 2;
    // The monolithic-vs-sharded diff is only meaningful when both runs check
    // their full schedules: a global halt (monolithic) vs a shard-local halt
    // truncates the two alert sets differently by design.
    options.validate_certificates = !spec.halt_on_alert;
    analysis::ShardPlan plan;
    fleet::CampaignReport report = fleet::Fleet::run(campaign, options, &plan);

    verdict.shards = report.shards;
    for (const analysis::Diagnostic& d : plan.diagnostics.diagnostics) {
      diagnostics.insert(d.rule);
      if (d.rule.size() >= 2 && d.rule[0] == 'S' && std::isdigit(d.rule[1]) != 0) {
        coverage.insert("shard:" + d.rule);
      }
    }
    for (const fleet::CampaignAlert& a : report.alerts) {
      runtime_alerts.push_back({a.stream, a.command_index, a.alert, a.cross_stream});
      if (a.cross_stream) ++verdict.cross_stream_alerts;
    }
    for (const std::string& breach : report.certificate_breaches) {
      oracles.insert("certificate_breach:" + breach);
    }
    for (const std::string& violation : report.oracle_violations) {
      oracles.insert("shard_divergence:" + violation);
    }
  }

  for (const RuntimeAlert& a : runtime_alerts) {
    verdict.alerts.push_back(alert_key(a.stream, a.command, a.alert.rule));
    coverage.insert("rule:" + a.alert.rule);
  }

  // --- soundness oracles --------------------------------------------------
  const bool faulted = spec.faults.transients > 0 || spec.faults.permanent;

  // static_miss: the stream's FIRST precondition alert must be statically
  // predicted (the differential-soundness property). Only the first alert is
  // comparable: a blocked command is never executed, so the runtime and the
  // analyzer (which assumes commands proceed) see different device state past
  // it — later alerts may be block cascades the analyzer correctly roots
  // elsewhere. The check is single-stream only: in a campaign another stream
  // can rearrange shared state (park the arm, reopen a door) in ways
  // per-stream analysis cannot see, and the fleet's cross-stream attribution
  // (same rule at the same solo index) can be fooled by coincidence — the
  // interference_miss / shard / certificate oracles own the campaign side.
  // Fault-injected and demoted runs are exempt (fault/assurance effects are
  // runtime-only), as are truncated reports.
  if (mat.streams.size() == 1 && !faulted && !demoted && !runtime_alerts.empty()) {
    const RuntimeAlert* first = &runtime_alerts.front();
    for (const RuntimeAlert& a : runtime_alerts) {
      if (a.command < first->command) first = &a;
    }
    const analysis::AnalysisReport& report = stream_reports[first->stream];
    if (first->alert.kind == core::AlertKind::InvalidCommand && !report.truncated) {
      bool predicted = false;
      for (const analysis::Diagnostic& d : report.diagnostics) {
        if (d.rule == first->alert.rule) predicted = true;
      }
      if (!predicted) {
        oracles.insert("static_miss:s" + std::to_string(first->stream) + ":" +
                       first->alert.rule);
      }
    }
  }

  // interference_miss: a cross-stream precondition alert with no campaign
  // I-diagnostic naming the alerting device (the sweep's soundness contract
  // for analyze_campaign).
  for (const RuntimeAlert& a : runtime_alerts) {
    if (!a.cross_stream || interference.truncated) continue;
    if (a.alert.kind != core::AlertKind::InvalidCommand) continue;
    bool mapped = false;
    for (const analysis::Diagnostic& d : interference.diagnostics) {
      if (std::find(d.subjects.begin(), d.subjects.end(), a.alert.command.device) !=
          d.subjects.end()) {
        mapped = true;
      }
    }
    if (!mapped) {
      oracles.insert("interference_miss:" + a.alert.command.device + ":" + a.alert.rule);
    }
  }

  // false_alarm / false_halt: a clean, unfaulted, known-safe stream must run
  // alert-free; a halt must be justified by an alert or an escalation rung.
  if (!faulted) {
    for (const RuntimeAlert& a : runtime_alerts) {
      if (a.cross_stream) continue;
      if (!clean_gene(spec.streams[a.stream])) continue;
      oracles.insert("false_alarm:s" + std::to_string(a.stream) + ":" + a.alert.rule);
    }
  }
  if (verdict.halted && runtime_alerts.empty() && !rungs.contains("halt")) {
    oracles.insert("false_halt");
  }

  verdict.diagnostics = sorted_unique(std::move(diagnostics));
  verdict.rungs = sorted_unique(std::move(rungs));
  verdict.oracle_failures = sorted_unique(std::move(oracles));

  ScenarioResult result;
  result.verdict = std::move(verdict);
  result.coverage = sorted_unique(std::move(coverage));
  return result;
}

// ---------------------------------------------------------------------------
// Coverage
// ---------------------------------------------------------------------------

std::size_t CoverageMap::add_all(const std::vector<std::string>& keys) {
  std::size_t fresh = 0;
  for (const std::string& key : keys) {
    if (add(key)) ++fresh;
  }
  return fresh;
}

std::size_t CoverageMap::count_prefix(std::string_view prefix) const {
  std::size_t n = 0;
  for (const std::string& key : keys_) {
    if (key.rfind(prefix, 0) == 0) ++n;
  }
  return n;
}

json::Value CoverageMap::to_json() const {
  json::Object o;
  json::Array keys;
  for (const std::string& key : keys_) keys.emplace_back(key);
  o["keys"] = std::move(keys);
  o["total"] = static_cast<std::int64_t>(keys_.size());
  return json::Value(std::move(o));
}

const std::vector<std::string>& reachable_coverage() {
  // Measured by long rabit_fuzz campaigns on the Hein testbed deck: two
  // independent 4000-iteration runs (--seed 1 and --seed 7) converge on
  // exactly this 44-key set. Extend only with keys you have seen a scenario
  // emit — the >= 80% gate divides by this list.
  static const std::vector<std::string> kReachable = {
      // clang-format off
      "cfg:CFG1", "cfg:CFG2", "cfg:CFG3", "cfg:CFG4", "cfg:CFG5", "cfg:CFG6",
      "cfg:CFG7", "cfg:CFG8", "cfg:CFG9", "cfg:CFG10", "cfg:CFG11",
      "diag:A1", "diag:A2", "diag:A3", "diag:A5", "diag:A6", "diag:A7",
      "diag:A8",
      "ifr:I1", "ifr:I2", "ifr:I3", "ifr:I4", "ifr:I5",
      "shard:S1", "shard:S2",
      "rule:G1", "rule:G2", "rule:G3", "rule:G4", "rule:G8", "rule:G9",
      "rule:G10", "rule:G11", "rule:C1", "rule:M1", "rule:POST", "rule:RTA",
      "rule:SIM",
      "rung:retry", "rung:repoll", "rung:demote", "rung:quarantine",
      "rung:safe_state", "rung:halt",
      // clang-format on
  };
  return kReachable;
}

// ---------------------------------------------------------------------------
// Shrinking
// ---------------------------------------------------------------------------

namespace {

/// Every one-step reduction of `spec` the shrinker may try. Each candidate
/// weighs strictly less than `spec` (the caller re-checks; weight() makes
/// every lever here a descent step).
std::vector<ScenarioSpec> shrink_candidates(const ScenarioSpec& spec) {
  std::vector<ScenarioSpec> out;
  auto push = [&out, &spec](ScenarioSpec candidate) {
    if (candidate.streams.size() <= 1) {
      // Dropping to a single stream keeps the single-stream-only genes legal.
    } else {
      candidate.faults = FaultGene{};
      candidate.recovery = false;
      candidate.assurance = false;
    }
    if (weight(candidate) < weight(spec)) out.push_back(std::move(candidate));
  };

  for (std::size_t i = 0; i < spec.streams.size() && spec.streams.size() > 1; ++i) {
    ScenarioSpec c = spec;
    c.streams.erase(c.streams.begin() + static_cast<std::ptrdiff_t>(i));
    push(std::move(c));
  }
  for (std::size_t i = 0; i < spec.streams.size(); ++i) {
    if (spec.streams[i].mutations > 0) {
      ScenarioSpec c = spec;
      c.streams[i].mutations = 0;
      push(std::move(c));
      if (spec.streams[i].mutations > 1) {
        c = spec;
        c.streams[i].mutations /= 2;
        push(std::move(c));
      }
    }
    // Truncation: an untruncated stream first tries a short prefix, then the
    // prefix halves toward 1.
    if (spec.streams[i].prefix == 0) {
      ScenarioSpec c = spec;
      c.streams[i].prefix = 8;
      push(std::move(c));
    } else if (spec.streams[i].prefix > 1) {
      ScenarioSpec c = spec;
      c.streams[i].prefix /= 2;
      push(std::move(c));
    }
  }
  if (spec.faults.transients > 0) {
    ScenarioSpec c = spec;
    c.faults.transients = 0;
    push(std::move(c));
  }
  if (spec.faults.permanent) {
    ScenarioSpec c = spec;
    c.faults.permanent = false;
    push(std::move(c));
  }
  if (spec.perturb != ConfigPerturb::None) {
    ScenarioSpec c = spec;
    c.perturb = ConfigPerturb::None;
    push(std::move(c));
  }
  if (spec.probe != ScriptProbe::None) {
    ScenarioSpec c = spec;
    c.probe = ScriptProbe::None;
    push(std::move(c));
  }
  if (spec.assurance) {
    ScenarioSpec c = spec;
    c.assurance = false;
    push(std::move(c));
  }
  if (spec.recovery) {
    ScenarioSpec c = spec;
    c.recovery = false;
    push(std::move(c));
  }
  return out;
}

}  // namespace

ShrinkResult shrink_while(const ScenarioSpec& spec, const ScenarioVerdict& original,
                          const std::function<bool(const ScenarioVerdict&)>& keep) {
  if (!keep(original)) {
    throw std::invalid_argument("scenario: shrink requires a verdict the predicate keeps");
  }

  ShrinkResult best;
  best.spec = spec;
  best.verdict = original;
  // Greedy descent to a fixpoint. Every accepted candidate strictly
  // decreases weight(spec) (a positive integer), so the loop terminates; at
  // exit no single candidate move satisfies the predicate (1-minimal).
  bool progress = true;
  while (progress) {
    progress = false;
    for (ScenarioSpec& candidate : shrink_candidates(best.spec)) {
      ++best.attempts;
      ScenarioResult result = run_scenario(candidate);
      if (keep(result.verdict)) {
        best.spec = std::move(candidate);
        best.verdict = std::move(result.verdict);
        progress = true;
        break;
      }
    }
  }
  return best;
}

ShrinkResult shrink(const ScenarioSpec& failing, const ScenarioVerdict& original) {
  if (!original.failing()) {
    throw std::invalid_argument("scenario: shrink() requires a failing verdict");
  }
  const std::string cls = original.primary_failure_class();
  return shrink_while(failing, original, [&cls](const ScenarioVerdict& v) {
    return v.failing() && v.primary_failure_class() == cls;
  });
}

// ---------------------------------------------------------------------------
// Corpus
// ---------------------------------------------------------------------------

json::Value corpus_entry_to_json(const CorpusEntry& entry) {
  json::Object o;
  o["name"] = entry.name;
  o["spec"] = spec_to_json(entry.spec);
  o["verdict"] = verdict_to_json(entry.verdict);
  return json::Value(std::move(o));
}

CorpusEntry corpus_entry_from_json(const json::Value& doc) {
  if (!doc.is_object()) throw std::runtime_error("corpus entry: not an object");
  const json::Value* spec = doc.find("spec");
  const json::Value* verdict = doc.find("verdict");
  if (spec == nullptr) throw std::runtime_error("corpus entry: missing 'spec'");
  if (verdict == nullptr) throw std::runtime_error("corpus entry: missing 'verdict'");
  CorpusEntry entry;
  entry.name = doc.get_or("name", std::string(""));
  entry.spec = spec_from_json(*spec);
  entry.verdict = verdict_from_json(*verdict);
  return entry;
}

std::vector<CorpusEntry> load_corpus_dir(const std::string& dir) {
  namespace fs = std::filesystem;
  std::vector<CorpusEntry> entries;
  std::error_code ec;
  if (!fs::is_directory(dir, ec)) return entries;

  std::vector<fs::path> files;
  for (const fs::directory_entry& e : fs::directory_iterator(dir)) {
    if (e.path().extension() == ".json") files.push_back(e.path());
  }
  std::sort(files.begin(), files.end());

  for (const fs::path& path : files) {
    std::ifstream in(path);
    std::stringstream buffer;
    buffer << in.rdbuf();
    if (!in.good() && !in.eof()) {
      throw std::runtime_error("corpus: cannot read " + path.string());
    }
    try {
      CorpusEntry entry = corpus_entry_from_json(json::parse(buffer.str()));
      if (entry.name.empty()) entry.name = path.stem().string();
      entries.push_back(std::move(entry));
    } catch (const std::exception& e) {
      throw std::runtime_error("corpus: " + path.string() + ": " + e.what());
    }
  }
  return entries;
}

bool save_corpus_entry(const std::string& dir, const CorpusEntry& entry, std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create " + dir + ": " + ec.message();
    return false;
  }
  fs::path path = fs::path(dir) / (entry.name + ".json");
  std::ofstream out(path);
  out << json::serialize_pretty(corpus_entry_to_json(entry)) << '\n';
  if (!out.good()) {
    if (error != nullptr) *error = "cannot write " + path.string();
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// The fuzzing engine
// ---------------------------------------------------------------------------

double FuzzReport::coverage_fraction() const {
  const std::vector<std::string>& reachable = reachable_coverage();
  if (reachable.empty()) return 1.0;
  std::size_t hit = 0;
  for (const std::string& key : reachable) {
    if (coverage.covered(key)) ++hit;
  }
  return static_cast<double>(hit) / static_cast<double>(reachable.size());
}

json::Value FuzzReport::to_json() const {
  json::Object o;
  o["iterations"] = static_cast<std::int64_t>(iterations);
  o["coverage"] = coverage.to_json();
  o["reachable"] = static_cast<std::int64_t>(reachable_coverage().size());
  o["coverage_fraction"] = coverage_fraction();
  json::Array curve;
  for (const auto& [iteration, keys] : growth) {
    json::Array point;
    point.emplace_back(static_cast<std::int64_t>(iteration));
    point.emplace_back(static_cast<std::int64_t>(keys));
    curve.emplace_back(std::move(point));
  }
  o["growth"] = std::move(curve);
  json::Array repro_names;
  for (const CorpusEntry& r : repros) repro_names.emplace_back(r.name);
  o["repros"] = std::move(repro_names);
  o["wall_s"] = wall_s;
  return json::Value(std::move(o));
}

namespace {

StreamGene steered_stream(WorkflowKind kind, std::uint64_t seed, std::uint64_t salt) {
  StreamGene g;
  g.workflow = kind;
  g.seed = derive_seed(seed, 300 + salt);
  return g;
}

/// Biases `spec` toward one still-dark coverage key. Best-effort and purely
/// gene-level: the steered spec stays a valid genome, so a steering miss
/// costs nothing but the iteration.
void steer(ScenarioSpec& spec, const std::string& target, std::uint64_t it_seed,
           std::mt19937_64& rng) {
  if (target.rfind("cfg:CFG", 0) == 0) {
    // ConfigPerturb enumerators 1..11 line up with CFG1..CFG11.
    int n = std::stoi(target.substr(7));
    if (n >= 1 && n < static_cast<int>(kConfigPerturbs)) {
      spec.perturb = static_cast<ConfigPerturb>(n);
    }
  } else if (target.rfind("diag:A", 0) == 0) {
    switch (target.back()) {
      case '5': spec.probe = ScriptProbe::UnresolvedThreshold; break;
      case '6': spec.probe = ScriptProbe::UndefinedVariable; break;
      case '7': spec.probe = ScriptProbe::UnresolvedIndex; break;
      case '8': spec.probe = ScriptProbe::LoopBudget; break;
      default: break;  // A1..A4 come from mutated streams; nothing to force
    }
  } else if (target == "rung:demote" || target == "rule:RTA") {
    // Demotion (and its RTA alert) needs a trajectory the preconditions
    // admit but the predictive assurance ladder rejects: the DirtyV3 grid
    // skim, under the V3 simulator with the assurance module armed.
    spec.streams = {steered_stream(WorkflowKind::DirtyV3, it_seed, 0)};
    spec.variant = core::Variant::ModifiedWithSim;
    spec.recovery = true;
    spec.assurance = true;
    spec.faults = FaultGene{};
  } else if (target.rfind("rung:", 0) == 0) {
    const std::string kind = target.substr(5);
    spec.streams = {steered_stream(WorkflowKind::Testbed, it_seed, 0)};
    spec.recovery = true;
    spec.faults.transients = 4;
    spec.faults.include_status = true;
    spec.faults.permanent =
        kind == "quarantine" || kind == "safe_state" || kind == "halt";
  } else if (target.rfind("ifr:I", 0) == 0 || target.rfind("shard:", 0) == 0) {
    // Pairs chosen so the two streams share exactly the surface the rule
    // inspects: setpoints (I4), consumable budgets (I3/I6) and the same
    // stations (I1, and the S1 single-shard collapse), or one arm with
    // asymmetric ignore declarations (I2/I5).
    WorkflowKind a = WorkflowKind::Dosing;
    WorkflowKind b = WorkflowKind::Dosing;
    if (target == "ifr:I4") {
      a = b = WorkflowKind::Hotplate;
    } else if (target == "ifr:I2" || target == "ifr:I5") {
      a = WorkflowKind::Testbed;
      b = WorkflowKind::Park;
    }
    spec.streams = {steered_stream(a, it_seed, 1), steered_stream(b, it_seed, 2)};
  } else if (target.rfind("rule:", 0) == 0) {
    // Runtime rules come from buggy streams: mutate a testbed workflow.
    if (spec.streams.empty()) spec.streams = {steered_stream(WorkflowKind::Testbed, it_seed, 3)};
    StreamGene& g = spec.streams[rng() % spec.streams.size()];
    g.workflow = WorkflowKind::Testbed;
    g.mutations = 1 + static_cast<std::uint32_t>(rng() % 3);
  }
  if (spec.streams.size() > 1) {
    spec.faults = FaultGene{};
    spec.recovery = false;
    spec.assurance = false;
  }
}

}  // namespace

FuzzReport fuzz(const FuzzOptions& options) {
  const auto t0 = std::chrono::steady_clock::now();
  FuzzReport report;
  std::vector<ScenarioSpec> pool;
  std::map<std::string, CorpusEntry> repro_by_class;
  std::set<std::string> pinned_classes;

  auto note = [&](const ScenarioSpec& spec, const ScenarioResult& result, bool pinned = false) {
    ++report.iterations;
    if (report.coverage.add_all(result.coverage) > 0) {
      report.growth.emplace_back(report.iterations, report.coverage.size());
      pool.push_back(spec);
    }
    if (!result.verdict.failing()) return;
    const std::string cls = result.verdict.primary_failure_class();
    if (pinned) {
      // A checked-in corpus entry that fails its oracle is a *triaged* known
      // failure (pinned by the corpus gate with its verdict); claiming the
      // class here keeps the nightly from re-reporting it as a fresh repro.
      pinned_classes.insert(cls);
      return;
    }
    if (pinned_classes.contains(cls) || repro_by_class.contains(cls)) return;
    CorpusEntry entry;
    entry.spec = spec;
    entry.verdict = result.verdict;
    if (options.shrink_failures) {
      ShrinkResult minimal = shrink(spec, result.verdict);
      entry.spec = std::move(minimal.spec);
      entry.verdict = std::move(minimal.verdict);
    }
    entry.name = cls + "_" + std::to_string(entry.spec.seed);
    repro_by_class.emplace(cls, std::move(entry));
  };

  for (const ScenarioSpec& spec : options.corpus) {
    note(spec, run_scenario(spec), /*pinned=*/true);
  }

  const std::vector<std::string>& reachable = reachable_coverage();
  for (std::size_t it = 0; it < options.iterations; ++it) {
    if (options.time_budget_s > 0.0) {
      const double elapsed = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
      if (elapsed >= options.time_budget_s) break;
    }

    const std::uint64_t it_seed = derive_seed(options.seed, 10'000 + it);
    std::mt19937_64 rng(derive_seed(it_seed, 2));
    ScenarioSpec spec;
    if (!pool.empty() && (rng() % 100) < 60) {
      spec = mutate(pool[rng() % pool.size()], it_seed);
    } else {
      spec = generate(it_seed);
    }

    // Steering: rotate through the families still dark so no single hard
    // target starves the rest.
    std::vector<const std::string*> dark;
    for (const std::string& key : reachable) {
      if (!report.coverage.covered(key)) dark.push_back(&key);
    }
    if (!dark.empty() && (rng() % 100) < 70) {
      steer(spec, *dark[it % dark.size()], it_seed, rng);
    }

    note(spec, run_scenario(spec));
  }

  for (auto& [cls, entry] : repro_by_class) {
    report.repros.push_back(std::move(entry));
  }
  report.wall_s = std::chrono::duration<double>(std::chrono::steady_clock::now() - t0).count();
  return report;
}

}  // namespace rabit::scenario
