// rabit_lint — pre-flight static analysis of lab scripts and configurations.
//
// Runs before anything executes: parses each script, abstractly interprets it
// against the rulebase on the configured symbolic lab state, and reports
// every rule a statically-resolvable command would violate, with script line
// numbers and rule ids. With no scripts, lints just the configuration. With
// --fleet, additionally runs the whole-campaign interference analyzer
// (diagnostics I1..I6) over the campaign's streams. The recommended
// pre-flight ladder is
//
//   rabit_lint script.lab        (static, instant)
//   rabit_validate config.json   (schema + cross-consistency)
//   rabit_replay --sim ...       (full simulator stage)
//
//   usage: rabit_lint [options] [script.lab ...]
//     --config <file.json>   lint against this configuration (default: the
//                            built-in testbed config, as emitted by
//                            `rabit_validate --template`)
//     --config-only          lint only the configuration and exit
//     --rules                run the rulebase verifier (R1..R8): certify the
//                            rules themselves — shadowed/contradictory/
//                            unsatisfiable/dangling rules, guard-vs-analyzer
//                            divergence, coverage gaps, order-dependent
//                            thresholds, dark-key classification against the
//                            fuzzer's measured coverage map. Every R1/R2/R5/
//                            R6/R7 finding prints a replayable witness;
//                            R3/R4/R8 print machine-checkable proof tags
//     --witness-dir <dir>    with --rules: write each witness/proof finding
//                            as a self-contained corpus document
//                            (`rabit_fuzz --replay` confirms it)
//     --fleet <campaign.json> summarize every stream of the campaign and run
//                            the pairwise interference checks (I1..I6)
//     --shard-plan           with --fleet: build the static shard plan
//                            (conflict graph, shards, independence
//                            certificates, S1..S3 diagnostics) and print it
//                            (text, or JSON under --json)
//     --max-shard-streams <n> S1 bound: warn when any shard holds more than
//                            n streams (default 0: warn only when the whole
//                            campaign collapses into one shard)
//     --demo-bugs            run the §IV bug-catalogue command streams
//                            through the analyzer and print what it flags
//     --strict               a budget-truncated (possibly incomplete) report
//                            also fails the run, not just error findings
//     --max-diagnostics <n>  cap the per-report diagnostic count (default 200)
//     --json                 machine-readable diagnostic output
//     --help                 this text
//
// Exit status: 0 clean (warnings allowed), 1 error-level findings (or a
// truncated report under --strict), 2 usage.
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/analysis.hpp"
#include "analysis/interference.hpp"
#include "analysis/rulecheck.hpp"
#include "bugs/bugs.hpp"
#include "cli_number.hpp"
#include "core/config.hpp"
#include "fleet/fleet.hpp"
#include "recovery/recovery.hpp"
#include "scenario/fuzz.hpp"
#include "sim/deck.hpp"

using namespace rabit;

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [options] [script.lab ...]\n"
               "  --config <file.json>   lint against this configuration\n"
               "  --config-only          lint only the configuration and exit\n"
               "  --rules                verify the rulebase itself (R1..R8)\n"
               "  --witness-dir <dir>    with --rules: write replayable witness files\n"
               "  --fleet <campaign.json> interference-check a fleet campaign\n"
               "  --shard-plan           with --fleet: print the static shard plan\n"
               "  --max-shard-streams <n> S1 bound for --shard-plan (default 0)\n"
               "  --demo-bugs            analyze the built-in bug-catalogue streams\n"
               "  --strict               truncated reports also fail the run\n"
               "  --max-diagnostics <n>  cap the per-report diagnostic count\n"
               "  --json                 machine-readable output\n"
               "  --help                 this text\n",
               argv0);
}

core::EngineConfig builtin_testbed_config() {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  return core::config_from_backend(backend, core::Variant::Modified);
}

void print_report(const std::string& subject, const analysis::AnalysisReport& unsorted,
                  bool as_json) {
  // Deterministic emission order — (code, stream, location) — so golden
  // tests and CI diffs are byte-stable regardless of analysis order.
  analysis::AnalysisReport report = analysis::sorted_for_emission(unsorted);
  if (as_json) {
    json::Value doc = analysis::report_to_json(report);
    json::Object wrapped;
    wrapped["subject"] = subject;
    for (const auto& [key, value] : doc.as_object()) wrapped[key] = value;
    std::printf("%s\n", json::serialize_pretty(json::Value(std::move(wrapped))).c_str());
    return;
  }
  if (report.diagnostics.empty()) {
    if (report.truncated) {
      std::printf("%s: no findings, but the report is TRUNCATED by the analysis budget "
                  "(possibly incomplete)\n",
                  subject.c_str());
    } else {
      std::printf("%s: clean\n", subject.c_str());
    }
    return;
  }
  std::printf("%s:\n", subject.c_str());
  for (const analysis::Diagnostic& d : report.diagnostics) {
    std::printf("  %s\n", d.format().c_str());
  }
  if (report.truncated) {
    std::printf("  (report TRUNCATED by the analysis budget — findings may be missing)\n");
  }
}

/// --rules mode: the rulebase verifier (R1..R8) with the fuzzer's measured
/// coverage map wired into R8. Prints each finding with its witness command
/// sequence or proof tag; optionally writes every finding as a replayable
/// corpus document under `witness_dir`. Returns true when the report holds
/// error-level findings.
bool run_rulecheck(const std::string& subject, const core::EngineConfig& config, bool builtin,
                   bool as_json, const std::string& witness_dir) {
  // The fuzzer's measured coverage map describes the builtin testbed deck;
  // cross-checking it against a user-supplied deck would flag every
  // difference as "stale". Custom configs get the structural R1..R7 passes
  // (plus R8's dead/steer classification over an empty map, i.e. skipped).
  analysis::RuleCheckReport report = builtin ? scenario::check_rules_with_coverage(config)
                                             : analysis::check_rules(config, {});

  if (as_json) {
    json::Value doc = analysis::rulecheck_to_json(report);
    json::Object wrapped;
    wrapped["subject"] = subject + " · rulebase";
    for (const auto& [key, value] : doc.as_object()) wrapped[key] = value;
    std::printf("%s\n", json::serialize_pretty(json::Value(std::move(wrapped))).c_str());
  } else if (report.findings.empty()) {
    std::printf("%s · rulebase: certified clean (R1..R8)\n", subject.c_str());
  } else {
    std::printf("%s · rulebase:\n", subject.c_str());
    for (const analysis::RuleFinding& f : report.findings) {
      std::printf("  %s\n", f.diagnostic.format().c_str());
      if (f.witness) {
        for (const analysis::WitnessStep& step : f.witness->steps) {
          std::printf("    witness: %s => %s\n", step.cmd.describe().c_str(),
                      step.expect_rule.empty() ? "admitted" : step.expect_rule.c_str());
        }
      }
      if (!f.proof.empty()) std::printf("    proof: %s\n", f.proof.c_str());
    }
  }

  if (!witness_dir.empty()) {
    std::filesystem::create_directories(witness_dir);
    std::size_t index = 0;
    for (const analysis::RuleFinding& f : report.findings) {
      if (!f.witness && f.proof.empty()) continue;
      char name[64];
      std::snprintf(name, sizeof(name), "witness_%03zu_%s", index++,
                    f.diagnostic.rule.c_str());
      json::Value doc = scenario::witness_entry_to_json(name, config, f);
      std::ofstream out(std::filesystem::path(witness_dir) / (std::string(name) + ".json"));
      out << json::serialize_pretty(doc) << "\n";
      if (!out) {
        std::fprintf(stderr, "error: cannot write witness '%s' under '%s'\n", name,
                     witness_dir.c_str());
        std::exit(2);
      }
    }
    std::printf("%s · rulebase: wrote %zu witness file(s) to %s\n", subject.c_str(), index,
                witness_dir.c_str());
  }
  return report.has_errors();
}

int demo_bugs(const core::EngineConfig& config, const analysis::AnalyzeOptions& options,
              bool as_json) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    sim::LabBackend staging(sim::testbed_profile());
    sim::build_hein_testbed_deck(staging);
    std::vector<dev::Command> stream = bug.build(staging);
    analysis::AnalysisReport report = analysis::analyze_stream(config, stream, options);
    print_report(bug.id + " — " + bug.name, report, as_json);
  }
  return 0;
}

/// --fleet mode: phase-1 summaries for every campaign stream (script streams
/// go through the full abstract interpreter, command streams through the
/// degenerate one), then the phase-2 interference checks. Prints each
/// stream's own single-stream report followed by the campaign report.
bool lint_fleet(const core::EngineConfig& config, const std::string& path,
                const analysis::AnalyzeOptions& options, bool as_json, bool strict,
                bool shard_plan, const analysis::ShardPlanOptions& plan_options) {
  std::ifstream in(path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
    std::exit(2);
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();
  fleet::CampaignSpec campaign;
  try {
    campaign = fleet::load_campaign(json::parse(buffer.str()));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: cannot load campaign '%s': %s\n", path.c_str(), e.what());
    std::exit(2);
  }

  bool failed = false;
  std::vector<analysis::StreamSummary> summaries;
  summaries.reserve(campaign.streams.size());
  for (const fleet::CampaignStreamSpec& stream : campaign.streams) {
    analysis::AnalysisReport per_stream;
    if (!stream.commands.empty() || stream.script.empty()) {
      summaries.push_back(analysis::summarize_stream(config, stream.name, stream.commands,
                                                     options, &per_stream));
    } else {
      summaries.push_back(
          analysis::summarize_script(config, stream.name, stream.script, options, &per_stream));
    }
    failed |= per_stream.has_errors() || (strict && per_stream.truncated);
    print_report(path + " · stream '" + stream.name + "'", per_stream, as_json);
  }
  analysis::AnalysisReport interference =
      analysis::check_interference(config, summaries, options);
  failed |= interference.has_errors() || (strict && interference.truncated);
  print_report(path + " · campaign interference", interference, as_json);

  if (shard_plan) {
    analysis::ShardPlan plan = analysis::plan_shards(config, summaries, plan_options);
    failed |= strict && plan.truncated;
    if (as_json) {
      json::Value doc = analysis::plan_to_json(config, summaries, plan);
      json::Object wrapped;
      wrapped["subject"] = path + " · shard plan";
      for (const auto& [key, value] : doc.as_object()) wrapped[key] = value;
      std::printf("%s\n", json::serialize_pretty(json::Value(std::move(wrapped))).c_str());
    } else {
      std::printf("%s · shard plan\n%s", path.c_str(), analysis::format_plan(config, summaries, plan).c_str());
    }
  }
  return failed;
}

}  // namespace

int main(int argc, char** argv) {
  std::string config_path;
  std::string fleet_path;
  bool as_json = false;
  bool config_only = false;
  bool run_rules = false;
  std::string witness_dir;
  bool run_demo_bugs = false;
  bool strict = false;
  bool shard_plan = false;
  analysis::AnalyzeOptions options;
  analysis::ShardPlanOptions plan_options;
  std::vector<std::string> scripts;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    }
    if (arg == "--json") {
      as_json = true;
    } else if (arg == "--config-only") {
      config_only = true;
    } else if (arg == "--rules") {
      run_rules = true;
    } else if (arg == "--witness-dir") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --witness-dir needs a directory argument\n");
        return 2;
      }
      witness_dir = argv[++i];
    } else if (arg == "--demo-bugs") {
      run_demo_bugs = true;
    } else if (arg == "--strict") {
      strict = true;
    } else if (arg == "--shard-plan") {
      shard_plan = true;
    } else if (arg == "--max-shard-streams") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --max-shard-streams needs a number argument\n");
        return 2;
      }
      plan_options.max_shard_streams = tools::number_flag<std::size_t>(arg, argv[++i]);
    } else if (arg == "--max-diagnostics") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --max-diagnostics needs a number argument\n");
        return 2;
      }
      options.max_diagnostics = tools::number_flag(arg, argv[++i], 0);
    } else if (arg == "--fleet") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --fleet needs a campaign file argument\n");
        return 2;
      }
      fleet_path = argv[++i];
    } else if (arg == "--config") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --config needs a file argument\n");
        return 2;
      }
      config_path = argv[++i];
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown option '%s'\n", arg.c_str());
      print_usage(stderr, argv[0]);
      return 2;
    } else {
      scripts.push_back(arg);
    }
  }
  if (scripts.empty() && !config_only && !run_demo_bugs && !run_rules && fleet_path.empty()) {
    print_usage(stderr, argv[0]);
    return 2;
  }
  if (shard_plan && fleet_path.empty()) {
    std::fprintf(stderr, "error: --shard-plan requires --fleet <campaign.json>\n");
    return 2;
  }
  if (!witness_dir.empty() && !run_rules) {
    std::fprintf(stderr, "error: --witness-dir requires --rules\n");
    return 2;
  }

  core::EngineConfig config;
  json::Value config_doc;  // raw document, for keys EngineConfig does not keep
  if (config_path.empty()) {
    config = builtin_testbed_config();
  } else {
    std::ifstream in(config_path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", config_path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    try {
      config_doc = json::parse(buffer.str());
      config = core::config_from_json(config_doc);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "error: cannot load config '%s': %s\n", config_path.c_str(),
                   e.what());
      return 2;
    }
  }

  bool failed = false;

  // The configuration lint always runs: a script verdict against an
  // inconsistent config is meaningless.
  analysis::AnalysisReport config_report = analysis::lint_config(config);

  // CFG11 — recovery-policy lint, when the config carries a "recovery"
  // object (the RecoveryPolicy a Supervisor would be constructed with).
  if (config_doc.is_object()) {
    if (const json::Value* rec = config_doc.as_object().find("recovery")) {
      try {
        analysis::AnalysisReport rec_report =
            analysis::lint_recovery_policy(recovery::policy_from_json(*rec));
        config_report.diagnostics.insert(config_report.diagnostics.end(),
                                         rec_report.diagnostics.begin(),
                                         rec_report.diagnostics.end());
      } catch (const std::exception& e) {
        config_report.diagnostics.push_back(
            analysis::Diagnostic{analysis::Severity::Error, "CFG11", e.what(), 0});
      }
    }
  }
  failed |= config_report.has_errors() || (strict && config_report.truncated);
  if (config_only || !config_report.diagnostics.empty()) {
    print_report(config_path.empty() ? "<builtin testbed config>" : config_path,
                 config_report, as_json);
  }
  if (run_rules) {
    failed |= run_rulecheck(config_path.empty() ? "<builtin testbed config>" : config_path,
                            config, config_path.empty(), as_json, witness_dir);
  }
  if (config_only || (run_rules && scripts.empty() && !run_demo_bugs && fleet_path.empty())) {
    return failed ? 1 : 0;
  }

  if (run_demo_bugs) {
    demo_bugs(config, options, as_json);
    return failed ? 1 : 0;
  }

  if (!fleet_path.empty()) {
    failed |= lint_fleet(config, fleet_path, options, as_json, strict, shard_plan, plan_options);
  }

  for (const std::string& path : scripts) {
    std::ifstream in(path);
    if (!in) {
      std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
      return 2;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();
    analysis::AnalysisReport report = analysis::analyze_script(config, buffer.str(), options);
    failed |= report.has_errors() || (strict && report.truncated);
    print_report(path, report, as_json);
  }
  return failed ? 1 : 0;
}
