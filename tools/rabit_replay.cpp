// rabit_replay — replay a recorded command trace through RABIT offline.
//
// Given a JSONL trace (the format the Supervisor records and RAD uses), this
// tool replays the raw commands on a fresh testbed deck under a chosen RABIT
// variant and reports what would have been blocked — the "test yesterday's
// experiment against today's rulebase" workflow.
//
// Exit codes match rabit_validate: 0 = clean replay, 1 = alerts or damage,
// 2 = usage or parse error.
//
//   usage: rabit_replay <trace.jsonl> [initial|modified|modified+sim]
#include <cstdio>
#include <fstream>
#include <sstream>

#include "bugs/bugs.hpp"
#include "obs/obs.hpp"
#include "trace/trace.hpp"

using namespace rabit;

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [--lenient] [--assurance] [--obs-out <dir>] <trace.jsonl> "
               "[initial|modified|modified+sim]\n"
               "       %s --help\n"
               "\n"
               "Replays the commands of a recorded JSONL trace on a fresh testbed deck\n"
               "under the chosen RABIT variant (default: modified) and reports what the\n"
               "current rulebase would have blocked.\n"
               "\n"
               "  --lenient        skip malformed trace lines (reported with their line\n"
               "                   numbers) instead of aborting on the first one\n"
               "  --assurance      enable the runtime-assurance decision module (needs\n"
               "                   the modified+sim variant): motions whose barrier\n"
               "                   profile dips below the floor are demoted to the\n"
               "                   verified-safe controller instead of executed; the\n"
               "                   summary then reports demotions and each switching\n"
               "                   point\n"
               "  --obs-out <dir>  record per-command observability and write\n"
               "                   events.jsonl, trace.json (Chrome trace, open in\n"
               "                   Perfetto) and metrics.prom into <dir>\n"
               "\n"
               "exit codes: 0 = clean replay, 1 = alerts or damage, 2 = usage/parse error\n",
               argv0, argv0);
}

}  // namespace

int main(int argc, char** argv) {
  bool lenient = false;
  bool assurance_on = false;
  std::string trace_path;
  std::string obs_dir;
  core::Variant variant = core::Variant::Modified;
  bool variant_given = false;

  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      print_usage(stdout, argv[0]);
      return 0;
    }
    if (arg == "--lenient") {
      lenient = true;
    } else if (arg == "--assurance") {
      assurance_on = true;
    } else if (arg == "--obs-out") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: --obs-out needs a directory argument\n");
        return 2;
      }
      obs_dir = argv[++i];
    } else if (trace_path.empty()) {
      trace_path = arg;
    } else if (!variant_given) {
      variant_given = true;
      std::optional<core::Variant> parsed = core::parse_variant(arg);
      if (!parsed) {
        std::fprintf(stderr, "error: unknown variant '%s'\n", arg.c_str());
        return 2;
      }
      variant = *parsed;
    } else {
      print_usage(stderr, argv[0]);
      return 2;
    }
  }
  if (trace_path.empty()) {
    print_usage(stderr, argv[0]);
    return 2;
  }

  std::ifstream in(trace_path);
  if (!in) {
    std::fprintf(stderr, "error: cannot open '%s'\n", trace_path.c_str());
    return 2;
  }
  std::ostringstream buffer;
  buffer << in.rdbuf();

  trace::TraceLog log;
  std::size_t skipped = 0;
  try {
    log = trace::TraceLog::from_jsonl(buffer.str(), /*strict=*/!lenient, &skipped);
  } catch (const trace::TraceParseError& e) {
    std::fprintf(stderr, "error: %s: %s\n", trace_path.c_str(), e.what());
    std::fprintf(stderr, "hint: re-run with --lenient to skip malformed lines\n");
    return 2;
  }
  if (skipped > 0) {
    std::fprintf(stderr, "warning: skipped %zu malformed trace line%s\n", skipped,
                 skipped == 1 ? "" : "s");
  }
  std::vector<dev::Command> commands;
  commands.reserve(log.size());
  for (const trace::TraceRecord& r : log.records()) {
    switch (r.outcome) {
      case trace::Outcome::TransientRetry:
      case trace::Outcome::StatusRepoll:
      case trace::Outcome::SafeState:
      case trace::Outcome::Quarantined:
        // Recovery-ladder artifacts, not script commands: the script command
        // itself has its own record with the final outcome. (A Demoted record
        // IS the script command — the motion the assurance layer refused to
        // forward — so it replays like any other.)
        continue;
      default:
        commands.push_back(r.command);
    }
  }

  obs::Collector events;
  obs::Registry metrics;
  trace::Supervisor::Options sup_options;
  if (!obs_dir.empty()) {
    sup_options.obs_sink = &events;
    sup_options.obs_metrics = &metrics;
  }
  if (assurance_on) {
    if (variant != core::Variant::ModifiedWithSim) {
      std::fprintf(stderr,
                   "error: --assurance needs the modified+sim variant (the decision "
                   "module queries the Extended Simulator's margin profiles)\n");
      return 2;
    }
    sup_options.assurance = assurance::AssuranceConfig{};
  }

  bugs::BugOutcome outcome = bugs::evaluate_stream(commands, variant, sup_options);
  if (!obs_dir.empty()) {
    std::string error;
    if (!obs::write_export_dir(obs_dir, events, metrics, &error)) {
      std::fprintf(stderr, "error: %s\n", error.c_str());
      return 2;
    }
    std::printf("observability written to %s/{events.jsonl,trace.json,metrics.prom}\n",
                obs_dir.c_str());
  }
  std::printf("replayed %zu commands under '%s'\n", commands.size(),
              std::string(core::to_string(variant)).c_str());
  std::printf("  executed steps : %zu\n", outcome.report.steps.size());
  std::printf("  alerts         : %zu\n", outcome.report.alerts);
  if (outcome.report.first_alert_step) {
    const trace::SupervisedStep& s = outcome.report.steps[*outcome.report.first_alert_step];
    std::printf("  first alert    : step %zu, %s\n", *outcome.report.first_alert_step,
                s.alert->describe().c_str());
  }
  std::printf("  damage events  : %zu\n", outcome.report.damage.size());
  for (const sim::DamageEvent& e : outcome.report.damage) {
    std::printf("    [%s] %s\n", std::string(dev::to_string(e.severity)).c_str(),
                e.description.c_str());
  }
  if (assurance_on && outcome.report.recovery) {
    std::printf("  demotions      : %zu\n", outcome.report.recovery->demotions);
    for (const assurance::AssuranceEvent& e : outcome.report.recovery->assurance) {
      std::printf("    %s\n", e.describe().c_str());
    }
  }
  return outcome.report.alerts > 0 || !outcome.report.damage.empty() ? 1 : 0;
}
