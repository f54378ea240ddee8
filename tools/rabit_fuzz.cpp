// rabit_fuzz — coverage-guided campaign fuzzing for the scenario factory.
//
// Drives scenario::fuzz(): seed-deterministic generation and mutation of
// whole campaigns (workflow mixes, fault schedules, config perturbations,
// script probes), steered toward still-dark combinations of runtime rules,
// analyzer diagnostics, and recovery/assurance rungs. Any soundness-oracle
// failure (static_miss, interference_miss, shard_divergence,
// certificate_breach, false_alarm, false_halt) is shrunk to a minimal
// reproduction and written as a corpus entry the tier-1 corpus gate replays
// with its verdict pinned.
//
//   usage: rabit_fuzz [--seed N] [--iterations N] [--time-budget-s S]
//                     [--corpus DIR] [--save-repros DIR] [--out FILE]
//                     [--no-shrink] [--min-coverage F]
//          rabit_fuzz --replay <entry.json>     (re-run one corpus entry)
//          rabit_fuzz --replay-seed N           (run one generated scenario)
//          rabit_fuzz --corpus-smoke DIR        (fast corpus gate, no fuzzing)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "cli_number.hpp"
#include "scenario/fuzz.hpp"

using namespace rabit;

namespace {

void print_usage(std::FILE* out, const char* argv0) {
  std::fprintf(out,
               "usage: %s [options]\n"
               "  --seed N           master fuzz seed (default 1)\n"
               "  --iterations N     scenario budget (default 200)\n"
               "  --time-budget-s S  wall-clock cap; 0 = iterations only\n"
               "  --corpus DIR       warm-start from checked-in corpus entries\n"
               "  --save-repros DIR  write shrunk failure repros as corpus entries\n"
               "  --out FILE         write the JSON coverage report\n"
               "  --no-shrink        keep failing scenarios unshrunk\n"
               "  --min-coverage F   exit 1 unless coverage_fraction >= F\n"
               "  --replay FILE      re-run one corpus entry, check its pinned verdict\n"
               "  --replay-seed N    run the generated scenario for seed N, print verdict\n"
               "  --corpus-smoke DIR replay a corpus directory, verdicts pinned\n"
               "  --help\n",
               argv0);
}

std::string read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::stringstream buffer;
  buffer << in.rdbuf();
  return buffer.str();
}

void print_verdict(const scenario::ScenarioVerdict& verdict) {
  std::printf("%s\n", json::serialize_pretty(scenario::verdict_to_json(verdict)).c_str());
}

int replay_entry(const scenario::CorpusEntry& entry) {
  std::printf("replay %s: %s\n", entry.name.c_str(), scenario::describe(entry.spec).c_str());
  scenario::ScenarioResult result = scenario::run_scenario(entry.spec);
  if (result.verdict == entry.verdict) {
    std::printf("  verdict pinned (%zu alert(s), %zu oracle failure(s))\n",
                entry.verdict.alerts.size(), entry.verdict.oracle_failures.size());
    return 0;
  }
  std::fprintf(stderr, "  VERDICT DRIFT — recorded:\n%s\n  got:\n%s\n",
               json::serialize_pretty(scenario::verdict_to_json(entry.verdict)).c_str(),
               json::serialize_pretty(scenario::verdict_to_json(result.verdict)).c_str());
  return 1;
}

int replay_file(const std::string& path) {
  json::Value doc = json::parse(read_file(path));
  // Rulebase-verifier witness documents (rabit_lint --rules --witness-dir)
  // replay through a fresh engine instead of a campaign run.
  if (scenario::is_witness_entry(doc)) {
    scenario::WitnessEntryReplay replay = scenario::replay_witness_entry(doc);
    std::printf("witness %s: %s (%s)\n", replay.name.c_str(),
                replay.confirmed ? "CONFIRMED" : "UNCONFIRMED", replay.detail.c_str());
    return replay.confirmed ? 0 : 1;
  }
  // Accept both a full corpus entry and a bare spec (no pinned verdict).
  if (doc.find("spec") != nullptr) {
    return replay_entry(scenario::corpus_entry_from_json(doc));
  }
  scenario::ScenarioSpec spec = scenario::spec_from_json(doc);
  std::printf("replay: %s\n", scenario::describe(spec).c_str());
  print_verdict(scenario::run_scenario(spec).verdict);
  return 0;
}

int replay_seed(std::uint64_t seed) {
  scenario::ScenarioSpec spec = scenario::generate(seed);
  std::printf("seed %llu: %s\n", static_cast<unsigned long long>(seed),
              scenario::describe(spec).c_str());
  print_verdict(scenario::run_scenario(spec).verdict);
  return 0;
}

int corpus_smoke(const std::string& dir) {
  std::vector<scenario::CorpusEntry> corpus = scenario::load_corpus_dir(dir);
  if (corpus.empty()) {
    std::fprintf(stderr, "corpus-smoke: no entries under %s\n", dir.c_str());
    return 2;
  }
  int failures = 0;
  for (const scenario::CorpusEntry& entry : corpus) {
    failures += replay_entry(entry) != 0 ? 1 : 0;
  }
  std::printf("corpus-smoke: %zu entr%s, %d drift(s)\n", corpus.size(),
              corpus.size() == 1 ? "y" : "ies", failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  scenario::FuzzOptions options;
  std::string corpus_dir;
  std::string repro_dir;
  std::string out_path;
  double min_coverage = -1.0;

  try {
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      auto next = [&]() -> std::string {
        if (i + 1 >= argc) throw std::runtime_error(arg + " needs a value");
        return argv[++i];
      };
      if (arg == "--help" || arg == "-h") {
        print_usage(stdout, argv[0]);
        return 0;
      } else if (arg == "--seed") {
        options.seed = tools::number_flag<std::uint64_t>(arg, next());
      } else if (arg == "--iterations") {
        options.iterations = tools::number_flag<std::size_t>(arg, next());
      } else if (arg == "--time-budget-s") {
        options.time_budget_s = tools::number_flag(arg, next(), 0.0);
      } else if (arg == "--corpus") {
        corpus_dir = next();
      } else if (arg == "--save-repros") {
        repro_dir = next();
      } else if (arg == "--out") {
        out_path = next();
      } else if (arg == "--no-shrink") {
        options.shrink_failures = false;
      } else if (arg == "--min-coverage") {
        min_coverage = tools::number_flag(arg, next(), 0.0, 1.0);
      } else if (arg == "--replay") {
        return replay_file(next());
      } else if (arg == "--replay-seed") {
        return replay_seed(tools::number_flag<std::uint64_t>(arg, next()));
      } else if (arg == "--corpus-smoke") {
        return corpus_smoke(next());
      } else {
        std::fprintf(stderr, "unknown argument: %s\n", arg.c_str());
        print_usage(stderr, argv[0]);
        return 2;
      }
    }

    if (!corpus_dir.empty()) {
      for (scenario::CorpusEntry& entry : scenario::load_corpus_dir(corpus_dir)) {
        options.corpus.push_back(std::move(entry.spec));
      }
    }

    scenario::FuzzReport report = scenario::fuzz(options);

    std::printf("fuzz: %zu iteration(s) in %.1fs, %zu coverage key(s) (%.0f%% of reachable)\n",
                report.iterations, report.wall_s, report.coverage.size(),
                100.0 * report.coverage_fraction());
    for (const char* family : {"rule:", "diag:", "cfg:", "ifr:", "shard:", "rung:"}) {
      std::printf("  %-7s %zu\n", family, report.coverage.count_prefix(family));
    }
    for (const scenario::CorpusEntry& repro : report.repros) {
      std::printf("  repro %s: %s\n", repro.name.c_str(), scenario::describe(repro.spec).c_str());
      // Repros come from mutation + shrinking, so generate(seed) does not
      // rebuild them; the spec itself is the replay artifact.
      std::printf("    replay: rabit_fuzz --replay <(echo '%s')\n",
                  json::serialize(scenario::spec_to_json(repro.spec)).c_str());
    }

    if (!repro_dir.empty()) {
      for (const scenario::CorpusEntry& repro : report.repros) {
        std::string error;
        if (!scenario::save_corpus_entry(repro_dir, repro, &error)) {
          std::fprintf(stderr, "save-repros: %s\n", error.c_str());
          return 2;
        }
      }
    }
    if (!out_path.empty()) {
      std::ofstream out(out_path);
      out << json::serialize_pretty(report.to_json()) << '\n';
      if (!out.good()) {
        std::fprintf(stderr, "cannot write %s\n", out_path.c_str());
        return 2;
      }
    }

    if (!report.repros.empty()) {
      std::fprintf(stderr, "fuzz: %zu soundness repro(s) found\n", report.repros.size());
      return 1;
    }
    if (min_coverage >= 0.0 && report.coverage_fraction() < min_coverage) {
      std::fprintf(stderr, "fuzz: coverage %.2f below required %.2f\n",
                   report.coverage_fraction(), min_coverage);
      return 1;
    }
    return 0;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "rabit_fuzz: %s\n", e.what());
    return 2;
  }
}
