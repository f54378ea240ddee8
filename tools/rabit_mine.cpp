// rabit_mine — mine precedence rules from lab command traces (§II-A).
//
// With no arguments, generates a synthetic Robot Arm Dataset and mines it.
// Given JSONL trace files, mines those instead (one session per file).
//
//   usage: rabit_mine [--days N] [--min-support N] [--min-confidence F]
//                     [trace.jsonl ...]
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <vector>

#include "cli_number.hpp"
#include "rad/rad.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

using namespace rabit;

int main(int argc, char** argv) {
  int days = 90;
  rad::MinerOptions miner;
  std::vector<std::string> files;
  for (int i = 1; i < argc; ++i) {
    std::string arg = argv[i];
    auto next = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--days") {
      days = tools::number_flag(arg, next(), 0);
    } else if (arg == "--min-support") {
      miner.min_support = tools::number_flag<std::size_t>(arg, next());
    } else if (arg == "--min-confidence") {
      miner.min_confidence = tools::number_flag(arg, next(), 0.0, 1.0);
    } else if (arg.rfind("--", 0) == 0) {
      std::fprintf(stderr, "error: unknown flag '%s'\n", arg.c_str());
      return 2;
    } else {
      files.push_back(arg);
    }
  }

  sim::LabBackend deck(sim::testbed_profile());
  sim::build_hein_testbed_deck(deck);

  std::vector<std::vector<rad::Event>> sessions;
  if (files.empty()) {
    rad::GeneratorOptions gen;
    gen.days = days;
    for (const rad::TraceSession& s : rad::generate_dataset(deck, gen)) {
      sessions.push_back(rad::abstract_events(s.commands, deck));
    }
    std::printf("synthetic dataset: %d days, %zu sessions\n", days, sessions.size());
  } else {
    for (const std::string& path : files) {
      std::ifstream in(path);
      if (!in) {
        std::fprintf(stderr, "error: cannot open '%s'\n", path.c_str());
        return 2;
      }
      std::ostringstream buffer;
      buffer << in.rdbuf();
      trace::TraceLog log = trace::TraceLog::from_jsonl(buffer.str());
      std::vector<dev::Command> commands;
      for (const trace::TraceRecord& r : log.records()) commands.push_back(r.command);
      sessions.push_back(rad::abstract_events(commands, deck));
    }
    std::printf("loaded %zu trace session(s)\n", sessions.size());
    // Small hand-recorded datasets need a proportionally lower floor.
    miner.min_support = std::min(miner.min_support, std::max<std::size_t>(1, sessions.size()));
  }

  auto mined = rad::mine_rules(sessions, miner);
  std::printf("mined %zu rule(s) (support >= %zu, confidence >= %.2f):\n", mined.size(),
              miner.min_support, miner.min_confidence);
  for (const rad::MinedRule& r : mined) {
    std::printf("  %s\n", r.describe().c_str());
  }
  return 0;
}
