// The 120-campaign interference sweep: two or three seeded mutations of the
// recorded Fig. 5 workflow racing on the shared testbed. The slow
// differential suite runs these campaigns for real; the tier-1 shard-plan
// suite reads only their static summaries.
#pragma once

#include <random>
#include <string>
#include <vector>

#include "bugs/bugs.hpp"
#include "fleet/fleet.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"

namespace rabit::sweep {

inline constexpr unsigned kSeedBase = 31000;
inline constexpr unsigned kSeedCount = 120;  // >= 100 campaigns, per the acceptance bar

inline core::EngineConfig testbed_config() {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  return core::config_from_backend(backend, core::Variant::Modified);
}

inline const std::vector<dev::Command>& base_workflow() {
  static const std::vector<dev::Command> base = [] {
    sim::LabBackend staging(sim::testbed_profile());
    sim::build_hein_testbed_deck(staging);
    return script::record_workflow(staging, script::testbed_workflow_source());
  }();
  return base;
}

/// Same stacking idiom as differential_test.cpp: 1-3 seeded random mutations
/// on the recorded Fig. 5 workflow.
inline std::vector<dev::Command> mutated_stream(const std::vector<dev::Command>& base,
                                                unsigned seed) {
  std::mt19937 rng(seed);
  std::vector<dev::Command> commands = base;
  int mutations = 1 + static_cast<int>(seed % 3);
  for (int i = 0; i < mutations; ++i) {
    commands = bugs::random_mutation(commands, rng).commands;
  }
  return commands;
}

/// The campaign for one sweep seed: two or three mutated copies of the
/// workflow racing on the shared testbed.
inline fleet::CampaignSpec campaign_for(unsigned seed) {
  fleet::CampaignSpec spec;
  spec.variant = core::Variant::Modified;
  spec.seed = seed;
  std::size_t n_streams = 2 + seed % 2;
  for (std::size_t s = 0; s < n_streams; ++s) {
    fleet::CampaignStreamSpec stream;
    stream.name = "s" + std::to_string(s);
    stream.commands = mutated_stream(base_workflow(), seed * 13 + static_cast<unsigned>(s) * 7);
    spec.streams.push_back(std::move(stream));
  }
  return spec;
}

}  // namespace rabit::sweep
