// Seeded input generators for the three benchmark workloads, and the V3 lab
// each motion session runs on. Every generator is a pure function of its
// seed: the same seed gives byte-identical inputs (pinned by the tests).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "core/engine.hpp"
#include "fleet/fleet.hpp"
#include "sim/backend.hpp"
#include "sim/extended_sim.hpp"

namespace perfbench {

/// splitmix64 of (root + index * golden gamma): independent child seeds.
[[nodiscard]] std::uint64_t mix_seed(std::uint64_t root, std::uint64_t index);

/// Both campaign workloads size their campaigns so every campaign checks
/// at least 1000 commands: its p99 check latency then has 10 samples beyond.
inline constexpr std::size_t kShardedStreams = 64;
/// campaign_sharded: the six stock stations plus the viperx motion group.
inline constexpr std::size_t kShardedGroups = 7;
inline constexpr std::size_t kShardedCommandsPerStream = 18;
inline constexpr std::size_t kContendedStreams = 72;
/// session_motion: rad::synth_session experiments per session.
inline constexpr std::size_t kSessionExperiments = 4;
/// session_motion: static shelf boxes in the simulator world, all placed
/// outside every testbed motion path so verdicts do not depend on them.
inline constexpr std::size_t kSessionShelfBoxes = 400;

/// campaign_sharded: kShardedStreams streams over disjoint device groups,
/// every command individually and jointly safe, V3, halt_on_alert off.
/// Setpoints and solvent volumes come from the seed.
[[nodiscard]] rabit::fleet::CampaignSpec sharded_campaign(std::uint64_t seed);

/// campaign_contended: kContendedStreams scenario-genome streams cycling
/// testbed, hotplate, dosing, rad_dosing and park on the stock Hein deck, V3,
/// halt_on_alert off. Testbed streams carry DSL script source; the whole
/// campaign is returned as the JSON text fleet::load_campaign reads.
[[nodiscard]] std::string contended_campaign_json(std::uint64_t seed);

/// session_motion: four seeded rad::synth_session dosing experiments back to
/// back, as one command list.
[[nodiscard]] std::vector<rabit::dev::Command> motion_session(std::uint64_t seed);

/// Backend seed of the lab a session runs on.
[[nodiscard]] unsigned session_lab_seed(std::uint64_t seed);

/// The campaign JSON format (fleet::load_campaign). Also the byte-level
/// form the determinism tests compare.
[[nodiscard]] std::string campaign_json(const rabit::fleet::CampaignSpec& spec);
[[nodiscard]] std::string commands_json(const std::vector<rabit::dev::Command>& commands);

/// A fully assembled V3 lab, built the way fleet builds each campaign lab: a
/// Hein testbed backend, a V3 engine, and an Extended Simulator whose world
/// carries the parked-arm sleep boxes plus `shelf_boxes` static shelf boxes
/// (kSessionShelfBoxes for a motion session, 0 for a campaign lab). Built in
/// place and never moved: the simulator's arm-state provider holds the
/// backend's address.
struct V3Lab {
  V3Lab(unsigned seed, std::size_t shelf_boxes);
  V3Lab(const V3Lab&) = delete;
  V3Lab& operator=(const V3Lab&) = delete;

  rabit::sim::LabBackend backend;
  std::optional<rabit::sim::ExtendedSimulator> simulator;
  std::optional<rabit::core::RabitEngine> engine;
};

}  // namespace perfbench
