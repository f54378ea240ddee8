// Standard deck builders: the Hein Lab production deck (Fig. 1a) and the
// low-fidelity testbed deck (Fig. 4). Tests, examples, and benches share
// these so every experiment runs against the same geometry.
#pragma once

#include "sim/backend.hpp"

namespace rabit::sim {

/// Ids used by the standard decks.
namespace deck_ids {
inline constexpr const char* kUr3e = "ur3e";
inline constexpr const char* kViperX = "viperx";
inline constexpr const char* kNed2 = "ned2";
inline constexpr const char* kGrid = "grid";
inline constexpr const char* kDosingDevice = "dosing_device";
inline constexpr const char* kSyringePump = "syringe_pump";
inline constexpr const char* kHotplate = "hotplate";
inline constexpr const char* kCentrifuge = "centrifuge";
inline constexpr const char* kThermoshaker = "thermoshaker";
inline constexpr const char* kCamera = "camera";
inline constexpr const char* kVial1 = "vial_1";
inline constexpr const char* kVial2 = "vial_2";
}  // namespace deck_ids

/// Populates `backend` with the Hein production deck: one UR3e, the five
/// automation stations, a 2x2 vial grid (slots NW/NE/SW/SE), two vials
/// (vial_1 at grid.NW, vial_2 at grid.SE), ground, platform, and walls.
///
/// Both deck builders tune each arm's "home" and "sleep" poses to deck-safe
/// tip positions by inverse kinematics from the fresh arm's joints. Those
/// inputs are constants of the deck, so the poses are solved once per
/// process (thread-safe, on first use) and set on every new arm; an
/// unreachable pose throws std::logic_error on every call.
void build_hein_production_deck(LabBackend& backend);

/// Populates `backend` with the testbed deck: ViperX and Ned2 (separate
/// coordinate frames), cardboard-mockup stations at the same sites, vials,
/// and the same static geometry. Poses are solved once, as above.
void build_hein_testbed_deck(LabBackend& backend);

/// Dense-lab load for a simulator world: `count` static 0.25 m equipment
/// boxes ("shelf-<i>") on a 0.3 m pitch, 20 x 20 per layer, in a shelf rack
/// at x >= 8 m, outside every testbed motion path. Verdicts stay unchanged
/// while each trajectory check scans a production-density world. Add it to
/// a V3 lab's simulator->world(), not through the deck hook: deck
/// obstacles also enter the engine's rule world (config_from_backend's
/// static_obstacles).
void add_shelf_rack(WorldModel& world, std::size_t count);

/// A world model mirroring the deck: the static obstacles, then every
/// device footprint in registry order (vial grids as Grid, the rest as
/// Equipment). With `refined_shapes` a device with a refined shape enters
/// as that shape (the §V-C extension; the ground truth of arm moves), else
/// as its cuboid (what the Extended Simulator and RABIT check against).
[[nodiscard]] WorldModel deck_world_model(const LabBackend& backend, bool refined_shapes = false);

/// JSON describing the cuboid world (what a researcher would hand-write for
/// the Extended Simulator; round-trips through
/// ExtendedSimulator::world_from_json).
[[nodiscard]] json::Value deck_world_json(const LabBackend& backend);

}  // namespace rabit::sim
