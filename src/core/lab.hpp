// core::Lab — one fully assembled RABIT deployment: a lab backend with its
// deck, the engine configured from it, and (V3) the Extended Simulator.
#pragma once

#include <functional>
#include <optional>

#include "core/engine.hpp"
#include "sim/backend.hpp"

namespace rabit::core {

/// The one lab assembly: backend + deck, config_from_backend, and for V3 an
/// Extended Simulator over the deck's world plus every parked arm's sleep
/// box, polling this lab's own arms, attached to the engine. Campaign shards
/// and solo replays, benches, examples and tests all build labs here.
/// Per-caller extras ride on the deck hook (fault schedules, recorded
/// workflows) or, after construction, on simulator->world() (e.g.
/// sim::add_shelf_rack) and simulator->set_gui_enabled(). Built in place and
/// never moved: the simulator's arm-state provider holds the backend's
/// address.
class Lab {
 public:
  /// Populates a fresh backend; must be deterministic for a given seed.
  using Deck = std::function<void(sim::LabBackend&)>;

  /// An empty `deck` builds the Hein testbed deck (sim::build_hein_testbed_deck).
  explicit Lab(Variant variant, unsigned seed = 42, const Deck& deck = {},
               sim::StageProfile profile = sim::testbed_profile());
  Lab(const Lab&) = delete;
  Lab& operator=(const Lab&) = delete;

  sim::LabBackend backend;
  RabitEngine engine;
  std::optional<sim::ExtendedSimulator> simulator;  ///< V3 only
};

/// Runs `deck` on `backend`, or builds the Hein testbed deck when it is empty.
void build_deck(sim::LabBackend& backend, const Lab::Deck& deck);

}  // namespace rabit::core
