#include "core/lab.hpp"

#include "sim/deck.hpp"

namespace rabit::core {

void build_deck(sim::LabBackend& backend, const Lab::Deck& deck) {
  if (deck) {
    deck(backend);
  } else {
    sim::build_hein_testbed_deck(backend);
  }
}

namespace {

/// Builds the deck into `backend`, then derives the engine config from it.
EngineConfig configure(sim::LabBackend& backend, const Lab::Deck& deck, Variant variant) {
  build_deck(backend, deck);
  return config_from_backend(backend, variant);
}

}  // namespace

Lab::Lab(Variant variant, unsigned seed, const Deck& deck, sim::StageProfile profile)
    : backend(std::move(profile), seed), engine(configure(backend, deck, variant)) {
  if (variant != Variant::ModifiedWithSim) return;
  sim::WorldModel world = sim::deck_world_model(backend);
  for (const DeviceMeta& m : engine.config().devices) {
    if (m.is_arm && m.sleep_box) world.add_box(m.id, *m.sleep_box, sim::ObstacleKind::ParkedArm);
  }
  simulator.emplace(std::move(world));
  simulator->set_arm_state_provider([this](std::string_view arm_id) -> std::optional<geom::Vec3> {
    const auto* arm = dynamic_cast<const dev::RobotArmDevice*>(backend.registry().find(arm_id));
    if (arm == nullptr) return std::nullopt;
    return arm->position_lab();
  });
  engine.attach_simulator(&*simulator);
}

}  // namespace rabit::core
