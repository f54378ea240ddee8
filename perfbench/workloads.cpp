#include "workloads.hpp"

#include <random>

#include "core/config.hpp"
#include "devices/robot_arm.hpp"
#include "rad/rad.hpp"
#include "scenario/scenario.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"

namespace perfbench {

using rabit::dev::Command;
namespace fleet = rabit::fleet;
namespace json = rabit::json;
namespace ids = rabit::sim::deck_ids;

std::uint64_t mix_seed(std::uint64_t root, std::uint64_t index) {
  std::uint64_t z = root + (index + 1) * 0x9e3779b97f4a7c15ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

namespace {

Command make(const char* device, const char* action, json::Object args = {}) {
  Command c;
  c.device = device;
  c.action = action;
  c.args = json::Value(std::move(args));
  return c;
}

json::Object one(const char* key, json::Value value) {
  json::Object o;
  o[key] = std::move(value);
  return o;
}

/// One stream of group `group`: kShardedCommandsPerStream commands on that
/// group's device only, each safe whatever order the other streams of the
/// group interleave with it.
std::vector<Command> sharded_stream(std::size_t group, std::mt19937_64& rng) {
  std::vector<Command> cmds;
  auto draw = [&rng](double lo, double hi) {
    return std::uniform_real_distribution<double>(lo, hi)(rng);
  };
  while (cmds.size() < kShardedCommandsPerStream) {
    switch (group) {
      case 0:  // hotplate hazard threshold is 150 C
        cmds.push_back(make(ids::kHotplate, "set_temperature", one("celsius", draw(30.0, 140.0))));
        cmds.push_back(make(ids::kHotplate, "stop"));
        break;
      case 1:  // thermoshaker firmware limit is 110 C
        cmds.push_back(
            make(ids::kThermoshaker, "set_temperature", one("celsius", draw(25.0, 90.0))));
        cmds.push_back(make(ids::kThermoshaker, "stop"));
        break;
      case 2:
        cmds.push_back(make(ids::kCentrifuge, "set_door", one("state", "open")));
        cmds.push_back(make(ids::kCentrifuge, "set_door", one("state", "closed")));
        break;
      case 3:  // the 500 ml reservoir outlasts every draw of a campaign
        cmds.push_back(make(ids::kSyringePump, "draw_solvent", one("volume", draw(0.02, 0.2))));
        break;
      case 4:
        cmds.push_back(make(ids::kDosingDevice, "set_door", one("state", "open")));
        cmds.push_back(make(ids::kDosingDevice, "set_door", one("state", "closed")));
        break;
      case 5:
        cmds.push_back(make(ids::kCamera, "start"));
        cmds.push_back(make(ids::kCamera, "stop"));
        break;
      default:  // the motion group: repeated poses, so the verdict cache hits
        cmds.push_back(make(ids::kViperX, "go_home"));
        cmds.push_back(make(ids::kViperX, "go_sleep"));
        break;
    }
  }
  return cmds;
}

}  // namespace

fleet::CampaignSpec sharded_campaign(std::uint64_t seed) {
  fleet::CampaignSpec spec;
  spec.variant = rabit::core::Variant::ModifiedWithSim;
  spec.seed = static_cast<unsigned>(mix_seed(seed, 0));
  spec.halt_on_alert = false;
  for (std::size_t i = 0; i < kShardedStreams; ++i) {
    std::mt19937_64 rng(mix_seed(seed, 100 + i));
    fleet::CampaignStreamSpec stream;
    stream.name = "stream-" + std::to_string(i);
    stream.commands = sharded_stream(i % kShardedGroups, rng);
    spec.streams.push_back(std::move(stream));
  }
  return spec;
}

std::string contended_campaign_json(std::uint64_t seed) {
  using rabit::scenario::WorkflowKind;
  constexpr WorkflowKind kCycle[] = {WorkflowKind::Testbed, WorkflowKind::Hotplate,
                                     WorkflowKind::Dosing, WorkflowKind::RadDosing,
                                     WorkflowKind::Park};
  rabit::scenario::ScenarioSpec genome;
  genome.seed = mix_seed(seed, 0);
  genome.variant = rabit::core::Variant::ModifiedWithSim;
  genome.halt_on_alert = false;
  for (std::size_t i = 0; i < kContendedStreams; ++i) {
    rabit::scenario::StreamGene gene;
    gene.workflow = kCycle[i % std::size(kCycle)];
    gene.seed = mix_seed(seed, 100 + i) | 1;  // 0 would mean "derive from the master"
    genome.streams.push_back(gene);
  }
  rabit::scenario::MaterializedScenario mat = rabit::scenario::materialize(genome);

  fleet::CampaignSpec spec;
  spec.variant = genome.variant;
  spec.seed = static_cast<unsigned>(mix_seed(seed, 1));
  spec.halt_on_alert = false;
  spec.streams = std::move(mat.streams);
  for (std::size_t i = 0; i < spec.streams.size(); ++i) {
    if (genome.streams[i].workflow != WorkflowKind::Testbed) continue;
    spec.streams[i].commands.clear();
    spec.streams[i].script = rabit::script::testbed_workflow_source();
  }
  return campaign_json(spec);
}

std::vector<Command> motion_session(std::uint64_t seed) {
  rabit::sim::LabBackend staging(rabit::sim::testbed_profile(), session_lab_seed(seed));
  rabit::sim::build_hein_testbed_deck(staging);
  std::mt19937_64 rng(mix_seed(seed, 2));
  std::vector<Command> session;
  for (std::size_t k = 0; k < kSessionExperiments; ++k) {
    std::vector<Command> experiment = rabit::rad::synth_session(staging, rng);
    session.insert(session.end(), experiment.begin(), experiment.end());
  }
  return session;
}

unsigned session_lab_seed(std::uint64_t seed) {
  return static_cast<unsigned>(mix_seed(seed, 3));
}

std::string commands_json(const std::vector<Command>& commands) {
  json::Array out;
  for (const Command& c : commands) {
    json::Object o;
    o["device"] = c.device;
    o["action"] = c.action;
    o["args"] = c.args;
    out.emplace_back(std::move(o));
  }
  return json::serialize(json::Value(std::move(out)));
}

std::string campaign_json(const fleet::CampaignSpec& spec) {
  json::Object doc;
  doc["seed"] = static_cast<std::int64_t>(spec.seed);
  doc["variant"] = spec.variant == rabit::core::Variant::ModifiedWithSim ? "modified+sim"
                   : spec.variant == rabit::core::Variant::Modified      ? "modified"
                                                                         : "initial";
  doc["halt_on_alert"] = spec.halt_on_alert;
  json::Array streams;
  for (const fleet::CampaignStreamSpec& s : spec.streams) {
    json::Object o;
    o["name"] = s.name;
    if (!s.script.empty()) o["script"] = s.script;
    if (!s.commands.empty()) o["commands"] = json::parse(commands_json(s.commands));
    streams.emplace_back(std::move(o));
  }
  doc["streams"] = std::move(streams);
  return json::serialize(json::Value(std::move(doc)));
}

V3Lab::V3Lab(unsigned seed, std::size_t shelf_boxes)
    : backend(rabit::sim::testbed_profile(), seed) {
  rabit::sim::build_hein_testbed_deck(backend);
  rabit::core::EngineConfig config =
      rabit::core::config_from_backend(backend, rabit::core::Variant::ModifiedWithSim);
  rabit::sim::WorldModel world = rabit::sim::deck_world_model(backend);
  for (const rabit::core::DeviceMeta& m : config.devices) {
    if (m.is_arm && m.sleep_box) {
      world.add_box(m.id, *m.sleep_box, rabit::sim::ObstacleKind::ParkedArm);
    }
  }
  // A shelf rack at x >= 8 m, outside every testbed motion path.
  for (std::size_t i = 0; i < shelf_boxes; ++i) {
    double x = 8.0 + 0.3 * static_cast<double>(i % 20);
    double y = 0.3 * static_cast<double>((i / 20) % 20);
    double z = 0.3 * static_cast<double>(i / 400);
    world.add_box("shelf-" + std::to_string(i),
                  rabit::geom::Aabb(rabit::geom::Vec3(x, y, z),
                                    rabit::geom::Vec3(x + 0.25, y + 0.25, z + 0.25)),
                  rabit::sim::ObstacleKind::Equipment);
  }
  simulator.emplace(std::move(world), rabit::sim::ExtendedSimulator::Options{});
  simulator->set_arm_state_provider(
      [this](std::string_view arm_id) -> std::optional<rabit::geom::Vec3> {
        const auto* arm =
            dynamic_cast<const rabit::dev::RobotArmDevice*>(backend.registry().find(arm_id));
        if (arm == nullptr) return std::nullopt;
        return arm->position_lab();
      });
  engine.emplace(std::move(config), rabit::core::HotPathConfig{});
  engine->attach_simulator(&*simulator);
}

}  // namespace perfbench
