#include "rad/rad.hpp"

#include <algorithm>
#include <map>
#include <set>
#include <stdexcept>
#include <string>

#include "devices/robot_arm.hpp"
#include "sim/deck.hpp"

namespace rabit::rad {

using dev::Command;
using geom::Vec3;

// ---------------------------------------------------------------------------
// Abstraction
// ---------------------------------------------------------------------------

std::vector<Event> abstract_events(const std::vector<Command>& commands,
                                   const sim::LabBackend& deck) {
  std::vector<Event> out;
  for (const Command& cmd : commands) {
    Event e;
    if (cmd.action == "set_door") {
      const json::Value* s = cmd.args.find("state");
      if (s != nullptr && s->is_string()) {
        e = (s->as_string() == "open" ? "open:" : "close:") + cmd.device;
      }
    } else if (cmd.action == "move_to") {
      // A move whose target lands inside a doored station is an entry.
      std::optional<Vec3> pos = dev::position_arg(cmd.args);
      const dev::Device* device = deck.registry().find(cmd.device);
      const auto* arm = dynamic_cast<const dev::RobotArmDevice*>(device);
      if (arm != nullptr && pos) {
        Vec3 lab = arm->to_lab(*pos);
        for (const dev::Device* d : deck.registry().all()) {
          if (d->doors().empty()) continue;
          if (auto fp = d->footprint(); fp && fp->inflated(0.01).contains(lab)) {
            e = "enter:" + d->id();
            break;
          }
        }
      }
    } else if (cmd.action == "close_gripper") {
      e = "grab:" + cmd.device;
    } else if (cmd.action == "open_gripper") {
      e = "release:" + cmd.device;
    } else if (cmd.action == "run_action") {
      e = "dose_solid:" + cmd.device;
    } else if (cmd.action == "dose_solvent") {
      e = "dose_liquid:" + cmd.device;
    } else if (cmd.action == "decap") {
      e = "decap:" + cmd.device;
    } else if (cmd.action == "recap") {
      e = "recap:" + cmd.device;
    } else if (cmd.action == "start_spin") {
      e = "spin:" + cmd.device;
    }
    if (!e.empty()) out.push_back(std::move(e));
  }
  return out;
}

// ---------------------------------------------------------------------------
// Generator
// ---------------------------------------------------------------------------

namespace {

Command make(std::string device, std::string action, json::Object args = {}) {
  Command cmd;
  cmd.device = std::move(device);
  cmd.action = std::move(action);
  cmd.args = json::Value(std::move(args));
  return cmd;
}

Command move_cmd(const std::string& arm, const Vec3& local) {
  json::Object args;
  args["position"] = json::Array{local.x, local.y, local.z};
  return make(arm, "move_to", std::move(args));
}

/// One synthetic dosing experiment. Independent steps are deliberately
/// shuffled across sessions so that only genuine orderings survive mining.
/// Generic over the RNG engine: the legacy dataset entry point keeps its
/// std::mt19937, while synth_session threads the scenario factory's
/// std::mt19937_64 master chain.
template <class Rng>
std::vector<Command> synth_experiment(const sim::LabBackend& deck, Rng& rng,
                                      double noise_rate) {
  std::uniform_real_distribution<double> unit(0.0, 1.0);
  std::uniform_real_distribution<double> quantity(2.0, 8.0);
  const char* arm = sim::deck_ids::kViperX;
  const auto* viperx = dynamic_cast<const dev::RobotArmDevice*>(deck.registry().find(arm));
  if (viperx == nullptr) {
    throw std::invalid_argument(std::string("rad session: the deck has no '") + arm + "' arm");
  }
  auto site = [&deck](const char* name) {
    const sim::SiteBinding* s = deck.find_site(name);
    if (s == nullptr) {
      throw std::invalid_argument(std::string("rad session: the deck has no '") + name +
                                  "' site");
    }
    return s;
  };

  const sim::SiteBinding* dosing_site = site("dosing_device");
  const char* slots[] = {"grid.NW", "grid.NE", "grid.SW", "grid.SE"};
  const sim::SiteBinding* grid_site = site(slots[std::uniform_int_distribution<int>(0, 3)(rng)]);

  Vec3 grid_local = viperx->to_local(grid_site->lab_position);
  Vec3 dosing_local = viperx->to_local(dosing_site->lab_position);
  Vec3 lift(0, 0, 0.22);

  std::vector<Command> cmds;
  auto noise = [&] {
    if (unit(rng) < noise_rate) cmds.push_back(make(arm, "go_home"));
  };

  // Preparation: decap and door-open commute freely.
  std::vector<Command> prep;
  prep.push_back(make(sim::deck_ids::kVial1, "decap"));
  prep.push_back(make(sim::deck_ids::kDosingDevice, "set_door",
                      [] { json::Object o; o["state"] = std::string("open"); return o; }()));
  if (unit(rng) < 0.5) std::swap(prep[0], prep[1]);
  for (Command& c : prep) cmds.push_back(std::move(c));
  noise();

  // Fetch the vial and load it into the dosing device.
  cmds.push_back(move_cmd(arm, grid_local + lift));
  cmds.push_back(move_cmd(arm, grid_local));
  cmds.push_back(make(arm, "close_gripper"));
  cmds.push_back(move_cmd(arm, grid_local + lift));
  noise();
  cmds.push_back(move_cmd(arm, dosing_local + lift));
  cmds.push_back(move_cmd(arm, dosing_local));  // entry into the station
  cmds.push_back(make(arm, "open_gripper"));
  cmds.push_back(move_cmd(arm, dosing_local + lift));
  cmds.push_back(make(sim::deck_ids::kDosingDevice, "set_door",
                      [] { json::Object o; o["state"] = std::string("closed"); return o; }()));
  noise();
  cmds.push_back(make(sim::deck_ids::kDosingDevice, "run_action", [&] {
    json::Object o;
    o["quantity"] = quantity(rng);
    o["delay"] = 3;
    return o;
  }()));
  cmds.push_back(make(sim::deck_ids::kDosingDevice, "stop_action"));

  // Optional solvent stage (plants: solid before liquid).
  if (unit(rng) < 0.7) {
    cmds.push_back(make(sim::deck_ids::kSyringePump, "draw_solvent", [] {
      json::Object o;
      o["volume"] = 2.0;
      return o;
    }()));
    cmds.push_back(make(sim::deck_ids::kSyringePump, "dose_solvent", [] {
      json::Object o;
      o["volume"] = 2.0;
      o["target"] = std::string(sim::deck_ids::kVial1);
      return o;
    }()));
    noise();
  }

  // Retrieve the vial.
  cmds.push_back(make(sim::deck_ids::kDosingDevice, "set_door",
                      [] { json::Object o; o["state"] = std::string("open"); return o; }()));
  cmds.push_back(move_cmd(arm, dosing_local + lift));
  cmds.push_back(move_cmd(arm, dosing_local));
  cmds.push_back(make(arm, "close_gripper"));
  cmds.push_back(move_cmd(arm, dosing_local + lift));
  cmds.push_back(move_cmd(arm, grid_local + lift));
  cmds.push_back(move_cmd(arm, grid_local));
  cmds.push_back(make(arm, "open_gripper"));
  cmds.push_back(move_cmd(arm, grid_local + lift));
  cmds.push_back(make(sim::deck_ids::kDosingDevice, "set_door",
                      [] { json::Object o; o["state"] = std::string("closed"); return o; }()));
  noise();
  return cmds;
}

}  // namespace

std::vector<TraceSession> generate_dataset(const sim::LabBackend& deck,
                                           const GeneratorOptions& options) {
  std::mt19937 rng(options.seed);
  std::uniform_int_distribution<int> per_day(options.experiments_per_day_min,
                                             options.experiments_per_day_max);
  std::vector<TraceSession> sessions;
  for (int day = 0; day < options.days; ++day) {
    int n = per_day(rng);
    for (int i = 0; i < n; ++i) {
      sessions.push_back(TraceSession{day, synth_experiment(deck, rng, options.noise_rate)});
    }
  }
  return sessions;
}

std::vector<Command> synth_session(const sim::LabBackend& deck, std::mt19937_64& rng,
                                   double noise_rate) {
  return synth_experiment(deck, rng, noise_rate);
}

// ---------------------------------------------------------------------------
// Miner
// ---------------------------------------------------------------------------

std::string MinedRule::describe() const {
  return antecedent + " must precede " + consequent + " (support " + std::to_string(support) +
         ", confidence " + std::to_string(confidence) + ")";
}

std::vector<MinedRule> mine_rules(const std::vector<std::vector<Event>>& sessions,
                                  const MinerOptions& options) {
  // For each (A, B) pair: how many occurrences of B, and how many of them had
  // an A within the preceding window.
  std::map<std::pair<Event, Event>, std::size_t> preceded;
  std::map<Event, std::size_t> totals;

  for (const std::vector<Event>& session : sessions) {
    for (std::size_t j = 0; j < session.size(); ++j) {
      const Event& b = session[j];
      ++totals[b];
      std::set<Event> seen;
      std::size_t start = j > options.window ? j - options.window : 0;
      for (std::size_t i = start; i < j; ++i) {
        if (session[i] != b) seen.insert(session[i]);
      }
      for (const Event& a : seen) ++preceded[{a, b}];
    }
  }

  std::vector<MinedRule> rules;
  for (const auto& [pair, count] : preceded) {
    std::size_t total = totals[pair.second];
    if (total < options.min_support) continue;
    double confidence = static_cast<double>(count) / static_cast<double>(total);
    if (confidence < options.min_confidence) continue;
    rules.push_back(MinedRule{pair.first, pair.second, total, confidence});
  }
  std::sort(rules.begin(), rules.end(), [](const MinedRule& x, const MinedRule& y) {
    return x.confidence > y.confidence ||
           (x.confidence == y.confidence && x.support > y.support);
  });
  return rules;
}

std::vector<std::pair<Event, Event>> planted_rules() {
  return {
      {"open:dosing_device", "enter:dosing_device"},     // Table III rule 1
      {"close:dosing_device", "dose_solid:dosing_device"},  // Table III rule 9
      {"dose_solid:dosing_device", "dose_liquid:syringe_pump"},  // Table IV rule 1
      {"decap:vial_1", "dose_solid:dosing_device"},      // Table III rule 7
      {"grab:viperx", "release:viperx"},                 // pick before place
  };
}

double MiningScore::precision() const {
  std::size_t denom = true_positives + false_positives;
  return denom == 0 ? 0.0 : static_cast<double>(true_positives) / static_cast<double>(denom);
}

double MiningScore::recall() const {
  std::size_t denom = true_positives + false_negatives;
  return denom == 0 ? 0.0 : static_cast<double>(true_positives) / static_cast<double>(denom);
}

MiningScore score_mining(const std::vector<MinedRule>& mined) {
  auto planted = planted_rules();
  // Regularities that genuinely hold in the workflows but are implied by (or
  // weaker than) the planted constraints; mining them is sound, not a false
  // positive.
  const std::vector<std::pair<Event, Event>> implied = {
      {"open:dosing_device", "dose_solid:dosing_device"},
      {"open:dosing_device", "grab:viperx"},
      {"open:dosing_device", "release:viperx"},
      {"open:dosing_device", "close:dosing_device"},
      {"open:dosing_device", "dose_liquid:syringe_pump"},
      {"enter:dosing_device", "release:viperx"},
      {"enter:dosing_device", "close:dosing_device"},
      {"enter:dosing_device", "dose_solid:dosing_device"},
      {"enter:dosing_device", "dose_liquid:syringe_pump"},
      {"grab:viperx", "enter:dosing_device"},
      {"grab:viperx", "close:dosing_device"},
      {"grab:viperx", "dose_solid:dosing_device"},
      {"grab:viperx", "dose_liquid:syringe_pump"},
      {"release:viperx", "close:dosing_device"},
      {"release:viperx", "dose_solid:dosing_device"},
      {"release:viperx", "dose_liquid:syringe_pump"},
      {"close:dosing_device", "dose_liquid:syringe_pump"},
      {"decap:vial_1", "enter:dosing_device"},
      {"decap:vial_1", "grab:viperx"},
      {"decap:vial_1", "release:viperx"},
      {"decap:vial_1", "close:dosing_device"},
      {"decap:vial_1", "dose_liquid:syringe_pump"},
      {"dose_solid:dosing_device", "open:dosing_device"},  // dose precedes reopen
  };

  MiningScore score;
  std::set<std::pair<Event, Event>> found;
  for (const MinedRule& r : mined) {
    std::pair<Event, Event> key{r.antecedent, r.consequent};
    if (std::find(planted.begin(), planted.end(), key) != planted.end()) {
      ++score.true_positives;
      found.insert(key);
    } else if (std::find(implied.begin(), implied.end(), key) == implied.end()) {
      ++score.false_positives;
    }
  }
  for (const auto& rule : planted) {
    if (!found.contains(rule)) ++score.false_negatives;
  }
  return score;
}

}  // namespace rabit::rad
