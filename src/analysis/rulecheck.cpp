#include "analysis/rulecheck.hpp"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/engine.hpp"
#include "core/rules.hpp"
#include "core/tracker.hpp"

namespace rabit::analysis {

using core::DeviceMeta;
using core::EngineConfig;
using core::SiteMeta;
using core::SoftWallSpec;
using core::ThresholdSpec;
using core::ValueBinding;

namespace {

// ---------------------------------------------------------------------------
// Small helpers
// ---------------------------------------------------------------------------

dev::Command make_cmd(std::string device, std::string action, json::Object args = {}) {
  dev::Command cmd;
  cmd.device = std::move(device);
  cmd.action = std::move(action);
  cmd.args = json::Value(std::move(args));
  return cmd;
}

json::Array vec_to_json(const geom::Vec3& v) {
  json::Array a;
  a.emplace_back(v.x);
  a.emplace_back(v.y);
  a.emplace_back(v.z);
  return a;
}

std::string fmt_number(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

bool aabb_contains_aabb(const geom::Aabb& outer, const geom::Aabb& inner) {
  return outer.min.x <= inner.min.x && outer.min.y <= inner.min.y &&
         outer.min.z <= inner.min.z && inner.max.x <= outer.max.x &&
         inner.max.y <= outer.max.y && inner.max.z <= outer.max.z;
}

/// The runtime rulebase ids — the vocabulary R5 compares across the two
/// evaluation paths (A-rules are analyzer-only by design and never count as
/// a divergence).
bool is_runtime_rule(const std::string& rule) {
  static const std::set<std::string> kRuntime = {
      "G1", "G2", "G3", "G4", "G5", "G6", "G7", "G8", "G9", "G10",
      "G11", "C1", "C2", "C3", "C4", "M1", "M2", "S1"};
  return kRuntime.contains(rule);
}

/// Arguments whose physical domain is provably non-negative (amounts,
/// volumes, rates, durations) — the value domains R3 evaluates threshold
/// intervals against. Temperatures are deliberately absent: Celsius is
/// signed.
bool non_negative_domain(const std::string& argument) {
  static const std::set<std::string> kNonNegative = {
      "volume", "quantity", "ml", "mg", "rpm", "duration", "seconds", "speed"};
  return kNonNegative.contains(argument);
}

/// Table II rows whose precondition column is "none": an unconstrained
/// probe on these is the documented design, not an R6 coverage gap.
bool unconstrained_by_design(const std::string& action) {
  static const std::set<std::string> kFree = {"stop", "stop_action", "stop_spin", "status",
                                              "decap", "recap"};
  return kFree.contains(action);
}

const ThresholdSpec* find_threshold(const DeviceMeta& meta, const std::string& action) {
  for (const ThresholdSpec& t : meta.thresholds) {
    if (t.action == action) return &t;
  }
  return nullptr;
}

// ---------------------------------------------------------------------------
// Probe synthesis — one representative concrete command per device/action,
// shared by the R5 sweep and the witness builders.
// ---------------------------------------------------------------------------

std::optional<json::Object> synth_args(const EngineConfig& config, const DeviceMeta& meta,
                                       const std::string& canonical) {
  json::Object args;
  if (meta.is_arm) {
    if (canonical == "move_to") {
      // Arm-frame coordinates of the configured home target: reachable by
      // construction, collision status decided identically on both paths.
      geom::Vec3 local = meta.base.inverse().apply(meta.home_position_lab);
      args["position"] = json::Value(vec_to_json(local));
      return args;
    }
    if (canonical == "go_home" || canonical == "go_sleep" || canonical == "open_gripper" ||
        canonical == "close_gripper") {
      return args;
    }
    if (canonical == "pick_object" || canonical == "place_object") {
      for (const SiteMeta& s : config.sites) {
        if (s.is_grid_slot()) {
          args["site"] = s.name;
          return args;
        }
      }
      if (!config.sites.empty()) {
        args["site"] = config.sites.front().name;
        return args;
      }
      return std::nullopt;
    }
    return std::nullopt;
  }

  if (canonical == "set_door") {
    args["state"] = std::string("open");
    if (!meta.multi_doors.empty()) args["door"] = meta.multi_doors.front().name;
    return args;
  }
  if (canonical == "dose_solvent") {
    for (const DeviceMeta& d : config.devices) {
      if (d.category == dev::DeviceCategory::Container) {
        args["target"] = d.id;
        args["volume"] = 0.1;
        return args;
      }
    }
    return std::nullopt;
  }
  if (canonical == "draw_solvent") {
    args["volume"] = 0.1;
    return args;
  }
  if (canonical == "run_action") {
    args["quantity"] = 1.0;
    return args;
  }
  for (const ValueBinding& b : meta.value_bindings) {
    if (b.action == canonical) {
      // Probe above any threshold on the canonical action: a guarded probe
      // blocks G11 identically on both paths, while an alias issued with the
      // raw name exposes the engine/analyzer divergence (R5).
      const ThresholdSpec* t = find_threshold(meta, canonical);
      args[b.argument] = t ? t->max + 1.0 : 1.0;
      return args;
    }
  }
  // Thresholded actions without a binding still probe above the limit so
  // the guard actually decides something on both paths.
  if (const ThresholdSpec* t = find_threshold(meta, canonical)) {
    args[t->argument] = t->max + 1.0;
    return args;
  }
  // Remaining vocabulary actions (stop, status, active actions without a
  // bound argument, ...) probe with no arguments.
  return args;
}

// ---------------------------------------------------------------------------
// Witness validation during synthesis
// ---------------------------------------------------------------------------

/// Validates a candidate witness against the real engine; only confirmed
/// candidates become evidence (the differential gate downstream demands
/// zero unconfirmed witnesses, so an unconfirmable candidate suppresses its
/// finding rather than shipping prose).
bool validate(const EngineConfig& config, const RuleWitness& witness) {
  return replay_witness(config, witness).confirmed;
}

RuleWitness single_step(dev::Command cmd, std::string expect) {
  RuleWitness w;
  w.steps.push_back(WitnessStep{std::move(cmd), std::move(expect)});
  return w;
}

// ---------------------------------------------------------------------------
// The checks
// ---------------------------------------------------------------------------

struct Emitter {
  const EngineConfig& config;
  std::vector<RuleFinding>& findings;

  void emit(Severity severity, std::string rule, std::string message,
            std::vector<std::string> subjects, std::optional<RuleWitness> witness,
            std::string proof) {
    RuleFinding f;
    f.diagnostic.severity = severity;
    f.diagnostic.rule = std::move(rule);
    f.diagnostic.message = std::move(message);
    f.diagnostic.line = 0;
    f.diagnostic.subjects = std::move(subjects);
    f.witness = std::move(witness);
    f.proof = std::move(proof);
    findings.push_back(std::move(f));
  }

  void witness_finding(Severity severity, std::string rule, std::string message,
                       std::vector<std::string> subjects, RuleWitness witness) {
    if (!validate(config, witness)) return;  // witness-or-silent: no prose-only findings
    emit(severity, std::move(rule), std::move(message), std::move(subjects), std::move(witness),
         "");
  }

  void proof_finding(Severity severity, std::string rule, std::string message,
                     std::vector<std::string> subjects, std::string proof) {
    emit(severity, std::move(rule), std::move(message), std::move(subjects), std::nullopt,
         std::move(proof));
  }
};

// R1a — duplicate thresholds on one action: DeviceMeta::threshold_for is
// first-match by action name, so every later spec is dead.
void check_shadowed_thresholds(Emitter& em) {
  for (const DeviceMeta& d : em.config.devices) {
    for (std::size_t i = 0; i < d.thresholds.size(); ++i) {
      for (std::size_t j = i + 1; j < d.thresholds.size(); ++j) {
        const ThresholdSpec& first = d.thresholds[i];
        const ThresholdSpec& second = d.thresholds[j];
        if (first.action != second.action) continue;

        std::ostringstream msg;
        msg << "device '" << d.id << "' declares two thresholds on action '" << first.action
            << "' (" << first.argument << " <= " << first.max << " and " << second.argument
            << " <= " << second.max
            << "): threshold lookup is first-match, the second is dead";

        // A value distinguishing the live threshold from the dead one.
        RuleWitness candidate;
        if (first.max < second.max) {
          // Engine blocks what the dead spec would admit.
          double v = second.max;
          json::Object args;
          args[first.argument] = v;
          candidate = single_step(make_cmd(d.id, first.action, std::move(args)), "G11");
        } else if (first.max > second.max) {
          // Engine admits what the dead spec claims to block.
          double v = first.max;
          json::Object args;
          args[first.argument] = v;
          if (second.argument != first.argument) args[second.argument] = second.max + 1.0;
          candidate = single_step(make_cmd(d.id, first.action, std::move(args)), "");
        } else {
          // Identical bound: the duplicate is redundant; both block above it.
          json::Object args;
          args[first.argument] = first.max + 1.0;
          candidate = single_step(make_cmd(d.id, first.action, std::move(args)), "G11");
        }
        if (!validate(em.config, candidate)) {
          // Another rule pre-empts the admitted direction; fall back to the
          // always-demonstrable blocked direction (G11 runs first).
          json::Object args;
          args[first.argument] = std::max(first.max, second.max) + 1.0;
          candidate = single_step(make_cmd(d.id, first.action, std::move(args)), "G11");
        }
        em.witness_finding(Severity::Error, "R1", msg.str(), {d.id, first.action},
                           std::move(candidate));
      }
    }
  }
}

// R1b — a soft wall wholly contained in another wall of the same arm can
// never be the deciding rule: the outer wall subsumes it.
void check_shadowed_walls(Emitter& em) {
  const auto& walls = em.config.soft_walls;
  for (std::size_t i = 0; i < walls.size(); ++i) {
    for (std::size_t j = 0; j < walls.size(); ++j) {
      if (i == j) continue;
      if (walls[i].arm_id != walls[j].arm_id) continue;
      if (!aabb_contains_aabb(walls[i].forbidden, walls[j].forbidden)) continue;
      // Equal boxes contain each other; report the later duplicate once.
      if (aabb_contains_aabb(walls[j].forbidden, walls[i].forbidden) && j < i) continue;

      const DeviceMeta* arm = em.config.find_device(walls[i].arm_id);
      if (arm == nullptr || !arm->is_arm) continue;  // R4's finding, not R1's
      std::ostringstream msg;
      msg << "soft wall " << j << " for arm '" << walls[j].arm_id
          << "' lies entirely inside soft wall " << i
          << ": the outer wall subsumes it, the inner wall is dead";

      geom::Vec3 local = arm->base.inverse().apply(walls[j].forbidden.center());
      json::Object args;
      args["position"] = json::Value(vec_to_json(local));
      em.witness_finding(Severity::Error, "R1", msg.str(),
                         {walls[j].arm_id, "soft_wall[" + std::to_string(j) + "]"},
                         single_step(make_cmd(walls[j].arm_id, "move_to", std::move(args)),
                                     "M2"));
    }
  }
}

// R2 — contradictory guards: time multiplexing (M1) demands every other arm
// be asleep before any motion, while a soft wall swallowing this arm's own
// sleep target (M2) forbids it from ever going to sleep. Once the arm is
// awake, no command sequence satisfies both rule families again.
void check_contradictory_guards(Emitter& em) {
  const EngineConfig& config = em.config;
  if (!config.time_multiplex || config.variant == core::Variant::Initial) return;

  std::vector<const DeviceMeta*> arms;
  for (const DeviceMeta& d : config.devices) {
    if (d.is_arm) arms.push_back(&d);
  }
  if (arms.size() < 2) return;  // M1 has nothing to demand; R3 covers the wall alone

  for (const SoftWallSpec& w : config.soft_walls) {
    const DeviceMeta* arm = config.find_device(w.arm_id);
    if (arm == nullptr || !arm->is_arm) continue;
    if (!w.forbidden.contains(arm->sleep_position_lab)) continue;

    const DeviceMeta* other = nullptr;
    for (const DeviceMeta* a : arms) {
      if (a->id != arm->id) {
        other = a;
        break;
      }
    }
    std::ostringstream msg;
    msg << "contradictory guards on arm '" << arm->id
        << "': its soft wall contains its own sleep target, so M2 blocks go_sleep while "
           "time multiplexing (M1) blocks every other arm until it sleeps — once awake, no "
           "command satisfies both";

    RuleWitness candidate;
    candidate.steps.push_back(WitnessStep{make_cmd(arm->id, "go_home"), ""});
    candidate.steps.push_back(WitnessStep{make_cmd(arm->id, "go_sleep"), "M2"});
    if (other != nullptr) {
      candidate.steps.push_back(WitnessStep{make_cmd(other->id, "go_home"), "M1"});
    }
    if (!validate(config, candidate)) {
      candidate.steps.clear();
      candidate.steps.push_back(WitnessStep{make_cmd(arm->id, "go_sleep"), "M2"});
    }
    em.witness_finding(Severity::Error, "R2", msg.str(), {arm->id, "M1", "M2"},
                       std::move(candidate));
  }
}

// R3 — unsatisfiable preconditions: admissible sets that are empty under
// the argument value domains, and fixed motion targets inside the arm's own
// forbidden region. No command can exist, so the evidence is a proof tag.
void check_unsatisfiable(Emitter& em) {
  const EngineConfig& config = em.config;
  for (const DeviceMeta& d : config.devices) {
    for (const ThresholdSpec& t : d.thresholds) {
      if (t.max < 0.0 && non_negative_domain(t.argument)) {
        std::ostringstream msg;
        msg << "device '" << d.id << "' threshold " << t.action << "." << t.argument
            << " <= " << t.max << " admits nothing: the argument's domain is [0,inf)";
        em.proof_finding(Severity::Error, "R3", msg.str(), {d.id, t.action},
                         "R3:empty-admissible:" + d.id + ":" + t.action + ":" + t.argument +
                             ":domain=[0,inf):max=" + fmt_number(t.max));
      }
    }
  }
  for (const SoftWallSpec& w : config.soft_walls) {
    const DeviceMeta* arm = config.find_device(w.arm_id);
    if (arm == nullptr || !arm->is_arm) continue;
    if (config.variant == core::Variant::Initial) continue;  // M2 is V2+
    struct Fixed {
      const char* pose;
      const char* action;
      geom::Vec3 target;
    };
    for (const Fixed& f : {Fixed{"home", "go_home", arm->home_position_lab},
                           Fixed{"sleep", "go_sleep", arm->sleep_position_lab}}) {
      if (!w.forbidden.contains(f.target)) continue;
      std::ostringstream msg;
      msg << "arm '" << arm->id << "' " << f.pose
          << " target lies inside its own soft wall: " << f.action
          << " can never satisfy M2";
      em.proof_finding(Severity::Error, "R3", msg.str(), {arm->id, f.action},
                       std::string("R3:fixed-target-in-wall:") + arm->id + ":" + f.pose);
    }
  }
}

// R4 — rule parameters referencing things absent from the deck. Nothing to
// replay (the reference resolves to nothing), so evidence is a proof tag.
void check_dangling_references(Emitter& em) {
  const EngineConfig& config = em.config;
  for (const DeviceMeta& d : config.devices) {
    std::vector<std::string> vocabulary = core::dispatchable_actions(d);
    auto in_vocab = [&vocabulary](const std::string& a) {
      return std::binary_search(vocabulary.begin(), vocabulary.end(), a);
    };
    for (const auto& [alias, canonical] : d.action_aliases) {
      if (in_vocab(canonical)) continue;
      std::ostringstream msg;
      msg << "device '" << d.id << "' alias '" << alias << "' resolves to '" << canonical
          << "', which no rule or binding dispatches: commands through the alias are "
             "silently unconstrained";
      em.proof_finding(Severity::Warning, "R4", msg.str(), {d.id, alias},
                       "R4:alias-to-unknown:" + d.id + ":" + alias + "->" + canonical);
    }
    for (const ThresholdSpec& t : d.thresholds) {
      bool aliased = std::any_of(d.action_aliases.begin(), d.action_aliases.end(),
                                 [&t](const auto& a) { return a.first == t.action; });
      if (in_vocab(t.action) || aliased) continue;
      std::ostringstream msg;
      msg << "device '" << d.id << "' threshold on action '" << t.action
          << "' guards an action absent from the deck vocabulary";
      em.proof_finding(Severity::Warning, "R4", msg.str(), {d.id, t.action},
                       "R4:threshold-on-unknown-action:" + d.id + ":" + t.action);
    }
  }
  for (std::size_t i = 0; i < config.soft_walls.size(); ++i) {
    const SoftWallSpec& w = config.soft_walls[i];
    const DeviceMeta* arm = config.find_device(w.arm_id);
    if (arm != nullptr && arm->is_arm) continue;
    std::ostringstream msg;
    msg << "soft wall " << i << " names arm '" << w.arm_id << "', which is "
        << (arm == nullptr ? "absent from the deck" : "not a robot arm")
        << ": the wall guards nothing";
    em.proof_finding(Severity::Error, "R4", msg.str(), {w.arm_id},
                     "R4:wall-on-unknown-arm:" + w.arm_id);
  }
  for (const SiteMeta& s : config.sites) {
    for (const std::string& ref : {s.grid_device, s.receptacle_device}) {
      if (ref.empty() || config.find_device(ref) != nullptr) continue;
      std::ostringstream msg;
      msg << "site '" << s.name << "' references device '" << ref
          << "', which is absent from the deck: every site-scoped rule degrades there";
      em.proof_finding(Severity::Error, "R4", msg.str(), {s.name, ref},
                       "R4:site-to-unknown-device:" + s.name + ":" + ref);
    }
  }
}

// R5 — decidable guard-vs-analyzer divergence sweep. Both paths evaluate
// the same check_preconditions against the same symbolic start state; the
// engine canonicalizes aliases first, the raw-stream analyzer does not.
// Any probe where exactly one side blocks (on a runtime rule) is a
// divergence, and the probe itself is the witness.
void check_divergence(Emitter& em) {
  const EngineConfig& config = em.config;
  core::RabitEngine engine(config);
  engine.initialize({});

  auto analyzer_rule = [&config](const dev::Command& cmd) -> std::string {
    AnalysisReport report = analyze_stream(config, {cmd});
    for (const Diagnostic& diag : report.diagnostics) {
      if (diag.severity == Severity::Error && is_runtime_rule(diag.rule)) return diag.rule;
    }
    return "";
  };

  auto probe = [&](const DeviceMeta& d, const std::string& issued,
                   const std::string& canonical) {
    std::optional<json::Object> args = synth_args(config, d, canonical);
    if (!args) return;
    dev::Command cmd = make_cmd(d.id, issued, std::move(*args));

    std::optional<core::Alert> alert = engine.check_command(cmd);
    std::string engine_rule = alert ? alert->rule : "";
    std::string analyzer = analyzer_rule(cmd);
    if (engine_rule.empty() == analyzer.empty()) return;  // both admit or both block

    std::ostringstream msg;
    msg << "guard-vs-analyzer divergence on " << d.id << "." << issued << ": the runtime "
        << (engine_rule.empty() ? "admits" : "blocks (" + engine_rule + ")")
        << " what the pre-flight analyzer "
        << (analyzer.empty() ? "admits" : "blocks (" + analyzer + ")");
    RuleWitness witness = single_step(cmd, engine_rule);
    witness.analyzer_rule = analyzer;
    em.witness_finding(Severity::Error, "R5", msg.str(), {d.id, issued}, std::move(witness));
  };

  for (const DeviceMeta& d : config.devices) {
    for (const std::string& action : core::dispatchable_actions(d)) {
      probe(d, action, action);
    }
    for (const auto& [alias, canonical] : d.action_aliases) {
      probe(d, alias, canonical);
    }
  }
}

// R6 — coverage gap: a deck device/action pair no rule constrains. The
// structural condition (no threshold, no door, no receptacle) is confirmed
// by an admitted extreme-value probe — if any rule blocks the probe, the
// pair is constrained after all and nothing is emitted.
void check_coverage_gaps(Emitter& em) {
  const EngineConfig& config = em.config;
  for (const DeviceMeta& d : config.devices) {
    if (d.is_arm) continue;  // every arm action funnels through the motion/gripper rules
    bool doored = d.has_door || !d.multi_doors.empty();
    bool has_receptacle = config.receptacle_site(d.id) != nullptr;

    for (const ValueBinding& b : d.value_bindings) {
      if (find_threshold(d, b.action) != nullptr) continue;  // G11 constrains it
      if (d.is_active_action(b.action) && (doored || has_receptacle)) continue;
      if (unconstrained_by_design(b.action)) continue;
      std::ostringstream msg;
      msg << "no rule constrains " << d.id << "." << b.action << ": the '" << b.argument
          << "' setpoint is written unchecked (no threshold, no structural rule path)";
      json::Object args;
      args[b.argument] = 1.0e6;  // an extreme setpoint the engine still admits
      em.witness_finding(Severity::Warning, "R6", msg.str(), {d.id, b.action},
                         single_step(make_cmd(d.id, b.action, std::move(args)), ""));
    }

    for (const std::string& action : d.active_actions) {
      bool bound = std::any_of(d.value_bindings.begin(), d.value_bindings.end(),
                               [&action](const ValueBinding& b) { return b.action == action; });
      if (bound) continue;  // reported through the binding loop above when unconstrained
      if (doored || has_receptacle) continue;  // G5/G6/G9 have a path to it
      if (find_threshold(d, action) != nullptr) continue;
      if (unconstrained_by_design(action)) continue;
      std::ostringstream msg;
      msg << "no rule constrains " << d.id << "." << action
          << ": the device has no door and no receptacle site, so G5/G6/G9 can never fire";
      em.witness_finding(Severity::Warning, "R6", msg.str(), {d.id, action},
                         single_step(make_cmd(d.id, action), ""));
    }
  }
}

// R7 — threshold-interval overlap across an alias boundary: the engine
// canonicalizes then looks up (canonical bound governs), the raw analyzer
// looks up the issued name (alias bound governs). Different maxima make the
// verdict order-dependent inside the gap.
void check_order_dependent_thresholds(Emitter& em) {
  for (const DeviceMeta& d : em.config.devices) {
    for (const auto& [alias, canonical] : d.action_aliases) {
      const ThresholdSpec* on_alias = find_threshold(d, alias);
      const ThresholdSpec* on_canonical = find_threshold(d, canonical);
      if (on_alias == nullptr || on_canonical == nullptr) continue;
      if (on_alias->max == on_canonical->max) continue;

      double lo = std::min(on_alias->max, on_canonical->max);
      double hi = std::max(on_alias->max, on_canonical->max);
      double v = hi;  // inside the gap (lo, hi]: the two bounds disagree
      std::ostringstream msg;
      msg << "device '" << d.id << "' bounds '" << alias << "' (<= " << on_alias->max
          << ") and its canonical '" << canonical << "' (<= " << on_canonical->max
          << ") differently: for values in (" << lo << ", " << hi
          << "] the verdict depends on whether alias canonicalization precedes the "
             "threshold lookup";

      json::Object args;
      args[on_canonical->argument] = v;
      if (on_alias->argument != on_canonical->argument) args[on_alias->argument] = v;
      std::string expect = v > on_canonical->max ? "G11" : "";  // the engine's order wins
      em.witness_finding(Severity::Error, "R7", msg.str(), {d.id, alias, canonical},
                         single_step(make_cmd(d.id, alias, std::move(args)), expect));
    }
  }
}

// R8 — dark-key classification: structural availability vs the measured
// coverage map. Dead-by-construction keys shrink the honest denominator;
// needs-steering keys are fuzzer work; a measured key the config cannot
// fire means the map is stale.
void check_dark_keys(Emitter& em, const std::vector<std::string>& measured) {
  if (measured.empty()) return;
  std::set<std::string> measured_rules;
  for (const std::string& key : measured) {
    if (key.rfind("rule:", 0) == 0) measured_rules.insert(key.substr(5));
  }
  for (const core::RuleAvailability& a : core::rulebase_availability(em.config)) {
    bool covered = measured_rules.contains(a.rule);
    if (covered && !a.reachable) {
      std::ostringstream msg;
      msg << "coverage map claims 'rule:" << a.rule << "' but the config cannot fire it ("
          << a.requirement << "): the measured map is stale for this deck";
      em.proof_finding(Severity::Error, "R8", msg.str(), {a.rule},
                       "R8:stale:" + a.rule + ":missing=" + a.requirement);
    } else if (!covered && !a.reachable) {
      std::ostringstream msg;
      msg << "dark key 'rule:" << a.rule << "' is dead by construction (" << a.requirement
          << "): no command sequence on this deck can fire it";
      em.proof_finding(Severity::Info, "R8", msg.str(), {a.rule},
                       "R8:dead:" + a.rule + ":missing=" + a.requirement);
    } else if (!covered && a.reachable) {
      std::ostringstream msg;
      msg << "dark key 'rule:" << a.rule
          << "' is structurally reachable on this deck: needs fuzzer steering, not a rule "
             "fix";
      em.proof_finding(Severity::Info, "R8", msg.str(), {a.rule}, "R8:steer:" + a.rule);
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// Replay
// ---------------------------------------------------------------------------

WitnessReplay replay_witness(const core::EngineConfig& config, const RuleWitness& witness) {
  core::RabitEngine engine(config);
  engine.initialize({});

  WitnessReplay result;
  result.confirmed = true;
  for (std::size_t i = 0; i < witness.steps.size(); ++i) {
    const WitnessStep& step = witness.steps[i];
    std::optional<core::Alert> alert = engine.check_command(step.cmd);
    std::string observed = alert ? alert->rule : "";
    result.observed.push_back(observed);
    if (observed != step.expect_rule && result.confirmed) {
      result.confirmed = false;
      std::ostringstream os;
      os << "step " << i + 1 << " (" << step.cmd.device << "." << step.cmd.action
         << "): expected " << (step.expect_rule.empty() ? "admitted" : step.expect_rule)
         << ", engine " << (observed.empty() ? "admitted" : "blocked with " + observed);
      result.detail = os.str();
    }
    if (!alert) engine.apply_expected(step.cmd);
  }
  return result;
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

AnalysisReport RuleCheckReport::as_report() const {
  AnalysisReport report;
  for (const RuleFinding& f : findings) report.diagnostics.push_back(f.diagnostic);
  return report;
}

bool RuleCheckReport::has_errors() const {
  return std::any_of(findings.begin(), findings.end(), [](const RuleFinding& f) {
    return f.diagnostic.severity == Severity::Error;
  });
}

RuleCheckReport check_rules(const core::EngineConfig& config, const RuleCheckOptions& options) {
  RuleCheckReport report;
  Emitter em{config, report.findings};
  check_shadowed_thresholds(em);
  check_shadowed_walls(em);
  check_contradictory_guards(em);
  check_unsatisfiable(em);
  check_dangling_references(em);
  check_divergence(em);
  check_coverage_gaps(em);
  check_order_dependent_thresholds(em);
  check_dark_keys(em, options.measured_coverage);

  std::stable_sort(report.findings.begin(), report.findings.end(),
                   [](const RuleFinding& a, const RuleFinding& b) {
                     if (a.diagnostic.rule != b.diagnostic.rule) {
                       return a.diagnostic.rule < b.diagnostic.rule;
                     }
                     if (a.diagnostic.subjects != b.diagnostic.subjects) {
                       return a.diagnostic.subjects < b.diagnostic.subjects;
                     }
                     return a.diagnostic.message < b.diagnostic.message;
                   });
  return report;
}

// ---------------------------------------------------------------------------
// JSON
// ---------------------------------------------------------------------------

json::Value witness_to_json(const RuleWitness& witness) {
  json::Object root;
  json::Array steps;
  for (const WitnessStep& step : witness.steps) {
    json::Object s;
    s["device"] = step.cmd.device;
    s["action"] = step.cmd.action;
    s["args"] = step.cmd.args;
    s["expect"] = step.expect_rule;
    steps.emplace_back(std::move(s));
  }
  root["steps"] = json::Value(std::move(steps));
  if (!witness.analyzer_rule.empty()) root["analyzer"] = witness.analyzer_rule;
  return json::Value(std::move(root));
}

RuleWitness witness_from_json(const json::Value& doc) {
  RuleWitness witness;
  const json::Object& root = doc.as_object();
  for (const json::Value& s : root.at("steps").as_array()) {
    const json::Object& step = s.as_object();
    WitnessStep out;
    out.cmd.device = step.at("device").as_string();
    out.cmd.action = step.at("action").as_string();
    out.cmd.args = step.at("args");
    out.expect_rule = step.at("expect").as_string();
    witness.steps.push_back(std::move(out));
  }
  if (const json::Value* analyzer = doc.find("analyzer")) {
    witness.analyzer_rule = analyzer->as_string();
  }
  return witness;
}

json::Value finding_to_json(const RuleFinding& finding) {
  json::Value doc = diagnostic_to_json(finding.diagnostic);
  json::Object& obj = doc.as_object();
  if (finding.witness) obj["witness"] = witness_to_json(*finding.witness);
  if (!finding.proof.empty()) obj["proof"] = finding.proof;
  return doc;
}

json::Value rulecheck_to_json(const RuleCheckReport& report) {
  json::Object root;
  json::Array findings;
  std::size_t errors = 0;
  std::size_t warnings = 0;
  std::size_t infos = 0;
  for (const RuleFinding& f : report.findings) {
    findings.emplace_back(finding_to_json(f));
    switch (f.diagnostic.severity) {
      case Severity::Error: ++errors; break;
      case Severity::Warning: ++warnings; break;
      case Severity::Info: ++infos; break;
    }
  }
  root["findings"] = json::Value(std::move(findings));
  root["errors"] = static_cast<std::int64_t>(errors);
  root["warnings"] = static_cast<std::int64_t>(warnings);
  root["infos"] = static_cast<std::int64_t>(infos);
  return json::Value(std::move(root));
}

}  // namespace rabit::analysis
