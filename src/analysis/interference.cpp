// Summary-based static race detection over fleet campaigns. Phase 1 rides
// the abstract interpreter's observe_command hook to fold every observed
// device command into a per-stream effect summary; phase 2 is the one
// interference predicate (find_interference) over the summaries, pairwise
// (I1/I2/I4/I5) and campaign-wide (I3/I6), which check_interference and the
// shard planner both consume. See interference.hpp for the soundness model.
#include <algorithm>
#include <cmath>
#include <initializer_list>
#include <limits>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string_view>

#include "analysis/interference.hpp"
#include "core/rules.hpp"
#include "core/tracker.hpp"
#include "sim/world.hpp"

namespace rabit::analysis {

namespace {

using core::DeviceMeta;
using core::EngineConfig;
using core::SiteMeta;
using core::ThresholdSpec;
using core::ValueBinding;
using dev::Command;

std::string fmt_num(double v) {
  std::ostringstream os;
  os << v;
  return os.str();
}

/// Actions whose thresholded argument is *additive* across commands —
/// repeated doses accumulate in the same container, so their campaign-wide
/// sum is meaningful (I6). Setpoint-style thresholds (set_temperature, stir)
/// overwrite rather than accumulate and are excluded.
bool is_additive_action(std::string_view action) {
  return action == "run_action" || action == "dose_solvent" || action == "draw_solvent" ||
         action == "add_solid" || action == "add_liquid";
}

/// One named argument of an observed command, as an interval when statically
/// known: a constant folds to a point, an unresolved argument contributes its
/// abstract interval, Top is "present but unbounded".
struct ArgBounds {
  bool present = false;
  bool bounded = false;
  double lo = 0.0;
  double hi = 0.0;
};

ArgBounds arg_bounds(const CommandObservation& obs, std::string_view name) {
  ArgBounds out;
  if (const json::Value* v = obs.cmd->args.find(name); v != nullptr && v->is_number()) {
    out.present = out.bounded = true;
    out.lo = out.hi = v->as_double();
    return out;
  }
  if (obs.unresolved != nullptr) {
    for (const auto& [arg, value] : *obs.unresolved) {
      if (arg != name) continue;
      out.present = true;
      out.bounded = value.numeric_bounds(out.lo, out.hi);
      return out;
    }
  }
  return out;
}

const std::string* arg_string(const CommandObservation& obs, std::string_view name) {
  const json::Value* v = obs.cmd->args.find(name);
  return v != nullptr && v->is_string() ? &v->as_string() : nullptr;
}

// ---------------------------------------------------------------------------
// Phase 1 — effect accumulation
// ---------------------------------------------------------------------------

/// Folds CommandObservations into a StreamSummary. Mirrors the tracker's
/// postcondition model (tracker.cpp) as a may-analysis: where the tracker
/// sets a value, the summary accumulates an interval; where an argument is
/// statically unknown the summary widens (and records truncation) rather
/// than guessing.
class EffectAccumulator {
 public:
  EffectAccumulator(const EngineConfig& config, std::string name) : config_(config) {
    sum_.name = std::move(name);
  }

  StreamSummary take() { return std::move(sum_); }

  void observe(const CommandObservation& obs) {
    const Command& cmd = *obs.cmd;
    const DeviceMeta* meta = config_.find_device(cmd.device);
    std::string action =
        meta != nullptr ? std::string(meta->canonical_action(cmd.action)) : cmd.action;

    DeviceFootprint& fp = sum_.devices[cmd.device];
    fp.actions.insert(action);
    ++fp.commands;
    fp.speculative = fp.speculative || obs.speculative;
    if (meta == nullptr) return;  // unknown device: G3 fires identically solo

    record_threshold_total(obs, *meta, action);
    record_setpoints(obs, *meta, action);
    record_resources(obs, *meta, action);
    record_entities(obs, *meta, action);
    if (meta->is_arm && core::is_motion_command(cmd)) record_motion(obs, *meta);
  }

 private:
  void touch_entity(const std::string& entity, const std::string& via) {
    sum_.entities[entity].via.insert(via);
  }

  void touch_site(const SiteMeta& site, const std::string& via,
                  const core::StateTracker& tracker) {
    touch_entity(site.name, via);
    std::string occupant = tracker.site_occupant(site.name);
    if (!occupant.empty()) touch_entity(occupant, via);
  }

  void record_threshold_total(const CommandObservation& obs, const DeviceMeta& meta,
                              const std::string& action) {
    const ThresholdSpec* th = meta.threshold_for(action);
    if (th == nullptr || !is_additive_action(action)) return;
    ArgBounds b = arg_bounds(obs, th->argument);
    if (!b.present) return;
    if (b.bounded) {
      sum_.threshold_totals[meta.id][action].accumulate(b.lo, b.hi);
    } else {
      sum_.truncated = true;  // Top-valued dose: the campaign total is unbounded
    }
  }

  void record_setpoints(const CommandObservation& obs, const DeviceMeta& meta,
                        const std::string& action) {
    constexpr double kUnbounded = std::numeric_limits<double>::infinity();
    auto write = [&](const std::string& variable, std::string_view argument) {
      ArgBounds b = arg_bounds(obs, argument);
      if (!b.present) return;
      if (b.bounded) {
        sum_.setpoints[meta.id][variable].unite(b.lo, b.hi);
      } else {
        sum_.setpoints[meta.id][variable].unite(-kUnbounded, kUnbounded);
        sum_.truncated = true;
      }
    };
    if (action == "set_temperature") write("targetC", "celsius");
    if (action == "stir") write("stirRpm", "rpm");
    if (action == "shake") write("shakeRpm", "rpm");
    for (const ValueBinding& vb : meta.value_bindings) {
      if (vb.action == action) write(vb.variable, vb.argument);
    }
  }

  /// Signed mass/volume deltas, following the tracker's substance model:
  /// run_action doses the receptacle occupant, dose_solvent moves liquid
  /// pump -> target vial, draw_solvent fills the pump, add_solid/add_liquid
  /// act on the container directly.
  void record_resources(const CommandObservation& obs, const DeviceMeta& meta,
                        const std::string& action) {
    auto delta = [&](std::map<std::string, Interval>& table, const std::string& key,
                     std::string_view argument, double sign) {
      ArgBounds b = arg_bounds(obs, argument);
      if (!b.present) return;
      if (b.bounded) {
        table[key].accumulate(sign * (sign < 0 ? b.hi : b.lo), sign * (sign < 0 ? b.lo : b.hi));
      } else {
        sum_.truncated = true;
      }
    };
    if (action == "run_action") {
      if (const SiteMeta* site = config_.receptacle_site(meta.id)) {
        std::string occupant = obs.tracker->site_occupant(site->name);
        delta(sum_.mass_delta_mg, occupant.empty() ? site->name : occupant, "quantity", +1.0);
      }
    } else if (action == "dose_solvent") {
      delta(sum_.volume_delta_ml, meta.id, "volume", -1.0);
      if (const std::string* target = arg_string(obs, "target")) {
        delta(sum_.volume_delta_ml, *target, "volume", +1.0);
      }
    } else if (action == "draw_solvent") {
      delta(sum_.volume_delta_ml, meta.id, "volume", +1.0);
    } else if (action == "add_solid") {
      delta(sum_.mass_delta_mg, meta.id, "amount", +1.0);
    } else if (action == "add_liquid") {
      delta(sum_.volume_delta_ml, meta.id, "volume", +1.0);
    }
  }

  /// Shared entities the command acts on beyond the commanded device: sites
  /// named by arguments, their tracked occupants, the vial a dose targets,
  /// the receptacle feeding a station, and whatever the arm currently holds.
  void record_entities(const CommandObservation& obs, const DeviceMeta& meta,
                       const std::string& action) {
    // A directly commanded container (cap/decap a vial) is itself a shared
    // entity: arms carry it and stations dose it under other names.
    if (meta.category == dev::DeviceCategory::Container) touch_entity(meta.id, meta.id);
    if (const std::string* site_name = arg_string(obs, "site")) {
      if (const SiteMeta* site = config_.find_site(*site_name)) {
        touch_site(*site, meta.id, *obs.tracker);
      }
    }
    if (const std::string* target = arg_string(obs, "target")) {
      if (config_.find_device(*target) != nullptr) touch_entity(*target, meta.id);
    }
    if (!meta.is_arm) {
      if (const SiteMeta* site = config_.receptacle_site(meta.id)) {
        // Only substance-affecting actions reach into the chamber; door and
        // query actions do not contend for the occupant.
        if (action == "run_action" || meta.is_active_action(action)) {
          touch_site(*site, meta.id, *obs.tracker);
        }
      }
      return;
    }
    std::string held = obs.tracker->arm_holding(meta.id);
    if (!held.empty()) touch_entity(held, meta.id);
  }

  void record_motion(const CommandObservation& obs, const DeviceMeta& meta) {
    std::optional<core::MotionAnalysis> motion;
    try {
      motion = core::analyze_motion(config_, *obs.tracker, *obs.cmd);
    } catch (const std::exception&) {
      motion = std::nullopt;  // malformed/unresolved position argument
    }
    if (motion && !motion->waypoints.empty()) {
      geom::Aabb env(motion->waypoints.front(), motion->waypoints.front());
      for (const geom::Vec3& p : motion->waypoints) env = env.united(geom::Aabb(p, p));
      env = env.united(geom::Aabb(motion->target_lab, motion->target_lab));
      // A3 frame-calibration slack plus the held-object drop: the same
      // margins under which the single-stream checks call a pose unsafe.
      env = env.inflated(kParkedArmMargin + motion->held_clearance);
      unite_envelope(meta.id, env);
      for (const std::string& ig : motion->ignores) {
        // analyze_motion always lists the arm itself (its parked cuboid is
        // not an obstacle for its own motion) — that is not an interaction.
        if (ig != meta.id) sum_.ignores[meta.id].insert(ig);
      }
      if (const SiteMeta* site = config_.site_near(motion->target_lab)) {
        touch_site(*site, meta.id, *obs.tracker);
      }
    } else {
      // Unresolvable target: the arm may occupy anywhere in the configured
      // workspace (A4 margin). Sound, maximally imprecise — and flagged.
      if (std::optional<geom::Aabb> ws = workspace_envelope(config_)) {
        unite_envelope(meta.id, ws->inflated(kWorkspaceMargin));
      }
      sum_.truncated = true;
    }
  }

  void unite_envelope(const std::string& arm, const geom::Aabb& box) {
    auto [it, inserted] = sum_.arm_envelopes.emplace(arm, box);
    if (!inserted) it->second = it->second.united(box);
  }

  const EngineConfig& config_;
  StreamSummary sum_;
};

// ---------------------------------------------------------------------------
// Phase 2 — helpers of the interference predicate and its renderer
// ---------------------------------------------------------------------------

/// One container budget I3 holds the summed deltas to: the per-stream
/// deltas, the capacity and initial fill, the unit a message names, and the
/// finding keys of its two violations.
struct ContainerBudget {
  std::map<std::string, Interval> StreamSummary::*deltas;
  double DeviceMeta::*capacity;
  const char* initial_var;
  std::string_view unit;
  std::string_view overflow_key;
  std::string_view overdraw_key;
};
constexpr ContainerBudget kContainerBudgets[] = {
    {&StreamSummary::mass_delta_mg, &DeviceMeta::capacity_mg, "solidMg", "mg", kMassOverflow,
     kMassOverdraw},
    {&StreamSummary::volume_delta_ml, &DeviceMeta::capacity_ml, "liquidMl", "mL",
     kVolumeOverflow, kVolumeOverdraw}};

double initial_amount(const DeviceMeta& meta, const char* variable) {
  auto it = meta.initial_state.find(variable);
  return it != meta.initial_state.end() && it->second.is_number() ? it->second.as_double() : 0.0;
}

const Interval* container_delta(const StreamSummary& s, const ContainerBudget& budget,
                                const std::string& container) {
  auto it = (s.*budget.deltas).find(container);
  return it == (s.*budget.deltas).end() ? nullptr : &it->second;
}

const Interval* threshold_total(const StreamSummary& s, const std::string& device,
                                const std::string& action) {
  auto dit = s.threshold_totals.find(device);
  if (dit == s.threshold_totals.end()) return nullptr;
  auto ait = dit->second.find(action);
  return ait == dit->second.end() ? nullptr : &ait->second;
}

/// What the streams put into one I3/I6 budget: the sum of their intervals,
/// accumulated in stream order, and the contributors, listed in name order
/// once there are two. The predicate and the renderer both derive it here.
struct BudgetSum {
  Interval total;
  std::vector<std::size_t> contributors;
};

template <class IntervalOf>
BudgetSum sum_budget(const std::vector<StreamSummary>& streams, IntervalOf interval_of) {
  BudgetSum out;
  for (std::size_t k = 0; k < streams.size(); ++k) {
    const Interval* iv = interval_of(streams[k]);
    if (iv == nullptr || !iv->set) continue;
    out.total.accumulate(iv->lo, iv->hi);
    out.contributors.push_back(k);
  }
  if (out.contributors.size() >= 2) {
    std::stable_sort(out.contributors.begin(), out.contributors.end(),
                     [&streams](std::size_t x, std::size_t y) {
                       return streams[x].name < streams[y].name;
                     });
  }
  return out;
}

const DeviceMeta& device_at(const EngineConfig& config, const std::string& id) {
  const DeviceMeta* meta = config.find_device(id);
  if (meta == nullptr) throw std::out_of_range("interference: no device '" + id + "'");
  return *meta;
}

/// The second arm of an "armA+armB" subject whose first arm is `first`.
std::string_view second_arm(const std::string& subject, const std::string& first) {
  return std::string_view(subject).substr(first.size() + 1);
}

/// Concatenation with one allocation.
std::string cat(std::initializer_list<std::string_view> parts) {
  std::size_t size = 0;
  for (std::string_view p : parts) size += p.size();
  std::string out;
  out.reserve(size);
  for (std::string_view p : parts) out += p;
  return out;
}

std::string join(const std::set<std::string>& names) {
  std::string out;
  for (const std::string& s : names) {
    if (!out.empty()) out += ", ";
    out += s;
  }
  return out;
}

/// The names of `streams[k]` for each k, joined.
std::string join_streams(const std::vector<StreamSummary>& streams,
                         const std::vector<std::size_t>& indices) {
  std::string out;
  for (std::size_t k : indices) {
    if (!out.empty()) out += ", ";
    out += streams[k].name;
  }
  return out;
}

/// join() of the union of two name sets, merged in order without building
/// the union.
std::string join_union(const std::set<std::string>& a, const std::set<std::string>& b) {
  std::string out;
  auto append = [&out](const std::string& s) {
    if (!out.empty()) out += ", ";
    out += s;
  };
  auto ia = a.begin();
  auto ib = b.begin();
  while (ia != a.end() || ib != b.end()) {
    if (ib == b.end() || (ia != a.end() && *ia < *ib)) {
      append(*ia++);
    } else {
      if (ia != a.end() && !(*ib < *ia)) ++ia;  // in both: once
      append(*ib++);
    }
  }
  return out;
}

/// The I-rule and severity each finding kind reports as.
std::pair<const char*, Severity> rule_of(ConflictKind kind) {
  switch (kind) {
    case ConflictKind::SharedDevice:
    case ConflictKind::MultiplexToken:
    case ConflictKind::SharedEntity: return {"I1", Severity::Error};
    case ConflictKind::EnvelopeOverlap: return {"I2", Severity::Error};
    case ConflictKind::ConsumableBudget: return {"I3", Severity::Error};
    case ConflictKind::SetpointRace: return {"I4", Severity::Warning};
    case ConflictKind::IgnoreAsymmetry: return {"I5", Severity::Warning};
    case ConflictKind::ThresholdBudget: return {"I6", Severity::Warning};
    case ConflictKind::TruncatedSummary: break;  // the planner's own edge, never found here
  }
  return {"", Severity::Info};
}

/// I3: the contributors' summed deltas overflow or overdraw `container`.
std::string render_container_budget(const EngineConfig& config,
                                    const std::vector<StreamSummary>& streams,
                                    const std::string& container, const std::string& key) {
  for (const ContainerBudget& budget : kContainerBudgets) {
    if (key != budget.overflow_key && key != budget.overdraw_key) continue;
    const DeviceMeta& meta = device_at(config, container);
    double initial = initial_amount(meta, budget.initial_var);
    BudgetSum sum = sum_budget(
        streams, [&](const StreamSummary& s) { return container_delta(s, budget, container); });
    std::string names = join_streams(streams, sum.contributors);
    if (key == budget.overdraw_key) {
      return cat({"shared container '", container, "': the summed draws of streams ", names,
                  " can overdraw it by ", fmt_num(-(initial + sum.total.lo)), " ", budget.unit});
    }
    return cat({"shared container '", container, "': the summed deltas of streams ", names,
                " reach ", fmt_num(initial + sum.total.hi), " ", budget.unit,
                ", over its capacity ", fmt_num(meta.*budget.capacity), " ", budget.unit,
                " — each stream alone may pass, the campaign cannot"});
  }
  throw std::out_of_range("interference: no container budget '" + key + "'");
}

/// I5, with the pair in either order: the declaring stream is the one whose
/// `arm` excludes `box` (the predicate fires only when the other stream
/// declares the box under no arm).
std::string render_ignore_asymmetry(const StreamSummary& x, const StreamSummary& y,
                                    const std::string& box, const std::string& arm) {
  auto it = x.ignores.find(arm);
  bool x_declares = it != x.ignores.end() && it->second.contains(box);
  const StreamSummary& declaring = x_declares ? x : y;
  const StreamSummary& other = x_declares ? y : x;
  return cat({"stream '", declaring.name, "' declares a deliberate interaction of '", arm,
              "' with '", box, "' (its box is excluded from collision checks) while stream '",
              other.name, "' also uses '", box, "' without declaring one"});
}

/// I6: the contributors' cumulative total of `device`.`action` passes the
/// per-command cap.
std::string render_threshold_budget(const EngineConfig& config,
                                    const std::vector<StreamSummary>& streams,
                                    const std::string& device, const std::string& action) {
  const ThresholdSpec* th = device_at(config, device).threshold_for(action);
  if (th == nullptr) {
    throw std::out_of_range("interference: no threshold on '" + device + "." + action + "'");
  }
  BudgetSum sum = sum_budget(
      streams, [&](const StreamSummary& s) { return threshold_total(s, device, action); });
  return cat({"campaign-wide ", device, ".", action, " total ", sum.total.format(),
              " exceeds the per-command threshold ", fmt_num(th->max), " (", th->argument,
              "): the rulebase caps single commands, not the cumulative budget of streams ",
              join_streams(streams, sum.contributors)});
}

/// The devices and entities a finding's diagnostic names, unsorted.
std::vector<std::string> diagnostic_subjects(const std::vector<StreamSummary>& streams,
                                             const InterferenceFinding& f) {
  std::vector<std::string> out{f.subject};
  switch (f.kind) {
    case ConflictKind::SharedDevice:
    case ConflictKind::SetpointRace:
    case ConflictKind::TruncatedSummary: break;
    case ConflictKind::MultiplexToken:
    case ConflictKind::EnvelopeOverlap: return {f.key, std::string(second_arm(f.subject, f.key))};
    case ConflictKind::SharedEntity:
      for (std::size_t k : f.streams) {
        const std::set<std::string>& via = streams[k].entities.at(f.subject).via;
        out.insert(out.end(), via.begin(), via.end());
      }
      break;
    case ConflictKind::IgnoreAsymmetry: out.push_back(f.key); break;
    case ConflictKind::ConsumableBudget:
    case ConflictKind::ThresholdBudget:
      for (std::size_t k : f.streams) out.push_back(streams[k].name);
      break;
  }
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// Interval
// ---------------------------------------------------------------------------

void Interval::accumulate(double l, double h) {
  if (l > h) std::swap(l, h);
  if (!set) {
    lo = l;
    hi = h;
    set = true;
    return;
  }
  lo += l;
  hi += h;
}

void Interval::unite(double l, double h) {
  if (l > h) std::swap(l, h);
  if (!set) {
    lo = l;
    hi = h;
    set = true;
    return;
  }
  lo = std::min(lo, l);
  hi = std::max(hi, h);
}

bool Interval::same_as(const Interval& o) const {
  return set == o.set && lo == o.lo && hi == o.hi;
}

std::string Interval::format() const {
  if (!set) return "[]";
  if (lo == hi) return fmt_num(lo);
  return "[" + fmt_num(lo) + ", " + fmt_num(hi) + "]";
}

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

StreamSummary summarize_stream(const core::EngineConfig& config, std::string name,
                               const std::vector<dev::Command>& commands,
                               const AnalyzeOptions& options, AnalysisReport* per_stream) {
  EffectAccumulator acc(config, std::move(name));
  AnalyzeOptions opts = options;
  opts.observe_command = [&acc](const CommandObservation& obs) { acc.observe(obs); };
  AnalysisReport report = analyze_stream(config, commands, opts);
  StreamSummary summary = acc.take();
  summary.truncated = summary.truncated || report.truncated;
  if (per_stream != nullptr) *per_stream = std::move(report);
  return summary;
}

StreamSummary summarize_script(const core::EngineConfig& config, std::string name,
                               std::string_view source, const AnalyzeOptions& options,
                               AnalysisReport* per_stream) {
  EffectAccumulator acc(config, std::move(name));
  AnalyzeOptions opts = options;
  opts.observe_command = [&acc](const CommandObservation& obs) { acc.observe(obs); };
  AnalysisReport report = analyze_script(config, source, opts);
  StreamSummary summary = acc.take();
  summary.truncated = summary.truncated || report.truncated;
  if (per_stream != nullptr) *per_stream = std::move(report);
  return summary;
}

std::string_view to_string(ConflictKind kind) {
  switch (kind) {
    case ConflictKind::SharedDevice: return "shared-device";
    case ConflictKind::MultiplexToken: return "multiplex-token";
    case ConflictKind::SharedEntity: return "shared-entity";
    case ConflictKind::EnvelopeOverlap: return "envelope-overlap";
    case ConflictKind::ConsumableBudget: return "consumable-budget";
    case ConflictKind::SetpointRace: return "setpoint-race";
    case ConflictKind::IgnoreAsymmetry: return "ignore-asymmetry";
    case ConflictKind::ThresholdBudget: return "threshold-budget";
    case ConflictKind::TruncatedSummary: return "truncated-summary";
  }
  return "unknown";
}

void find_interference(const core::EngineConfig& config,
                       const std::vector<StreamSummary>& streams,
                       const std::function<void(const InterferenceFinding&)>& on_finding) {
  // One finding, overwritten by every firing, so its buffers are reused.
  InterferenceFinding f;
  auto emit = [&](ConflictKind kind, std::string_view subject, std::string_view key,
                  bool speculative = false) {
    f.kind = kind;
    f.subject.assign(subject);
    f.key.assign(key);
    f.speculative = speculative;
    on_finding(f);
  };
  auto emit_pair = [&](ConflictKind kind, std::size_t x, std::size_t y, std::string_view subject,
                       std::string_view key = {}, bool speculative = false) {
    f.streams.assign({x, y});
    emit(kind, subject, key, speculative);
  };
  std::string arm_pair;  // the "armA+armB" subject of I1b and I2
  auto arms = [&arm_pair](const std::string& arm_a,
                          const std::string& arm_b) -> const std::string& {
    return arm_pair.assign(arm_a).append("+").append(arm_b);
  };

  // I5: stream `d` declares a deliberate interaction (collision checks
  // suppressed for that box) that stream `u`, which also uses the device,
  // never declares. Each stream's declarations, across its arms, are
  // gathered once.
  std::vector<std::set<std::string_view>> declared(streams.size());
  for (std::size_t k = 0; k < streams.size(); ++k) {
    for (const auto& [arm, names] : streams[k].ignores) {
      declared[k].insert(names.begin(), names.end());
    }
  }
  auto ignore_asymmetry = [&](std::size_t d, std::size_t u) {
    const StreamSummary& b = streams[u];
    for (const auto& [arm, names] : streams[d].ignores) {
      for (const std::string& name : names) {
        if (declared[u].contains(name)) continue;
        if (!b.devices.contains(name) && !b.entities.contains(name)) continue;
        emit_pair(ConflictKind::IgnoreAsymmetry, d, u, name, arm);
      }
    }
  };

  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (std::size_t j = i + 1; j < streams.size(); ++j) {
      const StreamSummary& a = streams[i];
      const StreamSummary& b = streams[j];
      // I1a: both streams command one device.
      for (const auto& [device, fa] : a.devices) {
        auto it = b.devices.find(device);
        if (it == b.devices.end()) continue;
        emit_pair(ConflictKind::SharedDevice, i, j, device, {},
                  fa.speculative || it->second.speculative);
      }
      // I1b: different arms race the time-multiplex exclusive-motion token.
      if (config.time_multiplex) {
        for (const auto& [arm_a, env_a] : a.arm_envelopes) {
          for (const auto& [arm_b, env_b] : b.arm_envelopes) {
            if (arm_a == arm_b) continue;
            emit_pair(ConflictKind::MultiplexToken, i, j, arms(arm_a, arm_b), arm_a);
          }
        }
      }
      // I1c: both streams act on one shared entity.
      for (const auto& [entity, ta] : a.entities) {
        if (b.entities.contains(entity)) emit_pair(ConflictKind::SharedEntity, i, j, entity);
      }
      // I2: two different arms' inflated occupancy envelopes intersect.
      for (const auto& [arm_a, env_a] : a.arm_envelopes) {
        for (const auto& [arm_b, env_b] : b.arm_envelopes) {
          if (arm_a == arm_b) continue;  // same arm: an I1a command race
          if (!env_a.intersects(env_b)) continue;
          emit_pair(ConflictKind::EnvelopeOverlap, i, j, arms(arm_a, arm_b), arm_a);
        }
      }
      // I4: both streams write one setpoint with non-identical values.
      for (const auto& [device, vars_a] : a.setpoints) {
        auto dit = b.setpoints.find(device);
        if (dit == b.setpoints.end()) continue;
        for (const auto& [variable, iv_a] : vars_a) {
          auto vit = dit->second.find(variable);
          if (vit == dit->second.end()) continue;
          if (iv_a.same_as(vit->second)) continue;  // identical writes commute
          emit_pair(ConflictKind::SetpointRace, i, j, device, variable);
        }
      }
      ignore_asymmetry(i, j);
      ignore_asymmetry(j, i);
    }
  }

  // I3: the *sum* of per-stream deltas overflows (or overdraws) a shared
  // container, even where each stream alone fits.
  for (const ContainerBudget& budget : kContainerBudgets) {
    std::set<std::string> keys;
    for (const StreamSummary& s : streams) {
      for (const auto& [key, iv] : s.*budget.deltas) keys.insert(key);
    }
    for (const std::string& key : keys) {
      const DeviceMeta* meta = config.find_device(key);
      if (meta == nullptr) continue;  // delta attributed to a site: no capacity model
      BudgetSum sum = sum_budget(
          streams, [&](const StreamSummary& s) { return container_delta(s, budget, key); });
      if (sum.contributors.size() < 2) continue;  // single-stream checks own this
      double capacity = meta->*budget.capacity;
      double initial = initial_amount(*meta, budget.initial_var);
      f.streams = sum.contributors;
      if (capacity > 0.0 && initial + sum.total.hi > capacity + core::kVolumeEpsilon) {
        emit(ConflictKind::ConsumableBudget, key, budget.overflow_key);
      }
      if (initial + sum.total.lo < -core::kVolumeEpsilon) {
        emit(ConflictKind::ConsumableBudget, key, budget.overdraw_key);
      }
    }
  }

  // I6: the campaign-wide cumulative total of a thresholded additive
  // argument exceeds the per-command cap the rulebase enforces — a budget
  // the runtime provably cannot police one command at a time.
  std::set<std::pair<std::string, std::string>> keys;
  for (const StreamSummary& s : streams) {
    for (const auto& [device, actions] : s.threshold_totals) {
      for (const auto& [action, iv] : actions) keys.emplace(device, action);
    }
  }
  for (const auto& [device, action] : keys) {
    const DeviceMeta* meta = config.find_device(device);
    const ThresholdSpec* th = meta != nullptr ? meta->threshold_for(action) : nullptr;
    if (th == nullptr) continue;
    BudgetSum sum = sum_budget(
        streams, [&](const StreamSummary& s) { return threshold_total(s, device, action); });
    if (sum.contributors.size() < 2) continue;
    if (sum.total.hi <= th->max + core::kVolumeEpsilon) continue;
    f.streams = sum.contributors;
    emit(ConflictKind::ThresholdBudget, device, action);
  }
}

std::string render_finding(const core::EngineConfig& config,
                           const std::vector<StreamSummary>& streams, ConflictKind kind,
                           std::size_t a, std::size_t b, const std::string& subject,
                           const std::string& key) {
  const StreamSummary& sa = streams.at(a);
  const StreamSummary& sb = streams.at(b);
  switch (kind) {
    case ConflictKind::SharedDevice:
      return cat({"streams '", sa.name, "' and '", sb.name, "' both command device '", subject,
                  "' (",
                  join_union(sa.devices.at(subject).actions, sb.devices.at(subject).actions),
                  "): the interleaving of their commands is unordered"});
    case ConflictKind::MultiplexToken:
      return cat({"streams '", sa.name, "' and '", sb.name,
                  "' race the exclusive-motion token: '", key, "' and '",
                  second_arm(subject, key),
                  "' cannot both hold it, so one stream's motion is rejected (M1) "
                  "under any interleaving where both arms are awake"});
    case ConflictKind::SharedEntity:
      return cat({"streams '", sa.name, "' and '", sb.name, "' both act on '", subject,
                  "' (via ", join(sa.entities.at(subject).via), " / ",
                  join(sb.entities.at(subject).via),
                  "): its occupancy and contents depend on the interleaving"});
    case ConflictKind::EnvelopeOverlap:
      return cat({"workspace envelopes of '", key, "' (stream '", sa.name, "') and '",
                  second_arm(subject, key), "' (stream '", sb.name,
                  "') overlap: concurrent motion can collide inside the shared region"});
    case ConflictKind::ConsumableBudget:
      return render_container_budget(config, streams, subject, key);
    case ConflictKind::SetpointRace:
      return cat({"conflicting setpoint writes to ", subject, ".", key, ": stream '", sa.name,
                  "' writes ", sa.setpoints.at(subject).at(key).format(), ", stream '",
                  sb.name, "' writes ", sb.setpoints.at(subject).at(key).format(),
                  " — the final value depends on the interleaving"});
    case ConflictKind::IgnoreAsymmetry: return render_ignore_asymmetry(sa, sb, subject, key);
    case ConflictKind::ThresholdBudget:
      return render_threshold_budget(config, streams, subject, key);
    case ConflictKind::TruncatedSummary:
      return cat({"summary of '", subject,
                  "' is truncated (analysis budget, Top-valued quantity, or unresolvable "
                  "motion target): independence cannot be certified"});
  }
  return {};
}

AnalysisReport check_interference(const core::EngineConfig& config,
                                  const std::vector<StreamSummary>& streams,
                                  const AnalyzeOptions& options) {
  AnalysisReport report;
  for (const StreamSummary& s : streams) report.truncated = report.truncated || s.truncated;
  std::set<std::string> seen;
  find_interference(config, streams, [&](const InterferenceFinding& f) {
    auto [rule, severity] = rule_of(f.kind);
    std::string message =
        render_finding(config, streams, f.kind, f.streams[0], f.streams[1], f.subject, f.key);
    std::vector<std::string> subjects = diagnostic_subjects(streams, f);
    std::sort(subjects.begin(), subjects.end());
    subjects.erase(std::unique(subjects.begin(), subjects.end()), subjects.end());
    if (f.speculative) {
      severity = Severity::Warning;
      message += " (may happen on some path)";
    }
    std::string key = std::string(rule) + "|" + message;
    for (const std::string& s : subjects) key += "|" + s;
    if (!seen.insert(key).second) return;
    if (report.diagnostics.size() >= static_cast<std::size_t>(options.max_diagnostics)) {
      report.truncated = true;
      return;
    }
    Diagnostic d{severity, rule, std::move(message), 0, std::move(subjects), {}};
    for (std::size_t k : f.streams) d.streams.push_back(streams[k].name);
    report.diagnostics.push_back(std::move(d));
  });
  return report;
}

std::vector<StreamSummary> summarize_campaign(const core::EngineConfig& config,
                                              const std::vector<CampaignStream>& streams,
                                              const AnalyzeOptions& options) {
  std::vector<StreamSummary> summaries;
  summaries.reserve(streams.size());
  std::vector<std::size_t> distinct;  // first stream of each distinct command list
  for (std::size_t i = 0; i < streams.size(); ++i) {
    auto same = std::find_if(distinct.begin(), distinct.end(), [&](std::size_t d) {
      return streams[d].commands == streams[i].commands;
    });
    if (same == distinct.end()) {
      distinct.push_back(i);
      summaries.push_back(summarize_stream(config, streams[i].name, streams[i].commands, options));
    } else {
      summaries.push_back(summaries[*same]);
      summaries.back().name = streams[i].name;
    }
  }
  return summaries;
}

AnalysisReport analyze_campaign(const core::EngineConfig& config,
                                const std::vector<CampaignStream>& streams,
                                const AnalyzeOptions& options) {
  return check_interference(config, summarize_campaign(config, streams, options), options);
}

}  // namespace rabit::analysis
