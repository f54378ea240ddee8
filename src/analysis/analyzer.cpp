// The abstract interpreter: a path-set walk over the script AST.
//
// Each path carries a concrete StateTracker (the same symbolic device-state
// model the runtime supervisor advances) plus an abstract variable
// environment. Branches whose condition is statically undecidable fork the
// path set; loops unroll while their condition stays decidable and speculate
// a bounded number of iterations otherwise. Every device command whose
// arguments resolve to constants is checked against the full runtime
// rulebase via check_preconditions, then applied through the tracker's
// postconditions — so the static analysis and the runtime middleware can
// never disagree about what a rule means.
#include <algorithm>
#include <functional>
#include <optional>
#include <set>
#include <tuple>

#include "analysis/analysis.hpp"
#include "core/rules.hpp"
#include "core/tracker.hpp"
#include "script/parser.hpp"
#include "sim/world.hpp"

namespace rabit::analysis {

namespace {

using core::DeviceMeta;
using core::EngineConfig;
using core::SiteMeta;
using core::StateTracker;
using dev::Command;

using EmitFn = std::function<void(Severity, const std::string&, const std::string&)>;

/// Analyzer-only checks (A1..A4): hazards the runtime rulebase deliberately
/// or provably cannot flag, but that a pre-flight pass can warn about.
void extra_command_checks(const EngineConfig& config, const StateTracker& tracker,
                          const Command& cmd, const EmitFn& emit) {
  const DeviceMeta* meta = config.find_device(cmd.device);
  if (meta == nullptr) return;  // unknown device is check_preconditions' G3
  std::string_view action = meta->canonical_action(cmd.action);

  // A1 — dry run: the dosing device runs with no container believed inside.
  // Table III has no rule against it (exactly why the paper's Bug C evades
  // runtime detection), but statically it is almost always a missing pickup.
  if (meta->category == dev::DeviceCategory::DosingSystem && action == "run_action") {
    const SiteMeta* site = config.receptacle_site(meta->id);
    if (site != nullptr && tracker.site_occupant(site->name).empty()) {
      emit(Severity::Warning, "A1",
           meta->id + " runs with no container believed inside (dry run — was a pickup "
                      "omitted?)");
    }
  }

  if (!meta->is_arm) return;

  // A2 — gripper closing on air / picking from an empty slot: the gripper
  // has no pressure sensor, so the runtime can never notice; statically the
  // tracked occupancy says whether there is anything to grab.
  if (action == "close_gripper" && tracker.arm_holding(meta->id).empty()) {
    geom::Vec3 tip = tracker.arm_position_lab(meta->id);
    const SiteMeta* site = config.site_near(tip);
    if (site == nullptr) {
      emit(Severity::Warning, "A2",
           meta->id + " closes its gripper away from any known site (grabs air)");
    } else if (tracker.site_occupant(site->name).empty()) {
      emit(Severity::Warning, "A2", meta->id + " closes its gripper at '" + site->name +
                                        "', which is believed empty");
    }
  }
  if (action == "pick_object") {
    const json::Value* site_arg = cmd.args.find("site");
    if (site_arg != nullptr && site_arg->is_string()) {
      const SiteMeta* site = config.find_site(site_arg->as_string());
      if (site != nullptr && tracker.site_occupant(site->name).empty()) {
        emit(Severity::Warning, "A2", meta->id + " picks at '" + site->name +
                                          "', which is believed empty");
      }
    }
  }

  if (!core::is_motion_command(cmd)) return;
  auto motion = core::analyze_motion(config, tracker, cmd);
  if (!motion) return;

  // A3 — near-miss of a parked arm: §IV category 2 found ~3 cm of frame-
  // unification error between the two arms' coordinate systems, so a target
  // that skims a parked cuboid is unsafe even though no rule forbids it.
  core::for_each_rule_box(config, tracker, meta->id, [&](const core::RuleBox& box) {
    if (box.kind != sim::ObstacleKind::ParkedArm || box.named_in(motion->ignores)) return false;
    double d = box.box.distance_to(motion->target_lab);
    if (d > 0.0 && d < kParkedArmMargin) {
      emit(Severity::Warning, "A3",
           meta->id + " target passes within " + std::to_string(d * 100.0).substr(0, 4) +
               " cm of parked arm '" + box.name() +
               "' — inside the frame-calibration margin");
    }
    return false;
  });

  // A4 — target outside the configured workspace: unreachable coordinates
  // are silently skipped by some controllers (footnote 2), after which the
  // shortcut path sweeps through whatever stood between the neighbours.
  if (auto envelope = workspace_envelope(config)) {
    if (!envelope->inflated(kWorkspaceMargin).contains(motion->target_lab)) {
      emit(Severity::Warning, "A4",
           meta->id + " target lies outside the configured workspace — an unreachable "
                      "point may be silently skipped and the shortcut path is unchecked");
    }
  }
}

// ---------------------------------------------------------------------------
// The path-set interpreter
// ---------------------------------------------------------------------------

using script::Block;
using script::CallArg;
using script::Expr;
using script::Stmt;

struct Path {
  StateTracker tracker;
  std::map<std::string, AbstractValue> globals;
  /// Function-call frames (innermost last). Mirrors the runtime interpreter:
  /// a function body sees its own frame plus the globals, never the caller's
  /// locals.
  std::vector<std::map<std::string, AbstractValue>> frames;
  /// True once this path has crossed a statically undecidable branch: rule
  /// hits downstream are "may happen on this path", not certainties.
  bool speculative = false;
  bool returned = false;
  AbstractValue return_value;

  explicit Path(const EngineConfig* config) : tracker(config) {}
};

struct FunctionDef {
  std::vector<std::string> params;
  std::shared_ptr<Block> body;
};

class Analyzer {
 public:
  Analyzer(const EngineConfig& config, const AnalyzeOptions& opts)
      : config_(config), opts_(opts) {}

  void seed_global(const std::string& name, json::Value value) {
    seeds_[name] = std::move(value);
  }

  AnalysisReport run(const script::Program& program) {
    Path initial(&config_);
    initial.tracker.initialize({});  // the configured initial symbolic state
    for (const auto& [name, value] : seeds_) {
      initial.globals[name] = AbstractValue::make_const(value);
    }
    std::vector<Path> paths;
    paths.push_back(std::move(initial));
    exec_block(program.statements, std::move(paths));
    return std::move(report_);
  }

 private:
  // -- diagnostics ---------------------------------------------------------

  void emit(Severity severity, const std::string& rule, std::string message, int line,
            bool speculative) {
    if (speculative && severity == Severity::Error) {
      severity = Severity::Warning;
      message += " (may happen on this path)";
    }
    if (!seen_.insert(std::make_tuple(rule, line, message)).second) return;
    if (report_.diagnostics.size() >= static_cast<std::size_t>(opts_.max_diagnostics)) {
      report_.truncated = true;
      return;
    }
    report_.diagnostics.push_back(Diagnostic{severity, rule, std::move(message), line});
  }

  void note_budget(const std::string& what, int line) {
    report_.truncated = true;
    emit(Severity::Info, "A8", "analysis budget reached (" + what + "); later findings may "
                               "be incomplete", line, false);
  }

  // -- command handling ----------------------------------------------------

  void check_and_apply(Path& p, const Command& cmd, int line) {
    if (opts_.observe_command) {
      CommandObservation obs;
      obs.cmd = &cmd;
      obs.tracker = &p.tracker;
      obs.line = line;
      obs.speculative = p.speculative;
      opts_.observe_command(obs);
    }
    if (auto hit = core::check_preconditions(config_, p.tracker, cmd)) {
      emit(Severity::Error, hit->rule, hit->message, line, p.speculative);
    }
    extra_command_checks(config_, p.tracker, cmd,
                         [&](Severity s, const std::string& rule, const std::string& msg) {
                           emit(s, rule, msg, line, p.speculative);
                         });
    // Apply postconditions even after a hit so one mistake does not cascade
    // into a page of follow-on diagnostics.
    try {
      p.tracker.apply_postconditions(cmd);
    } catch (const std::exception&) {
      // Malformed arguments (e.g. move_to without a position) were already
      // reported as an unresolvable motion target.
    }
  }

  // -- variable environment ------------------------------------------------

  AbstractValue* lookup(Path& p, const std::string& name) {
    if (!p.frames.empty()) {
      auto it = p.frames.back().find(name);
      if (it != p.frames.back().end()) return &it->second;
    }
    auto it = p.globals.find(name);
    return it == p.globals.end() ? nullptr : &it->second;
  }

  void define(Path& p, const std::string& name, AbstractValue value) {
    (p.frames.empty() ? p.globals : p.frames.back())[name] = std::move(value);
  }

  void assign(Path& p, const std::string& name, AbstractValue value, int line) {
    if (!p.frames.empty()) {
      auto it = p.frames.back().find(name);
      if (it != p.frames.back().end()) {
        it->second = std::move(value);
        return;
      }
    }
    auto it = p.globals.find(name);
    if (it != p.globals.end()) {
      it->second = std::move(value);
      return;
    }
    emit(Severity::Error, "A6", "assignment to undefined variable '" + name + "'", line,
         p.speculative);
    define(p, name, std::move(value));
  }

  // -- expression evaluation (single path, no forking) ---------------------

  AbstractValue eval(const Expr& expr, Path& p) {
    return std::visit([&](const auto& node) { return eval_node(node, expr.line, p); },
                      expr.node);
  }

  AbstractValue eval_node(const script::NumberLit& n, int, Path&) {
    return AbstractValue::make_const(json::Value(n.value));
  }
  AbstractValue eval_node(const script::StringLit& n, int, Path&) {
    return AbstractValue::make_const(json::Value(n.value));
  }
  AbstractValue eval_node(const script::BoolLit& n, int, Path&) {
    return AbstractValue::make_const(json::Value(n.value));
  }
  AbstractValue eval_node(const script::NullLit&, int, Path&) {
    return AbstractValue::make_const(json::Value());
  }

  AbstractValue eval_node(const script::Ident& n, int line, Path& p) {
    if (AbstractValue* v = lookup(p, n.name)) return *v;
    if (config_.find_device(n.name) != nullptr) return AbstractValue::device_ref(n.name);
    emit(Severity::Error, "A6",
         "unknown identifier '" + n.name + "' (neither a variable nor a configured device)",
         line, p.speculative);
    return AbstractValue::top();
  }

  AbstractValue eval_node(const script::ListLit& n, int, Path& p) {
    json::Array items;
    bool all_const = true;
    for (const script::ExprPtr& item : n.items) {
      AbstractValue v = eval(*item, p);
      if (v.is_const() && v.device.empty()) {
        items.push_back(v.constant);
      } else {
        all_const = false;
      }
    }
    if (!all_const) return AbstractValue::top();
    return AbstractValue::make_const(json::Value(std::move(items)));
  }

  AbstractValue eval_node(const script::Unary& n, int line, Path& p) {
    AbstractValue v = eval(*n.operand, p);
    if (n.op == "-") {
      double lo = 0.0, hi = 0.0;
      if (v.numeric_bounds(lo, hi)) {
        return lo == hi ? AbstractValue::make_const(json::Value(-lo))
                        : AbstractValue::make_range(-hi, -lo);
      }
      return AbstractValue::top();
    }
    if (n.op == "not") {
      if (auto t = v.truth()) return AbstractValue::make_const(json::Value(!*t));
      return AbstractValue::top();
    }
    (void)line;
    return AbstractValue::top();
  }

  AbstractValue eval_node(const script::Binary& n, int, Path& p) {
    AbstractValue lhs = eval(*n.lhs, p);
    AbstractValue rhs = eval(*n.rhs, p);
    return abstract_binary(n.op, lhs, rhs);
  }

  AbstractValue eval_node(const script::Index& n, int line, Path& p) {
    AbstractValue base = eval(*n.base, p);
    AbstractValue index = eval(*n.index, p);
    if (base.is_top()) return AbstractValue::top();
    if (!index.is_const()) {
      // A dynamic index defeats constant propagation — a documented
      // soundness limit (DESIGN.md).
      emit(Severity::Info, "A7", "index is not statically resolvable", line, p.speculative);
      return AbstractValue::top();
    }
    if (base.constant.is_object() && index.constant.is_string()) {
      if (const json::Value* v = base.constant.find(index.constant.as_string())) {
        return AbstractValue::make_const(*v);
      }
      emit(Severity::Error, "A6", "key '" + index.constant.as_string() + "' not found",
           line, p.speculative);
      return AbstractValue::top();
    }
    if (base.constant.is_array() && index.constant.is_number()) {
      const json::Array& items = base.constant.as_array();
      if (auto i = script::list_index(index.constant.as_double(), items.size())) {
        return AbstractValue::make_const(items[*i]);
      }
      emit(Severity::Error, "A6", "list index out of range", line, p.speculative);
      return AbstractValue::top();
    }
    return AbstractValue::top();
  }

  AbstractValue eval_node(const script::Call& n, int line, Path& p) {
    std::vector<AbstractValue> args;
    args.reserve(n.args.size());
    for (const CallArg& a : n.args) args.push_back(eval(*a.value, p));

    if (auto builtin = eval_builtin(n.callee, args)) return *builtin;

    auto fn = functions_.find(n.callee);
    if (fn == functions_.end()) {
      emit(Severity::Error, "A6", "call to undefined function '" + n.callee + "'", line,
           p.speculative);
      return AbstractValue::top();
    }
    return call_function_inline(fn->second, std::move(args), p, line);
  }

  AbstractValue eval_node(const script::MethodCall& n, int line, Path& p) {
    AbstractValue base = eval(*n.base, p);
    if (base.device.empty()) {
      if (!base.is_top()) {
        emit(Severity::Error, "A6", "method call on a value that is not a device", line,
             p.speculative);
      }
      return AbstractValue::top();
    }

    Command cmd;
    cmd.device = base.device;
    cmd.action = n.method;
    cmd.source_line = line;
    json::Object args;
    std::vector<std::pair<std::string, AbstractValue>> unresolved;
    for (const CallArg& a : n.args) {
      AbstractValue v = eval(*a.value, p);
      if (a.name.empty()) {
        emit(Severity::Error, "A6", "device commands take named arguments", line,
             p.speculative);
        return AbstractValue::top();
      }
      if (!v.device.empty()) {
        args[a.name] = json::Value(v.device);  // device refs pass as id strings
      } else if (v.is_const()) {
        args[a.name] = v.constant;
      } else {
        unresolved.emplace_back(a.name, v);
      }
    }
    cmd.args = json::Value(std::move(args));

    if (unresolved.empty()) {
      check_and_apply(p, cmd, line);
    } else {
      check_unresolved(p, cmd, unresolved, line);
    }
    // A command's script-visible result (e.g. a solubility measurement) is
    // environment input: never statically known.
    return AbstractValue::top();
  }

  /// G11 is still decidable for a non-constant argument when its *interval*
  /// clears or crosses the threshold (A5).
  void check_unresolved(Path& p, const Command& cmd,
                        const std::vector<std::pair<std::string, AbstractValue>>& unresolved,
                        int line) {
    if (opts_.observe_command) {
      CommandObservation obs;
      obs.cmd = &cmd;
      obs.tracker = &p.tracker;
      obs.line = line;
      obs.speculative = p.speculative;
      obs.unresolved = &unresolved;
      opts_.observe_command(obs);
    }
    const DeviceMeta* meta = config_.find_device(cmd.device);
    if (meta == nullptr) {
      emit(Severity::Error, "G3", "command addresses unknown device '" + cmd.device + "'",
           line, p.speculative);
      return;
    }
    const core::ThresholdSpec* threshold = meta->threshold_for(cmd.action);
    for (const auto& [name, value] : unresolved) {
      if (threshold != nullptr && threshold->argument == name) {
        double lo = 0.0, hi = 0.0;
        if (value.numeric_bounds(lo, hi)) {
          if (lo > threshold->max) {
            emit(Severity::Error, "G11",
                 meta->id + "." + cmd.action + ": " + name + " ∈ [" + std::to_string(lo) +
                     ", " + std::to_string(hi) + "] always exceeds the threshold " +
                     std::to_string(threshold->max),
                 line, p.speculative);
          } else if (hi > threshold->max) {
            emit(Severity::Warning, "G11",
                 meta->id + "." + cmd.action + ": " + name + " may reach " +
                     std::to_string(hi) + ", above the threshold " +
                     std::to_string(threshold->max) + " on some path",
                 line, p.speculative);
          }
        } else {
          emit(Severity::Warning, "A5",
               meta->id + "." + cmd.action + ": thresholded argument '" + name +
                   "' is not statically resolvable",
               line, p.speculative);
        }
      } else {
        emit(Severity::Info, "A7",
             meta->id + "." + cmd.action + ": argument '" + name +
                 "' is not statically resolvable; command not checked",
             line, p.speculative);
      }
    }
  }

  std::optional<AbstractValue> eval_builtin(const std::string& name,
                                            const std::vector<AbstractValue>& args) {
    if (name == "len" && args.size() == 1) {
      const AbstractValue& v = args[0];
      if (v.is_const() && v.constant.is_array()) {
        return AbstractValue::make_const(json::Value(v.constant.as_array().size()));
      }
      return AbstractValue::top();
    }
    if (name == "abs" && args.size() == 1) {
      double lo = 0.0, hi = 0.0;
      if (args[0].numeric_bounds(lo, hi)) {
        if (lo >= 0) return AbstractValue::make_range(lo, hi);
        if (hi <= 0) return AbstractValue::make_range(-hi, -lo);
        return AbstractValue::make_range(0.0, std::max(-lo, hi));
      }
      return AbstractValue::top();
    }
    if ((name == "min" || name == "max") && args.size() == 2) {
      double alo = 0.0, ahi = 0.0, blo = 0.0, bhi = 0.0;
      if (args[0].numeric_bounds(alo, ahi) && args[1].numeric_bounds(blo, bhi)) {
        if (name == "min") return AbstractValue::make_range(std::min(alo, blo), std::min(ahi, bhi));
        return AbstractValue::make_range(std::max(alo, blo), std::max(ahi, bhi));
      }
      return AbstractValue::top();
    }
    return std::nullopt;
  }

  /// Expression-position function call: runs the body on this single path.
  /// Statement-position calls (the common case) go through exec_stmt and
  /// fork freely; here an undecidable branch inside the callee is skipped
  /// with an A7 note — a documented soundness limit.
  AbstractValue call_function_inline(const FunctionDef& fn, std::vector<AbstractValue> args,
                                     Path& p, int line) {
    if (call_depth_ >= 16) {
      note_budget("recursion depth", line);
      return AbstractValue::top();
    }
    std::map<std::string, AbstractValue> frame;
    for (std::size_t i = 0; i < fn.params.size(); ++i) {
      frame[fn.params[i]] =
          i < args.size() ? std::move(args[i]) : AbstractValue::make_const(json::Value());
    }
    p.frames.push_back(std::move(frame));
    ++call_depth_;
    std::vector<Path> result = exec_block(*fn.body, make_single(std::move(p)));
    --call_depth_;
    // Non-forking context: keep the first resulting path, note if forks were
    // collapsed.
    if (result.size() > 1) {
      emit(Severity::Info, "A7",
           "branches inside this call could not all be followed in expression position",
           line, true);
      report_.truncated = true;
    }
    p = std::move(result.front());
    p.frames.pop_back();
    AbstractValue ret = p.returned ? p.return_value : AbstractValue::make_const(json::Value());
    p.returned = false;
    return ret;
  }

  static std::vector<Path> make_single(Path p) {
    std::vector<Path> v;
    v.push_back(std::move(p));
    return v;
  }

  // -- statement execution (path-set) --------------------------------------

  std::vector<Path> exec_block(const Block& block, std::vector<Path> paths) {
    for (const script::StmtPtr& stmt : block) {
      std::vector<Path> next;
      for (Path& p : paths) {
        if (p.returned) {
          next.push_back(std::move(p));
          continue;
        }
        std::vector<Path> out = exec_stmt(*stmt, std::move(p));
        for (Path& q : out) next.push_back(std::move(q));
      }
      paths = std::move(next);
      if (paths.empty()) break;
    }
    return paths;
  }

  std::vector<Path> exec_stmt(const Stmt& stmt, Path p) {
    return std::visit(
        [&](const auto& node) { return exec_node(node, stmt.line, std::move(p)); }, stmt.node);
  }

  std::vector<Path> exec_node(const script::LetStmt& n, int, Path p) {
    AbstractValue v = eval(*n.value, p);
    define(p, n.name, std::move(v));
    return make_single(std::move(p));
  }

  std::vector<Path> exec_node(const script::AssignStmt& n, int line, Path p) {
    AbstractValue v = eval(*n.value, p);
    assign(p, n.name, std::move(v), line);
    return make_single(std::move(p));
  }

  std::vector<Path> exec_node(const script::DefStmt& n, int, Path p) {
    functions_[n.name] = FunctionDef{n.params, n.body};
    return make_single(std::move(p));
  }

  std::vector<Path> exec_node(const script::ReturnStmt& n, int, Path p) {
    p.return_value =
        n.value != nullptr ? eval(*n.value, p) : AbstractValue::make_const(json::Value());
    p.returned = true;
    return make_single(std::move(p));
  }

  std::vector<Path> exec_node(const script::ExprStmt& n, int line, Path p) {
    // A statement-position user-function call forks freely through the body.
    if (const auto* call = std::get_if<script::Call>(&n.expr->node)) {
      auto fn = functions_.find(call->callee);
      if (fn != functions_.end()) {
        std::vector<AbstractValue> args;
        args.reserve(call->args.size());
        for (const CallArg& a : call->args) args.push_back(eval(*a.value, p));
        std::map<std::string, AbstractValue> frame;
        for (std::size_t i = 0; i < fn->second.params.size(); ++i) {
          frame[fn->second.params[i]] =
              i < args.size() ? std::move(args[i]) : AbstractValue::make_const(json::Value());
        }
        p.frames.push_back(std::move(frame));
        std::vector<Path> out = exec_block(*fn->second.body, make_single(std::move(p)));
        for (Path& q : out) {
          q.frames.pop_back();
          q.returned = false;
        }
        return out;
      }
    }
    eval(*n.expr, p);
    (void)line;
    return make_single(std::move(p));
  }

  std::vector<Path> exec_node(const script::IfStmt& n, int line, Path p) {
    AbstractValue cond = eval(*n.condition, p);
    std::optional<bool> t = cond.truth();
    if (t.has_value()) {
      return exec_block(*t ? n.then_branch : n.else_branch, make_single(std::move(p)));
    }
    // Undecidable: fork (both sides are speculative).
    p.speculative = true;
    std::vector<Path> out;
    if (live_paths_ + 1 <= opts_.max_paths) {
      ++live_paths_;
      Path other = p;
      std::vector<Path> else_out = exec_block(n.else_branch, make_single(std::move(other)));
      for (Path& q : else_out) out.push_back(std::move(q));
      --live_paths_;
    } else {
      note_budget("path fork limit", line);
    }
    std::vector<Path> then_out = exec_block(n.then_branch, make_single(std::move(p)));
    for (Path& q : then_out) out.push_back(std::move(q));
    return out;
  }

  std::vector<Path> exec_node(const script::WhileStmt& n, int line, Path p) {
    struct LoopPath {
      Path path;
      int speculative_iters = 0;
    };
    std::vector<Path> done;
    std::vector<LoopPath> active;
    active.push_back(LoopPath{std::move(p), 0});

    for (int iter = 0; !active.empty(); ++iter) {
      if (iter >= opts_.loop_unroll_budget) {
        // Forced exit: beyond the unrolling budget everything downstream is
        // speculative (a soundness limit for unbounded loops).
        note_budget("loop unrolling", line);
        for (LoopPath& lp : active) {
          lp.path.speculative = true;
          done.push_back(std::move(lp.path));
        }
        break;
      }
      std::vector<LoopPath> next;
      for (LoopPath& lp : active) {
        AbstractValue cond = eval(*n.condition, lp.path);
        std::optional<bool> t = cond.truth();
        if (t.has_value() && !*t) {
          done.push_back(std::move(lp.path));
          continue;
        }
        if (!t.has_value()) {
          // Unknown condition: keep the exit path, speculate a bounded
          // number of further iterations.
          if (lp.speculative_iters >= opts_.unknown_loop_unroll ||
              done.size() + active.size() >= static_cast<std::size_t>(opts_.max_paths)) {
            lp.path.speculative = true;
            done.push_back(std::move(lp.path));
            continue;
          }
          Path exit_path = lp.path;
          exit_path.speculative = true;
          done.push_back(std::move(exit_path));
          lp.path.speculative = true;
          ++lp.speculative_iters;
        }
        int spec = lp.speculative_iters;
        std::vector<Path> body_out = exec_block(n.body, make_single(std::move(lp.path)));
        for (Path& q : body_out) {
          if (q.returned) {
            done.push_back(std::move(q));
          } else {
            next.push_back(LoopPath{std::move(q), spec});
          }
        }
      }
      active = std::move(next);
    }
    return done;
  }

  const EngineConfig& config_;
  AnalyzeOptions opts_;
  AnalysisReport report_;
  std::map<std::string, json::Value> seeds_;
  std::map<std::string, FunctionDef> functions_;
  std::set<std::tuple<std::string, int, std::string>> seen_;
  int live_paths_ = 1;
  int call_depth_ = 0;
};

}  // namespace

// ---------------------------------------------------------------------------
// Entry points
// ---------------------------------------------------------------------------

std::optional<geom::Aabb> workspace_envelope(const core::EngineConfig& config) {
  std::optional<geom::Aabb> env;
  auto extend = [&env](const geom::Aabb& box) { env = env ? env->united(box) : box; };
  for (const sim::NamedBox& b : config.static_obstacles) extend(b.box);
  for (const DeviceMeta& d : config.devices) {
    if (d.box) extend(*d.box);
    if (d.sleep_box) extend(*d.sleep_box);
    if (d.sensor_zone) extend(*d.sensor_zone);
  }
  for (const SiteMeta& s : config.sites) extend(geom::Aabb(s.lab_position, s.lab_position));
  return env;
}

json::Value seed_locations(const core::EngineConfig& config, double safe_lift) {
  json::Object table;
  for (const SiteMeta& site : config.sites) {
    json::Object per_arm;
    for (const DeviceMeta& d : config.devices) {
      if (!d.is_arm) continue;
      geom::Vec3 pickup = d.base.inverse().apply(site.lab_position);
      geom::Vec3 safe = pickup + geom::Vec3(0, 0, safe_lift);
      json::Object coords;
      coords["pickup"] = json::Array{pickup.x, pickup.y, pickup.z};
      coords["safe"] = json::Array{safe.x, safe.y, safe.z};
      per_arm[d.id] = std::move(coords);
    }
    table[site.name] = std::move(per_arm);
  }
  return json::Value(std::move(table));
}

AnalysisReport analyze_script(const core::EngineConfig& config, const script::Program& program,
                              const AnalyzeOptions& options) {
  Analyzer analyzer(config, options);
  analyzer.seed_global("locations", seed_locations(config));
  return analyzer.run(program);
}

AnalysisReport analyze_script(const core::EngineConfig& config, std::string_view source,
                              const AnalyzeOptions& options) {
  return analyze_script(config, source, {}, options);
}

AnalysisReport analyze_script(const core::EngineConfig& config, std::string_view source,
                              const std::map<std::string, json::Value>& globals,
                              const AnalyzeOptions& options) {
  script::Program program;
  try {
    program = script::parse(source);
  } catch (const script::ScriptError& e) {
    AnalysisReport report;
    report.diagnostics.push_back(
        Diagnostic{Severity::Error, "SYNTAX", e.what(), e.line()});
    return report;
  }
  Analyzer analyzer(config, options);
  analyzer.seed_global("locations", seed_locations(config));
  for (const auto& [name, value] : globals) analyzer.seed_global(name, value);
  return analyzer.run(program);
}

AnalysisReport analyze_stream(const core::EngineConfig& config,
                              const std::vector<dev::Command>& commands,
                              const AnalyzeOptions& options) {
  AnalysisReport report;
  std::set<std::tuple<std::string, int, std::string>> seen;
  StateTracker tracker(&config);
  tracker.initialize({});

  auto emit = [&](Severity severity, const std::string& rule, const std::string& message,
                  int line) {
    if (!seen.insert(std::make_tuple(rule, line, message)).second) return;
    if (report.diagnostics.size() >= static_cast<std::size_t>(options.max_diagnostics)) {
      report.truncated = true;
      return;
    }
    report.diagnostics.push_back(Diagnostic{severity, rule, message, line});
  };

  for (std::size_t i = 0; i < commands.size(); ++i) {
    const Command& cmd = commands[i];
    int line = cmd.source_line > 0 ? cmd.source_line : static_cast<int>(i + 1);
    if (options.observe_command) {
      CommandObservation obs;
      obs.cmd = &cmd;
      obs.tracker = &tracker;
      obs.line = line;
      options.observe_command(obs);
    }
    if (auto hit = core::check_preconditions(config, tracker, cmd)) {
      emit(Severity::Error, hit->rule, hit->message, line);
    }
    extra_command_checks(config, tracker, cmd,
                         [&](Severity s, const std::string& rule, const std::string& msg) {
                           emit(s, rule, msg, line);
                         });
    try {
      tracker.apply_postconditions(cmd);
    } catch (const std::exception&) {
      // Malformed command arguments were reported by the precondition check.
    }
  }
  return report;
}

}  // namespace rabit::analysis
