// RabitEngine — the paper's Fig. 2 execution algorithm.
//
//   1  S_current <- SetState(S_initial)                  initialize()
//   5  fetch the next command a_next                     (caller / tracer)
//   6  if !Valid(S_current, a_next): alertAndStop        check_command()
//   8  if robot command and sim available:
//   9    if !ValidTrajectory(a_next): alertAndStop       check_command()
//  11  S_expected <- UpdateState(S_current, a_next)      apply_expected()
//  12  execute a_next                                    (backend)
//  13  S_actual <- FetchState()                          (caller)
//  14  if S_actual != S_expected: alertAndStop           verify_postconditions()
//  16  S_current <- SetState(S_actual)                   verify_postconditions()
#pragma once

#include <functional>

#include "core/alert.hpp"
#include "core/config.hpp"
#include "core/rules.hpp"
#include "core/tracker.hpp"
#include "obs/obs.hpp"
#include "sim/extended_sim.hpp"

namespace rabit::core {

/// Empty: the RabitEngine(EngineConfig, HotPathConfig = {}) constructor takes
/// it only so perfbench/workloads.cpp's RabitEngine(config, HotPathConfig{})
/// still compiles. It configures nothing; every check runs one code path.
struct HotPathConfig {};

class RabitEngine {
 public:
  explicit RabitEngine(EngineConfig config, HotPathConfig /*unused*/ = {});

  /// Attaches the Extended Simulator (non-owning) — the V3 deployment.
  /// Pass nullptr to detach.
  void attach_simulator(sim::ExtendedSimulator* simulator);
  [[nodiscard]] bool simulator_attached() const { return simulator_ != nullptr; }
  /// The attached simulator (null when detached). The runtime-assurance
  /// decision module issues its margin queries through this.
  [[nodiscard]] sim::ExtendedSimulator* simulator() const { return simulator_; }

  [[nodiscard]] const EngineConfig& config() const { return config_; }
  [[nodiscard]] const StateTracker& tracker() const { return tracker_; }

  /// Fig. 2 line 3: seeds the symbolic state from the initial FetchState().
  void initialize(const dev::LabStateSnapshot& observed);

  /// Fig. 2 lines 6-10: precondition validation, then (when a simulator is
  /// attached and the command moves an arm) trajectory replay. Does not
  /// mutate tracked state.
  /// Aliased command names (DeviceMeta::action_aliases) are canonicalized
  /// before rule evaluation.
  [[nodiscard]] std::optional<Alert> check_command(const dev::Command& cmd);

  /// The motion geometry check_command() would replay for `cmd` — arm id,
  /// waypoints (front overridden by the simulator's polled actual position
  /// when available), held clearance and deliberate-entry ignores — or
  /// nullopt for non-motion commands / unresolvable targets. Read-only; the
  /// runtime-assurance layer derives its barrier profile from this.
  [[nodiscard]] std::optional<MotionAnalysis> motion_analysis(const dev::Command& cmd) const;

  /// Fig. 2 line 11: advances S_current to S_expected for a command that is
  /// about to execute.
  void apply_expected(const dev::Command& cmd);

  /// Fig. 2 lines 13-16 in one call, on a whole snapshot: compares the
  /// freshly fetched state against the expectation, then resyncs regardless
  /// so analysis can continue. The reference form of the two calls below,
  /// which trace::Supervisor composes instead, so that its ladder can
  /// re-poll and retry between them.
  [[nodiscard]] std::optional<Alert> verify_postconditions(const dev::Command& cmd,
                                                           const dev::LabStateSnapshot& observed);

  /// The line-14 comparison *without* the line-16 resync, so a suspicious
  /// status can be re-polled before a malfunction is declared (a stale read
  /// must not be confused with real damage). Visits only the devices that
  /// can differ (StateTracker::mismatches(ObservedLab)).
  [[nodiscard]] std::vector<std::string> postcondition_mismatches(
      const dev::ObservedLab& observed) const;

  /// Fig. 2 line 16 alone: adopts the observed state as S_current, device
  /// by device as postcondition_mismatches() visits them.
  void resync_observed(const dev::ObservedLab& observed);

  /// Builds (and counts) the DeviceMalfunction alert for diffs that
  /// survived the recovery ladder.
  [[nodiscard]] Alert declare_malfunction(const dev::Command& cmd,
                                          const std::vector<std::string>& diffs);

  /// Attaches the span the next check_command() annotates with its
  /// canonicalize and precondition phase timings (modeled + wall). Null
  /// detaches; the disabled hot path is a single pointer test per check —
  /// the zero-cost-when-off contract bench_latency_overhead enforces.
  /// Non-owning; the trace::Supervisor points this at its per-command span.
  void set_span(obs::SpanRecord* span) { span_ = span; }
  [[nodiscard]] obs::SpanRecord* span() const { return span_; }

  /// Motion observer: invoked once per motion command the V3 trajectory
  /// replay analyzes (after the polled-position override, before the sweep,
  /// regardless of the eventual verdict). The sharded fleet runner hangs its
  /// cross-shard snapshot audit here. Empty disables — the cost is one
  /// bool test per motion check. Non-owning callback, like set_span.
  void set_motion_observer(std::function<void(const MotionAnalysis&)> observer) {
    motion_observer_ = std::move(observer);
  }

  /// Runtime-assurance hook. When set > 0, the V3 trajectory replay sweeps
  /// with every obstacle inflated by this margin — the SAME single sweep
  /// (ExtendedSimulator::sweep), so the assurance fast path costs nothing
  /// extra on clean motions. Alert verdicts stay exactly the paper's
  /// uninflated ones; a trip the uninflated path clears is surfaced via
  /// last_margin_tripped() as the demotion signal. 0 disables (the default;
  /// non-assurance runs are untouched).
  void set_assurance_margin(double margin) { assurance_margin_ = margin; }
  [[nodiscard]] double assurance_margin() const { return assurance_margin_; }
  /// Did the last check_command()'s replay trip the inflated sweep while
  /// the uninflated verdict stayed clean? (Always false when the margin is
  /// unset, the command was no motion, or the replay alerted.)
  [[nodiscard]] bool last_margin_tripped() const { return last_margin_tripped_; }

  struct Stats {
    std::size_t commands_checked = 0;
    std::size_t precondition_alerts = 0;
    std::size_t trajectory_alerts = 0;
    std::size_t malfunction_alerts = 0;
    std::size_t trajectory_checks = 0;
    /// Motion commands checked at V2 level because the V3 simulator was
    /// detached mid-run (degraded mode) — counted, never silently skipped.
    std::size_t degraded_checks = 0;
    /// Line-16 resyncs of S_current onto a fetched S_actual.
    std::size_t resyncs = 0;
  };
  [[nodiscard]] const Stats& stats() const { return stats_; }

  /// Absorbs the ad-hoc Stats counters into a metrics registry as
  /// `rabit_engine_*_total` counter increments. Stats reset on initialize(),
  /// so calling this once per supervised run accumulates correctly across
  /// runs sharing one registry.
  void export_stats(obs::Registry& registry) const;

  /// True when the engine is configured for V3 checks but no simulator is
  /// attached: trajectory validation silently degrades to V2 target checks.
  [[nodiscard]] bool degraded() const {
    return config_.variant == Variant::ModifiedWithSim && simulator_ == nullptr;
  }

  /// Modeled wall-clock overhead RABIT added so far: a fixed per-command
  /// check cost plus any Extended Simulator invocations. The paper reports
  /// ~0.03 s per command without the simulator and ~2 s with its GUI (§II-C).
  [[nodiscard]] double modeled_overhead_s() const;

  /// The paper's measured per-command check cost.
  static constexpr double kBaseCheckCost_s = 0.03;

 private:
  EngineConfig config_;
  StateTracker tracker_;
  sim::ExtendedSimulator* simulator_ = nullptr;
  Stats stats_;
  double base_overhead_s_ = 0.0;
  obs::SpanRecord* span_ = nullptr;
  std::function<void(const MotionAnalysis&)> motion_observer_;
  double assurance_margin_ = 0.0;
  bool last_margin_tripped_ = false;
};

}  // namespace rabit::core
