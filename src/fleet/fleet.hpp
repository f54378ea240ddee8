// rabit::fleet — multi-stream checking at production scale.
//
// The paper evaluates RABIT on one experiment stream; the ROADMAP north-star
// is a middleware validating many concurrent streams. They arrive as a
// campaign (below). Fleet::run certifies which streams can never interact
// (analysis::plan_campaign_shards) and checks each shard on its own
// core::Lab across one worker pool. Shards of a planner-produced plan share
// only the epoch-versioned pose board, so for a given campaign the report,
// and the per-shard observability merged in shard order, are identical
// whatever the worker count or scheduler interleaving. One isolated lab
// needs no fleet: build a core::Lab and run a trace::Supervisor on it.
#pragma once

#include <cstddef>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "analysis/shard_plan.hpp"
#include "core/engine.hpp"
#include "obs/obs.hpp"
#include "sim/backend.hpp"

namespace rabit::fleet {

/// Percentiles over per-command check latencies (thread-CPU time, see
/// trace::SupervisedStep::check_cpu_us).
///
/// Convention (shared with obs::Histogram::percentile, see
/// obs::nearest_rank): nearest-rank over ascending-sorted samples, rank =
/// clamp(ceil(q * N), 1, N), value = sorted[rank - 1]. Consequences worth
/// pinning: with one sample every percentile is that sample; with two,
/// p50 is the smaller and p90/p99 the larger; all-duplicate inputs yield
/// the duplicate everywhere.
struct LatencySummary {
  std::size_t samples = 0;
  double p50_us = 0.0;
  double p90_us = 0.0;
  double p99_us = 0.0;
  /// Tail gate percentile: with fewer than 1000 samples nearest-rank makes
  /// this equal to max_us, which is exactly the conservative gate we want on
  /// smoke-sized workloads.
  double p999_us = 0.0;
  double max_us = 0.0;
};

[[nodiscard]] LatencySummary summarize_latencies(std::vector<double> latencies_us);

// ---------------------------------------------------------------------------
// Shared-lab campaigns
// ---------------------------------------------------------------------------
//
// A campaign is many command streams dispatched concurrently into ONE
// shared lab (one backend, one engine, one tracker) — the production setting
// where interference hazards live. Fleet::run_campaign(spec) is its
// reference semantics: a deterministic seeded interleaving of the streams on
// one lab, then a solo replay of each alerted stream on an identical fresh
// lab (streams with equal command lists share one) and a diff of the
// alerts. An alert the interleaved run raises that the stream's solo run
// does not is a *cross-stream* alert — ground truth for
// the static interference analyzer (analysis::analyze_campaign), whose
// differential sweep asserts every such alert maps to an I-diagnostic naming
// the alerting device. Fleet::run reaches the same verdicts shard by shard.

/// One stream of a shared-lab campaign. Streams are given either as concrete
/// commands or as DSL script source (recorded against the campaign's probe
/// lab, a pristine backend and deck, when commands are empty; equal script
/// texts are recorded once).
struct CampaignStreamSpec {
  std::string name;
  std::vector<dev::Command> commands;
  std::string script;  ///< DSL source; used when `commands` is empty
};

struct CampaignSpec {
  core::Variant variant = core::Variant::Modified;
  /// Seeds both the backend RNG and the interleaving scheduler; a campaign
  /// is a pure function of (spec, seed).
  unsigned seed = 42;
  bool halt_on_alert = false;  ///< default: check everything, block, continue
  std::vector<CampaignStreamSpec> streams;
  /// Deck builder run against every lab this campaign creates (the probe lab
  /// that scripts are recorded on and the planner's config comes from, shard
  /// labs, solo-replay labs). Null means the standard Hein testbed
  /// (sim::build_hein_testbed_deck). Must be deterministic: every lab of a
  /// campaign has to be built identically.
  std::function<void(sim::LabBackend&)> deck;
};

/// One alert of the interleaved run, mapped back to its originating stream.
struct CampaignAlert {
  std::size_t stream = 0;         ///< index into CampaignSpec::streams
  std::size_t command_index = 0;  ///< index into that stream's commands
  core::Alert alert;
  /// True when the stream's solo replay did not raise this rule at this
  /// command index: the alert exists only because of the other streams.
  bool cross_stream = false;
};

struct CampaignReport {
  std::vector<CampaignAlert> alerts;
  std::size_t commands_checked = 0;
  /// The executed interleaving: (stream index, command index) in dispatch
  /// order. Replayable from the spec seed alone. Plan-driven runs compute the
  /// same global schedule and filter it per shard (relative order within a
  /// shard is exactly the monolithic order).
  std::vector<std::pair<std::size_t, std::size_t>> schedule;
  /// Shard count of the executed plan; the monolithic reference runs as a
  /// 1-shard plan and reports 1.
  std::size_t shards = 0;
  /// V3 runs: how many out-of-shard arm poses were served from
  /// the epoch-versioned pose board (the lock-free cross-shard read path —
  /// both simulator provider reads and certificate-monitor audits). This
  /// count is deterministic: motion checks x out-of-shard arms.
  std::size_t snapshot_pose_serves = 0;
  /// Plan-driven runs: cross-shard coordination events — acquisitions of
  /// the shared rendezvous mutex on the explicit coordination path (steps
  /// on devices commanded from more than one shard, plus pose reads of
  /// arms no certificate covers). Provably 0 under a verified
  /// planner-produced plan.
  std::size_t coordination_events = 0;
  /// Runtime certificate-monitor findings: a live out-of-shard arm pose
  /// observed OUTSIDE the envelope its independence certificates assumed.
  /// Each entry names shard, arm, and the offending pose. Empty means every
  /// lock-free snapshot read was certifiably sound.
  std::vector<std::string> certificate_breaches;
  /// Validation-oracle findings (ShardedCampaignOptions::validate_certificates);
  /// empty when the oracle is off or clean.
  std::vector<std::string> oracle_violations;
  /// Shard-execution phase only (pool start to last shard done). Excludes
  /// script recording, the probe lab, solo replays and the validation oracle.
  double wall_s = 0.0;
  double commands_per_s = 0.0;  ///< commands_checked / wall_s
  /// Wall-clock seconds of the other stages of the campaign call.
  /// resolve_s: the probe lab and script recording. plan_s: the shard
  /// planner, 0 when the caller passes the plan. classify_s: solo
  /// classification, whose replays run on the worker pool, so this is their
  /// wall time, not their summed work. total_s: the whole call, resolve
  /// through classification, the validation oracle excluded.
  double resolve_s = 0.0;
  double plan_s = 0.0;
  double classify_s = 0.0;
  double total_s = 0.0;
  /// Work counts, deterministic for a given spec and plan. scripts_recorded:
  /// distinct script texts recorded. solo_replays: one per distinct alerted
  /// command list. labs_built: the probe, one lab per shard and one per solo
  /// replay (the validation oracle's labs are not counted).
  std::size_t scripts_recorded = 0;
  std::size_t solo_replays = 0;
  std::size_t labs_built = 0;
  /// Per-command engine check latencies across all shards (thread-CPU time,
  /// see trace::SupervisedStep::check_cpu_us).
  LatencySummary check_latency;
  /// Merged per-shard observability (null unless ShardedCampaignOptions::obs).
  /// Merged in shard-index order at join, so event exports are byte-identical
  /// across worker counts. Epoch-lag and latency histograms are wall-clock /
  /// timing dependent and live only in the registry (schema-stable, not
  /// byte-stable) per the obs determinism contract.
  std::shared_ptr<obs::Collector> obs_events;
  std::shared_ptr<obs::Registry> obs_metrics;

  [[nodiscard]] std::size_t cross_stream_alerts() const;
};

/// Options for the plan-driven sharded campaign mode.
struct ShardedCampaignOptions {
  /// Worker threads of the one pool the campaign runs on: first across
  /// shards, then across solo replays, clamped each time to the number of
  /// jobs, minimum 1. Shards share no mutable lab state, and each replay
  /// writes only its own result, so the report is identical for any worker
  /// count.
  std::size_t workers = 1;
  /// Debug validation oracle: also run the monolithic shared-lab campaign
  /// and record certificate_violations() of the pair into
  /// CampaignReport::oracle_violations. Expensive (a second full campaign);
  /// meant for tests and the differential sweep, not production.
  bool validate_certificates = false;
  /// Publish shard-owned arm poses to the epoch-versioned pose board after
  /// every executed step (the live-snapshot protocol). false freezes the
  /// board at its campaign-start epoch — maximal staleness — which the
  /// soundness regression test uses to pin that verdicts are identical
  /// either way whenever the certificate monitor reports no breach.
  bool publish_poses = true;
  /// Attach a per-shard obs::Collector + obs::Registry to every shard
  /// (stream label "shard-<k>") and merge them in shard order into
  /// CampaignReport::obs_events / obs_metrics. Adds per-shard coordination /
  /// snapshot-serve counters and the snapshot-epoch-lag histogram.
  bool obs = false;
};

/// Shared-lab campaign execution (see the block comment above).
class Fleet {
 public:
  /// Runs the seeded interleaving on one shared lab — a 1-shard plan through
  /// the same runner as every other mode — then classifies every alert
  /// against solo baselines: one replay per distinct alerted command list,
  /// cut after its furthest alerted command. This is the *reference*
  /// (monolithic) semantics; Fleet::run is the default execution model.
  [[nodiscard]] static CampaignReport run_campaign(const CampaignSpec& spec);

  /// The default fleet execution model: builds one probe lab (backend, deck
  /// and config), records each distinct script on it once, runs the static
  /// shard planner (analysis::plan_campaign_shards), and executes the plan on
  /// the sharded hot path below. An unshardable campaign yields a 1-shard plan.
  /// When `plan_out` is non-null the computed plan is stored there.
  [[nodiscard]] static CampaignReport run(const CampaignSpec& spec,
                                          const ShardedCampaignOptions& options = {},
                                          analysis::ShardPlan* plan_out = nullptr);

  /// Plan-driven sharded mode (DESIGN.md, "Sharded fleet execution"): each
  /// shard of `plan` runs the global schedule filtered to its streams on its
  /// OWN core::Lab, across the worker pool. In-shard checking is lock-free;
  /// out-of-shard arm poses come from the epoch-versioned pose board
  /// (sim::PoseBoard), audited against ShardPlan::arm_envelopes into
  /// certificate_breaches. Devices claimed by more than one shard, and arms
  /// no certificate covers, serialize through one rendezvous mutex (counted
  /// in coordination_events). Alerts are classified against solo baselines
  /// and merged in global-schedule order, so the report is independent of
  /// worker count. `halt_on_alert` is shard-local: an alert halts its own
  /// shard only. Throws std::runtime_error, naming the stream, unless the
  /// plan's shards partition spec.streams: every stream index in exactly one
  /// shard, none out of range.
  [[nodiscard]] static CampaignReport run_campaign(const CampaignSpec& spec,
                                                   const analysis::ShardPlan& plan,
                                                   const ShardedCampaignOptions& options = {});
};

/// The runtime half of the independence-certificate check (the static half is
/// analysis::verify_plan): diffs a monolithic run against a plan-driven run
/// of the SAME spec. Reported violations:
///   - a stream's (command index, rule) alert set differs between the two
///     runs — some out-of-shard stream observably influenced it, so a
///     certificate lied (this half assumes both runs checked their full
///     schedules, i.e. halt_on_alert was false);
///   - a stream in a singleton shard — certified independent of every other
///     stream — carries a cross-stream-classified alert in either run.
/// Empty result: no certified-independent pair produced any cross-stream
/// effect. Wired into the differential sweep as the runtime soundness gate.
[[nodiscard]] std::vector<std::string> certificate_violations(const analysis::ShardPlan& plan,
                                                              const CampaignReport& monolithic,
                                                              const CampaignReport& sharded);

/// Parses the rabit_lint --fleet campaign format:
///   { "seed": 7, "variant": "modified", "halt_on_alert": false,
///     "streams": [ { "name": "a",
///                    "commands": [ {"device": "...", "action": "...",
///                                   "args": {...}} ] },
///                  { "name": "b", "script": "<DSL source>" } ] }
/// Throws std::runtime_error naming the offending field on malformed input.
[[nodiscard]] CampaignSpec load_campaign(const json::Value& doc);

}  // namespace rabit::fleet
