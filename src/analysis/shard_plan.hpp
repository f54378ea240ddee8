// rabit::analysis shard planning — phase 3 of the campaign analyzer.
//
// Phase 1 summarizes each stream's effects (interference.hpp); phase 2 is the
// one I1..I6 interference predicate over those summaries (find_interference).
// This module is its second consumer, next to check_interference: it turns
// the same findings into an *execution plan*. Two streams are conflict-graph
// neighbours wherever a finding names them both — a shared commanded device,
// a shared entity, the exclusive-motion token, overlapping inflated arm
// envelopes, joint contribution to a violated consumable or rule-capacity
// budget, a conflicting setpoint, an asymmetric deliberate-interaction
// declaration — or wherever a truncated summary leaves the analyzer unable
// to rule any of those out. Connected components of that graph are the
// campaign's *shards*: stream sets that may observably interact. Everything
// across a shard boundary is provably independent, and the plan carries a
// machine-checkable certificate per cross-shard pair naming the conditions
// that were verified.
//
// Consumers:
//   - fleet::Fleet::run_campaign (plan-driven mode) runs each shard against
//     its own lab state — backend, engine, simulator and its verdict
//     cache — lock-free, with epoch-versioned pose snapshots for
//     out-of-shard arms;
//   - rabit_lint --shard-plan prints the plan (text or --json) so CI can
//     gate on shardability before a campaign is scheduled.
//
// Soundness: the edges are exactly the phase-2 findings plus the truncated-
// summary edges, which the differential sweep validates against runtime
// ground truth (every cross-stream runtime alert has a static I-cover, and
// the plan-driven runner's oracle asserts certified-independent streams
// never change verdicts when isolated). A truncated summary cannot certify
// anything, so it conflicts with every other stream (diagnosed as S3).
//
// Plan diagnostics (same Diagnostic schema as A/CFG/I families):
//   S1  campaign not shardable below the requested streams/shard bound —
//       carries the offending shard and its minimum conflict-edge cut as
//       evidence (the cheapest set of hazards to design away)
//   S2  a single stream serializes the fleet: an articulation stream whose
//       removal would split its shard into independent groups
//   S3  a truncated summary forced pessimistic merging
#pragma once

#include <array>
#include <bitset>
#include <cstddef>
#include <map>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/interference.hpp"
#include "json/json.hpp"

namespace rabit::analysis {

// ---------------------------------------------------------------------------
// Conflict evidence
// ---------------------------------------------------------------------------

/// One concrete reason an edge exists: an interference finding that names
/// both streams, or a truncated summary. Data only: render_finding, given
/// the edge's pair, spells out its text.
struct ConflictEvidence {
  ConflictKind kind = ConflictKind::SharedDevice;
  /// device / entity / container / "armA+armB" pair; for TruncatedSummary,
  /// the truncated stream
  std::string subject;
  std::string key;  ///< the finding's InterferenceFinding::key
};

/// An undirected conflict-graph edge between streams `a` and `b` (indices
/// into the planned summary vector, a < b) with every piece of evidence.
struct ConflictEdge {
  std::size_t a = 0;
  std::size_t b = 0;
  std::vector<ConflictEvidence> evidence;
};

// ---------------------------------------------------------------------------
// The plan
// ---------------------------------------------------------------------------

/// A set of streams that must share coordination state. Shards are listed in
/// ascending order of their smallest stream index; `streams` is sorted.
struct Shard {
  std::vector<std::size_t> streams;
};

/// The closed certificate vocabulary, in its documented order: condition k
/// is bit k of IndependenceCertificate::conditions and is spelled
/// kCertificateConditions[k].
enum CertificateCondition : std::size_t {
  kDevicesDisjoint,
  kEntitiesDisjoint,
  kNoMultiplexRace,  ///< time-multiplexed configs only
  kEnvelopesDisjoint,
  kNoSharedBudget,
  kSetpointsCompatible,
  kIgnoresSymmetric,
  kSummariesComplete,  ///< neither summary truncated
};
inline constexpr std::array<std::string_view, 8> kCertificateConditions = {
    "devices-disjoint",   "entities-disjoint",    "no-multiplex-race", "envelopes-disjoint",
    "no-shared-budget",   "setpoints-compatible", "ignores-symmetric", "summaries-complete"};

/// The machine-checkable half of a cross-shard independence claim: every
/// condition set was re-derived from the two summaries and held, so
/// verify_plan can replay the mask. Only plan_to_json and format_plan spell
/// the conditions out.
struct IndependenceCertificate {
  std::size_t a = 0;
  std::size_t b = 0;
  std::bitset<kCertificateConditions.size()> conditions;
};

struct ShardPlanOptions {
  /// S1 bound: warn when a shard holds more than this many streams. 0 keeps
  /// only the degenerate check — warn when the whole campaign collapses into
  /// a single multi-stream shard (nothing can run lock-free at all).
  std::size_t max_shard_streams = 0;
};

struct ShardPlan {
  std::vector<std::string> stream_names;  ///< planned summary order
  std::vector<Shard> shards;
  std::vector<ConflictEdge> edges;  ///< sorted by (a, b)
  /// One certificate per cross-shard pair, sorted by (a, b). Complete:
  /// every pair of streams from different shards appears exactly once.
  std::vector<IndependenceCertificate> certificates;
  /// S1..S3 findings, every one carrying concrete conflict evidence.
  AnalysisReport diagnostics;
  /// Per-arm certified pose envelope: for a commanded arm, the union of its
  /// margin-inflated summary envelopes across every stream that moves it;
  /// for an arm no stream commands, its parked sleep box inflated by
  /// kParkedArmMargin. This is the margin data the runtime snapshot
  /// soundness check audits live cross-shard pose reads against: any pose
  /// an arm ever publishes must lie inside its envelope, so a stale
  /// epoch-versioned snapshot cannot change a verdict.
  std::map<std::string, geom::Aabb, std::less<>> arm_envelopes;
  /// Any input summary was truncated: the partition is still sound (the
  /// truncated stream was merged pessimistically) but may be coarser than
  /// the campaign deserves.
  bool truncated = false;

  /// Shard index owning `stream`, or shards.size() when out of range.
  [[nodiscard]] std::size_t shard_of(std::size_t stream) const;
  /// True when `a` and `b` live in different shards (and so are covered by a
  /// certificate).
  [[nodiscard]] bool certified_independent(std::size_t a, std::size_t b) const;
  [[nodiscard]] const ConflictEdge* edge_between(std::size_t a, std::size_t b) const;
};

/// Builds the plan from phase-1 summaries. Deterministic: output order
/// depends only on the summary order.
[[nodiscard]] ShardPlan plan_shards(const core::EngineConfig& config,
                                    const std::vector<StreamSummary>& streams,
                                    const ShardPlanOptions& options = {});

/// Convenience: summarize every campaign stream (phase 1, once per distinct
/// command list: summarize_campaign), then plan.
[[nodiscard]] ShardPlan plan_campaign_shards(const core::EngineConfig& config,
                                             const std::vector<CampaignStream>& streams,
                                             const ShardPlanOptions& plan_options = {},
                                             const AnalyzeOptions& analyze_options = {});

/// Re-checks a plan against summaries from scratch: shards must partition
/// the streams, every cross-shard pair must carry a certificate, and no
/// cross-shard pair may have any conflict evidence. Returns human-readable
/// violations; empty means the plan is sound for these summaries. This is
/// the static half of the certificate check; the runtime half is the
/// fleet validation oracle (fleet::certificate_violations).
[[nodiscard]] std::vector<std::string> verify_plan(const core::EngineConfig& config,
                                                   const std::vector<StreamSummary>& streams,
                                                   const ShardPlan& plan);

/// Serializes the plan (the rabit_lint --shard-plan --json format), each
/// edge's evidence rendered from `config` and `streams`, which must be what
/// the plan was made from. The embedded "diagnostics" array uses the exact
/// per-diagnostic schema of report_to_json / diagnostic_to_json.
[[nodiscard]] json::Value plan_to_json(const core::EngineConfig& config,
                                       const std::vector<StreamSummary>& streams,
                                       const ShardPlan& plan);

/// Multi-line human-readable rendering (the rabit_lint --shard-plan text
/// format), with the same inputs as plan_to_json.
[[nodiscard]] std::string format_plan(const core::EngineConfig& config,
                                      const std::vector<StreamSummary>& streams,
                                      const ShardPlan& plan);

}  // namespace rabit::analysis
