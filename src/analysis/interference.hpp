// rabit::analysis interference — whole-campaign static race detection.
//
// The runtime checks (and the A1..A8 analyzer) validate one command stream at
// a time, but production campaigns run many scripts concurrently against
// shared arms, decks, and consumables. A campaign whose streams are each
// individually safe can still collide two arms in an overlapping workspace or
// jointly overdraw a shared vial. This module catches those *interaction*
// hazards before dispatch, in two phases:
//
//   Phase 1 — effect summaries. Each stream is walked once by the existing
//   abstract interpreter (via the AnalyzeOptions::observe_command hook) to
//   produce a StreamSummary: devices driven with per-action footprints,
//   workspace occupancy as inflated AABB envelopes over every trajectory
//   segment (A3 frame-calibration margin), signed resource deltas
//   (vial/container mass and volume) as intervals, setpoint writes, and the
//   deliberate-interaction ignore sets each stream declares.
//
//   Phase 2 — one interference predicate over the summaries
//   (find_interference), firing the I1..I6 family:
//     I1  same-device command race: two streams drive one device, race the
//         time-multiplex exclusive-motion token with different arms, or both
//         act on one shared entity (site, vial, receptacle station)
//     I2  overlapping workspace envelopes of two *different* arms
//     I3  shared-consumable budget exceedable by the *sum* of stream deltas,
//         even when each stream alone fits (capacity overflow or overdraw)
//     I4  conflicting setpoint writes (hotplate / thermoshaker target races)
//     I5  a deliberate-interaction ignore set only one stream declares
//     I6  campaign-wide rule-capacity exhaustion: the cumulative total of a
//         G11-thresholded additive argument across streams exceeds the cap
//
// The predicate has two consumers: check_interference turns each finding
// into an I-diagnostic, and the shard planner (shard_plan.hpp) turns each
// into conflict-edge evidence between the streams it names. Neither re-tests
// a summary, so the analyzer and the planner cannot disagree on a pair. A
// finding is structured data only; render_finding spells out its message
// from the summaries and the config, and only what prints calls it.
//
// Soundness model: summaries are may-analyses over each stream in isolation
// from the configured initial state. The checks therefore over-approximate
// every interleaving in which each device is driven by the streams that
// command it — the regime fleet::Fleet::run_campaign executes — and the
// differential sweep asserts that every cross-stream runtime precondition
// alert maps to an I-diagnostic whose subjects name the alerting device.
// Limits (Top-valued quantities, unresolvable motion targets, analyzer
// budgets) set StreamSummary::truncated, which propagates to the campaign
// report.
#pragma once

#include <cstddef>
#include <functional>
#include <map>
#include <set>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/analysis.hpp"
#include "geometry/geometry.hpp"

namespace rabit::analysis {

// ---------------------------------------------------------------------------
// Stream effect summaries (phase 1)
// ---------------------------------------------------------------------------

/// A closed interval used both as a running *sum* (resource deltas,
/// cumulative dosing totals) and as a *union* (setpoint write ranges).
/// `set` distinguishes "never written" from [0, 0].
struct Interval {
  double lo = 0.0;
  double hi = 0.0;
  bool set = false;

  /// Σ: widens the running sum by one more [l, h] contribution.
  void accumulate(double l, double h);
  /// ∪: smallest interval containing this one and [l, h].
  void unite(double l, double h);
  [[nodiscard]] bool same_as(const Interval& o) const;
  [[nodiscard]] std::string format() const;  ///< "[lo, hi]"
};

/// What one stream does to one device it commands.
struct DeviceFootprint {
  std::set<std::string> actions;  ///< canonical action names issued
  std::size_t commands = 0;
  bool speculative = false;  ///< some touch sits past an undecidable branch
};

/// A shared entity (site, vial, receptacle station) a stream acts on without
/// necessarily commanding it, with the devices the touches went through.
struct EntityTouch {
  std::set<std::string> via;  ///< commanding devices behind the touches
};

struct StreamSummary {
  std::string name;
  /// The summary may under-describe the stream (analysis budget, Top-valued
  /// quantity, unresolvable motion target widened to the whole workspace).
  bool truncated = false;

  std::map<std::string, DeviceFootprint> devices;  ///< devices commanded
  std::map<std::string, EntityTouch> entities;     ///< shared entities acted on
  /// Per-arm workspace occupancy: union of per-segment trajectory AABBs,
  /// inflated by kParkedArmMargin. An unresolvable motion target widens the
  /// arm to the whole configured workspace, inflated by kWorkspaceMargin.
  std::map<std::string, geom::Aabb> arm_envelopes;
  /// Per-arm declared deliberate interactions: boxes the stream's motion
  /// analysis excludes from collision checks (grid reached over, open-door
  /// station entered).
  std::map<std::string, std::set<std::string>> ignores;
  /// Signed per-container resource deltas over the whole stream.
  std::map<std::string, Interval> mass_delta_mg;
  std::map<std::string, Interval> volume_delta_ml;
  /// Setpoint writes: device -> variable -> union of written values.
  std::map<std::string, std::map<std::string, Interval>> setpoints;
  /// Cumulative totals of G11-thresholded *additive* arguments:
  /// device -> action -> Σ of the thresholded argument across the stream.
  std::map<std::string, std::map<std::string, Interval>> threshold_totals;
};

/// Summarizes a linear command stream (degenerate abstract interpretation —
/// the fleet campaign case). `per_stream` (optional) receives the stream's
/// own single-stream analysis report.
[[nodiscard]] StreamSummary summarize_stream(const core::EngineConfig& config,
                                             std::string name,
                                             const std::vector<dev::Command>& commands,
                                             const AnalyzeOptions& options = {},
                                             AnalysisReport* per_stream = nullptr);

/// Summarizes a script through the full path-set abstract interpreter.
/// Forked paths contribute their union (a may-summary); loop bodies
/// contribute once per unrolled iteration.
[[nodiscard]] StreamSummary summarize_script(const core::EngineConfig& config,
                                             std::string name, std::string_view source,
                                             const AnalyzeOptions& options = {},
                                             AnalysisReport* per_stream = nullptr);

// ---------------------------------------------------------------------------
// Interference checks (phase 2)
// ---------------------------------------------------------------------------

/// Which branch of the I1..I6 predicate fired. The shard planner adds
/// TruncatedSummary, its own pessimistic edge for an incomplete summary.
enum class ConflictKind {
  SharedDevice,      ///< I1a: both streams command one device
  MultiplexToken,    ///< I1b: different arms race the exclusive-motion token
  SharedEntity,      ///< I1c: both act on one site/vial/occupant
  EnvelopeOverlap,   ///< I2: inflated envelopes of different arms intersect
  ConsumableBudget,  ///< I3: both contribute to a violated container budget
  SetpointRace,      ///< I4: non-identical writes to one setpoint
  IgnoreAsymmetry,   ///< I5: one-sided deliberate-interaction declaration
  ThresholdBudget,   ///< I6: both contribute to a violated rule-capacity sum
  TruncatedSummary,  ///< S3: a summary is incomplete, independence unprovable
};

[[nodiscard]] std::string_view to_string(ConflictKind kind);

/// The I3 keys: which container budget the summed deltas break.
inline constexpr std::string_view kMassOverflow = "mass-overflow";
inline constexpr std::string_view kMassOverdraw = "mass-overdraw";
inline constexpr std::string_view kVolumeOverflow = "volume-overflow";
inline constexpr std::string_view kVolumeOverdraw = "volume-overdraw";

/// One firing of the interference predicate, as data: no text. Its message
/// is render_finding's, over the summaries the predicate ran on.
struct InterferenceFinding {
  ConflictKind kind = ConflictKind::SharedDevice;
  /// Indices into the summary vector: the pair for I1/I2/I4/I5 (for I5 the
  /// declaring stream first), or every contributor of a violated budget
  /// (I3/I6) in name order.
  std::vector<std::size_t> streams;
  std::string subject;  ///< the planner's edge subject
  /// The one name a message needs beyond the kind, the streams and the
  /// subject: I1b and I2 the first stream's arm (the subject is
  /// "armA+armB"), I3 one of the keys above, I4 the setpoint variable, I5
  /// the declaring arm (the subject is the box), I6 the action. Empty for
  /// I1a and I1c.
  std::string key;
  /// I1a only: either stream's access sits past an undecidable branch.
  bool speculative = false;
};

/// The I1..I6 predicate: hands `on_finding` each firing once, in this order:
/// for each pair i < j, I1a, I1b, I1c, I2, I4, I5 declared by i, I5 declared
/// by j; then I3 over mass, I3 over volume, and I6. The finding is valid only
/// during the call (the predicate reuses it), so a large campaign's findings
/// never sit in memory all at once.
void find_interference(const core::EngineConfig& config,
                       const std::vector<StreamSummary>& streams,
                       const std::function<void(const InterferenceFinding&)>& on_finding);

/// The one renderer of the predicate's text: a finding's message, exactly as
/// check_interference reports it minus the speculative " (may happen on some
/// path)" suffix, rebuilt from the summaries and the config the predicate
/// ran on. `a` and `b` are the finding's pair in its order (I5 takes either
/// order: the declaring stream is the one that declares the box), or any two
/// contributors of an I3/I6 budget, whose full list is re-derived.
/// TruncatedSummary, the planner's own evidence kind, renders its account of
/// the truncated stream named by `subject`. Throws std::out_of_range when
/// the summaries do not hold what the finding names.
[[nodiscard]] std::string render_finding(const core::EngineConfig& config,
                                         const std::vector<StreamSummary>& streams,
                                         ConflictKind kind, std::size_t a, std::size_t b,
                                         const std::string& subject, const std::string& key);

/// Maps every finding to a diagnostic carrying the devices / entities
/// involved in `subjects`, and its rendered message. A speculative I1a is a
/// warning. Any truncated summary marks the report truncated (the campaign
/// verdict may be incomplete).
[[nodiscard]] AnalysisReport check_interference(const core::EngineConfig& config,
                                                const std::vector<StreamSummary>& streams,
                                                const AnalyzeOptions& options = {});

/// A named command stream of a campaign (the static-analysis view; the
/// runtime twin is fleet::CampaignStreamSpec).
struct CampaignStream {
  std::string name;
  std::vector<dev::Command> commands;
};

/// Phase 1 over a campaign: one summary per stream, in stream order. Each
/// distinct command list (equal under dev::Command::operator==, source_line
/// included) is summarized once, and a later stream with an equal list gets
/// a copy of that summary under its own name. A summary is a function of the
/// config, the options and the commands; the name is only carried, so the
/// renamed copy is exactly the summary the stream would get on its own.
[[nodiscard]] std::vector<StreamSummary> summarize_campaign(
    const core::EngineConfig& config, const std::vector<CampaignStream>& streams,
    const AnalyzeOptions& options = {});

/// One call: summarize every stream, then run the interference checks. The
/// returned report holds only the campaign-level I-diagnostics; per-stream
/// single-stream findings come from analyze_stream / analyze_script.
[[nodiscard]] AnalysisReport analyze_campaign(const core::EngineConfig& config,
                                              const std::vector<CampaignStream>& streams,
                                              const AnalyzeOptions& options = {});

}  // namespace rabit::analysis
