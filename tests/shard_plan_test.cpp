// Tests for the static shard planner (analysis/shard_plan) and its fleet
// consumer: conflict-graph construction, S1..S3 diagnostics, independence
// certificates, verify_plan, the JSON rendering, the one-predicate property
// (every conflict edge is an I-diagnostic and vice versa), and the
// plan-driven run_campaign mode with its runtime certificate oracle.
#include <gtest/gtest.h>

#include <algorithm>
#include <limits>
#include <map>
#include <set>

#include "analysis/shard_plan.hpp"
#include "bugs/bugs.hpp"
#include "devices/robot_arm.hpp"
#include "fleet/fleet.hpp"
#include "interference_sweep.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"

using namespace rabit;
using analysis::ConflictKind;
using analysis::ShardPlan;
using analysis::ShardPlanOptions;
using analysis::StreamSummary;
using bugs::cmd;

namespace {

core::EngineConfig testbed_config() {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  return core::config_from_backend(backend, core::Variant::Modified);
}

/// A summary that only commands `device` (no entities, envelopes, budgets).
StreamSummary device_stream(std::string name, std::initializer_list<const char*> devices) {
  StreamSummary s;
  s.name = std::move(name);
  for (const char* d : devices) s.devices[d].actions.insert("set_temperature");
  return s;
}

const analysis::Diagnostic* find_rule(const analysis::AnalysisReport& report,
                                      std::string_view rule) {
  for (const analysis::Diagnostic& d : report.diagnostics) {
    if (d.rule == rule) return &d;
  }
  return nullptr;
}

bool has_kind(const analysis::ConflictEdge& e, ConflictKind kind) {
  for (const analysis::ConflictEvidence& ev : e.evidence) {
    if (ev.kind == kind) return true;
  }
  return false;
}

json::Object num_args(std::initializer_list<std::pair<const char*, double>> kv) {
  json::Object args;
  for (const auto& [k, v] : kv) args[k] = v;
  return args;
}

/// The three-station independent campaign used by the fleet property tests:
/// every stream drives a different station, no arms move.
fleet::CampaignSpec stations_campaign() {
  fleet::CampaignSpec spec;
  spec.variant = core::Variant::Modified;
  spec.seed = 97;
  spec.streams.push_back(
      {"heat",
       {cmd("hotplate", "set_temperature", num_args({{"celsius", 60.0}})),
        cmd("hotplate", "stop")},
       ""});
  spec.streams.push_back(
      {"shake",
       {cmd("thermoshaker", "set_temperature", num_args({{"celsius", 40.0}})),
        cmd("thermoshaker", "stop")},
       ""});
  fleet::CampaignStreamSpec doors;
  doors.name = "doors";
  json::Object open;
  open["state"] = std::string("open");
  json::Object closed;
  closed["state"] = std::string("closed");
  doors.commands = {cmd("centrifuge", "set_door", std::move(open)),
                    cmd("centrifuge", "set_door", std::move(closed))};
  spec.streams.push_back(std::move(doors));
  return spec;
}

ShardPlan plan_for(const core::EngineConfig& config, const fleet::CampaignSpec& spec,
                   const ShardPlanOptions& options = {}) {
  std::vector<analysis::CampaignStream> streams;
  for (const fleet::CampaignStreamSpec& s : spec.streams) {
    streams.push_back({s.name, s.commands});
  }
  return analysis::plan_campaign_shards(config, streams, options);
}

/// Everything that must be invariant across worker counts and (sound) shard
/// assignments.
struct Verdicts {
  std::vector<std::tuple<std::size_t, std::size_t, std::string, bool>> alerts;
  std::size_t commands_checked = 0;

  explicit Verdicts(const fleet::CampaignReport& r) : commands_checked(r.commands_checked) {
    for (const fleet::CampaignAlert& a : r.alerts) {
      alerts.emplace_back(a.stream, a.command_index, a.alert.rule, a.cross_stream);
    }
  }
  bool operator==(const Verdicts& o) const {
    return alerts == o.alerts && commands_checked == o.commands_checked;
  }
};

}  // namespace

// --- conflict graph and shards ------------------------------------------------

TEST(ShardPlan, DisjointStreamsGetSingletonShardsAndFullCertificates) {
  core::EngineConfig config = testbed_config();
  std::vector<StreamSummary> streams = {device_stream("a", {"hotplate"}),
                                        device_stream("b", {"thermoshaker"}),
                                        device_stream("c", {"centrifuge"})};
  ShardPlan plan = analysis::plan_shards(config, streams);
  EXPECT_EQ(plan.shards.size(), 3u);
  EXPECT_TRUE(plan.edges.empty());
  EXPECT_EQ(plan.certificates.size(), 3u);  // every cross-shard pair
  EXPECT_TRUE(plan.diagnostics.diagnostics.empty());
  EXPECT_FALSE(plan.truncated);
  EXPECT_TRUE(plan.certified_independent(0, 2));
  EXPECT_FALSE(plan.certified_independent(1, 1));
  for (const analysis::IndependenceCertificate& c : plan.certificates) {
    EXPECT_TRUE(c.conditions.any());
    EXPECT_TRUE(c.conditions.test(analysis::kDevicesDisjoint));
  }
  EXPECT_TRUE(analysis::verify_plan(config, streams, plan).empty());
}

TEST(ShardPlan, SharedDeviceMergesStreamsIntoOneShard) {
  core::EngineConfig config = testbed_config();
  std::vector<StreamSummary> streams = {device_stream("a", {"hotplate"}),
                                        device_stream("b", {"hotplate", "thermoshaker"}),
                                        device_stream("c", {"centrifuge"})};
  ShardPlan plan = analysis::plan_shards(config, streams);
  ASSERT_EQ(plan.shards.size(), 2u);
  EXPECT_EQ(plan.shards[0].streams, (std::vector<std::size_t>{0, 1}));
  EXPECT_EQ(plan.shards[1].streams, (std::vector<std::size_t>{2}));
  const analysis::ConflictEdge* edge = plan.edge_between(0, 1);
  ASSERT_NE(edge, nullptr);
  EXPECT_TRUE(has_kind(*edge, ConflictKind::SharedDevice));
  EXPECT_EQ(edge->evidence.front().subject, "hotplate");
  EXPECT_EQ(plan.edge_between(0, 2), nullptr);
  EXPECT_EQ(plan.certificates.size(), 2u);  // (a,c) and (b,c)
  EXPECT_TRUE(analysis::verify_plan(config, streams, plan).empty());
}

TEST(ShardPlan, ChainTopologyFlagsArticulationStreamAsS2) {
  core::EngineConfig config = testbed_config();
  // a—b—c chain: b is the articulation stream; d rides along independent.
  std::vector<StreamSummary> streams = {device_stream("a", {"hotplate"}),
                                        device_stream("b", {"hotplate", "thermoshaker"}),
                                        device_stream("c", {"thermoshaker"}),
                                        device_stream("d", {"centrifuge"})};
  ShardPlan plan = analysis::plan_shards(config, streams);
  ASSERT_EQ(plan.shards.size(), 2u);
  const analysis::Diagnostic* s2 = find_rule(plan.diagnostics, "S2");
  ASSERT_NE(s2, nullptr);
  EXPECT_EQ(s2->severity, analysis::Severity::Warning);
  ASSERT_FALSE(s2->streams.empty());
  EXPECT_EQ(s2->streams.front(), "b");  // the articulation stream leads
  EXPECT_NE(s2->message.find("shared-device"), std::string::npos);  // concrete evidence
  EXPECT_FALSE(s2->subjects.empty());
  EXPECT_EQ(find_rule(plan.diagnostics, "S1"), nullptr);  // 2 shards: not degenerate
}

TEST(ShardPlan, BridgeTopologyS1CarriesMinCutEvidence) {
  core::EngineConfig config = testbed_config();
  // Two triangles (hotplate clique, centrifuge clique) joined by ONE bridge
  // edge b—c (thermoshaker): the unique minimum cut severs the bridge.
  std::vector<StreamSummary> streams = {device_stream("a", {"hotplate"}),
                                        device_stream("b", {"hotplate", "thermoshaker"}),
                                        device_stream("e", {"hotplate"}),
                                        device_stream("c", {"thermoshaker", "centrifuge"}),
                                        device_stream("d", {"centrifuge"}),
                                        device_stream("f", {"centrifuge"})};
  ShardPlanOptions options;
  options.max_shard_streams = 2;
  ShardPlan plan = analysis::plan_shards(config, streams, options);
  ASSERT_EQ(plan.shards.size(), 1u);
  const analysis::Diagnostic* s1 = find_rule(plan.diagnostics, "S1");
  ASSERT_NE(s1, nullptr);
  EXPECT_NE(s1->message.find("severs 1 edge(s)"), std::string::npos)
      << "min cut of the bridge topology must be the single bridge edge: " << s1->message;
  EXPECT_NE(s1->message.find("thermoshaker"), std::string::npos);  // the bridge's evidence
  EXPECT_EQ(s1->streams.size(), 6u);
  // Degenerate bound (0): the same single-shard campaign still warns.
  ShardPlan degenerate = analysis::plan_shards(config, streams);
  EXPECT_NE(find_rule(degenerate.diagnostics, "S1"), nullptr);
  // A shardable campaign under the same bound stays quiet.
  std::vector<StreamSummary> fine = {device_stream("a", {"hotplate"}),
                                     device_stream("b", {"thermoshaker"})};
  EXPECT_EQ(find_rule(analysis::plan_shards(config, fine, options).diagnostics, "S1"), nullptr);
}

TEST(ShardPlan, TruncatedSummaryMergesPessimisticallyAndEmitsS3) {
  core::EngineConfig config = testbed_config();
  std::vector<StreamSummary> streams = {device_stream("a", {"hotplate"}),
                                        device_stream("b", {"thermoshaker"}),
                                        device_stream("c", {"centrifuge"})};
  streams[1].truncated = true;
  ShardPlan plan = analysis::plan_shards(config, streams);
  EXPECT_EQ(plan.shards.size(), 1u);  // b conflicts with everyone
  EXPECT_TRUE(plan.truncated);
  EXPECT_TRUE(plan.certificates.empty());
  const analysis::ConflictEdge* edge = plan.edge_between(0, 1);
  ASSERT_NE(edge, nullptr);
  EXPECT_TRUE(has_kind(*edge, ConflictKind::TruncatedSummary));
  const analysis::Diagnostic* s3 = find_rule(plan.diagnostics, "S3");
  ASSERT_NE(s3, nullptr);
  EXPECT_NE(s3->message.find("'b'"), std::string::npos);
  EXPECT_FALSE(s3->streams.empty());
  EXPECT_TRUE(analysis::verify_plan(config, streams, plan).empty());
}

TEST(ShardPlan, MultiplexTokenAndEnvelopeOverlapBecomeEdges) {
  core::EngineConfig config = testbed_config();
  std::vector<StreamSummary> streams(2);
  streams[0].name = "left";
  streams[1].name = "right";
  streams[0].arm_envelopes["viperx"] =
      geom::Aabb(geom::Vec3(0, 0, 0), geom::Vec3(1, 1, 1));
  streams[1].arm_envelopes["ned2"] =
      geom::Aabb(geom::Vec3(5, 5, 5), geom::Vec3(6, 6, 6));  // disjoint

  config.time_multiplex = true;
  ShardPlan plan = analysis::plan_shards(config, streams);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_TRUE(has_kind(*plan.edge_between(0, 1), ConflictKind::MultiplexToken));

  config.time_multiplex = false;
  plan = analysis::plan_shards(config, streams);
  EXPECT_EQ(plan.shards.size(), 2u);  // disjoint envelopes, no token race

  streams[1].arm_envelopes["ned2"] =
      geom::Aabb(geom::Vec3(0.5, 0.5, 0.5), geom::Vec3(1.5, 1.5, 1.5));  // overlapping
  plan = analysis::plan_shards(config, streams);
  ASSERT_EQ(plan.shards.size(), 1u);
  EXPECT_TRUE(has_kind(*plan.edge_between(0, 1), ConflictKind::EnvelopeOverlap));
}

TEST(ShardPlan, ViolatedConsumableBudgetLinksAllContributors) {
  core::EngineConfig config = testbed_config();
  // vial_1 capacity is 15 mL; +10 from each stream overflows only summed.
  std::vector<StreamSummary> streams = {device_stream("a", {"hotplate"}),
                                        device_stream("b", {"thermoshaker"})};
  streams[0].volume_delta_ml["vial_1"].accumulate(10.0, 10.0);
  streams[1].volume_delta_ml["vial_1"].accumulate(10.0, 10.0);
  ShardPlan plan = analysis::plan_shards(config, streams);
  ASSERT_EQ(plan.shards.size(), 1u);
  const analysis::ConflictEdge* edge = plan.edge_between(0, 1);
  ASSERT_NE(edge, nullptr);
  EXPECT_TRUE(has_kind(*edge, ConflictKind::ConsumableBudget));
  EXPECT_EQ(edge->evidence.front().subject, "vial_1");

  // Within budget: contributing to the same container alone is not an edge
  // (the planner mirrors I3, which only fires on a violable budget).
  std::vector<StreamSummary> fine = {device_stream("a", {"hotplate"}),
                                     device_stream("b", {"thermoshaker"})};
  fine[0].volume_delta_ml["vial_1"].accumulate(1.0, 1.0);
  fine[1].volume_delta_ml["vial_1"].accumulate(1.0, 1.0);
  EXPECT_EQ(analysis::plan_shards(config, fine).shards.size(), 2u);
}

TEST(ShardPlan, VerifyPlanRejectsTamperedShards) {
  core::EngineConfig config = testbed_config();
  std::vector<StreamSummary> streams = {device_stream("a", {"hotplate"}),
                                        device_stream("b", {"hotplate"})};
  ShardPlan plan = analysis::plan_shards(config, streams);
  ASSERT_EQ(plan.shards.size(), 1u);
  // Tamper: split the conflicting pair across shards without a certificate.
  plan.shards = {analysis::Shard{{0}}, analysis::Shard{{1}}};
  std::vector<std::string> violations = analysis::verify_plan(config, streams, plan);
  ASSERT_FALSE(violations.empty());
  bool conflict_reported = false;
  bool missing_certificate = false;
  for (const std::string& v : violations) {
    conflict_reported |= v.find("conflict") != std::string::npos;
    missing_certificate |= v.find("certificate") != std::string::npos;
  }
  EXPECT_TRUE(conflict_reported);
  EXPECT_TRUE(missing_certificate);
}

TEST(ShardPlan, PlanToJsonCarriesSharedDiagnosticSchema) {
  core::EngineConfig config = testbed_config();
  std::vector<StreamSummary> streams = {device_stream("a", {"hotplate"}),
                                        device_stream("b", {"hotplate"}),
                                        device_stream("c", {"centrifuge"})};
  ShardPlan plan = analysis::plan_shards(config, streams);
  json::Value doc = analysis::plan_to_json(config, streams, plan);
  ASSERT_TRUE(doc.is_object());
  EXPECT_EQ(doc.find("shard_count")->as_double(), 2.0);
  EXPECT_EQ(doc.find("streams")->as_array().size(), 3u);
  EXPECT_EQ(doc.find("shards")->as_array().size(), 2u);
  const json::Value& edges = *doc.find("edges");
  ASSERT_EQ(edges.as_array().size(), 1u);
  const json::Value& edge = edges.as_array().front();
  EXPECT_EQ(edge.find("a")->as_string(), "a");
  EXPECT_EQ(edge.find("b")->as_string(), "b");
  const json::Value& evidence = edge.find("evidence")->as_array().front();
  EXPECT_EQ(evidence.find("kind")->as_string(), "shared-device");
  EXPECT_EQ(evidence.find("subject")->as_string(), "hotplate");
  // Certificates name streams, not indices.
  const json::Value& certs = *doc.find("certificates");
  ASSERT_EQ(certs.as_array().size(), 2u);
  EXPECT_EQ(certs.as_array().front().find("a")->as_string(), "a");
  // The embedded diagnostics use the shared per-diagnostic schema.
  const json::Value& diag = *doc.find("diagnostics");
  ASSERT_TRUE(diag.is_object());
  for (const json::Value& d : diag.find("diagnostics")->as_array()) {
    EXPECT_TRUE(d.find("id") != nullptr);
    EXPECT_TRUE(d.find("severity") != nullptr);
    EXPECT_TRUE(d.find("streams") != nullptr);
  }
  std::string text = analysis::format_plan(config, streams, plan);
  EXPECT_NE(text.find("shard plan: 3 stream(s) -> 2 shard(s)"), std::string::npos);
  EXPECT_NE(text.find("certified independent pairs: 2"), std::string::npos);
}

TEST(ShardPlan, ArmEnvelopesCoverCommandedAndParkedArms) {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  core::EngineConfig config =
      core::config_from_backend(backend, core::Variant::ModifiedWithSim);

  std::vector<analysis::CampaignStream> streams;
  streams.push_back({"arm", {cmd("viperx", "go_home"), cmd("viperx", "go_sleep")}});
  streams.push_back(
      {"heat", {cmd("hotplate", "set_temperature", num_args({{"celsius", 60.0}}))}});
  ShardPlan plan = analysis::plan_campaign_shards(config, streams);

  // The commanded arm carries the union of its summarized motion envelopes;
  // every arm no stream moves is pinned to its inflated parked sleep box —
  // the exact boxes the runtime certificate monitor audits snapshots
  // against, so both testbed arms must be covered.
  ASSERT_EQ(plan.arm_envelopes.count("viperx"), 1u);
  ASSERT_EQ(plan.arm_envelopes.count("ned2"), 1u);
  const auto* ned2 =
      dynamic_cast<const dev::RobotArmDevice*>(backend.registry().find("ned2"));
  ASSERT_NE(ned2, nullptr);
  EXPECT_TRUE(plan.arm_envelopes.at("ned2").contains(ned2->position_lab()));

  // And the JSON rendering carries them for the lint consumer.
  json::Value doc =
      analysis::plan_to_json(config, analysis::summarize_campaign(config, streams), plan);
  const json::Value* envelopes = doc.find("arm_envelopes");
  ASSERT_NE(envelopes, nullptr);
  EXPECT_NE(envelopes->find("viperx"), nullptr);
  EXPECT_NE(envelopes->find("ned2"), nullptr);
}

// --- the fleet consumer -------------------------------------------------------

TEST(ShardPlanFleet, PlanDrivenRunMatchesMonolithicAcrossWorkerCounts) {
  core::EngineConfig config = testbed_config();
  fleet::CampaignSpec spec = stations_campaign();
  ShardPlan plan = plan_for(config, spec);
  ASSERT_EQ(plan.shards.size(), 3u);  // fully independent stations

  fleet::CampaignReport monolithic = fleet::Fleet::run_campaign(spec);
  Verdicts baseline(monolithic);
  for (std::size_t workers : {1u, 2u, 4u}) {
    fleet::ShardedCampaignOptions options;
    options.workers = workers;
    options.validate_certificates = true;
    fleet::CampaignReport sharded = fleet::Fleet::run_campaign(spec, plan, options);
    EXPECT_EQ(sharded.shards, 3u);
    EXPECT_TRUE(sharded.oracle_violations.empty())
        << "workers=" << workers << ": " << sharded.oracle_violations.front();
    EXPECT_TRUE(Verdicts(sharded) == baseline) << "workers=" << workers;
    EXPECT_EQ(sharded.schedule, monolithic.schedule);  // same global interleaving
  }
}

TEST(ShardPlanFleet, VerdictsAreShardAssignmentIndependent) {
  core::EngineConfig config = testbed_config();
  fleet::CampaignSpec spec = stations_campaign();
  ShardPlan fine = plan_for(config, spec);
  ASSERT_EQ(fine.shards.size(), 3u);

  // A coarser (still sound) plan: merge two shards by hand. Certificates for
  // the now-intra-shard pair are dropped; cross-shard pairs keep theirs.
  ShardPlan coarse = fine;
  std::vector<std::size_t> merged = coarse.shards[0].streams;
  merged.insert(merged.end(), coarse.shards[1].streams.begin(),
                coarse.shards[1].streams.end());
  std::sort(merged.begin(), merged.end());
  coarse.shards = {analysis::Shard{merged}, coarse.shards[2]};
  std::vector<analysis::IndependenceCertificate> kept;
  for (const analysis::IndependenceCertificate& c : coarse.certificates) {
    if (coarse.shard_of(c.a) != coarse.shard_of(c.b)) kept.push_back(c);
  }
  coarse.certificates = std::move(kept);

  fleet::ShardedCampaignOptions options;
  options.workers = 2;
  fleet::CampaignReport fine_run = fleet::Fleet::run_campaign(spec, fine, options);
  fleet::CampaignReport coarse_run = fleet::Fleet::run_campaign(spec, coarse, options);
  EXPECT_EQ(fine_run.shards, 3u);
  EXPECT_EQ(coarse_run.shards, 2u);
  EXPECT_TRUE(Verdicts(fine_run) == Verdicts(coarse_run));
  // And both match the fully merged (monolithic) assignment.
  EXPECT_TRUE(Verdicts(fine_run) == Verdicts(fleet::Fleet::run_campaign(spec)));
}

TEST(ShardPlanFleet, OracleFlagsAForgedCertificate) {
  core::EngineConfig config = testbed_config();
  // Two streams racing one hotplate: NOT independent. Forge a plan that
  // claims they are and check the runtime oracle notices the divergence.
  fleet::CampaignSpec spec;
  spec.variant = core::Variant::Modified;
  spec.seed = 41;
  spec.streams.push_back(
      {"racer-a",
       {cmd("hotplate", "set_temperature", num_args({{"celsius", 60.0}})),
        cmd("hotplate", "stir", num_args({{"rpm", 300.0}}))},
       ""});
  spec.streams.push_back({"racer-b", {cmd("hotplate", "stop")}, ""});

  ShardPlan honest = plan_for(config, spec);
  ASSERT_EQ(honest.shards.size(), 1u);  // the planner knows better

  ShardPlan forged = honest;
  forged.shards = {analysis::Shard{{0}}, analysis::Shard{{1}}};
  forged.certificates = {analysis::IndependenceCertificate{0, 1, 1u << analysis::kDevicesDisjoint}};

  fleet::ShardedCampaignOptions options;
  options.validate_certificates = true;
  fleet::CampaignReport sharded = fleet::Fleet::run_campaign(spec, forged, options);
  // The interleaved hotplate race produces verdicts isolation cannot: the
  // oracle must report the divergence for at least one stream (and the
  // static verifier rejects the forged plan outright).
  std::vector<analysis::StreamSummary> summaries;
  for (const fleet::CampaignStreamSpec& s : spec.streams) {
    summaries.push_back(analysis::summarize_stream(config, s.name, s.commands));
  }
  EXPECT_FALSE(analysis::verify_plan(config, summaries, forged).empty());
  if (fleet::Fleet::run_campaign(spec).cross_stream_alerts() > 0) {
    EXPECT_FALSE(sharded.oracle_violations.empty());
  }
}

TEST(ShardPlanFleet, ShardedRunsLeaveCatalogueParityUntouched) {
  // Guard the paper's headline through the new machinery: after plan-driven
  // campaign runs, the single-stream catalogue still detects 12/16 on V2.
  core::EngineConfig config = testbed_config();
  fleet::CampaignSpec spec = stations_campaign();
  fleet::ShardedCampaignOptions options;
  options.workers = 2;
  (void)fleet::Fleet::run_campaign(spec, plan_for(config, spec), options);
  std::size_t detected = 0;
  for (const bugs::BugSpec& bug : bugs::bug_catalogue()) {
    if (bugs::evaluate_bug(bug, core::Variant::Modified).detected) ++detected;
  }
  EXPECT_EQ(detected, 12u);
}

TEST(ShardPlanFleet, RejectsAPlanForTheWrongCampaign) {
  core::EngineConfig config = testbed_config();
  fleet::CampaignSpec spec = stations_campaign();
  ShardPlan plan = plan_for(config, spec);
  spec.streams.pop_back();
  fleet::ShardedCampaignOptions options;
  EXPECT_THROW((void)fleet::Fleet::run_campaign(spec, plan, options), std::runtime_error);
}

// --- one predicate, two consumers -------------------------------------------

namespace {

/// The I-rule each evidence kind is reported under (the test's own table).
std::string rule_for(ConflictKind kind) {
  switch (kind) {
    case ConflictKind::SharedDevice:
    case ConflictKind::MultiplexToken:
    case ConflictKind::SharedEntity: return "I1";
    case ConflictKind::EnvelopeOverlap: return "I2";
    case ConflictKind::ConsumableBudget: return "I3";
    case ConflictKind::SetpointRace: return "I4";
    case ConflictKind::IgnoreAsymmetry: return "I5";
    case ConflictKind::ThresholdBudget: return "I6";
    case ConflictKind::TruncatedSummary: break;
  }
  return "";
}

/// A diagnostic's message as conflict evidence carries it: without the
/// speculative I1a suffix.
std::string evidence_text(const analysis::Diagnostic& d) {
  constexpr std::string_view kSuffix = " (may happen on some path)";
  std::string_view message = d.message;
  if (d.rule == "I1" && message.ends_with(kSuffix)) message.remove_suffix(kSuffix.size());
  return std::string(message);
}

bool names(const std::vector<std::string>& streams, const std::string& name) {
  return std::find(streams.begin(), streams.end(), name) != streams.end();
}

struct OnePredicateCase {
  std::string name;
  core::EngineConfig config;
  std::vector<StreamSummary> summaries;
};

/// Both directions of the one-predicate property on one campaign, with the
/// I-diagnostics uncapped. Records every evidence kind seen in `kinds`.
void expect_one_predicate(const OnePredicateCase& c, std::set<ConflictKind>& kinds) {
  analysis::AnalyzeOptions uncapped;
  uncapped.max_diagnostics = std::numeric_limits<int>::max();
  analysis::AnalysisReport report = analysis::check_interference(c.config, c.summaries, uncapped);
  ShardPlan plan = analysis::plan_shards(c.config, c.summaries);

  for (const analysis::ConflictEdge& e : plan.edges) {
    const std::string& a = plan.stream_names[e.a];
    const std::string& b = plan.stream_names[e.b];
    for (const analysis::ConflictEvidence& ev : e.evidence) {
      if (ev.kind == ConflictKind::TruncatedSummary) continue;
      kinds.insert(ev.kind);
      std::string detail = analysis::render_finding(c.config, c.summaries, ev.kind, e.a, e.b,
                                                    ev.subject, ev.key);
      bool diagnosed = std::any_of(
          report.diagnostics.begin(), report.diagnostics.end(),
          [&](const analysis::Diagnostic& d) {
            return d.rule == rule_for(ev.kind) && evidence_text(d) == detail &&
                   names(d.streams, a) && names(d.streams, b);
          });
      EXPECT_TRUE(diagnosed) << c.name << ": no I-diagnostic for edge " << a << " <-> " << b
                             << " [" << analysis::to_string(ev.kind) << " '" << ev.subject
                             << "'] " << detail;
    }
  }

  std::map<std::string, std::size_t> index;
  for (std::size_t i = 0; i < plan.stream_names.size(); ++i) index[plan.stream_names[i]] = i;
  for (const analysis::Diagnostic& d : report.diagnostics) {
    std::string text = evidence_text(d);
    for (std::size_t x = 0; x < d.streams.size(); ++x) {
      for (std::size_t y = x + 1; y < d.streams.size(); ++y) {
        const analysis::ConflictEdge* e =
            plan.edge_between(index.at(d.streams[x]), index.at(d.streams[y]));
        bool edged = e != nullptr &&
                     std::any_of(e->evidence.begin(), e->evidence.end(),
                                 [&](const analysis::ConflictEvidence& ev) {
                                   return rule_for(ev.kind) == d.rule &&
                                          analysis::render_finding(c.config, c.summaries, ev.kind,
                                                                   e->a, e->b, ev.subject,
                                                                   ev.key) == text;
                                 });
        EXPECT_TRUE(edged) << c.name << ": " << d.format() << " is no evidence between '"
                           << d.streams[x] << "' and '" << d.streams[y] << "'";
      }
    }
  }
}

}  // namespace

TEST(OnePredicate, PlanEvidenceAndInterferenceDiagnosticsAgree) {
  // The analyzer's I-diagnostics and the planner's conflict edges come from
  // one predicate: every edge is a diagnostic of its rule with the same text,
  // and every diagnostic is an edge on every pair of its streams.
  core::EngineConfig config = sweep::testbed_config();
  std::vector<OnePredicateCase> cases;
  for (unsigned i = 0; i < sweep::kSeedCount; ++i) {
    unsigned seed = sweep::kSeedBase + i;
    OnePredicateCase c{"sweep seed " + std::to_string(seed), config, {}};
    for (const fleet::CampaignStreamSpec& s : sweep::campaign_for(seed).streams) {
      c.summaries.push_back(analysis::summarize_stream(config, s.name, s.commands));
    }
    cases.push_back(std::move(c));
  }

  // The sweep reaches neither I4 nor I6, and its command streams are never
  // speculative; three small campaigns cover those.
  auto dose = [](double quantity) {
    return cmd("dosing_device", "run_action", num_args({{"delay", 0.0}, {"quantity", quantity}}));
  };
  auto heat = [](double celsius) {
    return cmd("hotplate", "set_temperature", num_args({{"celsius", celsius}}));
  };
  OnePredicateCase setpoints{"setpoint race", config, {}};
  setpoints.summaries.push_back(analysis::summarize_stream(config, "heat-50", {heat(50.0)}));
  setpoints.summaries.push_back(analysis::summarize_stream(config, "heat-90", {heat(90.0)}));
  cases.push_back(std::move(setpoints));

  // A 5 mg G11 cap: each 3 mg dose passes alone, the three together do not.
  core::EngineConfig capped = config;
  for (core::DeviceMeta& d : capped.devices) {
    if (d.id == "dosing_device") d.thresholds.push_back({"run_action", "quantity", 5.0});
  }
  OnePredicateCase budget{"threshold budget", capped, {}};
  for (const char* name : {"dose-a", "dose-b", "dose-c"}) {
    budget.summaries.push_back(analysis::summarize_stream(capped, name, {dose(3.0)}));
  }
  cases.push_back(std::move(budget));

  OnePredicateCase speculative{"speculative device race", config, {}};
  speculative.summaries.push_back(analysis::summarize_script(
      config, "maybe",
      "let p = camera.measure_solubility(target=vial_1)\n"
      "if (p > 0.5) {\n  hotplate.stop()\n}\n"));
  speculative.summaries.push_back(
      analysis::summarize_stream(config, "always", {cmd("hotplate", "stop", {})}));
  analysis::AnalysisReport race = analysis::check_interference(config, speculative.summaries);
  const analysis::Diagnostic* i1 = find_rule(race, "I1");
  ASSERT_NE(i1, nullptr);
  EXPECT_EQ(i1->severity, analysis::Severity::Warning);
  EXPECT_NE(i1->message.find("(may happen on some path)"), std::string::npos);
  cases.push_back(std::move(speculative));

  std::set<ConflictKind> kinds;
  for (const OnePredicateCase& c : cases) expect_one_predicate(c, kinds);
  EXPECT_EQ(kinds.size(), 8u) << "every I-kind must fire at least once";
}
