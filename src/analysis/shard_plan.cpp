// Shard planning over stream effect summaries. The conflict edges come from
// the one I1..I6 predicate (find_interference) plus the truncated-summary
// edges (see shard_plan.hpp for the soundness argument); the graph work on
// top is ordinary: connected components for the shards, Stoer–Wagner for the
// S1 min-cut evidence, Tarjan lowlinks for the S2 articulation streams.
#include "analysis/shard_plan.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <map>
#include <set>
#include <sstream>
#include <utility>

namespace rabit::analysis {

namespace {

using core::DeviceMeta;
using core::EngineConfig;

std::string join_names(const std::vector<std::string>& names, const std::vector<std::size_t>& idx,
                       const char* sep = ", ") {
  std::string out;
  for (std::size_t i : idx) {
    if (!out.empty()) out += sep;
    out += names[i];
  }
  return out;
}

/// The conflict edges, shared by plan_shards and verify_plan: every
/// conflicting pair (a < b), sorted by (a, b), with its evidence in the
/// order it was found. Evidence is data, so nothing here is formatted.
std::vector<ConflictEdge> derive_edges(const EngineConfig& config,
                                       const std::vector<StreamSummary>& streams) {
  std::map<std::pair<std::size_t, std::size_t>, std::vector<ConflictEvidence>> by_pair;
  find_interference(config, streams, [&by_pair](const InterferenceFinding& f) {
    std::size_t n = f.streams.size();
    for (std::size_t x = 0; x < n; ++x) {
      for (std::size_t y = x + 1; y < n; ++y) {
        by_pair[{std::min(f.streams[x], f.streams[y]), std::max(f.streams[x], f.streams[y])}]
            .push_back({f.kind, f.subject, f.key});
      }
    }
  });
  // A truncated summary may under-describe its stream, so nothing about it
  // can be certified: pessimistically conflict it with everyone (S3).
  for (std::size_t t = 0; t < streams.size(); ++t) {
    if (!streams[t].truncated) continue;
    for (std::size_t o = 0; o < streams.size(); ++o) {
      if (o == t) continue;
      by_pair[{std::min(t, o), std::max(t, o)}].push_back(
          {ConflictKind::TruncatedSummary, streams[t].name, {}});
    }
  }
  std::vector<ConflictEdge> edges;
  edges.reserve(by_pair.size());
  for (auto& [pair, evidence] : by_pair) {
    edges.push_back({pair.first, pair.second, std::move(evidence)});
  }
  return edges;
}

/// The edge between `a` and `b` in edges sorted by (a, b), or null.
const ConflictEdge* find_edge(const std::vector<ConflictEdge>& edges, std::size_t a,
                              std::size_t b) {
  if (a > b) std::swap(a, b);
  auto it = std::lower_bound(edges.begin(), edges.end(), std::pair(a, b),
                             [](const ConflictEdge& e, std::pair<std::size_t, std::size_t> key) {
                               return std::pair(e.a, e.b) < key;
                             });
  return it != edges.end() && it->a == a && it->b == b ? &*it : nullptr;
}

/// The text of `evidence` on `edge`: render_finding over the edge's pair.
std::string render_evidence(const EngineConfig& config, const std::vector<StreamSummary>& streams,
                            const ConflictEdge& edge, const ConflictEvidence& evidence) {
  return render_finding(config, streams, evidence.kind, edge.a, edge.b, evidence.subject,
                        evidence.key);
}

// ---------------------------------------------------------------------------
// Graph helpers (shard-local adjacency over plan-global indices)
// ---------------------------------------------------------------------------

/// Global minimum edge cut of an undirected unit-weight graph over `nodes`
/// (Stoer–Wagner). Returns {cut_weight, one side of the best cut}. Requires
/// nodes.size() >= 2 and a connected input (a shard always is).
std::pair<int, std::vector<std::size_t>> min_cut(const std::vector<std::size_t>& nodes,
                                                 const std::vector<ConflictEdge>& edges) {
  std::size_t n = nodes.size();
  std::map<std::size_t, std::size_t> local;  // global -> local
  for (std::size_t i = 0; i < n; ++i) local[nodes[i]] = i;
  std::vector<std::vector<int>> w(n, std::vector<int>(n, 0));
  for (const ConflictEdge& e : edges) {
    auto ia = local.find(e.a);
    auto ib = local.find(e.b);
    if (ia == local.end() || ib == local.end()) continue;
    w[ia->second][ib->second] += 1;
    w[ib->second][ia->second] += 1;
  }
  std::vector<std::vector<std::size_t>> groups(n);
  for (std::size_t i = 0; i < n; ++i) groups[i] = {nodes[i]};
  std::vector<char> merged(n, 0);
  int best = std::numeric_limits<int>::max();
  std::vector<std::size_t> best_side;
  for (std::size_t phase = 0; phase + 1 < n; ++phase) {
    std::vector<int> weight(n, 0);
    std::vector<char> added(n, 0);
    std::size_t prev = n;
    std::size_t last = n;
    int last_weight = 0;
    std::size_t active = 0;
    for (std::size_t i = 0; i < n; ++i) active += merged[i] ? 0u : 1u;
    for (std::size_t step = 0; step < active; ++step) {
      std::size_t pick = n;
      for (std::size_t v = 0; v < n; ++v) {
        if (merged[v] || added[v]) continue;
        if (pick == n || weight[v] > weight[pick]) pick = v;  // tie: lowest id
      }
      added[pick] = 1;
      prev = last;
      last = pick;
      last_weight = weight[pick];
      for (std::size_t v = 0; v < n; ++v) {
        if (!merged[v] && !added[v]) weight[v] += w[pick][v];
      }
    }
    if (last_weight < best) {
      best = last_weight;
      best_side = groups[last];
    }
    // Merge `last` into `prev`.
    groups[prev].insert(groups[prev].end(), groups[last].begin(), groups[last].end());
    for (std::size_t v = 0; v < n; ++v) {
      w[prev][v] += w[last][v];
      w[v][prev] = w[prev][v];
    }
    merged[last] = 1;
  }
  std::sort(best_side.begin(), best_side.end());
  return {best, best_side};
}

/// Articulation vertices of the undirected graph over `nodes` (Tarjan).
std::vector<std::size_t> articulation_points(const std::vector<std::size_t>& nodes,
                                             const std::vector<ConflictEdge>& edges) {
  std::size_t n = nodes.size();
  std::map<std::size_t, std::size_t> local;
  for (std::size_t i = 0; i < n; ++i) local[nodes[i]] = i;
  std::vector<std::vector<std::size_t>> adj(n);
  for (const ConflictEdge& e : edges) {
    auto ia = local.find(e.a);
    auto ib = local.find(e.b);
    if (ia == local.end() || ib == local.end()) continue;
    adj[ia->second].push_back(ib->second);
    adj[ib->second].push_back(ia->second);
  }
  std::vector<int> disc(n, -1);
  std::vector<int> low(n, 0);
  std::vector<char> is_artic(n, 0);
  int timer = 0;
  std::function<void(std::size_t, std::size_t)> dfs = [&](std::size_t v, std::size_t parent) {
    disc[v] = low[v] = timer++;
    std::size_t children = 0;
    for (std::size_t u : adj[v]) {
      if (u == parent) continue;
      if (disc[u] != -1) {
        low[v] = std::min(low[v], disc[u]);
        continue;
      }
      ++children;
      dfs(u, v);
      low[v] = std::min(low[v], low[u]);
      if (parent != n && low[u] >= disc[v]) is_artic[v] = 1;
    }
    if (parent == n && children > 1) is_artic[v] = 1;
  };
  for (std::size_t v = 0; v < n; ++v) {
    if (disc[v] == -1) dfs(v, n);
  }
  std::vector<std::size_t> out;
  for (std::size_t v = 0; v < n; ++v) {
    if (is_artic[v]) out.push_back(nodes[v]);
  }
  return out;
}

/// Connected components of `nodes` minus `removed` (for the S2 split count).
std::vector<std::vector<std::size_t>> components_without(const std::vector<std::size_t>& nodes,
                                                         const std::vector<ConflictEdge>& edges,
                                                         std::size_t removed) {
  std::set<std::size_t> pending(nodes.begin(), nodes.end());
  pending.erase(removed);
  std::vector<std::vector<std::size_t>> out;
  while (!pending.empty()) {
    std::vector<std::size_t> stack{*pending.begin()};
    pending.erase(pending.begin());
    std::vector<std::size_t> comp;
    while (!stack.empty()) {
      std::size_t v = stack.back();
      stack.pop_back();
      comp.push_back(v);
      for (auto it = pending.begin(); it != pending.end();) {
        std::size_t u = *it;
        if (find_edge(edges, u, v) != nullptr) {
          stack.push_back(u);
          it = pending.erase(it);
        } else {
          ++it;
        }
      }
    }
    std::sort(comp.begin(), comp.end());
    out.push_back(std::move(comp));
  }
  std::sort(out.begin(), out.end());
  return out;
}

/// A piece of evidence with the edge it sits on, which its text names.
using EdgeEvidence = std::pair<const ConflictEdge*, const ConflictEvidence*>;

/// The first `cap` pieces of evidence, rendered, and a count of the rest.
std::string evidence_digest(const EngineConfig& config, const std::vector<StreamSummary>& streams,
                            const std::vector<EdgeEvidence>& evidence, std::size_t cap = 3) {
  std::string out;
  for (std::size_t i = 0; i < evidence.size() && i < cap; ++i) {
    const auto& [edge, ev] = evidence[i];
    if (!out.empty()) out += "; ";
    out += std::string(to_string(ev->kind)) + " '" + ev->subject +
           "': " + render_evidence(config, streams, *edge, *ev);
  }
  if (evidence.size() > cap) {
    out += "; (+" + std::to_string(evidence.size() - cap) + " more)";
  }
  return out;
}

using ConditionMask = decltype(IndependenceCertificate::conditions);

/// The certificate's conditions (see CertificateCondition). Derived from
/// summaries alone so verify_plan can replay them bit for bit.
ConditionMask certificate_conditions(const EngineConfig& config, const StreamSummary& a,
                                     const StreamSummary& b) {
  ConditionMask out;
  out.set();
  if (!config.time_multiplex) out.reset(kNoMultiplexRace);
  if (a.truncated || b.truncated) out.reset(kSummariesComplete);
  return out;
}

}  // namespace

// ---------------------------------------------------------------------------
// ShardPlan accessors
// ---------------------------------------------------------------------------

std::size_t ShardPlan::shard_of(std::size_t stream) const {
  for (std::size_t k = 0; k < shards.size(); ++k) {
    const std::vector<std::size_t>& s = shards[k].streams;
    if (std::binary_search(s.begin(), s.end(), stream)) return k;
  }
  return shards.size();
}

bool ShardPlan::certified_independent(std::size_t a, std::size_t b) const {
  if (a == b) return false;
  std::size_t sa = shard_of(a);
  std::size_t sb = shard_of(b);
  return sa < shards.size() && sb < shards.size() && sa != sb;
}

const ConflictEdge* ShardPlan::edge_between(std::size_t a, std::size_t b) const {
  return find_edge(edges, a, b);
}

// ---------------------------------------------------------------------------
// plan_shards
// ---------------------------------------------------------------------------

ShardPlan plan_shards(const EngineConfig& config, const std::vector<StreamSummary>& streams,
                      const ShardPlanOptions& options) {
  ShardPlan plan;
  plan.stream_names.reserve(streams.size());
  for (const StreamSummary& s : streams) plan.stream_names.push_back(s.name);
  for (const StreamSummary& s : streams) plan.truncated = plan.truncated || s.truncated;
  plan.diagnostics.truncated = plan.truncated;

  plan.edges = derive_edges(config, streams);

  // Shards = connected components, by union-find, emitted in ascending order
  // of their smallest member.
  std::vector<std::size_t> parent(streams.size());
  for (std::size_t i = 0; i < parent.size(); ++i) parent[i] = i;
  std::function<std::size_t(std::size_t)> find = [&](std::size_t x) {
    while (parent[x] != x) x = parent[x] = parent[parent[x]];
    return x;
  };
  for (const ConflictEdge& e : plan.edges) {
    std::size_t ra = find(e.a);
    std::size_t rb = find(e.b);
    if (ra != rb) parent[std::max(ra, rb)] = std::min(ra, rb);
  }
  std::map<std::size_t, std::vector<std::size_t>> by_root;
  for (std::size_t i = 0; i < streams.size(); ++i) by_root[find(i)].push_back(i);
  for (auto& [root, members] : by_root) {
    std::sort(members.begin(), members.end());
    plan.shards.push_back({std::move(members)});
  }

  // Certificates for every cross-shard pair. owner[v]: the shard of stream v.
  std::vector<std::size_t> owner(streams.size());
  for (std::size_t k = 0; k < plan.shards.size(); ++k) {
    for (std::size_t v : plan.shards[k].streams) owner[v] = k;
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (std::size_t j = i + 1; j < streams.size(); ++j) {
      if (owner[i] == owner[j]) continue;
      plan.certificates.push_back({i, j, certificate_conditions(config, streams[i], streams[j])});
    }
  }

  // Per-arm certified envelopes (the runtime snapshot soundness data; see
  // ShardPlan::arm_envelopes). Commanded arms union their summary envelopes;
  // arms no stream moves are pinned to their inflated parked sleep box.
  for (const StreamSummary& s : streams) {
    for (const auto& [arm, env] : s.arm_envelopes) {
      auto [it, inserted] = plan.arm_envelopes.emplace(arm, env);
      if (!inserted) it->second = it->second.united(env);
    }
  }
  for (const DeviceMeta& m : config.devices) {
    if (!m.is_arm || !m.sleep_box) continue;
    if (plan.arm_envelopes.contains(m.id)) continue;
    plan.arm_envelopes.emplace(m.id, m.sleep_box->inflated(kParkedArmMargin));
  }

  auto emit = [&plan](std::string rule, std::string message, std::vector<std::string> subjects,
                      std::vector<std::string> stream_names) {
    std::sort(subjects.begin(), subjects.end());
    subjects.erase(std::unique(subjects.begin(), subjects.end()), subjects.end());
    Diagnostic d{Severity::Warning, std::move(rule), std::move(message), 0};
    d.subjects = std::move(subjects);
    d.streams = std::move(stream_names);
    plan.diagnostics.diagnostics.push_back(std::move(d));
  };

  // S1 — the campaign cannot be sharded below the requested bound. The
  // min-cut is the evidence: the cheapest set of conflicts to design away.
  std::size_t bound =
      options.max_shard_streams > 0 ? options.max_shard_streams : streams.size() - 1;
  for (const Shard& shard : plan.shards) {
    if (streams.size() < 2 || shard.streams.size() <= std::max<std::size_t>(bound, 1)) continue;
    auto [cut_weight, side] = min_cut(shard.streams, plan.edges);
    std::vector<std::size_t> other;
    std::set<std::size_t> side_set(side.begin(), side.end());
    for (std::size_t v : shard.streams) {
      if (!side_set.contains(v)) other.push_back(v);
    }
    std::vector<EdgeEvidence> cut_evidence;
    std::vector<std::string> subjects;
    for (const ConflictEdge& e : plan.edges) {
      if (side_set.count(e.a) + side_set.count(e.b) != 1) continue;
      for (const ConflictEvidence& ev : e.evidence) {
        cut_evidence.emplace_back(&e, &ev);
        subjects.push_back(ev.subject);
      }
    }
    std::vector<std::string> names;
    for (std::size_t v : shard.streams) names.push_back(plan.stream_names[v]);
    std::string lead =
        options.max_shard_streams > 0
            ? "campaign not shardable below " + std::to_string(bound) + " stream(s)/shard: streams "
            : "campaign not shardable at all: streams ";
    emit("S1",
         lead + join_names(plan.stream_names, shard.streams) + " collapse into one " +
             std::to_string(shard.streams.size()) +
             "-stream shard; the minimum conflict cut ({" +
             join_names(plan.stream_names, side) + "} | {" +
             join_names(plan.stream_names, other) + "}) severs " + std::to_string(cut_weight) +
             " edge(s): " + evidence_digest(config, streams, cut_evidence),
         std::move(subjects), std::move(names));
  }

  // S2 — an articulation stream serializes the shard: removing it would
  // split the rest into independent groups.
  for (const Shard& shard : plan.shards) {
    if (shard.streams.size() < 3) continue;
    for (std::size_t v : articulation_points(shard.streams, plan.edges)) {
      auto groups = components_without(shard.streams, plan.edges, v);
      std::vector<EdgeEvidence> incident;
      std::vector<std::string> subjects;
      for (const ConflictEdge& e : plan.edges) {
        if (e.a != v && e.b != v) continue;
        for (const ConflictEvidence& ev : e.evidence) {
          incident.emplace_back(&e, &ev);
          subjects.push_back(ev.subject);
        }
      }
      std::string split;
      for (const auto& g : groups) {
        if (!split.empty()) split += " | ";
        split.append("{").append(join_names(plan.stream_names, g)).append("}");
      }
      std::vector<std::string> names{plan.stream_names[v]};
      for (std::size_t m : shard.streams) {
        if (m != v) names.push_back(plan.stream_names[m]);
      }
      emit("S2",
           "single stream serializes the fleet: '" + plan.stream_names[v] +
               "' is the only link holding its " + std::to_string(shard.streams.size()) +
               "-stream shard together (without it: " + split +
               "); its conflicts: " + evidence_digest(config, streams, incident),
           std::move(subjects), std::move(names));
    }
  }

  // S3 — truncated summaries were merged pessimistically.
  for (std::size_t t = 0; t < streams.size(); ++t) {
    if (!streams[t].truncated || streams.size() < 2) continue;
    std::vector<std::string> partners;
    std::size_t shard = owner[t];
    for (std::size_t m : plan.shards[shard].streams) partners.push_back(plan.stream_names[m]);
    emit("S3",
         "truncated summary forced pessimistic merging: '" + streams[t].name +
             "' is incomplete (analysis budget, Top-valued quantity, or unresolvable motion "
             "target), so it conflicts with every other stream and pins the " +
             std::to_string(plan.shards[shard].streams.size()) + "-stream shard " +
             join_names(plan.stream_names, plan.shards[shard].streams),
         {streams[t].name}, std::move(partners));
  }

  return plan;
}

ShardPlan plan_campaign_shards(const EngineConfig& config,
                               const std::vector<CampaignStream>& streams,
                               const ShardPlanOptions& plan_options,
                               const AnalyzeOptions& analyze_options) {
  return plan_shards(config, summarize_campaign(config, streams, analyze_options), plan_options);
}

// ---------------------------------------------------------------------------
// verify_plan
// ---------------------------------------------------------------------------

std::vector<std::string> verify_plan(const EngineConfig& config,
                                     const std::vector<StreamSummary>& streams,
                                     const ShardPlan& plan) {
  std::vector<std::string> violations;
  if (plan.stream_names.size() != streams.size()) {
    violations.push_back("plan covers " + std::to_string(plan.stream_names.size()) +
                         " stream(s), summaries have " + std::to_string(streams.size()));
    return violations;
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    if (plan.stream_names[i] != streams[i].name) {
      violations.push_back("stream " + std::to_string(i) + " is '" + streams[i].name +
                           "' but the plan names it '" + plan.stream_names[i] + "'");
    }
  }
  std::vector<std::size_t> owner(streams.size(), plan.shards.size());
  for (std::size_t k = 0; k < plan.shards.size(); ++k) {
    for (std::size_t v : plan.shards[k].streams) {
      if (v >= streams.size()) {
        violations.push_back("shard " + std::to_string(k) + " references stream index " +
                             std::to_string(v) + " out of range");
        continue;
      }
      if (owner[v] != plan.shards.size()) {
        violations.push_back("stream '" + streams[v].name + "' appears in shards " +
                             std::to_string(owner[v]) + " and " + std::to_string(k));
      }
      owner[v] = k;
    }
  }
  for (std::size_t v = 0; v < streams.size(); ++v) {
    if (owner[v] == plan.shards.size()) {
      violations.push_back("stream '" + streams[v].name + "' is in no shard");
    }
  }
  if (!violations.empty()) return violations;

  // Cross-shard independence, re-derived from scratch. Coarser-than-maximal
  // plans (shards merged beyond necessity) pass: only cross-shard pairs are
  // safety-relevant.
  std::vector<ConflictEdge> edges = derive_edges(config, streams);
  std::set<std::pair<std::size_t, std::size_t>> certified;
  for (const IndependenceCertificate& c : plan.certificates) {
    if (c.a >= streams.size() || c.b >= streams.size() || owner[c.a] == owner[c.b]) {
      violations.push_back("certificate (" + std::to_string(c.a) + ", " + std::to_string(c.b) +
                           ") does not span two shards");
      continue;
    }
    certified.insert({std::min(c.a, c.b), std::max(c.a, c.b)});
    if (c.conditions != certificate_conditions(config, streams[c.a], streams[c.b])) {
      violations.push_back("certificate (" + streams[c.a].name + ", " + streams[c.b].name +
                           ") conditions do not replay");
    }
  }
  for (std::size_t i = 0; i < streams.size(); ++i) {
    for (std::size_t j = i + 1; j < streams.size(); ++j) {
      if (owner[i] == owner[j]) continue;
      if (const ConflictEdge* edge = find_edge(edges, i, j)) {
        violations.push_back("streams '" + streams[i].name + "' and '" + streams[j].name +
                             "' are in different shards but conflict: " +
                             render_evidence(config, streams, *edge, edge->evidence.front()));
      }
      if (!certified.contains({i, j})) {
        violations.push_back("cross-shard pair ('" + streams[i].name + "', '" +
                             streams[j].name + "') has no independence certificate");
      }
    }
  }
  return violations;
}

// ---------------------------------------------------------------------------
// Serialization
// ---------------------------------------------------------------------------

json::Value plan_to_json(const EngineConfig& config, const std::vector<StreamSummary>& streams,
                         const ShardPlan& plan) {
  json::Object root;
  json::Array names;
  for (const std::string& n : plan.stream_names) names.emplace_back(n);
  root["streams"] = std::move(names);

  json::Array shards;
  for (const Shard& shard : plan.shards) {
    json::Array members;
    for (std::size_t v : shard.streams) members.emplace_back(plan.stream_names[v]);
    shards.emplace_back(std::move(members));
  }
  root["shards"] = std::move(shards);
  root["shard_count"] = plan.shards.size();

  json::Array edges;
  for (const ConflictEdge& e : plan.edges) {
    json::Object o;
    o["a"] = plan.stream_names[e.a];
    o["b"] = plan.stream_names[e.b];
    json::Array evidence;
    for (const ConflictEvidence& ev : e.evidence) {
      json::Object eo;
      eo["kind"] = std::string(to_string(ev.kind));
      eo["subject"] = ev.subject;
      eo["detail"] = render_evidence(config, streams, e, ev);
      evidence.emplace_back(std::move(eo));
    }
    o["evidence"] = std::move(evidence);
    edges.emplace_back(std::move(o));
  }
  root["edges"] = std::move(edges);

  json::Array certificates;
  for (const IndependenceCertificate& c : plan.certificates) {
    json::Object o;
    o["a"] = plan.stream_names[c.a];
    o["b"] = plan.stream_names[c.b];
    json::Array conditions;
    for (std::size_t k = 0; k < kCertificateConditions.size(); ++k) {
      if (c.conditions.test(k)) conditions.emplace_back(kCertificateConditions[k]);
    }
    o["conditions"] = std::move(conditions);
    certificates.emplace_back(std::move(o));
  }
  root["certificates"] = std::move(certificates);

  json::Object envelopes;
  for (const auto& [arm, env] : plan.arm_envelopes) {
    json::Object box;
    box["min"] = json::Array{env.min.x, env.min.y, env.min.z};
    box["max"] = json::Array{env.max.x, env.max.y, env.max.z};
    envelopes[arm] = std::move(box);
  }
  root["arm_envelopes"] = std::move(envelopes);
  root["diagnostics"] = report_to_json(plan.diagnostics);
  root["truncated"] = plan.truncated;
  return json::Value(std::move(root));
}

std::string format_plan(const EngineConfig& config, const std::vector<StreamSummary>& streams,
                        const ShardPlan& plan) {
  std::ostringstream os;
  os << "shard plan: " << plan.stream_names.size() << " stream(s) -> " << plan.shards.size()
     << " shard(s)\n";
  for (std::size_t k = 0; k < plan.shards.size(); ++k) {
    os << "  shard " << k << " (" << plan.shards[k].streams.size()
       << " stream(s)): " << join_names(plan.stream_names, plan.shards[k].streams) << "\n";
  }
  os << "conflict edges: " << plan.edges.size() << "\n";
  constexpr std::size_t kMaxEdges = 50;
  for (std::size_t i = 0; i < plan.edges.size() && i < kMaxEdges; ++i) {
    const ConflictEdge& e = plan.edges[i];
    os << "  " << plan.stream_names[e.a] << " <-> " << plan.stream_names[e.b] << ":\n";
    for (const ConflictEvidence& ev : e.evidence) {
      os << "    [" << to_string(ev.kind) << " '" << ev.subject << "'] "
         << render_evidence(config, streams, e, ev) << "\n";
    }
  }
  if (plan.edges.size() > kMaxEdges) {
    os << "  (+" << plan.edges.size() - kMaxEdges << " more edges)\n";
  }
  os << "certified independent pairs: " << plan.certificates.size() << "\n";
  constexpr std::size_t kMaxCerts = 20;
  for (std::size_t i = 0; i < plan.certificates.size() && i < kMaxCerts; ++i) {
    const IndependenceCertificate& c = plan.certificates[i];
    os << "  " << plan.stream_names[c.a] << " x " << plan.stream_names[c.b] << ": ";
    const char* sep = "";
    for (std::size_t k = 0; k < kCertificateConditions.size(); ++k) {
      if (!c.conditions.test(k)) continue;
      os << sep << kCertificateConditions[k];
      sep = ", ";
    }
    os << "\n";
  }
  if (plan.certificates.size() > kMaxCerts) {
    os << "  (+" << plan.certificates.size() - kMaxCerts << " more pairs)\n";
  }
  if (plan.diagnostics.diagnostics.empty()) {
    os << "diagnostics: none\n";
  } else {
    os << "diagnostics:\n";
    for (const Diagnostic& d : plan.diagnostics.diagnostics) {
      os << "  " << d.format() << "\n";
    }
  }
  if (plan.truncated) {
    os << "(a truncated summary forced pessimistic merging — the partition may be coarser "
          "than the campaign deserves)\n";
  }
  return os.str();
}

}  // namespace rabit::analysis
