#include "fleet/fleet.hpp"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <initializer_list>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <random>
#include <set>
#include <stdexcept>
#include <string_view>
#include <thread>

#include "core/lab.hpp"
#include "script/workflows.hpp"
#include "sim/pose_board.hpp"
#include "trace/trace.hpp"

namespace rabit::fleet {

LatencySummary summarize_latencies(std::vector<double> latencies_us) {
  LatencySummary s;
  s.samples = latencies_us.size();
  if (latencies_us.empty()) return s;
  std::sort(latencies_us.begin(), latencies_us.end());
  // One shared implementation of the nearest-rank convention (see the
  // LatencySummary doc comment): obs::nearest_rank clamps the rank into
  // [1, N], fixing the unclamped ceil's latent out-of-range read when
  // floating-point round-up pushes q * N past N.
  s.p50_us = obs::nearest_rank(latencies_us, 0.50);
  s.p90_us = obs::nearest_rank(latencies_us, 0.90);
  s.p99_us = obs::nearest_rank(latencies_us, 0.99);
  s.p999_us = obs::nearest_rank(latencies_us, 0.999);
  s.max_us = latencies_us.back();
  return s;
}

namespace {

/// (stream index, command index): one dispatch slot of a campaign schedule.
using Entry = std::pair<std::size_t, std::size_t>;
using Streams = std::vector<analysis::CampaignStream>;
using Clock = std::chrono::steady_clock;

double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// The one worker pool every fleet mode runs on: job(i) for each i in
/// [0, jobs) across min(workers, jobs) threads (at least one), claiming work
/// by atomic index. Jobs write only their own result slot, so the outcome is
/// independent of the worker count and of the scheduler. Returns the wall
/// time from pool start to the last job done.
double run_pool(std::size_t jobs, std::size_t workers,
                const std::function<void(std::size_t)>& job) {
  workers = std::max<std::size_t>(1, std::min(workers, jobs));
  Clock::time_point t0 = Clock::now();
  std::atomic<std::size_t> next{0};
  auto worker_loop = [&] {
    for (std::size_t i = next.fetch_add(1, std::memory_order_relaxed); i < jobs;
         i = next.fetch_add(1, std::memory_order_relaxed)) {
      job(i);
    }
  };
  if (workers == 1) {
    worker_loop();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (std::size_t w = 0; w < workers; ++w) pool.emplace_back(worker_loop);
    for (std::thread& t : pool) t.join();
  }
  return seconds_since(t0);
}

/// The explicit cross-shard coordination path: steps on these devices (and
/// pose reads of these arms) serialize through one recursive mutex.
struct Rendezvous {
  std::recursive_mutex mutex;
  std::set<std::string, std::less<>> names;
};

/// The one per-lab step loop behind every fleet mode: plan shards (the
/// monolithic reference is a 1-shard plan) and solo replays. Starts
/// `supervisor`, steps `entries` in order, hands each result to `on_step`,
/// and ends the lab's run at a halt. Steps on a rendezvous device hold the
/// rendezvous mutex.
template <class OnStep>
void step_lab(trace::Supervisor& supervisor, const Streams& streams,
              const std::vector<Entry>& entries, Rendezvous* rendezvous, OnStep&& on_step) {
  supervisor.start();
  for (const Entry& entry : entries) {
    const dev::Command& cmd = streams[entry.first].commands[entry.second];
    trace::SupervisedStep step;
    if (rendezvous != nullptr && rendezvous->names.contains(cmd.device)) {
      std::lock_guard<std::recursive_mutex> lock(rendezvous->mutex);
      step = supervisor.step(cmd);
    } else {
      step = supervisor.step(cmd);
    }
    on_step(entry, std::move(step));
    if (supervisor.halted()) break;
  }
}

/// Every command of one stream, in order.
std::vector<Entry> stream_entries(std::size_t stream, std::size_t commands) {
  std::vector<Entry> entries;
  entries.reserve(commands);
  for (std::size_t k = 0; k < commands; ++k) entries.emplace_back(stream, k);
  return entries;
}

/// Folds one shard's observability sinks into a report's merged pair, created
/// on first use. Callers merge in shard order, never finish order, so event
/// exports are byte-identical across worker counts.
void merge_obs(std::shared_ptr<obs::Collector>& events, std::shared_ptr<obs::Registry>& metrics,
               const std::shared_ptr<obs::Collector>& lab_events,
               const std::shared_ptr<obs::Registry>& lab_metrics) {
  if (lab_events == nullptr) return;
  if (events == nullptr) {
    events = std::make_shared<obs::Collector>();
    metrics = std::make_shared<obs::Registry>();
  }
  events->merge_from(*lab_events);
  metrics->merge_from(*lab_metrics);
}

}  // namespace

// ---------------------------------------------------------------------------
// Shared-lab campaigns
// ---------------------------------------------------------------------------

namespace {

/// A campaign resolved once per run: every stream named, script streams
/// recorded to commands (the planner's input as it is), plus a probe lab's
/// (backend, deck and config; no simulator) arm inventory and campaign-start
/// poses, which seed the pose board.
struct ResolvedCampaign {
  Streams streams;
  core::EngineConfig config;
  std::set<std::string, std::less<>> arm_ids;
  std::map<std::string, geom::Vec3, std::less<>> initial_poses;
  Clock::time_point started;  ///< start of the campaign call (total_s)
  double resolve_s = 0.0;
  std::size_t scripts_recorded = 0;
};

/// Builds the probe lab with the campaign's deck and seed and records each
/// distinct script text once against it (recording reads device ids and
/// site locations and never mutates the lab); streams with an equal script
/// copy that recording. Command streams pass through.
ResolvedCampaign resolve_campaign(const CampaignSpec& spec) {
  ResolvedCampaign resolved;
  resolved.started = Clock::now();
  sim::LabBackend probe(sim::testbed_profile(), spec.seed);
  core::build_deck(probe, spec.deck);
  std::map<std::string_view, std::size_t> recorded;  // script -> first stream with it
  resolved.streams.reserve(spec.streams.size());
  for (const CampaignStreamSpec& stream : spec.streams) {
    if (!stream.commands.empty() || stream.script.empty()) {
      resolved.streams.push_back({stream.name, stream.commands});
      continue;
    }
    auto [first, fresh] = recorded.try_emplace(stream.script, resolved.streams.size());
    if (fresh) {
      resolved.streams.push_back({stream.name, script::record_workflow(probe, stream.script)});
      ++resolved.scripts_recorded;
    } else {
      resolved.streams.push_back({stream.name, resolved.streams[first->second].commands});
    }
  }
  resolved.config = core::config_from_backend(probe, spec.variant);
  for (const core::DeviceMeta& m : resolved.config.devices) {
    if (!m.is_arm) continue;
    resolved.arm_ids.insert(m.id);
    const auto* arm = dynamic_cast<const dev::RobotArmDevice*>(probe.registry().find(m.id));
    if (arm != nullptr) resolved.initial_poses.emplace(m.id, arm->position_lab());
  }
  resolved.resolve_s = seconds_since(resolved.started);
  return resolved;
}

/// The monolithic reference as a plan: every stream in one shard.
analysis::ShardPlan single_shard_plan(const CampaignSpec& spec) {
  analysis::ShardPlan plan;
  analysis::Shard shard;
  for (std::size_t s = 0; s < spec.streams.size(); ++s) {
    plan.stream_names.push_back(spec.streams[s].name);
    shard.streams.push_back(s);
  }
  plan.shards.push_back(std::move(shard));
  return plan;
}

/// The deterministic seeded interleaving: each dispatch slot picks uniformly
/// among the streams that still have commands. Depends only on (stream
/// lengths, seed), so a failing campaign replays from its seed — and every
/// shard recomputes the identical global order and filters it.
std::vector<Entry> make_schedule(const Streams& streams, unsigned seed) {
  std::vector<Entry> schedule;
  std::mt19937 rng(seed);
  std::vector<std::size_t> cursor(streams.size(), 0);
  std::vector<std::size_t> live;
  for (std::size_t i = 0; i < streams.size(); ++i) {
    if (!streams[i].commands.empty()) live.push_back(i);
  }
  while (!live.empty()) {
    std::size_t pick = live.size() == 1
                           ? 0
                           : std::uniform_int_distribution<std::size_t>(0, live.size() - 1)(rng);
    std::size_t s = live[pick];
    schedule.emplace_back(s, cursor[s]);
    if (++cursor[s] >= streams[s].commands.size()) {
      live.erase(live.begin() + static_cast<long>(pick));
    }
  }
  return schedule;
}

/// Solo baselines: an alerted stream alone on an isolated lab, through the
/// same step loop. An alert present in the campaign run but absent at the
/// same (command index, rule) solo can only come from what other streams did
/// to the shared state. A solo run is a function of the seed, the deck and
/// the commands it steps, and with halt_on_alert off its alert at command k
/// depends on commands 0..k only. So alerted streams with equal command
/// lists share one replay, cut after the furthest alerted command among
/// them. The replays run on the worker pool, each writing only its own
/// slot, and the flags are set after the join, so the report does not
/// depend on the worker count. Returns the number of replays.
std::size_t classify_against_solo(const CampaignSpec& spec, const Streams& streams,
                                  std::size_t workers, CampaignReport& report) {
  struct Replay {
    std::size_t stream = 0;  ///< whose command list it steps
    std::size_t length = 0;  ///< commands stepped: through the furthest alert
    std::set<std::pair<std::size_t, std::string>> alerts;  ///< (command index, rule)
  };
  std::vector<Replay> replays;
  std::map<std::size_t, std::size_t> replay_of;  // alerted stream -> its replay
  for (const CampaignAlert& a : report.alerts) {
    auto [slot, fresh] = replay_of.try_emplace(a.stream, replays.size());
    if (fresh) {
      auto same = std::find_if(replays.begin(), replays.end(), [&](const Replay& r) {
        return streams[r.stream].commands == streams[a.stream].commands;
      });
      slot->second = static_cast<std::size_t>(same - replays.begin());
      if (same == replays.end()) replays.push_back(Replay{a.stream, 0, {}});
    }
    Replay& replay = replays[slot->second];
    replay.length = std::max(replay.length, a.command_index + 1);
  }
  run_pool(replays.size(), workers, [&](std::size_t r) {
    Replay& replay = replays[r];
    core::Lab solo(spec.variant, spec.seed, spec.deck);
    trace::Supervisor::Options solo_options;
    solo_options.halt_on_alert = false;
    trace::Supervisor supervisor(&solo.engine, &solo.backend, solo_options);
    step_lab(supervisor, streams, stream_entries(replay.stream, replay.length), nullptr,
             [&](const Entry& entry, const trace::SupervisedStep& step) {
               if (step.alert) replay.alerts.emplace(entry.second, step.alert->rule);
             });
  });
  for (CampaignAlert& a : report.alerts) {
    a.cross_stream = !replays[replay_of[a.stream]].alerts.contains({a.command_index, a.alert.rule});
  }
  return replays.size();
}

/// Throws unless the shards of `plan` partition the spec's streams: returns
/// each stream's shard.
std::vector<std::size_t> shard_of_streams(const CampaignSpec& spec,
                                          const analysis::ShardPlan& plan) {
  constexpr std::size_t kNone = std::numeric_limits<std::size_t>::max();
  std::vector<std::size_t> shard_of(spec.streams.size(), kNone);
  for (std::size_t k = 0; k < plan.shards.size(); ++k) {
    for (std::size_t s : plan.shards[k].streams) {
      if (s >= shard_of.size()) {
        throw std::runtime_error("sharded campaign: shard " + std::to_string(k) +
                                 " names stream #" + std::to_string(s) + ", spec has " +
                                 std::to_string(spec.streams.size()) + " stream(s)");
      }
      if (shard_of[s] != kNone) {
        throw std::runtime_error("sharded campaign: stream '" + spec.streams[s].name +
                                 "' is in shards " + std::to_string(shard_of[s]) + " and " +
                                 std::to_string(k));
      }
      shard_of[s] = k;
    }
  }
  for (std::size_t s = 0; s < shard_of.size(); ++s) {
    if (shard_of[s] == kNone) {
      throw std::runtime_error("sharded campaign: stream '" + spec.streams[s].name +
                               "' is in no shard");
    }
  }
  return shard_of;
}

/// Runs `plan` over a resolved campaign: the shard phase on the worker pool,
/// the deterministic merge, solo classification and, when asked, the
/// monolithic oracle. Every campaign entry point lands here.
CampaignReport run_plan(const CampaignSpec& spec, const ResolvedCampaign& resolved,
                        const analysis::ShardPlan& plan, const ShardedCampaignOptions& options) {
  if (plan.stream_names.size() != spec.streams.size() || plan.shards.empty()) {
    throw std::runtime_error("sharded campaign: plan covers " +
                             std::to_string(plan.stream_names.size()) + " stream(s), spec has " +
                             std::to_string(spec.streams.size()));
  }
  const std::vector<std::size_t> shard_of = shard_of_streams(spec, plan);
  const Streams& streams = resolved.streams;
  CampaignReport report;
  report.shards = plan.shards.size();
  report.schedule = make_schedule(streams, spec.seed);

  // The epoch-versioned pose board every shard publishes to and reads from.
  // Epoch 1 is the campaign-start pose; each publish advances the arm's slot
  // by one epoch.
  sim::PoseBoard board(resolved.initial_poses);
  std::vector<std::string> board_arms;
  for (const auto& [arm, pose] : resolved.initial_poses) board_arms.push_back(arm);

  // Each device's claiming shards and each arm's commanding streams — with
  // the stream -> shard map, the inputs for deciding what stays lock-free.
  std::map<std::string, std::set<std::size_t>, std::less<>> device_shards;
  std::map<std::string, std::set<std::size_t>, std::less<>> arm_owner_streams;
  for (std::size_t s = 0; s < streams.size(); ++s) {
    for (const dev::Command& c : streams[s].commands) {
      device_shards[c.device].insert(shard_of[s]);
      if (resolved.arm_ids.contains(c.device)) arm_owner_streams[c.device].insert(s);
    }
  }
  // certified[a * n + b]: the plan certifies streams a and b independent.
  const std::size_t n = streams.size();
  std::vector<char> certified(n * n, 0);
  for (const analysis::IndependenceCertificate& c : plan.certificates) {
    if (c.a < n && c.b < n) certified[c.a * n + c.b] = certified[c.b * n + c.a] = 1;
  }

  // The explicit coordination path. Devices claimed by two or more shards,
  // and arms some shard must read without a covering certificate, must not
  // run lock-free: steps on such a device and pose reads of such an arm
  // serialize through ONE recursive rendezvous mutex. One mutex, not
  // per-name: a step can nest an uncovered-arm read inside an
  // uncovered-device step (the motion observer fires mid-check), and two
  // shards nesting different names in opposite orders would deadlock;
  // recursive, because that nesting re-enters from the same thread. Under
  // any planner-produced plan the coordinated set is empty (SharedDevice
  // evidence forbids split claims and the certificate list is complete), so
  // the mutex is only ever touched by hand-built plans.
  Rendezvous rendezvous;
  // uncovered[k]: arms shard k may read only via the coordination path.
  std::vector<std::set<std::string, std::less<>>> uncovered(plan.shards.size());
  for (std::size_t k = 0; k < plan.shards.size(); ++k) {
    const std::vector<std::size_t>& members = plan.shards[k].streams;
    for (const auto& [arm, owners] : arm_owner_streams) {
      bool in_shard = false;
      for (std::size_t o : owners) in_shard = in_shard || shard_of[o] == k;
      if (in_shard) continue;  // shard's own arm: read live from its backend
      bool covered = true;
      for (std::size_t o : owners) {
        for (std::size_t m : members) {
          covered = covered && certified[m * n + o] != 0;
        }
      }
      if (!covered) {
        uncovered[k].insert(arm);
        rendezvous.names.insert(arm);
      }
    }
  }
  for (const auto& [device, claimants] : device_shards) {
    if (claimants.size() >= 2) rendezvous.names.insert(device);
  }

  struct ShardOutcome {
    std::vector<CampaignAlert> alerts;
    std::size_t commands_checked = 0;
    std::size_t snapshot_serves = 0;
    std::size_t coordination = 0;
    std::vector<double> latencies_us;
    std::vector<std::string> breaches;
    std::shared_ptr<obs::Collector> obs_events;
    std::shared_ptr<obs::Registry> obs_metrics;
  };
  std::vector<ShardOutcome> outcomes(plan.shards.size());

  auto run_shard = [&](std::size_t shard_index) {
    std::set<std::size_t> member_set(plan.shards[shard_index].streams.begin(),
                                     plan.shards[shard_index].streams.end());
    std::vector<Entry> entries;
    for (const Entry& entry : report.schedule) {
      if (member_set.contains(entry.first)) entries.push_back(entry);
    }
    // Arms this shard itself commands: their poses are served live from the
    // shard's own backend; every other arm comes from the pose board.
    std::set<std::string, std::less<>> shard_arms;
    for (std::size_t s : member_set) {
      for (const dev::Command& c : streams[s].commands) {
        if (resolved.arm_ids.contains(c.device)) shard_arms.insert(c.device);
      }
    }
    const std::set<std::string, std::less<>>& coordinated_arms = uncovered[shard_index];
    ShardOutcome& outcome = outcomes[shard_index];

    obs::Counter* serves_counter = nullptr;
    obs::Counter* coordination_counter = nullptr;
    obs::Counter* breach_counter = nullptr;
    obs::Histogram* lag_hist = nullptr;
    if (options.obs) {
      outcome.obs_events = std::make_shared<obs::Collector>();
      outcome.obs_metrics = std::make_shared<obs::Registry>();
      std::string shard_label = "shard=\"" + std::to_string(shard_index) + "\"";
      serves_counter = &outcome.obs_metrics->counter(
          "rabit_snapshot_pose_serves_total", shard_label,
          "Out-of-shard arm poses served from the epoch-versioned pose board");
      coordination_counter = &outcome.obs_metrics->counter(
          "rabit_shard_coordination_total", shard_label,
          "Cross-shard rendezvous acquisitions (the explicit non-lock-free path)");
      breach_counter = &outcome.obs_metrics->counter(
          "rabit_snapshot_envelope_breaches_total", shard_label,
          "Live out-of-shard poses observed outside their certified envelope");
      // Wall-clock/timing-dependent by nature, so registry-only (never in
      // event exports), per the obs determinism contract.
      lag_hist = &outcome.obs_metrics->histogram(
          "rabit_snapshot_epoch_lag",
          "Publications an arm's board slot advanced between this shard's samples",
          std::vector<double>{0, 1, 2, 4, 8, 16, 32, 64, 128, 256});
    }
    auto count_coordination = [&] {
      ++outcome.coordination;
      if (coordination_counter != nullptr) coordination_counter->increment();
    };

    // One board read, with the covered/uncovered split and the runtime
    // certificate audit: any live pose outside the envelope its
    // certificates assumed is recorded as a breach — the exact evidence
    // that a stale snapshot could have changed a verdict.
    std::map<std::string, std::uint64_t, std::less<>> last_seen;
    auto read_board = [&](const std::string& arm) -> std::optional<sim::PoseSlot::Snapshot> {
      std::optional<sim::PoseSlot::Snapshot> snap;
      if (coordinated_arms.contains(arm)) {
        std::lock_guard<std::recursive_mutex> lock(rendezvous.mutex);
        count_coordination();
        snap = board.read(arm);
      } else {
        snap = board.read(arm);
      }
      if (!snap) return snap;
      ++outcome.snapshot_serves;
      if (serves_counter != nullptr) serves_counter->increment();
      std::uint64_t& seen = last_seen[arm];
      if (lag_hist != nullptr) {
        lag_hist->observe(snap->epoch > seen ? static_cast<double>(snap->epoch - seen) : 0.0);
      }
      seen = snap->epoch;
      auto env = plan.arm_envelopes.find(arm);
      if (env != plan.arm_envelopes.end() && !env->second.contains(snap->pose)) {
        outcome.breaches.push_back(
            "shard " + std::to_string(shard_index) + ": arm '" + arm + "' observed at (" +
            std::to_string(snap->pose.x) + ", " + std::to_string(snap->pose.y) + ", " +
            std::to_string(snap->pose.z) + ") epoch " + std::to_string(snap->epoch) +
            " outside its certified envelope — a certificate margin was violated");
        if (breach_counter != nullptr) breach_counter->increment();
      }
      return snap;
    };

    core::Lab lab(spec.variant, spec.seed, spec.deck);
    auto live_pose = [&lab](std::string_view arm_id) -> std::optional<geom::Vec3> {
      const auto* arm =
          dynamic_cast<const dev::RobotArmDevice*>(lab.backend.registry().find(arm_id));
      if (arm == nullptr) return std::nullopt;
      return arm->position_lab();
    };
    if (lab.simulator) {
      lab.simulator->set_arm_state_provider(
          [&](std::string_view arm_id) -> std::optional<geom::Vec3> {
            if (shard_arms.contains(arm_id)) return live_pose(arm_id);
            auto snap = read_board(std::string(arm_id));
            if (!snap) return std::nullopt;
            return snap->pose;
          });
    }
    // The runtime certificate monitor: every V3 trajectory check samples the
    // live snapshot of every out-of-shard arm and audits it against
    // ShardPlan::arm_envelopes. While no breach is recorded, every pose the
    // certificates reasoned about stayed inside its envelope, so the
    // lock-free (possibly stale) snapshot could not have changed this
    // check's verdict.
    lab.engine.set_motion_observer([&](const core::MotionAnalysis&) {
      for (const std::string& arm : board_arms) {
        if (shard_arms.contains(arm)) continue;
        (void)read_board(arm);
      }
    });

    trace::Supervisor::Options sup_options;
    sup_options.halt_on_alert = spec.halt_on_alert;  // shard-local halt
    if (options.obs) {
      sup_options.obs_sink = outcome.obs_events.get();
      sup_options.obs_metrics = outcome.obs_metrics.get();
      sup_options.obs_stream = "shard-" + std::to_string(shard_index);
    }
    trace::Supervisor supervisor(&lab.engine, &lab.backend, sup_options);
    step_lab(supervisor, streams, entries, &rendezvous,
             [&](const Entry& entry, const trace::SupervisedStep& step) {
               const dev::Command& cmd = streams[entry.first].commands[entry.second];
               if (rendezvous.names.contains(cmd.device)) count_coordination();
               ++outcome.commands_checked;
               if (step.check_cpu_us > 0) outcome.latencies_us.push_back(step.check_cpu_us);
               if (step.alert) {
                 outcome.alerts.push_back(
                     CampaignAlert{entry.first, entry.second, *step.alert, false});
               }
               if (options.publish_poses && shard_arms.contains(cmd.device)) {
                 if (auto pose = live_pose(cmd.device)) board.publish(cmd.device, *pose);
               }
             });
    // A shard steps without Supervisor::run, which is what absorbs the
    // engine's Stats into a registry for a single-stream run.
    if (options.obs) lab.engine.export_stats(*outcome.obs_metrics);
  };
  report.wall_s = run_pool(plan.shards.size(), options.workers, run_shard);

  // Deterministic merge: per-shard slots combined in shard-index order;
  // alerts then sorted by global schedule position, never finish order.
  // position[first[s] + k]: where command k of stream s was dispatched.
  std::vector<std::size_t> first(n + 1, 0);
  for (std::size_t s = 0; s < n; ++s) first[s + 1] = first[s] + streams[s].commands.size();
  std::vector<std::size_t> position(first[n]);
  for (std::size_t i = 0; i < report.schedule.size(); ++i) {
    position[first[report.schedule[i].first] + report.schedule[i].second] = i;
  }
  std::vector<double> latencies_us;
  for (const ShardOutcome& outcome : outcomes) {
    report.commands_checked += outcome.commands_checked;
    report.snapshot_pose_serves += outcome.snapshot_serves;
    report.coordination_events += outcome.coordination;
    report.alerts.insert(report.alerts.end(), outcome.alerts.begin(), outcome.alerts.end());
    report.certificate_breaches.insert(report.certificate_breaches.end(),
                                       outcome.breaches.begin(), outcome.breaches.end());
    latencies_us.insert(latencies_us.end(), outcome.latencies_us.begin(),
                        outcome.latencies_us.end());
    merge_obs(report.obs_events, report.obs_metrics, outcome.obs_events, outcome.obs_metrics);
  }
  auto at = [&](const CampaignAlert& a) { return position[first[a.stream] + a.command_index]; };
  std::sort(report.alerts.begin(), report.alerts.end(),
            [&at](const CampaignAlert& a, const CampaignAlert& b) { return at(a) < at(b); });
  report.check_latency = summarize_latencies(std::move(latencies_us));
  if (report.wall_s > 0) {
    report.commands_per_s = static_cast<double>(report.commands_checked) / report.wall_s;
  }

  Clock::time_point classify_start = Clock::now();
  report.solo_replays = classify_against_solo(spec, streams, options.workers, report);
  report.classify_s = seconds_since(classify_start);
  report.resolve_s = resolved.resolve_s;
  report.scripts_recorded = resolved.scripts_recorded;
  report.labs_built = 1 + report.shards + report.solo_replays;
  report.total_s = seconds_since(resolved.started);

  if (options.validate_certificates) {
    CampaignReport monolithic = run_plan(spec, resolved, single_shard_plan(spec), {});
    report.oracle_violations = certificate_violations(plan, monolithic, report);
  }
  return report;
}

}  // namespace

std::size_t CampaignReport::cross_stream_alerts() const {
  std::size_t n = 0;
  for (const CampaignAlert& a : alerts) {
    if (a.cross_stream) ++n;
  }
  return n;
}

CampaignReport Fleet::run_campaign(const CampaignSpec& spec) {
  return run_plan(spec, resolve_campaign(spec), single_shard_plan(spec), {});
}

CampaignReport Fleet::run(const CampaignSpec& spec, const ShardedCampaignOptions& options,
                          analysis::ShardPlan* plan_out) {
  // The default execution model: static shard planning first, then the
  // plan-driven hot path. An unshardable campaign yields a 1-shard plan and
  // degenerates to the monolithic schedule through the same machinery.
  ResolvedCampaign resolved = resolve_campaign(spec);
  Clock::time_point plan_start = Clock::now();
  analysis::ShardPlan plan = analysis::plan_campaign_shards(resolved.config, resolved.streams);
  double plan_s = seconds_since(plan_start);
  if (plan_out != nullptr) *plan_out = std::move(plan);  // one plan in memory, not a copy
  CampaignReport report =
      run_plan(spec, resolved, plan_out != nullptr ? *plan_out : plan, options);
  report.plan_s = plan_s;
  return report;
}

CampaignReport Fleet::run_campaign(const CampaignSpec& spec, const analysis::ShardPlan& plan,
                                   const ShardedCampaignOptions& options) {
  return run_plan(spec, resolve_campaign(spec), plan, options);
}

std::vector<std::string> certificate_violations(const analysis::ShardPlan& plan,
                                                const CampaignReport& monolithic,
                                                const CampaignReport& sharded) {
  std::vector<std::string> out;
  auto stream_name = [&plan](std::size_t s) {
    return s < plan.stream_names.size() ? plan.stream_names[s] : "#" + std::to_string(s);
  };
  auto alert_set = [](const CampaignReport& r, std::size_t s) {
    std::set<std::pair<std::size_t, std::string>> alerts;
    for (const CampaignAlert& a : r.alerts) {
      if (a.stream == s) alerts.emplace(a.command_index, a.alert.rule);
    }
    return alerts;
  };
  for (std::size_t s = 0; s < plan.stream_names.size(); ++s) {
    std::set<std::pair<std::size_t, std::string>> mono = alert_set(monolithic, s);
    std::set<std::pair<std::size_t, std::string>> shard = alert_set(sharded, s);
    if (mono == shard) continue;
    std::string diff;
    for (const auto& [k, rule] : mono) {
      if (!shard.contains({k, rule})) {
        diff += " monolithic-only (cmd " + std::to_string(k) + ", " + rule + ")";
      }
    }
    for (const auto& [k, rule] : shard) {
      if (!mono.contains({k, rule})) {
        diff += " sharded-only (cmd " + std::to_string(k) + ", " + rule + ")";
      }
    }
    out.push_back("stream '" + stream_name(s) +
                  "': verdicts diverge between the monolithic and plan-driven runs —" + diff +
                  " — an out-of-shard stream observably influenced it");
  }
  for (const analysis::Shard& shard : plan.shards) {
    if (shard.streams.size() != 1) continue;
    std::size_t s = shard.streams.front();
    for (const CampaignReport* r : {&monolithic, &sharded}) {
      for (const CampaignAlert& a : r->alerts) {
        if (a.stream != s || !a.cross_stream) continue;
        out.push_back("certified-independent stream '" + stream_name(s) +
                      "' raised a cross-stream alert (cmd " + std::to_string(a.command_index) +
                      ", " + a.alert.rule + ") in the " +
                      (r == &monolithic ? "monolithic" : "plan-driven") + " run");
      }
    }
  }
  return out;
}

namespace {

/// Throws on the first key of `object` not in `known`, the message starting
/// with `where`: a misspelled key must not silently fall back to a default.
void reject_unknown_keys(const json::Value& object, std::initializer_list<std::string_view> known,
                         const std::string& where) {
  for (const auto& [key, value] : object.as_object()) {
    if (std::find(known.begin(), known.end(), key) == known.end()) {
      throw std::runtime_error(where + "unknown key '" + key + "'");
    }
  }
}

}  // namespace

CampaignSpec load_campaign(const json::Value& doc) {
  if (!doc.is_object()) throw std::runtime_error("campaign: document must be a JSON object");
  reject_unknown_keys(doc, {"seed", "variant", "halt_on_alert", "streams"}, "campaign: ");
  CampaignSpec spec;
  if (const json::Value* seed = doc.find("seed")) {
    // Exact integers in range only: casting anything else is undefined
    // behaviour (negative, too large) or a silent truncation (fractions).
    constexpr double kMaxSeed = std::numeric_limits<unsigned>::max();
    double v = seed->is_number() ? seed->as_double() : -1.0;
    if (!(v >= 0.0 && v <= kMaxSeed) || v != std::floor(v)) {
      throw std::runtime_error("campaign: 'seed' must be an integer in [0, " +
                               std::to_string(std::numeric_limits<unsigned>::max()) + "]");
    }
    spec.seed = static_cast<unsigned>(v);
  }
  if (const json::Value* variant = doc.find("variant")) {
    if (!variant->is_string()) throw std::runtime_error("campaign: 'variant' must be a string");
    const std::string& v = variant->as_string();
    std::optional<core::Variant> parsed = core::parse_variant(v);
    if (!parsed) throw std::runtime_error("campaign: unknown variant '" + v + "'");
    spec.variant = *parsed;
  }
  if (const json::Value* halt = doc.find("halt_on_alert")) {
    if (!halt->is_bool()) throw std::runtime_error("campaign: 'halt_on_alert' must be a bool");
    spec.halt_on_alert = halt->as_bool();
  }
  const json::Value* streams = doc.find("streams");
  if (streams == nullptr || !streams->is_array()) {
    throw std::runtime_error("campaign: 'streams' must be an array");
  }
  std::set<std::string, std::less<>> names;
  for (const json::Value& item : streams->as_array()) {
    if (!item.is_object()) throw std::runtime_error("campaign: each stream must be an object");
    CampaignStreamSpec stream;
    if (const json::Value* name = item.find("name")) {
      if (!name->is_string()) {
        throw std::runtime_error("campaign: stream #" + std::to_string(spec.streams.size()) +
                                 ": 'name' must be a string");
      }
      stream.name = name->as_string();
    } else {
      stream.name = "stream-" + std::to_string(spec.streams.size());
    }
    const std::string where = "campaign: stream '" + stream.name + "': ";
    reject_unknown_keys(item, {"name", "script", "commands"}, where);
    if (!names.insert(stream.name).second) {
      throw std::runtime_error(where + "the name is used twice");
    }
    if (const json::Value* script = item.find("script")) {
      if (!script->is_string()) {
        throw std::runtime_error("campaign: stream '" + stream.name +
                                 "': 'script' must be a string");
      }
      stream.script = script->as_string();
    }
    if (const json::Value* cmds = item.find("commands")) {
      if (!cmds->is_array()) {
        throw std::runtime_error("campaign: stream '" + stream.name +
                                 "': 'commands' must be an array");
      }
      for (const json::Value& c : cmds->as_array()) {
        const json::Value* device = c.is_object() ? c.find("device") : nullptr;
        const json::Value* action = c.is_object() ? c.find("action") : nullptr;
        if (device == nullptr || !device->is_string() || action == nullptr ||
            !action->is_string()) {
          throw std::runtime_error("campaign: stream '" + stream.name +
                                   "': each command needs string 'device' and 'action'");
        }
        reject_unknown_keys(c, {"device", "action", "args"},
                            where + "command #" + std::to_string(stream.commands.size()) + ": ");
        dev::Command cmd;
        cmd.device = device->as_string();
        cmd.action = action->as_string();
        if (const json::Value* args = c.find("args"); args != nullptr && !args->is_null()) {
          if (!args->is_object()) {
            throw std::runtime_error("campaign: stream '" + stream.name +
                                     "': a command's 'args' must be an object");
          }
          cmd.args = *args;
        }
        stream.commands.push_back(std::move(cmd));
      }
    }
    if (stream.commands.empty() && stream.script.empty()) {
      throw std::runtime_error("campaign: stream '" + stream.name +
                               "' has neither 'commands' nor 'script'");
    }
    spec.streams.push_back(std::move(stream));
  }
  if (spec.streams.empty()) throw std::runtime_error("campaign: 'streams' is empty");
  return spec;
}

}  // namespace rabit::fleet
