// Section IV category 2 reproduction: multiplexing robot arm movements in
// time or space. The paper's workaround after Bug B: either only one arm
// moves while the others sleep (time), or a software-defined wall gives each
// arm a dedicated region and they move concurrently (space).
//
// Workload: K rounds in which ViperX hovers over the grid's west column and
// Ned2 over its east column. Unrestricted execution interleaves them with no
// discipline (and lets them collide when their excursions overlap); time
// multiplexing inserts sleep transitions; space multiplexing enforces the
// wall but needs no extra commands.
#include <benchmark/benchmark.h>

#include "bench_common.hpp"

namespace {

using namespace rabit;
using namespace rabit::bench;
namespace ids = sim::deck_ids;

constexpr int kRounds = 6;

/// Both arms repeatedly visit the same airspace over the grid — the Bug B
/// situation — with no discipline at all.
std::vector<dev::Command> unrestricted_workload(sim::LabBackend& b) {
  std::vector<dev::Command> cmds;
  geom::Vec3 hover_v = b.arm(ids::kViperX).to_local(geom::Vec3(0.30, 0.30, 0.30));
  geom::Vec3 hover_n = b.arm(ids::kNed2).to_local(geom::Vec3(0.30, 0.32, 0.28));
  geom::Vec3 away_v = b.arm(ids::kViperX).to_local(geom::Vec3(0.20, -0.10, 0.30));
  geom::Vec3 away_n = b.arm(ids::kNed2).to_local(geom::Vec3(0.50, -0.05, 0.25));
  for (int i = 0; i < kRounds; ++i) {
    cmds.push_back(move_cmd(ids::kViperX, hover_v));
    cmds.push_back(move_cmd(ids::kNed2, hover_n));  // straight at ViperX
    cmds.push_back(move_cmd(ids::kViperX, away_v));
    cmds.push_back(move_cmd(ids::kNed2, away_n));
  }
  return cmds;
}

/// Time multiplexing: the same visit pattern, but every hand-over between
/// arms goes through the sleep pose (the extra commands are the scheme's
/// cost).
std::vector<dev::Command> time_multiplexed_workload(sim::LabBackend& b) {
  std::vector<dev::Command> cmds;
  geom::Vec3 hover_v = b.arm(ids::kViperX).to_local(geom::Vec3(0.30, 0.30, 0.30));
  geom::Vec3 away_v = b.arm(ids::kViperX).to_local(geom::Vec3(0.20, -0.10, 0.30));
  geom::Vec3 hover_n = b.arm(ids::kNed2).to_local(geom::Vec3(0.30, 0.32, 0.28));
  geom::Vec3 away_n = b.arm(ids::kNed2).to_local(geom::Vec3(0.50, -0.05, 0.25));
  for (int i = 0; i < kRounds; ++i) {
    cmds.push_back(move_cmd(ids::kViperX, hover_v));
    cmds.push_back(move_cmd(ids::kViperX, away_v));
    cmds.push_back(make_cmd(ids::kViperX, "go_sleep"));
    cmds.push_back(move_cmd(ids::kNed2, hover_n));
    cmds.push_back(move_cmd(ids::kNed2, away_n));
    cmds.push_back(make_cmd(ids::kNed2, "go_sleep"));
  }
  return cmds;
}

/// Space multiplexing: ViperX owns the west half, Ned2 the east half; the
/// arms interleave freely inside their own regions.
std::vector<dev::Command> space_multiplexed_workload(sim::LabBackend& b) {
  std::vector<dev::Command> cmds;
  geom::Vec3 west_a = b.arm(ids::kViperX).to_local(geom::Vec3(0.28, 0.30, 0.30));
  geom::Vec3 west_b = b.arm(ids::kViperX).to_local(geom::Vec3(0.10, 0.20, 0.30));
  geom::Vec3 east_a = b.arm(ids::kNed2).to_local(geom::Vec3(0.44, 0.30, 0.25));
  geom::Vec3 east_b = b.arm(ids::kNed2).to_local(geom::Vec3(0.50, 0.05, 0.25));
  for (int i = 0; i < kRounds; ++i) {
    cmds.push_back(move_cmd(ids::kViperX, west_a));
    cmds.push_back(move_cmd(ids::kNed2, east_a));
    cmds.push_back(move_cmd(ids::kViperX, west_b));
    cmds.push_back(move_cmd(ids::kNed2, east_b));
  }
  return cmds;
}

struct MuxRow {
  const char* scheme;
  std::size_t commands;
  std::size_t visits = 0;  ///< productive excursions (non-sleep arm moves)
  std::size_t collisions;
  std::size_t alerts;
  double makespan_s;
};

MuxRow run_scheme(const char* scheme,
                  std::vector<dev::Command> (*workload)(sim::LabBackend&), bool engine_on,
                  bool time_mux, bool space_mux) {
  auto backend = make_testbed();
  auto commands = workload(*backend);

  std::unique_ptr<core::RabitEngine> engine;
  if (engine_on) {
    core::EngineConfig config = core::config_from_backend(*backend, core::Variant::Modified);
    config.time_multiplex = time_mux;
    if (space_mux) {
      // A wall at x = 0.36 splits the deck: each arm is forbidden beyond it.
      config.soft_walls.push_back(core::SoftWallSpec{
          ids::kViperX, geom::Aabb(geom::Vec3(0.36, -1, 0), geom::Vec3(1, 1, 1.5))});
      config.soft_walls.push_back(core::SoftWallSpec{
          ids::kNed2, geom::Aabb(geom::Vec3(-1, -1, 0), geom::Vec3(0.36, 1, 1.5))});
    }
    engine = std::make_unique<core::RabitEngine>(std::move(config));
  }
  trace::Supervisor supervisor(engine.get(), backend.get());
  supervisor = trace::Supervisor(engine.get(), backend.get(),
                                 trace::Supervisor::Options{/*halt_on_alert=*/false, /*recovery=*/{}});
  trace::RunReport report = supervisor.run(commands);

  std::size_t collisions = 0;
  for (const sim::DamageEvent& e : report.damage) {
    if (e.description.find("robot arm") != std::string::npos) ++collisions;
  }
  MuxRow row;
  row.scheme = scheme;
  row.commands = commands.size();
  for (const dev::Command& c : commands) {
    if (c.action == "move_to") ++row.visits;
  }
  row.collisions = collisions;
  row.alerts = report.alerts;
  row.makespan_s = report.modeled_runtime_s;
  return row;
}

void print_multiplexing() {
  print_header("Multiplexing robot arm movements in time or space",
               "RABIT (DSN'24), Section IV category 2 workaround");
  MuxRow rows[] = {
      run_scheme("unrestricted, no RABIT", unrestricted_workload, false, false, false),
      run_scheme("unrestricted, RABIT (no mux rules)", unrestricted_workload, true, false,
                 false),
      run_scheme("time multiplexed (M1 rule)", time_multiplexed_workload, true, true, false),
      run_scheme("space multiplexed (M2 soft wall)", space_multiplexed_workload, true, false,
                 true),
  };
  std::printf("%-38s %9s %7s %11s %11s %13s\n", "Scheme", "commands", "visits", "collisions",
              "makespan s", "visits/min");
  print_rule();
  for (const MuxRow& r : rows) {
    std::printf("%-38s %9zu %7zu %11zu %11.1f %13.1f\n", r.scheme, r.commands, r.visits,
                r.collisions, r.makespan_s, 60.0 * r.visits / r.makespan_s);
  }
  print_rule();
  std::printf("shape to match the paper: without multiplexing the arms collide and\n");
  std::printf("plain RABIT cannot prevent it (separate coordinate systems); time\n");
  std::printf("multiplexing eliminates collisions at the cost of extra sleep\n");
  std::printf("transitions; space multiplexing keeps both arms productive\n");
  std::printf("concurrently ('pushing for more concurrency in their experiments').\n");

  // The unsafe variant under the M1 discipline: the Bug B move is *blocked*.
  core::Lab lab(core::Variant::Modified);
  trace::Supervisor supervisor(&lab.engine, &lab.backend);
  trace::RunReport report = supervisor.run(unrestricted_workload(lab.backend));
  std::printf("\nunrestricted workload under the M1 discipline: halted=%s at step %zu "
              "with rule %s, 0 collisions\n",
              report.halted ? "yes" : "no",
              report.first_alert_step ? *report.first_alert_step : 0,
              report.steps[*report.first_alert_step].alert->rule.c_str());
}

void BM_TimeMultiplexedRound(benchmark::State& state) {
  for (auto _ : state) {
    core::Lab lab(core::Variant::Modified);
    trace::Supervisor supervisor(&lab.engine, &lab.backend);
    benchmark::DoNotOptimize(supervisor.run(time_multiplexed_workload(lab.backend)));
  }
}
BENCHMARK(BM_TimeMultiplexedRound)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  print_multiplexing();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
