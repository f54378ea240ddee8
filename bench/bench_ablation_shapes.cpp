// Ablation A3 (the §V-C extension): cuboid device models vs. refined shapes.
//
// Pilot-study participant P: "the shape of many devices do not comply with
// RABIT's cuboid specification... incorporating more detailed shape
// descriptions would enhance RABIT's flexibility". The cuboid model
// over-approximates domed and bumped devices, so approach paths that are
// physically safe get flagged — the only source of false alarms in an
// otherwise zero-false-positive system. This ablation quantifies that.
#include <benchmark/benchmark.h>

#include <random>

#include "bench_common.hpp"

namespace {

using namespace rabit;
using namespace rabit::bench;
using geom::Vec3;
namespace ids = sim::deck_ids;

struct ShapeSweep {
  int safe_paths = 0;
  int cuboid_false_alarms = 0;
  int refined_false_alarms = 0;
  int true_hits = 0;
  int cuboid_detected = 0;
  int refined_detected = 0;
};

ShapeSweep run_sweep(unsigned seed) {
  auto backend = make_testbed();
  sim::WorldModel cuboid = sim::deck_world_model(*backend);
  sim::WorldModel refined = sim::deck_world_model(*backend, /*refined_shapes=*/true);
  // The deck's physical devices *are* the refined geometry (the backend's
  // ground truth uses it), so the refined model doubles as physical truth
  // for these static sweeps.
  const sim::WorldModel& truth = refined;

  // Random passes through the shoulder band of each station — the region
  // where the cuboid and the real shape disagree.
  std::mt19937 rng(seed);
  std::uniform_real_distribution<double> dy(-0.10, 0.10);
  std::uniform_real_distribution<double> dz(-0.06, 0.03);
  const Vec3 tops[] = {Vec3(-0.45, 0.0, 0.18), Vec3(0.35, -0.25, 0.12)};

  ShapeSweep sweep;
  for (int i = 0; i < 400; ++i) {
    const Vec3& top = tops[i % 2];
    double z = top.z + dz(rng);
    Vec3 start(top.x - 0.30, top.y + dy(rng), z);
    Vec3 goal(top.x + 0.30, top.y + dy(rng), z);
    bool physically_hits = sim::check_path(truth, start, goal, 0.0).has_value();
    bool cuboid_hits = sim::check_path(cuboid, start, goal, 0.0).has_value();
    bool refined_hits = sim::check_path(refined, start, goal, 0.0).has_value();
    if (physically_hits) {
      ++sweep.true_hits;
      sweep.cuboid_detected += cuboid_hits ? 1 : 0;
      sweep.refined_detected += refined_hits ? 1 : 0;
    } else {
      ++sweep.safe_paths;
      sweep.cuboid_false_alarms += cuboid_hits ? 1 : 0;
      sweep.refined_false_alarms += refined_hits ? 1 : 0;
    }
  }
  return sweep;
}

void print_ablation() {
  print_header("Ablation A3 — cuboid device models vs. refined shapes",
               "RABIT (DSN'24), Section V open challenge (non-cuboid devices)");
  ShapeSweep s = run_sweep(31);
  std::printf("400 random passes over the domed centrifuge and bumped thermoshaker\n");
  std::printf("(physically safe: %d, physically colliding: %d)\n\n", s.safe_paths,
              s.true_hits);
  std::printf("%-34s %14s %16s\n", "World model", "false alarms", "hits detected");
  print_rule();
  std::printf("%-34s %8d (%4.1f%%) %11d/%d\n", "cuboids (paper's deployed RABIT)",
              s.cuboid_false_alarms, 100.0 * s.cuboid_false_alarms / s.safe_paths,
              s.cuboid_detected, s.true_hits);
  std::printf("%-34s %8d (%4.1f%%) %11d/%d\n", "refined shapes (this extension)",
              s.refined_false_alarms, 100.0 * s.refined_false_alarms / s.safe_paths,
              s.refined_detected, s.true_hits);
  print_rule();
  std::printf("shape: the cuboid over-approximation flags physically safe passes\n");
  std::printf("near the dome/bump shoulders; refined shapes remove those false\n");
  std::printf("alarms without losing any real detection (ground truth itself uses\n");
  std::printf("the refined geometry). Enable with EngineConfig::use_refined_shapes.\n");
}

void BM_CuboidPointCheck(benchmark::State& state) {
  auto backend = make_testbed();
  sim::WorldModel world = sim::deck_world_model(*backend);
  Vec3 p(-0.40, 0.04, 0.15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::check_point(world, p, 0.0));
  }
}
BENCHMARK(BM_CuboidPointCheck);

void BM_RefinedPointCheck(benchmark::State& state) {
  auto backend = make_testbed();
  sim::WorldModel world = sim::deck_world_model(*backend, /*refined_shapes=*/true);
  Vec3 p(-0.40, 0.04, 0.15);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sim::check_point(world, p, 0.0));
  }
}
BENCHMARK(BM_RefinedPointCheck);

}  // namespace

int main(int argc, char** argv) {
  print_ablation();
  benchmark::Initialize(&argc, argv);
  benchmark::RunSpecifiedBenchmarks();
  return 0;
}
