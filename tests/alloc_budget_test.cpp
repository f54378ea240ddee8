// Heap allocations of a lab's first motion, held to budgets with a counting
// operator new. A fresh V3 lab's first motion step builds both broad phases
// (the simulator's over its configured world, the backend's over the ground
// truth); it sets the tail of a supervised session, so its allocations are
// pinned here alongside the grids' own and a whole session's, untraced and
// traced. The counts are exact for a given standard library (these were
// counted with GCC 12.2's libstdc++, the same in Release, ASan+UBSan and
// TSan); a budget may only tighten.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <random>
#include <vector>

#include "core/lab.hpp"
#include "obs/obs.hpp"
#include "rad/rad.hpp"
#include "sim/deck.hpp"
#include "trace/trace.hpp"

// ---------------------------------------------------------------------------
// Counting allocator: every operator new of the process, on any thread.
// ---------------------------------------------------------------------------

namespace {
std::atomic<std::size_t> g_allocations{0};
}  // namespace

// Every non-aligned form is replaced, the nothrow ones included: a
// sanitizer runtime would otherwise serve them and see std::free release
// its memory.
void* operator new(std::size_t size) {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(size == 0 ? 1 : size)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t size) { return ::operator new(size); }
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  g_allocations.fetch_add(1, std::memory_order_relaxed);
  return std::malloc(size == 0 ? 1 : size);
}
void* operator new[](std::size_t size, const std::nothrow_t& tag) noexcept {
  return ::operator new(size, tag);
}
// Not inlined: GCC would otherwise pair the inlined std::free with the
// operator new call and warn (-Wmismatched-new-delete).
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace rabit {
namespace {

/// Allocations made while `f` runs.
template <typename F>
std::size_t allocations_of(F&& f) {
  const std::size_t before = g_allocations.load(std::memory_order_relaxed);
  f();
  return g_allocations.load(std::memory_order_relaxed) - before;
}

/// The V3 testbed lab with a 400-box shelf rack: 413 simulator boxes.
struct ShelfLab {
  ShelfLab() { sim::add_shelf_rack(lab.simulator->world(), 400); }
  core::Lab lab{core::Variant::ModifiedWithSim};
};

/// The testbed deck's ground truth, as the backend keeps it for the ViperX.
sim::WorldModel testbed_ground_truth() {
  sim::LabBackend backend(sim::testbed_profile());
  sim::build_hein_testbed_deck(backend);
  return backend.ground_truth_world(sim::deck_ids::kViperX);
}

/// One fixed rad dosing experiment on the testbed deck.
std::vector<dev::Command> rad_session() {
  sim::LabBackend staging(sim::testbed_profile());
  sim::build_hein_testbed_deck(staging);
  std::mt19937_64 rng(7);
  return rad::synth_session(staging, rng);
}

/// The session options perfbench's session_motion uses: no halt on alerts,
/// runtime assurance on.
trace::Supervisor::Options session_options() {
  trace::Supervisor::Options options;
  options.halt_on_alert = false;
  options.assurance = assurance::AssuranceConfig{};
  return options;
}

void report(const char* what, std::size_t made, std::size_t budget) {
  std::printf("%s: %zu allocations (budget %zu)\n", what, made, budget);
}

TEST(AllocationBudget, FreshGridOverTheShelfLab) {
  ShelfLab shelf;
  const sim::WorldModel& world = shelf.lab.simulator->world();
  ASSERT_EQ(world.boxes.size(), 413u);
  std::size_t made = allocations_of([&] {
    sim::BroadPhaseGrid grid(world);
    ASSERT_EQ(grid.box_count(), 413u);
  });
  // The per-cell grid made 412: one vector per occupied cell, grown box by
  // box.
  constexpr std::size_t kBudget = 4;
  EXPECT_LE(made, kBudget);
  report("fresh grid, shelf lab", made, kBudget);
}

TEST(AllocationBudget, FreshGridOverTheTestbedGroundTruth) {
  const sim::WorldModel world = testbed_ground_truth();
  ASSERT_EQ(world.boxes.size(), 11u);
  std::size_t made = allocations_of([&] { sim::BroadPhaseGrid grid(world); });
  // The per-cell grid made 466.
  constexpr std::size_t kBudget = 4;
  EXPECT_LE(made, kBudget);
  report("fresh grid, testbed ground truth", made, kBudget);
}

TEST(AllocationBudget, InPlaceRebuildOverTheTestbedGroundTruth) {
  const sim::WorldModel world = testbed_ground_truth();
  sim::BroadPhaseGrid grid(world);
  std::size_t made = allocations_of([&] { grid.rebuild(world); });
  // The per-cell grid made 465: it dropped every cell and grew them again.
  EXPECT_EQ(made, 0u);
  report("in-place rebuild, testbed ground truth", made, 0);
}

TEST(AllocationBudget, FirstMotionStepOfAFreshShelfLab) {
  const std::vector<dev::Command> session = rad_session();
  ShelfLab shelf;
  core::Lab& lab = shelf.lab;
  trace::Supervisor supervisor(&lab.engine, &lab.backend, session_options());
  supervisor.start();
  // Step until the simulator sweeps for the first time: that step's V3
  // check builds the simulator's grid and its dispatch the backend's.
  std::size_t step = 0;
  std::size_t made = 0;
  for (; step < session.size() && lab.simulator->checks_performed() == 0; ++step) {
    ASSERT_EQ(lab.backend.ground_truth_builds(), 0u) << "an arm moved before any V3 check";
    made = allocations_of([&] { (void)supervisor.step(session[step]); });
  }
  ASSERT_GT(lab.simulator->checks_performed(), 0u);
  ASSERT_EQ(lab.backend.ground_truth_builds(), 1u);
  // Later motion steps of the same lab, for scale.
  std::size_t later = 0;
  std::size_t later_motions = 0;
  for (; step < session.size(); ++step) {
    const std::size_t checks = lab.simulator->checks_performed();
    const std::size_t step_made = allocations_of([&] { (void)supervisor.step(session[step]); });
    if (lab.simulator->checks_performed() == checks) continue;
    later += step_made;
    ++later_motions;
  }
  ASSERT_GT(later_motions, 0u);
  std::printf("later motion steps: %zu allocations over %zu steps\n", later, later_motions);
  // With the per-cell grids: 917.
  constexpr std::size_t kBudget = 47;
  EXPECT_LE(made, kBudget);
  report("first motion step, fresh shelf lab", made, kBudget);
}

/// Allocations of a whole supervised session on a fresh shelf lab (the lab
/// is built outside the count): the Supervisor, start() and every step.
std::size_t session_allocations(bool traced) {
  const std::vector<dev::Command> session = rad_session();
  ShelfLab shelf;
  obs::Collector events;
  obs::Registry metrics;
  trace::Supervisor::Options options = session_options();
  if (traced) {
    options.obs_sink = &events;
    options.obs_metrics = &metrics;
  }
  return allocations_of([&] {
    trace::Supervisor supervisor(&shelf.lab.engine, &shelf.lab.backend, options);
    supervisor.start();
    for (const dev::Command& cmd : session) (void)supervisor.step(cmd);
  });
}

TEST(AllocationBudget, WholeSessionUntraced) {
  std::size_t made = session_allocations(false);
  // With the per-cell grids: 1,522.
  constexpr std::size_t kBudget = 652;
  EXPECT_LE(made, kBudget);
  report("whole session, untraced", made, kBudget);
}

TEST(AllocationBudget, WholeSessionTraced) {
  std::size_t made = session_allocations(true);
  // With the per-cell grids: 1,744.
  constexpr std::size_t kBudget = 874;
  EXPECT_LE(made, kBudget);
  report("whole session, traced", made, kBudget);
}

}  // namespace
}  // namespace rabit
