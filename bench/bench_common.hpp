// Shared helpers for the reproduction benches. Each bench binary prints the
// paper table/figure it regenerates (rows first, then google-benchmark
// microbenchmarks where timing is part of the claim).
#pragma once

#include <cstdio>
#include <memory>
#include <string>

#include "bugs/bugs.hpp"
#include "core/engine.hpp"
#include "core/lab.hpp"
#include "script/workflows.hpp"
#include "sim/deck.hpp"
#include "sim/extended_sim.hpp"
#include "trace/trace.hpp"

namespace rabit::bench {

inline std::unique_ptr<sim::LabBackend> make_testbed(
    sim::StageProfile profile = sim::testbed_profile()) {
  auto backend = std::make_unique<sim::LabBackend>(std::move(profile));
  sim::build_hein_testbed_deck(*backend);
  return backend;
}

inline std::unique_ptr<sim::LabBackend> make_production() {
  auto backend = std::make_unique<sim::LabBackend>(sim::production_profile());
  sim::build_hein_production_deck(*backend);
  return backend;
}

inline void print_header(const char* title, const char* paper_ref) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title);
  std::printf("reproduces: %s\n", paper_ref);
  std::printf("================================================================\n");
}

inline void print_rule(char c = '-') {
  for (int i = 0; i < 64; ++i) std::putchar(c);
  std::putchar('\n');
}

inline dev::Command make_cmd(std::string device, std::string action, json::Object args = {}) {
  dev::Command c;
  c.device = std::move(device);
  c.action = std::move(action);
  c.args = json::Value(std::move(args));
  return c;
}

inline dev::Command move_cmd(std::string arm, const geom::Vec3& local) {
  json::Object args;
  args["position"] = json::Array{local.x, local.y, local.z};
  return make_cmd(std::move(arm), "move_to", std::move(args));
}

inline json::Object door_arg(const char* state) {
  json::Object o;
  o["state"] = std::string(state);
  return o;
}

inline geom::Vec3 site_local(const sim::LabBackend& backend, const char* arm, const char* site) {
  const auto& a = dynamic_cast<const dev::RobotArmDevice&>(*backend.registry().find(arm));
  return a.to_local(backend.find_site(site)->lab_position);
}

}  // namespace rabit::bench
