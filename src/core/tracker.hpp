// StateTracker — RABIT's symbolic model of the lab.
//
// Implements the state bookkeeping of the Fig. 2 algorithm: S_current is
// seeded from device status commands (SetState, line 3), advanced through
// each action's postconditions (UpdateState, line 11), compared against
// fetched state after execution (lines 13-15), and resynced to the actual
// state (line 16).
//
// Devices without sensors (vials, racks, chamber occupancy) are tracked
// purely symbolically from the configured initial state plus observed
// commands. The gripper has no pressure sensor, so `holding` is inference,
// never observation — which is why the paper's Bug C evades detection.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "devices/device.hpp"

namespace rabit::core {

class StateTracker {
 public:
  explicit StateTracker(const EngineConfig* config);

  /// SetState(S_initial): overlays observed device state onto the configured
  /// initial symbolic state.
  void initialize(const dev::LabStateSnapshot& observed);

  [[nodiscard]] const dev::LabStateSnapshot& state() const { return state_; }

  /// Variable access ("" device/var lookups throw std::out_of_range).
  [[nodiscard]] const json::Value& var(std::string_view device, std::string_view name) const;
  [[nodiscard]] const json::Value* find_var(std::string_view device,
                                            std::string_view name) const;
  void set_var(std::string_view device, std::string_view name, json::Value value);

  /// Convenience readers used throughout the rulebase.
  [[nodiscard]] std::string arm_holding(std::string_view arm) const;
  [[nodiscard]] std::string arm_pose(std::string_view arm) const;
  [[nodiscard]] std::string arm_inside(std::string_view arm) const;
  [[nodiscard]] geom::Vec3 arm_position_lab(std::string_view arm) const;

  /// Tracked occupant of a deck site ("" when believed free).
  [[nodiscard]] std::string site_occupant(std::string_view site_name) const;
  void seat(std::string_view site_name, std::string vial_id);
  void unseat(std::string_view site_name);

  /// UpdateState(S_current, a): applies the action's postconditions,
  /// including the symbolic side effects (substance amounts, gripper
  /// pick/place inference at known sites, door states).
  void apply_postconditions(const dev::Command& cmd);

  /// Lines 13-15: "device.var" entries where S_actual diverges from
  /// S_expected, ignoring each device's unchecked variables.
  [[nodiscard]] std::vector<std::string> mismatches(
      const dev::LabStateSnapshot& observed) const;

  /// Line 16: S_current <- SetState(S_actual) for every observed variable.
  /// Forgets the incremental bookkeeping below, as initialize() does.
  void resync(const dev::LabStateSnapshot& observed);

  /// Lines 13-15 on a backend's S_actual: the list mismatches(observed
  /// .snapshot) returns, from only the devices that can differ — those
  /// whose entry revision moved since the resync(ObservedLab) that last
  /// synced them, and those set_var() wrote since (line 11). Every other
  /// device is equal by construction: that resync copied its entry, and
  /// neither side has moved since.
  [[nodiscard]] std::vector<std::string> mismatches(const dev::ObservedLab& observed) const;

  /// Line 16 on the same devices; afterwards every entry of `observed` is
  /// synced. `observed` must come from the backend the tracker was last
  /// initialized or fully resynced from.
  void resync(const dev::ObservedLab& observed);

  /// Devices mismatches(ObservedLab) has compared since construction: the
  /// work count of Fig. 2 line 14.
  [[nodiscard]] std::size_t devices_diffed() const { return devices_diffed_; }

 private:
  /// Is entry `index` of `observed` equal to the tracked state by
  /// construction (see mismatches(ObservedLab))?
  [[nodiscard]] bool synced(const dev::ObservedLab& observed, std::size_t index) const;
  /// The per-device bodies the full and incremental forms share.
  void diff_device(const std::string& device, const dev::StateMap& actual,
                   std::vector<std::string>& out) const;
  void resync_device(const std::string& device, const dev::StateMap& actual);

  void apply_arm_postconditions(const DeviceMeta& meta, const dev::Command& cmd);
  void apply_station_postconditions(const DeviceMeta& meta, const dev::Command& cmd);
  void track_release(const DeviceMeta& arm_meta);
  void track_grab(const DeviceMeta& arm_meta);

  const EngineConfig* config_;
  dev::LabStateSnapshot state_;
  /// Tracked tip positions in the lab frame (continuous; excluded from the
  /// malfunction comparison but needed for geometric rules).
  std::map<std::string, geom::Vec3, std::less<>> arm_lab_positions_;
  /// Tracked site occupancy: site name -> vial id.
  std::map<std::string, std::string, std::less<>> site_occupancy_;
  /// Per ObservedLab entry: the revision resync(ObservedLab) last adopted.
  /// Entries past the end have never been synced incrementally.
  std::vector<std::uint64_t> synced_revisions_;
  /// Devices set_var() wrote since the last resync.
  std::vector<std::string> touched_;
  mutable std::size_t devices_diffed_ = 0;
};

}  // namespace rabit::core
