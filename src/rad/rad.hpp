// rabit::rad — the Robot Arm Dataset substitute and the rule miner.
//
// The paper's rulebase construction (§II-A) started from RAD, three months
// of command traces captured in the Hein Lab, mined for rules implied by
// command ordering ("device doors must be opened before a robot arm can
// enter them"; "solids must be added to containers before liquids"). The
// dataset itself is not available here, so this module synthesizes an
// equivalent: weeks of workflow executions with parameter jitter and
// occasional harmless reordering noise, plus a precedence-rule miner with
// support/confidence thresholds that recovers the planted rules.
#pragma once

#include <random>
#include <string>
#include <vector>

#include "devices/device.hpp"
#include "sim/backend.hpp"

namespace rabit::rad {

/// A command abstracted to a mining symbol, e.g. "open:dosing_device",
/// "enter:dosing_device", "dose_solid:vial_1", "dose_liquid:vial_1".
using Event = std::string;

/// Maps raw commands to mining symbols using deck knowledge (which device
/// cuboid a move target enters, which vial a dose lands in). Commands with
/// no safety-relevant abstraction map to "" and are dropped.
[[nodiscard]] std::vector<Event> abstract_events(const std::vector<dev::Command>& commands,
                                                 const sim::LabBackend& deck);

/// Synthetic-dataset parameters. Defaults approximate RAD's scale: ~90 days,
/// several experiments per day.
struct GeneratorOptions {
  int days = 90;
  int experiments_per_day_min = 2;
  int experiments_per_day_max = 6;
  unsigned seed = 7;
  /// Probability that an experiment inserts harmless extra commands
  /// (status checks, extra stirs) — noise the miner must tolerate.
  double noise_rate = 0.15;
};

/// One captured experiment run.
struct TraceSession {
  int day = 0;
  std::vector<dev::Command> commands;
};

/// Generates the synthetic dataset against a deck (used only for geometry
/// and device names; nothing is executed).
[[nodiscard]] std::vector<TraceSession> generate_dataset(const sim::LabBackend& deck,
                                                         const GeneratorOptions& options);

/// One synthetic dosing experiment drawn from the caller's RNG chain (grid
/// slot, dose quantity, optional solvent stage, reordering noise all come
/// from `rng`). The scenario factory threads one master std::mt19937_64
/// through every generator so a campaign is reproducible end-to-end from a
/// single seed; generate_dataset keeps its own legacy-seeded engine.
/// Throws std::invalid_argument naming the ViperX arm or the dosing or grid
/// site when the deck lacks it (the Hein production deck has no ViperX).
[[nodiscard]] std::vector<dev::Command> synth_session(const sim::LabBackend& deck,
                                                      std::mt19937_64& rng,
                                                      double noise_rate = 0.15);

/// A mined precedence rule: within a session, every occurrence of
/// `consequent` is preceded by `antecedent` (since the consequent's last
/// occurrence), e.g. open:dosing_device ≺ enter:dosing_device.
struct MinedRule {
  Event antecedent;
  Event consequent;
  std::size_t support = 0;   ///< number of consequent occurrences observed
  double confidence = 0.0;   ///< fraction of occurrences preceded by antecedent

  [[nodiscard]] std::string describe() const;
};

struct MinerOptions {
  std::size_t min_support = 20;
  double min_confidence = 0.97;
  /// Only consider antecedents at most this many events before the
  /// consequent (precedence is session-scoped, window-limited).
  std::size_t window = 32;
};

/// Mines precedence rules from abstracted sessions.
[[nodiscard]] std::vector<MinedRule> mine_rules(const std::vector<std::vector<Event>>& sessions,
                                                const MinerOptions& options);

/// The rules the generator plants (ground truth for precision/recall):
/// pairs of (antecedent, consequent) symbols.
[[nodiscard]] std::vector<std::pair<Event, Event>> planted_rules();

/// Scores mined rules against the planted ones.
struct MiningScore {
  std::size_t true_positives = 0;
  std::size_t false_positives = 0;
  std::size_t false_negatives = 0;
  [[nodiscard]] double precision() const;
  [[nodiscard]] double recall() const;
};
[[nodiscard]] MiningScore score_mining(const std::vector<MinedRule>& mined);

}  // namespace rabit::rad
