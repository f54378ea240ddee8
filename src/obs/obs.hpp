// rabit::obs — first-class observability for the interception pipeline.
//
// The paper's value claim is that interception is cheap and trustworthy;
// SOTER-style runtime assurance argues a monitor must leave machine-readable
// evidence of what it observed and decided. This module is that evidence
// layer:
//
//   * Registry  — an injectable metrics registry (counters, gauges, fixed-
//                 bucket latency histograms with *exact* nearest-rank
//                 percentile extraction) with a Prometheus-style text dump;
//   * SpanRecord — one span per intercepted command, carrying the phase
//                 timeline (canonicalize → precondition → assurance →
//                 expectation → dispatch → postcondition → recovery) and
//                 the verdict;
//   * RungRecord — one event per recovery-ladder rung (retry, re-poll,
//                 watchdog, quarantine, safe-state, halt);
//   * Sink / Collector — where spans and rungs go. Components take a
//                 non-owning Sink*; a null sink disables every hook behind a
//                 single branch (the zero-cost-when-off contract, enforced
//                 by bench_latency_overhead);
//   * exporters — structured JSONL events, Chrome trace-event JSON (loadable
//                 in Perfetto/chrome://tracing), Prometheus text.
//
// Determinism contract: exported *events* (JSONL and Chrome trace) carry
// only modeled-lab-time fields, sequence numbers, and verdicts — never wall
// clock — so a fleet's merged export is byte-identical across runs and
// worker counts, exactly like the trace JSONL guarantee. Wall-clock latency
// lives in Registry histograms and surfaces only through the Prometheus
// dump, which is schema-stable but not byte-stable.
#pragma once

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace rabit::obs {

// ---------------------------------------------------------------------------
// Percentile convention (shared with fleet::summarize_latencies)
// ---------------------------------------------------------------------------

/// The exact percentile convention every RABIT latency summary uses:
/// nearest-rank on ascending-sorted samples, rank = clamp(ceil(q * N), 1, N),
/// returning sorted[rank - 1]. With N = 1 every quantile is the sample; with
/// N = 2, q <= 0.5 selects the smaller sample and q > 0.5 the larger. The
/// clamp makes the rank robust to floating-point round-up at q * N == N.
/// `sorted` must be ascending; returns 0.0 when empty.
[[nodiscard]] double nearest_rank(const std::vector<double>& sorted, double q);

/// Real microseconds of CPU time consumed by the *calling thread*
/// (CLOCK_THREAD_CPUTIME_ID where available; steady_clock otherwise).
/// Per-check latency measurements use this instead of wall clock so a
/// worker preempted mid-check does not absorb a whole scheduler quantum
/// into the check's measured cost: on an oversubscribed box, wall-clock
/// check tails spike to ~10 ms of involuntary wait while the CPU actually
/// spent checking stays in the tens of microseconds. Differences of this
/// clock are only meaningful within one thread — exactly how the per-check
/// timers use it.
[[nodiscard]] double thread_cpu_now_us();

// ---------------------------------------------------------------------------
// Metrics registry
// ---------------------------------------------------------------------------

/// Monotone counter. Handles returned by Registry stay valid for the
/// registry's lifetime.
class Counter {
 public:
  void increment(std::uint64_t by = 1) { value_ += by; }
  [[nodiscard]] std::uint64_t value() const { return value_; }

 private:
  friend class Registry;
  std::uint64_t value_ = 0;
};

/// Point-in-time value. Fleet merge sums gauges (each stream contributes its
/// share of a fleet-wide quantity).
class Gauge {
 public:
  void set(double v) { value_ = v; }
  void add(double v) { value_ += v; }
  [[nodiscard]] double value() const { return value_; }

 private:
  friend class Registry;
  double value_ = 0.0;
};

/// Fixed-bucket latency histogram that additionally retains every sample so
/// percentile() is *exact* (nearest-rank, see nearest_rank above) rather
/// than bucket-interpolated. Buckets exist for the Prometheus dump;
/// percentiles come from the samples.
class Histogram {
 public:
  void observe(double v);
  [[nodiscard]] std::size_t count() const { return samples_.size(); }
  [[nodiscard]] double sum() const { return sum_; }
  /// Exact nearest-rank percentile over all observed samples; 0.0 when empty.
  [[nodiscard]] double percentile(double q) const;
  [[nodiscard]] const std::vector<double>& bounds() const { return bounds_; }
  /// Cumulative count of samples <= bounds()[i].
  [[nodiscard]] std::uint64_t cumulative_count(std::size_t bucket) const;

  /// Default latency buckets, in microseconds: 1 to 1e6 in half-decade steps.
  [[nodiscard]] static std::vector<double> default_latency_bounds_us();

 private:
  friend class Registry;
  explicit Histogram(std::vector<double> bounds);
  std::vector<double> bounds_;          ///< ascending upper bounds (le)
  std::vector<std::uint64_t> buckets_;  ///< per-bucket (non-cumulative) counts
  std::vector<double> samples_;
  mutable bool sorted_ = true;
  double sum_ = 0.0;
};

/// A process-wide but injectable metrics registry. Registration, lookup,
/// merge, and the Prometheus dump take the registry mutex; the returned
/// metric *handles* are deliberately unsynchronized (an increment is one
/// add, not a lock). The fleet therefore gives every stream its own
/// registry and merges them deterministically at join (see merge_from) —
/// cross-thread sharing of one registry's handles is not supported, and the
/// 64-stream TSan audit test pins that the per-stream design stays clean.
///
/// Metric keys are `family` (a Prometheus metric name) plus an optional
/// pre-formatted `labels` string such as `verdict="pass"`. The Prometheus
/// dump orders families and label sets lexicographically, so its layout is
/// deterministic.
class Registry {
 public:
  Registry() = default;
  Registry(const Registry&) = delete;
  Registry& operator=(const Registry&) = delete;

  Counter& counter(std::string_view family, std::string_view labels = "",
                   std::string_view help = "");
  Gauge& gauge(std::string_view family, std::string_view labels = "",
               std::string_view help = "");
  Histogram& histogram(std::string_view family, std::string_view help = "",
                       std::vector<double> bounds = Histogram::default_latency_bounds_us());

  /// Read-side lookups; nullptr when the metric was never created.
  [[nodiscard]] const Counter* find_counter(std::string_view family,
                                            std::string_view labels = "") const;
  [[nodiscard]] const Gauge* find_gauge(std::string_view family,
                                        std::string_view labels = "") const;
  [[nodiscard]] const Histogram* find_histogram(std::string_view family) const;

  /// Adds `other`'s metrics into this registry: counters and gauges sum,
  /// histograms concatenate samples and bucket counts. Call in a fixed order
  /// (stream-spec order, not finish order) so double sums — the only
  /// order-sensitive accumulation — are reproducible.
  void merge_from(const Registry& other);

  /// Prometheus text exposition: `# HELP` / `# TYPE` headers, families and
  /// label sets in lexicographic order, histograms as cumulative `_bucket`
  /// series with `le="+Inf"`, `_sum`, and `_count`.
  [[nodiscard]] std::string prometheus_text() const;

 private:
  struct ScalarFamily {
    std::string help;
    std::map<std::string, Counter> counters;  ///< labels -> counter
    std::map<std::string, Gauge> gauges;
  };
  mutable std::mutex mu_;
  std::map<std::string, ScalarFamily> counters_;
  std::map<std::string, ScalarFamily> gauges_;
  struct HistFamily {
    std::string help;
    Histogram hist;
  };
  std::map<std::string, HistFamily> histograms_;
};

// ---------------------------------------------------------------------------
// Spans and rungs
// ---------------------------------------------------------------------------

/// The phases of one intercepted command, in pipeline order: the check
/// (lines 6-10), the assurance decision's slow path, line 11, execution,
/// lines 13-16, and the recovery ladder's waits.
enum class Phase {
  Canonicalize,
  Precondition,
  Assurance,
  Expectation,
  Dispatch,
  Postcondition,
  Recovery,
};
inline constexpr std::size_t kPhaseCount = 7;

[[nodiscard]] std::string_view to_string(Phase p);

struct PhaseSample {
  Phase phase = Phase::Canonicalize;
  /// Modeled lab seconds this phase consumed (deterministic; exported).
  double dur_modeled_s = 0.0;
  /// Real microseconds spent in the phase (feeds histograms; never exported
  /// in event streams).
  double wall_us = 0.0;
};

/// One per-command span. Components fill it in place; the Supervisor
/// finalizes the verdict and hands it to the sink.
struct SpanRecord {
  std::string stream;       ///< fleet stream name; empty for single runs
  std::uint64_t seq = 0;    ///< command ordinal within the stream (0-based)
  std::string device;
  std::string action;
  int source_line = 0;
  double t0_modeled_s = 0.0;  ///< modeled lab clock when the span opened
  /// pass | blocked | malfunction | firmware_error | silently_skipped |
  /// refused (halted or quarantined device).
  std::string verdict;
  std::string rule;  ///< alert rule id when the verdict is not "pass"
  std::vector<PhaseSample> phases;

  [[nodiscard]] double total_modeled_s() const;
  [[nodiscard]] const PhaseSample* find_phase(Phase p) const;
};

/// One recovery-ladder rung: retry | repoll | watchdog | quarantine |
/// safe_state | halt.
struct RungRecord {
  std::string stream;
  std::uint64_t span_seq = 0;  ///< the span whose command triggered the rung
  std::string kind;
  std::string device;
  std::string action;
  std::size_t attempt = 0;
  double t_modeled_s = 0.0;
  std::string note;
};

/// Receives completed spans and rungs. Implementations used from the fleet
/// hot path are per-stream (no cross-thread sharing); a null Sink* disables
/// observation entirely.
class Sink {
 public:
  virtual ~Sink() = default;
  virtual void on_span(SpanRecord span) = 0;
  virtual void on_rung(RungRecord rung) = 0;
};

/// The standard sink: appends everything, in emission order, for export.
class Collector : public Sink {
 public:
  void on_span(SpanRecord span) override { spans_.push_back(std::move(span)); }
  void on_rung(RungRecord rung) override { rungs_.push_back(std::move(rung)); }

  [[nodiscard]] const std::vector<SpanRecord>& spans() const { return spans_; }
  [[nodiscard]] const std::vector<RungRecord>& rungs() const { return rungs_; }
  [[nodiscard]] bool empty() const { return spans_.empty() && rungs_.empty(); }

  /// Appends another collector's records after this one's. Merging streams
  /// in stream-spec order makes the combined export worker-count
  /// independent.
  void merge_from(const Collector& other);

 private:
  std::vector<SpanRecord> spans_;
  std::vector<RungRecord> rungs_;
};

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

/// Structured JSONL event log: one object per span (kind "span", with a
/// phase array) and per rung (kind "rung"), in collector order. Modeled
/// time only — byte-identical for identical modeled histories.
[[nodiscard]] std::string export_events_jsonl(const Collector& collector);

/// Chrome trace-event JSON (the format Perfetto and chrome://tracing load):
/// one complete ("X") event per phase, one enclosing event per span, one
/// instant ("i") event per rung. Streams map to pids in first-appearance
/// order with process_name metadata; ts/dur are modeled microseconds.
[[nodiscard]] std::string export_chrome_trace(const Collector& collector);

/// Writes events.jsonl, trace.json, and metrics.prom into `dir` (created if
/// missing). Returns false and fills *error on I/O failure.
bool write_export_dir(const std::string& dir, const Collector& collector,
                      const Registry& registry, std::string* error = nullptr);

}  // namespace rabit::obs
