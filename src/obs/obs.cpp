#include "obs/obs.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <map>

#include "json/json.hpp"

namespace rabit::obs {

// ---------------------------------------------------------------------------
// Percentiles
// ---------------------------------------------------------------------------

double nearest_rank(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  auto rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  if (rank == 0) rank = 1;
  if (rank > sorted.size()) rank = sorted.size();
  return sorted[rank - 1];
}

double thread_cpu_now_us() {
#if defined(CLOCK_THREAD_CPUTIME_ID)
  timespec ts{};
  if (clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts) == 0) {
    return static_cast<double>(ts.tv_sec) * 1e6 + static_cast<double>(ts.tv_nsec) * 1e-3;
  }
#endif
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<double> bounds) : bounds_(std::move(bounds)) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  buckets_.assign(bounds_.size() + 1, 0);  // last bucket = > every bound (+Inf)
}

std::vector<double> Histogram::default_latency_bounds_us() {
  return {1, 3, 10, 30, 100, 300, 1000, 3000, 10000, 30000, 100000, 300000, 1000000};
}

void Histogram::observe(double v) {
  std::size_t i = 0;
  while (i < bounds_.size() && v > bounds_[i]) ++i;
  ++buckets_[i];
  sum_ += v;
  if (!samples_.empty() && v < samples_.back()) sorted_ = false;
  samples_.push_back(v);
}

double Histogram::percentile(double q) const {
  if (!sorted_) {
    std::sort(const_cast<std::vector<double>&>(samples_).begin(),
              const_cast<std::vector<double>&>(samples_).end());
    sorted_ = true;
  }
  return nearest_rank(samples_, q);
}

std::uint64_t Histogram::cumulative_count(std::size_t bucket) const {
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= bucket && i < buckets_.size(); ++i) total += buckets_[i];
  return total;
}

// ---------------------------------------------------------------------------
// Registry
// ---------------------------------------------------------------------------

Counter& Registry::counter(std::string_view family, std::string_view labels,
                           std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  ScalarFamily& fam = counters_[std::string(family)];
  if (fam.help.empty() && !help.empty()) fam.help = std::string(help);
  return fam.counters[std::string(labels)];
}

Gauge& Registry::gauge(std::string_view family, std::string_view labels,
                       std::string_view help) {
  std::lock_guard<std::mutex> lock(mu_);
  ScalarFamily& fam = gauges_[std::string(family)];
  if (fam.help.empty() && !help.empty()) fam.help = std::string(help);
  return fam.gauges[std::string(labels)];
}

Histogram& Registry::histogram(std::string_view family, std::string_view help,
                               std::vector<double> bounds) {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(std::string(family));
  if (it == histograms_.end()) {
    it = histograms_
             .emplace(std::string(family), HistFamily{std::string(help), Histogram(std::move(bounds))})
             .first;
  } else if (it->second.help.empty() && !help.empty()) {
    it->second.help = std::string(help);
  }
  return it->second.hist;
}

const Counter* Registry::find_counter(std::string_view family, std::string_view labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto fam = counters_.find(std::string(family));
  if (fam == counters_.end()) return nullptr;
  auto it = fam->second.counters.find(std::string(labels));
  return it == fam->second.counters.end() ? nullptr : &it->second;
}

const Gauge* Registry::find_gauge(std::string_view family, std::string_view labels) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto fam = gauges_.find(std::string(family));
  if (fam == gauges_.end()) return nullptr;
  auto it = fam->second.gauges.find(std::string(labels));
  return it == fam->second.gauges.end() ? nullptr : &it->second;
}

const Histogram* Registry::find_histogram(std::string_view family) const {
  std::lock_guard<std::mutex> lock(mu_);
  auto it = histograms_.find(std::string(family));
  return it == histograms_.end() ? nullptr : &it->second.hist;
}

void Registry::merge_from(const Registry& other) {
  // Lock ordering: this before other. The fleet merges at join, single
  // threaded, so contention (and deadlock pairs) cannot arise in practice.
  std::lock_guard<std::mutex> lock_this(mu_);
  std::lock_guard<std::mutex> lock_other(other.mu_);
  for (const auto& [name, fam] : other.counters_) {
    ScalarFamily& mine = counters_[name];
    if (mine.help.empty()) mine.help = fam.help;
    for (const auto& [labels, c] : fam.counters) mine.counters[labels].value_ += c.value_;
  }
  for (const auto& [name, fam] : other.gauges_) {
    ScalarFamily& mine = gauges_[name];
    if (mine.help.empty()) mine.help = fam.help;
    for (const auto& [labels, g] : fam.gauges) mine.gauges[labels].value_ += g.value_;
  }
  for (const auto& [name, fam] : other.histograms_) {
    auto it = histograms_.find(name);
    if (it == histograms_.end()) {
      it = histograms_.emplace(name, HistFamily{fam.help, Histogram(fam.hist.bounds_)}).first;
    }
    Histogram& mine = it->second.hist;
    if (mine.bounds_ == fam.hist.bounds_) {
      for (std::size_t i = 0; i < fam.hist.buckets_.size(); ++i) {
        mine.buckets_[i] += fam.hist.buckets_[i];
      }
    } else {
      for (double v : fam.hist.samples_) {
        std::size_t i = 0;
        while (i < mine.bounds_.size() && v > mine.bounds_[i]) ++i;
        ++mine.buckets_[i];
      }
    }
    mine.sum_ += fam.hist.sum_;
    mine.samples_.insert(mine.samples_.end(), fam.hist.samples_.begin(),
                         fam.hist.samples_.end());
    mine.sorted_ = false;
  }
}

namespace {

void append_number(std::string& out, double v) {
  json::Value value(v);
  out += json::serialize(value);
}

void append_metric_line(std::string& out, const std::string& family, const std::string& labels,
                        double value) {
  out += family;
  if (!labels.empty()) {
    out += '{';
    out += labels;
    out += '}';
  }
  out += ' ';
  append_number(out, value);
  out += '\n';
}

void append_headers(std::string& out, const std::string& family, const std::string& help,
                    const char* type) {
  out += "# HELP " + family + " " + (help.empty() ? family : help) + "\n";
  out += "# TYPE " + family + " " + type + "\n";
}

}  // namespace

std::string Registry::prometheus_text() const {
  std::lock_guard<std::mutex> lock(mu_);
  // Families of all three kinds interleave in one lexicographic ordering, so
  // the dump's layout depends only on the metric names, never on kind or on
  // registration order.
  std::map<std::string, std::string> blocks;
  for (const auto& [name, fam] : counters_) {
    std::string& out = blocks[name];
    append_headers(out, name, fam.help, "counter");
    for (const auto& [labels, c] : fam.counters) {
      append_metric_line(out, name, labels, static_cast<double>(c.value_));
    }
  }
  for (const auto& [name, fam] : gauges_) {
    std::string& out = blocks[name];
    append_headers(out, name, fam.help, "gauge");
    for (const auto& [labels, g] : fam.gauges) append_metric_line(out, name, labels, g.value_);
  }
  for (const auto& [name, fam] : histograms_) {
    std::string& out = blocks[name];
    append_headers(out, name, fam.help, "histogram");
    const Histogram& h = fam.hist;
    std::uint64_t running = 0;
    for (std::size_t i = 0; i < h.bounds_.size(); ++i) {
      running += h.buckets_[i];
      std::string le = "le=\"";
      append_number(le, h.bounds_[i]);
      le += '"';
      append_metric_line(out, name + "_bucket", le, static_cast<double>(running));
    }
    running += h.buckets_.back();
    append_metric_line(out, name + "_bucket", "le=\"+Inf\"", static_cast<double>(running));
    append_metric_line(out, name + "_sum", "", h.sum_);
    append_metric_line(out, name + "_count", "", static_cast<double>(h.samples_.size()));
  }
  std::string out;
  for (const auto& [name, block] : blocks) out += block;
  return out;
}

// ---------------------------------------------------------------------------
// Spans and rungs
// ---------------------------------------------------------------------------

std::string_view to_string(Phase p) {
  switch (p) {
    case Phase::Canonicalize: return "canonicalize";
    case Phase::Precondition: return "precondition";
    case Phase::Assurance: return "assurance";
    case Phase::Expectation: return "expectation";
    case Phase::Dispatch: return "dispatch";
    case Phase::Postcondition: return "postcondition";
    case Phase::Recovery: return "recovery";
  }
  return "unknown";
}

double SpanRecord::total_modeled_s() const {
  double total = 0.0;
  for (const PhaseSample& p : phases) total += p.dur_modeled_s;
  return total;
}

const PhaseSample* SpanRecord::find_phase(Phase p) const {
  for (const PhaseSample& sample : phases) {
    if (sample.phase == p) return &sample;
  }
  return nullptr;
}

void Collector::merge_from(const Collector& other) {
  spans_.insert(spans_.end(), other.spans_.begin(), other.spans_.end());
  rungs_.insert(rungs_.end(), other.rungs_.begin(), other.rungs_.end());
}

// ---------------------------------------------------------------------------
// Exporters
// ---------------------------------------------------------------------------

std::string export_events_jsonl(const Collector& collector) {
  std::string out;
  for (const SpanRecord& s : collector.spans()) {
    json::Object line;
    line["kind"] = "span";
    if (!s.stream.empty()) line["stream"] = s.stream;
    line["seq"] = s.seq;
    line["device"] = s.device;
    line["action"] = s.action;
    if (s.source_line > 0) line["line"] = s.source_line;
    line["t_modeled_s"] = s.t0_modeled_s;
    line["verdict"] = s.verdict;
    if (!s.rule.empty()) line["rule"] = s.rule;
    json::Array phases;
    for (const PhaseSample& p : s.phases) {
      json::Object phase;
      phase["phase"] = std::string(to_string(p.phase));
      phase["dur_modeled_s"] = p.dur_modeled_s;
      phases.emplace_back(std::move(phase));
    }
    line["phases"] = std::move(phases);
    out += json::serialize(json::Value(std::move(line)));
    out += '\n';
  }
  for (const RungRecord& r : collector.rungs()) {
    json::Object line;
    line["kind"] = "rung";
    if (!r.stream.empty()) line["stream"] = r.stream;
    line["span_seq"] = r.span_seq;
    line["rung"] = r.kind;
    line["device"] = r.device;
    line["action"] = r.action;
    if (r.attempt > 0) line["attempt"] = r.attempt;
    line["t_modeled_s"] = r.t_modeled_s;
    if (!r.note.empty()) line["note"] = r.note;
    out += json::serialize(json::Value(std::move(line)));
    out += '\n';
  }
  return out;
}

namespace {

/// Stable stream -> pid assignment in first-appearance order.
class PidTable {
 public:
  std::int64_t pid_for(const std::string& stream, json::Array& events) {
    auto it = pids_.find(stream);
    if (it != pids_.end()) return it->second;
    auto pid = static_cast<std::int64_t>(pids_.size() + 1);
    pids_.emplace(stream, pid);
    json::Object meta;
    meta["name"] = "process_name";
    meta["ph"] = "M";
    meta["pid"] = pid;
    meta["tid"] = 0;
    json::Object args;
    args["name"] = stream.empty() ? std::string("rabit") : stream;
    meta["args"] = std::move(args);
    events.emplace_back(std::move(meta));
    return pid;
  }

 private:
  std::map<std::string, std::int64_t> pids_;
};

json::Object complete_event(std::string name, std::int64_t pid, double ts_us, double dur_us) {
  json::Object e;
  e["name"] = std::move(name);
  e["ph"] = "X";
  e["pid"] = pid;
  e["tid"] = 1;
  e["ts"] = ts_us;
  e["dur"] = dur_us;
  return e;
}

}  // namespace

std::string export_chrome_trace(const Collector& collector) {
  json::Array events;
  PidTable pids;
  for (const SpanRecord& s : collector.spans()) {
    std::int64_t pid = pids.pid_for(s.stream, events);
    double ts = s.t0_modeled_s * 1e6;
    json::Object span = complete_event(s.device + "." + s.action, pid, ts,
                                       s.total_modeled_s() * 1e6);
    json::Object args;
    args["seq"] = s.seq;
    args["verdict"] = s.verdict;
    if (!s.rule.empty()) args["rule"] = s.rule;
    span["args"] = std::move(args);
    events.emplace_back(std::move(span));
    double cursor = ts;
    for (const PhaseSample& p : s.phases) {
      double dur = p.dur_modeled_s * 1e6;
      events.emplace_back(complete_event(std::string(to_string(p.phase)), pid, cursor, dur));
      cursor += dur;
    }
  }
  for (const RungRecord& r : collector.rungs()) {
    std::int64_t pid = pids.pid_for(r.stream, events);
    json::Object e;
    e["name"] = "recovery:" + r.kind;
    e["ph"] = "i";
    e["pid"] = pid;
    e["tid"] = 1;
    e["ts"] = r.t_modeled_s * 1e6;
    e["s"] = "t";
    json::Object args;
    args["span_seq"] = r.span_seq;
    args["device"] = r.device;
    if (r.attempt > 0) args["attempt"] = r.attempt;
    if (!r.note.empty()) args["note"] = r.note;
    e["args"] = std::move(args);
    events.emplace_back(std::move(e));
  }
  json::Object root;
  root["traceEvents"] = std::move(events);
  root["displayTimeUnit"] = "ms";
  return json::serialize_pretty(json::Value(std::move(root))) + "\n";
}

bool write_export_dir(const std::string& dir, const Collector& collector,
                      const Registry& registry, std::string* error) {
  namespace fs = std::filesystem;
  std::error_code ec;
  fs::create_directories(dir, ec);
  if (ec) {
    if (error != nullptr) *error = "cannot create '" + dir + "': " + ec.message();
    return false;
  }
  auto write_file = [&](const char* name, const std::string& contents) {
    fs::path path = fs::path(dir) / name;
    std::ofstream out(path);
    if (!out) {
      if (error != nullptr) *error = "cannot write '" + path.string() + "'";
      return false;
    }
    out << contents;
    return static_cast<bool>(out);
  };
  return write_file("events.jsonl", export_events_jsonl(collector)) &&
         write_file("trace.json", export_chrome_trace(collector)) &&
         write_file("metrics.prom", registry.prometheus_text());
}

}  // namespace rabit::obs
