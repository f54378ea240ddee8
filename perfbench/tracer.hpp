// The benchmark's own span recorder for the traced run. Spans are opened
// around the benchmark's calls into the program's public functions, kept in
// memory, and written out as JSONL when the run ends. Single-threaded: the
// benchmark issues every call from its main thread (the program's worker
// threads live inside Fleet calls, which are one span each).
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

struct Span {
  const char* name = "";   ///< a layer boundary, e.g. "analysis.plan_campaign_shards"
  std::uint64_t op = 0;    ///< operation id shared by one campaign's or session's spans
  int parent = -1;         ///< index of the enclosing span, -1 for a root
  double start_us = 0.0;   ///< since the tracer was created
  double end_us = 0.0;
};

class Tracer {
 public:
  Tracer() : origin_(std::chrono::steady_clock::now()) {}

  /// Opens a span under the innermost open span; returns its index.
  int begin(const char* name, std::uint64_t op);
  /// Closes span `id`, which must be the innermost open span.
  void end(int id);
  /// Closes every open span (after an operation threw).
  void close_all();
  /// Index of the span closed most recently, e.g. by span().
  [[nodiscard]] int last_closed() const { return last_closed_; }

  template <class F>
  decltype(auto) span(const char* name, std::uint64_t op, F&& f) {
    struct Closer {
      Tracer* tracer;
      int id;
      ~Closer() { tracer->end(id); }
    } closer{this, begin(name, op)};
    return f();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  [[nodiscard]] double duration_us(int id) const;
  /// Duration minus the time its direct children cover.
  [[nodiscard]] double self_us(int id) const;
  /// Each span name's summed self time (us) over spans `first` onwards.
  [[nodiscard]] std::map<std::string, double> self_since(int first) const;
  /// One JSON object per span: name, op, parent, start_us, end_us, self_us.
  [[nodiscard]] std::string to_jsonl() const;

 private:
  [[nodiscard]] double now_us() const;

  std::chrono::steady_clock::time_point origin_;
  std::vector<Span> spans_;
  std::vector<double> child_us_;  ///< per span: summed direct-child durations
  std::vector<int> open_;
  int last_closed_ = -1;
};

}  // namespace perfbench
