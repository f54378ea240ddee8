#include "tracer.hpp"

#include <algorithm>
#include <stdexcept>

#include "json/json.hpp"

namespace perfbench {

double Tracer::now_us() const {
  return std::chrono::duration<double, std::micro>(std::chrono::steady_clock::now() - origin_)
      .count();
}

int Tracer::begin(const char* name, std::uint64_t op) {
  Span s;
  s.name = name;
  s.op = op;
  s.parent = open_.empty() ? -1 : open_.back();
  s.start_us = now_us();
  spans_.push_back(s);
  child_us_.push_back(0.0);
  int id = static_cast<int>(spans_.size() - 1);
  open_.push_back(id);
  return id;
}

void Tracer::end(int id) {
  if (open_.empty() || open_.back() != id) {
    throw std::logic_error("tracer: span closed out of order");
  }
  open_.pop_back();
  Span& s = spans_[static_cast<std::size_t>(id)];
  s.end_us = now_us();
  if (s.parent >= 0) child_us_[static_cast<std::size_t>(s.parent)] += s.end_us - s.start_us;
  last_closed_ = id;
}

void Tracer::close_all() {
  while (!open_.empty()) end(open_.back());
}

double Tracer::duration_us(int id) const {
  const Span& s = spans_.at(static_cast<std::size_t>(id));
  return s.end_us - s.start_us;
}

double Tracer::self_us(int id) const {
  return duration_us(id) - child_us_.at(static_cast<std::size_t>(id));
}

std::map<std::string, double> Tracer::self_since(int first) const {
  std::map<std::string, double> out;
  for (std::size_t i = static_cast<std::size_t>(std::max(first, 0)); i < spans_.size(); ++i) {
    out[spans_[i].name] += self_us(static_cast<int>(i));
  }
  return out;
}

std::string Tracer::to_jsonl() const {
  std::string out;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    rabit::json::Object o;
    o["name"] = s.name;
    o["op"] = static_cast<std::int64_t>(s.op);
    o["parent"] = s.parent;
    o["start_us"] = s.start_us;
    o["end_us"] = s.end_us;
    o["self_us"] = self_us(static_cast<int>(i));
    out += rabit::json::serialize(rabit::json::Value(std::move(o)));
    out += '\n';
  }
  return out;
}

}  // namespace perfbench
