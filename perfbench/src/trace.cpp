#include "trace.hpp"

#include <algorithm>
#include <utility>

namespace perfbench {

double now_s() {
  using clock = std::chrono::steady_clock;
  static const clock::time_point epoch = clock::now();
  return std::chrono::duration<double>(clock::now() - epoch).count();
}

std::int32_t Tracer::open(const std::string& name, std::int64_t request) {
  if (!enabled_) return -1;
  Span s;
  s.name = name;
  s.start = now_s();
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  spans_.push_back(std::move(s));
  const auto id = static_cast<std::int32_t>(spans_.size() - 1);
  stack_.push_back(id);
  return id;
}

void Tracer::close(std::int32_t id) {
  if (id < 0) return;
  spans_[static_cast<std::size_t>(id)].end = now_s();
  while (!stack_.empty()) {
    const std::int32_t top = stack_.back();
    stack_.pop_back();
    if (top == id) break;
  }
}

void Tracer::record(const std::string& name, double start, double end,
                    std::int64_t request) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.start = start;
  s.end = end;
  s.parent = stack_.empty() ? -1 : stack_.back();
  s.request = request;
  spans_.push_back(std::move(s));
}

void Tracer::write_jsonl(std::ostream& out) const {
  for (const Span& s : spans_) {
    out << "{\"name\":\"" << s.name << "\",\"start\":" << s.start
        << ",\"end\":" << s.end << ",\"parent\":" << s.parent
        << ",\"request\":" << s.request << "}\n";
  }
}

std::vector<double> self_times(const std::vector<Span>& spans) {
  std::vector<std::vector<std::pair<double, double>>> kids(spans.size());
  for (const Span& s : spans) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.start, s.end);
    }
  }
  std::vector<double> self(spans.size(), 0.0);
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const double lo = spans[i].start;
    const double hi = spans[i].end;
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double cur_lo = 0.0;
    double cur_hi = -1.0;
    bool open = false;
    for (auto [a, b] : iv) {
      a = std::max(a, lo);
      b = std::min(b, hi);
      if (b <= a) continue;
      if (open && a <= cur_hi) {
        cur_hi = std::max(cur_hi, b);
        continue;
      }
      if (open) covered += cur_hi - cur_lo;
      cur_lo = a;
      cur_hi = b;
      open = true;
    }
    if (open) covered += cur_hi - cur_lo;
    self[i] = (hi - lo) - covered;
  }
  return self;
}

std::map<std::string, double> self_time_by_name(
    const std::vector<Span>& spans) {
  const std::vector<double> self = self_times(spans);
  std::map<std::string, double> out;
  for (std::size_t i = 0; i < spans.size(); ++i) out[spans[i].name] += self[i];
  return out;
}

std::map<std::string, double> total_time_by_name(
    const std::vector<Span>& spans) {
  std::map<std::string, double> out;
  for (const Span& s : spans) out[s.name] += s.end - s.start;
  return out;
}

}  // namespace perfbench
