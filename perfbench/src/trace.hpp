// In-memory span recorder for the traced run. Spans are recorded by the
// benchmark around its own calls into each qfto layer (nothing inside the
// library is instrumented); they stay in memory and are written out once the
// run ends. A span's self time is its duration minus the part of its
// interval its child spans cover.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the process-wide epoch (first call).
double now_s();

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  std::int32_t parent = -1;    // index into the span list; -1 for a root
  std::int64_t request = -1;   // operation id shared by one request's spans
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }

  /// Opens a span under the innermost open one; returns its index (-1 when
  /// tracing is off).
  std::int32_t open(const std::string& name, std::int64_t request = -1);
  void close(std::int32_t id);

  /// Records an already-measured interval as a child of the innermost open
  /// span (used for intervals timed elsewhere, e.g. request round trips).
  void record(const std::string& name, double start, double end,
              std::int64_t request = -1);

  /// Start of span `id`; now_s() for -1 (tracing off).
  double start_of(std::int32_t id) const {
    return id < 0 ? now_s() : spans_[static_cast<std::size_t>(id)].start;
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// One JSON object per line: name, start, end, parent, request.
  void write_jsonl(std::ostream& out) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
  std::vector<std::int32_t> stack_;
};

/// RAII span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer& tracer, const std::string& name, std::int64_t request = -1)
      : tracer_(tracer), id_(tracer.open(name, request)) {}
  ~Scope() { tracer_.close(id_); }
  std::int32_t id() const { return id_; }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  Tracer& tracer_;
  std::int32_t id_;
};

/// Self time of every span: duration minus the union of its children's
/// intervals clipped to its own.
std::vector<double> self_times(const std::vector<Span>& spans);

/// Self times summed per span name.
std::map<std::string, double> self_time_by_name(const std::vector<Span>& spans);

/// Durations summed per span name.
std::map<std::string, double> total_time_by_name(
    const std::vector<Span>& spans);

}  // namespace perfbench
