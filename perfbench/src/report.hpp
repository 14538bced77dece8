// What one benchmark run reports: end-to-end metrics, the per-layer catalog
// (every name is printed on every workload; a layer the workload bypasses
// reads 0), operation counts per phase, and provenance notes.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "checks.hpp"

namespace perfbench {

struct PhaseCount {
  std::string name;
  std::int64_t attempted = 0;
  std::int64_t succeeded = 0;
  std::int64_t failed = 0;   // refused or wrong
  std::int64_t wrong = 0;    // answered, but the answer failed a check
};

class Report {
 public:
  Report();

  /// End-to-end metric (printed with --trace 0).
  void e2e(const std::string& name, double value, const std::string& unit);
  /// Per-layer metric (printed with --trace 1). Throws on a name outside the
  /// catalog, so the printed set and BENCHMARK.json cannot drift apart.
  void layer(const std::string& name, double value);

  /// Counts one operation of `phase` (the first few failure reasons are
  /// kept for the diagnostics line).
  void count(const std::string& phase, const Verdict& v);
  /// `n` operations of `phase` that got no answer at all (refused).
  void count_missing(const std::string& phase, std::int64_t n);

  void note(const std::string& key, const std::string& value);

  std::int64_t attempted() const;
  std::int64_t failed() const;
  std::int64_t wrong() const;

  /// Diagnostics: phases, first failures, notes (one JSON object).
  std::string detail_json(const std::string& workload) const;
  /// The result line, printed last: correct, attempted, failed, metrics.
  std::string result_json(bool trace) const;

  /// Per-layer catalog in print order: (name, unit).
  static const std::vector<std::pair<std::string, std::string>>& catalog();

 private:
  PhaseCount& phase(const std::string& name);

  std::vector<std::pair<std::string, std::pair<double, std::string>>> e2e_;
  std::map<std::string, double> layer_;
  std::vector<PhaseCount> phases_;
  std::vector<std::string> errors_;
  std::vector<std::pair<std::string, std::string>> notes_;
};

/// Peak resident set (VmHWM) of this process, in MiB.
double peak_rss_mb();
/// Sets the peak resident set back to the current one (Linux
/// /proc/self/clear_refs); false when the kernel refuses.
bool reset_peak_rss();
/// Current resident set (VmRSS), in MiB.
double rss_mb();

}  // namespace perfbench
