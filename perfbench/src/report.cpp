#include "report.hpp"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <stdexcept>

namespace perfbench {

const std::vector<std::pair<std::string, std::string>>& Report::catalog() {
  static const std::vector<std::pair<std::string, std::string>> v = [] {
    std::vector<std::pair<std::string, std::string>> c = {
        {"pipeline.run_s", "s"},
        {"pipeline.unaccounted_s", "s"},
        {"pipeline.unaccounted_frac", "ratio"},
        {"trace.overhead_s", "s"},
        {"setup.first_s", "s"},
        {"arch.build_graph_s", "s"},
        {"arch.device_parse_s", "s"},
        {"arch.oracle_bfs_rows", "count"},
        {"arch.oracle_cached_rows", "count"},
        {"qasm.parse_s", "s"},
        {"qasm.parse_mb_per_s", "MB/s"},
    };
    for (const char* e :
         {"lattice", "sycamore", "heavy_hex", "heavy_hex_device", "lnn"}) {
      c.emplace_back(std::string("mapper.map_s.") + e, "s");
      c.emplace_back(std::string("mapper.gates_per_s.") + e, "1/s");
    }
    const std::pair<const char*, const char*> rest[] = {
        {"mapper.rss_delta_mb", "MB"},
        {"sabre.route_s.sparse.n1024", "s"},
        {"sabre.route_s.sparse.n4096", "s"},
        {"sabre.route_s.sparse.n8192", "s"},
        {"sabre.route_s.qft", "s"},
        {"sabre.route_s.device", "s"},
        {"sabre.swaps", "count"},
        {"satmap.solve_s", "s"},
        {"sat.conflicts", "count"},
        {"sat.decisions", "count"},
        {"sat.propagations", "count"},
        {"sat.solve_calls", "count"},
        {"sat.conflicts_per_s", "1/s"},
        {"verify.check_s", "s"},
        {"verify.fidelity_s", "s"},
        {"service.queue_s_p50", "s"},
        {"service.queue_s_p99", "s"},
        {"service.worker_busy_frac", "ratio"},
        {"serve.work_share", "ratio"},
        {"cache.hit_frac", "ratio"},
        {"cache.hit_ms_p50", "ms"},
        {"cache.miss_ms_p50", "ms"},
        {"cache.evictions", "count"},
        {"serve.parse_us_p50", "us"},
        {"serve.format_us_p50", "us"},
        {"net.overhead_ms_p50", "ms"},
        {"net.overhead_ms_p99", "ms"},
        {"net.shed", "count"},
        {"net.peak_rss_mb", "MB"},
        {"gen.lag_ms_p99", "ms"},
        {"server.map_ms_p50", "ms"},
        {"server.map_ms_p99", "ms"},
        {"req_p50_ms.light", "ms"},
        {"req_p99_ms.light", "ms"},
        {"req_samples.light", "count"},
        {"req_p50_ms.heavy", "ms"},
        {"req_p99_ms.heavy", "ms"},
        {"req_samples.heavy", "count"},
        {"max_rate_rps", "1/s"},
        {"stdio_wall_s", "s"},
    };
    for (const auto& [name, unit] : rest) c.emplace_back(name, unit);
    return c;
  }();
  return v;
}

Report::Report() {
  for (const auto& [name, unit] : catalog()) layer_[name] = 0.0;
}

void Report::e2e(const std::string& name, double value,
                 const std::string& unit) {
  e2e_.push_back({name, {value, unit}});
}

void Report::layer(const std::string& name, double value) {
  const auto it = layer_.find(name);
  if (it == layer_.end()) {
    throw std::logic_error("per-layer metric outside the catalog: " + name);
  }
  it->second = value;
}

PhaseCount& Report::phase(const std::string& name) {
  for (auto& p : phases_) {
    if (p.name == name) return p;
  }
  phases_.push_back(PhaseCount{name});
  return phases_.back();
}

void Report::count(const std::string& phase_name, const Verdict& v) {
  PhaseCount& p = phase(phase_name);
  ++p.attempted;
  if (v.ok()) {
    ++p.succeeded;
    return;
  }
  ++p.failed;
  if (v.kind == Verdict::kWrong) ++p.wrong;
  if (errors_.size() < 8) errors_.push_back(phase_name + ": " + v.why);
}

void Report::count_missing(const std::string& phase_name, std::int64_t n) {
  if (n <= 0) return;
  PhaseCount& p = phase(phase_name);
  p.attempted += n;
  p.failed += n;
  if (errors_.size() < 8) {
    errors_.push_back(phase_name + ": " + std::to_string(n) +
                      " requests unanswered");
  }
}

void Report::note(const std::string& key, const std::string& value) {
  notes_.emplace_back(key, value);
}

std::int64_t Report::attempted() const {
  std::int64_t n = 0;
  for (const auto& p : phases_) n += p.attempted;
  return n;
}

std::int64_t Report::failed() const {
  std::int64_t n = 0;
  for (const auto& p : phases_) n += p.failed;
  return n;
}

std::int64_t Report::wrong() const {
  std::int64_t n = 0;
  for (const auto& p : phases_) n += p.wrong;
  return n;
}

namespace {

std::string num(double v) {
  if (!std::isfinite(v)) v = 0.0;
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", v);
  return buf;
}

std::string quoted(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    if (c == '\n') {
      out += "\\n";
      continue;
    }
    out += c;
  }
  return out + "\"";
}

double status_mb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const std::string k = key;
  while (std::getline(in, line)) {
    if (line.compare(0, k.size(), k) == 0) {
      return std::atof(line.c_str() + k.size()) / 1024.0;  // kB -> MiB
    }
  }
  return 0.0;
}

}  // namespace

std::string Report::detail_json(const std::string& workload) const {
  std::string s = "{\"workload\":" + quoted(workload) + ",\"phases\":[";
  for (std::size_t i = 0; i < phases_.size(); ++i) {
    const PhaseCount& p = phases_[i];
    if (i > 0) s += ",";
    s += "{\"phase\":" + quoted(p.name) +
         ",\"attempted\":" + std::to_string(p.attempted) +
         ",\"succeeded\":" + std::to_string(p.succeeded) +
         ",\"failed\":" + std::to_string(p.failed) +
         ",\"wrong\":" + std::to_string(p.wrong) + "}";
  }
  s += "],\"errors\":[";
  for (std::size_t i = 0; i < errors_.size(); ++i) {
    if (i > 0) s += ",";
    s += quoted(errors_[i]);
  }
  s += "],\"notes\":{";
  for (std::size_t i = 0; i < notes_.size(); ++i) {
    if (i > 0) s += ",";
    s += quoted(notes_[i].first) + ":" + quoted(notes_[i].second);
  }
  return s + "}}";
}

std::string Report::result_json(bool trace) const {
  std::string m;
  const auto add = [&m](const std::string& name, double v,
                        const std::string& unit) {
    if (!m.empty()) m += ",";
    m += quoted(name) + ":{\"value\":" + num(v) + ",\"unit\":" + quoted(unit) +
         "}";
  };
  if (trace) {
    for (const auto& [name, unit] : catalog()) {
      add(name, layer_.at(name), unit);
    }
  } else {
    for (const auto& [name, vu] : e2e_) add(name, vu.first, vu.second);
  }
  // Correct means no answer failed a check; refusals (error statuses, no
  // answer) count as failed operations without making outputs incorrect.
  const std::int64_t att = attempted();
  return std::string("{\"correct\":") +
         (att > 0 && wrong() == 0 ? "true" : "false") +
         ",\"attempted\":" + std::to_string(att) +
         ",\"failed\":" + std::to_string(failed()) + ",\"metrics\":{" + m +
         "}}";
}

double peak_rss_mb() { return status_mb("VmHWM:"); }

bool reset_peak_rss() {
  std::ofstream f("/proc/self/clear_refs");
  f << "5";
  f.flush();
  return static_cast<bool>(f);
}
double rss_mb() { return status_mb("VmRSS:"); }

}  // namespace perfbench
