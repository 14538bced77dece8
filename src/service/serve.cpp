#include "service/serve.hpp"

#include "arch/device_model.hpp"
#include "common/json.hpp"
#include "qasm/qasm.hpp"
#include "sat/federation/portfolio.hpp"

#include <cstdint>
#include <cstdio>
#include <map>

namespace qfto {

namespace {

// ------------------------------------------------------------ JSON write --

std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 2);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

void append_number(std::string& out, double v) {
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.9g", v);
  out += buf;
}

/// The error taxonomy's status word — identical over stdio, TCP and HTTP.
/// Every response carries one of: ok | error | cancelled | timeout | shed
/// ("shed" is minted by the transports' admission control, not by JobStatus).
const char* status_word(JobStatus s) {
  switch (s) {
    case JobStatus::kQueued: return "queued";    // never serialized
    case JobStatus::kRunning: return "running";  // never serialized
    case JobStatus::kDone: return "ok";
    case JobStatus::kCancelled: return "cancelled";
    case JobStatus::kExpired: return "timeout";
    case JobStatus::kFailed: return "error";
  }
  return "error";
}

/// Whether a client should retry the same request. Timeouts and load
/// shedding are transient (more budget / less load can succeed); cancels
/// were asked for and hard errors are deterministic, so retrying burns
/// worker time reproducing the same outcome.
bool status_retryable(const std::string& status) {
  return status == "timeout" || status == "shed";
}

// ----------------------------------------------------- member values --
// A request member's value is kept as its verbatim token, which
// json::Reader::scalar has already validated; these read it back as the
// type a field needs, false when the token is of another type.

bool as_string(std::string_view v, std::string& out) {
  if (v.front() != '"') return false;
  out = json::Reader(v).string();
  return true;
}

bool as_number(std::string_view v, double& out) {
  // Strings and the true/false/null keywords are the non-number tokens.
  const char c = v.front();
  if (c == '"' || c == 't' || c == 'f' || c == 'n') return false;
  out = json::Reader(v).number();
  return true;
}

/// Integer field helper: the protocol's counts must be integral. Values
/// outside the exact-double range are rejected *before* the cast — a
/// hostile {"n": 1e19} must come back as an in-band error, not trip the
/// float-cast-overflow UB the sanitizer leg aborts on.
bool as_int(std::string_view v, std::int64_t& out) {
  constexpr double kExact = 9007199254740992.0;  // 2^53
  double x = 0.0;
  if (!as_number(v, x)) return false;
  if (!(x >= -kExact && x <= kExact)) return false;
  const auto i = static_cast<std::int64_t>(x);
  if (static_cast<double>(i) != x) return false;
  out = i;
  return true;
}

}  // namespace

ServeRequest parse_serve_request(std::string_view line) {
  ServeRequest req;
  // The whole line is read before any field is looked at, so a syntax error
  // anywhere is a parse error and every field rejection can echo the id.
  std::map<std::string, std::string_view> fields;
  try {
    json::Reader reader(line);
    reader.object([&](const std::string& key) {
      if (!fields.emplace(key, reader.scalar()).second) {
        reader.fail("duplicate key");
      }
    });
    if (!reader.at_end()) reader.fail("trailing content after object");
  } catch (const json::Error& e) {
    req.error = std::string("parse error: ") + e.what();
    return req;
  }

  if (const auto it = fields.find("id"); it != fields.end()) {
    std::string id;
    req.id = as_string(it->second, id) ? "\"" + json_escape(id) + "\""
                                       : std::string(it->second);
  }

  // A stats request is its own shape: {"metrics":true} plus an optional id,
  // nothing else — mixing it with job fields is a client bug.
  if (const auto it = fields.find("metrics"); it != fields.end()) {
    if (it->second != "true") {
      req.error = "\"metrics\" must be true";
      return req;
    }
    if (fields.size() > (fields.count("id") != 0 ? 2u : 1u)) {
      req.error = "\"metrics\" requests take no other fields";
      return req;
    }
    req.ok = true;
    req.metrics = true;
    return req;
  }

  std::int64_t n = -1, m = -1;
  bool synced = false;
  MapOptions& options = req.request.options;
  for (const auto& [key, value] : fields) {
    bool* const flag = key == "cache"             ? &req.submit.use_cache
                       : key == "verify"          ? &options.verify
                       : key == "strict_ie"       ? &options.strict_ie
                       : key == "synced"          ? &synced
                       : key == "sat_incremental" ? &options.satmap.incremental
                       : key == "portfolio"       ? &options.satmap.portfolio
                       : key == "sat_core_guided" ? &options.satmap.core_guided
                                                  : nullptr;
    std::int64_t i = 0;
    double x = 0.0;
    std::string s;
    const char* must = nullptr;  // what a rejected value must be instead
    if (key == "id") {
      // handled above
    } else if (flag != nullptr) {
      if (value != "true" && value != "false") {
        must = "a bool";
      } else {
        *flag = value == "true";
      }
    } else if (key == "engine") {
      if (!as_string(value, req.request.engine)) must = "a string";
    } else if (key == "n" || key == "m") {
      if (!as_int(value, key == "n" ? n : m)) must = "an integer";
    } else if (key == "priority") {
      if (!as_int(value, i) || i < INT32_MIN || i > INT32_MAX) {
        must = "a 32-bit integer";
      } else {
        req.submit.priority = static_cast<std::int32_t>(i);
      }
    } else if (key == "deadline" || key == "budget") {
      if (!as_number(value, x) || x <= 0.0) {
        must = "a positive number of seconds";
      } else {
        (key == "deadline" ? req.submit.deadline_seconds
                           : options.satmap.time_budget_seconds) = x;
      }
    } else if (key == "trials") {
      if (!as_int(value, i) || i < 1 || i > INT32_MAX) {
        must = "a positive 32-bit integer";
      } else {
        options.sabre.trials = static_cast<std::int32_t>(i);
      }
    } else if (key == "seed") {
      if (!as_int(value, i) || i < 0) {
        must = "a non-negative integer";
      } else {
        options.sabre.seed = static_cast<std::uint64_t>(i);
      }
    } else if (key == "solver") {
      // Backend existence is validated at route time (the registry may have
      // grown), but the obvious typo class fails fast here.
      if (!as_string(value, options.satmap.solver) ||
          options.satmap.solver.empty()) {
        must = "a non-empty string";
      }
    } else if (key == "lanes") {
      if (!as_int(value, i) || i < 1 || i > 64) {
        must = "an integer in [1, 64]";
      } else {
        options.satmap.lanes = static_cast<std::int32_t>(i);
      }
    } else if (key == "device") {
      // Calibrated device description: a file path, or the device JSON
      // itself inline when the string starts with '{' (after optional
      // leading whitespace). Loaded right here so a malformed description
      // answers in-band with the loader's positioned message instead of a
      // late job failure.
      if (!as_string(value, s) || s.empty()) {
        must = "a non-empty string (file path or inline device JSON)";
      } else {
        const std::size_t first = s.find_first_not_of(" \t\r\n");
        try {
          DeviceModel dm = (first != std::string::npos && s[first] == '{')
                               ? DeviceModel::from_json(s)
                               : DeviceModel::load_file(s);
          options.device = std::make_shared<const DeviceModel>(std::move(dm));
          req.device_loaded = true;
        } catch (const std::invalid_argument& e) {
          req.device_error = true;
          req.error = std::string("bad \"device\": ") + e.what();
          return req;
        }
      }
    } else if (key == "objective") {
      as_string(value, s);  // `s` stays empty for a non-string
      if (s == "depth") {
        options.objective = Objective::kDepth;
      } else if (s == "fidelity") {
        options.objective = Objective::kFidelity;
      } else {
        must = "\"depth\" or \"fidelity\"";
      }
    } else if (key == "qasm") {
      // General-circuit ingestion: the request maps this OpenQASM 2.0
      // program (newlines arrive as \n escapes) instead of QFT(n). Parse
      // errors surface in-band with from_qasm's line-numbered message.
      if (!as_string(value, s) || s.empty()) {
        must = "a non-empty OpenQASM 2.0 string";
      } else {
        try {
          req.request.circuit = std::make_shared<const Circuit>(from_qasm(s));
        } catch (const std::invalid_argument& e) {
          req.error = std::string("bad \"qasm\": ") + e.what();
          return req;
        }
      }
    } else {
      req.error = "unknown field \"" + json_escape(key) + "\"";
      return req;
    }
    if (must != nullptr) {
      req.error = "\"" + key + "\" must be " + must;
      return req;
    }
  }
  if (synced) options.lattice_phase_offset = 0;

  if (req.request.engine.empty()) {
    req.error = "missing \"engine\"";
    return req;
  }
  if (req.request.circuit != nullptr) {
    // The circuit is the size authority; a conflicting explicit size is a
    // client bug we refuse to guess around.
    if (n >= 0 || m >= 0) {
      req.error = "\"qasm\" is mutually exclusive with \"n\"/\"m\"";
      return req;
    }
    n = req.request.circuit->num_qubits();
  }
  if (m > 4096) {  // 4096^2 is already the n ceiling; also guards m*m
    req.error = "\"m\" too large";
    return req;
  }
  if (n < 0 && m > 0) n = m * m;  // square backends take m for convenience
  if (n < 1) {
    req.error = "missing or non-positive \"n\" (or \"m\")";
    return req;
  }
  if (n > 16'777'216) {
    req.error = "\"n\" too large";
    return req;
  }
  req.request.n = static_cast<std::int32_t>(n);
  req.ok = true;
  return req;
}

std::string serve_response_json(const std::string& id, const JobResult& out) {
  std::string s = "{\"id\":" + id;
  if (!out.ok()) {
    const std::string status = status_word(out.status);
    s += ",\"ok\":false,\"status\":\"" + status + "\"";
    s += ",\"retryable\":";
    s += status_retryable(status) ? "true" : "false";
    s += ",\"error\":\"" + json_escape(out.error) + "\"";
    // Failures report queue time too: a fleet shedding deadline-expired work
    // needs to see *where* the budget went (queued vs running).
    s += ",\"queue_seconds\":";
    append_number(s, out.queue_seconds);
    s += "}";
    return s;
  }
  const MapResult& r = *out.result;
  s += ",\"ok\":true,\"status\":\"ok\"";
  s += ",\"engine\":\"" + json_escape(r.engine) + "\"";
  s += ",\"requested_n\":" + std::to_string(r.requested_n);
  s += ",\"n\":" + std::to_string(r.n);
  s += ",\"physical\":" + std::to_string(r.graph.num_qubits());
  if (r.check.ok) {
    s += ",\"depth\":" + std::to_string(r.check.depth);
    s += ",\"h\":" + std::to_string(r.check.counts.h);
    s += ",\"cphase\":" + std::to_string(r.check.counts.cphase);
    s += ",\"swap\":" + std::to_string(r.check.counts.swap);
    s += ",\"cnot\":" + std::to_string(r.check.counts.cnot);
    s += ",\"log10_fidelity\":";
    append_number(s, r.log10_fidelity);
  }
  if (r.timings.sat.solve_calls > 0) {
    // SAT-backed engines surface their search effort; analytical engines
    // never ran a solver, so their response shape is unchanged.
    s += ",\"sat_conflicts\":" + std::to_string(r.timings.sat.conflicts);
    s += ",\"sat_decisions\":" + std::to_string(r.timings.sat.decisions);
    s += ",\"sat_restarts\":" + std::to_string(r.timings.sat.restarts);
    s += ",\"sat_solve_calls\":" + std::to_string(r.timings.sat.solve_calls);
    if (!r.timings.sat_winner.empty()) {
      // Portfolio provenance: which racing lane decided the run.
      s += ",\"portfolio_winner\":\"" + json_escape(r.timings.sat_winner) +
           "\"";
    }
  }
  s += ",\"cache_hit\":";
  s += r.cache_hit ? "true" : "false";
  s += ",\"map_seconds\":";
  append_number(s, r.timings.map_seconds);
  s += ",\"check_seconds\":";
  append_number(s, r.timings.check_seconds);
  s += ",\"queue_seconds\":";
  append_number(s, out.queue_seconds);
  s += "}";
  return s;
}

std::string serve_inband_error(const std::string& id,
                               const std::string& status,
                               const std::string& error) {
  return "{\"id\":" + id + ",\"ok\":false,\"status\":\"" +
         json_escape(status) + "\",\"retryable\":" +
         (status_retryable(status) ? "true" : "false") + ",\"error\":\"" +
         json_escape(error) + "\"}";
}

// ------------------------------------------------------------- metrics --

void ServeMetrics::record_request(const ServeRequest& req) {
  if (req.device_error) {
    device_load_errors.fetch_add(1, std::memory_order_relaxed);
  } else if (req.device_loaded) {
    device_loads.fetch_add(1, std::memory_order_relaxed);
  }
}

void ServeMetrics::record_result(const JobResult& out) {
  queue_latency.record(out.queue_seconds);
  if (out.result != nullptr) {
    const MapTimings& t = out.result->timings;
    // A cache hit did no mapping and carries zeroed timings; recording its
    // 0 s would pin the quantiles to the lowest bucket.
    if (!out.result->cache_hit) map_latency.record(t.map_seconds);
    sat_conflicts.fetch_add(t.sat.conflicts, std::memory_order_relaxed);
    sat_decisions.fetch_add(t.sat.decisions, std::memory_order_relaxed);
    sat_restarts.fetch_add(t.sat.restarts, std::memory_order_relaxed);
    sat_solve_calls.fetch_add(t.sat.solve_calls, std::memory_order_relaxed);
  }
}

std::string metrics_json(const MappingService& service,
                         const ServeMetrics& metrics) {
  const ResultCache::Stats cache = service.cache_stats();
  const auto count = [](const std::atomic<std::uint64_t>& c) {
    return std::to_string(c.load(std::memory_order_relaxed));
  };
  std::string s = "{\"ok\":true,\"metrics\":true";
  s += ",\"queue_depth\":" + std::to_string(service.queue_depth());
  s += ",\"running\":" + std::to_string(service.running_count());
  s += ",\"workers\":" + std::to_string(service.num_threads());
  const MappingService::Stats svc = service.stats();
  s += ",\"service\":{\"watchdog_fired\":" + std::to_string(svc.watchdog_fired);
  s += ",\"jobs_wedged\":" + std::to_string(svc.jobs_wedged);
  s += ",\"workers_replaced\":" + std::to_string(svc.workers_replaced) + "}";
  s += ",\"requests\":" + count(metrics.requests);
  s += ",\"responses\":" + count(metrics.responses);
  s += ",\"shed\":" + count(metrics.shed);
  s += ",\"parse_errors\":" + count(metrics.parse_errors);
  s += ",\"in_flight\":" +
       std::to_string(metrics.in_flight.load(std::memory_order_relaxed));
  s += ",\"cache\":{\"hits\":" + std::to_string(cache.hits);
  s += ",\"misses\":" + std::to_string(cache.misses);
  s += ",\"insertions\":" + std::to_string(cache.insertions);
  s += ",\"evictions\":" + std::to_string(cache.evictions);
  s += ",\"expired\":" + std::to_string(cache.expired);
  s += ",\"load_quarantined\":" + std::to_string(cache.load_quarantined);
  s += ",\"entries\":" + std::to_string(cache.entries);
  s += ",\"capacity\":" + std::to_string(cache.capacity) + "}";
  s += ",\"devices\":{\"loaded\":" + count(metrics.device_loads);
  s += ",\"load_errors\":" + count(metrics.device_load_errors) + "}";
  s += ",\"sat\":{\"conflicts\":" + count(metrics.sat_conflicts);
  s += ",\"decisions\":" + count(metrics.sat_decisions);
  s += ",\"restarts\":" + count(metrics.sat_restarts);
  s += ",\"solve_calls\":" + count(metrics.sat_solve_calls) + "}";
  {
    // Process-wide portfolio racing counters (every PortfolioSolver in the
    // process, not just served jobs): races run, losing lanes cancelled,
    // and the per-backend win table the lane-ordering heuristic feeds on.
    const sat::PortfolioCounters pf = sat::portfolio_counters();
    s += ",\"portfolio\":{\"races\":" + std::to_string(pf.races);
    s += ",\"lane_cancellations\":" + std::to_string(pf.lane_cancellations);
    s += ",\"wins\":{";
    bool first = true;
    for (const auto& [backend, wins] : pf.wins_by_backend) {
      if (!first) s += ',';
      first = false;
      s += "\"" + json_escape(backend) + "\":" + std::to_string(wins);
    }
    s += "}}";
  }
  const auto histogram = [&s](const char* name,
                              const net::LatencyHistogram& h) {
    s += ",\"";
    s += name;
    s += "\":{\"count\":" + std::to_string(h.count());
    s += ",\"p50\":";
    append_number(s, h.quantile(0.5));
    s += ",\"p99\":";
    append_number(s, h.quantile(0.99));
    s += "}";
  };
  histogram("map_seconds", metrics.map_latency);
  histogram("queue_seconds", metrics.queue_latency);
  s += "}";
  return s;
}

}  // namespace qfto
