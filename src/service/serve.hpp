// The serve protocol of the MappingService: newline-delimited JSON requests
// in, newline-delimited JSON responses out. Two front-ends speak it through
// one per-stream session (service/net_server.cpp): run_serve_loop on a
// stdio pair (`qftmap --serve`) and the socket transport
// (service/net_server.hpp) for concurrent clients. One request per line:
//
//   {"id": 1, "engine": "lattice", "n": 100}
//   {"id": "warm", "engine": "lattice", "n": 100}            -> cache_hit
//   {"id": 2, "engine": "satmap", "n": 4, "deadline": 5.0}
//   {"id": 3, "engine": "sycamore", "m": 6, "strict_ie": true,
//    "priority": 10}
//   {"id": 4, "engine": "sabre",
//    "qasm": "OPENQASM 2.0;\nqreg q[3];\nh q[0];\ncx q[0],q[1];\n"}
//   {"id": 5, "metrics": true}                               -> stats snapshot
//
// Fields: `engine` (required), `n` or `m` (required unless `qasm` is given;
// `m` means n = m*m), `qasm` (an OpenQASM 2.0 program — the request maps
// *that* circuit through the general entry point instead of QFT(n); parse
// errors come back in-band with from_qasm's line-numbered message; mutually
// exclusive with `n`/`m`), `id` (number or string, echoed back; null when
// absent), `priority` (higher first), `deadline` (seconds), `cache` (bool,
// default true; general circuits are cached under a content fingerprint),
// `verify` (bool, default true), `strict_ie`, `synced`, `trials`, `seed`,
// `budget` (SATMAP seconds), `solver` (SAT backend registry key, default
// "cdcl"; IPASIR plugins loaded at startup answer to their registry name
// here too), `sat_incremental` (bool, default true: one incremental SAT
// instance per SATMAP run vs re-encoding per probe), `portfolio` (bool,
// default false: race each SAT probe across diversified lanes, first
// definitive verdict wins), `lanes` (integer in [1, 64], default 2; the
// effective count is clamped to the machine's cores at run time),
// `sat_core_guided` (bool, default true: bisecting SWAP descent with
// learnt lower-bound clauses vs decrement-by-one), `device` (a calibrated
// device description — the path of a device JSON file, or the device JSON
// itself inline when the string starts with '{'; loaded at parse time, so a
// malformed file answers in-band with the loader's positioned message; the
// routed engines map onto its graph, verification charges its latency
// table, and the cache key carries its content fingerprint), `objective`
// ("depth" | "fidelity": what SABRE optimizes — fidelity scores candidate
// SWAPs by calibrated expected log-success). Unknown fields are an
// error, so typos fail loudly instead of silently mapping with defaults.
// Lines are read by the one JSON reader (common/json.hpp) that device files
// also go through: string values accept the full JSON escape set including
// \uXXXX (surrogate pairs encode as UTF-8), and every member value must be a
// string, number, bool or null — anything else is a parse error.
//
// `{"metrics": true}` (no other fields; optional `id`) answers immediately
// with a one-line stats document instead of submitting a job — the same
// payload `GET /metrics` serves over the socket front-end:
//
//   {"ok":true,"metrics":true,"queue_depth":...,"running":...,"workers":...,
//    "service":{"watchdog_fired":...,"jobs_wedged":...,"workers_replaced":...},
//    "requests":...,"responses":...,"shed":...,"parse_errors":...,
//    "in_flight":...,
//    "cache":{"hits":...,"misses":...,"insertions":...,"evictions":...,
//             "expired":...,"load_quarantined":...,"entries":...,
//             "capacity":...},
//    "devices":{"loaded":...,"load_errors":...},
//    "sat":{"conflicts":...,"decisions":...,"restarts":...,"solve_calls":...},
//    "portfolio":{"races":...,"lane_cancellations":...,
//                 "wins":{"cdcl":...,...}},
//    "map_seconds":{"count":...,"p50":...,"p99":...},
//    "queue_seconds":{"count":...,"p50":...,"p99":...}}
//
// `cache` mirrors MappingService::cache_stats(); `sat` totals the solver
// effort of every completed job; `portfolio` snapshots the process-wide
// racing counters (sat::portfolio_counters()); the latency quantiles come
// from streaming histograms (~19% relative resolution, see
// net::LatencyHistogram).
//
// SAT-backed responses additionally carry sat_conflicts/sat_decisions/
// sat_restarts/sat_solve_calls, plus "portfolio_winner" (the racing lane
// that decided the run, e.g. "cdcl#1") when the request ran a portfolio.
//
// Responses stream in request order, each flushed as soon as its job
// completes (jobs themselves run concurrently and may be reordered by
// priority):
//
//   {"id":1,"ok":true,"status":"ok","engine":"lattice","requested_n":100,
//    "n":100,"physical":100,"depth":419,"h":100,"cphase":4950,"swap":4851,
//    "cnot":0,"log10_fidelity":-21.7,"cache_hit":false,"map_seconds":...,
//    "check_seconds":...,"queue_seconds":...}
//   {"id":2,"ok":false,"status":"timeout","retryable":true,
//    "error":"deadline exceeded ...","queue_seconds":...}
//
// Every response carries the error-taxonomy status word — identical over
// stdio, TCP and HTTP:
//
//   status     | meaning                                  | retryable
//   -----------+------------------------------------------+----------
//   ok         | mapped result follows                    | —
//   error      | engine threw / bad request               | false
//   cancelled  | caller (or shutdown) cancelled the job   | false
//   timeout    | per-job deadline won (incl. watchdog)    | true
//   shed       | admission control rejected under load    | true
//
// Failure responses carry `retryable` (should the client re-send this exact
// request after a backoff — see net::request_with_retry) and their
// `queue_seconds`.
//
// The two front-ends differ only in their limits. stdio never sheds (no
// in-flight or per-stream bound, no serve.admit.shed fault point): its
// reader blocks once 256 responses are queued. It has no line-length bound
// and no HTTP sniffing, skips blank lines (" \t\r"), serves a final line
// that lacks '\n', and flushes each response as it is written. A socket
// connection sheds, frames lines with a length bound and drops a partial
// last frame (see net_server.hpp).
#pragma once

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "service/mapping_service.hpp"
#include "service/transport.hpp"

namespace qfto {

/// One parsed request line. `ok` false means a parse/validation problem
/// described in `error`; `id` is the raw JSON token to echo back ("null"
/// when the line carried none). `metrics` true (with `ok`) marks a stats
/// request: answer with metrics_json instead of submitting a job.
struct ServeRequest {
  bool ok = false;
  bool metrics = false;
  /// The line carried a "device" field that loaded (device_loaded) or failed
  /// the loader's validation (device_error, with the positioned message in
  /// `error`). Both front-ends fold these into ServeMetrics.
  bool device_loaded = false;
  bool device_error = false;
  std::string error;
  std::string id = "null";
  BatchRequest request;
  MappingService::Submit submit;
};

/// Parses one newline-delimited request. Length-bounded end to end: the
/// input need not be NUL-terminated (socket buffers and string_views are
/// parsed in place). Exposed for tests; run_serve_loop and the NetServer
/// are the consumers.
ServeRequest parse_serve_request(std::string_view line);

/// Formats the response line for a finished (or rejected) request.
std::string serve_response_json(const std::string& id, const JobResult& out);

/// Pre-formatted in-band failure with a transport-level status word the
/// JobStatus enum does not carry — the NetServer's "shed" responses:
///   {"id":<id>,"ok":false,"status":"shed","error":"..."}
std::string serve_inband_error(const std::string& id,
                               const std::string& status,
                               const std::string& error);

/// Serving-path counters shared by the stdio loop and the socket transport.
/// All counters are relaxed atomics and the histograms are wait-free, so
/// every connection thread records into one shared instance without a lock;
/// metrics_json reads a monitoring-grade snapshot, not a barrier.
struct ServeMetrics {
  std::atomic<std::uint64_t> requests{0};      // lines parsed (incl. rejects)
  std::atomic<std::uint64_t> responses{0};     // lines/bodies written
  std::atomic<std::uint64_t> shed{0};          // admission-control rejections
  std::atomic<std::uint64_t> parse_errors{0};  // malformed request lines
  std::atomic<std::int64_t> in_flight{0};      // submitted, not yet answered

  // Device-description ingestion ("device" request field).
  std::atomic<std::uint64_t> device_loads{0};        // loaded successfully
  std::atomic<std::uint64_t> device_load_errors{0};  // rejected by the loader

  /// Folds one parsed request's device-loading outcome into the counters.
  void record_request(const ServeRequest& req);

  // Solver-effort totals over every completed job.
  std::atomic<std::uint64_t> sat_conflicts{0};
  std::atomic<std::uint64_t> sat_decisions{0};
  std::atomic<std::uint64_t> sat_restarts{0};
  std::atomic<std::uint64_t> sat_solve_calls{0};

  net::LatencyHistogram map_latency;    // map_seconds of cache misses
  net::LatencyHistogram queue_latency;  // JobResult::queue_seconds

  /// Folds one finished job into the histograms and solver totals.
  void record_result(const JobResult& out);
};

/// One-line stats document (see the header comment for the shape). The
/// service contributes queue depth, worker count and cache stats; `metrics`
/// contributes the serving counters and latency quantiles.
std::string metrics_json(const MappingService& service,
                         const ServeMetrics& metrics);

/// Reads requests from `in` until EOF, submits each to `service`, and
/// streams responses to `out` in request order (each flushed as its job
/// completes), under the stdio limits above. Per-request failures are
/// reported in-band as {"ok":false,...} responses. Returns 0 at EOF once
/// every response is written. When `out` fails (dead client / broken pipe),
/// the loop stops reading, cancels every still-pending job and returns 1 —
/// a dead consumer must not keep the service grinding through its backlog.
int run_serve_loop(std::istream& in, std::ostream& out,
                   MappingService& service);

}  // namespace qfto
