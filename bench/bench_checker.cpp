// Checker/scheduler throughput on mapped QFT circuits — the verify hot path
// the ROADMAP flags (QFT-1024 lattice verification dominates map time).
//
// Families, each on QFT-{64,256,1024,2048} x {lnn, heavy_hex, sycamore,
// lattice}:
//   verify_seed        — pre-PR checker, faithfully replicated: linear
//                        neighbor scan for adjacency, lower_bound over a
//                        sorted edge list for link types, std::function
//                        latency, and separate replay/schedule/count passes.
//   verify_replay      — the in-library legacy algorithm
//                        (check_qft_mapping_replay) on the O(1) graph.
//   verify_incremental — the streaming IncrementalQftChecker fused pass.
//   schedule_model     — schedule_asap devirtualized through LatencyModel.
//
// Throughput is reported as items/sec where an item is one gate.
#include <benchmark/benchmark.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "arch/latency_model.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/scheduler.hpp"
#include "circuit/stats.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "verify/mapping_tracker.hpp"
#include "verify/qft_checker.hpp"

namespace {

using namespace qfto;

// ------------------------------------------------- pre-PR graph queries --

std::int64_t pack_edge(PhysicalQubit a, PhysicalQubit b) {
  if (a > b) std::swap(a, b);
  return (static_cast<std::int64_t>(a) << 32) | static_cast<std::uint32_t>(b);
}

/// The seed CouplingGraph's query structures: per-node neighbor vectors
/// scanned with std::find, and a sorted packed-edge list binary-searched for
/// link types. Rebuilt here so the pre-PR cost stays measurable after the
/// graph itself moved to O(1) lookups.
struct SeedGraphQueries {
  std::int32_t n = 0;
  std::string name;
  std::vector<std::vector<PhysicalQubit>> adj;
  std::vector<std::pair<std::int64_t, LinkType>> edge_types;  // sorted

  explicit SeedGraphQueries(const CouplingGraph& g)
      : n(g.num_qubits()), name(g.name()), adj(g.num_qubits()) {
    for (PhysicalQubit a = 0; a < n; ++a) {
      adj[a] = g.neighbors(a);
      for (PhysicalQubit b : adj[a]) {
        if (a < b) edge_types.push_back({pack_edge(a, b), *g.link_type(a, b)});
      }
    }
    std::sort(edge_types.begin(), edge_types.end());
  }

  bool adjacent(PhysicalQubit a, PhysicalQubit b) const {
    if (a < 0 || b < 0 || a >= n || b >= n) return false;
    const auto& na = adj[a];
    return std::find(na.begin(), na.end(), b) != na.end();
  }

  std::optional<LinkType> link_type(PhysicalQubit a, PhysicalQubit b) const {
    const auto key = pack_edge(a, b);
    auto it = std::lower_bound(
        edge_types.begin(), edge_types.end(), key,
        [](const auto& e, std::int64_t k) { return e.first < k; });
    if (it == edge_types.end() || it->first != key) return std::nullopt;
    return it->second;
  }
};

/// The seed's qft_angle: an eagerly built require() message plus a libm pow
/// per call. Bit-identical values to the current ldexp form — replicated so
/// the pre-PR per-gate cost stays in the baseline measurement.
double seed_qft_angle(LogicalQubit i, LogicalQubit j) {
  require(i < j, std::string("qft_angle: expects i < j"));
  return M_PI / std::pow(2.0, static_cast<double>(j - i));
}

// The seed compiled is_two_qubit and MappingTracker::apply_swap in other
// translation units, so every call was an out-of-line jump; noinline keeps
// that cost in the baseline now that the library versions inline.
__attribute__((noinline)) bool seed_two_qubit(GateKind kind) {
  switch (kind) {
    case GateKind::kCPhase:
    case GateKind::kSwap:
    case GateKind::kCnot:
      return true;
    default:
      return false;
  }
}

struct SeedTracker {
  std::vector<PhysicalQubit> l2p;
  std::vector<LogicalQubit> p2l;

  SeedTracker(const std::vector<PhysicalQubit>& initial,
              std::int32_t num_physical)
      : l2p(initial), p2l(num_physical, kInvalidQubit) {
    for (std::size_t l = 0; l < l2p.size(); ++l) p2l[l2p[l]] = l;
  }

  LogicalQubit logical_at(PhysicalQubit p) const { return p2l[p]; }
  PhysicalQubit physical_of(LogicalQubit l) const { return l2p[l]; }

  __attribute__((noinline)) void apply_swap(PhysicalQubit a, PhysicalQubit b) {
    require(a >= 0 && b >= 0 && a < static_cast<std::int32_t>(p2l.size()) &&
                b < static_cast<std::int32_t>(p2l.size()) && a != b,
            std::string("MappingTracker::apply_swap: bad nodes"));
    const LogicalQubit la = p2l[a], lb = p2l[b];
    p2l[a] = lb;
    p2l[b] = la;
    if (la != kInvalidQubit) l2p[la] = b;
    if (lb != kInvalidQubit) l2p[lb] = a;
  }
};

/// The seed's per-gate latency callback.
using SeedLatency = std::function<Cycle(const Gate&)>;

/// The seed scheduler: same ASAP arithmetic, but per-gate latency through a
/// std::function and per-gate out-of-line two_qubit calls.
Cycle seed_circuit_depth(const Circuit& c, const SeedLatency& latency) {
  std::vector<Cycle> start(c.size(), 0);  // the Schedule the seed built
  std::vector<Cycle> ready(c.num_qubits(), 0);
  Cycle depth = 0;
  for (std::size_t i = 0; i < c.size(); ++i) {
    const Gate& g = c[i];
    Cycle t = ready[g.q0];
    if (seed_two_qubit(g.kind)) t = std::max(t, ready[g.q1]);
    const Cycle dur = latency(g);
    start[i] = t;
    ready[g.q0] = t + dur;
    if (seed_two_qubit(g.kind)) ready[g.q1] = t + dur;
    depth = std::max(depth, t + dur);
  }
  benchmark::DoNotOptimize(start.data());
  return depth;
}

/// Pre-PR check_qft_mapping, verbatim except that graph queries go through
/// SeedGraphQueries. Fails abort the benchmark, so error strings are terse.
QftCheckResult seed_check(const MappedCircuit& mc, const SeedGraphQueries& g,
                          const SeedLatency& latency) {
  QftCheckResult bad;
  const std::int32_t n = mc.num_logical();
  if (mc.circuit.num_qubits() != g.n) return bad;
  if (!valid_mapping(mc.initial, g.n)) return bad;
  if (!valid_mapping(mc.final_mapping, g.n)) return bad;

  SeedTracker tracker(mc.initial, g.n);
  std::vector<std::uint8_t> h_seen(n, 0);
  std::vector<std::uint8_t> pair_seen(static_cast<std::size_t>(n) * n, 0);
  std::int64_t pairs = 0, hs = 0;
  auto pidx = [n](LogicalQubit lo, LogicalQubit hi) {
    return static_cast<std::size_t>(lo) * n + hi;
  };

  for (std::size_t i = 0; i < mc.circuit.size(); ++i) {
    const Gate& gate = mc.circuit[i];
    if (seed_two_qubit(gate.kind) && !g.adjacent(gate.q0, gate.q1)) return bad;
    switch (gate.kind) {
      case GateKind::kSwap:
        tracker.apply_swap(gate.q0, gate.q1);
        break;
      case GateKind::kH: {
        const LogicalQubit l = tracker.logical_at(gate.q0);
        if (l == kInvalidQubit || h_seen[l]) return bad;
        h_seen[l] = 1;
        ++hs;
        break;
      }
      case GateKind::kCPhase: {
        const LogicalQubit a = tracker.logical_at(gate.q0);
        const LogicalQubit b = tracker.logical_at(gate.q1);
        if (a == kInvalidQubit || b == kInvalidQubit) return bad;
        const LogicalQubit lo = std::min(a, b), hi = std::max(a, b);
        if (pair_seen[pidx(lo, hi)]) return bad;
        if (std::abs(gate.angle - seed_qft_angle(lo, hi)) > 1e-12) return bad;
        if (!h_seen[lo] || h_seen[hi]) return bad;
        pair_seen[pidx(lo, hi)] = 1;
        ++pairs;
        break;
      }
      default:
        return bad;
    }
  }

  if (hs != n || pairs != qft_pair_count(n)) return bad;
  for (LogicalQubit l = 0; l < n; ++l) {
    if (tracker.physical_of(l) != mc.final_mapping[l]) return bad;
  }

  QftCheckResult r;
  r.ok = true;
  r.depth = seed_circuit_depth(mc.circuit, latency);
  r.counts = count_gates(mc.circuit);
  return r;
}

// --------------------------------------------------------- cached cases --

struct Case {
  MapResult result;
  LatencyModel model;  // bound to result.graph
  std::unique_ptr<SeedGraphQueries> seed;
  SeedLatency seed_fn;  // pre-PR latency callback over the seed queries
  std::int64_t gates = 0;
};

Case& get_case(const std::string& engine, int n) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<Case>> cache;
  std::lock_guard<std::mutex> lock(mu);
  const std::string key = engine + "/" + std::to_string(n);
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;

  auto c = std::make_unique<Case>();
  MapOptions opts;
  opts.verify = false;  // mapping setup only; verification is the benchmark
  c->result = MapperPipeline::global().run(engine, n, opts);
  c->model = MapperPipeline::global().at(engine).latency_model(c->result.graph);
  c->seed = std::make_unique<SeedGraphQueries>(c->result.graph);
  if (engine == "lattice") {
    const SeedGraphQueries* sq = c->seed.get();
    c->seed_fn = [sq](const Gate& gate) -> Cycle {
      if (!seed_two_qubit(gate.kind)) return 1;
      const auto type = sq->link_type(gate.q0, gate.q1);
      const bool fast = type.has_value() && *type == LinkType::kFast;
      switch (gate.kind) {
        case GateKind::kSwap:
          return fast ? kLsFastSwapDepth : kLsSlowSwapDepth;
        case GateKind::kCnot:
          return kLsCnotDepth;
        case GateKind::kCPhase:
          return kLsCphaseDepth;
        default:
          return 1;
      }
    };
  } else {
    c->seed_fn = [](const Gate&) -> Cycle { return 1; };
  }
  c->gates = static_cast<std::int64_t>(c->result.mapped.circuit.size());

  // Sanity: a benchmark must never time an invalid mapping.
  const auto chk =
      check_qft_mapping(c->result.mapped, c->result.graph, c->model);
  if (!chk.ok) {
    std::fprintf(stderr, "BENCH ABORT — invalid %s mapping: %s\n",
                 engine.c_str(), chk.error.c_str());
    std::abort();
  }
  return *cache.emplace(key, std::move(c)).first->second;
}

// ------------------------------------------------------------ benchmarks --

void BM_VerifySeed(benchmark::State& state, const std::string& engine, int n) {
  Case& c = get_case(engine, n);
  for (auto _ : state) {
    const auto r = seed_check(c.result.mapped, *c.seed, c.seed_fn);
    if (!r.ok) state.SkipWithError("seed checker rejected a valid mapping");
    benchmark::DoNotOptimize(r.depth);
  }
  state.SetItemsProcessed(state.iterations() * c.gates);
}

void BM_VerifyReplay(benchmark::State& state, const std::string& engine,
                     int n) {
  Case& c = get_case(engine, n);
  for (auto _ : state) {
    const auto r = check_qft_mapping_replay(c.result.mapped, c.result.graph,
                                            c.model);
    if (!r.ok) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r.depth);
  }
  state.SetItemsProcessed(state.iterations() * c.gates);
}

void BM_VerifyIncremental(benchmark::State& state, const std::string& engine,
                          int n) {
  Case& c = get_case(engine, n);
  for (auto _ : state) {
    const auto r =
        check_qft_mapping(c.result.mapped, c.result.graph, c.model);
    if (!r.ok) state.SkipWithError(r.error.c_str());
    benchmark::DoNotOptimize(r.depth);
  }
  state.SetItemsProcessed(state.iterations() * c.gates);
}

void BM_ScheduleModel(benchmark::State& state, const std::string& engine,
                      int n) {
  Case& c = get_case(engine, n);
  for (auto _ : state) {
    benchmark::DoNotOptimize(
        schedule_asap(c.result.mapped.circuit, c.model).depth);
  }
  state.SetItemsProcessed(state.iterations() * c.gates);
}

// Device-scale end-to-end: map + fused verify through the pipeline (the path
// the scale smoke asserts interactive). Unlike the families above, there is
// no cached circuit — each iteration pays emission and the fused audit,
// exactly as a fresh `map_qft` call does; like it, the run is a summary and
// stores no gates. items = gates emitted.
void BM_MapFused(benchmark::State& state, const std::string& engine, int n) {
  std::int64_t gates = 0;
  for (auto _ : state) {
    const MapResult r = MapperPipeline::global().run(engine, n, MapOptions{});
    if (!r.check.ok) state.SkipWithError(r.check.error.c_str());
    gates = r.check.counts.total();
    benchmark::DoNotOptimize(r.check.depth);
  }
  state.SetItemsProcessed(state.iterations() * gates);
}

const int register_all = [] {
  using Fn = void (*)(benchmark::State&, const std::string&, int);
  const std::pair<const char*, Fn> families[] = {
      {"verify_seed", BM_VerifySeed},
      {"verify_replay", BM_VerifyReplay},
      {"verify_incremental", BM_VerifyIncremental},
      {"schedule_model", BM_ScheduleModel},
  };
  auto add = [](const std::string& name, Fn fn, const std::string& engine,
                int n) {
    benchmark::RegisterBenchmark(
        name.c_str(),
        [fn, engine, n](benchmark::State& st) { fn(st, engine, n); })
        ->Unit(benchmark::kMillisecond);
  };
  for (const auto& [family, fn] : families) {
    for (const char* engine : {"lnn", "heavy_hex", "sycamore", "lattice"}) {
      for (const int n : {64, 256, 1024, 2048}) {
        add(std::string(family) + "/" + engine + "/n" + std::to_string(n), fn,
            engine, n);
      }
    }
  }
  // Device-scale additions, lattice only: the full-matrix families above
  // would spend minutes per size there, so past 2048 we track just the
  // streaming checker, the scheduler and the end-to-end fused path.
  for (const int n : {4096, 8192}) {
    add("verify_incremental/lattice/n" + std::to_string(n),
        BM_VerifyIncremental, "lattice", n);
    add("schedule_model/lattice/n" + std::to_string(n), BM_ScheduleModel,
        "lattice", n);
  }
  for (const int n : {1024, 4096, 8192}) {
    add("map_fused/lattice/n" + std::to_string(n), BM_MapFused, "lattice", n);
  }
  return 0;
}();

}  // namespace
