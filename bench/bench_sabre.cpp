// SABRE routing + DistanceOracle throughput at device scale. Before the
// oracle redesign, routing a handful of gates on an 8192-node target paid the
// full O(n²) distance matrix (256MB and seconds of BFS) before the first swap
// was scored. Routing is now frontier-sized: on closed-form topologies (line,
// grid, king grid, heavy-hex) a blocked step evaluates O(1) distances inline
// and builds no row at all, and each candidate swap rescores only the front
// and look-ahead pairs it moves. Only irregular graphs pin O(n) BFS rows.
//
// Families:
//   route_sparse/<topo>/nN — SABRE-route a K=32-gate random CX circuit on an
//                            N-node grid / full lattice-surgery graph (one
//                            trial, fixed seed). items = gates routed.
//   route_dense/sycamore/qft64 — SABRE-route QFT-64 on the 8x8 Sycamore
//                            graph (irregular: BFS rows), default options,
//                            the paper's Fig. 18 baseline. items = gates
//                            routed.
//   oracle_query/<topo>/nN — random-pair distance queries through the
//                            oracle's closed forms. items = queries.
//   oracle_rows/<topo>/nN  — full row materialization (what DistView pins
//                            per touched node on irregular graphs).
//                            items = row entries.
#include <benchmark/benchmark.h>

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

#include "arch/grid.hpp"
#include "arch/lattice_surgery.hpp"
#include "arch/sycamore.hpp"
#include "baseline/sabre.hpp"
#include "circuit/qft_spec.hpp"
#include "common/prng.hpp"

namespace {

using namespace qfto;

std::int32_t side_for(int n) {
  std::int32_t m = 1;
  while (static_cast<std::int64_t>(m) * m < n) ++m;
  return m;
}

CouplingGraph build_topo(const std::string& topo, int n) {
  const std::int32_t m = side_for(n);
  if (topo == "grid") return make_grid(m, m);
  return make_lattice_surgery_full(m);
}

struct Case {
  CouplingGraph graph;
  Circuit logical;

  Case(const std::string& topo, int n)
      : graph(build_topo(topo, n)), logical(graph.num_qubits()) {
    // K random CX gates over the whole register: a sparse workload whose
    // routing cost is frontier-sized, not register-sized.
    Xoshiro256ss rng(0x5abe + n);
    const std::int32_t q = graph.num_qubits();
    for (int k = 0; k < 32; ++k) {
      const auto a = static_cast<std::int32_t>(rng.uniform(q));
      std::int32_t b = a;
      while (b == a) b = static_cast<std::int32_t>(rng.uniform(q));
      logical.append(Gate::cnot(a, b));
    }
  }
};

Case& get_case(const std::string& topo, int n) {
  static std::mutex mu;
  static std::map<std::string, std::unique_ptr<Case>> cache;
  std::lock_guard<std::mutex> lock(mu);
  const std::string key = topo + "/" + std::to_string(n);
  auto it = cache.find(key);
  if (it != cache.end()) return *it->second;
  return *cache.emplace(key, std::make_unique<Case>(topo, n)).first->second;
}

void BM_RouteSparse(benchmark::State& state, const std::string& topo, int n) {
  Case& c = get_case(topo, n);
  SabreOptions opts;
  opts.trials = 1;
  opts.seed = 0xfeed;
  std::int64_t emitted = 0;
  for (auto _ : state) {
    const MappedCircuit mc = sabre_route(c.logical, c.graph, opts);
    emitted = static_cast<std::int64_t>(mc.circuit.size());
    benchmark::DoNotOptimize(mc.final_mapping.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(c.logical.size()));
  state.counters["hw_gates"] = static_cast<double>(emitted);
}

void BM_RouteDense(benchmark::State& state) {
  const CouplingGraph graph = make_sycamore(8);
  const Circuit logical = qft_logical(64);
  std::int64_t emitted = 0;
  for (auto _ : state) {
    const MappedCircuit mc = sabre_route(logical, graph);
    emitted = static_cast<std::int64_t>(mc.circuit.size());
    benchmark::DoNotOptimize(mc.final_mapping.data());
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(logical.size()));
  state.counters["hw_gates"] = static_cast<double>(emitted);
}

void BM_OracleQuery(benchmark::State& state, const std::string& topo, int n) {
  Case& c = get_case(topo, n);
  const DistanceOracle& oracle = c.graph.distances();
  Xoshiro256ss rng(0xd157);
  const std::int32_t q = c.graph.num_qubits();
  std::int64_t sum = 0;
  for (auto _ : state) {
    const auto a = static_cast<std::int32_t>(rng.uniform(q));
    const auto b = static_cast<std::int32_t>(rng.uniform(q));
    sum += oracle.distance(a, b);
  }
  benchmark::DoNotOptimize(sum);
  state.SetItemsProcessed(state.iterations());
}

void BM_OracleRows(benchmark::State& state, const std::string& topo, int n) {
  Case& c = get_case(topo, n);
  const DistanceOracle& oracle = c.graph.distances();
  Xoshiro256ss rng(0x505);
  const std::int32_t q = c.graph.num_qubits();
  for (auto _ : state) {
    const auto a = static_cast<std::int32_t>(rng.uniform(q));
    const DistanceOracle::RowPtr row = oracle.row(a);
    benchmark::DoNotOptimize(row->data());
  }
  state.SetItemsProcessed(state.iterations() * c.graph.num_qubits());
}

const int register_all = [] {
  using Fn = void (*)(benchmark::State&, const std::string&, int);
  const std::pair<const char*, Fn> families[] = {
      {"route_sparse", BM_RouteSparse},
      {"oracle_query", BM_OracleQuery},
      {"oracle_rows", BM_OracleRows},
  };
  for (const auto& [family, fn] : families) {
    for (const char* topo : {"grid", "lattice_full"}) {
      for (const int n : {1024, 4096, 8192}) {
        const std::string name = std::string(family) + "/" + topo + "/n" +
                                 std::to_string(n);
        const std::string topo_s = topo;
        benchmark::RegisterBenchmark(
            name.c_str(),
            [fn, topo_s, n](benchmark::State& st) { fn(st, topo_s, n); })
            ->Unit(benchmark::kMillisecond);
      }
    }
  }
  benchmark::RegisterBenchmark("route_dense/sycamore/qft64", BM_RouteDense)
      ->Unit(benchmark::kMillisecond);
  return 0;
}();

}  // namespace
