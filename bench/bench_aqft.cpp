// Calibrated-device routing + Coppersmith AQFT pruning, as Google-Benchmark
// families so the Release CI leg uploads BENCH_aqft.json and the perf-trend
// guard tracks the fidelity-aware router.
//
// Families:
//   fidelity_route/<obj>/N — map QFT(N) with SABRE onto a calibrated 4x4
//                            grid device carrying three bad couplers, under
//                            the depth vs fidelity objective. The
//                            log10_fidelity counter is the comparison: the
//                            fidelity objective must win expected
//                            log-success on this device; depth shows what it
//                            pays for that. items = gates routed.
//   aqft_prune/K           — prune rotations below pi/2^K from the mapped
//                            LNN QFT-16 kernel (the paper's reference [9]);
//                            counters report the surviving CPHASEs and
//                            depth. items = gates scanned.
#include <benchmark/benchmark.h>

#include <memory>
#include <string>

#include "arch/device_model.hpp"
#include "circuit/scheduler.hpp"
#include "circuit/stats.hpp"
#include "circuit/transforms.hpp"
#include "pipeline/mapper_pipeline.hpp"

namespace {

using namespace qfto;

// A 4x4 grid whose (5,6), (6,10) and (9,10) couplers are an order of
// magnitude worse than the rest — routes through the centre cost real
// fidelity, so the two objectives disagree.
std::shared_ptr<const DeviceModel> noisy_grid16() {
  static const std::shared_ptr<const DeviceModel> dev = [] {
    std::string json =
        "{\"name\": \"grid16-noisy\", \"qubits\": 16,"
        " \"error_1q\": 1.5e-4, \"coherence_cycles\": 20000, \"edges\": [";
    bool first = true;
    auto edge = [&](int a, int b) {
      const bool bad = (a == 5 && b == 6) || (a == 6 && b == 10) ||
                       (a == 9 && b == 10);
      if (!first) json += ",";
      first = false;
      json += "{\"a\": " + std::to_string(a) +
              ", \"b\": " + std::to_string(b) +
              ", \"error\": " + (bad ? "6e-2" : "5e-3") + "}";
    };
    for (int r = 0; r < 4; ++r) {
      for (int c = 0; c < 4; ++c) {
        const int q = r * 4 + c;
        if (c + 1 < 4) edge(q, q + 1);
        if (r + 1 < 4) edge(q, q + 4);
      }
    }
    json += "]}";
    return std::make_shared<const DeviceModel>(DeviceModel::from_json(json));
  }();
  return dev;
}

void fidelity_route(benchmark::State& state, Objective objective) {
  const auto n = static_cast<std::int32_t>(state.range(0));
  MapOptions opts;
  opts.device = noisy_grid16();
  opts.objective = objective;
  MapResult result;
  for (auto _ : state) {
    result = map_qft("sabre", n, opts);
    // Not DoNotOptimize(result.log10_fidelity): the "+m,r" lvalue
    // constraint makes this gcc write a stale register back over the
    // double, corrupting the counter read below.
    benchmark::ClobberMemory();
  }
  state.counters["log10_fidelity"] = result.log10_fidelity;
  state.counters["depth"] = static_cast<double>(result.check.depth);
  state.counters["swaps"] = static_cast<double>(result.check.counts.swap);
  state.SetItemsProcessed(
      state.iterations() *
      static_cast<std::int64_t>(result.mapped.circuit.size()));
}

void fidelity_route_depth(benchmark::State& state) {
  fidelity_route(state, Objective::kDepth);
}
void fidelity_route_fidelity(benchmark::State& state) {
  fidelity_route(state, Objective::kFidelity);
}

BENCHMARK(fidelity_route_depth)
    ->Name("fidelity_route/depth")
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);
BENCHMARK(fidelity_route_fidelity)
    ->Name("fidelity_route/fidelity")
    ->Arg(8)
    ->Arg(16)
    ->Unit(benchmark::kMillisecond);

void aqft_prune(benchmark::State& state) {
  const auto k = static_cast<std::int32_t>(state.range(0));
  MapOptions opts;
  opts.keep_circuit = true;
  const MappedCircuit full = map_qft("lnn", 16, opts).mapped;
  Circuit pruned;
  for (auto _ : state) {
    pruned = prune_small_rotations(full.circuit, k);
    benchmark::DoNotOptimize(pruned);
  }
  const GateCounts gc = count_gates(pruned);
  state.counters["cphase_kept"] = static_cast<double>(gc.cphase);
  state.counters["depth"] = static_cast<double>(circuit_depth(pruned));
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(full.circuit.size()));
}

BENCHMARK(aqft_prune)->Name("aqft_prune")->Arg(3)->Arg(5)->Arg(8)->Unit(
    benchmark::kMicrosecond);

}  // namespace
