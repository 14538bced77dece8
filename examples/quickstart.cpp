// Quickstart: compile a 16-qubit QFT for a 4x4 Google Sycamore through the
// unified MapperPipeline, and print the numbers the paper's evaluation
// reports (depth, gate counts).
//
//   $ ./quickstart
//
// Walks through the whole public API surface: the one-call map_qft facade
// (architecture factory + mapper + static checker behind it), the engine
// registry, and the simulation-based equivalence oracle.
#include <cstdio>
#include <fstream>

#include "pipeline/mapper_pipeline.hpp"
#include "qasm/qasm.hpp"
#include "verify/equivalence.hpp"

int main() {
  using namespace qfto;
  constexpr std::int32_t n = 16;  // 4x4 device

  // 1. One call: build the backend model, compile the QFT kernel for it and
  //    statically verify the result (every CPHASE on a coupled pair, every
  //    logical pair exactly once with the QFT angle, relaxed ordering
  //    windows respected, final mapping consistent). The mapper is
  //    analytical: no search, no recompilation across sizes. By default
  //    the result is a summary (verdict, depth, counts, mappings); this
  //    walkthrough simulates and exports the gates, so it keeps them.
  MapOptions opts;
  opts.keep_circuit = true;
  const MapResult result = map_qft("sycamore", n, opts);
  if (!result.check.ok) {
    std::printf("verification FAILED: %s\n", result.check.error.c_str());
    return 1;
  }

  // 2. Any registered engine is one string away — these are the paper's
  //    four structured mappers, the three baselines, and the grid target.
  std::printf("registered engines:");
  for (const auto& name : MapperPipeline::global().engine_names()) {
    std::printf(" %s", name.c_str());
  }
  std::printf("\n\n");

  // 3. Dynamically verify: the hardware circuit applies the same unitary as
  //    the textbook QFT on random states (exact up to 1e-9).
  const double err = mapped_equivalence_error(result.mapped);

  std::printf("QFT-%d on %s\n", n, result.graph.name().c_str());
  std::printf("  depth (cycles)   : %lld  (%.2f per qubit)\n",
              static_cast<long long>(result.check.depth),
              static_cast<double>(result.check.depth) / n);
  std::printf("  gate counts      : %s\n",
              result.check.counts.to_string().c_str());
  std::printf("  compile time     : %.4f s (+%.4f s verify)\n",
              result.timings.map_seconds, result.timings.check_seconds);
  std::printf("  simulation error : %.2e\n", err);
  std::printf("  initial mapping  : logical i -> physical %d..%d (unit order)\n",
              result.mapped.initial.front(), result.mapped.initial.back());

  // 4. Hand the kernel to any other stack as OpenQASM 2.0.
  std::ofstream("qft16_sycamore.qasm") << to_qasm(result.mapped);
  std::printf("  wrote qft16_sycamore.qasm (OpenQASM 2.0)\n");
  return err < 1e-9 ? 0 : 1;
}
