// Fig. 27 (Appendix 6): randomness of SABRE's output. QFT-4 on a 2x2 grid,
// ten seeds: initial mapping, gate order, depth and SWAP count all vary —
// the paper's argument for why heuristic routing gives no consistency
// guarantee across runs, unlike an analytical kernel.
#include <set>

#include "arch/grid.hpp"
#include "baseline/sabre.hpp"
#include "bench_common.hpp"
#include "circuit/qft_spec.hpp"

using namespace qfto;
using namespace qfto::bench;

int main() {
  const CouplingGraph g = make_grid(2, 2);
  const Circuit qft = qft_logical(4);
  TablePrinter table({"seed", "depth", "#SWAP", "initial mapping"});
  std::set<std::string> distinct_circuits;
  std::set<Cycle> depths;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    const MappedCircuit mc = sabre_route_single(qft, g, seed);
    const Measured m = measure(mc, g, 0.0);
    depths.insert(m.depth);
    distinct_circuits.insert(mc.circuit.to_string());
    std::string mapping;
    for (std::size_t l = 0; l < mc.initial.size(); ++l) {
      mapping += "q" + std::to_string(l) + ">Q" +
                 std::to_string(mc.initial[l]) + " ";
    }
    table.add_row({std::to_string(seed), std::to_string(m.depth),
                   std::to_string(m.swaps), mapping});
  }
  std::printf("Fig. 27 — SABRE seed randomness (QFT-4, 2x2 grid)\n\n%s\n",
              table.render().c_str());
  std::printf("distinct circuits over 10 seeds: %zu; distinct depths: %zu\n",
              distinct_circuits.size(), depths.size());

  // Contrast: the analytical engines behind the pipeline are seed-free —
  // ten runs, one distinct circuit.
  std::set<std::string> ours;
  MapOptions keep;
  keep.keep_circuit = true;
  for (int run = 0; run < 10; ++run) {
    ours.insert(map_qft("sycamore", 4, keep).mapped.circuit.to_string());
  }
  std::printf("our `sycamore` engine, 10 runs: %zu distinct circuit(s)\n",
              ours.size());
  return 0;
}
