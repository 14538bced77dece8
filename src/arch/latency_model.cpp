#include "arch/latency_model.hpp"

namespace qfto {

LatencyModel LatencyModel::lattice(const CouplingGraph& g) {
  LatencyModel m;
  m.bind(g);
  m.set_cost(GateKind::kCnot, kLsCnotDepth);
  m.set_cost(GateKind::kCPhase, kLsCphaseDepth);
  m.set_cost(GateKind::kSwap, kLsSlowSwapDepth);
  m.set_cost(GateKind::kSwap, LinkType::kFast, kLsFastSwapDepth);
  return m;
}

}  // namespace qfto
