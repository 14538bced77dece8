// Per-gate latency models (§2.3). NISQ backends count one cycle per gate.
// Lattice surgery is heterogeneous: a CNOT (or CPHASE, realized at the same
// cost) takes 2 cycles on any link; a SWAP takes 2 cycles on a fast
// (diagonal-tile) link but 3 CNOTs = 6 cycles on a CNOT-only (axial) link.
// Single-qubit gates take one cycle.
//
// LatencyModel is the concrete form the scheduler/verifier hot path consumes:
// a (gate kind × link type) cycle table resolved once per graph. Evaluating a
// gate is a table load — plus one O(1) link_type probe only for kinds whose
// cost actually varies by link. It is the only latency type: custom costs go
// through set_cost, ad-hoc callables through schedule_asap_with.
#pragma once

#include "arch/coupling_graph.hpp"
#include "circuit/scheduler.hpp"

namespace qfto {

/// Latency constants, exposed for tests and documentation.
inline constexpr Cycle kLsCnotDepth = 2;
inline constexpr Cycle kLsCphaseDepth = 2;
inline constexpr Cycle kLsFastSwapDepth = 2;
inline constexpr Cycle kLsSlowSwapDepth = 6;

class LatencyModel {
 public:
  /// Unit model: every gate takes one cycle.
  LatencyModel() {
    for (std::size_t k = 0; k < kGateKindCount; ++k) {
      for (std::size_t l = 0; l < kLinkTypeCount; ++l) table_[k][l] = 1;
    }
  }

  /// Every gate costs one cycle — the paper's NISQ "step" count.
  static LatencyModel unit() { return LatencyModel(); }

  /// Lattice-surgery weighted latency resolved against `g`'s link types. The
  /// model holds a pointer to `g`; the graph must outlive it. Gates on
  /// non-edges (never produced by our mappers; possible for baselines
  /// evaluated leniently) are charged the slow-link cost.
  static LatencyModel lattice(const CouplingGraph& g);

  /// Binds the graph used to resolve link-dependent costs (must outlive the
  /// model). Required before any link-specific set_cost.
  LatencyModel& bind(const CouplingGraph& g) {
    graph_ = &g;
    return *this;
  }

  /// Sets the cost of `kind` uniformly across link types.
  LatencyModel& set_cost(GateKind kind, Cycle cycles) {
    const auto k = static_cast<std::size_t>(kind);
    for (std::size_t l = 0; l < kLinkTypeCount; ++l) table_[k][l] = cycles;
    varies_[k] = false;
    return *this;
  }

  /// Sets a link-dependent cost; the kind now pays one link_type probe per
  /// gate. Requires a bound graph.
  LatencyModel& set_cost(GateKind kind, LinkType link, Cycle cycles) {
    require(graph_ != nullptr,
            "LatencyModel::set_cost: bind a graph before link-typed costs");
    table_[static_cast<std::size_t>(kind)][static_cast<std::size_t>(link)] =
        cycles;
    varies_[static_cast<std::size_t>(kind)] = true;
    return *this;
  }

  Cycle cycles(const Gate& gate) const {
    const auto k = static_cast<std::size_t>(gate.kind);
    if (!varies_[k]) return table_[k][0];
    const auto link = graph_->link_type(gate.q0, gate.q1);
    const auto l = link ? static_cast<std::size_t>(*link)
                        : static_cast<std::size_t>(LinkType::kCnotOnly);
    return table_[k][l];
  }

  /// Table lookup when the caller already resolved the gate's link type —
  /// the incremental checker fuses its adjacency probe with the link fetch,
  /// so charging latency costs no second graph query.
  Cycle cycles_on_link(GateKind kind, LinkType link) const {
    return table_[static_cast<std::size_t>(kind)]
                 [static_cast<std::size_t>(link)];
  }

  Cycle operator()(const Gate& gate) const { return cycles(gate); }

 private:
  Cycle table_[kGateKindCount][kLinkTypeCount];
  bool varies_[kGateKindCount] = {};
  const CouplingGraph* graph_ = nullptr;
};

/// Devirtualized scheduling: the model inlines into the ASAP core.
/// The default model is unit latency (the paper's NISQ step count).
inline Schedule schedule_asap(const Circuit& c,
                              const LatencyModel& model = LatencyModel()) {
  return schedule_asap_with(c,
                            [&model](const Gate& g) { return model.cycles(g); });
}

/// Convenience: makespan only.
inline Cycle circuit_depth(const Circuit& c,
                           const LatencyModel& model = LatencyModel()) {
  return schedule_asap(c, model).depth;
}

}  // namespace qfto
