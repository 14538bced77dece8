#include "mapper/heavy_hex_mapper.hpp"

#include <stdexcept>

#include "mapper/emitter.hpp"
#include "mapper/line_engine.hpp"

namespace qfto {

MappedCircuit map_qft_heavy_hex(const HeavyHexLayout& lay,
                                verify::EmitAudit* audit) {
  const std::int32_t n = lay.num_qubits;
  require(n >= 1, "map_qft_heavy_hex: empty layout");
  const CouplingGraph g = make_heavy_hex(lay);
  QftState state(n);
  LayerEmitter em(g, heavy_hex_initial_mapping(lay), state, audit);
  em.reserve_gates(2 * (static_cast<std::int64_t>(n) * (n - 1) / 2 + n));

  const std::int32_t num_dangle = lay.num_dangling();
  std::vector<std::uint8_t> parked(num_dangle, 0);

  std::vector<PhysicalQubit> main_nodes(lay.main_len);
  for (std::int32_t p = 0; p < lay.main_len; ++p) {
    main_nodes[p] = lay.main_node(p);
  }
  const Line main_line(em, std::move(main_nodes));

  // Junction <-> dangling edges, resolved once (used every round for both
  // the interaction layer and the parking swaps).
  std::vector<LayerEmitter::EdgeHandle> junction_edge;
  junction_edge.reserve(static_cast<std::size_t>(num_dangle));
  for (std::int32_t j = 0; j < num_dangle; ++j) {
    junction_edge.push_back(em.resolve_edge(lay.main_node(lay.junctions[j]),
                                            lay.dangling_node(j)));
  }

  // Veto for movement: a qubit waiting to park must not drift past its
  // junction, and nothing may move through an in-flight parking node.
  auto frozen = [&](PhysicalQubit node) {
    const std::int32_t j = lay.junction_at(node);  // main node id == position
    if (j < 0) return false;
    if (parked[j]) return false;
    return em.occupant(node) == static_cast<LogicalQubit>(j);
  };

  const std::int64_t round_cap = 8 * static_cast<std::int64_t>(n) + 64;
  std::int32_t idle_rounds = 0;
  for (std::int64_t round = 0; !state.all_done(); ++round) {
    if (round > round_cap) {
      throw std::logic_error("map_qft_heavy_hex: round cap exceeded");
    }
    std::int64_t before = em.gates_emitted();

    // Interaction layer. Junction links first (the paper's "extra stops"
    // prioritize CPHASEs with dangling qubits), then the main line, then H.
    em.next_layer();
    for (std::int32_t j = 0; j < num_dangle; ++j) {
      em.try_cphase(junction_edge[j]);
    }
    line_interaction_layer(em, main_line);
    for (std::int32_t j = 0; j < num_dangle; ++j) {
      em.try_h(lay.dangling_node(j));
    }

    // Movement layer. Parking swaps first, then LNN movement on the main
    // line (ascending start: the reversal flow of Fig. 3).
    em.next_layer();
    for (std::int32_t j = 0; j < num_dangle; ++j) {
      if (parked[j]) continue;
      const LayerEmitter::EdgeHandle& e = junction_edge[j];
      const LogicalQubit on_main = em.occupant(e.a);
      const LogicalQubit on_dangle = em.occupant(e.b);
      if (on_main == static_cast<LogicalQubit>(j) &&
          state.pair_done(on_main, on_dangle)) {
        if (em.try_swap(e)) parked[j] = 1;
      }
    }
    line_movement_layer(em, main_line, /*ascending=*/true, frozen);

    if (em.gates_emitted() == before) {
      if (++idle_rounds > 3) {
        throw std::logic_error(
            "map_qft_heavy_hex: stalled with " +
            std::to_string(state.pairs_remaining()) + " pairs and " +
            std::to_string(state.selfs_remaining()) + " H gates pending");
      }
    } else {
      idle_rounds = 0;
    }
  }
  return std::move(em).finish();
}

MappedCircuit map_qft_heavy_hex(std::int32_t n, verify::EmitAudit* audit) {
  return map_qft_heavy_hex(heavy_hex_layout(n), audit);
}

MappedCircuit map_qft_heavy_hex_device(const HeavyHexDevice& dev,
                                       verify::EmitAudit* audit) {
  const HeavyHexReduction red = simplify_heavy_hex(dev);
  const HeavyHexLayout canon = red.canonical();
  // The audit rides the canonical run: the relabeling below is a bijection
  // onto device nodes that preserves gate order, durations (links keep their
  // kinds) and the logical assignment, so depth/counts and the verdict are
  // unchanged by it.
  const MappedCircuit canonical = map_qft_heavy_hex(canon, audit);

  // Canonical physical id -> device node.
  std::vector<PhysicalQubit> relabel(canon.num_qubits);
  for (std::size_t p = 0; p < red.main_line.size(); ++p) {
    relabel[canon.main_node(static_cast<std::int32_t>(p))] = red.main_line[p];
  }
  for (std::size_t g = 0; g < red.dangling.size(); ++g) {
    relabel[canon.dangling_node(static_cast<std::int32_t>(g))] =
        red.dangling[g].second;
  }

  MappedCircuit out;
  out.circuit = canonical.circuit.relabeled(dev.graph.num_qubits(), relabel);
  out.initial.reserve(canonical.initial.size());
  for (PhysicalQubit p : canonical.initial) out.initial.push_back(relabel[p]);
  for (PhysicalQubit p : canonical.final_mapping) {
    out.final_mapping.push_back(relabel[p]);
  }
  return out;
}

}  // namespace qfto
