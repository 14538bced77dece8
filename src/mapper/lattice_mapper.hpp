// Lattice-surgery (FT) QFT mapper (§6): each row of the rotated grid
// (Fig. 15(a)) is a unit whose internal links are the fast diagonal-tile
// family; rows are joined by CNOT-only vertical links. Intra-unit QFT runs on
// the fast links; inter-unit QFT-IE runs the offset travel path (the bottom
// unit starts one step late — Fig. 16 / Appendix 7, equal-position links);
// unit SWAP is one transversal layer of vertical SWAPs (3 CNOTs each, depth
// 6). Depth is charged under the heterogeneous latency model of §2.3; the
// paper engineers 5N + O(1), our closed-loop realization measures 11.8N at
// N = 100 rising slowly to 12.8N at N = 4096 (EXPERIMENTS.md).
#pragma once

#include "circuit/mapped_circuit.hpp"
#include "verify/verifier.hpp"

namespace qfto {

struct LatticeMapperOptions {
  /// When false, units are exchanged with *fast-link* routing inside rows
  /// instead of transversal vertical SWAPs — used by the latency ablation.
  bool transversal_unit_swap = true;
  /// Offset between the travel-path phases of adjacent units (§6 / Fig. 16:
  /// the bottom unit starts one step late). 0 reproduces the broken "synced"
  /// variant in which equal-position pairs still work (links join equal
  /// positions on this backend) but coverage is slower.
  std::int32_t phase_offset = 1;
  /// QFT-IE-strict instead of relaxed (§3.3 ablation; ~2x slower IE).
  bool strict_ie = false;
};

/// m >= 2; N = m*m, on the rotated lattice-surgery graph. `audit`, when
/// non-null, engages fused verification (verify::EmitAudit).
MappedCircuit map_qft_lattice(std::int32_t m,
                              const LatticeMapperOptions& opts = {},
                              verify::EmitAudit* audit = nullptr);

/// Appendix 7's plain 2D N-by-N grid backend (axial links, uniform latency):
/// the same row-unit scheme on `make_grid(m, m)`. The paper notes "2xN grid
/// architecture does not exist in modern architectures" — this target exists
/// for the synthesis study and as a clean comparison point.
MappedCircuit map_qft_grid2d(std::int32_t m,
                             const LatticeMapperOptions& opts = {},
                             verify::EmitAudit* audit = nullptr);

}  // namespace qfto
