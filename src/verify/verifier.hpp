// Fused emit-time verification.
//
// EmitAudit is the verification handle the structured mappers fill while they
// emit: instead of re-streaming the finished gate list through
// check_qft_mapping, a LayerEmitter constructed with an EmitAudit maintains
// the same ASAP depth/count arithmetic gate-by-gate *as it emits*. The
// emitter's construction-time invariants (adjacency require on every
// two-qubit gate, QftState's exactly-once pair/H windows, MappingTracker
// injectivity, angles stamped from logical ids) discharge exactly the
// checker's per-gate obligations, so the audited result is bit-identical to
// post-hoc check_qft_mapping and to check_qft_mapping_replay — asserted per
// engine in tests/test_pipeline.cpp — while the separate O(gates)
// verification pass disappears entirely.
#pragma once

#include "arch/latency_model.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace verify {

/// Construct with the latency model the result will be judged under, pass
/// to LayerEmitter (directly or through MapOptions); after the mapper
/// finishes, `engaged` says whether the emitter audited (structured emitters
/// do; routed baselines that bypass LayerEmitter leave it false and the
/// pipeline streams the circuit through check_qft_mapping instead), and
/// `result` carries the verdict.
///
/// `keep_circuit` false puts the emitter in summary mode: it still tracks
/// the mapping, the windows, the depth and the counts, but stores no gates,
/// so the MappedCircuit it returns has the right register and mappings and
/// an empty gate list. The pipeline sets it from MapOptions::keep_circuit;
/// callers that install their own audit keep the circuit by default.
struct EmitAudit {
  LatencyModel model;
  bool keep_circuit = true;
  bool engaged = false;
  QftCheckResult result;
};

}  // namespace verify
}  // namespace qfto
