// One streaming verification interface over both checker families.
//
// verify::Verifier is the push-based contract the pipeline, the service and
// the emitters program against: feed mapped gates one at a time, then
// finish() against the declared final mapping to obtain the QftCheckResult
// (verdict + latency-weighted ASAP depth + gate counts). Two factories cover
// the two specs this repo verifies against:
//
//   * make_qft_verifier — wraps IncrementalQftChecker (the QFT spec);
//   * make_circuit_verifier — IncrementalCircuitChecker, the streaming
//     refactor of the old single-function check_circuit_mapping: the
//     canonical SWAP-free relabeling, relaxed dependency DAG and ready
//     buckets are built once in the constructor, and each push() performs
//     one gate's worth of matching. check_circuit_mapping survives as a
//     thin driver over it.
//
// EmitAudit is the fused form: instead of re-streaming the finished gate
// list through a Verifier, a LayerEmitter constructed with an EmitAudit
// maintains the same ASAP depth/count arithmetic gate-by-gate *as it emits*.
// The emitter's construction-time invariants (adjacency require on every
// two-qubit gate, QftState's exactly-once pair/H windows, MappingTracker
// injectivity, angles stamped from logical ids) discharge exactly the
// checker's per-gate obligations, so the audited result is bit-identical to
// post-hoc check_qft_mapping — the pipeline cross-checks this in
// tests/test_pipeline.cpp — while the separate O(gates) verification pass
// disappears entirely.
#pragma once

#include <memory>
#include <string>
#include <vector>

#include "arch/coupling_graph.hpp"
#include "arch/latency_model.hpp"
#include "circuit/circuit.hpp"
#include "circuit/mapped_circuit.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace verify {

/// Streaming mapped-circuit verifier. push() returns false once verification
/// has failed (subsequent gates are ignored); finish() renders the verdict.
class Verifier {
 public:
  virtual ~Verifier() = default;
  virtual bool push(const Gate& gate) = 0;
  virtual bool failed() const = 0;
  virtual QftCheckResult finish(
      const std::vector<PhysicalQubit>& declared_final) = 0;
};

/// Verifier for the QFT spec: wraps IncrementalQftChecker. An invalid
/// `initial` yields a verifier that reports the header error at finish()
/// instead of throwing.
std::unique_ptr<Verifier> make_qft_verifier(
    const std::vector<PhysicalQubit>& initial, const CouplingGraph& g,
    LatencyModel latency = LatencyModel());

/// Verifier for an arbitrary logical circuit: IncrementalCircuitChecker.
/// `logical` and `g` must outlive the verifier.
std::unique_ptr<Verifier> make_circuit_verifier(
    const Circuit& logical, const std::vector<PhysicalQubit>& initial,
    const CouplingGraph& g, LatencyModel latency = LatencyModel());

/// Streams mc.circuit through `v` and finishes against mc.final_mapping.
QftCheckResult verify_mapped(Verifier& v, const MappedCircuit& mc);

/// Fused emit-time verification handle. Construct with the latency model the
/// result will be judged under, pass to LayerEmitter (directly or through
/// MapOptions); after the mapper finishes, `engaged` says whether the emitter
/// audited (structured emitters do; routed baselines that bypass
/// LayerEmitter leave it false and the pipeline falls back to a streaming
/// Verifier pass), and `result` carries the verdict.
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
