// Calibrated device descriptions — the ROADMAP's device-realism item. A
// DeviceModel is *data*, not a compile-time topology choice: qubit count, an
// edge list carrying per-edge two-qubit latency (in scheduler cycles) and
// error rate, and per-qubit single-qubit error + coherence horizons. It is
// loaded from device JSON (a file, or inline text in a serve request), and
// everything downstream — CouplingGraph shape, LatencyModel cycle table,
// fidelity accounting, SABRE's fidelity-aware cost mode, the ResultCache key
// — resolves from it. The text goes through the same JSON reader as serve
// requests (common/json.hpp): the full string escape set, isspace
// whitespace.
//
// JSON schema (single top-level object; unknown keys fail loudly):
//
//   {
//     "name": "falcon-7",            // optional label (not fingerprinted)
//     "qubits": 7,                   // required, >= 1
//     "latency_1q": 1,               // optional, cycles per 1q gate (def 1)
//     "error_1q": 1e-4,              // scalar or per-qubit array of n
//     "coherence_cycles": 20000,     // scalar or per-qubit array of n
//     "edges": [                     // required, >= 1 entry
//       {"a": 0, "b": 1},            // defaults: latency 1, error 5e-3,
//       {"a": 1, "b": 2,             //           swap_latency 3*latency
//        "latency": 2, "error": 0.012, "swap_latency": 6}
//     ]
//   }
//
// Validation is strict and, like from_qasm, positions its rejections
// ("device json line N: ..."): duplicate edges, out-of-range error rates,
// truncated input. The two whole-device checks run once the document is
// read and say "device json: ...": a qubit index past n ("qubits" may come
// after "edges") and too many latency classes. All raise
// std::invalid_argument, never crash. Distinct per-edge (latency,
// swap_latency) pairs become the graph's link classes; since LatencyModel
// resolves costs per link type, a device may carry at most kLinkTypeCount
// (= 3) distinct latency classes.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "arch/coupling_graph.hpp"
#include "arch/latency_model.hpp"

namespace qfto {

/// One calibrated coupler. `latency` is the two-qubit (CNOT/CPHASE) cost in
/// cycles; `swap_latency` the SWAP cost (defaults to 3 * latency — three
/// CNOTs); `error_2q` the per-application two-qubit error rate in [0, 1).
struct DeviceEdge {
  PhysicalQubit a = 0;
  PhysicalQubit b = 0;
  Cycle latency = 1;
  Cycle swap_latency = 3;
  double error_2q = 5e-3;
};

/// Per-qubit calibration: single-qubit error rate and idle-coherence horizon
/// in scheduler cycles.
struct DeviceQubit {
  double error_1q = 1e-4;
  double coherence_cycles = 2e4;
};

class DeviceModel {
 public:
  DeviceModel() = default;

  /// Parses a device JSON document. Throws std::invalid_argument with a
  /// line-positioned message on any syntactic or semantic problem.
  static DeviceModel from_json(std::string_view text);

  /// from_json over a file's bytes; the path prefixes the positioned error.
  /// A missing/unreadable file throws too — a request naming a device that
  /// cannot be loaded must fail loudly, never map on an idealized fallback.
  static DeviceModel load_file(const std::string& path);

  const std::string& name() const { return name_; }
  std::int32_t num_qubits() const { return num_qubits_; }
  const std::vector<DeviceQubit>& qubits() const { return qubits_; }
  const DeviceQubit& qubit(PhysicalQubit q) const {
    return qubits_[static_cast<std::size_t>(q)];
  }
  const std::vector<DeviceEdge>& edges() const { return edges_; }

  /// Two-qubit error rate of the (a, b) coupler; `fallback` when the pair is
  /// not an edge (lenient evaluation of baseline circuits, like the latency
  /// table's non-edge convention).
  double edge_error(PhysicalQubit a, PhysicalQubit b,
                    double fallback = 5e-3) const;

  /// Order-insensitive 64-bit content fingerprint (splitmix64-chained) over
  /// the calibration: qubit count, per-qubit rates, every edge's endpoints,
  /// latencies and error rate. The cosmetic `name` is excluded — relabeling
  /// a device must not fragment the result cache, while editing any single
  /// calibration value must miss it.
  std::uint64_t fingerprint() const;

  /// Number of distinct (latency, swap_latency) classes (<= kLinkTypeCount).
  std::size_t latency_classes() const { return classes_.size(); }

  /// The coupling graph this device describes: every edge tagged with its
  /// latency class as the LinkType (classes sorted ascending). Irregular
  /// shapes are fine — distances come from the oracle's generic BFS rows.
  CouplingGraph build_graph() const;

  /// The calibration table as a LatencyModel resolved against `g` (which
  /// must be build_graph()'s result, or share its link-class labeling, and
  /// must outlive the model).
  LatencyModel latency_model(const CouplingGraph& g) const;

  /// Uniform-device resolution (exactly one latency class): no graph needed
  /// because no cost varies by link.
  LatencyModel latency_model() const;

  /// Mean single-qubit error rate over the device.
  double mean_error_1q() const;

 private:
  /// Shared resolution core; `g` may be null only for uniform devices.
  LatencyModel resolve_latency(const CouplingGraph* g) const;

  static std::uint64_t edge_index_key(PhysicalQubit a, PhysicalQubit b) {
    if (a > b) std::swap(a, b);
    return (static_cast<std::uint64_t>(static_cast<std::uint32_t>(a)) << 32) |
           static_cast<std::uint32_t>(b);
  }

  std::string name_;
  std::int32_t num_qubits_ = 0;
  Cycle latency_1q_ = 1;
  std::vector<DeviceQubit> qubits_;
  std::vector<DeviceEdge> edges_;
  /// Distinct (latency, swap_latency) pairs, sorted ascending; an edge's
  /// index into this vector is its LinkType in build_graph()'s labeling.
  std::vector<std::pair<Cycle, Cycle>> classes_;
  std::unordered_map<std::uint64_t, std::size_t> edge_index_;
};

}  // namespace qfto
