// Hardware coupling graphs. Nodes are physical qubits; edges are the links on
// which two-qubit gates may execute. Lattice surgery additionally tags each
// link with a type, because SWAP latency is heterogeneous there (§2.3).
//
// Layout: neighbor lists (insertion-ordered, for BFS and router candidate
// enumeration) plus a flat CSR — row offsets into one contiguous array of
// (neighbor, link type) entries, sorted per row — in the spirit of
// CryptoMiniSat's flat watch lists. `adjacent` and `link_type` are the
// verifier/scheduler hot path (one query per two-qubit gate): a row-offset
// load and a degree-bounded scan of one cache line, O(max_degree) = O(1) for
// the bounded-degree device graphs this repo targets, no allocation.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "arch/distance_oracle.hpp"
#include "common/types.hpp"

namespace qfto {

enum class LinkType : std::uint8_t {
  kStandard,  // NISQ coupler: every gate costs one cycle
  kFast,      // lattice surgery: diagonal tiles, SWAP depth 2
  kCnotOnly,  // lattice surgery: axial tiles, SWAP = 3 CNOTs = depth 6
};

/// Number of LinkType enumerators (latency tables index on it).
inline constexpr std::size_t kLinkTypeCount = 3;
static_assert(
    static_cast<std::size_t>(LinkType::kCnotOnly) + 1 == kLinkTypeCount,
    "update kLinkTypeCount when extending LinkType");

class CouplingGraph {
 public:
  /// One entry of the flat CSR: a neighbour and the link type to it.
  struct CsrEntry {
    PhysicalQubit nbr;
    LinkType type;
  };

  /// Row q of the flat CSR, iterable: q's neighbours in ascending id order.
  struct CsrRow {
    const CsrEntry* first;
    const CsrEntry* last;
    const CsrEntry* begin() const { return first; }
    const CsrEntry* end() const { return last; }
  };

  CouplingGraph() = default;
  CouplingGraph(std::string name, std::int32_t num_qubits);

  // The lazy CSR cache carries a mutex/flag guard, so the copy/move family
  // is user-defined: graph data is copied, guards are fresh per object and
  // the distance oracle is rebuilt lazily (it holds a back-pointer to its
  // owning graph, so it must never be shared across graph objects).
  CouplingGraph(const CouplingGraph& other);
  CouplingGraph& operator=(const CouplingGraph& other);
  CouplingGraph(CouplingGraph&& other) noexcept;
  CouplingGraph& operator=(CouplingGraph&& other) noexcept;
  ~CouplingGraph() = default;

  const std::string& name() const { return name_; }
  std::int32_t num_qubits() const { return num_qubits_; }

  /// Adds an undirected edge; duplicate edges are rejected. Not safe against
  /// concurrent queries — build the graph fully before sharing it.
  void add_edge(PhysicalQubit a, PhysicalQubit b,
                LinkType type = LinkType::kStandard);

  /// Degree-bounded CSR row scan.
  bool adjacent(PhysicalQubit a, PhysicalQubit b) const {
    if (a < 0 || b < 0 || a >= num_qubits_ || b >= num_qubits_ || a == b) {
      return false;
    }
    ensure_csr();
    const std::int32_t end = csr_offset_[a + 1];
    for (std::int32_t i = csr_offset_[a]; i < end; ++i) {
      if (csr_[i].nbr == b) return true;
    }
    return false;
  }

  /// Link type of edge (a,b); nullopt when not adjacent. The type sits
  /// inline in the CSR entry, so the same row scan answers both questions.
  std::optional<LinkType> link_type(PhysicalQubit a, PhysicalQubit b) const {
    if (a < 0 || b < 0 || a >= num_qubits_ || b >= num_qubits_ || a == b) {
      return std::nullopt;
    }
    ensure_csr();
    const std::int32_t end = csr_offset_[a + 1];
    for (std::int32_t i = csr_offset_[a]; i < end; ++i) {
      if (csr_[i].nbr == b) return csr_[i].type;
    }
    return std::nullopt;
  }

  const std::vector<PhysicalQubit>& neighbors(PhysicalQubit q) const;

  /// q's neighbours in ascending id order, for routers that enumerate
  /// candidates in a fixed order without sorting them on every step.
  CsrRow sorted_neighbors(PhysicalQubit q) const {
    ensure_csr();
    return {csr_.data() + csr_offset_[q], csr_.data() + csr_offset_[q + 1]};
  }

  std::int32_t degree(PhysicalQubit q) const {
    return static_cast<std::int32_t>(adj_[q].size());
  }

  std::int64_t num_edges() const { return num_edges_; }

  /// Attaches the closed-form distance hint for this topology. Builders call
  /// it once construction is complete; add_edge resets the spec to kGeneric
  /// (and drops any built oracle), so a mutated graph silently degrades to
  /// exact BFS rows rather than serving stale closed forms.
  void set_distance_spec(DistanceSpec spec);

  const DistanceSpec& distance_spec() const { return spec_; }

  /// On-demand distance oracle — the replacement for the retired O(n²)
  /// distance_matrix(). Built on first use under a double-checked guard, so
  /// concurrent readers (e.g. map_qft_batch workers sharing one target
  /// graph) are safe; the oracle's own row cache is internally synchronized.
  const DistanceOracle& distances() const;

  /// Hop distance; -1 when unreachable. Convenience over distances() —
  /// routers that query in bulk should pin oracle rows instead.
  std::int32_t distance(PhysicalQubit a, PhysicalQubit b) const;

  /// True if the graph is connected (needed by every mapper).
  bool connected() const;

 private:
  /// Finalizes the flat CSR from the build-time rows on first query after a
  /// mutation; amortized so add_edge stays O(degree) and graph construction
  /// stays linear in edges.
  void ensure_csr() const {
    if (!csr_ready_.load(std::memory_order_acquire)) build_csr();
  }
  void build_csr() const;
  void copy_from(const CouplingGraph& other);

  std::string name_;
  std::int32_t num_qubits_ = 0;
  std::int64_t num_edges_ = 0;
  std::vector<std::vector<PhysicalQubit>> adj_;
  // Build-time adjacency with inline link types; appended by add_edge.
  std::vector<std::vector<CsrEntry>> rows_;
  // Flat CSR finalized from rows_ (sorted per row): row q is
  // csr_[csr_offset_[q] .. csr_offset_[q+1]). Lazily built under the same
  // double-checked guard pattern as the distance cache.
  mutable std::vector<std::int32_t> csr_offset_;  // num_qubits + 1
  mutable std::vector<CsrEntry> csr_;             // 2 * num_edges
  mutable std::atomic<bool> csr_ready_{false};
  mutable std::mutex csr_mutex_;

  // Closed-form hint set by the topology builders; kGeneric by default and
  // after any mutation.
  DistanceSpec spec_;
  // Lazily built oracle, published with release/acquire so that first use
  // from a thread pool is race-free. Never copied or moved between graph
  // objects (it back-references this graph); copy/move reset it.
  mutable std::shared_ptr<const DistanceOracle> oracle_;
  mutable std::atomic<bool> oracle_ready_{false};
  mutable std::mutex oracle_mutex_;
};

}  // namespace qfto
