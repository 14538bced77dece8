// On-demand hop-distance oracle — the device-scale replacement for the
// retired CouplingGraph::distance_matrix(). The eager all-pairs matrix is
// O(n²) memory and O(n·E) BFS before the first query; at the 10k-qubit sizes
// the ROADMAP targets that is ~400 MB and seconds of setup. The oracle
// answers the same queries from O(n·deg) state:
//
//   * every registered regular topology carries a DistanceSpec set by its
//     builder, and distances are evaluated in closed form per query —
//     |a-b| on lines, Manhattan on axial grids (plain grid and the rotated
//     lattice-surgery view), Chebyshev on the full lattice-surgery graph
//     (axial + both diagonal families = king moves), and junction arithmetic
//     on the simplified heavy-hex line-with-dangling layout;
//   * irregular graphs (Sycamore's diagonal grid, heavy-hex devices, custom
//     edge lists) fall back to single-source CSR-BFS rows cached under an
//     LRU row budget, so memory stays bounded no matter how many sources a
//     router touches.
//
// Routers on closed-form topologies call DistanceSpec::closed_distance
// inline and never build a row. Rows are handed out as shared_ptrs, so a
// handle stays valid after the LRU evicts the row — on irregular graphs,
// routers (SABRE) pin the rows they touch and query them lock-free. The full
// eager matrix survives only as
// eager_matrix_for_tests(), the differential oracle the property sweep in
// tests/test_distance_oracle.cpp compares every topology against.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/types.hpp"

namespace qfto {

class CouplingGraph;

/// Topology hint the builders attach to a CouplingGraph so the oracle can
/// answer distance queries in closed form. Mutating the graph (add_edge)
/// resets the spec to kGeneric — correctness never depends on the hint.
struct DistanceSpec {
  enum class Kind : std::uint8_t {
    kGeneric,   // no structure known: cached CSR-BFS rows
    kLine,      // path graph: d = |a - b|
    kGrid,      // rows x cols axial grid: Manhattan distance
    kKingGrid,  // rows x cols with axial + both diagonals: Chebyshev distance
    kHeavyHex,  // simplified heavy-hex: main line + dangling junction nodes
  };

  Kind kind = Kind::kGeneric;
  std::int32_t rows = 0;  // kGrid / kKingGrid
  std::int32_t cols = 0;  // kGrid / kKingGrid (node id = r * cols + c)
  std::int32_t main_len = 0;               // kHeavyHex
  std::vector<std::int32_t> junctions;     // kHeavyHex: dangle g hangs at [g]

  static DistanceSpec line() {
    DistanceSpec s;
    s.kind = Kind::kLine;
    return s;
  }
  static DistanceSpec grid(std::int32_t rows, std::int32_t cols) {
    DistanceSpec s;
    s.kind = Kind::kGrid;
    s.rows = rows;
    s.cols = cols;
    return s;
  }
  static DistanceSpec king_grid(std::int32_t rows, std::int32_t cols) {
    DistanceSpec s;
    s.kind = Kind::kKingGrid;
    s.rows = rows;
    s.cols = cols;
    return s;
  }
  static DistanceSpec heavy_hex(std::int32_t main_len,
                                std::vector<std::int32_t> junctions) {
    DistanceSpec s;
    s.kind = Kind::kHeavyHex;
    s.main_len = main_len;
    s.junctions = std::move(junctions);
    return s;
  }

  /// Hop distance in closed form: pure arithmetic, no rows, no lock. The
  /// one formula behind both DistanceOracle::distance and SABRE's scoring
  /// loop. Throws on kGeneric, which has no closed form.
  std::int32_t closed_distance(PhysicalQubit a, PhysicalQubit b) const {
    switch (kind) {
      case Kind::kLine:
        return std::abs(a - b);
      case Kind::kGrid:
        return std::abs(a / cols - b / cols) + std::abs(a % cols - b % cols);
      case Kind::kKingGrid:
        return std::max(std::abs(a / cols - b / cols),
                        std::abs(a % cols - b % cols));
      case Kind::kHeavyHex: {
        // Main-line node id == its line position; dangling node g sits one
        // hop off the line at junction position junctions[g].
        const bool a_dangle = a >= main_len;
        const bool b_dangle = b >= main_len;
        const std::int32_t pa = a_dangle ? junctions[a - main_len] : a;
        const std::int32_t pb = b_dangle ? junctions[b - main_len] : b;
        if (a_dangle && b_dangle && pa == pb) {
          // Two dangles on one junction would both project to the same
          // spot; the builders never create that, but keep the formula
          // total.
          return a == b ? 0 : 2;
        }
        return (a_dangle ? 1 : 0) + (b_dangle ? 1 : 0) + std::abs(pa - pb);
      }
      case Kind::kGeneric:
        break;
    }
    require(false, "DistanceSpec: closed_distance on generic spec");
    return -1;
  }
};

class DistanceOracle {
 public:
  /// A materialized distance row (source fixed, indexed by target). Shared:
  /// handles stay valid after the LRU evicts the row from the cache.
  using RowPtr = std::shared_ptr<const std::vector<std::int32_t>>;

  /// `g` must outlive the oracle (CouplingGraph owns its oracle and resets
  /// it on copy/move/mutation, so the pointer never dangles there).
  /// `row_budget` caps the BFS row cache; 0 picks a default sized so the
  /// cache stays within ~16 MiB regardless of n (at least 16 rows).
  DistanceOracle(const CouplingGraph& g, DistanceSpec spec,
                 std::size_t row_budget = 0);

  /// Hop distance between physical nodes a and b; -1 when unreachable.
  /// Closed-form specs are pure arithmetic; kGeneric takes the row-cache
  /// mutex (safe for concurrent first use from a thread pool).
  std::int32_t distance(PhysicalQubit a, PhysicalQubit b) const;

  /// Full distance row from source `a`. Closed-form specs materialize a
  /// fresh row (O(n), uncached); kGeneric serves the LRU-cached BFS row.
  RowPtr row(PhysicalQubit a) const;

  /// True when distances are evaluated in closed form (no BFS, no cache).
  bool closed_form() const {
    return spec_.kind != DistanceSpec::Kind::kGeneric;
  }

  const DistanceSpec& spec() const { return spec_; }

  /// True when every node is reachable from node 0 (empty graph counts as
  /// connected). Computed once (closed-form specs by construction; kGeneric
  /// by one BFS) and memoized.
  bool connected() const;

  std::size_t row_budget() const { return row_budget_; }

  /// Current BFS row cache occupancy (kGeneric only; 0 for closed forms).
  std::size_t cached_rows() const;

  /// Total BFS row computations since construction — lets tests prove both
  /// that eviction happened (recomputation after overflow) and that LRU
  /// recency protects hot rows (no recomputation on a re-query).
  std::int64_t bfs_rows_computed() const;

  /// Differential oracle for tests: the old eager all-pairs BFS matrix,
  /// computed from scratch on every call (never cached, never consulted by
  /// queries). O(n²) — test-only by design.
  std::vector<std::vector<std::int32_t>> eager_matrix_for_tests() const;

 private:
  std::vector<std::int32_t> bfs_from(PhysicalQubit a) const;
  RowPtr cached_row_locked(PhysicalQubit a) const;

  const CouplingGraph* g_;
  DistanceSpec spec_;
  std::size_t row_budget_ = 0;

  // LRU row cache (kGeneric). lru_ front = most recently used.
  mutable std::mutex mutex_;
  mutable std::unordered_map<std::int32_t, RowPtr> rows_;
  mutable std::list<std::int32_t> lru_;
  mutable std::unordered_map<std::int32_t, std::list<std::int32_t>::iterator>
      lru_pos_;
  mutable std::int64_t bfs_rows_computed_ = 0;
  mutable std::int8_t connected_ = -1;  // -1 unknown, else 0/1 (guarded)
};

}  // namespace qfto
