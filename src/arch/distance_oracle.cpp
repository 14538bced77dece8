#include "arch/distance_oracle.hpp"

#include <algorithm>
#include <queue>

#include "arch/coupling_graph.hpp"

namespace qfto {

namespace {

// Default LRU budget: keep the cache within ~16 MiB of int32 rows, but never
// below 16 rows so small irregular graphs behave like an eager matrix. There
// are only n distinct rows, so the budget never usefully exceeds max(n, 16)
// and is capped there — a 4-node graph reports 16, not 16 MiB worth of slots.
std::size_t default_row_budget(std::int32_t n) {
  if (n <= 0) return 16;
  const std::size_t rows = static_cast<std::size_t>(n);
  const std::size_t row_bytes = sizeof(std::int32_t) * rows;
  const std::size_t budget = (16u << 20) / row_bytes;
  return std::min(std::max<std::size_t>(rows, 16),
                  std::max<std::size_t>(16, budget));
}

}  // namespace

DistanceOracle::DistanceOracle(const CouplingGraph& g, DistanceSpec spec,
                               std::size_t row_budget)
    : g_(&g),
      spec_(std::move(spec)),
      row_budget_(row_budget == 0 ? default_row_budget(g.num_qubits())
                                  : row_budget) {
  if (spec_.kind == DistanceSpec::Kind::kHeavyHex) {
    require(spec_.main_len +
                    static_cast<std::int32_t>(spec_.junctions.size()) ==
                g.num_qubits(),
            "DistanceOracle: heavy-hex spec does not cover the graph");
  } else if (spec_.kind == DistanceSpec::Kind::kGrid ||
             spec_.kind == DistanceSpec::Kind::kKingGrid) {
    require(static_cast<std::int64_t>(spec_.rows) * spec_.cols ==
                g.num_qubits(),
            "DistanceOracle: grid spec does not cover the graph");
  }
}

std::vector<std::int32_t> DistanceOracle::bfs_from(PhysicalQubit a) const {
  const std::int32_t n = g_->num_qubits();
  std::vector<std::int32_t> d(static_cast<std::size_t>(n), -1);
  d[a] = 0;
  std::queue<PhysicalQubit> bfs;
  bfs.push(a);
  while (!bfs.empty()) {
    const PhysicalQubit u = bfs.front();
    bfs.pop();
    for (PhysicalQubit v : g_->neighbors(u)) {
      if (d[v] < 0) {
        d[v] = d[u] + 1;
        bfs.push(v);
      }
    }
  }
  return d;
}

DistanceOracle::RowPtr DistanceOracle::cached_row_locked(
    PhysicalQubit a) const {
  auto it = rows_.find(a);
  if (it != rows_.end()) {
    // Refresh recency.
    auto pos = lru_pos_.find(a);
    lru_.splice(lru_.begin(), lru_, pos->second);
    pos->second = lru_.begin();
    return it->second;
  }
  auto row = std::make_shared<const std::vector<std::int32_t>>(bfs_from(a));
  ++bfs_rows_computed_;
  if (rows_.size() >= row_budget_ && !lru_.empty()) {
    const std::int32_t victim = lru_.back();
    lru_.pop_back();
    lru_pos_.erase(victim);
    rows_.erase(victim);
  }
  rows_.emplace(a, row);
  lru_.push_front(a);
  lru_pos_[a] = lru_.begin();
  return row;
}

std::int32_t DistanceOracle::distance(PhysicalQubit a, PhysicalQubit b) const {
  require(a >= 0 && a < g_->num_qubits() && b >= 0 && b < g_->num_qubits(),
          "DistanceOracle::distance: node out of range");
  if (closed_form()) return spec_.closed_distance(a, b);
  std::lock_guard<std::mutex> lock(mutex_);
  return (*cached_row_locked(a))[b];
}

DistanceOracle::RowPtr DistanceOracle::row(PhysicalQubit a) const {
  require(a >= 0 && a < g_->num_qubits(),
          "DistanceOracle::row: node out of range");
  if (closed_form()) {
    const std::int32_t n = g_->num_qubits();
    std::vector<std::int32_t> r(static_cast<std::size_t>(n));
    for (std::int32_t b = 0; b < n; ++b) r[b] = spec_.closed_distance(a, b);
    return std::make_shared<const std::vector<std::int32_t>>(std::move(r));
  }
  std::lock_guard<std::mutex> lock(mutex_);
  return cached_row_locked(a);
}

bool DistanceOracle::connected() const {
  if (g_->num_qubits() == 0) return true;
  // Every closed-form topology is connected by construction.
  if (closed_form()) return true;
  std::lock_guard<std::mutex> lock(mutex_);
  if (connected_ < 0) {
    const auto row = cached_row_locked(0);
    connected_ = std::all_of(row->begin(), row->end(),
                             [](std::int32_t x) { return x >= 0; })
                     ? 1
                     : 0;
  }
  return connected_ == 1;
}

std::size_t DistanceOracle::cached_rows() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return rows_.size();
}

std::int64_t DistanceOracle::bfs_rows_computed() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bfs_rows_computed_;
}

std::vector<std::vector<std::int32_t>> DistanceOracle::eager_matrix_for_tests()
    const {
  const std::int32_t n = g_->num_qubits();
  std::vector<std::vector<std::int32_t>> m;
  m.reserve(static_cast<std::size_t>(n));
  for (std::int32_t a = 0; a < n; ++a) m.push_back(bfs_from(a));
  return m;
}

}  // namespace qfto
