#include "baseline/sabre.hpp"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <stdexcept>

#include "arch/device_model.hpp"
#include "arch/latency_model.hpp"
#include "circuit/dag.hpp"
#include "circuit/stats.hpp"
#include "common/prng.hpp"
#include "verify/fidelity.hpp"
#include "verify/mapping_tracker.hpp"

namespace qfto {

namespace {

/// Per-candidate edge-error penalty for the fidelity objective: the
/// calibrated -log10(1-e2) of the SWAP's edge, normalized to (0, 1] by the
/// device's worst edge, then scaled by fidelity_weight. The scoring loop
/// multiplies this by a per-step tie scale that sits strictly below the
/// smallest distance-score quantum, so the penalty steers among
/// distance-equal swaps but can never outvote progress toward the front —
/// a penalty that rivals the distance terms livelocks the router on
/// low-error edges (zero-progress swaps win forever; the decay mechanism
/// resets every few swaps and cannot catch up). Inactive (zero-cost, no
/// device probes) unless the objective is on and a device is bound, so the
/// depth path computes exactly what it always did.
class EdgePenalty {
 public:
  explicit EdgePenalty(const SabreOptions& opts) {
    if (!opts.fidelity_objective || opts.device == nullptr) return;
    double worst = 0.0;
    for (const DeviceEdge& e : opts.device->edges()) {
      worst = std::max(worst, -std::log10(1.0 - e.error_2q));
    }
    if (worst <= 0.0) return;
    device_ = opts.device;
    inv_worst_ = 1.0 / worst;
    weight_ = opts.fidelity_weight;
  }

  bool active() const { return device_ != nullptr; }

  double operator()(PhysicalQubit a, PhysicalQubit b) const {
    return weight_ * -std::log10(1.0 - device_->edge_error(a, b)) * inv_worst_;
  }

 private:
  const DeviceModel* device_ = nullptr;
  double inv_worst_ = 1.0;
  double weight_ = 1.0;
};

struct SwapCandidate {
  PhysicalQubit a;
  PhysicalQubit b;
};

/// Physical endpoints of a two-qubit gate, flattened for the scoring loop.
struct EndpointPair {
  PhysicalQubit a;
  PhysicalQubit b;
};

/// Per-step index from a physical node to the scored pairs that have it as
/// an endpoint, so a candidate swap rescores only the pairs it moves. Each
/// link carries what rescoring needs: the pair's other endpoint, its
/// unswapped distance and its term (0 = front, 1 = extended set). The heads
/// live in one pass-scoped array and are reset pair by pair after each
/// step, so a step costs O(pairs), never O(n).
class TouchIndex {
 public:
  struct Link {
    PhysicalQubit other;
    std::int32_t base;
    std::int32_t term;
    std::int32_t next;
  };

  explicit TouchIndex(std::int32_t nodes)
      : head_(static_cast<std::size_t>(nodes), -1) {}

  void add(const EndpointPair& ep, std::int32_t base, std::int32_t term) {
    link(ep.a, {ep.b, base, term, head_[ep.a]});
    link(ep.b, {ep.a, base, term, head_[ep.b]});
  }

  /// Drops every link; `pairs` must be the pairs added since the last reset.
  void reset(const std::vector<EndpointPair>& pairs) {
    for (const EndpointPair& ep : pairs) head_[ep.a] = head_[ep.b] = -1;
    links_.clear();
  }

  /// Calls f(link) for every pair with endpoint p.
  template <class F>
  void for_each(PhysicalQubit p, F f) const {
    for (std::int32_t t = head_[p]; t >= 0; t = links_[t].next) f(links_[t]);
  }

 private:
  void link(PhysicalQubit p, const Link& l) {
    head_[p] = static_cast<std::int32_t>(links_.size());
    links_.push_back(l);
  }

  std::vector<std::int32_t> head_;
  std::vector<Link> links_;
};

/// Pass-scoped hop distances for the scoring loop. Closed-form topologies
/// (line, grid, king grid, heavy-hex) evaluate DistanceSpec::closed_distance
/// inline, so a query costs O(1) whatever n is and no row is ever built.
/// Generic graphs pin oracle rows on first touch so a query is a plain array
/// load — no oracle mutex. Pinned handles survive the oracle's LRU eviction;
/// the pin set itself is flushed when it would grow past the oracle's own
/// budget, keeping memory in rows-touched, not n².
class DistView {
 public:
  explicit DistView(const CouplingGraph& g)
      : oracle_(&g.distances()),
        spec_(&oracle_->spec()),
        closed_(oracle_->closed_form()) {
    if (!closed_) {
      rowptr_.assign(static_cast<std::size_t>(g.num_qubits()), nullptr);
      limit_ = std::max<std::size_t>(64, oracle_->row_budget());
    }
  }

  std::int32_t operator()(PhysicalQubit a, PhysicalQubit b) {
    return closed_ ? spec_->closed_distance(a, b) : row(a)[b];
  }

 private:
  const std::int32_t* row(PhysicalQubit a) {
    const std::int32_t* r = rowptr_[a];
    if (r == nullptr) {
      if (pinned_.size() >= limit_) {
        pinned_.clear();
        std::fill(rowptr_.begin(), rowptr_.end(), nullptr);
      }
      pinned_.push_back(oracle_->row(a));
      r = pinned_.back()->data();
      rowptr_[a] = r;
    }
    return r;
  }

  const DistanceOracle* oracle_;
  const DistanceSpec* spec_;
  bool closed_;
  std::vector<const std::int32_t*> rowptr_;
  std::vector<DistanceOracle::RowPtr> pinned_;
  std::size_t limit_ = 0;
};

// One full routing pass. When `emit` is false only the final mapping is
// produced (used by the bidirectional initial-mapping refinement).
struct PassResult {
  Circuit circuit;
  std::vector<PhysicalQubit> final_mapping;
  std::int64_t swaps = 0;
};

PassResult route_pass(const Circuit& logical, const Dag& dag,
                      const CouplingGraph& g,
                      const std::vector<PhysicalQubit>& initial,
                      Xoshiro256ss& rng, const SabreOptions& opts, bool emit) {
  const std::int32_t n = logical.num_qubits();
  DistView dist(g);
  TouchIndex touching(g.num_qubits());
  const EdgePenalty penalty(opts);
  MappingTracker map(initial, g.num_qubits());

  std::vector<std::int32_t> indeg(dag.size(), 0);
  for (const auto& ss : dag.succ) {
    for (auto s : ss) ++indeg[s];
  }
  std::vector<std::int32_t> front;
  for (std::size_t i = 0; i < dag.size(); ++i) {
    if (indeg[i] == 0) front.push_back(static_cast<std::int32_t>(i));
  }

  PassResult out;
  out.circuit = Circuit(g.num_qubits());
  std::vector<double> decay(n, 1.0);
  // Qubits whose decay moved off 1.0 since the last reset: a reset restores
  // just these, so it costs O(decay_reset), not O(n).
  std::vector<LogicalQubit> decayed;
  const auto reset_decay = [&] {
    for (const LogicalQubit l : decayed) decay[l] = 1.0;
    decayed.clear();
  };
  std::int32_t swaps_since_reset = 0;
  std::size_t executed = 0;

  auto resolve = [&](std::int32_t gi) {
    for (auto s : dag.succ[gi]) {
      if (--indeg[s] == 0) front.push_back(s);
    }
  };

  // Round-scoped scratch, hoisted so the blocked-step loop never allocates
  // once capacities have warmed up.
  std::vector<PhysicalQubit> front_pos;
  std::vector<SwapCandidate> cands;
  std::vector<std::int32_t> extended;
  std::vector<std::int32_t> queue;
  std::vector<EndpointPair> pairs;  // front pairs, then extended-set pairs
  std::vector<std::size_t> best_set;

  const std::int64_t swap_cap =
      1000 + 64 * static_cast<std::int64_t>(dag.size()) *
                 std::max<std::int32_t>(1, g.num_qubits() / 8);
  // Release valve: a front whose swaps all score within a hair of each
  // other can make the heuristic wander without ever executing a gate
  // (five crossing CXs on a 16-node line did, until the swap cap). After
  // this many consecutive swaps with no progress, the nearest front gate is
  // walked together deterministically. Under the default look-ahead,
  // successful routes stay far below it (longest no-progress run measured:
  // 38 swaps at n = 16, 828 at n = 8281), so the valve only rescues routes
  // that would otherwise diverge. A one-gate look-ahead (extended_size = 1)
  // can wander past it and still converge; there the valve cuts it short.
  const std::int64_t stall_limit =
      10 * static_cast<std::int64_t>(g.num_qubits());
  std::int64_t stalled = 0;
  bool front_changed = true;

  const auto apply_swap = [&](PhysicalQubit a, PhysicalQubit b) {
    if (emit) out.circuit.append(Gate::swap(a, b));
    map.apply_swap(a, b);
    if (++out.swaps > swap_cap) {
      throw std::logic_error("sabre: swap cap exceeded — routing diverged");
    }
  };

  while (executed < dag.size()) {
    // Execute everything executable in the front layer.
    bool progress = true;
    while (progress) {
      progress = false;
      for (std::size_t fi = 0; fi < front.size();) {
        const std::int32_t gi = front[fi];
        const Gate& gate = logical[gi];
        const bool runnable =
            !gate.two_qubit() ||
            g.adjacent(map.physical_of(gate.q0), map.physical_of(gate.q1));
        if (runnable) {
          if (emit) {
            Gate hw = gate;
            hw.q0 = map.physical_of(gate.q0);
            if (gate.two_qubit()) hw.q1 = map.physical_of(gate.q1);
            out.circuit.append(hw);
          }
          front[fi] = front.back();
          front.pop_back();
          resolve(gi);
          ++executed;
          stalled = 0;
          front_changed = true;
          progress = true;
        } else {
          ++fi;
        }
      }
    }
    if (front.empty()) break;

    // Blocked: every front gate is a non-adjacent two-qubit gate. Flatten
    // them to physical endpoint pairs once per step; the scoring loop then
    // runs over flat arrays — no tracker lookups, no maps/sets.
    pairs.clear();
    front_pos.clear();
    for (auto gi : front) {
      const Gate& gate = logical[gi];
      const EndpointPair ep{map.physical_of(gate.q0), map.physical_of(gate.q1)};
      pairs.push_back(ep);
      front_pos.push_back(ep.a);
      front_pos.push_back(ep.b);
    }
    const std::size_t num_front = pairs.size();

    // Candidates touch a front-layer qubit. Walking the sorted, distinct
    // front positions through their sorted CSR rows yields them already in
    // (a, b) order and free of duplicates.
    std::sort(front_pos.begin(), front_pos.end());
    front_pos.erase(std::unique(front_pos.begin(), front_pos.end()),
                    front_pos.end());
    cands.clear();
    for (const PhysicalQubit p : front_pos) {
      for (const auto& e : g.sorted_neighbors(p)) cands.push_back({p, e.nbr});
    }

    // Extended set: the next few two-qubit gates past the front layer. It
    // depends on the front alone, not on the mapping, so it is rebuilt only
    // after a gate has executed.
    if (front_changed) {
      extended.clear();
      queue = front;
      for (std::size_t head = 0;
           head < queue.size() &&
           static_cast<std::int32_t>(extended.size()) < opts.extended_size;
           ++head) {
        for (auto s : dag.succ[queue[head]]) {
          if (logical[s].two_qubit()) extended.push_back(s);
          queue.push_back(s);
          if (static_cast<std::int32_t>(extended.size()) >= opts.extended_size)
            break;
        }
      }
      front_changed = false;
    }
    for (auto gi : extended) {
      const Gate& gate = logical[gi];
      pairs.push_back({map.physical_of(gate.q0), map.physical_of(gate.q1)});
    }
    const std::size_t num_ext = pairs.size() - num_front;

    // Score terms are hop sums over the pairs. A swap moves only the pairs
    // it touches, so each candidate starts from the unswapped sums and
    // rescores just those; the sums are exact in int64, so converting each
    // once gives the same doubles as summing every term in floating point.
    std::int64_t base_sum[2] = {0, 0};
    for (std::size_t i = 0; i < pairs.size(); ++i) {
      const std::int32_t term = i < num_front ? 0 : 1;
      const std::int32_t d = dist(pairs[i].a, pairs[i].b);
      base_sum[term] += d;
      touching.add(pairs[i], d, term);
    }

    // Distance scores move in quanta of 1/|front| (and W/|ext| for the
    // lookahead term); keeping the penalty below half the smallest quantum
    // guarantees any swap that shortens a front pair beats any that does
    // not, whatever the calibration says — convergence is the depth path's.
    double tie_scale = 0.0;
    if (penalty.active()) {
      const double fq = 1.0 / static_cast<double>(num_front);
      const double eq =
          (num_ext > 0 && opts.extended_weight > 0.0)
              ? opts.extended_weight / static_cast<double>(num_ext)
              : fq;
      tie_scale = 0.5 * std::min(fq, eq);
    }

    double best = 1e300;
    best_set.clear();
    for (std::size_t ci = 0; ci < cands.size(); ++ci) {
      const SwapCandidate& cand = cands[ci];
      const PhysicalQubit sa = cand.a, sb = cand.b;
      // Swapping sa<->sb moves a pair's endpoint at sa to sb and vice
      // versa. Distances are symmetric, so a pair with both endpoints in
      // {sa, sb} keeps its distance and is skipped.
      std::int64_t sum[2] = {base_sum[0], base_sum[1]};
      touching.for_each(sa, [&](const TouchIndex::Link& l) {
        if (l.other != sb) sum[l.term] += dist(sb, l.other) - l.base;
      });
      touching.for_each(sb, [&](const TouchIndex::Link& l) {
        if (l.other != sa) sum[l.term] += dist(sa, l.other) - l.base;
      });
      const double basic =
          static_cast<double>(sum[0]) / static_cast<double>(num_front);
      const double ext = num_ext == 0 ? 0.0
                                      : static_cast<double>(sum[1]) /
                                            static_cast<double>(num_ext);
      const LogicalQubit la = map.logical_at(sa);
      const LogicalQubit lb = map.logical_at(sb);
      const double da = la == kInvalidQubit ? 1.0 : decay[la];
      const double db = lb == kInvalidQubit ? 1.0 : decay[lb];
      double score = std::max(da, db) * (basic + opts.extended_weight * ext);
      if (penalty.active()) score += tie_scale * penalty(sa, sb);
      if (score < best - 1e-12) {
        best = score;
        best_set.assign(1, ci);
      } else if (score <= best + 1e-12) {
        best_set.push_back(ci);
      }
    }
    touching.reset(pairs);
    require(!best_set.empty(), "sabre: no swap candidates on connected graph");
    const SwapCandidate chosen = cands[best_set[rng.uniform(best_set.size())]];

    const LogicalQubit la = map.logical_at(chosen.a);
    const LogicalQubit lb = map.logical_at(chosen.b);
    apply_swap(chosen.a, chosen.b);
    for (const LogicalQubit l : {la, lb}) {
      if (l == kInvalidQubit) continue;
      decay[l] += opts.decay_delta;
      decayed.push_back(l);
    }
    if (++swaps_since_reset >= opts.decay_reset) {
      reset_decay();
      swaps_since_reset = 0;
    }

    if (++stalled >= stall_limit) {
      // Walk the front gate with the smallest distance (first in front
      // order on ties) along a shortest path, stepping to the lowest-id
      // neighbour that is one hop closer, until it is adjacent.
      PhysicalQubit at = 0, to = 0;
      std::int32_t d = std::numeric_limits<std::int32_t>::max();
      for (auto gi : front) {
        const Gate& gate = logical[gi];
        const PhysicalQubit pa = map.physical_of(gate.q0);
        const PhysicalQubit pb = map.physical_of(gate.q1);
        const std::int32_t dg = dist(pa, pb);
        if (dg < d) {
          d = dg;
          at = pa;
          to = pb;
        }
      }
      for (; d > 1; --d) {
        PhysicalQubit step = at;
        for (const auto& e : g.sorted_neighbors(at)) {
          if (dist(e.nbr, to) == d - 1) {
            step = e.nbr;
            break;
          }
        }
        apply_swap(at, step);
        at = step;
      }
      reset_decay();
      swaps_since_reset = 0;
      stalled = 0;
    }
  }

  out.final_mapping = map.logical_to_physical();
  return out;
}

Circuit reversed(const Circuit& c) {
  Circuit r(c.num_qubits());
  for (std::size_t i = c.size(); i-- > 0;) r.append(c[i]);
  return r;
}

std::vector<PhysicalQubit> random_injection(std::int32_t n, std::int32_t p,
                                            Xoshiro256ss& rng) {
  std::vector<PhysicalQubit> nodes(p);
  std::iota(nodes.begin(), nodes.end(), 0);
  for (std::int32_t i = p - 1; i > 0; --i) {
    std::swap(nodes[i], nodes[rng.uniform(static_cast<std::uint64_t>(i) + 1)]);
  }
  nodes.resize(n);
  return nodes;
}

}  // namespace

MappedCircuit sabre_route_single(const Circuit& logical, const CouplingGraph& g,
                                 std::uint64_t seed,
                                 const SabreOptions& opts) {
  require(logical.num_qubits() <= g.num_qubits(),
          "sabre: more logical qubits than physical");
  require(g.connected(), "sabre: coupling graph must be connected");
  const Dag dag =
      opts.use_relaxed_dag ? build_relaxed_dag(logical) : build_strict_dag(logical);
  Xoshiro256ss rng(seed);
  std::vector<PhysicalQubit> initial =
      random_injection(logical.num_qubits(), g.num_qubits(), rng);

  const Circuit rev = reversed(logical);
  const Dag rev_dag =
      opts.use_relaxed_dag ? build_relaxed_dag(rev) : build_strict_dag(rev);
  for (std::int32_t pass = 0; pass < opts.bidirectional_passes; ++pass) {
    initial = route_pass(logical, dag, g, initial, rng, opts, false).final_mapping;
    initial = route_pass(rev, rev_dag, g, initial, rng, opts, false).final_mapping;
  }

  PassResult res = route_pass(logical, dag, g, initial, rng, opts, true);
  MappedCircuit mc;
  mc.circuit = std::move(res.circuit);
  mc.initial = std::move(initial);
  mc.final_mapping = std::move(res.final_mapping);
  return mc;
}

MappedCircuit sabre_route(const Circuit& logical, const CouplingGraph& g,
                          const SabreOptions& opts) {
  require(opts.trials >= 1, "sabre: trials >= 1");
  if (opts.fidelity_objective) {
    // Fidelity objective: the trial winner is the route with the best
    // expected log-success under the calibration (ties break on swap
    // count). The device's cycle table drives the decoherence depth.
    const LatencyModel lat = opts.device != nullptr
                                 ? opts.device->latency_model(g)
                                 : LatencyModel::unit();
    std::optional<MappedCircuit> best;
    double best_fid = 0.0;
    std::int64_t best_swaps = 0;
    const auto consider = [&](MappedCircuit mc) {
      const double fid =
          opts.device != nullptr
              ? log10_fidelity(mc.circuit, *opts.device, lat)
              : log10_fidelity(mc.circuit, NoiseModel{}, lat);
      const std::int64_t swaps = count_gates(mc.circuit).swap;
      if (!best || fid > best_fid + 1e-12 ||
          (fid > best_fid - 1e-12 && swaps < best_swaps)) {
        best = std::move(mc);
        best_fid = fid;
        best_swaps = swaps;
      }
    };
    // Each trial contributes two routes: the unsteered one (exactly what
    // the depth path would produce for this seed) and its penalty-steered
    // twin. The winner pool therefore contains every route the depth
    // objective considers, so the fidelity objective can never lose to it
    // on expected log-success — steering only wins when the calibration
    // says it actually helped.
    SabreOptions plain = opts;
    plain.fidelity_objective = false;
    for (std::int32_t t = 0; t < opts.trials; ++t) {
      consider(sabre_route_single(logical, g, opts.seed + 7919ull * t, plain));
      try {
        consider(sabre_route_single(logical, g, opts.seed + 7919ull * t, opts));
      } catch (const std::logic_error&) {
        // A steered trial that trips the swap cap is dropped; its unsteered
        // twin above already covers the trial.
      }
    }
    return std::move(*best);
  }
  std::optional<MappedCircuit> best;
  Cycle best_depth = 0;
  std::int64_t best_swaps = 0;
  for (std::int32_t t = 0; t < opts.trials; ++t) {
    MappedCircuit mc =
        sabre_route_single(logical, g, opts.seed + 7919ull * t, opts);
    const Cycle depth = circuit_depth(mc.circuit);
    const std::int64_t swaps = count_gates(mc.circuit).swap;
    if (!best || depth < best_depth ||
        (depth == best_depth && swaps < best_swaps)) {
      best = std::move(mc);
      best_depth = depth;
      best_swaps = swaps;
    }
  }
  return std::move(*best);
}

}  // namespace qfto
