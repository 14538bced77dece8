#include "arch/device_model.hpp"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <fstream>
#include <sstream>
#include <stdexcept>

#include "common/json.hpp"
#include "common/prng.hpp"

namespace qfto {

namespace {

Cycle as_cycle(const json::Reader& p, double v, const char* key) {
  if (v < 1.0 || v > 1e6 || v != std::floor(v)) {
    p.fail(std::string("\"") + key +
           "\" must be an integral cycle count in [1, 1e6]");
  }
  return static_cast<Cycle>(v);
}

}  // namespace

DeviceModel DeviceModel::from_json(std::string_view text) {
  json::Reader p(text);
  DeviceModel dev;
  try {
    bool saw_qubits = false, saw_edges = false;
    double error_1q = 1e-4, coherence = 2e4;
    std::vector<double> error_1q_arr, coherence_arr;
    bool error_1q_is_array = false, coherence_is_array = false;

    p.object([&](const std::string& key) {
      if (key == "name") {
        dev.name_ = p.string();
      } else if (key == "qubits") {
        const double v = p.number();
        if (v < 1.0 || v > 16'777'216.0 || v != std::floor(v)) {
          p.fail("\"qubits\" must be an integer in [1, 16777216]");
        }
        dev.num_qubits_ = static_cast<std::int32_t>(v);
        saw_qubits = true;
      } else if (key == "latency_1q") {
        dev.latency_1q_ = as_cycle(p, p.number(), "latency_1q");
      } else if (key == "error_1q") {
        // Deferred: the per-qubit array length check needs "qubits", which
        // may appear later in the object.
        error_1q_is_array = p.peek() == '[';
        if (error_1q_is_array) {
          p.array([&] { error_1q_arr.push_back(p.number()); });
        } else {
          error_1q = p.number();
        }
      } else if (key == "coherence_cycles") {
        coherence_is_array = p.peek() == '[';
        if (coherence_is_array) {
          p.array([&] { coherence_arr.push_back(p.number()); });
        } else {
          coherence = p.number();
        }
      } else if (key == "edges") {
        saw_edges = true;
        p.array([&] {
          DeviceEdge e;
          bool saw_a = false, saw_b = false, saw_swap = false;
          p.object([&](const std::string& ek) {
            if (ek == "a" || ek == "b") {
              const double v = p.number();
              if (v < 0.0 || v > 16'777'215.0 || v != std::floor(v)) {
                p.fail("edge \"" + ek + "\" must be a qubit index");
              }
              (ek == "a" ? e.a : e.b) = static_cast<PhysicalQubit>(v);
              (ek == "a" ? saw_a : saw_b) = true;
            } else if (ek == "latency") {
              e.latency = as_cycle(p, p.number(), "latency");
            } else if (ek == "swap_latency") {
              e.swap_latency = as_cycle(p, p.number(), "swap_latency");
              saw_swap = true;
            } else if (ek == "error") {
              e.error_2q = p.number();
              if (!(e.error_2q >= 0.0 && e.error_2q < 1.0)) {
                p.fail("edge \"error\" must be in [0, 1)");
              }
            } else {
              p.fail("unknown edge field \"" + ek + "\"");
            }
          });
          if (!saw_a || !saw_b) p.fail("edge needs \"a\" and \"b\"");
          if (!saw_swap) e.swap_latency = 3 * e.latency;  // SWAP = 3 CNOTs
          if (e.a == e.b) {
            p.fail("edge (" + std::to_string(e.a) + ", " + std::to_string(e.b) +
                   ") is a self-loop");
          }
          // Checked against the edge index as it grows, so the rejection
          // carries the offending edge's line in O(1) per edge.
          if (!dev.edge_index_.emplace(edge_index_key(e.a, e.b),
                                       dev.edges_.size())
                   .second) {
            p.fail("duplicate edge (" + std::to_string(e.a) + ", " +
                   std::to_string(e.b) + ")");
          }
          dev.edges_.push_back(e);
        });
      } else {
        // Typos fail loudly instead of silently calibrating with defaults —
        // the serve protocol's unknown-field discipline.
        p.fail("unknown field \"" + key + "\"");
      }
    });
    if (!p.at_end()) p.fail("trailing content after device object");
    if (!saw_qubits) p.fail("missing \"qubits\"");
    if (!saw_edges || dev.edges_.empty()) {
      p.fail("missing or empty \"edges\"");
    }

    const auto n = static_cast<std::size_t>(dev.num_qubits_);
    const auto check_rate = [&](double v) {
      if (!(v >= 0.0 && v < 1.0)) p.fail("\"error_1q\" must be in [0, 1)");
    };
    const auto check_coherence = [&](double v) {
      if (!(v > 0.0)) p.fail("\"coherence_cycles\" must be > 0");
    };
    dev.qubits_.resize(n);
    if (error_1q_is_array) {
      if (error_1q_arr.size() != n) {
        p.fail("\"error_1q\" array has " +
               std::to_string(error_1q_arr.size()) + " entries, expected " +
               std::to_string(n));
      }
      for (double v : error_1q_arr) check_rate(v);
      for (std::size_t i = 0; i < n; ++i) dev.qubits_[i].error_1q = error_1q_arr[i];
    } else {
      check_rate(error_1q);
      for (auto& q : dev.qubits_) q.error_1q = error_1q;
    }
    if (coherence_is_array) {
      if (coherence_arr.size() != n) {
        p.fail("\"coherence_cycles\" array has " +
               std::to_string(coherence_arr.size()) + " entries, expected " +
               std::to_string(n));
      }
      for (double v : coherence_arr) check_coherence(v);
      for (std::size_t i = 0; i < n; ++i) {
        dev.qubits_[i].coherence_cycles = coherence_arr[i];
      }
    } else {
      check_coherence(coherence);
      for (auto& q : dev.qubits_) q.coherence_cycles = coherence;
    }
  } catch (const json::Error& e) {
    throw std::invalid_argument("device json line " + std::to_string(e.line()) +
                                ": " + e.what());
  }

  // Whole-device checks: an edge may name a qubit before "qubits" is read.
  const auto fail = [](const std::string& what) {
    throw std::invalid_argument("device json: " + what);
  };
  for (const DeviceEdge& e : dev.edges_) {
    if (e.a >= dev.num_qubits_ || e.b >= dev.num_qubits_) {
      fail("edge (" + std::to_string(e.a) + ", " + std::to_string(e.b) +
           ") references a qubit past n=" + std::to_string(dev.num_qubits_));
    }
    const std::pair<Cycle, Cycle> cls{e.latency, e.swap_latency};
    if (std::find(dev.classes_.begin(), dev.classes_.end(), cls) ==
        dev.classes_.end()) {
      dev.classes_.push_back(cls);
    }
  }
  if (dev.classes_.size() > kLinkTypeCount) {
    fail("device carries " + std::to_string(dev.classes_.size()) +
         " distinct (latency, swap_latency) classes; at most " +
         std::to_string(kLinkTypeCount) + " are supported");
  }
  std::sort(dev.classes_.begin(), dev.classes_.end());
  return dev;
}

DeviceModel DeviceModel::load_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::invalid_argument("device file " + path + ": cannot open");
  }
  std::ostringstream text;
  text << in.rdbuf();
  try {
    return from_json(text.str());
  } catch (const std::invalid_argument& e) {
    // Re-throw with the path in front so a multi-device operator log stays
    // attributable; the positioned line stays intact.
    throw std::invalid_argument(path + ": " + e.what());
  }
}

double DeviceModel::edge_error(PhysicalQubit a, PhysicalQubit b,
                               double fallback) const {
  const auto it = edge_index_.find(edge_index_key(a, b));
  return it == edge_index_.end() ? fallback : edges_[it->second].error_2q;
}

std::uint64_t DeviceModel::fingerprint() const {
  // splitmix64-chained content hash (the Circuit::fingerprint discipline):
  // every calibration value feeds the chain, so editing one error rate on
  // one edge yields a different device identity — and a different cache key.
  std::uint64_t h = 0x9e3779b97f4a7c15ull ^
                    static_cast<std::uint64_t>(num_qubits_);
  const auto mix = [&h](std::uint64_t v) {
    h = SplitMix64(h ^ v).next();
  };
  const auto mix_double = [&](double v) {
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof(bits));
    mix(bits);
  };
  mix(static_cast<std::uint64_t>(latency_1q_));
  for (const DeviceQubit& q : qubits_) {
    mix_double(q.error_1q);
    mix_double(q.coherence_cycles);
  }
  for (const DeviceEdge& e : edges_) {
    mix((static_cast<std::uint64_t>(static_cast<std::uint32_t>(e.a)) << 32) |
        static_cast<std::uint32_t>(e.b));
    mix(static_cast<std::uint64_t>(e.latency));
    mix(static_cast<std::uint64_t>(e.swap_latency));
    mix_double(e.error_2q);
  }
  return h;
}

CouplingGraph DeviceModel::build_graph() const {
  CouplingGraph g(name_.empty() ? "device" : name_, num_qubits_);
  for (const DeviceEdge& e : edges_) {
    const auto cls = std::find(classes_.begin(), classes_.end(),
                               std::pair<Cycle, Cycle>{e.latency,
                                                       e.swap_latency}) -
                     classes_.begin();
    g.add_edge(e.a, e.b, static_cast<LinkType>(cls));
  }
  // No closed-form spec: irregular device graphs resolve distances through
  // the oracle's LRU-budgeted BFS rows, which is exactly the generic path.
  return g;
}

LatencyModel DeviceModel::resolve_latency(const CouplingGraph* g) const {
  require(!classes_.empty(), "DeviceModel: no edges (not loaded)");
  LatencyModel m;
  m.set_cost(GateKind::kH, latency_1q_);
  m.set_cost(GateKind::kX, latency_1q_);
  m.set_cost(GateKind::kRz, latency_1q_);
  if (classes_.size() == 1) {
    // Uniform device: no cost varies by link, so the hot path keeps its
    // probe-free table load (and no graph binding is needed).
    m.set_cost(GateKind::kCnot, classes_[0].first);
    m.set_cost(GateKind::kCPhase, classes_[0].first);
    m.set_cost(GateKind::kSwap, classes_[0].second);
    return m;
  }
  require(g != nullptr,
          "DeviceModel::latency_model(): device has link-dependent costs; "
          "pass the graph");
  m.bind(*g);
  // Non-edge gates (lenient baseline evaluation) charge the worst class, the
  // same pessimistic convention LatencyModel::lattice uses: first fill every
  // link slot with the last (slowest) class, then overwrite the real ones.
  m.set_cost(GateKind::kCnot, classes_.back().first);
  m.set_cost(GateKind::kCPhase, classes_.back().first);
  m.set_cost(GateKind::kSwap, classes_.back().second);
  for (std::size_t c = 0; c < classes_.size(); ++c) {
    const auto link = static_cast<LinkType>(c);
    m.set_cost(GateKind::kCnot, link, classes_[c].first);
    m.set_cost(GateKind::kCPhase, link, classes_[c].first);
    m.set_cost(GateKind::kSwap, link, classes_[c].second);
  }
  return m;
}

LatencyModel DeviceModel::latency_model(const CouplingGraph& g) const {
  return resolve_latency(&g);
}

LatencyModel DeviceModel::latency_model() const {
  return resolve_latency(nullptr);
}

double DeviceModel::mean_error_1q() const {
  double sum = 0.0;
  for (const DeviceQubit& q : qubits_) sum += q.error_1q;
  return qubits_.empty() ? 0.0 : sum / static_cast<double>(qubits_.size());
}

}  // namespace qfto
