#include "gen.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <tuple>
#include <utility>

#include "config.hpp"

namespace perfbench {

std::uint64_t Rng::next() {
  std::uint64_t z = (s_ += 0x9e3779b97f4a7c15ULL);
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

double Rng::exp_gap(double rate) { return -std::log(1.0 - real()) / rate; }

std::int64_t LogicalSpec::count(char kind) const {
  return std::count_if(gates.begin(), gates.end(),
                       [kind](const GateSpec& g) { return g.kind == kind; });
}

namespace {

template <class T>
void shuffle(std::vector<T>& v, Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

std::string fmt(const char* f, double v) {
  char buf[64];
  std::snprintf(buf, sizeof buf, f, v);
  return buf;
}

std::string qasm_text(const LogicalSpec& c) {
  std::string s = "OPENQASM 2.0;\nqreg q[" + std::to_string(c.qubits) + "];\n";
  for (const GateSpec& g : c.gates) {
    const std::string a = "q[" + std::to_string(g.a) + "]";
    const std::string b = "q[" + std::to_string(g.b) + "]";
    const std::string angle = "(pi/" + std::to_string(g.div) + ") ";
    switch (g.kind) {
      case 'h': s += "h " + a; break;
      case 'x': s += "x " + a; break;
      case 'z': s += "rz" + angle + a; break;
      case 'c': s += "cx " + a + "," + b; break;
      case 'p': s += "cu1" + angle + a + "," + b; break;
    }
    s += ";\n";
  }
  return s;
}

/// Random circuit over `qubits` wires: h/x/rz singles, cx/cu1 pairs.
LogicalSpec random_circuit(Rng& rng, std::int32_t qubits, std::int32_t gates) {
  LogicalSpec c;
  c.qubits = qubits;
  static const std::int32_t kDivs[] = {2, 4, 8, 16};
  for (std::int32_t k = 0; k < gates; ++k) {
    GateSpec g;
    const auto r = rng.below(100);
    g.kind = r < 20 ? 'h' : r < 25 ? 'x' : r < 40 ? 'z' : r < 80 ? 'c' : 'p';
    g.a = static_cast<std::int32_t>(rng.below(qubits));
    if (g.kind == 'c' || g.kind == 'p') {
      do {
        g.b = static_cast<std::int32_t>(rng.below(qubits));
      } while (g.b == g.a);
    }
    g.div = kDivs[rng.below(4)];
    c.gates.push_back(g);
  }
  c.qasm = qasm_text(c);
  return c;
}

/// `count` random CX gates over the whole register.
LogicalSpec sparse_circuit(Rng& rng, std::int32_t qubits, std::int32_t count) {
  LogicalSpec c;
  c.qubits = qubits;
  for (std::int32_t k = 0; k < count; ++k) {
    GateSpec g;
    g.kind = 'c';
    g.a = static_cast<std::int32_t>(rng.below(qubits));
    do {
      g.b = static_cast<std::int32_t>(rng.below(qubits));
    } while (g.b == g.a);
    c.gates.push_back(g);
  }
  c.qasm = qasm_text(c);
  return c;
}

/// Connected irregular device on a rows x cols grid: a random spanning tree
/// of the grid's couplers plus each remaining coupler with probability 0.8,
/// two latency classes, and per-edge / per-qubit error rates. Starting from
/// a grid keeps the diameter, and so the routing cost, close across seeds.
DeviceSpec random_device(Rng& rng, std::int32_t rows, std::int32_t cols,
                         const std::string& name) {
  const std::int32_t qubits = rows * cols;
  std::vector<std::pair<std::int32_t, std::int32_t>> grid;
  for (std::int32_t r = 0; r < rows; ++r) {
    for (std::int32_t c = 0; c < cols; ++c) {
      const std::int32_t q = r * cols + c;
      if (c + 1 < cols) grid.emplace_back(q, q + 1);
      if (r + 1 < rows) grid.emplace_back(q, q + cols);
    }
  }
  shuffle(grid, rng);
  std::vector<std::int32_t> root(static_cast<std::size_t>(qubits));
  for (std::int32_t q = 0; q < qubits; ++q) root[q] = q;
  const auto find = [&root](std::int32_t q) {
    while (root[q] != q) q = root[q] = root[root[q]];
    return q;
  };
  std::set<std::pair<std::int32_t, std::int32_t>> edges;
  for (const auto& [a, b] : grid) {
    const bool joins = find(a) != find(b);
    if (joins) root[find(a)] = find(b);
    if (joins || rng.below(10) < 8) edges.emplace(a, b);
  }
  std::string s = "{\"name\":\"" + name + "\",\"qubits\":" +
                  std::to_string(qubits) + ",\"coherence_cycles\":20000,";
  s += "\"error_1q\":[";
  for (std::int32_t q = 0; q < qubits; ++q) {
    if (q > 0) s += ",";
    s += fmt("%.3e", 1e-4 * (0.5 + rng.real()));
  }
  s += "],\"edges\":[";
  bool first = true;
  for (const auto& [a, b] : edges) {
    if (!first) s += ",";
    first = false;
    const int latency = rng.below(4) == 0 ? 2 : 1;
    s += "{\"a\":" + std::to_string(a) + ",\"b\":" + std::to_string(b) +
         ",\"latency\":" + std::to_string(latency) +
         ",\"error\":" + fmt("%.5f", 0.002 + 0.018 * rng.real()) + "}";
  }
  s += "]}";
  return DeviceSpec{s};
}

std::string json_string(const std::string& raw) {
  std::string s = "\"";
  for (const char c : raw) {
    if (c == '"' || c == '\\') {
      s += '\\';
      s += c;
    } else if (c == '\n') {
      s += "\\n";
    } else {
      s += c;
    }
  }
  return s + "\"";
}

std::int32_t grid_side(std::int32_t n) {
  std::int32_t m = 1;
  while (m * m < n) ++m;
  return m;
}

}  // namespace

// ------------------------------------------------------- qft_device_scale --

std::vector<QftInstance> gen_qft_scale(std::uint64_t seed) {
  // The instance set is fixed so its sums compare across seeds; the seed
  // orders it (allocator and cache state differ with the order).
  std::vector<QftInstance> v = {
      {"lattice", 1024},  {"lattice", 4096},          {"lattice", 8192},
      {"sycamore", 1024}, {"heavy_hex", 1000},        {"heavy_hex_device", 1000},
      {"lnn", 2000},
  };
  Rng rng(seed ^ 0x51f7ULL);
  shuffle(v, rng);
  return v;
}

// ------------------------------------------------------------ route_device --

RouteInputs gen_route(std::uint64_t seed) {
  Rng rng(seed ^ 0x7a0eULL);
  RouteInputs in;
  for (const std::int32_t n : {1024, 4096, 8192}) {
    RouteInstance r;
    r.label = "sparse.n" + std::to_string(n);
    r.engine = "grid";
    r.trials = 1;
    const std::int32_t m = grid_side(n);
    r.circuit = sparse_circuit(rng, m * m, 32);
    in.instances.push_back(std::move(r));
  }
  const std::tuple<const char*, std::int32_t, std::int32_t> dense[] = {
      {"sycamore", 6, 36}, {"sycamore", 8, 64}, {"heavy_hex_device", 3, 47}};
  for (const auto& [target, size, n] : dense) {
    RouteInstance r;
    r.label = "qft." + std::string(target) + std::to_string(size);
    r.engine = "sabre";
    r.target = target;
    r.target_size = size;
    r.qft_n = n;
    in.instances.push_back(std::move(r));
  }
  // Three circuits rather than one long one: their sum moves less from seed
  // to seed.
  in.devices.push_back(random_device(rng, 6, 8, "bench-irregular-48"));
  for (int k = 0; k < 3; ++k) {
    RouteInstance r;
    r.label = "device.fidelity" + std::to_string(k);
    r.engine = "sabre";
    r.device = 0;
    r.circuit = random_circuit(rng, 40, 80);
    in.instances.push_back(std::move(r));
  }
  in.devices.push_back(random_device(rng, 2, 4, "bench-irregular-8"));
  {
    RouteInstance r;
    r.label = "device.sim";
    r.engine = "sabre";
    r.device = 1;
    r.circuit = random_circuit(rng, 6, 40);
    in.instances.push_back(std::move(r));
  }
  return in;
}

// --------------------------------------------------------------- sat_exact --

std::string SatInstance::label() const {
  return rows == 1 ? "line" + std::to_string(cols)
                   : "grid" + std::to_string(rows) + "x" + std::to_string(cols);
}

std::vector<SatInstance> gen_sat(std::uint64_t) {
  // A fixed set in a fixed order: the solver is deterministic, so nothing
  // here is worth drawing, and a seeded order only moved the heap's peak.
  // QFT-7 on the 2x4 grid runs past a minute, so the grid leg stops at 6.
  return {{1, 5, 5}, {1, 6, 6}, {1, 7, 7}, {2, 3, 5}, {2, 3, 6}};
}

// ------------------------------------------------------------- serve_mixed --

namespace {

const std::vector<QftInstance>& hot_keys() {
  static const std::vector<QftInstance> v = {
      {"lnn", 32},      {"lnn", 48},      {"heavy_hex", 50}, {"heavy_hex", 80},
      {"sycamore", 36}, {"sycamore", 64}, {"lattice", 36},   {"lattice", 64}};
  return v;
}

const std::vector<QftInstance>& distinct_keys() {
  static const std::vector<QftInstance> v = [] {
    std::vector<QftInstance> k;
    for (std::int32_t n = 16; n <= 200; n += 8) k.push_back({"lnn", n});
    for (std::int32_t n = 20; n <= 200; n += 10) k.push_back({"heavy_hex", n});
    // Sycamore and lattice sizes are native only for even m.
    for (std::int32_t m = 4; m <= 14; m += 2) k.push_back({"sycamore", m * m});
    for (std::int32_t m = 4; m <= 14; m += 2) k.push_back({"lattice", m * m});
    return k;
  }();
  return v;
}

const std::vector<QftInstance>& scale_keys() {
  static const std::vector<QftInstance> v = {{"lattice", 1024},
                                             {"sycamore", 1024}};
  return v;
}

/// Draws keys as from a shuffled deck, reshuffled when it runs out: every
/// key is drawn equally often (to within one), so per-phase sums of depth
/// and SWAPs barely move from seed to seed.
class Deck {
 public:
  explicit Deck(const std::vector<QftInstance>& keys) : keys_(keys) {}
  const QftInstance& draw(Rng& rng) {
    if (next_ == order_.size()) {
      order_.resize(keys_.size());
      for (std::size_t i = 0; i < order_.size(); ++i) order_[i] = i;
      shuffle(order_, rng);
      next_ = 0;
    }
    return keys_[order_[next_++]];
  }

 private:
  const std::vector<QftInstance>& keys_;
  std::vector<std::size_t> order_;
  std::size_t next_ = 0;
};

ServeReq qft_req(ReqKind kind, const QftInstance& k, std::int64_t id) {
  ServeReq r;
  r.kind = kind;
  r.engine = k.engine;
  r.n = k.n;
  r.line = "{\"id\":" + std::to_string(id) + ",\"engine\":\"" + k.engine +
           "\",\"n\":" + std::to_string(k.n) + "}";
  return r;
}

ServeReq circuit_req(ReqKind kind, const LogicalSpec& c,
                     const DeviceSpec* device, std::int64_t id) {
  ServeReq r;
  r.kind = kind;
  r.engine = "sabre";
  r.n = c.qubits;
  r.h = c.count('h');
  r.cphase = c.count('p');
  r.cnot = c.count('c');
  r.line = "{\"id\":" + std::to_string(id) +
           ",\"engine\":\"sabre\",\"qasm\":" + json_string(c.qasm);
  if (device != nullptr) {
    r.line += ",\"device\":" + json_string(device->json) +
              ",\"objective\":\"fidelity\"";
  }
  r.line += "}";
  return r;
}

ServePhase gen_phase(Rng& rng, int count, double rate,
                     const std::vector<DeviceSpec>& devices,
                     std::int64_t& next_id) {
  // Exact shares, shuffled: every phase of every seed carries the same mix.
  std::vector<ReqKind> kinds;
  const std::pair<ReqKind, int> shares[] = {
      {ReqKind::kHot, cfg::kShareHot},
      {ReqKind::kDistinct, cfg::kShareDistinct},
      {ReqKind::kQasm, cfg::kShareQasm},
      {ReqKind::kDevice, cfg::kShareDevice}};
  for (const auto& [kind, pct] : shares) {
    kinds.insert(kinds.end(), static_cast<std::size_t>(count * pct / 100),
                 kind);
  }
  const int scale = count * cfg::kShareScale / 100;
  kinds.resize(static_cast<std::size_t>(count - scale), ReqKind::kHot);
  shuffle(kinds, rng);
  // Device-scale requests go in evenly spaced. Spaced further apart than a
  // cached entry survives the distinct traffic, each one misses the cache
  // and at most one of them is resident at a time: the phase's work and
  // peak memory then do not depend on where the shuffle put them.
  for (int k = 0; k < scale; ++k) {
    const int gap = count / scale;
    kinds.insert(kinds.begin() + k * gap + gap / 2, ReqKind::kScale);
  }

  ServePhase p;
  Deck hot(hot_keys()), distinct(distinct_keys()), large(scale_keys());
  double t = 0.0;
  for (const ReqKind kind : kinds) {
    const std::int64_t id = next_id++;
    switch (kind) {
      case ReqKind::kHot:
        p.reqs.push_back(qft_req(kind, hot.draw(rng), id));
        break;
      case ReqKind::kDistinct:
        p.reqs.push_back(qft_req(kind, distinct.draw(rng), id));
        break;
      case ReqKind::kScale:
        p.reqs.push_back(qft_req(kind, large.draw(rng), id));
        break;
      case ReqKind::kQasm: {
        const auto q = static_cast<std::int32_t>(6 + rng.below(11));
        const auto g = static_cast<std::int32_t>(30 + rng.below(51));
        p.reqs.push_back(
            circuit_req(kind, random_circuit(rng, q, g), nullptr, id));
        break;
      }
      case ReqKind::kDevice: {
        const DeviceSpec& d = devices[rng.below(devices.size())];
        const auto q = static_cast<std::int32_t>(6 + rng.below(7));
        const auto g = static_cast<std::int32_t>(30 + rng.below(31));
        p.reqs.push_back(
            circuit_req(kind, random_circuit(rng, q, g), &d, id));
        break;
      }
    }
    p.offsets.push_back(t);
    t += rng.exp_gap(rate);
  }
  return p;
}

}  // namespace

std::vector<QftInstance> serve_qft_keys() {
  std::vector<QftInstance> v = hot_keys();
  v.insert(v.end(), distinct_keys().begin(), distinct_keys().end());
  v.insert(v.end(), scale_keys().begin(), scale_keys().end());
  return v;
}

ServeInputs gen_serve(std::uint64_t seed) {
  Rng rng(seed ^ 0x5e7eULL);
  std::vector<DeviceSpec> devices;
  for (int d = 0; d < 4; ++d) {
    devices.push_back(
        random_device(rng, 3, 4, "bench-inline-" + std::to_string(d)));
  }
  std::int64_t id = 1;
  ServeInputs in;
  in.light = gen_phase(rng, cfg::kLightRequests, cfg::kLightRate, devices, id);
  in.heavy = gen_phase(rng, cfg::kHeavyRequests, cfg::kHeavyRate, devices, id);
  for (const double rate : cfg::kLadder) {
    in.rungs.push_back(gen_phase(rng, cfg::kRungRequests, rate, devices, id));
  }
  return in;
}

// --------------------------------------------------------------- provenance --

std::string serialize(const std::vector<QftInstance>& v) {
  std::string s;
  for (const auto& q : v) s += q.engine + " " + std::to_string(q.n) + "\n";
  return s;
}

std::string serialize(const RouteInputs& r) {
  std::string s;
  for (const auto& d : r.devices) s += d.json + "\n";
  for (const auto& i : r.instances) {
    s += i.label + " " + i.engine + " " + std::to_string(i.qft_n) + " " +
         i.target + " " + std::to_string(i.target_size) + " " +
         std::to_string(i.device) + " " + std::to_string(i.trials) + "\n" +
         i.circuit.qasm;
  }
  return s;
}

std::string serialize(const std::vector<SatInstance>& v) {
  std::string s;
  for (const auto& i : v) s += i.label() + " " + std::to_string(i.n) + "\n";
  return s;
}

std::string serialize(const ServeInputs& in) {
  std::string s;
  const auto add = [&s](const ServePhase& p) {
    for (std::size_t i = 0; i < p.reqs.size(); ++i) {
      s += fmt("%.9f ", p.offsets[i]) + p.reqs[i].line + "\n";
    }
    s += "--\n";
  };
  add(in.light);
  add(in.heavy);
  for (const auto& r : in.rungs) add(r);
  return s;
}

std::uint64_t fingerprint(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const unsigned char c : bytes) {
    h ^= c;
    h *= 0x100000001b3ULL;
  }
  return h;
}

}  // namespace perfbench
