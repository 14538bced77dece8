#include "checks.hpp"

#include <cmath>
#include <complex>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <vector>

#include "sim/dft.hpp"
#include "sim/statevector.hpp"

namespace perfbench {

ExpectedTable ExpectedTable::load(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("cannot read expected values: " + path);
  ExpectedTable t;
  std::string line;
  int lineno = 0;
  while (std::getline(in, line)) {
    ++lineno;
    if (line.empty() || line[0] == '#') continue;
    std::istringstream ss(line);
    std::string key;
    Expected e;
    if (!(ss >> key >> e.depth >> e.swaps)) {
      throw std::runtime_error(path + ":" + std::to_string(lineno) +
                               ": expected `<key> <depth> <swaps>`");
    }
    t.rows_[key] = e;
  }
  return t;
}

const Expected* ExpectedTable::find(const std::string& key) const {
  const auto it = rows_.find(key);
  return it == rows_.end() ? nullptr : &it->second;
}

std::string ExpectedTable::text() const {
  std::string s =
      "# Depth and SWAP count every deterministic benchmark instance must\n"
      "# reproduce. Regenerate with: qfto_perfbench --record-expected PATH\n";
  for (const auto& [k, e] : rows_) {
    s += k + " " + std::to_string(e.depth) + " " + std::to_string(e.swaps) +
         "\n";
  }
  return s;
}

std::string qft_key(const std::string& engine, std::int32_t n) {
  return "qft/" + engine + "/" + std::to_string(n);
}

std::string sabre_qft_key(const RouteInstance& r) {
  return "sabre-qft/" + r.target + std::to_string(r.target_size) + "/" +
         std::to_string(r.qft_n);
}

std::string satmap_key(const SatInstance& s) {
  return "satmap/" + s.label() + "/" + std::to_string(s.n);
}

// ------------------------------------------------------------ responses ----

namespace {

/// Position just after `"key":` in a flat JSON object, or npos.
std::size_t field(const std::string& line, const char* key) {
  const std::string pat = std::string("\"") + key + "\":";
  const std::size_t p = line.find(pat);
  return p == std::string::npos ? p : p + pat.size();
}

/// A string field's raw (still escaped) text; "" when absent.
std::string str_field(const std::string& line, const char* key) {
  const std::size_t p = field(line, key);
  if (p == std::string::npos || p >= line.size() || line[p] != '"') return "";
  std::size_t end = p + 1;
  while (end < line.size() && line[end] != '"') end += line[end] == '\\' ? 2 : 1;
  return line.substr(p + 1, end - p - 1);
}

bool num_field(const std::string& line, const char* key, double& out) {
  const std::size_t p = field(line, key);
  if (p == std::string::npos) return false;
  char* end = nullptr;
  out = std::strtod(line.c_str() + p, &end);
  return end != line.c_str() + p;
}

bool int_field(const std::string& line, const char* key, std::int64_t& out) {
  double v = 0.0;
  if (!num_field(line, key, v)) return false;
  out = static_cast<std::int64_t>(std::llround(v));
  return true;
}

std::string expect_counts(const char* what, std::int64_t got,
                          std::int64_t want) {
  if (got == want) return "";
  return std::string(what) + " count " + std::to_string(got) + " != " +
         std::to_string(want);
}

std::string expect_table(const ExpectedTable& table, const std::string& key,
                         std::int64_t depth, std::int64_t swaps) {
  const Expected* e = table.find(key);
  if (e == nullptr) return "no expected value for " + key;
  if (e->depth != depth || e->swaps != swaps) {
    return key + ": depth/swaps " + std::to_string(depth) + "/" +
           std::to_string(swaps) + " != expected " + std::to_string(e->depth) +
           "/" + std::to_string(e->swaps);
  }
  return "";
}

Verdict first_error(std::initializer_list<std::string> errors) {
  for (const auto& e : errors) {
    if (!e.empty()) return Verdict::wrong(e);
  }
  return Verdict{};
}

}  // namespace

Response parse_response(const std::string& line) {
  Response r;
  const std::size_t ok = field(line, "ok");
  if (ok == std::string::npos) return r;
  r.parsed = true;
  r.ok = line.compare(ok, 4, "true") == 0;
  r.status = str_field(line, "status");
  r.error = str_field(line, "error");
  r.verified = int_field(line, "depth", r.depth);
  int_field(line, "n", r.n);
  int_field(line, "h", r.h);
  int_field(line, "cphase", r.cphase);
  int_field(line, "swap", r.swap);
  int_field(line, "cnot", r.cnot);
  num_field(line, "log10_fidelity", r.log10_fidelity);
  num_field(line, "map_seconds", r.map_s);
  num_field(line, "check_seconds", r.check_s);
  num_field(line, "queue_seconds", r.queue_s);
  const std::size_t hit = field(line, "cache_hit");
  r.cache_hit = hit != std::string::npos && line.compare(hit, 4, "true") == 0;
  return r;
}

// --------------------------------------------------------------- checks ----

Verdict check_qft(const qfto::MapResult& r, const ExpectedTable& table,
                  const std::string& key) {
  if (!r.check.ok) return Verdict::wrong("checker: " + r.check.error);
  const std::int64_t n = r.n;
  return first_error({expect_counts("H", r.check.counts.h, n),
                      expect_counts("CPHASE", r.check.counts.cphase,
                                    n * (n - 1) / 2),
                      expect_table(table, key, r.check.depth,
                                   r.check.counts.swap)});
}

Verdict check_circuit(const qfto::MapResult& r, const LogicalSpec& spec) {
  if (!r.check.ok) return Verdict::wrong("checker: " + r.check.error);
  return first_error(
      {expect_counts("H", r.check.counts.h, spec.count('h')),
       expect_counts("CPHASE", r.check.counts.cphase, spec.count('p')),
       expect_counts("CNOT", r.check.counts.cnot, spec.count('c'))});
}

Verdict check_response(const Response& resp, const ServeReq& req,
                       const ExpectedTable& table) {
  if (!resp.parsed) return Verdict::wrong("unparseable response");
  if (!resp.ok || resp.status != "ok") {
    return Verdict::refused("status " + resp.status + ": " + resp.error);
  }
  if (!resp.verified) return Verdict::wrong("no checker verdict");
  if (req.kind == ReqKind::kQasm || req.kind == ReqKind::kDevice) {
    return first_error({expect_counts("H", resp.h, req.h),
                        expect_counts("CPHASE", resp.cphase, req.cphase),
                        expect_counts("CNOT", resp.cnot, req.cnot)});
  }
  const std::int64_t n = resp.n;
  return first_error(
      {expect_counts("n", n, req.n), expect_counts("H", resp.h, n),
       expect_counts("CPHASE", resp.cphase, n * (n - 1) / 2),
       expect_table(table, qft_key(req.engine, req.n), resp.depth,
                    resp.swap)});
}

// ------------------------------------------------------------ simulation --

qfto::Circuit to_circuit(const LogicalSpec& spec) {
  qfto::Circuit c(spec.qubits);
  for (const GateSpec& g : spec.gates) {
    const double angle = M_PI / g.div;
    switch (g.kind) {
      case 'h': c.append(qfto::Gate::h(g.a)); break;
      case 'x': c.append(qfto::Gate::x(g.a)); break;
      case 'z': c.append(qfto::Gate::rz(g.a, angle)); break;
      case 'c': c.append(qfto::Gate::cnot(g.a, g.b)); break;
      case 'p': c.append(qfto::Gate::cphase(g.a, g.b, angle)); break;
    }
  }
  return c;
}

namespace {

std::uint64_t embed(std::uint64_t x, const std::vector<qfto::PhysicalQubit>& m) {
  std::uint64_t out = 0;
  for (std::size_t l = 0; l < m.size(); ++l) {
    if ((x >> l) & 1U) out |= std::uint64_t{1} << m[l];
  }
  return out;
}

std::uint64_t bit_reverse(std::uint64_t x, std::int32_t n) {
  std::uint64_t r = 0;
  for (std::int32_t b = 0; b < n; ++b) r |= ((x >> b) & 1U) << (n - 1 - b);
  return r;
}

}  // namespace

double sim_mismatch(const qfto::MappedCircuit& mc,
                    const qfto::Circuit* logical, std::uint64_t seed) {
  const std::int32_t n = mc.num_logical();
  const std::uint64_t dim = std::uint64_t{1} << n;
  Rng rng(seed);
  std::vector<std::complex<double>> psi(dim);
  double norm2 = 0.0;
  for (auto& a : psi) {
    a = {rng.real() - 0.5, rng.real() - 0.5};
    norm2 += std::norm(a);
  }
  for (auto& a : psi) a /= std::sqrt(norm2);

  std::vector<std::complex<double>> ref(dim);
  if (logical == nullptr) {
    for (std::uint64_t x = 0; x < dim; ++x) ref[bit_reverse(x, n)] = psi[x];
    qfto::qft_reference(ref);
  } else {
    qfto::StateVector sv(n);
    sv.amplitudes() = psi;
    sv.apply(*logical);
    ref = sv.amplitudes();
  }

  qfto::StateVector phys(mc.num_physical());
  auto& pa = phys.amplitudes();
  pa.assign(pa.size(), {0.0, 0.0});
  for (std::uint64_t x = 0; x < dim; ++x) pa[embed(x, mc.initial)] = psi[x];
  phys.apply(mc.circuit);

  std::vector<std::complex<double>> want(pa.size(), {0.0, 0.0});
  for (std::uint64_t y = 0; y < dim; ++y) {
    want[embed(y, mc.final_mapping)] = ref[y];
  }
  double worst = 0.0;
  for (std::size_t i = 0; i < pa.size(); ++i) {
    worst = std::max(worst, std::abs(pa[i] - want[i]));
  }
  return worst;
}

}  // namespace perfbench
