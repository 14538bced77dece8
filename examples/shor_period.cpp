// Order finding — the core quantum step of Shor's algorithm (§1), exercising
// the QFT kernel mapped to the LNN backend. We find the multiplicative order
// r of a = 7 modulo N = 15 (r = 4).
//
// The modular-exponentiation oracle is applied classically to the state
// vector (the paper's scope is the QFT kernel, not arithmetic circuits —
// substitution documented in DESIGN.md); the quantum interference that
// reveals the period runs through our hardware-mapped QFT.
#include <algorithm>
#include <cmath>
#include <cstdio>
#include <map>
#include <numeric>
#include <vector>

#include "circuit/inverse.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "sim/statevector.hpp"

namespace {

// Continued-fraction expansion: best rational approximation p/q of x with
// q <= qmax; returns q.
std::int64_t cf_denominator(double x, std::int64_t qmax) {
  std::int64_t p0 = 0, q0 = 1, p1 = 1, q1 = 0;
  double frac = x;
  for (int it = 0; it < 32; ++it) {
    const std::int64_t a = static_cast<std::int64_t>(std::floor(frac));
    const std::int64_t p2 = a * p1 + p0, q2 = a * q1 + q0;
    if (q2 > qmax) break;
    p0 = p1;
    q0 = q1;
    p1 = p2;
    q1 = q2;
    const double rem = frac - static_cast<double>(a);
    if (rem < 1e-12) break;
    frac = 1.0 / rem;
  }
  return q1 == 0 ? 1 : q1;
}

}  // namespace

int main() {
  using namespace qfto;
  constexpr std::int64_t modulus = 15, base = 7;
  constexpr std::int32_t n = 8;  // counting register: 2^8 = 256 >= N^2? (demo)
  const std::uint64_t dim = std::uint64_t{1} << n;

  // |x>|a^x mod N> prepared by direct application of the oracle; then the
  // work register is "measured" by keeping one coset (standard analysis —
  // interference within a coset is what the QFT extracts).
  std::vector<std::int64_t> f(dim);
  for (std::uint64_t x = 0; x < dim; ++x) {
    std::int64_t v = 1;
    for (std::uint64_t k = 0; k < x; ++k) v = (v * base) % modulus;
    f[x] = v;
  }
  const std::int64_t kept = f[3];  // any observed work value
  std::vector<std::uint64_t> coset;
  for (std::uint64_t x = 0; x < dim; ++x) {
    if (f[x] == kept) coset.push_back(x);
  }

  // Hardware QFT on an 8-qubit line (LNN base case of the framework).
  MapOptions opts;
  opts.keep_circuit = true;
  const MappedCircuit qft = map_qft("lnn", n, opts).mapped;

  StateVector sv(n);
  auto& amps = sv.amplitudes();
  amps.assign(amps.size(), Amplitude{0.0, 0.0});
  const double norm = 1.0 / std::sqrt(static_cast<double>(coset.size()));
  for (std::uint64_t x : coset) {
    // Our kernel realizes U|x> = DFT|rev(x)>: feed the bit-reversed coset so
    // the output is the plain DFT of the periodic set, then embed through
    // the initial mapping (identity for LNN, kept explicit).
    std::uint64_t rx = 0;
    for (std::int32_t j = 0; j < n; ++j) {
      if (x & (std::uint64_t{1} << j)) rx |= std::uint64_t{1} << (n - 1 - j);
    }
    std::uint64_t idx = 0;
    for (std::int32_t j = 0; j < n; ++j) {
      if (rx & (std::uint64_t{1} << j)) idx |= std::uint64_t{1} << qft.initial[j];
    }
    amps[idx] = Amplitude{norm, 0.0};
  }
  sv.apply(qft.circuit);

  // Sample the peaks: outcome y (read back through final mapping, undoing
  // the kernel's bit reversal) concentrates near multiples of dim/r.
  std::map<std::int64_t, double> order_votes;
  std::vector<std::pair<double, std::uint64_t>> outcomes;
  for (std::uint64_t y = 0; y < dim; ++y) {
    std::uint64_t idx = 0;
    for (std::int32_t j = 0; j < n; ++j) {
      if (y & (std::uint64_t{1} << j)) {
        idx |= std::uint64_t{1} << qft.final_mapping[j];
      }
    }
    const double p = std::norm(sv.amplitudes()[idx]);
    if (p > 1e-9) outcomes.push_back({p, y});
  }
  std::sort(outcomes.rbegin(), outcomes.rend());

  std::printf("Order finding for a=%lld mod %lld via hardware QFT-%d (LNN)\n",
              static_cast<long long>(base), static_cast<long long>(modulus), n);
  for (std::size_t i = 0; i < std::min<std::size_t>(outcomes.size(), 6); ++i) {
    const auto [p, y] = outcomes[i];
    const std::int64_t r = cf_denominator(static_cast<double>(y) / dim, modulus);
    std::printf("  outcome y=%3llu  prob=%.3f  y/2^n=%.4f  candidate r=%lld\n",
                static_cast<unsigned long long>(y), p,
                static_cast<double>(y) / dim, static_cast<long long>(r));
    order_votes[r] += p;
  }
  // The order is the least candidate r with a^r = 1 (mod N).
  std::int64_t found = 0;
  for (const auto& [r, weight] : order_votes) {
    std::int64_t v = 1;
    for (std::int64_t k = 0; k < r; ++k) v = (v * base) % modulus;
    if (r > 1 && v == 1) {
      found = r;
      break;
    }
  }
  std::printf("recovered order r = %lld (expected 4)\n",
              static_cast<long long>(found));
  if (found == 4) {
    const std::int64_t g1 = std::gcd<std::int64_t>(
        static_cast<std::int64_t>(std::pow(base, found / 2)) - 1, modulus);
    const std::int64_t g2 = std::gcd<std::int64_t>(
        static_cast<std::int64_t>(std::pow(base, found / 2)) + 1, modulus);
    std::printf("factors of %lld: %lld x %lld\n",
                static_cast<long long>(modulus), static_cast<long long>(g1),
                static_cast<long long>(g2));
  }
  return found == 4 ? 0 : 1;
}
