#include <gtest/gtest.h>

#include <cmath>
#include <complex>

#include "arch/line.hpp"
#include "circuit/inverse.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/stats.hpp"
#include "common/prng.hpp"
#include "mapper/lnn_mapper.hpp"
#include "sim/statevector.hpp"
#include "verify/equivalence.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace {

class LnnSweep : public ::testing::TestWithParam<int> {};

TEST_P(LnnSweep, CheckerInvariants) {
  const int n = GetParam();
  const MappedCircuit mc = map_qft_lnn(n);
  const CouplingGraph g = make_line(n);
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << "n=" << n << ": " << r.error;
  EXPECT_EQ(r.counts.cphase, qft_pair_count(n));
  EXPECT_EQ(r.counts.h, n);
}

TEST_P(LnnSweep, ExactDepthLaw) {
  const int n = GetParam();
  const MappedCircuit mc = map_qft_lnn(n);
  const CouplingGraph g = make_line(n);
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << r.error;
  // Maslov/Zhang quote ~4N cycles; this construction takes exactly 4N - 4
  // for N >= 2 (N = 1 is a lone H, depth 1) with one SWAP per logical pair.
  EXPECT_EQ(r.depth, n == 1 ? 1 : 4 * n - 4) << "n=" << n;
  EXPECT_EQ(r.counts.swap, static_cast<std::int64_t>(n) * (n - 1) / 2)
      << "n=" << n;
}

TEST_P(LnnSweep, SwapCountIsAllPairsCrossings) {
  const int n = GetParam();
  const MappedCircuit mc = map_qft_lnn(n);
  const GateCounts gc = count_gates(mc.circuit);
  // Full reversal: every pair crosses exactly once.
  EXPECT_EQ(gc.swap, qft_pair_count(n));
}

TEST_P(LnnSweep, FinalMappingIsReversed) {
  const int n = GetParam();
  const MappedCircuit mc = map_qft_lnn(n);
  for (int i = 0; i < n; ++i) {
    EXPECT_EQ(mc.final_mapping[i], n - 1 - i) << "n=" << n << " i=" << i;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, LnnSweep,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 12, 16, 23,
                                           32, 40, 64, 100));

class LnnSim : public ::testing::TestWithParam<int> {};

TEST_P(LnnSim, UnitaryEquivalence) {
  const int n = GetParam();
  const MappedCircuit mc = map_qft_lnn(n);
  EXPECT_LT(mapped_equivalence_error(mc), 1e-9) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SmallSizes, LnnSim,
                         ::testing::Values(1, 2, 3, 4, 5, 6, 7, 8, 9, 10));

TEST(Lnn, DepthMatchesKnownConstants) {
  // The 4N - 4 law on a larger instance.
  const int n = 256;
  const MappedCircuit mc = map_qft_lnn(n);
  const CouplingGraph g = make_line(n);
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_EQ(r.depth, 4 * n - 4);
  EXPECT_EQ(r.counts.swap, n * (n - 1) / 2);
}

TEST(Lnn, RejectsZeroQubits) {
  EXPECT_THROW(map_qft_lnn(0), std::invalid_argument);
}

TEST(Lnn, ForwardThenInverseIsIdentity) {
  const int n = 6;
  const MappedCircuit fwd = map_qft_lnn(n);
  const MappedCircuit inv = inverse_mapped(fwd);
  StateVector sv(n);
  Xoshiro256ss rng(77);
  for (auto& a : sv.amplitudes()) {
    a = {rng.uniform_double() - 0.5, rng.uniform_double() - 0.5};
  }
  const auto before = sv.amplitudes();
  double norm = 0;
  for (auto& a : sv.amplitudes()) norm += std::norm(a);
  sv.apply(fwd.circuit);
  sv.apply(inv.circuit);
  for (std::size_t i = 0; i < before.size(); ++i) {
    EXPECT_NEAR(std::abs(sv.amplitudes()[i] - before[i]), 0.0, 1e-9);
  }
}

}  // namespace
}  // namespace qfto
