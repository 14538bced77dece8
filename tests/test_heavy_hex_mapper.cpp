#include <gtest/gtest.h>

#include "arch/heavy_hex.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/stats.hpp"
#include "mapper/heavy_hex_mapper.hpp"
#include "verify/equivalence.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace {

class HeavyHexSweep : public ::testing::TestWithParam<int> {};

TEST_P(HeavyHexSweep, CheckerInvariants) {
  const int n = GetParam();
  const MappedCircuit mc = map_qft_heavy_hex(n);
  const CouplingGraph g = make_heavy_hex(heavy_hex_layout(n));
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << "n=" << n << ": " << r.error;
  EXPECT_EQ(r.counts.cphase, qft_pair_count(n));
  EXPECT_EQ(r.counts.h, n);
}

TEST_P(HeavyHexSweep, ExactDepthLaw) {
  const int n = GetParam();
  const MappedCircuit mc = map_qft_heavy_hex(n);
  const CouplingGraph g = make_heavy_hex(heavy_hex_layout(n));
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << r.error;
  // §4 quotes 5N + O(1) for the one-dangle-per-four configuration; this
  // construction takes exactly 5N - 9 cycles and 2N²/5 SWAPs at every
  // native size (N a multiple of five).
  EXPECT_EQ(r.depth, 5 * n - 9) << "n=" << n;
  EXPECT_EQ(r.counts.swap, 2 * static_cast<std::int64_t>(n) * n / 5)
      << "n=" << n;
}

TEST_P(HeavyHexSweep, DanglingQubitsCaptureSmallestIndices) {
  const int n = GetParam();
  const HeavyHexLayout lay = heavy_hex_layout(n);
  const MappedCircuit mc = map_qft_heavy_hex(n);
  // Final mapping: logical g sits on dangling node g (§4, Fig. 23).
  for (std::int32_t g = 0; g < lay.num_dangling(); ++g) {
    EXPECT_EQ(mc.final_mapping[g], lay.dangling_node(g)) << "n=" << n;
  }
}

INSTANTIATE_TEST_SUITE_P(Sizes, HeavyHexSweep,
                         ::testing::Values(5, 10, 15, 20, 25, 30, 40, 50, 75,
                                           100));

class HeavyHexSim : public ::testing::TestWithParam<int> {};

TEST_P(HeavyHexSim, UnitaryEquivalence) {
  const int n = GetParam();
  const MappedCircuit mc = map_qft_heavy_hex(n);
  EXPECT_LT(mapped_equivalence_error(mc), 1e-9) << "n=" << n;
}

INSTANTIATE_TEST_SUITE_P(SmallSizes, HeavyHexSim, ::testing::Values(5, 10));

class HeavyHexCustom
    : public ::testing::TestWithParam<std::pair<int, std::vector<int>>> {};

TEST_P(HeavyHexCustom, IrregularJunctionSpacings) {
  const auto& [main_len, junctions] = GetParam();
  const HeavyHexLayout lay = heavy_hex_layout_custom(main_len, junctions);
  const MappedCircuit mc = map_qft_heavy_hex(lay);
  const CouplingGraph g = make_heavy_hex(lay);
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << r.error;
  // General bound from Appendix 3: <= 6N + O(1).
  EXPECT_LE(r.depth, 6 * lay.num_qubits + 24);
  if (lay.num_qubits <= 12) {
    EXPECT_LT(mapped_equivalence_error(mc), 1e-9);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Layouts, HeavyHexCustom,
    ::testing::Values(
        std::pair<int, std::vector<int>>{4, {}},          // plain line
        std::pair<int, std::vector<int>>{4, {0}},         // junction at start
        std::pair<int, std::vector<int>>{4, {3}},         // junction at end
        std::pair<int, std::vector<int>>{6, {0, 5}},      // both ends
        std::pair<int, std::vector<int>>{8, {1, 2, 5}},   // adjacent junctions
        std::pair<int, std::vector<int>>{10, {0, 1, 2}},  // clustered left
        std::pair<int, std::vector<int>>{5, {0, 1, 2, 3, 4}},  // comb
        std::pair<int, std::vector<int>>{30, {7, 21}},    // sparse
        std::pair<int, std::vector<int>>{16, {3, 7, 11, 15}}));  // paper-like

TEST(HeavyHex, NoDanglingEqualsLnnBehaviour) {
  const HeavyHexLayout lay = heavy_hex_layout_custom(12, {});
  const MappedCircuit mc = map_qft_heavy_hex(lay);
  const CouplingGraph g = make_heavy_hex(lay);
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LE(r.depth, 4 * 12 + 8);
  const GateCounts gc = count_gates(mc.circuit);
  EXPECT_EQ(gc.swap, qft_pair_count(12));
}

TEST(HeavyHex, DepthConstantNearFiveN) {
  // The paper proves 5N + O(1) for the evaluated configuration. Confirm the
  // measured constant is close to 5 at a size where O(1) is negligible.
  const int n = 200;
  const MappedCircuit mc = map_qft_heavy_hex(n);
  const CouplingGraph g = make_heavy_hex(heavy_hex_layout(n));
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << r.error;
  const double constant = static_cast<double>(r.depth) / n;
  EXPECT_GE(constant, 3.5);
  EXPECT_LE(constant, 6.0);
}

}  // namespace
}  // namespace qfto
