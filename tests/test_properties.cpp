// Property-based and failure-injection tests: randomized layouts, randomized
// corruption of known-good circuits (the checker must catch every class of
// fault), and cross-validation between the static checker and the simulator.
#include <gtest/gtest.h>

#include "arch/grid.hpp"
#include "arch/heavy_hex.hpp"
#include "arch/sycamore.hpp"
#include "baseline/lnn_baseline.hpp"
#include "circuit/qft_spec.hpp"
#include "common/prng.hpp"
#include "mapper/heavy_hex_mapper.hpp"
#include "mapper/qft_state.hpp"
#include "mapper/sycamore_mapper.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "verify/equivalence.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace {

// ---------------------------------------------- randomized heavy-hex -------

class RandomHeavyHex : public ::testing::TestWithParam<int> {};

TEST_P(RandomHeavyHex, AnyJunctionPlacementMapsCorrectly) {
  Xoshiro256ss rng(GetParam());
  for (int trial = 0; trial < 8; ++trial) {
    const std::int32_t main_len =
        4 + static_cast<std::int32_t>(rng.uniform(28));
    std::vector<std::int32_t> junctions;
    for (std::int32_t p = 0; p < main_len; ++p) {
      if (rng.uniform(100) < 30) junctions.push_back(p);
    }
    const HeavyHexLayout lay = heavy_hex_layout_custom(main_len, junctions);
    const MappedCircuit mc = map_qft_heavy_hex(lay);
    const CouplingGraph g = make_heavy_hex(lay);
    const auto r = check_qft_mapping(mc, g);
    ASSERT_TRUE(r.ok) << "seed=" << GetParam() << " trial=" << trial
                      << " main_len=" << main_len << ": " << r.error;
    EXPECT_LE(r.depth, 6 * lay.num_qubits + 30);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, RandomHeavyHex, ::testing::Range(1, 9));

// ------------------------------------------------ failure injection --------

MappedCircuit golden() { return map_qft_sycamore(4); }

TEST(FailureInjection, DeletingAnyCphaseIsCaught) {
  const MappedCircuit base = golden();
  const CouplingGraph g = make_sycamore(4);
  Xoshiro256ss rng(42);
  int tested = 0;
  while (tested < 10) {
    const std::size_t victim = rng.uniform(base.circuit.size());
    if (base.circuit[victim].kind != GateKind::kCPhase) continue;
    MappedCircuit broken = base;
    Circuit c(base.circuit.num_qubits());
    for (std::size_t i = 0; i < base.circuit.size(); ++i) {
      if (i != victim) c.append(base.circuit[i]);
    }
    broken.circuit = std::move(c);
    EXPECT_FALSE(check_qft_mapping(broken, g).ok);
    ++tested;
  }
}

TEST(FailureInjection, DeletingAnySwapIsCaught) {
  // Removing a SWAP desynchronizes the tracked mapping: later gates hit the
  // wrong logical pairs or the final mapping mismatches.
  const MappedCircuit base = golden();
  const CouplingGraph g = make_sycamore(4);
  Xoshiro256ss rng(43);
  int tested = 0;
  while (tested < 10) {
    const std::size_t victim = rng.uniform(base.circuit.size());
    if (base.circuit[victim].kind != GateKind::kSwap) continue;
    MappedCircuit broken = base;
    Circuit c(base.circuit.num_qubits());
    for (std::size_t i = 0; i < base.circuit.size(); ++i) {
      if (i != victim) c.append(base.circuit[i]);
    }
    broken.circuit = std::move(c);
    EXPECT_FALSE(check_qft_mapping(broken, g).ok);
    ++tested;
  }
}

TEST(FailureInjection, PerturbingAnyAngleIsCaught) {
  const MappedCircuit base = golden();
  const CouplingGraph g = make_sycamore(4);
  Xoshiro256ss rng(44);
  int tested = 0;
  while (tested < 10) {
    const std::size_t victim = rng.uniform(base.circuit.size());
    if (base.circuit[victim].kind != GateKind::kCPhase) continue;
    MappedCircuit broken = base;
    Circuit c(base.circuit.num_qubits());
    for (std::size_t i = 0; i < base.circuit.size(); ++i) {
      Gate gate = base.circuit[i];
      if (i == victim) gate.angle *= 1.5;
      c.append(gate);
    }
    broken.circuit = std::move(c);
    EXPECT_FALSE(check_qft_mapping(broken, g).ok);
    ++tested;
  }
}

TEST(FailureInjection, SwappedGateOrderAcrossHWindowIsCaught) {
  // Move the first CPHASE after the H on its larger qubit: window violation.
  MappedCircuit mc;
  mc.circuit = Circuit(2);
  mc.circuit.append(Gate::h(0));
  mc.circuit.append(Gate::h(1));  // closes the window for pair {0,1}
  mc.circuit.append(Gate::cphase(0, 1, qft_angle(0, 1)));
  mc.initial = {0, 1};
  mc.final_mapping = {0, 1};
  CouplingGraph g("pair", 2);
  g.add_edge(0, 1);
  const auto r = check_qft_mapping(mc, g);
  EXPECT_FALSE(r.ok);
  // And the simulator agrees the unitary is wrong:
  EXPECT_GT(mapped_equivalence_error(mc), 1e-3);
}

// -------------------------------------- checker vs simulator agreement -----

TEST(CrossValidation, CheckerAcceptImpliesSimulatorAccept) {
  // Any circuit the checker accepts must be unitarily equivalent; sweep the
  // small sizes of every mapper family on one seed.
  struct Item {
    MappedCircuit mc;
    const char* what;
  };
  std::vector<Item> items;
  items.push_back({map_qft_sycamore(2), "sycamore-2"});
  items.push_back({map_qft_heavy_hex(10), "heavyhex-10"});
  items.push_back({map_qft_on_path(make_grid(3, 3),
                                   {0, 1, 2, 5, 4, 3, 6, 7, 8}),
                   "grid-snake-9"});
  for (const auto& item : items) {
    EXPECT_LT(mapped_equivalence_error(item.mc), 1e-9) << item.what;
  }
}

TEST(CrossValidation, SnakePathOnGridMatchesLnnLaw) {
  const CouplingGraph g = make_grid(4, 4);
  std::vector<PhysicalQubit> path;
  for (int r = 0; r < 4; ++r) {
    for (int c = 0; c < 4; ++c) {
      path.push_back(grid_node(r, r % 2 == 0 ? c : 3 - c, 4));
    }
  }
  const MappedCircuit mc = map_qft_on_path(g, path);
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LE(r.depth, 4 * 16 + 8);
}

// ------------------------------- cross-engine unitary equivalence ----------

// For every registered engine and small n, the mapped hardware circuit must
// be unitarily equivalent to the reference QFT — checked by simulation via
// verify/equivalence.hpp, independently of the static checker's reasoning.
class EngineEquivalence : public ::testing::TestWithParam<const char*> {};

TEST_P(EngineEquivalence, SmallSizesMatchReferenceQft) {
  const std::string engine = GetParam();
  MapOptions opts;
  opts.keep_circuit = true;  // simulated below
  opts.sabre.trials = 2;
  opts.satmap.time_budget_seconds = 60.0;
  // SATMAP's search space explodes with size (Table 1); stay tiny there.
  const std::int32_t max_n = engine == "satmap" ? 4 : 6;
  for (std::int32_t n = 2; n <= max_n; ++n) {
    const MapResult r = map_qft(engine, n, opts);
    ASSERT_TRUE(r.check.ok) << engine << " n=" << n << ": " << r.check.error;
    EXPECT_LT(mapped_equivalence_error(r.mapped), 1e-9)
        << engine << " requested n=" << n << " native n=" << r.n;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineEquivalence,
    ::testing::Values("lnn", "heavy_hex", "sycamore", "lattice", "grid",
                      "lnn_baseline", "sabre", "satmap"),
    [](const ::testing::TestParamInfo<const char*>& info) {
      return std::string(info.param);
    });

// -------------------------------------------------- QftState algebra -------

TEST(QftStateProperty, WindowsNeverDeadlockUnderRandomGreedyOrder) {
  // Repeatedly pick any enabled operation at random; the relaxed dependence
  // structure must always drain completely (it is a DAG).
  for (std::uint64_t seed = 1; seed <= 6; ++seed) {
    Xoshiro256ss rng(seed);
    const std::int32_t n = 12;
    QftState st(n);
    std::int64_t steps = 0;
    while (!st.all_done()) {
      ASSERT_LT(++steps, 100000) << "deadlock";
      std::vector<std::pair<std::int32_t, std::int32_t>> choices;
      for (std::int32_t a = 0; a < n; ++a) {
        if (st.can_self(a)) choices.push_back({a, -1});
        for (std::int32_t b = a + 1; b < n; ++b) {
          if (st.can_pair(a, b)) choices.push_back({a, b});
        }
      }
      ASSERT_FALSE(choices.empty()) << "stalled with work remaining";
      const auto [a, b] = choices[rng.uniform(choices.size())];
      if (b < 0) {
        st.mark_self(a);
      } else {
        st.mark_pair(a, b);
      }
    }
    EXPECT_EQ(st.pairs_remaining(), 0);
    EXPECT_EQ(st.selfs_remaining(), 0);
  }
}

}  // namespace
}  // namespace qfto
