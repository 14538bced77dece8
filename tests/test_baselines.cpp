#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <iterator>
#include <set>
#include <string>
#include <vector>

#include "arch/device_model.hpp"
#include "arch/grid.hpp"
#include "arch/heavy_hex.hpp"
#include "arch/lattice_surgery.hpp"
#include "arch/latency_model.hpp"
#include "arch/line.hpp"
#include "arch/sycamore.hpp"
#include "baseline/lnn_baseline.hpp"
#include "baseline/sabre.hpp"
#include "baseline/satmap.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/scheduler.hpp"
#include "circuit/stats.hpp"
#include "common/prng.hpp"
#include "mapper/lnn_mapper.hpp"
#include "qasm/qasm.hpp"
#include "verify/circuit_checker.hpp"
#include "verify/equivalence.hpp"
#include "verify/qft_checker.hpp"

namespace qfto {
namespace {

// ---------------------------------------------------------------- SABRE ----

struct SabreCase {
  std::string name;
  CouplingGraph graph;
  std::int32_t n;  // QFT size
};

std::vector<SabreCase> sabre_cases() {
  std::vector<SabreCase> cases;
  cases.push_back({"line8", make_line(8), 8});
  cases.push_back({"grid3x3", make_grid(3, 3), 9});
  cases.push_back({"sycamore4", make_sycamore(4), 16});
  cases.push_back({"heavyhex10", make_heavy_hex(heavy_hex_layout(10)), 10});
  cases.push_back({"latticefull4", make_lattice_surgery_full(4), 16});
  return cases;
}

class SabreOverArchs : public ::testing::TestWithParam<int> {};

TEST_P(SabreOverArchs, ProducesValidQftMapping) {
  const SabreCase c = sabre_cases()[GetParam()];
  SabreOptions opts;
  opts.trials = 2;
  const MappedCircuit mc = sabre_route(qft_logical(c.n), c.graph, opts);
  const auto r = check_qft_mapping(mc, c.graph);
  ASSERT_TRUE(r.ok) << c.name << ": " << r.error;
  EXPECT_EQ(r.counts.cphase, qft_pair_count(c.n));
}

TEST_P(SabreOverArchs, UnitaryEquivalenceSmall) {
  const SabreCase c = sabre_cases()[GetParam()];
  if (c.n > 10) GTEST_SKIP() << "simulation too large";
  SabreOptions opts;
  opts.trials = 1;
  const MappedCircuit mc = sabre_route(qft_logical(c.n), c.graph, opts);
  EXPECT_LT(mapped_equivalence_error(mc), 1e-9) << c.name;
}

INSTANTIATE_TEST_SUITE_P(Archs, SabreOverArchs, ::testing::Range(0, 5));

TEST(Sabre, NoSwapsNeededWhenAllAdjacent) {
  // QFT-2 on a 2-node line: never needs a SWAP.
  const CouplingGraph g = make_line(2);
  const MappedCircuit mc = sabre_route(qft_logical(2), g);
  EXPECT_EQ(count_gates(mc.circuit).swap, 0);
}

TEST(Sabre, SeedChangesOutcome) {
  // Fig. 27: SABRE output varies with the random seed.
  const CouplingGraph g = make_grid(2, 2);
  const Circuit qft = qft_logical(4);
  std::set<std::string> outputs;
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    outputs.insert(sabre_route_single(qft, g, seed).circuit.to_string());
  }
  EXPECT_GT(outputs.size(), 1u);
}

TEST(Sabre, MultiTrialNotWorseThanSingle) {
  const CouplingGraph g = make_grid(3, 3);
  const Circuit qft = qft_logical(9);
  SabreOptions one;
  one.trials = 1;
  SabreOptions five;
  five.trials = 5;
  const auto d1 = circuit_depth(sabre_route(qft, g, one).circuit);
  const auto d5 = circuit_depth(sabre_route(qft, g, five).circuit);
  EXPECT_LE(d5, d1);
}

TEST(Sabre, RelaxedDagOptionStillValid) {
  const CouplingGraph g = make_grid(3, 3);
  SabreOptions opts;
  opts.use_relaxed_dag = true;
  opts.trials = 2;
  const MappedCircuit mc = sabre_route(qft_logical(9), g, opts);
  const auto r = check_qft_mapping(mc, g);
  ASSERT_TRUE(r.ok) << r.error;
  EXPECT_LT(mapped_equivalence_error(mc), 1e-9);
}

TEST(Sabre, RejectsDisconnectedGraph) {
  CouplingGraph g("disc", 4);
  g.add_edge(0, 1);
  g.add_edge(2, 3);
  EXPECT_THROW(sabre_route(qft_logical(4), g), std::invalid_argument);
}

TEST(Sabre, HandlesNonQftCircuits) {
  // SABRE is a general router: a CNOT+RZ circuit routes fine (validated by
  // simulation rather than the QFT checker).
  Circuit c(4);
  c.append(Gate::h(0));
  c.append(Gate::cnot(0, 3));
  c.append(Gate::rz(3, 0.3));
  c.append(Gate::cnot(1, 2));
  c.append(Gate::cnot(0, 2));
  const CouplingGraph g = make_line(4);
  const MappedCircuit mc = sabre_route(c, g);
  EXPECT_LT(mapped_equivalence_error(mc, 4, 0x5eed, &c), 1e-9);
}

// ------------------------------------------------------ golden routes ----
// SABRE's scoring loop may be made faster, never different: candidate
// order, scores, ties and RNG draws are part of its output. These routes
// were recorded before the frontier-sized scoring rewrite and pin every
// later change to byte-identical circuits on each distance path (the four
// closed forms, BFS rows on irregular graphs, and the fidelity objective on
// a calibrated device).

std::uint64_t fnv1a(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (const unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}

/// Seeded circuit over n qubits: one gate in three is a 1q H/RZ, the rest
/// CNOTs and CPhases on uniformly drawn distinct pairs.
Circuit random_circuit(std::int32_t n, std::int32_t gates,
                       std::uint64_t seed) {
  Xoshiro256ss rng(seed);
  Circuit c(n);
  for (std::int32_t i = 0; i < gates; ++i) {
    const auto a = static_cast<std::int32_t>(rng.uniform(n));
    const auto b = static_cast<std::int32_t>(
        (a + 1 + static_cast<std::int32_t>(rng.uniform(n - 1))) % n);
    switch (rng.uniform(6)) {
      case 0:
        c.append(Gate::h(a));
        break;
      case 1:
        c.append(Gate::rz(a, 0.125 * (1 + i % 7)));
        break;
      case 2:
      case 3:
        c.append(Gate::cnot(a, b));
        break;
      default:
        c.append(Gate::cphase(a, b, 0.5 / (1 + i % 5)));
        break;
    }
  }
  return c;
}

struct GoldenRoute {
  const char* topology;
  bool qft;  // QFT over every node, else random_circuit(logical, 4 * nodes)
  bool relaxed;
  std::uint64_t fnv;
  Cycle depth;
  std::int64_t swaps;
};

// clang-format off
const GoldenRoute kGoldenRoutes[] = {
    {"line16",     true,  false, 0x5758ab93dccf10d1ull, 77, 124},
    {"line16",     true,  true,  0x75e997d859e5114cull, 173, 216},
    {"line16",     false, false, 0x825ff9ef04e7d662ull, 48, 62},
    {"line16",     false, true,  0x60ccdcfb16dcf26cull, 49, 59},
    {"grid8x8",    true,  false, 0x52cc8170e740f336ull, 816, 2100},
    {"grid8x8",    true,  true,  0xef1afc63b9b67a52ull, 2069, 2883},
    {"grid8x8",    false, false, 0xe11ba8e4538c8bc1ull, 116, 263},
    {"grid8x8",    false, true,  0x985182dd7b78e625ull, 112, 293},
    {"lattice5",   true,  false, 0x740ca1669ef363e4ull, 167, 139},
    {"lattice5",   true,  true,  0xd95073d926998c3ull, 252, 81},
    {"lattice5",   false, false, 0x9ba183ebb167ebccull, 46, 28},
    {"lattice5",   false, true,  0xc6c3802f307267eeull, 47, 22},
    {"heavyhex20", true,  false, 0xf1aa5166042c9daaull, 184, 325},
    {"heavyhex20", true,  true,  0xd4e01d72c6110033ull, 250, 342},
    {"heavyhex20", false, false, 0x85b313fe52259d9aull, 66, 96},
    {"heavyhex20", false, true,  0x828ecf158e066e26ull, 74, 97},
    {"sycamore6",  true,  false, 0xe7309d0dd5173d4full, 335, 502},
    {"sycamore6",  true,  true,  0x3ea5c19bc458539dull, 624, 649},
    {"sycamore6",  false, false, 0x84b20f7072438e0bull, 62, 109},
    {"sycamore6",  false, true,  0xa01df6e18cafa411ull, 74, 110},
    {"hhdevice",   true,  false, 0xbfc1a3dcb8d6d08eull, 181, 312},
    {"hhdevice",   true,  true,  0x17f7bb871ebb0a2bull, 259, 253},
    {"hhdevice",   false, false, 0xa0f73477a94b6d38ull, 69, 108},
    {"hhdevice",   false, true,  0xb3e47d928f586faaull, 60, 84},
    {"grid9noisy", true,  false, 0x4a2470156eee5dc8ull, 35, 18},
    {"grid9noisy", true,  true,  0xd2c6c35bf077e24cull, 39, 12},
    {"grid9noisy", false, false, 0xcc6259c390c635e8ull, 31, 13},
    {"grid9noisy", false, true,  0x2e4b2e6275e15bf0ull, 28, 12},
};
// clang-format on

CouplingGraph golden_graph(const std::string& topology) {
  if (topology == "line16") return make_line(16);
  if (topology == "grid8x8") return make_grid(8, 8);
  if (topology == "lattice5") return make_lattice_surgery_full(5);
  if (topology == "heavyhex20") return make_heavy_hex(heavy_hex_layout(20));
  if (topology == "sycamore6") return make_sycamore(6);
  if (topology == "hhdevice") return make_heavy_hex_device(2, 9).graph;
  ADD_FAILURE() << "unknown topology " << topology;
  return make_line(2);
}

class SabreGolden : public ::testing::TestWithParam<std::size_t> {};

TEST_P(SabreGolden, RouteIsByteIdenticalToTheRecordedOne) {
  const GoldenRoute& c = kGoldenRoutes[GetParam()];
  SabreOptions opts;
  opts.trials = 2;
  opts.seed = 11;
  opts.use_relaxed_dag = c.relaxed;
  const bool on_device = std::string(c.topology) == "grid9noisy";
  const DeviceModel device = DeviceModel::load_file(
      std::string(QFTO_SOURCE_DIR) + "/examples/devices/grid9-noisy.json");
  const CouplingGraph g =
      on_device ? device.build_graph() : golden_graph(c.topology);
  if (on_device) {
    opts.fidelity_objective = true;
    opts.device = &device;
  }
  const std::int32_t nodes = g.num_qubits();
  // Random circuits leave about a quarter of the nodes empty, so the
  // unoccupied-node paths of the scorer are pinned too.
  const Circuit logical =
      c.qft ? qft_logical(nodes)
            : random_circuit(nodes - nodes / 4, 4 * nodes, 1000 + nodes);
  const MappedCircuit mc = sabre_route(logical, g, opts);
  const std::string text = mc.circuit.to_string();
  const Cycle depth = circuit_depth(mc.circuit);
  const std::int64_t swaps = count_gates(mc.circuit).swap;
  EXPECT_EQ(fnv1a(text), c.fnv)
      << std::hex << "{\"" << c.topology << "\", " << c.qft << ", "
      << c.relaxed << ", 0x" << fnv1a(text) << "ull, " << std::dec << depth
      << ", " << swaps << "}";
  EXPECT_EQ(depth, c.depth);
  EXPECT_EQ(swaps, c.swaps);
  if (c.qft) {
    EXPECT_TRUE(check_qft_mapping(mc, g).ok);
  } else {
    EXPECT_TRUE(check_circuit_mapping(mc, logical, g).ok);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Recorded, SabreGolden,
    ::testing::Range<std::size_t>(0, std::size(kGoldenRoutes)));

// A 16-qubit, 60-gate circuit from a seeded serve stream: five crossing
// front CXs on the line score every swap within 6.571-6.585, and trial seed
// 7920 used to wander until the swap cap ("routing diverged"). The release
// valve now walks the nearest front gate together after 10 x 16 swaps
// without progress. Embedded as a literal: the *.qasm ignore rule keeps
// loose fixture files out of the tree.
const char* const kLineLivelockQasm = R"qasm(OPENQASM 2.0;
include "qelib1.inc";
qreg q[16];
x q[0];
cx q[14],q[13];
h q[1];
h q[4];
cx q[14],q[11];
h q[3];
rz(0.19634954084936207) q[5];
cu1(1.5707963267948966) q[1],q[0];
cx q[6],q[8];
cx q[4],q[11];
cu1(0.19634954084936207) q[12],q[2];
cx q[5],q[15];
cx q[0],q[6];
cx q[5],q[11];
cx q[2],q[12];
cx q[3],q[14];
rz(1.5707963267948966) q[11];
cu1(0.19634954084936207) q[7],q[14];
cx q[15],q[13];
cx q[2],q[0];
h q[6];
h q[1];
h q[1];
h q[12];
cx q[10],q[15];
cu1(1.5707963267948966) q[13],q[2];
h q[9];
h q[6];
cx q[6],q[13];
cx q[2],q[14];
cu1(0.39269908169872414) q[3],q[1];
cu1(0.19634954084936207) q[8],q[1];
h q[7];
cx q[7],q[4];
cu1(1.5707963267948966) q[6],q[9];
cu1(0.78539816339744828) q[2],q[6];
cx q[1],q[5];
cx q[0],q[9];
h q[9];
cu1(0.39269908169872414) q[1],q[14];
h q[2];
h q[8];
h q[14];
rz(0.19634954084936207) q[4];
rz(0.78539816339744828) q[14];
cu1(0.39269908169872414) q[8],q[6];
cu1(0.78539816339744828) q[5],q[4];
h q[6];
cu1(0.78539816339744828) q[0],q[7];
cu1(1.5707963267948966) q[4],q[9];
x q[11];
cx q[5],q[13];
cu1(1.5707963267948966) q[6],q[3];
cu1(0.78539816339744828) q[8],q[1];
cu1(1.5707963267948966) q[11],q[15];
cx q[12],q[9];
cu1(1.5707963267948966) q[1],q[7];
h q[7];
cx q[5],q[15];
cx q[12],q[1];
)qasm";

TEST(Sabre, ReleaseValveEndsLineLivelock) {
  const Circuit logical = from_qasm(kLineLivelockQasm);
  ASSERT_EQ(logical.num_qubits(), 16);
  const CouplingGraph g = make_line(16);
  MappedCircuit mc;
  ASSERT_NO_THROW(mc = sabre_route_single(logical, g, 7920));
  const auto single = check_circuit_mapping(mc, logical, g);
  EXPECT_TRUE(single.ok) << single.error;
  ASSERT_NO_THROW(mc = sabre_route(logical, g));
  const auto best = check_circuit_mapping(mc, logical, g);
  EXPECT_TRUE(best.ok) << best.error;
}

// ------------------------------------------------------------- LNN path ----

TEST(LnnBaseline, SnakeOnLatticeIsValid) {
  for (int m : {3, 4, 5}) {
    const CouplingGraph g = make_lattice_surgery_full(m);
    const auto path = lattice_snake_path(m);
    const MappedCircuit mc = map_qft_on_path(g, path);
    const auto r = check_qft_mapping(mc, g, LatencyModel::lattice(g));
    ASSERT_TRUE(r.ok) << "m=" << m << ": " << r.error;
    EXPECT_EQ(r.counts.cphase, qft_pair_count(m * m));
  }
}

TEST(LnnBaseline, SnakePathUsesOnlySlowLinks) {
  const int m = 4;
  const CouplingGraph g = make_lattice_surgery_full(m);
  const auto path = lattice_snake_path(m);
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    EXPECT_EQ(g.link_type(path[i], path[i + 1]), LinkType::kCnotOnly);
  }
}

TEST(LnnBaseline, WeightedDepthWorseThanUnitAware) {
  // §2.3 discussion: on lattice surgery the Hamiltonian-path LNN pays slow
  // SWAPs everywhere; the unit-aware mapper must beat it in weighted depth.
  const int m = 6;
  const CouplingGraph full = make_lattice_surgery_full(m);
  const auto lnn =
      check_qft_mapping(map_qft_on_path(full, lattice_snake_path(m)), full,
                        LatencyModel::lattice(full));
  ASSERT_TRUE(lnn.ok) << lnn.error;

  const CouplingGraph rot = make_lattice_surgery_rotated(m);
  // (compare against our mapper in bench; here assert the LNN weighted depth
  // exceeds its own unit-latency depth by the slow-swap factor's signature)
  const auto lnn_unit = check_qft_mapping(
      map_qft_on_path(full, lattice_snake_path(m)), full, LatencyModel());
  EXPECT_GT(lnn.depth, 3 * lnn_unit.depth);
}

TEST(LnnBaseline, RejectsBrokenPath) {
  const CouplingGraph g = make_line(4);
  EXPECT_THROW(map_qft_on_path(g, {0, 2, 1, 3}), std::invalid_argument);
}

// --------------------------------------------------------------- SATMAP ----

TEST(Satmap, SolvesQft2OnLine) {
  const CouplingGraph g = make_line(2);
  SatmapOptions opts;
  opts.time_budget_seconds = 20.0;
  const SatmapResult r = satmap_route(qft_logical(2), g, opts);
  ASSERT_TRUE(r.solved);
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;
  EXPECT_EQ(r.swaps, 0);
  EXPECT_EQ(chk.depth, 3);  // H, CP, H is depth-optimal
}

TEST(Satmap, SolvesQft3OnLineOptimally) {
  const CouplingGraph g = make_line(3);
  SatmapOptions opts;
  opts.time_budget_seconds = 30.0;
  const SatmapResult r = satmap_route(qft_logical(3), g, opts);
  ASSERT_TRUE(r.solved);
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;
  EXPECT_LT(mapped_equivalence_error(r.mapped), 1e-9);
}

TEST(Satmap, SolvesQft4OnGrid) {
  // The Table 1 "2*2 Sycamore" scale. SATMAP found depth 10 / 3 SWAPs there.
  const CouplingGraph g = make_grid(2, 2);
  SatmapOptions opts;
  opts.time_budget_seconds = 60.0;
  const SatmapResult r = satmap_route(qft_logical(4), g, opts);
  ASSERT_TRUE(r.solved) << "timed out";
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;
  EXPECT_LT(mapped_equivalence_error(r.mapped), 1e-9);
  EXPECT_LE(r.swaps, 4);
}

TEST(Satmap, TimesOutOnLargerInstances) {
  // The Table 1 behaviour for >= 16 qubits under a tight budget.
  const CouplingGraph g = make_sycamore(4);
  SatmapOptions opts;
  opts.time_budget_seconds = 0.5;
  const SatmapResult r = satmap_route(qft_logical(16), g, opts);
  EXPECT_FALSE(r.solved);
  EXPECT_TRUE(r.timed_out);
}

TEST(Satmap, IncrementalMatchesMonolithicOnOutcomes) {
  // The acceptance bar for the incremental rewrite: bit-compatible verdicts,
  // minimal T and minimal SWAP count against the re-encode-per-probe oracle,
  // on every instance CI can afford to solve both ways.
  struct Case {
    std::int32_t n;
    CouplingGraph graph;
  };
  const std::vector<Case> cases = {
      {2, make_line(2)},    {3, make_line(3)},    {4, make_line(4)},
      {4, make_grid(2, 2)}, {5, make_line(5)},
      // Spare physical cells (n < np): movement may slide a qubit into an
      // empty neighbour instead of exchanging with an occupant.
      {3, make_grid(2, 2)}, {5, make_grid(2, 3)},
  };
  for (const Case& c : cases) {
    SatmapOptions inc;
    inc.time_budget_seconds = 120.0;
    SatmapOptions mono = inc;
    mono.incremental = false;
    const SatmapResult a = satmap_route(qft_logical(c.n), c.graph, inc);
    const SatmapResult b = satmap_route(qft_logical(c.n), c.graph, mono);
    ASSERT_TRUE(a.solved) << "incremental TLE at n=" << c.n;
    ASSERT_TRUE(b.solved) << "monolithic TLE at n=" << c.n;
    EXPECT_EQ(a.layers, b.layers) << "minimal T diverged at n=" << c.n;
    EXPECT_EQ(a.swaps, b.swaps) << "minimal SWAPs diverged at n=" << c.n;
    const auto chk_a = check_qft_mapping(a.mapped, c.graph);
    const auto chk_b = check_qft_mapping(b.mapped, c.graph);
    ASSERT_TRUE(chk_a.ok) << chk_a.error;
    ASSERT_TRUE(chk_b.ok) << chk_b.error;
    EXPECT_EQ(chk_a.counts.swap, chk_b.counts.swap);
  }
}

TEST(Satmap, SpareCellSlidesExtractValidCircuits) {
  // Regression: with n < np the model may move a qubit into an *empty*
  // physical cell. extract() used to emit such a slide only when it went
  // toward a higher physical id (the paired-transposition dedup), silently
  // teleporting down-moves and corrupting the mapped circuit.
  for (const bool incremental : {true, false}) {
    for (const bool minimize : {true, false}) {
      const CouplingGraph g = make_grid(2, 2);
      SatmapOptions opts;
      opts.time_budget_seconds = 120.0;
      opts.incremental = incremental;
      opts.minimize_swaps = minimize;
      const SatmapResult r = satmap_route(qft_logical(3), g, opts);
      ASSERT_TRUE(r.solved) << "inc=" << incremental << " min=" << minimize;
      const auto chk = check_qft_mapping(r.mapped, g);
      ASSERT_TRUE(chk.ok) << "inc=" << incremental << " min=" << minimize
                          << ": " << chk.error;
      EXPECT_LT(mapped_equivalence_error(r.mapped), 1e-9)
          << "inc=" << incremental << " min=" << minimize;
    }
  }
}

TEST(Satmap, DpllBackendSolvesTheSmallestInstances) {
  // The reference backend is exponentially weaker, but must agree with CDCL
  // where it reaches: the differential value of a second registered engine.
  const CouplingGraph g = make_line(3);
  SatmapOptions opts;
  opts.time_budget_seconds = 60.0;
  opts.solver = "dpll";
  const SatmapResult r = satmap_route(qft_logical(3), g, opts);
  ASSERT_TRUE(r.solved) << "dpll timed out on QFT-3";
  const auto chk = check_qft_mapping(r.mapped, g);
  ASSERT_TRUE(chk.ok) << chk.error;

  SatmapOptions cdcl_opts;
  cdcl_opts.time_budget_seconds = 60.0;
  const SatmapResult c = satmap_route(qft_logical(3), g, cdcl_opts);
  ASSERT_TRUE(c.solved);
  EXPECT_EQ(r.layers, c.layers);
  EXPECT_EQ(r.swaps, c.swaps);
}

TEST(Satmap, UnknownSolverBackendThrows) {
  SatmapOptions opts;
  opts.solver = "no-such-backend";
  EXPECT_THROW(satmap_route(qft_logical(2), make_line(2), opts),
               std::invalid_argument);
}

TEST(Satmap, SurfacesSolverStats) {
  const CouplingGraph g = make_line(3);
  SatmapOptions opts;
  opts.time_budget_seconds = 60.0;
  sat::SolverStats sink;
  opts.stats_out = &sink;
  const SatmapResult r = satmap_route(qft_logical(3), g, opts);
  ASSERT_TRUE(r.solved);
  EXPECT_GE(r.stats.solve_calls, 2) << "deepening plus swap minimization";
  EXPECT_GT(r.stats.decisions, 0);
  EXPECT_GT(r.stats.clauses, 0);
  EXPECT_EQ(sink.solve_calls, r.stats.solve_calls);
  EXPECT_EQ(sink.conflicts, r.stats.conflicts);
}

TEST(Satmap, DumpCnfExportsTheInFlightInstance) {
  for (const bool incremental : {true, false}) {
    const std::string path = ::testing::TempDir() + "satmap_tle_" +
                             (incremental ? "inc" : "mono") + ".cnf";
    SatmapOptions opts;
    opts.time_budget_seconds = 0.5;  // certain TLE on QFT-16 / sycamore
    opts.incremental = incremental;
    opts.minimize_swaps = false;
    opts.dump_cnf_path = path;
    const SatmapResult r =
        satmap_route(qft_logical(16), make_sycamore(4), opts);
    EXPECT_TRUE(r.timed_out);
    std::ifstream in(path);
    ASSERT_TRUE(in.good()) << "no dump at " << path;
    std::string line;
    bool has_problem_line = false;
    while (std::getline(in, line)) {
      if (line.rfind("p cnf ", 0) == 0) {
        has_problem_line = true;
        break;
      }
    }
    EXPECT_TRUE(has_problem_line) << path << " is not DIMACS";
    std::remove(path.c_str());
  }
}

}  // namespace
}  // namespace qfto
