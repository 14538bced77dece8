// MapperPipeline facade: registry contents, checker-clean sweeps per engine
// on the native coupling graph, size snapping, option forwarding, the
// routed-baseline target override, and clean failure on unknown engines.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <memory>
#include <stdexcept>

#include "arch/heavy_hex.hpp"
#include "arch/sycamore.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/stats.hpp"
#include "mapper/lnn_mapper.hpp"
#include "pipeline/batch.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "sat/solver_interface.hpp"

namespace qfto {
namespace {

// ---------------------------------------------------------------- registry --

TEST(PipelineRegistry, ListsAllSevenPaperEngines) {
  const auto names = MapperPipeline::global().engine_names();
  for (const char* required :
       {"lnn", "heavy_hex", "heavy_hex_device", "sycamore", "lattice", "sabre",
        "satmap", "lnn_baseline"}) {
    EXPECT_NE(std::find(names.begin(), names.end(), required), names.end())
        << "missing engine: " << required;
  }
  EXPECT_TRUE(std::is_sorted(names.begin(), names.end()));
}

TEST(PipelineRegistry, EveryEngineDescribesItself) {
  const auto& pipeline = MapperPipeline::global();
  for (const auto& name : pipeline.engine_names()) {
    EXPECT_TRUE(pipeline.has(name));
    EXPECT_NE(pipeline.find(name), nullptr);
    EXPECT_EQ(pipeline.at(name).name(), name);
    EXPECT_FALSE(pipeline.at(name).description().empty()) << name;
  }
}

TEST(PipelineRegistry, UnknownEngineFailsCleanly) {
  const auto& pipeline = MapperPipeline::global();
  EXPECT_FALSE(pipeline.has("nosuch"));
  EXPECT_EQ(pipeline.find("nosuch"), nullptr);
  EXPECT_THROW(pipeline.at("nosuch"), std::invalid_argument);
  EXPECT_THROW(pipeline.run("nosuch", 4), std::invalid_argument);
  EXPECT_THROW(map_qft("", 4), std::invalid_argument);
  try {
    map_qft("nosuch", 4);
    FAIL() << "expected invalid_argument";
  } catch (const std::invalid_argument& e) {
    // The error message must name the known engines so CLIs can relay it.
    EXPECT_NE(std::string(e.what()).find("lnn"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("sycamore"), std::string::npos);
  }
}

TEST(PipelineRegistry, CustomEngineCanBeRegisteredAndRun) {
  class EchoLnn final : public MapperEngine {
   public:
    std::string name() const override { return "echo_lnn"; }
    std::string description() const override { return "lnn under a new key"; }
    CouplingGraph build_graph(std::int32_t n,
                              const MapOptions&) const override {
      CouplingGraph g("echo-line", n);
      for (std::int32_t i = 0; i + 1 < n; ++i) g.add_edge(i, i + 1);
      return g;
    }
    MappedCircuit map(std::int32_t n, const CouplingGraph&,
                      const MapOptions&) const override {
      return map_qft_lnn(n);
    }
  };
  MapperPipeline pipeline = MapperPipeline::with_paper_engines();
  pipeline.register_engine(std::make_unique<EchoLnn>());
  ASSERT_TRUE(pipeline.has("echo_lnn"));
  const MapResult r = pipeline.run("echo_lnn", 8);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  EXPECT_EQ(r.check.counts.cphase, qft_pair_count(8));
}

// ------------------------------------------------- per-engine checker sweep --

struct SweepCase {
  const char* engine;
  std::vector<std::int32_t> sizes;  // requested sizes (snapping exercised)
};

class EngineSweep : public ::testing::TestWithParam<SweepCase> {};

TEST_P(EngineSweep, CheckerCleanOnNativeGraph) {
  const SweepCase& c = GetParam();
  MapOptions opts;
  opts.sabre.trials = 1;                   // keep the heuristic sweep fast
  opts.satmap.time_budget_seconds = 60.0;  // tiny instances only
  for (const std::int32_t n : c.sizes) {
    const MapResult r = map_qft(c.engine, n, opts);
    ASSERT_TRUE(r.check.ok)
        << c.engine << " n=" << n << ": " << r.check.error;
    EXPECT_EQ(r.engine, c.engine);
    EXPECT_EQ(r.requested_n, n);
    EXPECT_GE(r.n, n) << "native size must not shrink the request";
    EXPECT_EQ(r.mapped.num_logical(), r.n);
    EXPECT_EQ(r.check.counts.cphase, qft_pair_count(r.n));
    EXPECT_EQ(r.check.counts.h, r.n);
    EXPECT_GE(r.graph.num_qubits(), r.n);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Engines, EngineSweep,
    ::testing::Values(
        SweepCase{"lnn", {1, 2, 3, 5, 8, 16, 33}},
        SweepCase{"heavy_hex", {5, 10, 12, 20, 50}},
        SweepCase{"heavy_hex_device", {5, 13, 14, 30, 60}},
        SweepCase{"sycamore", {4, 9, 16, 36, 64}},
        SweepCase{"lattice", {4, 9, 10, 25, 64}},
        SweepCase{"grid", {4, 9, 25, 49}},
        SweepCase{"lnn_baseline", {4, 9, 25, 49}},
        SweepCase{"sabre", {4, 9, 16}},
        SweepCase{"satmap", {3, 4}}),
    [](const ::testing::TestParamInfo<SweepCase>& info) {
      return std::string(info.param.engine);
    });

// --------------------------------------------------- size snapping details --

TEST(PipelineSnapping, SycamoreRoundsUpToEvenSquare) {
  const MapResult r = map_qft("sycamore", 30, MapOptions{});
  EXPECT_EQ(r.n, 36);  // m=6 (m=5.48 rounded up, then made even)
  EXPECT_EQ(r.graph.num_qubits(), 36);
  EXPECT_TRUE(r.check.ok) << r.check.error;
}

TEST(PipelineSnapping, HeavyHexRoundsUpToMultipleOfFive) {
  EXPECT_EQ(map_qft("heavy_hex", 11).n, 15);
  EXPECT_EQ(map_qft("heavy_hex", 3).n, 5);
}

TEST(PipelineSnapping, LatticeRoundsUpToSquare) {
  EXPECT_EQ(map_qft("lattice", 10).n, 16);
  EXPECT_EQ(map_qft("lnn_baseline", 2).n, 4);
}

TEST(PipelineSnapping, HeavyHexDeviceSnapsToFullDeviceSizes) {
  // 13-qubit rows, 4 bridges per gap: r rows hold N = 17r - 4 qubits.
  EXPECT_EQ(map_qft("heavy_hex_device", 5).n, 13);    // r=1: a bare row
  EXPECT_EQ(map_qft("heavy_hex_device", 13).n, 13);
  EXPECT_EQ(map_qft("heavy_hex_device", 14).n, 30);   // r=2
  EXPECT_EQ(map_qft("heavy_hex_device", 47).n, 47);   // r=3 exactly
  const MapResult r = map_qft("heavy_hex_device", 31);
  EXPECT_EQ(r.n, 47);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  // The result is verified on the *full* device graph — bridge links the
  // reduction deletes are present (and simply unused).
  EXPECT_EQ(r.graph.num_qubits(), 47);
  EXPECT_GT(r.graph.num_edges(), 46);  // more than a spanning tree: full device
}

TEST(PipelineSnapping, ExactNativeSizesAreKept) {
  EXPECT_EQ(map_qft("lnn", 7).n, 7);
  EXPECT_EQ(map_qft("sycamore", 16).n, 16);
  EXPECT_EQ(map_qft("heavy_hex", 20).n, 20);
}

// ------------------------------------------------------- option forwarding --

TEST(PipelineOptions, StrictIeCostsDepthOnSycamore) {
  MapOptions strict;
  strict.strict_ie = true;
  const MapResult relaxed = map_qft("sycamore", 36);
  const MapResult strict_r = map_qft("sycamore", 36, strict);
  ASSERT_TRUE(relaxed.check.ok && strict_r.check.ok);
  EXPECT_GT(strict_r.check.depth, relaxed.check.depth);
}

TEST(PipelineOptions, TargetOverrideRoutesSabreOnDeviceGraph) {
  const CouplingGraph g = make_sycamore(4);
  MapOptions opts;
  opts.sabre.trials = 1;
  opts.target = &g;
  const MapResult r = map_qft("sabre", 16, opts);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  EXPECT_EQ(r.graph.name(), g.name());
  EXPECT_EQ(r.graph.num_qubits(), 16);
}

TEST(PipelineOptions, TargetSmallerThanCircuitIsRejected) {
  const CouplingGraph g = make_sycamore(2);  // 4 qubits
  MapOptions opts;
  opts.target = &g;
  EXPECT_THROW(map_qft("sabre", 9, opts), std::invalid_argument);
}

TEST(PipelineOptions, VerifyOffSkipsTheChecker) {
  MapOptions opts;
  opts.verify = false;
  const MapResult r = map_qft("lnn", 12, opts);
  EXPECT_FALSE(r.check.ok);  // untouched default
  EXPECT_TRUE(r.check.error.empty());
  EXPECT_EQ(r.timings.check_seconds, 0.0);
  EXPECT_EQ(r.mapped.num_logical(), 12);
}

namespace {

void expect_same_check(const QftCheckResult& a, const QftCheckResult& b,
                       const std::string& label) {
  ASSERT_TRUE(a.ok) << label << ": " << a.error;
  ASSERT_TRUE(b.ok) << label << ": " << b.error;
  EXPECT_EQ(a.depth, b.depth) << label;
  EXPECT_EQ(a.error, b.error) << label;
  EXPECT_EQ(a.counts.h, b.counts.h) << label;
  EXPECT_EQ(a.counts.x, b.counts.x) << label;
  EXPECT_EQ(a.counts.rz, b.counts.rz) << label;
  EXPECT_EQ(a.counts.cphase, b.counts.cphase) << label;
  EXPECT_EQ(a.counts.swap, b.counts.swap) << label;
  EXPECT_EQ(a.counts.cnot, b.counts.cnot) << label;
  EXPECT_EQ(a.counts.total(), b.counts.total()) << label;
}

/// Runs `name` with the circuit kept, then re-verifies that circuit with the
/// streaming checker and the replay reference under the engine's latency
/// model: all three verdicts must agree exactly. The pipeline's own verdict
/// comes from the fused audit for structured engines and from the streaming
/// checker for the routed baselines (they bypass LayerEmitter).
void expect_verdicts_agree(const std::string& name, std::int32_t n,
                           MapOptions opts) {
  opts.keep_circuit = true;
  const auto& pipeline = MapperPipeline::global();
  const MapResult r = pipeline.run(name, n, opts);
  const LatencyModel model = pipeline.at(name).latency_model(r.graph);
  const std::string label = name + " n=" + std::to_string(n);
  ASSERT_EQ(static_cast<std::int64_t>(r.mapped.circuit.size()),
            r.check.counts.total())
      << label;
  expect_same_check(r.check, check_qft_mapping(r.mapped, r.graph, model),
                    label + " pipeline-vs-stream");
  expect_same_check(r.check,
                    check_qft_mapping_replay(r.mapped, r.graph, model),
                    label + " pipeline-vs-replay");
}

}  // namespace

TEST(PipelineVerify, FusedStreamAndReplayVerdictsAreBitIdentical) {
  for (const auto& name : MapperPipeline::global().engine_names()) {
    MapOptions opts;
    opts.sabre.trials = 1;
    opts.satmap.time_budget_seconds = 60.0;
    const std::int32_t n = name == "satmap" ? 4 : (name == "sabre" ? 9 : 16);
    expect_verdicts_agree(name, n, opts);
  }
}

TEST(PipelineVerify, FusedVerdictMatchesReplayAcrossSizes) {
  // Acceptance sweep on QFT-{16,64,256}. SATMAP is skipped (TLE territory at
  // these sizes); SABRE pinned to one trial stays deterministic.
  for (const std::int32_t n : {16, 64, 256}) {
    for (const auto& name : MapperPipeline::global().engine_names()) {
      if (name == "satmap") continue;
      if (name == "sabre" && n > 64) continue;  // routing time, not coverage
      MapOptions opts;
      opts.sabre.trials = 1;
      expect_verdicts_agree(name, n, opts);
    }
  }
}

// ------------------------------------------------- summary vs kept circuit --

struct SummaryCase {
  const char* engine;
  const char* label;
  MapOptions opts;
};

std::vector<SummaryCase> summary_cases() {
  std::vector<SummaryCase> cases;
  for (const char* engine : {"lnn", "heavy_hex", "heavy_hex_device",
                             "sycamore", "lattice", "grid", "lnn_baseline"}) {
    cases.push_back({engine, "default", MapOptions{}});
  }
  MapOptions strict;
  strict.strict_ie = true;
  for (const char* engine : {"sycamore", "lattice", "grid"}) {
    cases.push_back({engine, "strict_ie", strict});
  }
  MapOptions synced;
  synced.lattice_phase_offset = 0;
  MapOptions no_tus;
  no_tus.transversal_unit_swap = false;
  MapOptions both = synced;
  both.transversal_unit_swap = false;
  cases.push_back({"lattice", "phase_offset0", synced});
  cases.push_back({"lattice", "no_transversal_swap", no_tus});
  cases.push_back({"lattice", "offset0_no_transversal", both});
  return cases;
}

TEST(PipelineSummary, SummaryRunMatchesKeptCircuitOnEveryStructuredEngine) {
  // The default run stores no gates; asking for the circuit must change
  // nothing else. Both runs must agree on the whole check, the fidelity and
  // the mappings, and streaming verification of the kept circuit must give
  // the summary's verdict — the fused audit is not trusted on its own word.
  const auto& pipeline = MapperPipeline::global();
  for (const SummaryCase& c : summary_cases()) {
    for (const std::int32_t n : {1, 2, 5, 16, 64, 257}) {
      const std::string label = std::string(c.engine) + "/" + c.label +
                                " n=" + std::to_string(n);
      ASSERT_FALSE(c.opts.keep_circuit) << label;
      MapOptions keep = c.opts;
      keep.keep_circuit = true;
      const MapResult s = pipeline.run(c.engine, n, c.opts);
      const MapResult k = pipeline.run(c.engine, n, keep);
      ASSERT_TRUE(s.check.ok) << label << ": " << s.check.error;
      EXPECT_EQ(s.check.error, k.check.error) << label;
      EXPECT_EQ(s.check.ok, k.check.ok) << label;
      EXPECT_EQ(s.check.depth, k.check.depth) << label;
      EXPECT_EQ(s.check.counts.h, k.check.counts.h) << label;
      EXPECT_EQ(s.check.counts.x, k.check.counts.x) << label;
      EXPECT_EQ(s.check.counts.rz, k.check.counts.rz) << label;
      EXPECT_EQ(s.check.counts.cphase, k.check.counts.cphase) << label;
      EXPECT_EQ(s.check.counts.swap, k.check.counts.swap) << label;
      EXPECT_EQ(s.check.counts.cnot, k.check.counts.cnot) << label;
      // Bit for bit: both come from the same counts and depth.
      EXPECT_EQ(std::memcmp(&s.log10_fidelity, &k.log10_fidelity,
                            sizeof(double)),
                0)
          << label << ": " << s.log10_fidelity << " vs " << k.log10_fidelity;
      EXPECT_EQ(s.mapped.initial, k.mapped.initial) << label;
      EXPECT_EQ(s.mapped.final_mapping, k.mapped.final_mapping) << label;

      EXPECT_EQ(s.mapped.circuit.size(), 0u) << label;
      EXPECT_EQ(s.mapped.num_physical(), s.graph.num_qubits()) << label;
      EXPECT_EQ(s.mapped.num_physical(), k.mapped.num_physical()) << label;
      EXPECT_EQ(static_cast<std::int64_t>(k.mapped.circuit.size()),
                k.check.counts.total())
          << label;

      const LatencyModel model = pipeline.at(c.engine).latency_model(k.graph);
      const QftCheckResult streamed =
          check_qft_mapping(k.mapped, k.graph, model);
      EXPECT_EQ(streamed.ok, s.check.ok) << label << ": " << streamed.error;
      EXPECT_EQ(streamed.error, s.check.error) << label;
      EXPECT_EQ(streamed.depth, s.check.depth) << label;
      EXPECT_EQ(streamed.counts.total(), s.check.counts.total()) << label;
      EXPECT_EQ(streamed.counts.swap, s.check.counts.swap) << label;
      EXPECT_EQ(streamed.counts.cphase, s.check.counts.cphase) << label;
      EXPECT_EQ(streamed.counts.h, s.check.counts.h) << label;
    }
  }
}

TEST(PipelineSummary, CircuitIsKeptWhereTheCheckReadsIt) {
  // Routed engines and verify=false runs have no fused audit to summarize
  // into: their circuits are kept whatever keep_circuit says.
  const auto& pipeline = MapperPipeline::global();
  MapOptions sabre;
  sabre.sabre.trials = 1;
  EXPECT_GT(pipeline.run("sabre", 6, sabre).mapped.circuit.size(), 0u);
  MapOptions unverified;
  unverified.verify = false;
  EXPECT_GT(pipeline.run("lnn", 8, unverified).mapped.circuit.size(), 0u);
}

TEST(PipelineSummary, DirectEngineCallersKeepTheirCircuitByDefault) {
  // An audit installed by hand keeps the gate store unless it opts out.
  verify::EmitAudit audit;
  const MappedCircuit kept = map_qft_lnn(8, &audit);
  ASSERT_TRUE(audit.engaged && audit.result.ok) << audit.result.error;
  EXPECT_EQ(static_cast<std::int64_t>(kept.circuit.size()),
            audit.result.counts.total());

  verify::EmitAudit summary;
  summary.keep_circuit = false;
  const MappedCircuit bare = map_qft_lnn(8, &summary);
  ASSERT_TRUE(summary.engaged && summary.result.ok) << summary.result.error;
  EXPECT_EQ(bare.circuit.size(), 0u);
  EXPECT_EQ(bare.num_physical(), 8);
  EXPECT_EQ(bare.final_mapping, kept.final_mapping);
  EXPECT_EQ(summary.result.depth, audit.result.depth);
}

TEST(PipelineOptions, SatmapBudgetExhaustionThrowsRuntimeError) {
  MapOptions opts;
  opts.satmap.time_budget_seconds = 1e-6;  // certain TLE
  EXPECT_THROW(map_qft("satmap", 8, opts), std::runtime_error);
}

TEST(PipelineOptions, SatmapSolverStatsSurfaceIntoTimings) {
  MapOptions opts;
  opts.satmap.time_budget_seconds = 60.0;
  const MapResult r = map_qft("satmap", 3, opts);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  EXPECT_GT(r.timings.sat.solve_calls, 0);
  EXPECT_GT(r.timings.sat.decisions, 0);
  EXPECT_GT(r.timings.sat.vars, 0);

  // A caller-installed sink sees the same numbers the pipeline recorded.
  sat::SolverStats sink;
  MapOptions with_sink = opts;
  with_sink.satmap.stats_out = &sink;
  const MapResult again = map_qft("satmap", 3, with_sink);
  ASSERT_TRUE(again.check.ok);
  EXPECT_EQ(sink.solve_calls, again.timings.sat.solve_calls);
  EXPECT_EQ(sink.conflicts, again.timings.sat.conflicts);

  // Analytical engines never run a solver.
  const MapResult lnn = map_qft("lnn", 8);
  EXPECT_EQ(lnn.timings.sat.solve_calls, 0);
  EXPECT_EQ(lnn.timings.sat.decisions, 0);
}

TEST(PipelineOptions, SatmapSolverBackendSelectable) {
  MapOptions opts;
  opts.satmap.time_budget_seconds = 60.0;
  opts.satmap.solver = "dpll";
  const MapResult r = map_qft("satmap", 2, opts);
  ASSERT_TRUE(r.check.ok) << r.check.error;

  MapOptions bogus;
  bogus.satmap.solver = "no-such-backend";
  EXPECT_THROW(map_qft("satmap", 2, bogus), std::invalid_argument);
}

// ------------------------------------------------------- batch front-end --

TEST(PipelineBatch, ResultsComeBackInRequestOrder) {
  std::vector<BatchRequest> reqs;
  for (const char* engine : {"lnn", "heavy_hex", "sycamore", "lattice"}) {
    reqs.push_back({engine, 16, MapOptions{}});
  }
  const auto items = map_qft_batch(reqs, 4);
  ASSERT_EQ(items.size(), reqs.size());
  for (std::size_t i = 0; i < items.size(); ++i) {
    ASSERT_TRUE(items[i].ok) << reqs[i].engine << ": " << items[i].error;
    EXPECT_EQ(items[i].result.engine, reqs[i].engine);
    EXPECT_TRUE(items[i].result.check.ok) << items[i].result.check.error;
  }
}

TEST(PipelineBatch, ParallelMatchesSerialForAnalyticalEngines) {
  MapOptions keep;
  keep.keep_circuit = true;
  std::vector<BatchRequest> reqs;
  for (std::int32_t n : {4, 9, 16, 25, 36}) {
    reqs.push_back({"lattice", n, keep});
  }
  const auto serial = map_qft_batch(reqs, 1);
  const auto parallel = map_qft_batch(reqs, 4);
  ASSERT_EQ(serial.size(), parallel.size());
  for (std::size_t i = 0; i < serial.size(); ++i) {
    ASSERT_TRUE(serial[i].ok && parallel[i].ok);
    EXPECT_EQ(serial[i].result.mapped.circuit.to_string(),
              parallel[i].result.mapped.circuit.to_string());
  }
}

TEST(PipelineBatch, PerItemFailuresDoNotAbortTheBatch) {
  MapOptions tle;
  tle.satmap.time_budget_seconds = 1e-6;
  const std::vector<BatchRequest> reqs = {
      {"lnn", 8, MapOptions{}},
      {"nosuch", 8, MapOptions{}},
      {"satmap", 8, tle},
      {"sycamore", 4, MapOptions{}},
  };
  const auto items = map_qft_batch(reqs, 2);
  ASSERT_EQ(items.size(), 4u);
  EXPECT_TRUE(items[0].ok);
  EXPECT_FALSE(items[1].ok);
  EXPECT_NE(items[1].error.find("unknown engine"), std::string::npos);
  EXPECT_FALSE(items[2].ok);
  EXPECT_NE(items[2].error.find("satmap"), std::string::npos);
  EXPECT_TRUE(items[3].ok);
}

TEST(PipelineBatch, EmptyBatchIsFine) {
  EXPECT_TRUE(map_qft_batch({}).empty());
}

// ------------------------------------------------------------ determinism --

TEST(PipelineDeterminism, StructuredEnginesAreSeedFree) {
  // Analytical mappers must emit byte-identical circuits run to run — the
  // consistency guarantee the paper contrasts with SABRE (Fig. 27).
  MapOptions keep;
  keep.keep_circuit = true;
  for (const char* engine : {"lnn", "heavy_hex", "sycamore", "lattice"}) {
    const MapResult a = map_qft(engine, 16, keep);
    const MapResult b = map_qft(engine, 16, keep);
    EXPECT_EQ(a.mapped.circuit.to_string(), b.mapped.circuit.to_string())
        << engine;
    EXPECT_EQ(a.mapped.initial, b.mapped.initial) << engine;
    EXPECT_EQ(a.mapped.final_mapping, b.mapped.final_mapping) << engine;
  }
}

}  // namespace
}  // namespace qfto
