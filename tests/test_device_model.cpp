// Device descriptions end-to-end: the JSON loader's strict positioned
// validation, fingerprint semantics, multi-class latency resolution,
// calibrated fidelity accounting, SABRE's fidelity objective, and the
// calibration-keyed ResultCache (fingerprint fragmentation + TTL aging).
#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>

#include "arch/device_model.hpp"
#include "arch/grid.hpp"
#include "arch/latency_model.hpp"
#include "arch/lattice_surgery.hpp"
#include "arch/line.hpp"
#include "baseline/sabre.hpp"
#include "circuit/qft_spec.hpp"
#include "pipeline/mapper_pipeline.hpp"
#include "service/result_cache.hpp"
#include "verify/fidelity.hpp"

namespace qfto {
namespace {

// A small well-formed device: a 4-cycle whose (1, 2) coupler is terrible.
const char* kRing4 = R"({
  "name": "ring4",
  "qubits": 4,
  "error_1q": [1e-4, 2e-4, 3e-4, 4e-4],
  "coherence_cycles": 20000,
  "edges": [
    {"a": 0, "b": 1, "error": 1e-3},
    {"a": 1, "b": 2, "error": 0.2},
    {"a": 2, "b": 3, "error": 1e-3},
    {"a": 3, "b": 0, "error": 1e-3}
  ]
})";

std::string error_of(const std::string& json) {
  try {
    DeviceModel::from_json(json);
  } catch (const std::invalid_argument& e) {
    return e.what();
  }
  return "";
}

TEST(DeviceJson, HappyPath) {
  const DeviceModel dev = DeviceModel::from_json(kRing4);
  EXPECT_EQ(dev.name(), "ring4");
  EXPECT_EQ(dev.num_qubits(), 4);
  ASSERT_EQ(dev.edges().size(), 4u);
  EXPECT_DOUBLE_EQ(dev.qubit(2).error_1q, 3e-4);
  EXPECT_DOUBLE_EQ(dev.qubit(2).coherence_cycles, 20000.0);
  EXPECT_DOUBLE_EQ(dev.edge_error(1, 2), 0.2);
  EXPECT_DOUBLE_EQ(dev.edge_error(2, 1), 0.2);  // order-insensitive
  EXPECT_DOUBLE_EQ(dev.edge_error(0, 2, 0.5), 0.5);  // non-edge fallback
  EXPECT_EQ(dev.latency_classes(), 1u);

  const CouplingGraph g = dev.build_graph();
  EXPECT_EQ(g.num_qubits(), 4);
  EXPECT_TRUE(g.adjacent(0, 1));
  EXPECT_TRUE(g.adjacent(3, 0));
  EXPECT_FALSE(g.adjacent(0, 2));
}

TEST(DeviceJson, RejectsDuplicateEdge) {
  const std::string msg = error_of(R"({"qubits": 3, "edges": [
    {"a": 0, "b": 1}, {"a": 1, "b": 0}]})");
  EXPECT_NE(msg.find("duplicate edge"), std::string::npos) << msg;
  EXPECT_NE(msg.find("line"), std::string::npos) << msg;
}

TEST(DeviceJson, DuplicateEdgeInALargeDeviceIsPositioned) {
  // 60,000 edges one per line, then a repeat of the first on line 60,002:
  // the check is one hash probe per edge, so this loads in milliseconds.
  std::string text = "{\"qubits\": 60001, \"edges\": [\n";
  for (int i = 0; i < 60000; ++i) {
    text += "{\"a\": " + std::to_string(i) + ", \"b\": " +
            std::to_string(i + 1) + "},\n";
  }
  text += "{\"a\": 1, \"b\": 0}]}\n";
  const std::string msg = error_of(text);
  EXPECT_NE(msg.find("device json line 60002: duplicate edge (1, 0)"),
            std::string::npos)
      << msg;
}

TEST(DeviceJson, AcceptsTheProtocolEscapesAndWhitespace) {
  // The serve protocol's escapes (\r \b \f \uXXXX, surrogate pairs) and the
  // isspace set (\v, \f) read the same in device files.
  const DeviceModel dev = DeviceModel::from_json(
      "{\"name\": \"caf\\u00e9\\r\\b\\f\\uD83D\\uDE00\",\v\f\r\n"
      "\"qubits\": 2, \"edges\": [{\"a\": 0, \"b\": 1}]}");
  EXPECT_EQ(dev.name(), "caf\xC3\xA9\r\b\f\xF0\x9F\x98\x80");
  EXPECT_EQ(dev.fingerprint(),
            DeviceModel::from_json(
                R"({"qubits": 2, "edges": [{"a": 0, "b": 1}]})")
                .fingerprint());
  const std::string msg = error_of("{\"qubits\": 2,\n\"name\": \"\\uD83D\"}");
  EXPECT_NE(msg.find("device json line 2: unpaired surrogate"),
            std::string::npos)
      << msg;
  // A string that never closes is reported on the line where it opened.
  const std::string open = error_of("{\"qubits\": 2,\n\"name\": \"ab\n\n");
  EXPECT_NE(open.find("device json line 2: unterminated string"),
            std::string::npos)
      << open;
}

TEST(DeviceJson, RejectsOutOfRangeErrorRates) {
  const std::string edge = error_of(
      R"({"qubits": 2, "edges": [{"a": 0, "b": 1, "error": 1.0}]})");
  EXPECT_NE(edge.find("[0, 1)"), std::string::npos) << edge;
  const std::string oneq = error_of(
      R"({"qubits": 2, "error_1q": -0.5, "edges": [{"a": 0, "b": 1}]})");
  EXPECT_NE(oneq.find("error_1q"), std::string::npos) << oneq;
}

TEST(DeviceJson, RejectsQubitPastN) {
  const std::string msg =
      error_of(R"({"qubits": 3, "edges": [{"a": 0, "b": 3}]})");
  EXPECT_NE(msg.find("past n=3"), std::string::npos) << msg;
}

TEST(DeviceJson, RejectsTruncatedAndMalformedInputWithoutCrashing) {
  // Every prefix of a valid document must raise a positioned error, never
  // crash or accept — the classic truncated-file sweep.
  const std::string full = kRing4;
  for (std::size_t len = 0; len < full.size(); ++len) {
    const std::string msg = error_of(full.substr(0, len));
    EXPECT_FALSE(msg.empty()) << "accepted truncation at byte " << len;
    EXPECT_NE(msg.find("device json"), std::string::npos) << msg;
  }
  EXPECT_NE(error_of(R"({"qubits": 2, "edges": [{"a": 0, "b": 1}],
                         "volts": 3})").find("unknown field"),
            std::string::npos);
  EXPECT_NE(error_of("").find("device json"), std::string::npos);
}

TEST(DeviceJson, LoadFileReportsPathAndMissingFile) {
  EXPECT_THROW(DeviceModel::load_file("/nonexistent/dev.json"),
               std::invalid_argument);
  try {
    DeviceModel::load_file("/nonexistent/dev.json");
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("/nonexistent/dev.json"),
              std::string::npos);
  }
}

TEST(DeviceModelTest, FingerprintIgnoresNameTracksCalibration) {
  const DeviceModel base = DeviceModel::from_json(kRing4);
  std::string renamed = kRing4;
  renamed.replace(renamed.find("ring4"), 5, "other");
  EXPECT_EQ(DeviceModel::from_json(renamed).fingerprint(),
            base.fingerprint());

  std::string recalibrated = kRing4;
  recalibrated.replace(recalibrated.find("0.2"), 3, "0.3");
  EXPECT_NE(DeviceModel::from_json(recalibrated).fingerprint(),
            base.fingerprint());
}

// The lattice-surgery calibration written as device JSON: CNOT/CPHASE cost
// 2 on every link, SWAP 2 on fast (diagonal-tile) links and 6 on axial ones.
std::string lattice_device_json(const CouplingGraph& g) {
  std::string edges;
  for (std::int32_t a = 0; a < g.num_qubits(); ++a) {
    for (const PhysicalQubit b : g.neighbors(a)) {
      if (b <= a) continue;  // undirected: each edge once
      const Cycle swap = g.link_type(a, b) == LinkType::kFast
                             ? kLsFastSwapDepth
                             : kLsSlowSwapDepth;
      if (!edges.empty()) edges += ",\n";
      edges += "{\"a\": " + std::to_string(a) + ", \"b\": " +
               std::to_string(b) + ", \"latency\": " +
               std::to_string(kLsCnotDepth) +
               ", \"swap_latency\": " + std::to_string(swap) + "}";
    }
  }
  return "{\"name\": \"lattice-3\", \"qubits\": " +
         std::to_string(g.num_qubits()) + ", \"edges\": [\n" + edges + "]}";
}

TEST(DeviceModelTest, LatticeCalibrationCarriesWeightedLatencies) {
  const CouplingGraph ref = make_lattice_surgery_rotated(3);
  const DeviceModel dev = DeviceModel::from_json(lattice_device_json(ref));
  EXPECT_GT(dev.latency_classes(), 1u);
  // Link-dependent costs cannot resolve without the graph's labeling.
  EXPECT_THROW(dev.latency_model(), std::invalid_argument);
  const CouplingGraph g = dev.build_graph();
  const LatencyModel lat = dev.latency_model(g);
  // build_graph() labels link classes by its own ascending ordering, so the
  // comparison with the hand-written lattice model goes per physical edge
  // (node ids are preserved), not per LinkType enumerator.
  const LatencyModel want = LatencyModel::lattice(ref);
  ASSERT_EQ(g.num_qubits(), ref.num_qubits());
  EXPECT_EQ(g.num_edges(), ref.num_edges());
  for (std::int32_t a = 0; a < g.num_qubits(); ++a) {
    for (std::int32_t b = a + 1; b < g.num_qubits(); ++b) {
      if (!ref.adjacent(a, b)) continue;
      ASSERT_TRUE(g.adjacent(a, b)) << a << "-" << b;
      EXPECT_EQ(lat.cycles(Gate::swap(a, b)), want.cycles(Gate::swap(a, b)))
          << "swap " << a << "-" << b;
      EXPECT_EQ(lat.cycles(Gate::cphase(a, b, 0.5)),
                want.cycles(Gate::cphase(a, b, 0.5)))
          << "cphase " << a << "-" << b;
    }
  }
}

TEST(FidelityTest, CalibratedWalkPenalizesBadEdges) {
  const DeviceModel dev = DeviceModel::from_json(kRing4);
  const LatencyModel lat = dev.latency_model(dev.build_graph());
  Circuit good(4);
  good.append(Gate::cnot(0, 1));
  Circuit bad(4);
  bad.append(Gate::cnot(1, 2));
  const double f_good = log10_fidelity(good, dev, lat);
  const double f_bad = log10_fidelity(bad, dev, lat);
  EXPECT_LT(f_good, 0.0);
  EXPECT_LT(f_bad, f_good);  // the 0.2-error coupler must cost more
}

TEST(FidelityTest, OverloadsAgreeOnDirection) {
  const Circuit c = qft_logical(4);
  const NoiseModel noisy{1e-3, 5e-2, 2e4};
  const NoiseModel clean{1e-5, 1e-4, 2e5};
  const LatencyModel lat = LatencyModel::unit();
  EXPECT_LT(log10_fidelity(c, noisy, lat), log10_fidelity(c, clean, lat));
  // The default latency is unit (and worse noise is still worse).
  EXPECT_LT(log10_fidelity(c, noisy), log10_fidelity(c, clean));
  EXPECT_EQ(log10_fidelity(c, noisy), log10_fidelity(c, noisy, lat));
  EXPECT_LT(log10_fidelity(c, noisy, lat), 0.0);
}

TEST(PipelineDevice, DeviceSelectsScenarioEndToEnd) {
  MapOptions opts;
  opts.device = std::make_shared<const DeviceModel>(
      DeviceModel::load_file(std::string(QFTO_SOURCE_DIR) +
                             "/examples/devices/heavyhex7-calibrated.json"));
  const MapResult r = map_qft("sabre", 7, opts);
  ASSERT_TRUE(r.check.ok) << r.check.error;
  EXPECT_EQ(r.graph.name(), "heavyhex7-calibrated");
  EXPECT_EQ(r.graph.num_qubits(), 7);
  EXPECT_LT(r.log10_fidelity, 0.0);

  // A device too small for the request fails loudly, naming the device.
  try {
    map_qft("sabre", 12, opts);
    FAIL() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("heavyhex7-calibrated"),
              std::string::npos)
        << e.what();
  }

  // Device and raw target are mutually exclusive.
  const CouplingGraph raw = make_line(8);
  MapOptions both = opts;
  both.target = &raw;
  EXPECT_THROW(map_qft("sabre", 7, both), std::invalid_argument);
}

TEST(PipelineDevice, FidelityObjectiveNeverLosesOnCalibratedDevice) {
  MapOptions depth_opts;
  depth_opts.device =
      std::make_shared<const DeviceModel>(DeviceModel::from_json(kRing4));
  MapOptions fid_opts = depth_opts;
  fid_opts.objective = Objective::kFidelity;

  const MapResult by_depth = map_qft("sabre", 4, depth_opts);
  const MapResult by_fid = map_qft("sabre", 4, fid_opts);
  ASSERT_TRUE(by_depth.check.ok) << by_depth.check.error;
  ASSERT_TRUE(by_fid.check.ok) << by_fid.check.error;
  // The fidelity objective selects by expected log-success over the same
  // trial budget, so it can never land on a worse circuit than the depth
  // objective's pick under its own metric.
  EXPECT_GE(by_fid.log10_fidelity, by_depth.log10_fidelity - 1e-9);
}

// Regression: the fidelity objective once livelocked on the shipped
// heavy-hex example device — the edge-error penalty rivaled the distance
// terms, so zero-progress swaps on low-error edges outscored progress
// forever and the router tripped its swap cap. The penalty is now bounded
// below the smallest distance quantum; this must route, and never lose to
// the depth objective on its own metric.
TEST(PipelineDevice, FidelityObjectiveRoutesTheExampleDevices) {
  for (const char* file :
       {"/examples/devices/heavyhex7-calibrated.json",
        "/examples/devices/grid9-noisy.json"}) {
    MapOptions depth_opts;
    depth_opts.device = std::make_shared<const DeviceModel>(
        DeviceModel::load_file(std::string(QFTO_SOURCE_DIR) + file));
    MapOptions fid_opts = depth_opts;
    fid_opts.objective = Objective::kFidelity;

    const MapResult by_depth = map_qft("sabre", 7, depth_opts);
    const MapResult by_fid = map_qft("sabre", 7, fid_opts);
    ASSERT_TRUE(by_depth.check.ok) << file << ": " << by_depth.check.error;
    ASSERT_TRUE(by_fid.check.ok) << file << ": " << by_fid.check.error;
    EXPECT_GE(by_fid.log10_fidelity, by_depth.log10_fidelity - 1e-9) << file;
  }
}

TEST(ResultCacheDevice, KeyCarriesDeviceFingerprintNotName) {
  MapOptions plain;
  const std::string base = ResultCache::key("sabre", 8, plain);
  EXPECT_EQ(base.find("dev="), std::string::npos);

  MapOptions with_dev;
  with_dev.device =
      std::make_shared<const DeviceModel>(DeviceModel::from_json(kRing4));
  const std::string keyed = ResultCache::key("sabre", 8, with_dev);
  EXPECT_NE(keyed.find("dev="), std::string::npos);
  EXPECT_NE(keyed, base);

  // Renaming the device must not fragment the cache...
  std::string renamed = kRing4;
  renamed.replace(renamed.find("ring4"), 5, "other");
  MapOptions with_renamed;
  with_renamed.device =
      std::make_shared<const DeviceModel>(DeviceModel::from_json(renamed));
  EXPECT_EQ(ResultCache::key("sabre", 8, with_renamed), keyed);

  // ...but editing one calibration value must miss it.
  std::string recalibrated = kRing4;
  recalibrated.replace(recalibrated.find("0.2"), 3, "0.3");
  MapOptions with_edit;
  with_edit.device =
      std::make_shared<const DeviceModel>(DeviceModel::from_json(recalibrated));
  EXPECT_NE(ResultCache::key("sabre", 8, with_edit), keyed);

  // The objective is part of the key too.
  MapOptions fid = with_dev;
  fid.objective = Objective::kFidelity;
  EXPECT_NE(ResultCache::key("sabre", 8, fid), keyed);
}

TEST(ResultCacheDevice, DeviceRequestsAreCacheableRawTargetsAreNot) {
  const MapperEngine& sabre = MapperPipeline::global().at("sabre");
  MapOptions opts;
  EXPECT_TRUE(ResultCache::cacheable(sabre, opts));
  opts.device =
      std::make_shared<const DeviceModel>(DeviceModel::from_json(kRing4));
  EXPECT_TRUE(ResultCache::cacheable(sabre, opts));
  const CouplingGraph g = make_line(4);
  MapOptions raw;
  raw.target = &g;
  EXPECT_FALSE(ResultCache::cacheable(sabre, raw));
}

TEST(ResultCacheTtl, ExpiresEntriesLazilyAndCountsThem) {
  ResultCache cache(8, 1, 0.02);  // 20ms TTL
  EXPECT_DOUBLE_EQ(cache.ttl_seconds(), 0.02);
  auto value = std::make_shared<const MapResult>();
  cache.put("k", value);
  EXPECT_NE(cache.get("k"), nullptr);
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  EXPECT_EQ(cache.get("k"), nullptr);
  const ResultCache::Stats s = cache.stats();
  EXPECT_EQ(s.expired, 1u);
  EXPECT_EQ(s.entries, 0u);
  EXPECT_GE(s.misses, 1u);

  // put() refreshes the clock: a rewritten entry lives a full TTL again.
  cache.put("k", value);
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  cache.put("k", value);
  std::this_thread::sleep_for(std::chrono::milliseconds(12));
  EXPECT_NE(cache.get("k"), nullptr);

  // TTL 0 disables aging entirely.
  ResultCache ageless(8, 1, 0.0);
  ageless.put("k", value);
  std::this_thread::sleep_for(std::chrono::milliseconds(30));
  EXPECT_NE(ageless.get("k"), nullptr);
  EXPECT_EQ(ageless.stats().expired, 0u);
}

}  // namespace
}  // namespace qfto
