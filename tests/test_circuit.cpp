#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "arch/latency_model.hpp"
#include "circuit/circuit.hpp"
#include "circuit/inverse.hpp"
#include "circuit/mapped_circuit.hpp"
#include "circuit/qft_spec.hpp"
#include "circuit/scheduler.hpp"
#include "circuit/stats.hpp"
#include "pipeline/mapper_pipeline.hpp"

namespace qfto {
namespace {

TEST(Gate, Factories) {
  const Gate h = Gate::h(3);
  EXPECT_EQ(h.kind, GateKind::kH);
  EXPECT_FALSE(h.two_qubit());
  EXPECT_EQ(h.q0, 3);
  EXPECT_EQ(h.q1, kInvalidQubit);

  const Gate cp = Gate::cphase(1, 2, 0.5);
  EXPECT_TRUE(cp.two_qubit());
  EXPECT_DOUBLE_EQ(cp.angle, 0.5);

  EXPECT_TRUE(Gate::swap(0, 1).two_qubit());
  EXPECT_TRUE(Gate::cnot(0, 1).two_qubit());
  EXPECT_FALSE(Gate::rz(0, 1.0).two_qubit());
  EXPECT_FALSE(Gate::x(0).two_qubit());
}

TEST(Gate, TouchesAndToString) {
  const Gate cp = Gate::cphase(1, 2, 0.5);
  EXPECT_TRUE(cp.touches(1));
  EXPECT_TRUE(cp.touches(2));
  EXPECT_FALSE(cp.touches(0));
  EXPECT_NE(cp.to_string().find("CP"), std::string::npos);
}

TEST(Circuit, AppendValidation) {
  Circuit c(2);
  EXPECT_NO_THROW(c.append(Gate::h(0)));
  EXPECT_THROW(c.append(Gate::h(2)), std::invalid_argument);
  EXPECT_THROW(c.append(Gate::swap(0, 0)), std::invalid_argument);
  EXPECT_THROW(c.append(Gate::swap(0, 5)), std::invalid_argument);
  EXPECT_EQ(c.size(), 1u);
}

TEST(Circuit, Extend) {
  Circuit a(2), b(2);
  a.append(Gate::h(0));
  b.append(Gate::h(1));
  a.extend(b);
  EXPECT_EQ(a.size(), 2u);
  Circuit wrong(3);
  EXPECT_THROW(a.extend(wrong), std::invalid_argument);
}

// ---------------------------------------------------------- packed store --

std::uint64_t bits(double x) {
  std::uint64_t b;
  std::memcpy(&b, &x, sizeof(b));
  return b;
}

/// Field-for-field equality with the angle compared bit for bit (Gate's
/// operator== uses a 1e-12 tolerance, too loose for a storage round trip).
void expect_same_gate(const Gate& got, const Gate& want) {
  EXPECT_EQ(got.kind, want.kind);
  EXPECT_EQ(got.q0, want.q0);
  EXPECT_EQ(got.q1, want.q1);
  EXPECT_EQ(bits(got.angle), bits(want.angle)) << got.to_string();
}

void expect_same_circuit(const Circuit& got, const std::vector<Gate>& want) {
  ASSERT_EQ(got.size(), want.size());
  std::size_t i = 0;
  for (const Gate& g : got) {
    expect_same_gate(g, want[i]);
    expect_same_gate(got[i], want[i]);
    ++i;
  }
}

Circuit build(std::int32_t n, const std::vector<Gate>& gates) {
  Circuit c(n);
  for (const Gate& g : gates) c.append(g);
  return c;
}

TEST(PackedStore, RoundTripsEveryKindAtEdgeQubits) {
  const std::int32_t n = 7;
  std::vector<Gate> want;
  for (std::size_t k = 0; k < kGateKindCount; ++k) {
    const auto kind = static_cast<GateKind>(k);
    const double angle =
        kind == GateKind::kRz || kind == GateKind::kCPhase ? 0.125 * k : 0.0;
    if (is_two_qubit(kind)) {
      want.push_back(Gate{kind, 0, n - 1, angle});
      want.push_back(Gate{kind, n - 1, 0, angle});
    } else {
      want.push_back(Gate{kind, 0, kInvalidQubit, angle});
      want.push_back(Gate{kind, n - 1, kInvalidQubit, angle});
    }
  }
  expect_same_circuit(build(n, want), want);
}

TEST(PackedStore, AnglesAreBitExact) {
  const double tiny = std::numeric_limits<double>::denorm_min();
  const std::vector<Gate> want = {
      Gate::rz(0, -0.0),         Gate::rz(1, 0.0),
      Gate::rz(0, 1e-300),       Gate::rz(1, tiny),
      Gate::cphase(0, 1, M_PI),  Gate::cphase(1, 0, -M_PI),
      Gate::rz(0, 0.3),          Gate::rz(1, 0.3),
      Gate::cphase(0, 1, 0.3),   Gate::h(0),
      Gate::rz(0, 0.3),          Gate::rz(1, -0.0),
  };
  const Circuit c = build(2, want);
  expect_same_circuit(c, want);
  // -0.0 is not +0.0: it takes a slot of its own; +0.0 uses slot 0.
  EXPECT_EQ(bits(c[0].angle), bits(-0.0));
  EXPECT_EQ(bits(c[1].angle), bits(0.0));
  // Slot 0 plus one slot per run of equal angles: -0.0, 1e-300, denorm_min,
  // pi, -pi, 0.3 (x3), 0.3 again after the H (which uses slot 0, so the last
  // slot is still 0.3 and is reused), then -0.0 again.
  EXPECT_EQ(c.angles().size(), 8u);
  EXPECT_EQ(bits(c.angles()[0]), bits(0.0));
}

TEST(PackedStore, AppendSlotMatchesAppend) {
  const double table[] = {M_PI / 2, M_PI / 4, -0.0};
  Circuit by_slot(3);
  const std::uint32_t base = by_slot.add_angles(table, 3);
  EXPECT_EQ(base, 1u);
  by_slot.append_slot(GateKind::kH, 0, kInvalidQubit, 0);
  by_slot.append_slot(GateKind::kCPhase, 0, 1, base);
  by_slot.append_slot(GateKind::kCPhase, 0, 2, base + 1);
  by_slot.append_slot(GateKind::kRz, 2, kInvalidQubit, base + 2);
  by_slot.append_slot(GateKind::kSwap, 1, 2, 0);

  const Circuit by_gate =
      build(3, {Gate::h(0), Gate::cphase(0, 1, M_PI / 2),
                Gate::cphase(0, 2, M_PI / 4), Gate::rz(2, -0.0),
                Gate::swap(1, 2)});
  EXPECT_EQ(by_slot.to_string(), by_gate.to_string());
  EXPECT_EQ(by_slot.fingerprint(), by_gate.fingerprint());

  // append's three range checks, plus the slot bound.
  EXPECT_THROW(by_slot.append_slot(GateKind::kH, 3, kInvalidQubit, 0),
               std::invalid_argument);
  EXPECT_THROW(by_slot.append_slot(GateKind::kSwap, 0, 3, 0),
               std::invalid_argument);
  EXPECT_THROW(by_slot.append_slot(GateKind::kSwap, 1, 1, 0),
               std::invalid_argument);
  EXPECT_THROW(by_slot.append_slot(GateKind::kRz, 0, kInvalidQubit, 4),
               std::invalid_argument);
  EXPECT_EQ(by_slot.size(), 5u);
}

TEST(PackedStore, CopyAndMoveCarryTheTable) {
  const std::vector<Gate> want = {Gate::rz(0, 0.7), Gate::cphase(0, 1, 1e-300),
                                  Gate::h(1), Gate::rz(1, -0.0)};
  Circuit a = build(2, want);
  const Circuit copy = a;
  expect_same_circuit(copy, want);
  EXPECT_EQ(copy.angles(), a.angles());

  Circuit moved = std::move(a);
  expect_same_circuit(moved, want);
  // The moved-from circuit is empty and still usable.
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move)
  a.append(Gate::h(0));
  a.append(Gate::rz(1, 0.5));
  expect_same_circuit(a, {Gate::h(0), Gate::rz(1, 0.5)});

  Circuit assigned(2);
  assigned.append(Gate::rz(0, 9.0));
  assigned = copy;
  expect_same_circuit(assigned, want);
  assigned = std::move(moved);
  expect_same_circuit(assigned, want);
}

TEST(PackedStore, ExtendMergesDifferentTables) {
  const std::vector<Gate> first = {Gate::rz(0, 0.5), Gate::cphase(0, 1, M_PI),
                                   Gate::h(1)};
  const std::vector<Gate> second = {Gate::rz(1, 0.75), Gate::swap(0, 1),
                                    Gate::cphase(1, 0, -0.0),
                                    Gate::rz(0, 0.5)};
  Circuit a = build(2, first);
  const Circuit b = build(2, second);
  a.extend(b);
  std::vector<Gate> both = first;
  both.insert(both.end(), second.begin(), second.end());
  expect_same_circuit(a, both);
  EXPECT_EQ(a.fingerprint(), build(2, both).fingerprint());
  expect_same_circuit(b, second);  // the source is untouched

  a.extend(a);  // self-extend doubles the circuit
  std::vector<Gate> twice = both;
  twice.insert(twice.end(), both.begin(), both.end());
  expect_same_circuit(a, twice);
}

TEST(PackedStore, RelabeledRewritesQubitsAndKeepsAngles) {
  const std::vector<Gate> logical = {Gate::h(0), Gate::cphase(0, 2, 0.25),
                                     Gate::rz(1, -0.0), Gate::swap(1, 2),
                                     Gate::cnot(2, 0), Gate::x(1)};
  const Circuit c = build(3, logical);
  const std::vector<std::int32_t> to = {4, 0, 2};
  std::vector<Gate> want;
  for (Gate g : logical) {
    g.q0 = to[static_cast<std::size_t>(g.q0)];
    if (g.two_qubit()) g.q1 = to[static_cast<std::size_t>(g.q1)];
    want.push_back(g);
  }
  const Circuit r = c.relabeled(5, to);
  EXPECT_EQ(r.num_qubits(), 5);
  expect_same_circuit(r, want);
  EXPECT_EQ(r.fingerprint(), build(5, want).fingerprint());

  EXPECT_THROW(c.relabeled(5, {4, 0}), std::invalid_argument);     // short
  EXPECT_THROW(c.relabeled(5, {4, 0, 4}), std::invalid_argument);  // not 1-1
  EXPECT_THROW(c.relabeled(4, {4, 0, 2}), std::invalid_argument);  // range
}

// Recorded with the 24-byte Gate store this layout replaced: the packed
// store must key the ResultCache exactly as before.
TEST(PackedStore, FingerprintGoldens) {
  EXPECT_EQ(Circuit(0).fingerprint(), 0x9b9ae0d7330029e1ULL);
  EXPECT_EQ(Circuit(5).fingerprint(), 0xf2f6d94c1fb855c5ULL);
  EXPECT_EQ(qft_logical(5).fingerprint(), 0x96570c88f362bbdeULL);
  EXPECT_EQ(qft_logical(12).fingerprint(), 0x63413d4936bcadd8ULL);

  Circuit k(4);
  k.append(Gate::h(0));
  k.append(Gate::x(3));
  k.append(Gate::rz(0, -0.0));
  k.append(Gate::rz(3, 1e-300));
  k.append(Gate::cphase(0, 3, M_PI));
  k.append(Gate::cphase(3, 0, -M_PI));
  k.append(Gate::swap(0, 3));
  k.append(Gate::cnot(3, 0));
  k.append(Gate::rz(1, 0.25));
  k.append(Gate::rz(2, 0.25));
  k.append(Gate::cphase(1, 2, 0.25));
  k.append(Gate::rz(1, 0.0));
  EXPECT_EQ(k.fingerprint(), 0xf7fbaaf7a7b78d62ULL);

  MapOptions o;
  o.keep_circuit = true;
  EXPECT_EQ(map_qft("lnn", 16, o).mapped.circuit.fingerprint(),
            0x32889c3dab5328faULL);
  EXPECT_EQ(map_qft("lattice", 36, o).mapped.circuit.fingerprint(),
            0xd63eb70e2276fb64ULL);
  EXPECT_EQ(map_qft("heavy_hex_device", 30, o).mapped.circuit.fingerprint(),
            0x4c47fe2001853c51ULL);
  EXPECT_EQ(map_qft("sabre", 9, o).mapped.circuit.fingerprint(),
            0x663514d327b5ff1dULL);
}

TEST(QftSpec, GateCount) {
  for (int n : {1, 2, 3, 8}) {
    const Circuit c = qft_logical(n);
    const GateCounts gc = count_gates(c);
    EXPECT_EQ(gc.h, n);
    EXPECT_EQ(gc.cphase, qft_pair_count(n));
    EXPECT_EQ(gc.swap, 0);
  }
}

TEST(QftSpec, Angles) {
  EXPECT_DOUBLE_EQ(qft_angle(0, 1), M_PI / 2.0);
  EXPECT_DOUBLE_EQ(qft_angle(0, 2), M_PI / 4.0);
  EXPECT_DOUBLE_EQ(qft_angle(3, 5), M_PI / 4.0);
  EXPECT_THROW(qft_angle(2, 2), std::invalid_argument);
}

TEST(Scheduler, SerialChainDepth) {
  Circuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::h(0));
  c.append(Gate::h(1));
  // Two H on wire 0 serialize; H on wire 1 is parallel.
  EXPECT_EQ(circuit_depth(c), 2);
}

TEST(Scheduler, TwoQubitBlocksBothWires) {
  Circuit c(3);
  c.append(Gate::cphase(0, 1, 1.0));
  c.append(Gate::cphase(1, 2, 1.0));
  c.append(Gate::cphase(0, 2, 1.0));
  EXPECT_EQ(circuit_depth(c), 3);
}

TEST(Scheduler, WeightedLatency) {
  Circuit c(2);
  c.append(Gate::swap(0, 1));
  c.append(Gate::cphase(0, 1, 1.0));
  auto lat = [](const Gate& g) -> Cycle {
    return g.kind == GateKind::kSwap ? 6 : 2;
  };
  EXPECT_EQ(schedule_asap_with(c, lat).depth, 8);
}

TEST(Scheduler, LayersGroupByStart) {
  Circuit c(4);
  c.append(Gate::h(0));
  c.append(Gate::h(1));
  c.append(Gate::cphase(0, 1, 1.0));
  c.append(Gate::h(2));
  const Schedule s = schedule_asap(c);
  const auto layers = s.layers();
  ASSERT_EQ(layers.size(), 2u);
  EXPECT_EQ(layers[0].size(), 3u);  // H0, H1, H2
  EXPECT_EQ(layers[1].size(), 1u);  // CP(0,1)
}

TEST(Scheduler, EmptyCircuit) {
  Circuit c(3);
  EXPECT_EQ(circuit_depth(c), 0);
}

TEST(Scheduler, LayersSkipEmptyStartCycles) {
  // Weighted latency leaves gaps between start cycles; the bucket fill must
  // drop the empty buckets exactly like the old sorted-map grouping did.
  Circuit c(2);
  c.append(Gate::swap(0, 1));        // starts 0, lasts 6
  c.append(Gate::cphase(0, 1, 1.0));  // starts 6
  c.append(Gate::h(0));               // starts 8
  auto lat = [](const Gate& g) -> Cycle {
    return g.kind == GateKind::kSwap ? 6 : 2;
  };
  const Schedule s = schedule_asap_with(c, lat);
  const auto layers = s.layers();
  ASSERT_EQ(layers.size(), 3u);
  EXPECT_EQ(layers[0], (std::vector<std::int32_t>{0}));
  EXPECT_EQ(layers[1], (std::vector<std::int32_t>{1}));
  EXPECT_EQ(layers[2], (std::vector<std::int32_t>{2}));
}

TEST(Scheduler, LatencyModelMatchesEquivalentCallable) {
  Circuit c(3);
  c.append(Gate::h(0));
  c.append(Gate::cphase(0, 1, 1.0));
  c.append(Gate::swap(1, 2));
  c.append(Gate::h(2));
  LatencyModel model;
  model.set_cost(GateKind::kSwap, 6).set_cost(GateKind::kCPhase, 2);
  auto fn = [](const Gate& g) -> Cycle {
    if (g.kind == GateKind::kSwap) return 6;
    if (g.kind == GateKind::kCPhase) return 2;
    return 1;
  };
  const Schedule a = schedule_asap(c, model);
  const Schedule b = schedule_asap_with(c, fn);
  EXPECT_EQ(a.depth, b.depth);
  EXPECT_EQ(a.start, b.start);
  EXPECT_EQ(circuit_depth(c, model), a.depth);
}

TEST(Stats, CountsAllKinds) {
  Circuit c(3);
  c.append(Gate::h(0));
  c.append(Gate::x(1));
  c.append(Gate::rz(2, 0.1));
  c.append(Gate::cphase(0, 1, 0.2));
  c.append(Gate::swap(1, 2));
  c.append(Gate::cnot(0, 2));
  const GateCounts gc = count_gates(c);
  EXPECT_EQ(gc.h, 1);
  EXPECT_EQ(gc.x, 1);
  EXPECT_EQ(gc.rz, 1);
  EXPECT_EQ(gc.cphase, 1);
  EXPECT_EQ(gc.swap, 1);
  EXPECT_EQ(gc.cnot, 1);
  EXPECT_EQ(gc.total(), 6);
  EXPECT_EQ(gc.two_qubit(), 3);
}

TEST(Inverse, ReversesAndConjugates) {
  Circuit c(2);
  c.append(Gate::h(0));
  c.append(Gate::cphase(0, 1, 0.5));
  c.append(Gate::rz(1, 0.25));
  const Circuit inv = inverse_circuit(c);
  ASSERT_EQ(inv.size(), 3u);
  EXPECT_EQ(inv[0].kind, GateKind::kRz);
  EXPECT_DOUBLE_EQ(inv[0].angle, -0.25);
  EXPECT_EQ(inv[1].kind, GateKind::kCPhase);
  EXPECT_DOUBLE_EQ(inv[1].angle, -0.5);
  EXPECT_EQ(inv[2].kind, GateKind::kH);
}

TEST(Inverse, MappedSwapsEndpoints) {
  MappedCircuit mc;
  mc.circuit = Circuit(2);
  mc.circuit.append(Gate::swap(0, 1));
  mc.initial = {0, 1};
  mc.final_mapping = {1, 0};
  const MappedCircuit inv = inverse_mapped(mc);
  EXPECT_EQ(inv.initial, (std::vector<PhysicalQubit>{1, 0}));
  EXPECT_EQ(inv.final_mapping, (std::vector<PhysicalQubit>{0, 1}));
}

TEST(MappedCircuitHelpers, ValidMapping) {
  EXPECT_TRUE(valid_mapping({0, 2, 1}, 3));
  EXPECT_FALSE(valid_mapping({0, 0}, 3));
  EXPECT_FALSE(valid_mapping({0, 3}, 3));
  EXPECT_FALSE(valid_mapping({-1}, 3));
  EXPECT_TRUE(valid_mapping({}, 0));
}

}  // namespace
}  // namespace qfto
