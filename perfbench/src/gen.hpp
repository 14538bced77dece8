// Seeded input generator. One seed drives every choice a workload makes, and
// the same seed yields byte-identical inputs (serialize() is the proof the
// tests compare). qfto only ever receives what is generated here: engine
// names and sizes, OpenQASM text, device JSON and serve request lines.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/// SplitMix64: small, fully specified, so inputs do not depend on the
/// standard library's distribution implementations.
class Rng {
 public:
  explicit Rng(std::uint64_t seed) : s_(seed) {}
  std::uint64_t next();
  /// Uniform in [0, bound); bound must be > 0.
  std::uint64_t below(std::uint64_t bound) { return next() % bound; }
  /// Uniform in [0, 1).
  double real() { return static_cast<double>(next() >> 11) * 0x1.0p-53; }
  /// Exponential gap with the given rate.
  double exp_gap(double rate);

 private:
  std::uint64_t s_;
};

/// One logical gate: kind is one of h x z (rz) c (cx) p (cu1); the angle of
/// z/p is pi / div.
struct GateSpec {
  char kind = 'h';
  std::int32_t a = 0;
  std::int32_t b = -1;
  std::int32_t div = 1;
};

/// A generated logical circuit and its OpenQASM 2.0 text.
struct LogicalSpec {
  std::int32_t qubits = 0;
  std::vector<GateSpec> gates;
  std::string qasm;
  std::int64_t count(char kind) const;
};

/// A generated calibrated device as device JSON.
struct DeviceSpec {
  std::string json;
};

// ------------------------------------------------------- qft_device_scale --
struct QftInstance {
  std::string engine;
  std::int32_t n = 0;
};
std::vector<QftInstance> gen_qft_scale(std::uint64_t seed);

// ------------------------------------------------------------ route_device --
struct RouteInstance {
  std::string label;      // per-layer name suffix, e.g. "sparse.n1024"
  std::string engine;     // "grid" (native grid) or "sabre" (on a target)
  std::int32_t qft_n = 0;  // > 0: route QFT(qft_n) instead of `circuit`
  std::string target;     // dense QFT target: "sycamore" / "heavy_hex_device"
  std::int32_t target_size = 0;  // sycamore m, heavy-hex device rows
  std::int32_t device = -1;       // index into RouteInputs::devices
  std::int32_t trials = 5;        // SABRE restarts
  LogicalSpec circuit;
};
struct RouteInputs {
  std::vector<DeviceSpec> devices;
  std::vector<RouteInstance> instances;
};
RouteInputs gen_route(std::uint64_t seed);

// --------------------------------------------------------------- sat_exact --
struct SatInstance {
  std::int32_t rows = 1;  // 1: a line of `cols` qubits
  std::int32_t cols = 0;
  std::int32_t n = 0;     // QFT size
  std::string label() const;
};
std::vector<SatInstance> gen_sat(std::uint64_t seed);

// ------------------------------------------------------------- serve_mixed --
enum class ReqKind { kHot, kDistinct, kQasm, kDevice, kScale };

struct ServeReq {
  ReqKind kind = ReqKind::kHot;
  std::string line;        // the request as sent
  std::string engine;
  std::int32_t n = 0;      // QFT size (native), or circuit qubits
  // Logical gate counts a general-circuit response must reproduce.
  std::int64_t h = 0, cphase = 0, cnot = 0;
};
struct ServePhase {
  std::vector<ServeReq> reqs;
  std::vector<double> offsets;  // arrival times from the phase start (s)
};
struct ServeInputs {
  ServePhase light;
  ServePhase heavy;
  std::vector<ServePhase> rungs;
};
ServeInputs gen_serve(std::uint64_t seed);

/// Hot, distinct and device-scale QFT keys the serve mix draws from (the
/// expected-value table must cover all of them).
std::vector<QftInstance> serve_qft_keys();

// --------------------------------------------------------------- provenance --
std::string serialize(const std::vector<QftInstance>& v);
std::string serialize(const RouteInputs& r);
std::string serialize(const std::vector<SatInstance>& v);
std::string serialize(const ServeInputs& s);
/// FNV-1a 64 of a serialized input set, printed with every run.
std::uint64_t fingerprint(const std::string& bytes);

}  // namespace perfbench
