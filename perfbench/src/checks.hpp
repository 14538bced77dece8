// Output checks. An operation counts as failed when its status is not ok,
// its checker verdict is not ok, its QFT H / CPHASE counts differ from the
// closed form (n and n(n-1)/2), a general circuit's H / CPHASE / CNOT counts
// differ from the generated input's, its depth or SWAP count differs from the
// value recorded in perfbench/expected.tsv, or (at n <= 7) its state vector
// disagrees with the reference: the DFT for QFT, the generated gate list
// simulated gate by gate for general circuits.
#pragma once

#include <cstdint>
#include <map>
#include <string>
#include <utility>

#include "circuit/circuit.hpp"
#include "circuit/mapped_circuit.hpp"
#include "gen.hpp"
#include "pipeline/mapper_pipeline.hpp"

namespace perfbench {

/// Outcome of one operation. A refusal (an error status, no answer, an
/// exception) fails the operation; a wrong answer fails it and also makes
/// the run incorrect.
struct Verdict {
  enum Kind { kOk, kRefused, kWrong };
  Kind kind = kOk;
  std::string why;
  bool ok() const { return kind == kOk; }
  static Verdict refused(std::string why) { return {kRefused, std::move(why)}; }
  static Verdict wrong(std::string why) { return {kWrong, std::move(why)}; }
};

struct Expected {
  std::int64_t depth = 0;
  std::int64_t swaps = 0;
};

/// Recorded depth / SWAP values keyed by instance (see the key helpers).
/// Lines: `<key> <depth> <swaps>`; '#' starts a comment.
class ExpectedTable {
 public:
  /// Throws std::runtime_error when the file cannot be read or parsed.
  static ExpectedTable load(const std::string& path);
  void set(const std::string& key, Expected e) { rows_[key] = e; }
  const Expected* find(const std::string& key) const;
  std::string text() const;

 private:
  std::map<std::string, Expected> rows_;
};

std::string qft_key(const std::string& engine, std::int32_t n);
std::string sabre_qft_key(const RouteInstance& r);
std::string satmap_key(const SatInstance& s);

/// The fields of a serve response line the checks and metrics read.
struct Response {
  bool parsed = false;
  bool ok = false;
  std::string status;
  std::string error;  // in-band error text of a failed response
  bool verified = false;  // the checker's numbers are present
  std::int64_t n = 0, depth = 0, h = 0, cphase = 0, swap = 0, cnot = 0;
  double log10_fidelity = 0.0;
  bool cache_hit = false;
  double map_s = 0.0, check_s = 0.0, queue_s = 0.0;
};
Response parse_response(const std::string& line);

/// The checks on one result. `key` selects the expected row.
Verdict check_qft(const qfto::MapResult& r, const ExpectedTable& table,
                  const std::string& key);
Verdict check_circuit(const qfto::MapResult& r, const LogicalSpec& spec);
Verdict check_response(const Response& resp, const ServeReq& req,
                       const ExpectedTable& table);

/// The generated gate list as a qfto circuit, built gate by gate (not
/// through the QASM parser).
qfto::Circuit to_circuit(const LogicalSpec& spec);

/// Largest amplitude error between the mapped circuit and the reference on
/// random logical states: the DFT of the bit-reversed input when `logical`
/// is null (QFT), else `logical` simulated on the same input.
double sim_mismatch(const qfto::MappedCircuit& mc,
                    const qfto::Circuit* logical, std::uint64_t seed);
inline constexpr double kSimTolerance = 1e-9;

}  // namespace perfbench
