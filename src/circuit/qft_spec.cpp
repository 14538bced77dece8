#include "circuit/qft_spec.hpp"

#include <cmath>
#include <vector>

namespace qfto {

double qft_angle(LogicalQubit i, LogicalQubit j) {
  require(i < j, "qft_angle: expects i < j");
  // R_k in the textbook circuit applies phase 2*pi/2^k with k = j - i + 1,
  // i.e. pi / 2^{j-i}. ldexp scales the exponent directly — bit-identical to
  // dividing by pow(2, j-i), without the libm call per gate.
  return std::ldexp(M_PI, -(j - i));
}

std::uint32_t add_qft_angles(Circuit& c, std::int32_t n) {
  std::vector<double> angle_by_gap(static_cast<std::size_t>(n > 0 ? n : 1),
                                   0.0);
  for (LogicalQubit gap = 1; gap < n; ++gap) {
    angle_by_gap[static_cast<std::size_t>(gap)] = qft_angle(0, gap);
  }
  return c.add_angles(angle_by_gap.data(), angle_by_gap.size());
}

Circuit qft_logical(std::int32_t n) {
  Circuit c(n);
  const std::uint32_t gap_slot = add_qft_angles(c, n);
  for (LogicalQubit i = 0; i < n; ++i) {
    c.append(Gate::h(i));
    for (LogicalQubit j = i + 1; j < n; ++j) {
      c.append_slot(GateKind::kCPhase, i, j,
                    gap_slot + static_cast<std::uint32_t>(j - i));
    }
  }
  return c;
}

}  // namespace qfto
