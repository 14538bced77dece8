// The logical QFT kernel (Fig. 2 of the paper) and its angle convention.
//
// Convention used throughout qfto:
//   for i in 0..n-1:  H(q_i);  for j in i+1..n-1: CPHASE(q_i, q_j, pi/2^{j-i})
//
// This is the textbook circuit *without* the trailing bit-reversal swaps; the
// linear-depth hardware solutions end with the qubits reversed on the device
// (q_i -> Q_{n-1-i}), which plays the role of the bit reversal.
#pragma once

#include "circuit/circuit.hpp"

namespace qfto {

/// Rotation angle of the QFT CPHASE between logical qubits i < j.
double qft_angle(LogicalQubit i, LogicalQubit j);

/// Registers the QFT angle of every gap 0..n-1 (gap 0 an unused +0.0
/// placeholder) in c's angle table and returns the slot of gap 0: a CPHASE
/// between logical qubits i < j uses slot `base + (j - i)`.
std::uint32_t add_qft_angles(Circuit& c, std::int32_t n);

/// Textbook-ordered logical QFT circuit on n qubits:
/// n H gates + n(n-1)/2 CPHASE gates.
Circuit qft_logical(std::int32_t n);

/// Number of CPHASE gates in QFT(n).
inline std::int64_t qft_pair_count(std::int64_t n) { return n * (n - 1) / 2; }

}  // namespace qfto
