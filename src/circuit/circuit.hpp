// A circuit is an ordered gate list over `num_qubits` wires. The order is a
// valid topological order of whichever dependency relation produced it; the
// scheduler (scheduler.hpp) turns it into parallel layers / weighted depth.
//
// Storage is a flat, manually-grown array of 12-byte packed records plus a
// per-circuit angle table, rather than a std::vector<Gate>: the emit hot path
// appends tens of millions of gates at device scale (QFT-8192 emits 68.4 M),
// where storing the 24-byte Gate itself would take 1.6 GB. A record holds the
// kind in the low 3 bits of `kind_slot` and, in the 29 bits above, a slot
// into `angles_`, so every angle round-trips bit-exactly. Slot 0 always holds
// +0.0 (H, X, SWAP and CNOT all use it). A QFT circuit has only n distinct
// angles, so emitters register them once (add_angles) and append through the
// slot (append_slot): an append is then one bounds-predictable branch and one
// 12-byte store. Readers get Gate values back (operator[], iteration), so
// everything computed from gates — fingerprints, dumps, QASM — is the same
// as if the Gates themselves were stored.
#pragma once

#include <cstddef>
#include <cstdint>
#include <cstring>
#include <iterator>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "circuit/gate.hpp"

namespace qfto {

class Circuit {
 public:
  /// One stored gate: kind in bits 0-2 of kind_slot, angle slot above.
  struct Packed {
    std::uint32_t kind_slot;
    std::int32_t q0;
    std::int32_t q1;
  };
  static_assert(sizeof(Packed) == 12, "the packed gate record is 12 bytes");
  static_assert(std::is_trivially_default_constructible_v<Packed>,
                "new Packed[] must not zero-fill a device-scale store");

  static constexpr unsigned kKindBits = 3;
  static constexpr std::uint32_t kMaxSlots = std::uint32_t{1}
                                             << (32 - kKindBits);
  static_assert(kGateKindCount <= (1u << kKindBits),
                "GateKind no longer fits the packed kind bits");

  /// Input iterator yielding unpacked Gate values.
  class const_iterator {
   public:
    using iterator_category = std::input_iterator_tag;
    using value_type = Gate;
    using difference_type = std::ptrdiff_t;
    using pointer = void;
    using reference = Gate;

    const_iterator(const Packed* p, const double* angles)
        : p_(p), angles_(angles) {}
    Gate operator*() const { return unpack(*p_, angles_); }
    const_iterator& operator++() {
      ++p_;
      return *this;
    }
    const_iterator operator++(int) {
      const_iterator old = *this;
      ++p_;
      return old;
    }
    bool operator==(const const_iterator& o) const { return p_ == o.p_; }
    bool operator!=(const const_iterator& o) const { return p_ != o.p_; }

   private:
    const Packed* p_;
    const double* angles_;
  };

  Circuit() = default;
  explicit Circuit(std::int32_t num_qubits);

  Circuit(const Circuit& other) { *this = other; }
  Circuit& operator=(const Circuit& other);
  Circuit(Circuit&& other) noexcept { *this = std::move(other); }
  Circuit& operator=(Circuit&& other) noexcept;

  std::int32_t num_qubits() const { return num_qubits_; }

  /// Appends a gate; validates qubit indices are in range and distinct.
  /// Inline: this is the emit hot path (one call per mapped gate, tens of
  /// millions at device scale), and the three guards are branch-predictable.
  /// A bit-exact +0.0 angle uses slot 0, an angle equal (bit for bit) to the
  /// last slot reuses it, and any other angle takes a new slot.
  void append(const Gate& g) {
    check_qubits(g.kind, g.q0, g.q1);
    push(g.kind, g.q0, g.q1, slot_for(g.angle));
  }

  /// Copies `count` angles into the table and returns the slot of the first;
  /// angle `ptr[i]` is then slot `base + i`.
  std::uint32_t add_angles(const double* ptr, std::size_t count);

  /// Appends a gate whose angle is `angles()[slot]`, with append's checks.
  void append_slot(GateKind kind, std::int32_t q0, std::int32_t q1,
                   std::uint32_t slot) {
    check_qubits(kind, q0, q1);
    require(slot < angles_.size(), "Circuit::append_slot: slot out of range");
    push(kind, q0, q1, slot);
  }

  /// Pre-sizes the gate store. Emitters with a good a-priori gate-count
  /// estimate call this once: growth reallocation (copying the whole tail)
  /// dominated device-scale emission before. Large reservations are also
  /// prefaulted in one batched pass (see circuit.cpp), which beats taking
  /// soft page faults interleaved with the emit loop.
  void reserve(std::size_t gate_count);
  std::size_t capacity() const { return capacity_; }

  /// Appends every gate of `other` (qubit counts must match), merging its
  /// angle table into this one.
  void extend(const Circuit& other);

  /// This circuit on `num_qubits` wires with every qubit id q rewritten to
  /// `to[q]`. `to` must map each of this circuit's wires injectively into
  /// [0, num_qubits). Copies the records and angle table wholesale.
  Circuit relabeled(std::int32_t num_qubits,
                    const std::vector<std::int32_t>& to) const;

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  Gate operator[](std::size_t i) const {
    return unpack(store_[i], angles_.data());
  }

  const_iterator begin() const { return {store_.get(), angles_.data()}; }
  const_iterator end() const { return {store_.get() + size_, angles_.data()}; }

  /// The angle table (slot 0 is +0.0).
  const std::vector<double>& angles() const { return angles_; }

  /// Multi-line dump, one gate per line (debugging / golden tests).
  std::string to_string() const;

  /// Order-sensitive 64-bit content fingerprint over (num_qubits, every
  /// gate's kind/qubits/angle bit pattern). This is what keys general
  /// circuits in the ResultCache, so two different circuits of the same size
  /// and options never collide on a cache entry (up to 64-bit hash
  /// collisions).
  std::uint64_t fingerprint() const;

 private:
  static GateKind kind_of(const Packed& p) {
    return static_cast<GateKind>(p.kind_slot & ((1u << kKindBits) - 1));
  }

  static Gate unpack(const Packed& p, const double* angles) {
    return Gate{kind_of(p), p.q0, p.q1, angles[p.kind_slot >> kKindBits]};
  }

  void check_qubits(GateKind kind, std::int32_t q0, std::int32_t q1) const {
    require(q0 >= 0 && q0 < num_qubits_, "Circuit::append: q0 out of range");
    if (is_two_qubit(kind)) {
      require(q1 >= 0 && q1 < num_qubits_,
              "Circuit::append: q1 out of range");
      require(q0 != q1, "Circuit::append: two-qubit gate on a single wire");
    }
  }

  std::uint32_t slot_for(double angle) {
    const std::uint64_t bits = bits_of(angle);
    if (bits == 0) return 0;
    const auto last = static_cast<std::uint32_t>(angles_.size() - 1);
    if (bits_of(angles_[last]) == bits) return last;
    return add_angles(&angle, 1);
  }

  static std::uint64_t bits_of(double x) {
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
  }

  void push(GateKind kind, std::int32_t q0, std::int32_t q1,
            std::uint32_t slot) {
    if (size_ == capacity_) grow(size_ + 1);
    store_[size_++] =
        Packed{slot << kKindBits | static_cast<std::uint32_t>(kind), q0, q1};
  }

  void grow(std::size_t need);

  std::int32_t num_qubits_ = 0;
  std::unique_ptr<Packed[]> store_;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
  std::vector<double> angles_ = std::vector<double>(1, 0.0);
};

}  // namespace qfto
