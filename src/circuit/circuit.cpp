#include "circuit/circuit.hpp"

#include <cstdint>
#include <cstring>

#if defined(__linux__)
#include <sys/mman.h>
#endif

#include "common/prng.hpp"

namespace qfto {

namespace {

/// Hash-combine via the shared SplitMix64 (full-avalanche finalizer).
std::uint64_t mix64(std::uint64_t x) { return SplitMix64(x).next(); }

}  // namespace

Circuit::Circuit(std::int32_t num_qubits) : num_qubits_(num_qubits) {
  require(num_qubits >= 0, "Circuit: negative qubit count");
}

Circuit& Circuit::operator=(const Circuit& other) {
  if (this == &other) return *this;
  num_qubits_ = other.num_qubits_;
  size_ = other.size_;
  capacity_ = other.size_;  // copies are exact-sized, not reservation-sized
  store_.reset(size_ > 0 ? new Packed[size_] : nullptr);
  if (size_ > 0) {
    std::memcpy(store_.get(), other.store_.get(), size_ * sizeof(Packed));
  }
  angles_ = other.angles_;
  return *this;
}

Circuit& Circuit::operator=(Circuit&& other) noexcept {
  num_qubits_ = other.num_qubits_;
  store_ = std::move(other.store_);
  size_ = other.size_;
  capacity_ = other.capacity_;
  other.size_ = 0;
  other.capacity_ = 0;
  // Leave `other` a valid empty circuit: it takes our old table (never
  // empty, so the assign reuses its storage) cut back to slot 0.
  angles_.swap(other.angles_);
  other.angles_.assign(1, 0.0);
  return *this;
}

void Circuit::grow(std::size_t need) {
  std::size_t cap = capacity_ == 0 ? 16 : capacity_ * 2;
  if (cap < need) cap = need;
  // Packed is trivially default-constructible, so new[] leaves the tail
  // uninitialized — no zero/fill pass over what can be a GB-sized block.
  std::unique_ptr<Packed[]> fresh(new Packed[cap]);
  if (size_ > 0) {
    std::memcpy(fresh.get(), store_.get(), size_ * sizeof(Packed));
  }
  store_ = std::move(fresh);
  capacity_ = cap;
}

std::uint32_t Circuit::add_angles(const double* ptr, std::size_t count) {
  const std::size_t base = angles_.size();
  require(count <= kMaxSlots - base, "Circuit: angle table full");
  angles_.insert(angles_.end(), ptr, ptr + count);
  return static_cast<std::uint32_t>(base);
}

void Circuit::reserve(std::size_t gate_count) {
  if (gate_count <= capacity_) return;
  grow(gate_count);
#if defined(__linux__) && defined(MADV_POPULATE_WRITE)
  // Batch the soft page faults of a device-scale reservation up front: one
  // kernel pass over the fresh mapping is measurably cheaper than taking the
  // same faults interleaved with the emit loop. Deliberately NOT
  // MADV_HUGEPAGE: with `defrag=madvise` (the common default) huge-page
  // faults run synchronous compaction and can be several times slower per
  // byte than plain 4 KiB population. Best-effort: errors are ignored (the
  // advice flag is 5.14+; pre-populate is an optimization, not a contract).
  constexpr std::uintptr_t kPage = 4096;
  const std::size_t bytes = capacity_ * sizeof(Packed);
  if (bytes >= (std::size_t{16} << 20)) {
    const auto base = reinterpret_cast<std::uintptr_t>(store_.get());
    const std::uintptr_t lo = (base + kPage - 1) & ~(kPage - 1);
    const std::uintptr_t hi = (base + bytes) & ~(kPage - 1);
    if (hi > lo) {
      madvise(reinterpret_cast<void*>(lo), hi - lo, MADV_POPULATE_WRITE);
    }
  }
#endif
}

void Circuit::extend(const Circuit& other) {
  require(other.num_qubits_ == num_qubits_,
          "Circuit::extend: qubit count mismatch");
  if (other.size_ == 0) return;
  if (&other == this) {
    const Circuit copy = other;
    extend(copy);
    return;
  }
  if (size_ + other.size_ > capacity_) grow(size_ + other.size_);
  // Other's slot s > 0 becomes base + s - 1; slot 0 (+0.0) stays slot 0.
  const std::uint32_t base =
      add_angles(other.angles_.data() + 1, other.angles_.size() - 1);
  const std::uint32_t shift = (base - 1) << kKindBits;
  for (std::size_t i = 0; i < other.size_; ++i) {
    Packed p = other.store_[i];
    if ((p.kind_slot >> kKindBits) != 0) p.kind_slot += shift;
    store_[size_ + i] = p;
  }
  size_ += other.size_;
}

Circuit Circuit::relabeled(std::int32_t num_qubits,
                           const std::vector<std::int32_t>& to) const {
  require(to.size() >= static_cast<std::size_t>(num_qubits_),
          "Circuit::relabeled: map shorter than the circuit");
  Circuit out(num_qubits);
  std::vector<bool> taken(static_cast<std::size_t>(num_qubits), false);
  for (std::int32_t q = 0; q < num_qubits_; ++q) {
    const std::int32_t t = to[static_cast<std::size_t>(q)];
    require(t >= 0 && t < num_qubits && !taken[static_cast<std::size_t>(t)],
            "Circuit::relabeled: map is not injective into range");
    taken[static_cast<std::size_t>(t)] = true;
  }
  // An injective in-range map keeps every gate valid: no per-gate checks.
  out.angles_ = angles_;
  if (size_ > 0) out.grow(size_);
  for (std::size_t i = 0; i < size_; ++i) {
    Packed p = store_[i];
    p.q0 = to[static_cast<std::size_t>(p.q0)];
    if (is_two_qubit(kind_of(p))) p.q1 = to[static_cast<std::size_t>(p.q1)];
    out.store_[i] = p;
  }
  out.size_ = size_;
  return out;
}

std::uint64_t Circuit::fingerprint() const {
  std::uint64_t h = mix64(0x51ab5u ^ static_cast<std::uint64_t>(num_qubits_));
  for (const auto& g : *this) {
    std::uint64_t angle_bits = 0;
    std::memcpy(&angle_bits, &g.angle, sizeof(angle_bits));
    h = mix64(h ^ static_cast<std::uint64_t>(g.kind));
    h = mix64(h ^ (static_cast<std::uint64_t>(static_cast<std::uint32_t>(g.q0))
                   << 32 |
                   static_cast<std::uint32_t>(g.q1)));
    h = mix64(h ^ angle_bits);
  }
  return h;
}

std::string Circuit::to_string() const {
  std::string out;
  for (const auto& g : *this) {
    out += g.to_string();
    out += '\n';
  }
  return out;
}

}  // namespace qfto
