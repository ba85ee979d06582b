#pragma once

// Word-at-a-time sweeps over Flag lanes.
//
// Pbool lanes and where-mask entries are normalized to 0/1 bytes (every
// producer in parallel.cpp writes `? 1 : 0`, bit planes are `& 1`, and the
// wired-OR bus only ever combines those), so eight lanes pack into one
// uint64_t and a single bitwise op replaces eight byte ops. That matters
// here more than usual: these sweeps dominate the word backend's hot path
// and must stay fast even in unoptimized builds, where per-byte loops carry
// the full load/store bookkeeping per element.
//
// Each helper sweeps PEs [0, count): whole 8-lane words first, then the
// tail byte by byte.

#include <cstdint>
#include <cstring>

#include "sim/bus.hpp"

namespace ppa::ppc::flag_sweep {

using sim::Flag;

inline constexpr std::uint64_t kOnes = 0x0101010101010101ull;
inline constexpr std::uint64_t kHigh = 0x8080808080808080ull;

/// 0x01 in every byte of `x` that was nonzero, 0x00 elsewhere.
inline std::uint64_t normalize8(std::uint64_t x) {
  return ((((x & ~kHigh) + ~kHigh) | x) & kHigh) >> 7;
}

/// out[pe] = a[pe] & b[pe] for pe < count. Inputs must be 0/1.
inline void and_flags(const Flag* a, const Flag* b, Flag* out, std::size_t count) {
  std::size_t pe = 0;
  for (; pe + 8 <= count; pe += 8) {
    std::uint64_t va;
    std::uint64_t vb;
    std::memcpy(&va, a + pe, 8);
    std::memcpy(&vb, b + pe, 8);
    const std::uint64_t vo = va & vb;
    std::memcpy(out + pe, &vo, 8);
  }
  for (; pe < count; ++pe) out[pe] = static_cast<Flag>(a[pe] & b[pe]);
}

/// out[pe] = a[pe] | b[pe] for pe < count. Inputs must be 0/1.
inline void or_flags(const Flag* a, const Flag* b, Flag* out, std::size_t count) {
  std::size_t pe = 0;
  for (; pe + 8 <= count; pe += 8) {
    std::uint64_t va;
    std::uint64_t vb;
    std::memcpy(&va, a + pe, 8);
    std::memcpy(&vb, b + pe, 8);
    const std::uint64_t vo = va | vb;
    std::memcpy(out + pe, &vo, 8);
  }
  for (; pe < count; ++pe) out[pe] = static_cast<Flag>(a[pe] | b[pe]);
}

/// out[pe] = a[pe] ^ b[pe] for pe < count. Inputs must be 0/1.
inline void xor_flags(const Flag* a, const Flag* b, Flag* out, std::size_t count) {
  std::size_t pe = 0;
  for (; pe + 8 <= count; pe += 8) {
    std::uint64_t va;
    std::uint64_t vb;
    std::memcpy(&va, a + pe, 8);
    std::memcpy(&vb, b + pe, 8);
    const std::uint64_t vo = va ^ vb;
    std::memcpy(out + pe, &vo, 8);
  }
  for (; pe < count; ++pe) out[pe] = static_cast<Flag>(a[pe] ^ b[pe]);
}

/// out[pe] = !a[pe] for pe < count. Input must be 0/1.
inline void not_flags(const Flag* a, Flag* out, std::size_t count) {
  std::size_t pe = 0;
  for (; pe + 8 <= count; pe += 8) {
    std::uint64_t va;
    std::memcpy(&va, a + pe, 8);
    const std::uint64_t vo = va ^ kOnes;
    std::memcpy(out + pe, &vo, 8);
  }
  for (; pe < count; ++pe) out[pe] = static_cast<Flag>(a[pe] ^ 1u);
}

/// dst[pe] = mask[pe] ? src[pe] : dst[pe] for pe < count. The mask must be
/// 0/1 (where-masks are); multiplying by 0xFF widens each mask byte to
/// 0x00/0xFF without cross-byte carries, giving a branch-free blend.
inline void masked_assign_flags(const Flag* mask, const Flag* src, Flag* dst,
                                std::size_t count) {
  std::size_t pe = 0;
  for (; pe + 8 <= count; pe += 8) {
    std::uint64_t vm;
    std::uint64_t vs;
    std::uint64_t vd;
    std::memcpy(&vm, mask + pe, 8);
    std::memcpy(&vs, src + pe, 8);
    std::memcpy(&vd, dst + pe, 8);
    const std::uint64_t wide = vm * 0xFFull;
    const std::uint64_t vo = vd ^ ((vd ^ vs) & wide);
    std::memcpy(dst + pe, &vo, 8);
  }
  for (; pe < count; ++pe) {
    if (mask[pe]) dst[pe] = src[pe];
  }
}

/// out[pe] = top[pe] & bool(cond[pe]) (or its negation) for pe < count.
/// `top` must be 0/1; `cond` may hold arbitrary bytes, so it is collapsed
/// to 0/1 first.
inline void mask_and_cond(const Flag* top, const Flag* cond, Flag* out, bool negate,
                          std::size_t count) {
  const std::uint64_t flip = negate ? kOnes : 0;
  std::size_t pe = 0;
  for (; pe + 8 <= count; pe += 8) {
    std::uint64_t vt;
    std::uint64_t vc;
    std::memcpy(&vt, top + pe, 8);
    std::memcpy(&vc, cond + pe, 8);
    const std::uint64_t vo = vt & (normalize8(vc) ^ flip);
    std::memcpy(out + pe, &vo, 8);
  }
  for (; pe < count; ++pe) {
    const Flag c = static_cast<Flag>((cond[pe] ? 1u : 0u) ^ (negate ? 1u : 0u));
    out[pe] = static_cast<Flag>(top[pe] & c);
  }
}

}  // namespace ppa::ppc::flag_sweep
