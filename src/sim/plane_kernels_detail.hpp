// Shared kernel bodies for the SIMD arms, templated on a vector trait.
//
// Each arm supplies a trait type V with:
//   V::W                          — words per vector register
//   V::reg                        — register type
//   load / store / zero           — unaligned word access
//   and_ / or_ / xor_ / andnot    — bitwise lanes (andnot(a, b) = a & ~b)
//   shl<D> / shr<D> / srlv        — per-word logical shifts (srlv: by a
//                                   per-word count)
//   sub / set1 / gather           — per-word subtract, broadcast, and
//                                   indexed load base[index]
//   is_zero                       — whole-register test
// The bodies below keep all loop-carried state (ripple carry, the
// MSB-first lt/eq pair, the saturation mask) in registers; the only
// memory traffic is the operand planes themselves. Every multi-plane
// kernel iterates the WORD index outermost and the plane index inside,
// so a [begin, end) word sub-range is exact — that is what makes the
// thread-pool chunking in PlaneAlu bit-identical to a sequential sweep.
//
// VecScalar (W = 1) instantiates the same bodies for the scalar table
// and serves as every wider arm's tail loop.
#pragma once

#include <cstddef>

#include "sim/bit_planes.hpp"

namespace ppa::sim::plane_kernels::detail {

using sim::PlaneWord;

struct VecScalar {
  static constexpr std::size_t W = 1;
  using reg = PlaneWord;
  static reg load(const PlaneWord* p) noexcept { return *p; }
  static void store(PlaneWord* p, reg v) noexcept { *p = v; }
  static reg zero() noexcept { return 0; }
  static reg and_(reg a, reg b) noexcept { return a & b; }
  static reg or_(reg a, reg b) noexcept { return a | b; }
  static reg xor_(reg a, reg b) noexcept { return a ^ b; }
  static reg andnot(reg a, reg b) noexcept { return a & ~b; }
  template <int D>
  static reg shl(reg a) noexcept { return a << D; }
  template <int D>
  static reg shr(reg a) noexcept { return a >> D; }
  static reg srlv(reg a, reg count) noexcept { return a >> count; }
  static reg sub(reg a, reg b) noexcept { return a - b; }
  static reg set1(PlaneWord v) noexcept { return v; }
  static reg gather(const PlaneWord* base, reg index) noexcept { return base[index]; }
  static bool is_zero(reg a) noexcept { return a == 0; }
};

template <class V>
void t_op_and(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
              std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    V::store(out + i, V::and_(V::load(a + i), V::load(b + i)));
  }
  for (; i < words; ++i) out[i] = a[i] & b[i];
}

template <class V>
void t_op_or(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
             std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    V::store(out + i, V::or_(V::load(a + i), V::load(b + i)));
  }
  for (; i < words; ++i) out[i] = a[i] | b[i];
}

template <class V>
void t_op_xor(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
              std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    V::store(out + i, V::xor_(V::load(a + i), V::load(b + i)));
  }
  for (; i < words; ++i) out[i] = a[i] ^ b[i];
}

template <class V>
void t_op_andnot(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                 std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    V::store(out + i, V::andnot(V::load(a + i), V::load(b + i)));
  }
  for (; i < words; ++i) out[i] = a[i] & ~b[i];
}

template <class V>
void t_op_copy(const PlaneWord* a, PlaneWord* out, std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) V::store(out + i, V::load(a + i));
  for (; i < words; ++i) out[i] = a[i];
}

template <class V>
void t_op_zero(PlaneWord* out, std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) V::store(out + i, V::zero());
  for (; i < words; ++i) out[i] = 0;
}

template <class V>
void t_masked_assign(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                     std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    const auto d = V::load(dst + i);
    V::store(dst + i, V::xor_(d, V::and_(V::xor_(d, V::load(src + i)), V::load(mask + i))));
  }
  for (; i < words; ++i) dst[i] ^= (dst[i] ^ src[i]) & mask[i];
}

template <class V>
void t_blend(const PlaneWord* cond, const PlaneWord* a, const PlaneWord* b,
             PlaneWord* out, std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    const auto vb = V::load(b + i);
    V::store(out + i,
             V::xor_(vb, V::and_(V::xor_(vb, V::load(a + i)), V::load(cond + i))));
  }
  for (; i < words; ++i) out[i] = b[i] ^ ((b[i] ^ a[i]) & cond[i]);
}

template <class V>
bool t_all_zero(const PlaneWord* a, std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    if (!V::is_zero(V::load(a + i))) return false;
  }
  for (; i < words; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}

template <class V>
bool t_equal(const PlaneWord* a, const PlaneWord* b, std::size_t words) noexcept {
  std::size_t i = 0;
  for (; i + V::W <= words; i += V::W) {
    if (!V::is_zero(V::xor_(V::load(a + i), V::load(b + i)))) return false;
  }
  for (; i < words; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

template <class V>
void t_add_sat(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
               const PlaneWord* full, PlaneWord* out, std::size_t begin,
               std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    auto carry = V::zero();
    auto ones = V::load(full + i);
    for (int j = 0; j < h; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      const auto va = V::load(a + off);
      const auto vb = V::load(b + off);
      const auto axb = V::xor_(va, vb);
      const auto s = V::xor_(axb, carry);
      carry = V::or_(V::and_(va, vb), V::and_(carry, axb));
      V::store(out + off, s);
      ones = V::and_(ones, s);
    }
    // carry|ones = lanes whose sum reached the clamp; force them all-ones.
    ones = V::or_(ones, carry);
    for (int j = 0; j < h; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      V::store(out + off, V::or_(V::load(out + off), ones));
    }
  }
  if constexpr (V::W > 1) {
    if (i < end) t_add_sat<VecScalar>(a, b, h, pw, full, out, i, end);
  }
}

template <class V>
void t_compare_lt(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* lt, PlaneWord* eq,
                  std::size_t begin, std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    auto vlt = V::zero();
    auto veq = V::load(full + i);
    for (int j = h - 1; j >= 0; --j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      const auto va = V::load(a + off);
      const auto vb = V::load(b + off);
      vlt = V::or_(vlt, V::and_(veq, V::andnot(vb, va)));
      veq = V::andnot(veq, V::xor_(va, vb));
    }
    V::store(lt + i, vlt);
    V::store(eq + i, veq);
  }
  if constexpr (V::W > 1) {
    if (i < end) t_compare_lt<VecScalar>(a, b, h, pw, full, lt, eq, i, end);
  }
}

template <class V>
void t_compare_eq(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* eq, std::size_t begin,
                  std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    auto veq = V::load(full + i);
    for (int j = 0; j < h; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      veq = V::andnot(veq, V::xor_(V::load(a + off), V::load(b + off)));
    }
    V::store(eq + i, veq);
  }
  if constexpr (V::W > 1) {
    if (i < end) t_compare_eq<VecScalar>(a, b, h, pw, full, eq, i, end);
  }
}

/// Scalar pack: transpose one 64-lane group at a time through a register
/// accumulator, then store each plane word once — instead of the
/// oracle's per-bit read-modify-write into spread-out plane words.
inline void pack_words_rows_scalar(const sim::PlaneGeometry& g, const sim::Word* src,
                                   int planes, PlaneWord* out, std::size_t row_begin,
                                   std::size_t row_end) {
  const std::size_t pw = g.plane_words();
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const sim::Word* row = src + r * n;
    for (std::size_t w = 0; w < rw; ++w) {
      const std::size_t lane0 = w * sim::kLanesPerWord;
      const std::size_t lanes = std::min(sim::kLanesPerWord, n - lane0);
      PlaneWord acc[32] = {};
      for (std::size_t l = 0; l < lanes; ++l) {
        sim::Word v = row[lane0 + l];
        while (v != 0) {
          const int j = __builtin_ctz(v);
          acc[j] |= PlaneWord{1} << l;
          v &= v - 1;
        }
      }
      const std::size_t idx = r * rw + w;
      for (int j = 0; j < planes; ++j) out[static_cast<std::size_t>(j) * pw + idx] = acc[j];
    }
  }
}

// ---------------------------------------------------------------------------
// Segmented fill: one row-bus broadcast cycle (East / West) as a log-step
// segmented scan. A lane reads the src bit of the nearest Open switch
// strictly upstream of it in flow order (bus.cpp's driver rule); on a ring
// the lanes with no such switch read the row's last Open switch in flow
// order; lanes with no driver float and read 0. Flow runs toward higher
// lanes (East) or lower lanes (West).
//
// Built from the open plane alone, per word: the station mask (the open
// plane shifted one lane downstream — the lanes where a driver starts a
// segment), the 6-rung pass ladder (rung k: no station among the 2^k
// lanes ending here), and the word's head carry — the column of the
// nearest Open switch upstream of the word's flow-first lane (the carry
// across the word boundary, or on a ring the wrap from the row's last Open
// switch) and that lane as a one-bit mask, 0 when nothing drives the head.
// Per plane and word the fill is then one masked one-lane shift of
// src & open, the carried bit placed on the head lane, and six shift-OR
// rounds under the ladder; the head lane is never a station, so the
// rounds spread the carry over the lanes before the word's first station.
// ---------------------------------------------------------------------------

template <class V, bool kWest, int D>
typename V::reg flow_shift(typename V::reg a) noexcept {
  if constexpr (kWest) {
    return V::template shr<D>(a);
  } else {
    return V::template shl<D>(a);
  }
}

/// Head carries of rows [row_begin, row_end): `carry_pos[i]` is the flat
/// lane index (word * 64 + bit) of the Open switch that drives word i's
/// flow-first lane, `carry_lane[i]` that lane as a mask. An undriven head
/// gets mask 0 and a position inside its own word, so the gather that
/// reads it stays in bounds.
template <bool kWest>
void fill_carry_setup(const sim::PlaneGeometry& g, bool ring, const PlaneWord* open,
                      PlaneWord* carry_pos, PlaneWord* carry_lane, std::size_t row_begin,
                      std::size_t row_end) noexcept {
  const std::size_t rw = g.row_words;
  constexpr std::size_t kNone = ~std::size_t{0};
  // The Open switch of word w that is last in flow order, as a flat index.
  const auto last_in_flow = [](PlaneWord bits, std::size_t word) {
    const auto bit = kWest ? __builtin_ctzll(bits) : 63 - __builtin_clzll(bits);
    return word * sim::kLanesPerWord + static_cast<unsigned>(bit);
  };
  for (std::size_t r = row_begin; r < row_end; ++r) {
    const std::size_t base = r * rw;
    std::size_t cur = kNone;
    if (ring) {
      for (std::size_t k = 0; k < rw && cur == kNone; ++k) {
        const std::size_t w = kWest ? k : rw - 1 - k;
        if (open[base + w] != 0) cur = last_in_flow(open[base + w], base + w);
      }
    }
    for (std::size_t k = 0; k < rw; ++k) {
      const std::size_t w = kWest ? rw - 1 - k : k;
      const unsigned head = !kWest ? 0u
                            : w + 1 == rw ? sim::PlaneGeometry::bit_of(g.n - 1)
                                          : 63u;
      carry_pos[base + w] = cur == kNone ? (base + w) * sim::kLanesPerWord : cur;
      carry_lane[base + w] = cur == kNone ? PlaneWord{0} : PlaneWord{1} << head;
      if (open[base + w] != 0) cur = last_in_flow(open[base + w], base + w);
    }
  }
}

/// The scan over words [begin, end) of every plane and the driven plane.
/// A null `carry_lane` means no word has a head carry.
template <class V, bool kWest>
void t_fill_words(const PlaneWord* src, int planes, std::size_t pw, const PlaneWord* open,
                  const PlaneWord* full, const PlaneWord* carry_pos,
                  const PlaneWord* carry_lane, PlaneWord* out, PlaneWord* driven,
                  std::size_t begin, std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    const auto valid = V::load(full + i);
    const auto station = V::and_(flow_shift<V, kWest, 1>(V::load(open + i)), valid);
    typename V::reg pass[6];
    pass[0] = V::andnot(valid, station);
    pass[1] = V::and_(pass[0], flow_shift<V, kWest, 1>(pass[0]));
    pass[2] = V::and_(pass[1], flow_shift<V, kWest, 2>(pass[1]));
    pass[3] = V::and_(pass[2], flow_shift<V, kWest, 4>(pass[2]));
    pass[4] = V::and_(pass[3], flow_shift<V, kWest, 8>(pass[3]));
    pass[5] = V::and_(pass[4], flow_shift<V, kWest, 16>(pass[4]));
    const auto fill = [&](typename V::reg x) {
      x = V::or_(x, V::and_(flow_shift<V, kWest, 1>(x), pass[0]));
      x = V::or_(x, V::and_(flow_shift<V, kWest, 2>(x), pass[1]));
      x = V::or_(x, V::and_(flow_shift<V, kWest, 4>(x), pass[2]));
      x = V::or_(x, V::and_(flow_shift<V, kWest, 8>(x), pass[3]));
      x = V::or_(x, V::and_(flow_shift<V, kWest, 16>(x), pass[4]));
      return V::or_(x, V::and_(flow_shift<V, kWest, 32>(x), pass[5]));
    };
    const auto lane = carry_lane != nullptr ? V::load(carry_lane + i) : V::zero();
    // The driven plane is the fill of src = open: every station drives, and
    // so does every carried head.
    V::store(driven + i, fill(V::or_(station, lane)));
    if (V::is_zero(lane)) {
      for (int j = 0; j < planes; ++j) {
        const std::size_t off = static_cast<std::size_t>(j) * pw + i;
        V::store(out + off, fill(V::and_(flow_shift<V, kWest, 1>(V::load(src + off)), station)));
      }
      continue;
    }
    const auto pos = V::load(carry_pos + i);
    const auto word = V::template shr<6>(pos);
    const auto bit = V::and_(pos, V::set1(63));
    for (int j = 0; j < planes; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw;
      const auto carried = V::and_(V::srlv(V::gather(src + off, word), bit), V::set1(1));
      const auto head = V::and_(V::sub(V::zero(), carried), lane);
      const auto seed =
          V::and_(flow_shift<V, kWest, 1>(V::load(src + off + i)), station);
      V::store(out + off + i, fill(V::or_(seed, head)));
    }
  }
  if constexpr (V::W > 1) {
    if (i < end) {
      t_fill_words<VecScalar, kWest>(src, planes, pw, open, full, carry_pos, carry_lane, out,
                                     driven, i, end);
    }
  }
}

/// The kernel-table entry: head-carry set-up, then the scan. `dir` must
/// be East or West; `scratch` holds two planes. A linear one-word row has
/// no head carries, so that case skips the set-up.
template <class V>
void t_segmented_fill(const sim::PlaneGeometry& g, sim::BusTopology topology,
                      sim::Direction dir, const PlaneWord* src, int planes,
                      const PlaneWord* open, const PlaneWord* full, PlaneWord* out,
                      PlaneWord* driven, PlaneWord* scratch, std::size_t row_begin,
                      std::size_t row_end) noexcept {
  const std::size_t pw = g.plane_words();
  const std::size_t begin = row_begin * g.row_words;
  const std::size_t end = row_end * g.row_words;
  const bool ring = topology == sim::BusTopology::Ring;
  PlaneWord* carry_pos = scratch;
  PlaneWord* carry_lane = ring || g.row_words > 1 ? scratch + pw : nullptr;
  if (dir == sim::Direction::West) {
    if (carry_lane != nullptr) {
      fill_carry_setup<true>(g, ring, open, carry_pos, carry_lane, row_begin, row_end);
    }
    t_fill_words<V, true>(src, planes, pw, open, full, carry_pos, carry_lane, out, driven,
                          begin, end);
  } else {
    if (carry_lane != nullptr) {
      fill_carry_setup<false>(g, ring, open, carry_pos, carry_lane, row_begin, row_end);
    }
    t_fill_words<V, false>(src, planes, pw, open, full, carry_pos, carry_lane, out, driven,
                           begin, end);
  }
}

}  // namespace ppa::sim::plane_kernels::detail
