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
//   swap_pairs                    — swaps words 2k and 2k+1 (W > 1 only)
//   select_nonzero(x, a)          — per word: a where x is nonzero, else 0
//   is_zero                       — whole-register test
// The bodies below keep all loop-carried state (the ripple carry, which
// is also the saturation clamp, and the MSB-first lt/eq pair) in
// registers; the only
// memory traffic is the operand planes themselves. Every multi-plane
// ALU kernel iterates the WORD index outermost and the plane index inside,
// so its body runs on any [begin, end) word sub-range: the table entry
// covers [0, pw) and hands the ragged tail to the scalar instantiation.
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
  static reg select_nonzero(reg x, reg a) noexcept { return x != 0 ? a : 0; }
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

/// masked_assign over `planes` planes under ONE mask plane, the word index
/// outermost so each mask block is loaded once for every plane, and a
/// block the mask leaves empty is skipped (a one-row store touches one
/// row of words).
template <class V>
void t_masked_assign_planes_words(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                                  int planes, std::size_t pw, std::size_t begin,
                                  std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    const auto m = V::load(mask + i);
    if (V::is_zero(m)) continue;
    for (int j = 0; j < planes; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      const auto d = V::load(dst + off);
      V::store(dst + off, V::xor_(d, V::and_(V::xor_(d, V::load(src + off)), m)));
    }
  }
  if constexpr (V::W > 1) {
    if (i < end) t_masked_assign_planes_words<VecScalar>(mask, src, dst, planes, pw, i, end);
  }
}

template <class V>
void t_masked_assign_planes(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                            int planes, std::size_t pw) noexcept {
  t_masked_assign_planes_words<V>(mask, src, dst, planes, pw, 0, pw);
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

/// HField::add's clamp: a sum that carries out of the top plane reads
/// infinity. A sum that does not is below 2^h, so it reaches the clamp
/// (2^h - 1) only as all ones, which it already reads.
template <class V>
void t_add_sat_words(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                     PlaneWord* out, std::size_t begin, std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    auto carry = V::zero();
    for (int j = 0; j < h; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      const auto va = V::load(a + off);
      const auto vb = V::load(b + off);
      const auto axb = V::xor_(va, vb);
      V::store(out + off, V::xor_(axb, carry));
      carry = V::or_(V::and_(va, vb), V::and_(carry, axb));
    }
    for (int j = 0; j < h; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + i;
      V::store(out + off, V::or_(V::load(out + off), carry));
    }
  }
  if constexpr (V::W > 1) {
    if (i < end) t_add_sat_words<VecScalar>(a, b, h, pw, out, i, end);
  }
}

template <class V>
void t_add_sat(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
               PlaneWord* out) noexcept {
  t_add_sat_words<V>(a, b, h, pw, out, 0, pw);
}

/// One word block of a saturating add fused into a masked store: dst =
/// mask ? a + b : dst on the W words from word i, where `a(j)` gives plane
/// j's block of the first operand and b's plane j sits at b + j * pw + i.
/// The sums stay in registers until the clamp (t_add_sat_words) is known,
/// so dst may alias a or b. A block whose mask is all zero is skipped.
/// Always inlined: as a call, the sums and the operand loader go through
/// memory, which doubled the kernels' time at 64x64.
template <class V, class A>
[[gnu::always_inline]] inline void add_sat_store_block(A&& a, const PlaneWord* b, int h, std::size_t pw,
                         const PlaneWord* mask, PlaneWord* dst, std::size_t i) noexcept {
  const auto m = V::load(mask + i);
  if (V::is_zero(m)) return;
  typename V::reg sum[32];
  auto carry = V::zero();
  for (int j = 0; j < h; ++j) {
    const auto va = a(j);
    const auto vb = V::load(b + static_cast<std::size_t>(j) * pw + i);
    const auto axb = V::xor_(va, vb);
    sum[j] = V::xor_(axb, carry);
    carry = V::or_(V::and_(va, vb), V::and_(carry, axb));
  }
  if (V::is_zero(V::xor_(m, V::set1(~PlaneWord{0})))) {
    // A block the mask covers whole is stored without reading dst.
    for (int j = 0; j < h; ++j) {
      V::store(dst + static_cast<std::size_t>(j) * pw + i, V::or_(sum[j], carry));
    }
    return;
  }
  for (int j = 0; j < h; ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * pw + i;
    const auto d = V::load(dst + off);
    V::store(dst + off, V::xor_(d, V::and_(V::xor_(d, V::or_(sum[j], carry)), m)));
  }
}

template <class V>
void t_add_sat_masked_words(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                            const PlaneWord* mask, PlaneWord* dst, std::size_t begin,
                            std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    add_sat_store_block<V>(
        [&](int j) { return V::load(a + static_cast<std::size_t>(j) * pw + i); }, b, h, pw,
        mask, dst, i);
  }
  if constexpr (V::W > 1) {
    if (i < end) t_add_sat_masked_words<VecScalar>(a, b, h, pw, mask, dst, i, end);
  }
}

template <class V>
void t_add_sat_masked(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                      const PlaneWord* mask, PlaneWord* dst) noexcept {
  t_add_sat_masked_words<V>(a, b, h, pw, mask, dst, 0, pw);
}

template <class V>
void t_compare_lt_words(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
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
    if (i < end) t_compare_lt_words<VecScalar>(a, b, h, pw, full, lt, eq, i, end);
  }
}

template <class V>
void t_compare_lt(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* lt, PlaneWord* eq) noexcept {
  t_compare_lt_words<V>(a, b, h, pw, full, lt, eq, 0, pw);
}

template <class V>
void t_compare_eq_words(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
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
    if (i < end) t_compare_eq_words<VecScalar>(a, b, h, pw, full, eq, i, end);
  }
}

template <class V>
void t_compare_eq(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* eq) noexcept {
  t_compare_eq_words<V>(a, b, h, pw, full, eq, 0, pw);
}

/// out = mask & (a != b) over h planes; a word block the mask leaves empty
/// is stored 0 without reading a or b (a one-row mask compares one row).
template <class V>
void t_compare_ne_masked_words(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                               const PlaneWord* mask, PlaneWord* out, std::size_t begin,
                               std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    const auto m = V::load(mask + i);
    auto differ = V::zero();
    if (!V::is_zero(m)) {
      for (int j = 0; j < h; ++j) {
        const std::size_t off = static_cast<std::size_t>(j) * pw + i;
        differ = V::or_(differ, V::xor_(V::load(a + off), V::load(b + off)));
      }
    }
    V::store(out + i, V::and_(differ, m));
  }
  if constexpr (V::W > 1) {
    if (i < end) t_compare_ne_masked_words<VecScalar>(a, b, h, pw, mask, out, i, end);
  }
}

template <class V>
void t_compare_ne_masked(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                         const PlaneWord* mask, PlaneWord* out) noexcept {
  t_compare_ne_masked_words<V>(a, b, h, pw, mask, out, 0, pw);
}

/// Scalar pack of one row: transpose one 64-lane group at a time through
/// a register accumulator, then store each plane word once — instead of
/// the oracle's per-bit read-modify-write into spread-out plane words.
inline void pack_row_scalar(const sim::PlaneGeometry& g, const sim::Word* row, int planes,
                            std::size_t r, PlaneWord* out) noexcept {
  const std::size_t pw = g.plane_words();
  for (std::size_t w = 0; w < g.row_words; ++w) {
    const std::size_t lane0 = w * sim::kLanesPerWord;
    const std::size_t lanes = std::min(sim::kLanesPerWord, g.n - lane0);
    PlaneWord acc[32] = {};
    for (std::size_t l = 0; l < lanes; ++l) {
      sim::Word v = row[lane0 + l];
      while (v != 0) {
        const int j = __builtin_ctz(v);
        acc[j] |= PlaneWord{1} << l;
        v &= v - 1;
      }
    }
    const std::size_t idx = r * g.row_words + w;
    for (int j = 0; j < planes; ++j) out[static_cast<std::size_t>(j) * pw + idx] = acc[j];
  }
}

/// pack_words as one arm's pack_row per row.
template <void (*PackRow)(const sim::PlaneGeometry&, const sim::Word*, int, std::size_t,
                          PlaneWord*) noexcept>
void pack_words_by_rows(const sim::PlaneGeometry& g, const sim::Word* src, int planes,
                        PlaneWord* out) {
  for (std::size_t r = 0; r < g.n; ++r) PackRow(g, src + r * g.n, planes, r, out);
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

/// Head carries of every row: `carry_pos[i]` is the flat lane index (word * 64 + bit) of the Open
/// switch that drives word i's flow-first lane, `carry_lane[i]` that lane
/// as a mask. An undriven head gets mask 0 and a position inside its own
/// word, so the gather that reads it stays in bounds.
template <bool kWest>
void fill_carry_setup(const sim::PlaneGeometry& g, bool ring, const PlaneWord* open,
                      PlaneWord* carry_pos, PlaneWord* carry_lane) noexcept {
  const std::size_t rw = g.row_words;
  constexpr std::size_t kNone = ~std::size_t{0};
  // The Open switch of word w that is last in flow order, as a flat index.
  const auto last_in_flow = [](PlaneWord bits, std::size_t word) {
    const auto bit = kWest ? __builtin_ctzll(bits) : 63 - __builtin_clzll(bits);
    return word * sim::kLanesPerWord + static_cast<unsigned>(bit);
  };
  for (std::size_t r = 0; r < g.n; ++r) {
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

/// The scan of the W words from word i of every plane and the driven
/// plane. Every word is scanned on its own: the ladder never crosses a
/// word, and the head carry is what links words.
template <class V, bool kWest>
void fill_vector(const PlaneWord* src, int planes, std::size_t pw, const PlaneWord* open,
                 const PlaneWord* full, const PlaneWord* carry_pos,
                 const PlaneWord* carry_lane, PlaneWord* out, PlaneWord* driven,
                 std::size_t i) noexcept {
  const auto valid = V::load(full + i);
  const auto station = V::and_(flow_shift<V, kWest, 1>(V::load(open + i)), valid);
  typename V::reg pass[6];
  pass[0] = V::xor_(valid, station);  // the valid lanes that are no station
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
    return;
  }
  const auto pos = V::load(carry_pos + i);
  const auto word = V::template shr<6>(pos);
  const auto bit = V::and_(pos, V::set1(63));
  for (int j = 0; j < planes; ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * pw;
    const auto carried = V::and_(V::srlv(V::gather(src + off, word), bit), V::set1(1));
    const auto head = V::and_(V::sub(V::zero(), carried), lane);
    const auto seed = V::and_(flow_shift<V, kWest, 1>(V::load(src + off + i)), station);
    V::store(out + off + i, fill(V::or_(seed, head)));
  }
}

/// The scan over every word, W words at a time in plane order. The ragged
/// end is one more vector ending at pw, overlapping the last (scanning a
/// word twice stores the same values); a plane narrower than W runs word
/// by word. A null `carry_lane` means no word has a head carry.
template <class V, bool kWest>
void t_fill_words(const PlaneWord* src, int planes, std::size_t pw, const PlaneWord* open,
                  const PlaneWord* full, const PlaneWord* carry_pos,
                  const PlaneWord* carry_lane, PlaneWord* out, PlaneWord* driven) noexcept {
  if (pw < V::W) {
    if constexpr (V::W > 1) {
      t_fill_words<VecScalar, kWest>(src, planes, pw, open, full, carry_pos, carry_lane, out,
                                     driven);
    }
    return;
  }
  const auto scan = [&](std::size_t i) {
    fill_vector<V, kWest>(src, planes, pw, open, full, carry_pos, carry_lane, out, driven, i);
  };
  std::size_t i = 0;
  for (; i + V::W <= pw; i += V::W) scan(i);
  if (i < pw) scan(pw - V::W);
}

/// The kernel-table entry: head-carry set-up, then the scan. `dir` must be
/// East or West; `scratch` holds two planes. A linear one-word row has no
/// head carries, so that case skips the set-up.
template <class V>
void t_segmented_fill(const sim::PlaneGeometry& g, sim::BusTopology topology,
                      sim::Direction dir, const PlaneWord* src, int planes,
                      const PlaneWord* open, const PlaneWord* full, PlaneWord* out,
                      PlaneWord* driven, PlaneWord* scratch) noexcept {
  const std::size_t pw = g.plane_words();
  const bool ring = topology == sim::BusTopology::Ring;
  PlaneWord* carry_pos = scratch;
  PlaneWord* carry_lane = ring || g.row_words > 1 ? scratch + pw : nullptr;
  if (dir == sim::Direction::West) {
    if (carry_lane != nullptr) fill_carry_setup<true>(g, ring, open, carry_pos, carry_lane);
    t_fill_words<V, true>(src, planes, pw, open, full, carry_pos, carry_lane, out, driven);
  } else {
    if (carry_lane != nullptr) fill_carry_setup<false>(g, ring, open, carry_pos, carry_lane);
    t_fill_words<V, false>(src, planes, pw, open, full, carry_pos, carry_lane, out, driven);
  }
}

// ---------------------------------------------------------------------------
// Segmented OR: one row-bus wired-OR cycle (East / West). Segments are the
// flow-order intervals [Open_i, Open_i+1): an Open lane starts a segment and
// reads it, so its own bit joins the segment downstream. The head stub
// before a row's first Open lane joins the row's last segment on a ring and
// stands alone on a linear bus; a row with no Open lane is one segment.
// Every lane reads the OR of its segment (bus.cpp's rules).
//
// Per word, the OR of a lane's segment inside the word is a flow-order
// OR-smear (from the segment start to the lane) ORed with a reverse-order
// OR-smear (from the lane to the segment end), each under a ladder built
// from the open plane like the segmented fill's. What the word cannot see
// comes in as carries: the OR of a segment's lanes upstream of the word
// lands on the lanes before the word's first Open lane, the OR of its lanes
// downstream on the lanes from the word's last Open lane on, and on a ring
// the head stub and the last segment exchange their ORs.
//
// A word with no Open lane past its flow-first lane is a single segment,
// so it reads all-ones iff any of its bits is set: a vector of such words
// skips the ladders. The solver's wired-ORs open exactly each row's flow
// head, so on one-word rows they never run them; on wider rows a row with
// no Open lane past its flow head is one any() over its words.
// ---------------------------------------------------------------------------

/// OR-smear in flow order under the ladder rooted at `pass0` (the lanes
/// that hear their flow predecessor); `pass0 = ~0` gives a plain prefix OR.
template <class V, bool kWest>
typename V::reg smear(typename V::reg x, typename V::reg pass0) noexcept {
  auto p = pass0;
  x = V::or_(x, V::and_(flow_shift<V, kWest, 1>(x), p));
  p = V::and_(p, flow_shift<V, kWest, 1>(p));
  x = V::or_(x, V::and_(flow_shift<V, kWest, 2>(x), p));
  p = V::and_(p, flow_shift<V, kWest, 2>(p));
  x = V::or_(x, V::and_(flow_shift<V, kWest, 4>(x), p));
  p = V::and_(p, flow_shift<V, kWest, 4>(p));
  x = V::or_(x, V::and_(flow_shift<V, kWest, 8>(x), p));
  p = V::and_(p, flow_shift<V, kWest, 8>(p));
  x = V::or_(x, V::and_(flow_shift<V, kWest, 16>(x), p));
  p = V::and_(p, flow_shift<V, kWest, 16>(p));
  return V::or_(x, V::and_(flow_shift<V, kWest, 32>(x), p));
}

/// In-word segment ORs of words [begin, end) into `out`. With `wrap` (a
/// ring of one-word rows) each word is a whole row, and its head stub and
/// last segment also exchange their ORs, which completes the cycle.
template <class V, bool kWest>
void t_or_words(const PlaneWord* src, const PlaneWord* open, const PlaneWord* full,
                PlaneWord* out, bool wrap, std::size_t begin, std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    const auto valid = V::load(full + i);
    const auto o = V::load(open + i);
    const auto s = V::load(src + i);
    const auto first = V::andnot(valid, flow_shift<V, kWest, 1>(valid));
    if (V::is_zero(V::andnot(o, first))) {
      V::store(out + i, V::select_nonzero(s, valid));
      continue;
    }
    const auto pass = V::andnot(valid, o);
    const auto forward = smear<V, kWest>(s, pass);
    // Reverse smear: a lane hears its flow successor unless that one is
    // Open (it starts the next segment). Flow order is mirrored by running
    // the ladder with the opposite shift direction.
    const auto backward = smear<V, !kWest>(s, flow_shift<V, !kWest, 1>(pass));
    auto result = V::or_(forward, backward);
    if (wrap) {
      const auto all = V::set1(~PlaneWord{0});
      const auto head = V::andnot(valid, smear<V, kWest>(o, all));
      const auto tail = V::andnot(valid, smear<V, !kWest>(flow_shift<V, !kWest, 1>(o), all));
      // The head stub reads the last segment's OR and the tail the stub's.
      result = V::or_(result, V::or_(V::select_nonzero(V::and_(s, tail), head),
                                     V::select_nonzero(V::and_(s, head), tail)));
    }
    V::store(out + i, V::and_(result, valid));
  }
  if constexpr (V::W > 1) {
    if (i < end) t_or_words<VecScalar, kWest>(src, open, full, out, wrap, i, end);
  }
}

/// Lanes of one word before its first Open lane in flow order (`head`)
/// and from its last Open lane on (`tail`); both are the whole word when
/// it has no Open lane.
template <bool kWest>
void word_head_tail(PlaneWord o, PlaneWord valid, PlaneWord& head, PlaneWord& tail) noexcept {
  if (o == 0) {
    head = tail = valid;
    return;
  }
  const auto lo = static_cast<unsigned>(__builtin_ctzll(o));
  const auto hi = static_cast<unsigned>(63 - __builtin_clzll(o));
  if constexpr (kWest) {
    head = valid & ~((PlaneWord{2} << hi) - 1);
    tail = valid & ((PlaneWord{2} << lo) - 1);
  } else {
    head = (PlaneWord{1} << lo) - 1;
    tail = valid & ~((PlaneWord{1} << hi) - 1);
  }
}

/// The carries across the words of one row (rw > 1) on top of its in-word
/// ORs, already in `d`: a pass in flow order lands the OR of each
/// segment's upstream words on the lanes before a word's first Open lane,
/// a pass against it the OR of its downstream words on the lanes from a
/// word's last Open lane on. On a ring the forward pass starts with the
/// OR of the row's last segment and the reverse pass with the OR of its
/// head stub (the wrap), each found by a walk in from the row's end.
template <bool kWest>
void or_row_carries(std::size_t rw, bool ring, const PlaneWord* o, const PlaneWord* s,
                    const PlaneWord* valid, PlaneWord* d) noexcept {
  const auto flow_word = [rw](std::size_t k) { return kWest ? rw - 1 - k : k; };
  PlaneWord head, tail;
  bool forward = false;
  bool reverse = false;
  if (ring) {
    for (std::size_t k = rw; k-- > 0;) {
      const std::size_t w = flow_word(k);
      word_head_tail<kWest>(o[w], valid[w], head, tail);
      forward = forward || (s[w] & tail) != 0;
      if (o[w] != 0) break;
    }
    for (std::size_t k = 0; k < rw; ++k) {
      const std::size_t w = flow_word(k);
      word_head_tail<kWest>(o[w], valid[w], head, tail);
      reverse = reverse || (s[w] & head) != 0;
      if (o[w] != 0) break;
    }
  }
  for (std::size_t k = 0; k < rw; ++k) {
    const std::size_t w = flow_word(k);
    word_head_tail<kWest>(o[w], valid[w], head, tail);
    if (forward) d[w] |= head;
    forward = o[w] != 0 ? (s[w] & tail) != 0 : forward || s[w] != 0;
  }
  for (std::size_t k = rw; k-- > 0;) {
    const std::size_t w = flow_word(k);
    word_head_tail<kWest>(o[w], valid[w], head, tail);
    if (reverse) d[w] |= tail;
    reverse = o[w] != 0 ? (s[w] & head) != 0 : reverse || s[w] != 0;
  }
}

/// Rows of more than one word. A row with no Open lane past its flow head
/// is one segment and reads its any(); any other row gets its in-word ORs
/// and then its carries. Two-word rows (sides 65..128) go W / 2 rows per
/// vector: the pair swap hands each word its row partner, so the any()
/// of a whole vector of such rows is one vector op; a vector holding any
/// other row runs the in-word pass and the carries of each of its rows.
template <class V, bool kWest>
void t_or_rows(const sim::PlaneGeometry& g, bool ring, const PlaneWord* src,
               const PlaneWord* open, const PlaneWord* full, PlaneWord* out) noexcept {
  const std::size_t rw = g.row_words;
  const std::size_t head_w = kWest ? rw - 1 : 0;
  const PlaneWord head_lane = PlaneWord{1} << (kWest ? sim::PlaneGeometry::bit_of(g.n - 1) : 0u);
  std::size_t r = 0;
  if constexpr (V::W > 1) {
    if (rw == 2) {
      PlaneWord pattern[V::W];
      for (std::size_t k = 0; k < V::W; ++k) pattern[k] = k % 2 == head_w ? head_lane : 0;
      const auto heads = V::load(pattern);
      for (; r + V::W / 2 <= g.n; r += V::W / 2) {
        const std::size_t i = r * 2;
        const auto o = V::load(open + i);
        if (V::is_zero(V::andnot(o, heads))) {
          const auto s = V::load(src + i);
          V::store(out + i, V::select_nonzero(V::or_(s, V::swap_pairs(s)), V::load(full + i)));
          continue;
        }
        t_or_words<V, kWest>(src, open, full, out, false, i, i + V::W);
        for (std::size_t q = r; q < r + V::W / 2; ++q) {
          or_row_carries<kWest>(rw, ring, open + q * rw, src + q * rw, full + q * rw,
                                out + q * rw);
        }
      }
    }
  }
  for (; r < g.n; ++r) {
    const PlaneWord* o = open + r * rw;
    const PlaneWord* s = src + r * rw;
    const PlaneWord* valid = full + r * rw;
    PlaneWord* d = out + r * rw;
    PlaneWord inner = o[head_w] & ~head_lane;
    PlaneWord any = 0;
    for (std::size_t w = 0; w < rw; ++w) {
      inner |= w == head_w ? PlaneWord{0} : o[w];
      any |= s[w];
    }
    if (inner == 0) {
      const PlaneWord all = any != 0 ? ~PlaneWord{0} : PlaneWord{0};
      for (std::size_t w = 0; w < rw; ++w) d[w] = valid[w] & all;
      continue;
    }
    t_or_words<V, kWest>(src, open, full, out, false, r * rw, (r + 1) * rw);
    or_row_carries<kWest>(rw, ring, o, s, valid, d);
  }
}

/// The kernel-table entry. `dir` must be East or West.
template <class V>
void t_segmented_or(const sim::PlaneGeometry& g, sim::BusTopology topology,
                    sim::Direction dir, const PlaneWord* src, const PlaneWord* open,
                    const PlaneWord* full, PlaneWord* out) noexcept {
  const bool ring = topology == sim::BusTopology::Ring;
  const bool west = dir == sim::Direction::West;
  if (g.row_words == 1) {
    if (west) {
      t_or_words<V, true>(src, open, full, out, ring, 0, g.n);
    } else {
      t_or_words<V, false>(src, open, full, out, ring, 0, g.n);
    }
  } else if (west) {
    t_or_rows<V, true>(g, ring, src, open, full, out);
  } else {
    t_or_rows<V, false>(g, ring, src, open, full, out);
  }
}

// ---------------------------------------------------------------------------
// Column fill: one column-bus broadcast cycle (South / North) for a switch
// configuration with at most one Open switch per column line. A driven lane
// then reads its line's one driver whatever the direction and topology
// (those only decide which lanes are driven, and the caller's driven plane
// already says that), so per plane the cycle is an OR-gather of src & open
// over the rows — one driver word per word column — and a replicate of
// that word row under the driven plane: two whole-plane sweeps with no
// serial dependency over the rows.
//
// Rows of 1, 2, 4 or 8 words tile an 8-word block exactly, so such planes
// are swept flat in 8-word blocks: the gather ORs every block into one
// accumulator block, whose word k belongs to word column k mod row_words,
// and the replicate ANDs the folded driver row, repeated across a block,
// into every block. Any other row width is swept row by row.
// ---------------------------------------------------------------------------

constexpr std::size_t kFillBlock = 8;

template <class V>
void t_column_fill_flat(std::size_t rw, std::size_t pw, const PlaneWord* src, int planes,
                        const PlaneWord* open, const PlaneWord* driven,
                        PlaneWord* out) noexcept {
  constexpr std::size_t kRegs = kFillBlock / V::W;
  const std::size_t body = pw - pw % kFillBlock;
  for (int j = 0; j < planes; ++j) {
    const PlaneWord* s = src + static_cast<std::size_t>(j) * pw;
    PlaneWord* o = out + static_cast<std::size_t>(j) * pw;
    typename V::reg acc[kRegs];
    for (std::size_t q = 0; q < kRegs; ++q) acc[q] = V::zero();
    for (std::size_t i = 0; i < body; i += kFillBlock) {
      for (std::size_t q = 0; q < kRegs; ++q) {
        const std::size_t k = i + q * V::W;
        acc[q] = V::or_(acc[q], V::and_(V::load(s + k), V::load(open + k)));
      }
    }
    PlaneWord block[kFillBlock];
    for (std::size_t q = 0; q < kRegs; ++q) V::store(block + q * V::W, acc[q]);
    // The driver row, folded from the block and the ragged tail, then
    // repeated across a whole block.
    PlaneWord line[kFillBlock] = {};
    for (std::size_t k = 0; k < kFillBlock; ++k) line[k % rw] |= block[k];
    for (std::size_t i = body; i < pw; ++i) line[i % rw] |= s[i] & open[i];
    for (std::size_t k = rw; k < kFillBlock; ++k) line[k] = line[k % rw];
    for (std::size_t q = 0; q < kRegs; ++q) acc[q] = V::load(line + q * V::W);
    for (std::size_t i = 0; i < body; i += kFillBlock) {
      for (std::size_t q = 0; q < kRegs; ++q) {
        const std::size_t k = i + q * V::W;
        V::store(o + k, V::and_(acc[q], V::load(driven + k)));
      }
    }
    for (std::size_t i = body; i < pw; ++i) o[i] = line[i % rw] & driven[i];
  }
}

/// Any row width: the gather builds the driver row in the output plane's
/// first row, which the replicate rewrites last.
template <class V>
void t_column_fill_rows(std::size_t n, std::size_t rw, std::size_t pw, const PlaneWord* src,
                        int planes, const PlaneWord* open, const PlaneWord* driven,
                        PlaneWord* out) noexcept {
  for (int j = 0; j < planes; ++j) {
    const PlaneWord* s = src + static_cast<std::size_t>(j) * pw;
    PlaneWord* o = out + static_cast<std::size_t>(j) * pw;
    PlaneWord* line = o;
    for (std::size_t w = 0; w < rw; ++w) line[w] = s[w] & open[w];
    for (std::size_t base = rw; base < n * rw; base += rw) {
      std::size_t w = 0;
      for (; w + V::W <= rw; w += V::W) {
        V::store(line + w, V::or_(V::load(line + w),
                                  V::and_(V::load(s + base + w), V::load(open + base + w))));
      }
      for (; w < rw; ++w) line[w] |= s[base + w] & open[base + w];
    }
    for (std::size_t base = rw; base < n * rw; base += rw) {
      t_op_and<V>(line, driven + base, o + base, rw);
    }
    t_op_and<V>(line, driven, line, rw);
  }
}

/// The kernel-table entry. `out` must not alias `src`.
template <class V>
void t_column_fill(const sim::PlaneGeometry& g, const PlaneWord* src, int planes,
                   const PlaneWord* open, const PlaneWord* driven, PlaneWord* out) noexcept {
  if (kFillBlock % g.row_words == 0) {
    t_column_fill_flat<V>(g.row_words, g.plane_words(), src, planes, open, driven, out);
  } else {
    t_column_fill_rows<V>(g.n, g.row_words, g.plane_words(), src, planes, open, driven, out);
  }
}

// ---------------------------------------------------------------------------
// Line add: statement 10 of the paper, SOW = broadcast(SOW, SOUTH, carrier)
// + W, stored in place under a mask, for a column broadcast with one driver
// per line. Every driven lane of word column w then reads the driver row's
// word w, so the broadcast is the line word ANDed with the driven plane and
// the sum is formed in the same word block: one pass over W and dst and no
// p-row temporary. Rows of 1, 2, 4 or 8 words go flat over the plane, the
// line repeated across an 8-word block as in the column fill; any other
// width goes row by row.
// ---------------------------------------------------------------------------

/// The W words from word i: plane j of the line block at line + j * stride.
template <class V>
[[gnu::always_inline]] inline void line_add_block(const PlaneWord* line, std::size_t stride, int h, std::size_t pw,
                    const PlaneWord* driven, const PlaneWord* addend, const PlaneWord* mask,
                    PlaneWord* dst, std::size_t i) noexcept {
  const auto d = V::load(driven + i);
  add_sat_store_block<V>(
      [&](int j) { return V::and_(V::load(line + static_cast<std::size_t>(j) * stride), d); },
      addend, h, pw, mask, dst, i);
}

/// Words [begin, end) of every plane on the flat path; `begin` is a multiple
/// of V::W, and `line` holds each plane's driver row repeated over
/// kFillBlock words.
template <class V>
void line_add_flat_words(const PlaneWord* line, int h, std::size_t pw, const PlaneWord* driven,
                         const PlaneWord* addend, const PlaneWord* mask, PlaneWord* dst,
                         std::size_t begin, std::size_t end) noexcept {
  std::size_t i = begin;
  for (; i + V::W <= end; i += V::W) {
    line_add_block<V>(line + i % kFillBlock, kFillBlock, h, pw, driven, addend, mask, dst, i);
  }
  if constexpr (V::W > 1) {
    if (i < end) line_add_flat_words<VecScalar>(line, h, pw, driven, addend, mask, dst, i, end);
  }
}

/// Any row width: the W words from word w of a row read the line's own
/// words w.., and a row's ragged end goes word by word.
template <class V>
void line_add_rows(std::size_t n, std::size_t rw, const PlaneWord* line, int h, std::size_t pw,
                   const PlaneWord* driven, const PlaneWord* addend, const PlaneWord* mask,
                   PlaneWord* dst) noexcept {
  for (std::size_t base = 0; base < n * rw; base += rw) {
    std::size_t w = 0;
    for (; w + V::W <= rw; w += V::W) {
      line_add_block<V>(line + w, rw, h, pw, driven, addend, mask, dst, base + w);
    }
    for (; w < rw; ++w) {
      line_add_block<VecScalar>(line + w, rw, h, pw, driven, addend, mask, dst, base + w);
    }
  }
}

/// The kernel-table entry: dst = mask ? sat((line & driven) + addend) : dst
/// over h planes, plane j's driver row at line + j * row_words. dst must not
/// alias `line`; pads stay 0 when dst's, driven's and addend's are.
template <class V>
void t_line_add_sat_masked(const sim::PlaneGeometry& g, const PlaneWord* line, int h,
                           const PlaneWord* driven, const PlaneWord* addend, const PlaneWord* mask,
                           PlaneWord* dst) noexcept {
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  if (kFillBlock % rw != 0) {
    line_add_rows<V>(g.n, rw, line, h, pw, driven, addend, mask, dst);
    return;
  }
  PlaneWord repeated[32 * kFillBlock];
  for (int j = 0; j < h; ++j) {
    for (std::size_t k = 0; k < kFillBlock; ++k) {
      repeated[static_cast<std::size_t>(j) * kFillBlock + k] =
          line[static_cast<std::size_t>(j) * rw + k % rw];
    }
  }
  line_add_flat_words<V>(repeated, h, pw, driven, addend, mask, dst, 0, pw);
}

// ---------------------------------------------------------------------------
// Row fill: one row-bus broadcast cycle (East / West) for rows with at most
// one Open switch. A driven lane of such a row reads the row's one driver
// whatever the direction and topology (those only decide which lanes are
// driven, and the caller's driven plane already says that), so per plane a
// row reads all-ones under the driven plane iff its src & open is nonzero:
// an OR across the row's words and a replicate, with no scan. One-word rows
// are swept flat; two-word rows go W / 2 rows per vector, the pair swap
// handing each word its row partner; any other width goes row by row.
// ---------------------------------------------------------------------------

/// Rows from `row_begin` on, one at a time.
inline void row_fill_rows(const sim::PlaneGeometry& g, const PlaneWord* src, int planes,
                          const PlaneWord* open, const PlaneWord* driven, PlaneWord* out,
                          std::size_t row_begin) noexcept {
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  for (std::size_t base = row_begin * rw; base < pw; base += rw) {
    for (int j = 0; j < planes; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw + base;
      PlaneWord any = 0;
      for (std::size_t w = 0; w < rw; ++w) any |= src[off + w] & open[base + w];
      for (std::size_t w = 0; w < rw; ++w) out[off + w] = any != 0 ? driven[base + w] : 0;
    }
  }
}

/// The kernel-table entry. `out` must not alias `src`.
template <class V>
void t_row_fill(const sim::PlaneGeometry& g, const PlaneWord* src, int planes,
                const PlaneWord* open, const PlaneWord* driven, PlaneWord* out) noexcept {
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  std::size_t body = 0;  // words swept by the vector loop
  if (rw == 1 || (V::W > 1 && rw == 2)) {
    body = pw - pw % V::W;
    const auto fill = [&](std::size_t off, typename V::reg o, typename V::reg d) {
      auto x = V::and_(V::load(src + off), o);
      if constexpr (V::W > 1) {
        if (rw == 2) x = V::or_(x, V::swap_pairs(x));
      }
      return V::select_nonzero(x, d);
    };
    for (int j = 0; j < planes; ++j) {
      const std::size_t base = static_cast<std::size_t>(j) * pw;
      for (std::size_t i = 0; i < body; i += V::W) {
        V::store(out + base + i, fill(base + i, V::load(open + i), V::load(driven + i)));
      }
    }
  }
  // The vector widths are even, so the body ends on a row boundary.
  row_fill_rows(g, src, planes, open, driven, out, body / rw);
}

// ---------------------------------------------------------------------------
// Row word fill: one word per row written as planes, plane j of row r being
// the mask's row-r words where bit planes-1-j of the row's word (flipped by
// `flip`) is set — the row elimination's round words, whose round k is bit
// h-1-k of the extreme, turned into value planes. Word index outermost:
// each vector's row words are gathered once (a direct load for one-word
// rows) and then tested against every plane's bit.
// ---------------------------------------------------------------------------

/// Words [begin, end) of every plane; `begin` is a multiple of V::W.
template <class V>
void row_word_fill_words(std::size_t rw, std::size_t pw, const PlaneWord* words, PlaneWord flip,
                         int planes, const PlaneWord* mask, PlaneWord* out, std::size_t begin,
                         std::size_t end) noexcept {
  std::size_t r = begin / rw;  // the row of word i, and i's word within it
  std::size_t w = begin % rw;
  PlaneWord spread[V::W] = {};
  for (std::size_t i = begin; i + V::W <= end; i += V::W) {
    typename V::reg v;
    if (rw == 1) {
      v = V::load(words + i);
    } else {
      for (std::size_t u = 0; u < V::W; ++u) {
        spread[u] = words[r];
        if (++w == rw) {
          w = 0;
          ++r;
        }
      }
      v = V::load(spread);
    }
    v = V::xor_(v, V::set1(flip));
    const auto m = V::load(mask + i);
    for (int j = 0; j < planes; ++j) {
      const auto bit = V::set1(PlaneWord{1} << (planes - 1 - j));
      V::store(out + static_cast<std::size_t>(j) * pw + i, V::select_nonzero(V::and_(v, bit), m));
    }
  }
}

/// The kernel-table entry.
template <class V>
void t_row_word_fill(const sim::PlaneGeometry& g, const PlaneWord* words, PlaneWord flip,
                     int planes, const PlaneWord* mask, PlaneWord* out) noexcept {
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  const std::size_t body = pw - pw % V::W;
  row_word_fill_words<V>(rw, pw, words, flip, planes, mask, out, 0, body);
  if constexpr (V::W > 1) {
    row_word_fill_words<VecScalar>(rw, pw, words, flip, planes, mask, out, body, pw);
  }
}

// ---------------------------------------------------------------------------
// Row elimination: every round of the bit-serial min/max elimination (the
// paper's min(), statements 8–10) on rows that each form one wired-OR
// segment. Round k's OR is then one any() of the row's probe, the same on
// every lane, so the rounds of different rows are independent and a row's
// enable words stay in registers from the first round to the last:
//
//   probe = enable & ~plane_k            (enable & plane_k for the maximum)
//   or_k  = any(probe over the row)      bit k of the row's result word
//   enable = or_k ? (ambient ? probe : enable) : enable
//
// One-word rows go W rows per vector and two-word rows W / 2 (the pair
// swap handing each word its row partner), four vectors per round loop so
// their dependency chains overlap; the scalar arm's two-word rows go four
// rows per round loop in locals, and any other width row by row.
// ---------------------------------------------------------------------------

template <class V, bool kMax>
typename V::reg eliminate_probe(typename V::reg enable, typename V::reg bit) noexcept {
  if constexpr (kMax) {
    return V::and_(enable, bit);
  } else {
    return V::andnot(enable, bit);
  }
}

/// The rounds over the U * W words from word i, U independent vectors per
/// round so their dependency chains overlap; `kPairs` ORs each word with
/// its row partner first. The U * W per-word round words go to `bits`.
template <class V, bool kMax, bool kPairs, std::size_t U>
void eliminate_vectors(const PlaneWord* const* rounds, int count, const PlaneWord* initial,
                       const PlaneWord* ambient, const PlaneWord* full, PlaneWord* enable,
                       PlaneWord* bits, std::size_t i) noexcept {
  typename V::reg e[U], lanes[U], acc[U];
  for (std::size_t u = 0; u < U; ++u) {
    const std::size_t at = i + u * V::W;
    e[u] = V::load(full + at);
    if (initial != nullptr) e[u] = V::and_(e[u], V::load(initial + at));
    lanes[u] = ambient != nullptr ? V::load(ambient + at) : V::set1(~PlaneWord{0});
    acc[u] = V::zero();
  }
  for (int k = 0; k < count; ++k) {
    const PlaneWord* plane = rounds[k] + i;
    const auto round_bit = V::set1(PlaneWord{1} << k);
    for (std::size_t u = 0; u < U; ++u) {
      const auto probe = eliminate_probe<V, kMax>(e[u], V::load(plane + u * V::W));
      auto any = probe;
      if constexpr (kPairs) any = V::or_(any, V::swap_pairs(any));
      acc[u] = V::or_(acc[u], V::select_nonzero(any, round_bit));
      // enable = probe on the ambient lanes of a row whose OR is set.
      e[u] = V::xor_(e[u], V::and_(V::xor_(e[u], probe), V::select_nonzero(any, lanes[u])));
    }
  }
  for (std::size_t u = 0; u < U; ++u) {
    V::store(enable + i + u * V::W, e[u]);
    V::store(bits + u * V::W, acc[u]);
  }
}

/// Rows [row_begin, row_begin + kRows) of kRowWords words each, their
/// enable words in locals across the rounds, so the rows' dependency
/// chains overlap.
template <bool kMax, std::size_t kRowWords, std::size_t kRows>
void eliminate_row_block(const PlaneWord* const* rounds, int count, const PlaneWord* initial,
                         const PlaneWord* ambient, const PlaneWord* full, PlaneWord* enable,
                         PlaneWord* row_or, std::size_t row_begin) noexcept {
  constexpr std::size_t kWords = kRows * kRowWords;
  const std::size_t at = row_begin * kRowWords;
  PlaneWord e[kWords] = {};
  PlaneWord acc[kRows] = {};
  for (std::size_t i = 0; i < kWords; ++i) {
    e[i] = full[at + i] & (initial != nullptr ? initial[at + i] : ~PlaneWord{0});
  }
  for (int k = 0; k < count; ++k) {
    const PlaneWord* b = rounds[k] + at;
    for (std::size_t u = 0; u < kRows; ++u) {
      PlaneWord probe[kRowWords] = {};
      PlaneWord any = 0;
      for (std::size_t w = 0; w < kRowWords; ++w) {
        probe[w] = eliminate_probe<VecScalar, kMax>(e[u * kRowWords + w], b[u * kRowWords + w]);
        any |= probe[w];
      }
      const PlaneWord row = any != 0 ? ~PlaneWord{0} : PlaneWord{0};
      acc[u] |= row & (PlaneWord{1} << k);
      for (std::size_t w = 0; w < kRowWords; ++w) {
        const std::size_t i = u * kRowWords + w;
        const PlaneWord stores = ambient != nullptr ? row & ambient[at + i] : row;
        e[i] ^= (e[i] ^ probe[w]) & stores;
      }
    }
  }
  for (std::size_t i = 0; i < kWords; ++i) enable[at + i] = e[i];
  for (std::size_t u = 0; u < kRows; ++u) row_or[row_begin + u] = acc[u];
}

/// Rows [row_begin, n): rows of kRowWords words in blocks of four, then
/// one at a time; with kRowWords 0 (any other width), one at a time in
/// `enable` itself.
template <bool kMax, std::size_t kRowWords>
void eliminate_rows(const sim::PlaneGeometry& g, const PlaneWord* const* rounds, int count,
                    const PlaneWord* initial, const PlaneWord* ambient, const PlaneWord* full,
                    PlaneWord* enable, PlaneWord* row_or, std::size_t row_begin) noexcept {
  std::size_t r = row_begin;
  if constexpr (kRowWords != 0) {
    constexpr std::size_t kBlock = 4;
    for (; r + kBlock <= g.n; r += kBlock) {
      eliminate_row_block<kMax, kRowWords, kBlock>(rounds, count, initial, ambient, full, enable,
                                                   row_or, r);
    }
    for (; r < g.n; ++r) {
      eliminate_row_block<kMax, kRowWords, 1>(rounds, count, initial, ambient, full, enable,
                                              row_or, r);
    }
    return;
  }
  const std::size_t rw = g.row_words;
  for (; r < g.n; ++r) {
    const std::size_t base = r * rw;
    PlaneWord* e = enable + base;
    for (std::size_t w = 0; w < rw; ++w) {
      e[w] = full[base + w] & (initial != nullptr ? initial[base + w] : ~PlaneWord{0});
    }
    PlaneWord acc = 0;
    for (int k = 0; k < count; ++k) {
      const PlaneWord* b = rounds[k] + base;
      PlaneWord any = 0;
      for (std::size_t w = 0; w < rw; ++w) any |= eliminate_probe<VecScalar, kMax>(e[w], b[w]);
      const PlaneWord row = any != 0 ? ~PlaneWord{0} : PlaneWord{0};
      acc |= row & (PlaneWord{1} << k);
      for (std::size_t w = 0; w < rw; ++w) {
        const PlaneWord stores = ambient != nullptr ? row & ambient[base + w] : row;
        const PlaneWord probe = eliminate_probe<VecScalar, kMax>(e[w], b[w]);
        e[w] ^= (e[w] ^ probe) & stores;
      }
    }
    row_or[r] = acc;
  }
}

/// Vectors of U * W words, then single vectors, then the rows left over.
template <class V, bool kMax>
void t_row_eliminate_impl(const sim::PlaneGeometry& g, const PlaneWord* const* rounds,
                          int count, const PlaneWord* initial, const PlaneWord* ambient,
                          const PlaneWord* full, PlaneWord* enable, PlaneWord* row_or) noexcept {
  constexpr std::size_t kBlock = 4;
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  std::size_t i = 0;
  if (rw == 1) {
    for (; i + kBlock * V::W <= pw; i += kBlock * V::W) {
      eliminate_vectors<V, kMax, false, kBlock>(rounds, count, initial, ambient, full, enable,
                                                row_or + i, i);
    }
    for (; i + V::W <= pw; i += V::W) {
      eliminate_vectors<V, kMax, false, 1>(rounds, count, initial, ambient, full, enable,
                                           row_or + i, i);
    }
  } else if constexpr (V::W > 1) {
    if (rw == 2) {
      PlaneWord bits[kBlock * V::W] = {};
      for (; i + kBlock * V::W <= pw; i += kBlock * V::W) {
        eliminate_vectors<V, kMax, true, kBlock>(rounds, count, initial, ambient, full, enable,
                                                 bits, i);
        for (std::size_t q = 0; q < kBlock * V::W; q += 2) row_or[(i + q) / 2] = bits[q];
      }
      for (; i + V::W <= pw; i += V::W) {
        eliminate_vectors<V, kMax, true, 1>(rounds, count, initial, ambient, full, enable, bits,
                                            i);
        for (std::size_t q = 0; q < V::W; q += 2) row_or[(i + q) / 2] = bits[q];
      }
    }
  }
  // The vector widths are even, so `i` ends on a row boundary.
  const auto rows = rw == 1   ? eliminate_rows<kMax, 1>
                    : rw == 2 ? eliminate_rows<kMax, 2>
                              : eliminate_rows<kMax, 0>;
  rows(g, rounds, count, initial, ambient, full, enable, row_or, i / rw);
}

/// The kernel-table entry: `count` <= 64 rounds over the planes `rounds`
/// (one pointer per round), enable starting from `initial` (nullptr: every
/// lane). Writes every word of `enable` (pads 0) and `row_or[0, n)`: bit k
/// of a row's word is its OR in round k.
template <class V>
void t_row_eliminate(const sim::PlaneGeometry& g, const PlaneWord* const* rounds, int count,
                     bool keep_max, const PlaneWord* initial, const PlaneWord* ambient,
                     const PlaneWord* full, PlaneWord* enable, PlaneWord* row_or) noexcept {
  if (keep_max) {
    t_row_eliminate_impl<V, true>(g, rounds, count, initial, ambient, full, enable, row_or);
  } else {
    t_row_eliminate_impl<V, false>(g, rounds, count, initial, ambient, full, enable, row_or);
  }
}

}  // namespace ppa::sim::plane_kernels::detail
