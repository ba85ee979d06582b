// AVX-512 kernel arm. Compiled with -mavx512f -mavx512bw -mavx512vl
// -mavx512dq (see src/ppc/CMakeLists.txt); avx512_kernels() additionally
// checks the CPU for the same feature set before handing the table out.
#if defined(__AVX512F__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "sim/plane_kernels.hpp"
#include "sim/plane_kernels_detail.hpp"

namespace ppa::sim::plane_kernels {

namespace {

struct VecAvx512 {
  static constexpr std::size_t W = 8;  // 8 x 64-bit lanes
  using reg = __m512i;
  static reg load(const sim::PlaneWord* p) noexcept { return _mm512_loadu_si512(p); }
  static void store(sim::PlaneWord* p, reg v) noexcept { _mm512_storeu_si512(p, v); }
  static reg zero() noexcept { return _mm512_setzero_si512(); }
  static reg and_(reg a, reg b) noexcept { return _mm512_and_si512(a, b); }
  static reg or_(reg a, reg b) noexcept { return _mm512_or_si512(a, b); }
  static reg xor_(reg a, reg b) noexcept { return _mm512_xor_si512(a, b); }
  // _mm512_andnot_si512(a, b) computes ~a & b; our contract is a & ~b.
  static reg andnot(reg a, reg b) noexcept { return _mm512_andnot_si512(b, a); }
  // The maskz forms with an all-ones mask are the same instruction; the
  // plain forms pass GCC an _mm512_undefined_epi32() source that
  // -Wuninitialized flags.
  template <int D>
  static reg shl(reg a) noexcept { return _mm512_maskz_slli_epi64(0xFF, a, D); }
  template <int D>
  static reg shr(reg a) noexcept { return _mm512_maskz_srli_epi64(0xFF, a, D); }
  static reg srlv(reg a, reg count) noexcept { return _mm512_srlv_epi64(a, count); }
  static reg sub(reg a, reg b) noexcept { return _mm512_sub_epi64(a, b); }
  static reg set1(sim::PlaneWord v) noexcept {
    return _mm512_set1_epi64(static_cast<long long>(v));
  }
  static reg gather(const sim::PlaneWord* base, reg index) noexcept {
    return _mm512_i64gather_epi64(index, base, 8);
  }
  static reg swap_pairs(reg a) noexcept { return _mm512_shuffle_epi32(a, _MM_PERM_BADC); }
  static reg select_nonzero(reg x, reg a) noexcept {
    return _mm512_maskz_mov_epi64(_mm512_test_epi64_mask(x, x), a);
  }
  static bool is_zero(reg a) noexcept { return _mm512_test_epi64_mask(a, a) == 0; }
};

/// 64 lanes per group: bit j of each 32-bit PE word is harvested with a
/// vptestm mask — 16 lanes per 512-bit register, four registers per plane
/// word.
void pack_row_avx512(const sim::PlaneGeometry& g, const sim::Word* row, int planes,
                     std::size_t r, sim::PlaneWord* out) noexcept {
  const std::size_t pw = g.plane_words();
  alignas(64) sim::Word buf[sim::kLanesPerWord];
  for (std::size_t w = 0; w < g.row_words; ++w) {
    const std::size_t lane0 = w * sim::kLanesPerWord;
    const std::size_t lanes = std::min(sim::kLanesPerWord, g.n - lane0);
    const sim::Word* p = row + lane0;
    if (lanes < sim::kLanesPerWord) {
      std::memset(buf, 0, sizeof(buf));
      std::memcpy(buf, p, lanes * sizeof(sim::Word));
      p = buf;
    }
    __m512i v[4];
    for (int k = 0; k < 4; ++k) v[k] = _mm512_loadu_si512(p + 16 * k);
    const std::size_t idx = r * g.row_words + w;
    for (int j = 0; j < planes; ++j) {
      const __m512i bit = _mm512_set1_epi32(1 << j);
      std::uint64_t m = 0;
      for (int k = 0; k < 4; ++k) {
        m |= static_cast<std::uint64_t>(_mm512_test_epi32_mask(v[k], bit)) << (16 * k);
      }
      out[static_cast<std::size_t>(j) * pw + idx] = m;
    }
  }
}

}  // namespace

const PlaneKernels* avx512_table() noexcept;  // referenced by plane_kernels.cpp

const PlaneKernels* avx512_table() noexcept {
  static const PlaneKernels table = [] {
    PlaneKernels t;
    t.variant = SimdVariant::Avx512;
    t.op_and = detail::t_op_and<VecAvx512>;
    t.op_or = detail::t_op_or<VecAvx512>;
    t.op_xor = detail::t_op_xor<VecAvx512>;
    t.op_andnot = detail::t_op_andnot<VecAvx512>;
    t.op_copy = detail::t_op_copy<VecAvx512>;
    t.op_zero = detail::t_op_zero<VecAvx512>;
    t.masked_assign = detail::t_masked_assign<VecAvx512>;
    t.masked_assign_planes = detail::t_masked_assign_planes<VecAvx512>;
    t.blend = detail::t_blend<VecAvx512>;
    t.all_zero = detail::t_all_zero<VecAvx512>;
    t.equal = detail::t_equal<VecAvx512>;
    t.add_sat = detail::t_add_sat<VecAvx512>;
    t.add_sat_masked = detail::t_add_sat_masked<VecAvx512>;
    t.compare_lt = detail::t_compare_lt<VecAvx512>;
    t.compare_eq = detail::t_compare_eq<VecAvx512>;
    t.compare_ne_masked = detail::t_compare_ne_masked<VecAvx512>;
    t.pack_words = detail::pack_words_by_rows<pack_row_avx512>;
    t.pack_row = pack_row_avx512;
    t.segmented_fill = detail::t_segmented_fill<VecAvx512>;
    t.segmented_or = detail::t_segmented_or<VecAvx512>;
    t.row_fill = detail::t_row_fill<VecAvx512>;
    t.row_word_fill = detail::t_row_word_fill<VecAvx512>;
    t.column_fill = detail::t_column_fill<VecAvx512>;
    t.line_add_sat_masked = detail::t_line_add_sat_masked<VecAvx512>;
    t.row_eliminate = detail::t_row_eliminate<VecAvx512>;
    return t;
  }();
  return &table;
}

}  // namespace ppa::sim::plane_kernels

#endif  // __AVX512F__
