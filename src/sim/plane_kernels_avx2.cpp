// AVX2 kernel arm. This TU is compiled with -mavx2 (see src/ppc/
// CMakeLists.txt) and only when the toolchain supports the flag; callers
// must gate on avx2_kernels() != nullptr, which also checks the CPU.
#if defined(__AVX2__)

#include <immintrin.h>

#include <algorithm>
#include <cstring>

#include "sim/plane_kernels.hpp"
#include "sim/plane_kernels_detail.hpp"

namespace ppa::sim::plane_kernels {

namespace {

struct VecAvx2 {
  static constexpr std::size_t W = 4;  // 4 x 64-bit lanes
  using reg = __m256i;
  static reg load(const sim::PlaneWord* p) noexcept {
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
  }
  static void store(sim::PlaneWord* p, reg v) noexcept {
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(p), v);
  }
  static reg zero() noexcept { return _mm256_setzero_si256(); }
  static reg and_(reg a, reg b) noexcept { return _mm256_and_si256(a, b); }
  static reg or_(reg a, reg b) noexcept { return _mm256_or_si256(a, b); }
  static reg xor_(reg a, reg b) noexcept { return _mm256_xor_si256(a, b); }
  // _mm256_andnot_si256(a, b) computes ~a & b; our contract is a & ~b.
  static reg andnot(reg a, reg b) noexcept { return _mm256_andnot_si256(b, a); }
  template <int D>
  static reg shl(reg a) noexcept { return _mm256_slli_epi64(a, D); }
  template <int D>
  static reg shr(reg a) noexcept { return _mm256_srli_epi64(a, D); }
  static reg srlv(reg a, reg count) noexcept { return _mm256_srlv_epi64(a, count); }
  static reg sub(reg a, reg b) noexcept { return _mm256_sub_epi64(a, b); }
  static reg set1(sim::PlaneWord v) noexcept {
    return _mm256_set1_epi64x(static_cast<long long>(v));
  }
  static reg gather(const sim::PlaneWord* base, reg index) noexcept {
    return _mm256_i64gather_epi64(reinterpret_cast<const long long*>(base), index, 8);
  }
  static reg swap_pairs(reg a) noexcept { return _mm256_shuffle_epi32(a, 0x4E); }
  static reg select_nonzero(reg x, reg a) noexcept {
    return _mm256_andnot_si256(_mm256_cmpeq_epi64(x, _mm256_setzero_si256()), a);
  }
  static bool is_zero(reg a) noexcept { return _mm256_testz_si256(a, a) != 0; }
};

/// 64 lanes per group: bit j of each 32-bit PE word is lifted to the sign
/// position and harvested with movemask — 8 bits per 256-bit register,
/// eight registers per plane word.
void pack_row_avx2(const sim::PlaneGeometry& g, const sim::Word* row, int planes, std::size_t r,
                   sim::PlaneWord* out) noexcept {
  const std::size_t pw = g.plane_words();
  alignas(32) sim::Word buf[sim::kLanesPerWord];
  for (std::size_t w = 0; w < g.row_words; ++w) {
    const std::size_t lane0 = w * sim::kLanesPerWord;
    const std::size_t lanes = std::min(sim::kLanesPerWord, g.n - lane0);
    const sim::Word* p = row + lane0;
    if (lanes < sim::kLanesPerWord) {
      std::memset(buf, 0, sizeof(buf));
      std::memcpy(buf, p, lanes * sizeof(sim::Word));
      p = buf;
    }
    __m256i v[8];
    for (int k = 0; k < 8; ++k) {
      v[k] = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 8 * k));
    }
    const std::size_t idx = r * g.row_words + w;
    for (int j = 0; j < planes; ++j) {
      std::uint64_t m = 0;
      for (int k = 0; k < 8; ++k) {
        const int bits =
            _mm256_movemask_ps(_mm256_castsi256_ps(_mm256_slli_epi32(v[k], 31 - j)));
        m |= static_cast<std::uint64_t>(static_cast<unsigned>(bits) & 0xffu) << (8 * k);
      }
      out[static_cast<std::size_t>(j) * pw + idx] = m;
    }
  }
}

}  // namespace

const PlaneKernels* avx2_table() noexcept;  // referenced by plane_kernels.cpp

const PlaneKernels* avx2_table() noexcept {
  static const PlaneKernels table = [] {
    PlaneKernels t;
    t.variant = SimdVariant::Avx2;
    t.op_and = detail::t_op_and<VecAvx2>;
    t.op_or = detail::t_op_or<VecAvx2>;
    t.op_xor = detail::t_op_xor<VecAvx2>;
    t.op_andnot = detail::t_op_andnot<VecAvx2>;
    t.op_copy = detail::t_op_copy<VecAvx2>;
    t.op_zero = detail::t_op_zero<VecAvx2>;
    t.masked_assign = detail::t_masked_assign<VecAvx2>;
    t.masked_assign_planes = detail::t_masked_assign_planes<VecAvx2>;
    t.blend = detail::t_blend<VecAvx2>;
    t.all_zero = detail::t_all_zero<VecAvx2>;
    t.equal = detail::t_equal<VecAvx2>;
    t.add_sat = detail::t_add_sat<VecAvx2>;
    t.add_sat_masked = detail::t_add_sat_masked<VecAvx2>;
    t.compare_lt = detail::t_compare_lt<VecAvx2>;
    t.compare_eq = detail::t_compare_eq<VecAvx2>;
    t.compare_ne_masked = detail::t_compare_ne_masked<VecAvx2>;
    t.pack_words = detail::pack_words_by_rows<pack_row_avx2>;
    t.pack_row = pack_row_avx2;
    t.segmented_fill = detail::t_segmented_fill<VecAvx2>;
    t.segmented_or = detail::t_segmented_or<VecAvx2>;
    t.row_fill = detail::t_row_fill<VecAvx2>;
    t.row_word_fill = detail::t_row_word_fill<VecAvx2>;
    t.column_fill = detail::t_column_fill<VecAvx2>;
    t.line_add_sat_masked = detail::t_line_add_sat_masked<VecAvx2>;
    t.row_eliminate = detail::t_row_eliminate<VecAvx2>;
    return t;
  }();
  return &table;
}

}  // namespace ppa::sim::plane_kernels

#endif  // __AVX2__
