// Differential fuzz of every compiled SIMD kernel arm against plain word
// loops written out below (and sim::pack_words for the pack kernel; the
// segmented fill, segmented OR and column fill against the scalar arm, which
// tests/sim_bus_planes_test.cpp holds to bus.cpp; the row elimination
// against the scalar arm, which is held to plain per-row rounds). Every
// kernel call covers the whole array, except the row-mask tests of the row
// broadcast kernels. Geometries deliberately include ragged tails (n
// not a multiple of 64, plane_words not a multiple of the vector width),
// so each wider arm's scalar tail loop runs too.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/bit_planes.hpp"
#include "sim/plane_kernels.hpp"
#include "util/rng.hpp"

namespace ppa {
namespace {

using sim::plane_kernels::PlaneKernels;
using sim::plane_kernels::SimdVariant;
using sim::PlaneGeometry;
using sim::PlaneWord;

/// The reference: one plain loop per kernel, independent of the template
/// bodies every arm (the scalar one included) is instantiated from.
namespace ref {

void op_and(const PlaneWord* a, const PlaneWord* b, PlaneWord* out, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) out[i] = a[i] & b[i];
}
void op_or(const PlaneWord* a, const PlaneWord* b, PlaneWord* out, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) out[i] = a[i] | b[i];
}
void op_xor(const PlaneWord* a, const PlaneWord* b, PlaneWord* out, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) out[i] = a[i] ^ b[i];
}
void op_andnot(const PlaneWord* a, const PlaneWord* b, PlaneWord* out, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) out[i] = a[i] & ~b[i];
}
void op_copy(const PlaneWord* a, PlaneWord* out, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) out[i] = a[i];
}
void op_zero(PlaneWord* out, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) out[i] = 0;
}
void masked_assign(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                   std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) dst[i] = (mask[i] & src[i]) | (~mask[i] & dst[i]);
}
void blend(const PlaneWord* cond, const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
           std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) out[i] = (cond[i] & a[i]) | (~cond[i] & b[i]);
}
bool all_zero(const PlaneWord* a, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    if (a[i] != 0) return false;
  }
  return true;
}
bool equal(const PlaneWord* a, const PlaneWord* b, std::size_t words) {
  for (std::size_t i = 0; i < words; ++i) {
    if (a[i] != b[i]) return false;
  }
  return true;
}

/// Saturating h-bit add (util::HField::add lane for lane): ripple carry over
/// the planes, then lanes that carried out or summed to all ones clamp to
/// all ones.
void add_sat(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
             const PlaneWord* full, PlaneWord* carry, PlaneWord* ones, PlaneWord* out) {
  op_zero(carry, pw);
  op_copy(full, ones, pw);
  for (int j = 0; j < h; ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * pw;
    for (std::size_t i = 0; i < pw; ++i) {
      const PlaneWord s = a[off + i] ^ b[off + i] ^ carry[i];
      carry[i] = (a[off + i] & b[off + i]) | (carry[i] & (a[off + i] ^ b[off + i]));
      out[off + i] = s;
      ones[i] &= s;
    }
  }
  for (int j = 0; j < h; ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * pw;
    for (std::size_t i = 0; i < pw; ++i) out[off + i] |= ones[i] | carry[i];
  }
}

/// MSB-first scans: lt = (a < b), eq = (a == b).
void compare_lt(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                const PlaneWord* full, PlaneWord* lt, PlaneWord* eq) {
  op_zero(lt, pw);
  op_copy(full, eq, pw);
  for (int j = h - 1; j >= 0; --j) {
    const std::size_t off = static_cast<std::size_t>(j) * pw;
    for (std::size_t i = 0; i < pw; ++i) {
      lt[i] |= eq[i] & b[off + i] & ~a[off + i];
      eq[i] &= ~(a[off + i] ^ b[off + i]);
    }
  }
}
void compare_eq(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                const PlaneWord* full, PlaneWord* eq) {
  std::vector<PlaneWord> lt(pw);
  compare_lt(a, b, h, pw, full, lt.data(), eq);
}

}  // namespace ref

std::vector<const PlaneKernels*> all_arms() {
  std::vector<const PlaneKernels*> arms{&sim::plane_kernels::scalar_kernels()};
  if (const PlaneKernels* t = sim::plane_kernels::avx2_kernels()) arms.push_back(t);
  if (const PlaneKernels* t = sim::plane_kernels::avx512_kernels()) arms.push_back(t);
  return arms;
}

/// Random plane stack with canonically-zero pad bits past column n-1.
std::vector<PlaneWord> random_planes(util::Rng& rng, const PlaneGeometry& g, int planes) {
  const std::size_t pw = g.plane_words();
  std::vector<PlaneWord> out(pw * static_cast<std::size_t>(planes));
  for (int j = 0; j < planes; ++j) {
    for (std::size_t r = 0; r < g.n; ++r) {
      for (std::size_t w = 0; w < g.row_words; ++w) {
        out[static_cast<std::size_t>(j) * pw + r * g.row_words + w] =
            rng.next() & g.word_mask(w);
      }
    }
  }
  return out;
}

std::vector<PlaneWord> full_plane(const PlaneGeometry& g) {
  std::vector<PlaneWord> full(g.plane_words());
  sim::plane_fill_full(g, full.data());
  return full;
}

const std::size_t kSides[] = {1, 5, 63, 64, 65, 96, 128, 130};

TEST(PlaneKernels, ScalarTableIsAlwaysPresent) {
  const PlaneKernels& t = sim::plane_kernels::scalar_kernels();
  EXPECT_EQ(t.variant, SimdVariant::Scalar);
  EXPECT_NE(t.op_and, nullptr);
  EXPECT_NE(t.add_sat, nullptr);
  EXPECT_NE(t.pack_words, nullptr);
}

TEST(PlaneKernels, ActiveVariantIsOneOfTheArms) {
  const char* name = sim::plane_kernels::variant_name(sim::plane_kernels::active_variant());
  EXPECT_TRUE(name == std::string("scalar") || name == std::string("avx2") ||
              name == std::string("avx512"));
  EXPECT_EQ(sim::plane_kernels::active().variant, sim::plane_kernels::active_variant());
}

TEST(PlaneKernels, ElementwiseMatchScalarReference) {
  util::Rng rng(0xE7'0001);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const auto a = random_planes(rng, g, 1);
      const auto b = random_planes(rng, g, 1);
      std::vector<PlaneWord> want(pw), got(pw);

      ref::op_and(a.data(), b.data(), want.data(), pw);
      arm->op_and(a.data(), b.data(), got.data(), pw);
      EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant) << " and n=" << n;

      ref::op_or(a.data(), b.data(), want.data(), pw);
      arm->op_or(a.data(), b.data(), got.data(), pw);
      EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant) << " or n=" << n;

      ref::op_xor(a.data(), b.data(), want.data(), pw);
      arm->op_xor(a.data(), b.data(), got.data(), pw);
      EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant) << " xor n=" << n;

      ref::op_andnot(a.data(), b.data(), want.data(), pw);
      arm->op_andnot(a.data(), b.data(), got.data(), pw);
      EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                           << " andnot n=" << n;

      ref::op_copy(a.data(), want.data(), pw);
      arm->op_copy(a.data(), got.data(), pw);
      EXPECT_EQ(want, got);

      ref::op_zero(want.data(), pw);
      arm->op_zero(got.data(), pw);
      EXPECT_EQ(want, got);

      const auto mask = random_planes(rng, g, 1);
      auto want_dst = b;
      auto got_dst = b;
      ref::masked_assign(mask.data(), a.data(), want_dst.data(), pw);
      arm->masked_assign(mask.data(), a.data(), got_dst.data(), pw);
      EXPECT_EQ(want_dst, got_dst) << sim::plane_kernels::variant_name(arm->variant)
                                   << " masked_assign n=" << n;

      ref::blend(mask.data(), a.data(), b.data(), want.data(), pw);
      arm->blend(mask.data(), a.data(), b.data(), got.data(), pw);
      EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant) << " blend n=" << n;

      EXPECT_EQ(ref::all_zero(a.data(), pw), arm->all_zero(a.data(), pw));
      std::vector<PlaneWord> zeros(pw, 0);
      EXPECT_TRUE(arm->all_zero(zeros.data(), pw));
      EXPECT_EQ(ref::equal(a.data(), b.data(), pw),
                arm->equal(a.data(), b.data(), pw));
      EXPECT_TRUE(arm->equal(a.data(), a.data(), pw));
    }
  }
}

TEST(PlaneKernels, MultiPlaneMatchScalarReference) {
  util::Rng rng(0xE7'0002);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      for (const int h : {1, 2, 7, 16, 32}) {
        const PlaneGeometry g{n};
        const std::size_t pw = g.plane_words();
        const auto full = full_plane(g);
        const auto a = random_planes(rng, g, h);
        const auto b = random_planes(rng, g, h);
        const std::size_t total = pw * static_cast<std::size_t>(h);

        std::vector<PlaneWord> want(total), got(total), carry(pw), ones(pw);
        ref::add_sat(a.data(), b.data(), h, pw, full.data(), carry.data(),
                                ones.data(), want.data());
        arm->add_sat(a.data(), b.data(), h, pw, got.data());
        EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                             << " add_sat n=" << n << " h=" << h;

        std::vector<PlaneWord> want_lt(pw), want_eq(pw), got_lt(pw), got_eq(pw);
        ref::compare_lt(a.data(), b.data(), h, pw, full.data(), want_lt.data(),
                                   want_eq.data());
        arm->compare_lt(a.data(), b.data(), h, pw, full.data(), got_lt.data(),
                        got_eq.data());
        EXPECT_EQ(want_lt, got_lt) << sim::plane_kernels::variant_name(arm->variant)
                                   << " compare_lt n=" << n << " h=" << h;
        EXPECT_EQ(want_eq, got_eq) << sim::plane_kernels::variant_name(arm->variant)
                                   << " compare_lt(eq) n=" << n << " h=" << h;

        ref::compare_eq(a.data(), b.data(), h, pw, full.data(), want_eq.data());
        arm->compare_eq(a.data(), b.data(), h, pw, full.data(), got_eq.data());
        EXPECT_EQ(want_eq, got_eq) << sim::plane_kernels::variant_name(arm->variant)
                                   << " compare_eq n=" << n << " h=" << h;
      }
    }
  }
}

// The masked not-equal compare of every arm against a plain loop: b is a
// with a few lanes changed (so both outcomes occur), under a random mask,
// a one-row mask (the pullback's shape: the other word blocks are skipped
// and read 0) and an empty one, on widths with and without a ragged tail.
TEST(PlaneKernels, CompareNeMaskedMatchesPlainLoop) {
  util::Rng rng(0xE7'000B);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      for (const int h : {1, 7, 16, 32}) {
        const auto a = random_planes(rng, g, h);
        auto b = a;
        const auto flips = random_planes(rng, g, 1);
        for (std::size_t i = 0; i < pw; ++i) {
          const PlaneWord lanes = flips[i] & rng.next() & rng.next();
          b[static_cast<std::size_t>(rng.below(static_cast<std::uint64_t>(h))) * pw + i] ^= lanes;
        }
        for (int layout = 0; layout < 3; ++layout) {
          std::vector<PlaneWord> mask(pw);
          if (layout == 0) mask = random_planes(rng, g, 1);
          const std::size_t row = n / 2;
          for (std::size_t w = 0; layout == 1 && w < g.row_words; ++w) {
            mask[row * g.row_words + w] = g.word_mask(w);
          }
          std::vector<PlaneWord> want(pw, 0);
          for (std::size_t i = 0; i < pw; ++i) {
            for (int j = 0; j < h; ++j) {
              const std::size_t off = static_cast<std::size_t>(j) * pw + i;
              want[i] |= mask[i] & (a[off] ^ b[off]);
            }
          }
          std::vector<PlaneWord> got(pw, ~PlaneWord{0});
          arm->compare_ne_masked(a.data(), b.data(), h, pw, mask.data(), got.data());
          EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                               << " n=" << n << " h=" << h << " layout=" << layout;
        }
      }
    }
  }
}

TEST(PlaneKernels, AddSatClampsToAllOnes) {
  // h=8: 250+10 carries out; 55+200 lands exactly on 2^8-1 (infinity);
  // 100+100 and 7+200 stay below the clamp.
  const PlaneGeometry g{4};
  const std::size_t pw = g.plane_words();
  const int h = 8;
  const auto full = full_plane(g);
  std::vector<sim::Word> av(g.n * g.n, 0), bv(g.n * g.n, 0);
  av[0] = 7;
  bv[0] = 200;
  av[1] = 250;
  bv[1] = 10;
  av[2] = 100;
  bv[2] = 100;
  av[3] = 55;
  bv[3] = 200;
  std::vector<PlaneWord> a(pw * h), b(pw * h);
  sim::pack_words(g, av, h, a.data());
  sim::pack_words(g, bv, h, b.data());
  for (const PlaneKernels* arm : all_arms()) {
    std::vector<PlaneWord> out(pw * h);
    arm->add_sat(a.data(), b.data(), h, pw, out.data());
    std::vector<sim::Word> res(g.n * g.n);
    sim::unpack_words(g, out.data(), h, res);
    EXPECT_EQ(res[0], 207u);
    EXPECT_EQ(res[1], 255u);
    EXPECT_EQ(res[2], 200u);
    EXPECT_EQ(res[3], 255u);
  }
}

TEST(PlaneKernels, PackWordsMatchesSimOracle) {
  util::Rng rng(0xE7'0003);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      for (const int planes : {1, 3, 16, 32}) {
        const PlaneGeometry g{n};
        const std::size_t pw = g.plane_words();
        std::vector<sim::Word> src(g.n * g.n);
        for (auto& v : src) {
          v = static_cast<sim::Word>(rng.next() &
                                     ((planes < 32) ? ((1u << planes) - 1u) : ~0u));
        }
        std::vector<PlaneWord> want(pw * static_cast<std::size_t>(planes));
        sim::pack_words(g, src, planes, want.data());
        std::vector<PlaneWord> got(pw * static_cast<std::size_t>(planes), 0xABABABABu);
        arm->pack_words(g, src.data(), planes, got.data());
        EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                             << " pack n=" << n << " planes=" << planes;
      }
    }
  }
}

// pack_row writes one row of pack_words' result and no other word.
TEST(PlaneKernels, PackRowMatchesPackWords) {
  util::Rng rng(0xE7'0009);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      for (const int planes : {1, 16, 32}) {
        const PlaneGeometry g{n};
        const std::size_t pw = g.plane_words();
        std::vector<sim::Word> src(g.n * g.n);
        for (auto& v : src) {
          v = static_cast<sim::Word>(rng.next() &
                                     ((planes < 32) ? ((1u << planes) - 1u) : ~0u));
        }
        std::vector<PlaneWord> packed(pw * static_cast<std::size_t>(planes));
        sim::pack_words(g, src, planes, packed.data());
        for (const std::size_t r : {std::size_t{0}, n / 2, n - 1}) {
          std::vector<PlaneWord> want(packed.size(), 0xABABABABu);
          for (int j = 0; j < planes; ++j) {
            const std::size_t row = static_cast<std::size_t>(j) * pw + r * g.row_words;
            std::copy_n(packed.begin() + static_cast<std::ptrdiff_t>(row), g.row_words,
                        want.begin() + static_cast<std::ptrdiff_t>(row));
          }
          std::vector<PlaneWord> got(packed.size(), 0xABABABABu);
          arm->pack_row(g, src.data() + r * n, planes, r, got.data());
          EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                               << " n=" << n << " planes=" << planes << " row=" << r;
        }
      }
    }
  }
}

// The fused saturating add and masked store of every arm against the
// scalar arm's add_sat and masked_assign: under a random mask, under a
// one-row mask (the other word blocks are skipped), under the full plane
// (whole blocks are stored without reading dst), and in place (dst is
// a). Masked-off lanes and pads keep dst.
TEST(PlaneKernels, AddSatMaskedMatchesAddThenStore) {
  util::Rng rng(0xE7'000A);
  const PlaneKernels& scalar = sim::plane_kernels::scalar_kernels();
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const auto full = full_plane(g);
      std::vector<PlaneWord> one_row(pw);
      std::copy_n(full.begin(), g.row_words, one_row.begin());
      for (const int h : {1, 8, 16, 32}) {
        const std::size_t total = pw * static_cast<std::size_t>(h);
        const auto a = random_planes(rng, g, h);
        const auto b = random_planes(rng, g, h);
        std::vector<PlaneWord> sum(total);
        scalar.add_sat(a.data(), b.data(), h, pw, sum.data());
        for (const int shape : {0, 1, 2}) {  // a random mask, one row, every lane
          const bool random_mask = shape == 0;
          const auto mask = random_mask ? random_planes(rng, g, 1) : shape == 1 ? one_row : full;
          for (const bool in_place : {false, true}) {
            std::vector<PlaneWord> dst(total);
            if (in_place) {
              dst = a;
            } else {
              for (auto& w : dst) w = rng.next();
            }
            std::vector<PlaneWord> want = dst;
            for (int j = 0; j < h; ++j) {
              const std::size_t off = static_cast<std::size_t>(j) * pw;
              scalar.masked_assign(mask.data(), sum.data() + off, want.data() + off, pw);
            }
            std::vector<PlaneWord> got = dst;
            arm->add_sat_masked(in_place ? got.data() : a.data(), b.data(), h, pw, mask.data(),
                                got.data());
            EXPECT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                                 << " n=" << n << " h=" << h << " mask=" << shape
                                 << " in_place=" << in_place;
          }
        }
      }
    }
  }
}

// Statement 10's fused kernel of every arm against a plain loop per lane:
// a lane reads its word column's line word under the driven plane, adds
// the addend with the field's clamp, and stores under the mask. Rows of 1
// and 2 words (the flat path) and of 3 and 5 (row by row), a partial mask
// (random, or one row) and the full plane, a partial driven plane, and
// about half the sums
// saturating; in place, dst is the addend. Masked-off lanes keep dst, and
// pads stay 0.
TEST(PlaneKernels, LineAddSatMaskedMatchesPlainLoop) {
  util::Rng rng(0xE7'000D);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64}, std::size_t{65},
                                std::size_t{128}, std::size_t{150}, std::size_t{320}}) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const std::size_t rw = g.row_words;
      const auto full = full_plane(g);
      std::vector<PlaneWord> one_row(pw);
      std::copy_n(full.begin(), rw, one_row.begin() + static_cast<std::ptrdiff_t>(n / 2 * rw));
      for (const int h : {1, 8, 16, 32}) {
        const std::size_t total = pw * static_cast<std::size_t>(h);
        const std::uint64_t inf = (std::uint64_t{1} << h) - 1;
        std::vector<PlaneWord> line(rw * static_cast<std::size_t>(h));
        for (std::size_t k = 0; k < line.size(); ++k) line[k] = rng.next() & g.word_mask(k % rw);
        const auto addend = random_planes(rng, g, h);
        const auto driven = random_planes(rng, g, 1);
        for (const int shape : {0, 1, 2}) {  // a random mask, one row, every lane
          const bool random_mask = shape == 0;
          const auto mask = random_mask ? random_planes(rng, g, 1) : shape == 1 ? one_row : full;
          for (const bool in_place : {false, true}) {
            const std::vector<PlaneWord> dst = in_place ? addend : random_planes(rng, g, h);
            std::vector<PlaneWord> want = dst;
            std::size_t saturated = 0;
            for (std::size_t r = 0; r < n; ++r) {
              for (std::size_t c = 0; c < n; ++c) {
                const std::size_t i = g.word_of(r, c);
                const unsigned bit = g.bit_of(c);
                if (((mask[i] >> bit) & 1u) == 0) continue;
                std::uint64_t a = 0;
                std::uint64_t b = 0;
                for (int j = 0; j < h; ++j) {
                  const auto jj = static_cast<std::size_t>(j);
                  a |= ((line[jj * rw + c / 64] & driven[i]) >> bit & 1u) << j;
                  b |= (addend[jj * pw + i] >> bit & 1u) << j;
                }
                const std::uint64_t sum = std::min(a + b, inf);
                saturated += sum == inf ? 1 : 0;
                for (int j = 0; j < h; ++j) {
                  PlaneWord& w = want[static_cast<std::size_t>(j) * pw + i];
                  w = (w & ~(PlaneWord{1} << bit)) | ((sum >> j & 1u) << bit);
                }
              }
            }
            std::vector<PlaneWord> got = dst;
            arm->line_add_sat_masked(g, line.data(), h, driven.data(),
                                     in_place ? got.data() : addend.data(), mask.data(),
                                     got.data());
            const std::string what = std::string(sim::plane_kernels::variant_name(arm->variant)) +
                                     " n=" + std::to_string(n) + " h=" + std::to_string(h) +
                                     " mask=" + std::to_string(shape) +
                                     " in_place=" + std::to_string(in_place);
            EXPECT_EQ(want, got) << what;
            for (std::size_t k = 0; k < total; ++k) {
              ASSERT_EQ(got[k] & ~g.word_mask(k % rw), 0u) << what << " word " << k;
            }
            if (random_mask && n >= 64) {
              EXPECT_GT(saturated, 0u) << what;
            }
          }
        }
      }
    }
  }
}

// The segmented fill (one row-bus broadcast) of every arm against the
// scalar arm: values and driven planes over every row, both topologies and
// both row directions, for Open densities from none to all. Every output
// word must be overwritten, pads included.
TEST(PlaneKernels, SegmentedFillMatchesScalarArm) {
  util::Rng rng(0xE7'0005);
  const PlaneKernels& scalar = sim::plane_kernels::scalar_kernels();
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const auto full = full_plane(g);
      for (const double density : {0.0, 0.03, 0.3, 1.0}) {
        const auto open = [&] {
          std::vector<PlaneWord> o(pw);
          for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c) {
              if (rng.chance(density)) o[g.word_of(r, c)] |= PlaneWord{1} << g.bit_of(c);
            }
          }
          return o;
        }();
        for (const int planes : {1, 16, 32}) {
          const auto src = random_planes(rng, g, planes);
          const std::size_t total = pw * static_cast<std::size_t>(planes);
          for (const auto topology : {sim::BusTopology::Ring, sim::BusTopology::Linear}) {
            for (const auto dir : {sim::Direction::East, sim::Direction::West}) {
              std::vector<PlaneWord> want(total), want_driven(pw), scratch(2 * pw);
              scalar.segmented_fill(g, topology, dir, src.data(), planes, open.data(),
                                    full.data(), want.data(), want_driven.data(),
                                    scratch.data());
              std::vector<PlaneWord> got(total, ~PlaneWord{0});
              std::vector<PlaneWord> got_driven(pw, ~PlaneWord{0});
              arm->segmented_fill(g, topology, dir, src.data(), planes, open.data(),
                                  full.data(), got.data(), got_driven.data(), scratch.data());
              const auto what = [&] {
                return std::string(sim::plane_kernels::variant_name(arm->variant)) +
                       " n=" + std::to_string(n) + " density=" + std::to_string(density) +
                       " planes=" + std::to_string(planes) +
                       (topology == sim::BusTopology::Ring ? " ring" : " linear") + " " +
                       std::string(sim::name_of(dir));
              };
              ASSERT_EQ(want_driven, got_driven) << what();
              ASSERT_EQ(want, got) << what();
            }
          }
        }
      }
    }
  }
}

// The row fill (the single-driver rows of a row broadcast) of every arm
// against a plain loop (each row reads all-ones under `driven` iff its
// src & open is nonzero), on 1-, 2- and 3-word rows with and without a
// ragged tail past the vector blocks. Open layouts: one random lane per row with about 1/8 of
// the rows empty (the shape the kernel serves), then random switches at
// density 0.3 (the arithmetic is defined for any open plane). Every pad
// must read 0. The buffers are sized exactly, so a store past the tail is
// a heap overflow under a sanitizer.
TEST(PlaneKernels, RowFillMatchesPlainLoop) {
  util::Rng rng(0xE7'000A);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
                                std::size_t{63}, std::size_t{64}, std::size_t{65},
                                std::size_t{66}, std::size_t{96}, std::size_t{127},
                                std::size_t{128}, std::size_t{130}, std::size_t{131}}) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const std::size_t rw = g.row_words;
      for (const bool single : {true, false}) {
        std::vector<PlaneWord> open(pw);
        for (std::size_t r = 0; r < n; ++r) {
          const std::size_t lane = rng.chance(0.125) ? n : static_cast<std::size_t>(rng.below(n));
          for (std::size_t c = 0; c < n; ++c) {
            if (single ? c == lane : rng.chance(0.3)) {
              open[g.word_of(r, c)] |= PlaneWord{1} << g.bit_of(c);
            }
          }
        }
        const auto driven = random_planes(rng, g, 1);
        for (const int planes : {1, 11, 16, 32}) {
          const auto src = random_planes(rng, g, planes);
          const std::size_t total = pw * static_cast<std::size_t>(planes);
          std::vector<PlaneWord> want(total);
          for (std::size_t i = 0; i < total; i += rw) {
            PlaneWord any = 0;
            for (std::size_t w = 0; w < rw; ++w) any |= src[i + w] & open[i % pw + w];
            for (std::size_t w = 0; w < rw; ++w) want[i + w] = any != 0 ? driven[i % pw + w] : 0;
          }
          std::vector<PlaneWord> got(total, 0x5A5A'5A5A'5A5A'5A5Aull);
          arm->row_fill(g, src.data(), planes, open.data(), driven.data(), got.data());
          const auto what = [&] {
            return std::string(sim::plane_kernels::variant_name(arm->variant)) +
                   " n=" + std::to_string(n) + (single ? " single" : " random") +
                   " planes=" + std::to_string(planes);
          };
          for (std::size_t i = 0; i < total; ++i) {
            ASSERT_EQ(got[i], want[i]) << what() << " word " << i;
            ASSERT_EQ(got[i] & ~g.word_mask(i % rw), 0u) << what() << " word " << i;
          }
        }
      }
    }
  }
}

// One word per row as planes: the plain loop writes each row's words of
// plane j from the mask or as 0 by bit planes-1-j of the row's word, flipped
// or not. The words use every bit, and the masks keep their pads 0.
TEST(PlaneKernels, RowWordFillMatchesPlainLoop) {
  util::Rng rng(0xE7'000C);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{2}, std::size_t{3}, std::size_t{5},
                                std::size_t{63}, std::size_t{64}, std::size_t{65},
                                std::size_t{66}, std::size_t{96}, std::size_t{128},
                                std::size_t{130}, std::size_t{131}, std::size_t{200}}) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const std::size_t rw = g.row_words;
      for (const int planes : {1, 11, 16, 32, 64}) {
        std::vector<PlaneWord> words(n);
        for (auto& v : words) v = rng.next();
        for (const PlaneWord flip : {PlaneWord{0}, ~PlaneWord{0}}) {
          for (const auto& mask : {random_planes(rng, g, 1), full_plane(g)}) {
            const std::size_t total = pw * static_cast<std::size_t>(planes);
            std::vector<PlaneWord> want(total);
            for (int j = 0; j < planes; ++j) {
              for (std::size_t i = 0; i < pw; ++i) {
                const bool set = ((words[i / rw] ^ flip) >> (planes - 1 - j)) & 1u;
                want[static_cast<std::size_t>(j) * pw + i] = set ? mask[i] : 0;
              }
            }
            std::vector<PlaneWord> got(total, 0x5A5A'5A5A'5A5A'5A5Aull);
            arm->row_word_fill(g, words.data(), flip, planes, mask.data(), nullptr, got.data());
            ASSERT_EQ(got, want) << sim::plane_kernels::variant_name(arm->variant)
                                 << " n=" << n << " planes=" << planes << " flip=" << (flip != 0);
          }
        }
      }
    }
  }
}

// The store-mask form of the row word fill: only the store mask's lanes
// are written (a masked Pint store in place), the rest of `out` keeps its
// words, and the word blocks the mask leaves empty are skipped. Every arm
// matches the scalar arm and the plain loop, under a random store mask,
// one row's (the full array's row d left out, inverted) and one row alone.
TEST(PlaneKernels, RowWordFillStoreMaskMatchesScalarArm) {
  util::Rng rng(0xE7'0010);
  const PlaneKernels& scalar = sim::plane_kernels::scalar_kernels();
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : {std::size_t{5}, std::size_t{64}, std::size_t{65},
                                std::size_t{130}}) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const std::size_t rw = g.row_words;
      const std::vector<PlaneWord> full = full_plane(g);
      std::vector<PlaneWord> one_row(pw, 0);
      for (std::size_t w = 0; w < rw; ++w) one_row[(n / 2) * rw + w] = full[(n / 2) * rw + w];
      std::vector<PlaneWord> all_but_row(pw);
      for (std::size_t i = 0; i < pw; ++i) all_but_row[i] = full[i] & ~one_row[i];
      for (const int planes : {1, 11, 16, 32}) {
        std::vector<PlaneWord> words(n);
        for (auto& v : words) v = rng.next();
        const std::size_t total = pw * static_cast<std::size_t>(planes);
        for (const PlaneWord flip : {PlaneWord{0}, ~PlaneWord{0}}) {
          for (const auto& store : {random_planes(rng, g, 1), all_but_row, one_row}) {
            const std::vector<PlaneWord> mask = random_planes(rng, g, 1);
            const std::vector<PlaneWord> prior = random_planes(rng, g, planes);
            std::vector<PlaneWord> want(prior);
            for (int j = 0; j < planes; ++j) {
              for (std::size_t i = 0; i < pw; ++i) {
                const bool set = ((words[i / rw] ^ flip) >> (planes - 1 - j)) & 1u;
                PlaneWord& o = want[static_cast<std::size_t>(j) * pw + i];
                o = (o & ~store[i]) | ((set ? mask[i] : 0) & store[i]);
              }
            }
            std::vector<PlaneWord> got(prior);
            arm->row_word_fill(g, words.data(), flip, planes, mask.data(), store.data(),
                               got.data());
            std::vector<PlaneWord> reference(prior);
            scalar.row_word_fill(g, words.data(), flip, planes, mask.data(), store.data(),
                                 reference.data());
            ASSERT_EQ(got.size(), total);
            ASSERT_EQ(got, reference) << sim::plane_kernels::variant_name(arm->variant)
                                      << " n=" << n << " planes=" << planes;
            ASSERT_EQ(got, want) << sim::plane_kernels::variant_name(arm->variant)
                                 << " n=" << n << " planes=" << planes;
          }
        }
      }
    }
  }
}

// Open layouts for the segmented OR: random switches at each density,
// then every row opening exactly at its flow head (the solver shape, which
// takes the kernel's any() path), that shape with a few extra switches
// (rows and vectors that mix both paths), and every row opening only at
// column 63, then 64 (the edges of a two-word row's words).
TEST(PlaneKernels, SegmentedOrMatchesScalarArm) {
  util::Rng rng(0xE7'0006);
  const PlaneKernels& scalar = sim::plane_kernels::scalar_kernels();
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : kSides) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const auto full = full_plane(g);
      for (const auto dir : {sim::Direction::East, sim::Direction::West}) {
        const std::size_t head = dir == sim::Direction::East ? 0 : n - 1;
        for (int layout = 0; layout < 8; ++layout) {
          const double densities[] = {0.0, 0.03, 0.3, 1.0};
          std::vector<PlaneWord> open(pw);
          for (std::size_t r = 0; r < n; ++r) {
            for (std::size_t c = 0; c < n; ++c) {
              const bool on = layout < 4    ? rng.chance(densities[layout])
                              : layout == 4 ? c == head
                              : layout == 5 ? c == head || rng.chance(0.02)
                                            : c == static_cast<std::size_t>(57 + layout);
              if (on) open[g.word_of(r, c)] |= PlaneWord{1} << g.bit_of(c);
            }
          }
          const auto src = random_planes(rng, g, 1);
          for (const auto topology : {sim::BusTopology::Ring, sim::BusTopology::Linear}) {
            std::vector<PlaneWord> want(pw);
            scalar.segmented_or(g, topology, dir, src.data(), open.data(), full.data(),
                                want.data());
            std::vector<PlaneWord> got(pw, ~PlaneWord{0});
            arm->segmented_or(g, topology, dir, src.data(), open.data(), full.data(),
                              got.data());
            ASSERT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                                 << " n=" << n << " layout=" << layout
                                 << (topology == sim::BusTopology::Ring ? " ring" : " linear")
                                 << " " << sim::name_of(dir);
          }
        }
      }
    }
  }
}

// The column fill (one single-driver column broadcast) of every arm against
// the scalar arm, on row widths that take the flat 8-word blocks (1, 2, 4
// words) with and without a ragged tail, and a width that takes the row
// loop (3 words). Open layouts: one random row per column with about 1/8 of
// the columns empty (the single-driver shape), then random switches at
// density 0.3 (the kernel's arithmetic is defined for any open plane).
// Every output word must be overwritten and every pad must read 0.
TEST(PlaneKernels, ColumnFillMatchesScalarArm) {
  util::Rng rng(0xE7'0007);
  const PlaneKernels& scalar = sim::plane_kernels::scalar_kernels();
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                std::size_t{65}, std::size_t{96}, std::size_t{128},
                                std::size_t{130}, std::size_t{256}}) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      for (const bool single : {true, false}) {
        std::vector<PlaneWord> open(pw);
        for (std::size_t c = 0; c < n; ++c) {
          const std::size_t row = rng.chance(0.125) ? n : static_cast<std::size_t>(rng.below(n));
          for (std::size_t r = 0; r < n; ++r) {
            if (single ? r == row : rng.chance(0.3)) {
              open[g.word_of(r, c)] |= PlaneWord{1} << g.bit_of(c);
            }
          }
        }
        const auto driven = random_planes(rng, g, 1);
        for (const int planes : {1, 16, 32}) {
          const auto src = random_planes(rng, g, planes);
          const std::size_t total = pw * static_cast<std::size_t>(planes);
          std::vector<PlaneWord> want(total, ~PlaneWord{0});
          scalar.column_fill(g, src.data(), planes, open.data(), driven.data(), want.data());
          std::vector<PlaneWord> got(total, ~PlaneWord{0});
          arm->column_fill(g, src.data(), planes, open.data(), driven.data(), got.data());
          const auto what = [&] {
            return std::string(sim::plane_kernels::variant_name(arm->variant)) +
                   " n=" + std::to_string(n) + (single ? " single" : " random") +
                   " planes=" + std::to_string(planes);
          };
          ASSERT_EQ(want, got) << what();
          for (std::size_t i = 0; i < total; ++i) {
            ASSERT_EQ(got[i] & ~g.word_mask(i % g.row_words), 0u) << what() << " word " << i;
          }
        }
      }
    }
  }
}

// The column gather (a single-driver column broadcast's driver rows) of
// every arm against the plain loop, over whole-row word ranges: the whole
// plane, one row, and a band of rows with a ragged block tail, on row
// widths that take the flat 8-word blocks (1, 2, 4 words) and one that
// takes the row loop (3 words). Open layouts: a diagonal, and random
// switches at density 0.3 (the arithmetic is defined for any open plane).
TEST(PlaneKernels, ColumnGatherMatchesPlainLoop) {
  util::Rng rng(0xE7'0011);
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{5}, std::size_t{64},
                                std::size_t{65}, std::size_t{130}, std::size_t{256}}) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const std::size_t rw = g.row_words;
      for (const bool diagonal : {true, false}) {
        std::vector<PlaneWord> open(pw);
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t c = 0; c < n; ++c) {
            if (diagonal ? r == c : rng.chance(0.3)) {
              open[g.word_of(r, c)] |= PlaneWord{1} << g.bit_of(c);
            }
          }
        }
        for (const int planes : {1, 16, 32}) {
          const auto src = random_planes(rng, g, planes);
          const std::pair<std::size_t, std::size_t> ranges[] = {
              {0, n}, {n / 2, n / 2 + 1}, {n / 3, n - n / 5}};
          for (const auto& [first, last] : ranges) {
            std::vector<PlaneWord> want(static_cast<std::size_t>(planes) * rw, 0);
            for (int j = 0; j < planes; ++j) {
              for (std::size_t i = first * rw; i < last * rw; ++i) {
                want[static_cast<std::size_t>(j) * rw + i % rw] |=
                    src[static_cast<std::size_t>(j) * pw + i] & open[i];
              }
            }
            std::vector<PlaneWord> got(want.size(), ~PlaneWord{0});
            arm->column_gather(g, src.data(), planes, open.data(), first * rw, last * rw,
                               got.data());
            ASSERT_EQ(want, got) << sim::plane_kernels::variant_name(arm->variant)
                                 << " n=" << n << (diagonal ? " diagonal" : " random")
                                 << " planes=" << planes << " rows [" << first << ", "
                                 << last << ")";
          }
        }
      }
    }
  }
}

// The multi-plane masked store of every arm against the scalar arm, on
// widths with and without a ragged tail past the vector blocks, under a
// random mask and a one-row mask (the other word blocks are skipped).
// Masked-off lanes keep dst, pads included (a store never writes a lane
// its mask clears), and the planes are h = 1, 16 and 32 deep.
TEST(PlaneKernels, MaskedAssignPlanesMatchesScalarArm) {
  util::Rng rng(0xE7'0008);
  const PlaneKernels& scalar = sim::plane_kernels::scalar_kernels();
  for (const PlaneKernels* arm : all_arms()) {
    for (const std::size_t n : {std::size_t{1}, std::size_t{63}, std::size_t{64},
                                std::size_t{65}, std::size_t{96}, std::size_t{128},
                                std::size_t{130}}) {
      const PlaneGeometry g{n};
      const std::size_t pw = g.plane_words();
      const std::size_t row = (n / 2) * g.row_words;
      std::vector<PlaneWord> one_row(pw);
      std::copy_n(full_plane(g).begin() + static_cast<std::ptrdiff_t>(row), g.row_words,
                  one_row.begin() + static_cast<std::ptrdiff_t>(row));
      const std::vector<PlaneWord> masks[] = {random_planes(rng, g, 1), one_row};
      for (std::size_t k = 0; k < 2; ++k) {
        for (const int planes : {1, 16, 32}) {
          const auto src = random_planes(rng, g, planes);
          const std::size_t total = pw * static_cast<std::size_t>(planes);
          // dst's pad bits set: the store must leave them alone.
          std::vector<PlaneWord> dst(total);
          for (auto& w : dst) w = rng.next();
          std::vector<PlaneWord> want = dst;
          for (int j = 0; j < planes; ++j) {
            const std::size_t off = static_cast<std::size_t>(j) * pw;
            scalar.masked_assign(masks[k].data(), src.data() + off, want.data() + off, pw);
          }
          std::vector<PlaneWord> got = dst;
          arm->masked_assign_planes(masks[k].data(), src.data(), got.data(), planes, pw);
          const std::string what = std::string(sim::plane_kernels::variant_name(arm->variant)) +
                                   " n=" + std::to_string(n) + " mask=" + std::to_string(k) +
                                   " planes=" + std::to_string(planes);
          ASSERT_EQ(want, got) << what;
          for (std::size_t i = 0; i < total; ++i) {
            const PlaneWord pads = ~g.word_mask(i % g.row_words);
            ASSERT_EQ(got[i] & pads, dst[i] & pads) << what << " word " << i;
          }
        }
      }
    }
  }
}

// The row elimination of every arm against the scalar arm, and the scalar
// arm against the rounds written out as plain per-row loops. Round planes
// mix four row kinds by r % 4: random lanes, all zero (a row of zeros in
// every round), all ones (a row at infinity) and each round's row all
// zero or all ones at random (every lane ties). Both polarities, with and
// without a partial initial plane and a partial ambient plane, over 1 to
// 64 rounds. The outputs start as garbage: every enable word and every
// row word must be overwritten, and enable's pads must read 0.
TEST(PlaneKernels, RowEliminateMatchesScalarArm) {
  util::Rng rng(0xE7'000B);
  const PlaneKernels& scalar = sim::plane_kernels::scalar_kernels();
  for (const std::size_t n : kSides) {
    const PlaneGeometry g{n};
    const std::size_t pw = g.plane_words();
    const std::size_t rw = g.row_words;
    const auto full = full_plane(g);
    constexpr int kRounds = 64;
    auto planes = random_planes(rng, g, kRounds);
    for (int k = 0; k < kRounds; ++k) {
      const bool tie_ones = rng.chance(0.5);
      for (std::size_t r = 0; r < n; ++r) {
        const std::size_t kind = r % 4;
        if (kind == 0) continue;
        const bool ones = kind == 2 || (kind == 3 && tie_ones);
        for (std::size_t w = 0; w < rw; ++w) {
          planes[static_cast<std::size_t>(k) * pw + r * rw + w] = ones ? full[r * rw + w] : 0;
        }
      }
    }
    const auto initial = random_planes(rng, g, 1);
    const auto ambient = random_planes(rng, g, 1);
    std::vector<const PlaneWord*> rounds(kRounds);
    for (std::size_t k = 0; k < kRounds; ++k) rounds[k] = &planes[k * pw];
    for (const bool keep_max : {false, true}) {
      for (const PlaneWord* init : {static_cast<const PlaneWord*>(nullptr), initial.data()}) {
        for (const PlaneWord* amb : {static_cast<const PlaneWord*>(nullptr), ambient.data()}) {
          for (const int count : {1, 2, 7, 16, 22, 33, 64}) {
            const auto what = [&] {
              return "n=" + std::to_string(n) + (keep_max ? " max" : " min") +
                     (init != nullptr ? " initial" : "") + (amb != nullptr ? " ambient" : "") +
                     " rounds=" + std::to_string(count);
            };
            // The plain loops: each row on its own, round by round.
            std::vector<PlaneWord> ref_enable(pw), ref_or(n);
            for (std::size_t r = 0; r < n; ++r) {
              PlaneWord* e = &ref_enable[r * rw];
              for (std::size_t w = 0; w < rw; ++w) {
                e[w] = full[r * rw + w] & (init != nullptr ? init[r * rw + w] : ~PlaneWord{0});
              }
              for (int k = 0; k < count; ++k) {
                std::vector<PlaneWord> probe(rw);
                bool any = false;
                for (std::size_t w = 0; w < rw; ++w) {
                  const PlaneWord b = rounds[static_cast<std::size_t>(k)][r * rw + w];
                  probe[w] = keep_max ? e[w] & b : e[w] & ~b;
                  any = any || probe[w] != 0;
                }
                if (!any) continue;
                ref_or[r] |= PlaneWord{1} << k;
                for (std::size_t w = 0; w < rw; ++w) {
                  if (amb == nullptr) {
                    e[w] = probe[w];
                  } else {
                    e[w] = (probe[w] & amb[r * rw + w]) | (e[w] & ~amb[r * rw + w]);
                  }
                }
              }
            }
            std::vector<PlaneWord> want(pw, ~PlaneWord{0}), want_or(n, ~PlaneWord{0});
            scalar.row_eliminate(g, rounds.data(), count, keep_max, init, amb, full.data(),
                                 want.data(), want_or.data());
            ASSERT_EQ(want, ref_enable) << what();
            ASSERT_EQ(want_or, ref_or) << what();
            for (const PlaneKernels* arm : all_arms()) {
              std::vector<PlaneWord> got(pw, ~PlaneWord{0}), got_or(n, ~PlaneWord{0});
              arm->row_eliminate(g, rounds.data(), count, keep_max, init, amb, full.data(),
                                 got.data(), got_or.data());
              const std::string arm_name = sim::plane_kernels::variant_name(arm->variant);
              ASSERT_EQ(want, got) << arm_name << " " << what();
              ASSERT_EQ(want_or, got_or) << arm_name << " " << what();
              for (std::size_t i = 0; i < pw; ++i) {
                ASSERT_EQ(got[i] & ~g.word_mask(i % rw), 0u) << arm_name << " " << what();
              }
            }
          }
        }
      }
    }
  }
}

// PlaneAlu is the kernel call plus its throughput bill: each op runs the
// dispatched kernel once over the whole operand and bills one dispatch
// with the op's full word footprint.
TEST(PlaneKernelsAlu, EachOpIsOneBilledKernelCall) {
  util::Rng rng(0xE7'0004);
  const PlaneGeometry g{130};
  const std::size_t pw = g.plane_words();
  const int h = 16;
  const auto full = full_plane(g);
  const auto a = random_planes(rng, g, h);
  const auto b = random_planes(rng, g, h);
  std::vector<sim::Word> src(g.n * g.n);
  for (auto& v : src) v = static_cast<sim::Word>(rng.next() & 0xFFFFu);

  const PlaneKernels& k = sim::plane_kernels::active();
  std::vector<PlaneWord> want_add(pw * h), want_lt(pw), want_eq(pw), want_pack(pw * h);
  k.add_sat(a.data(), b.data(), h, pw, want_add.data());
  k.compare_lt(a.data(), b.data(), h, pw, full.data(), want_lt.data(), want_eq.data());
  k.pack_words(g, src.data(), h, want_pack.data());

  sim::plane_kernels::SweepStats stats;
  const sim::plane_kernels::PlaneAlu alu(k, &stats);
  std::vector<PlaneWord> add(pw * h, 1), lt(pw, 1), eq(pw, 1), pack(pw * h, 1), both(pw, 1);
  alu.add_sat(a.data(), b.data(), h, pw, add.data());
  alu.compare_lt(a.data(), b.data(), h, pw, full.data(), lt.data(), eq.data());
  alu.pack_words(g, src.data(), h, pack.data());
  alu.op_and(a.data(), b.data(), both.data(), pw);
  EXPECT_EQ(want_add, add);
  EXPECT_EQ(want_lt, lt);
  EXPECT_EQ(want_eq, eq);
  EXPECT_EQ(want_pack, pack);
  EXPECT_EQ(stats.dispatches, 4u);
  EXPECT_EQ(stats.words, 3 * pw * h + pw);
  // Early-exit scans are not billed.
  EXPECT_FALSE(alu.all_zero(full.data(), pw));
  EXPECT_EQ(stats.dispatches, 4u);
}

}  // namespace
}  // namespace ppa
