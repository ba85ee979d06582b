// Bit-plane packing: 64 PE lanes per host word.
//
// The PPA the paper targets is bit-serial hardware — every PE handles one
// bit per cycle, and the expensive primitives (the h wired-OR rounds of
// min()/selected_min()) are defined plane by plane. The bit-plane backend
// stores each parallel value as h planes of n*n bits, so one host word
// operation advances 64 PEs at once (the same representation Matsumae's
// reconfigurable-mesh simulations and Stout's mesh-labeling work use to
// make bus-mesh simulation tractable).
//
// Layout: planes are ROW-ALIGNED. Each row occupies `row_words` 64-bit
// words (ceil(n/64)); PE (r, c) lives in word r*row_words + c/64 at bit
// c%64. Row alignment keeps every row bus a contiguous word run and every
// column bus a fixed word-column, so both bus systems resolve without
// unpacking. The pad bits past column n-1 in each row's last word are
// CANONICALLY ZERO — every kernel preserves that invariant (NOT is
// implemented as AND with the full-array mask), so whole-word comparisons
// against the full mask answer "all PEs?" questions directly.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "sim/bus.hpp"

namespace ppa::sim {

/// How parallel values are stored and swept on the HOST. Pure host
/// artifact: programs, results, driven flags and step counts are
/// bit-identical under both backends (tests/mcp_backend_diff_test.cpp).
enum class ExecBackend {
  Words,     // one Word per PE; elementwise loops sweep one PE per op
  BitPlane,  // h bit planes, 64 PE lanes per uint64_t
};

/// One 64-lane chunk of a bit plane.
using PlaneWord = std::uint64_t;

inline constexpr std::size_t kLanesPerWord = 64;

/// Geometry of one n x n bit plane under the row-aligned layout.
struct PlaneGeometry {
  std::size_t n = 0;
  std::size_t row_words = 0;  // words per row = ceil(n / 64)

  constexpr PlaneGeometry() = default;
  explicit constexpr PlaneGeometry(std::size_t side)
      : n(side), row_words((side + kLanesPerWord - 1) / kLanesPerWord) {}

  /// Words in one full plane (n rows of row_words words).
  [[nodiscard]] constexpr std::size_t plane_words() const noexcept { return n * row_words; }

  /// Word index of PE (row, col) within a plane.
  [[nodiscard]] constexpr std::size_t word_of(std::size_t row, std::size_t col) const noexcept {
    return row * row_words + col / kLanesPerWord;
  }

  /// Bit index of `col` within its word.
  [[nodiscard]] static constexpr unsigned bit_of(std::size_t col) noexcept {
    return static_cast<unsigned>(col % kLanesPerWord);
  }

  /// Valid-lane mask of word `w` of a row (all ones except a partial last
  /// word; pads read 0).
  [[nodiscard]] constexpr PlaneWord word_mask(std::size_t w) const noexcept {
    const std::size_t lanes_before = w * kLanesPerWord;
    if (lanes_before >= n) return 0;
    const std::size_t lanes = n - lanes_before;
    return lanes >= kLanesPerWord ? ~PlaneWord{0} : ((PlaneWord{1} << lanes) - 1);
  }
};

[[nodiscard]] inline bool plane_get(const PlaneGeometry& g, const PlaneWord* plane,
                                    std::size_t row, std::size_t col) noexcept {
  return (plane[g.word_of(row, col)] >> PlaneGeometry::bit_of(col)) & 1u;
}

inline void plane_set(const PlaneGeometry& g, PlaneWord* plane, std::size_t row,
                      std::size_t col, bool value) noexcept {
  const PlaneWord bit = PlaneWord{1} << PlaneGeometry::bit_of(col);
  PlaneWord& w = plane[g.word_of(row, col)];
  w = value ? (w | bit) : (w & ~bit);
}

/// Builds the full-array mask plane (1 on every PE, 0 on every pad bit).
inline void plane_fill_full(const PlaneGeometry& g, PlaneWord* plane) noexcept {
  for (std::size_t r = 0; r < g.n; ++r) {
    for (std::size_t w = 0; w < g.row_words; ++w) plane[r * g.row_words + w] = g.word_mask(w);
  }
}

/// Number of set lanes in a plane (pads are zero by invariant).
[[nodiscard]] inline std::size_t plane_popcount(const PlaneGeometry& g,
                                                const PlaneWord* plane) noexcept {
  std::size_t total = 0;
  const std::size_t words = g.plane_words();
  for (std::size_t i = 0; i < words; ++i) {
    total += static_cast<std::size_t>(__builtin_popcountll(plane[i]));
  }
  return total;
}

// ---------------------------------------------------------------------------
// Packing between the word backend's per-PE vectors and bit planes. Used at
// load/unload boundaries and by the differential tests; the hot path never
// round-trips.
// ---------------------------------------------------------------------------

/// Packs per-PE words into `planes` contiguous bit planes (plane j at
/// offset j * plane_words).
inline void pack_words(const PlaneGeometry& g, std::span<const Word> src, int planes,
                       PlaneWord* out) {
  const std::size_t pw = g.plane_words();
  for (std::size_t i = 0; i < pw * static_cast<std::size_t>(planes); ++i) out[i] = 0;
  for (std::size_t pe = 0; pe < src.size(); ++pe) {
    const std::size_t word = (pe / g.n) * g.row_words + (pe % g.n) / kLanesPerWord;
    const unsigned bit = PlaneGeometry::bit_of(pe % g.n);
    Word v = src[pe];
    while (v != 0) {
      const int j = __builtin_ctz(v);
      out[static_cast<std::size_t>(j) * pw + word] |= PlaneWord{1} << bit;
      v &= v - 1;
    }
  }
}

inline void unpack_words(const PlaneGeometry& g, const PlaneWord* planes, int count,
                         std::span<Word> dst) {
  const std::size_t pw = g.plane_words();
  for (std::size_t pe = 0; pe < dst.size(); ++pe) {
    const std::size_t row = pe / g.n;
    const std::size_t col = pe % g.n;
    Word v = 0;
    for (int j = 0; j < count; ++j) {
      if (plane_get(g, planes + static_cast<std::size_t>(j) * pw, row, col)) {
        v |= Word{1} << j;
      }
    }
    dst[pe] = v;
  }
}

inline void pack_flags(const PlaneGeometry& g, std::span<const Flag> src, PlaneWord* out) {
  const std::size_t pw = g.plane_words();
  for (std::size_t i = 0; i < pw; ++i) out[i] = 0;
  for (std::size_t pe = 0; pe < src.size(); ++pe) {
    if (src[pe] != 0) {
      out[(pe / g.n) * g.row_words + (pe % g.n) / kLanesPerWord] |=
          PlaneWord{1} << PlaneGeometry::bit_of(pe % g.n);
    }
  }
}

inline void unpack_flags(const PlaneGeometry& g, const PlaneWord* plane,
                         std::span<Flag> dst) {
  for (std::size_t pe = 0; pe < dst.size(); ++pe) {
    dst[pe] = plane_get(g, plane, pe / g.n, pe % g.n) ? Flag{1} : Flag{0};
  }
}

}  // namespace ppa::sim
