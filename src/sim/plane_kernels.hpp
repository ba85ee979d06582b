// Runtime-dispatched SIMD kernel table for the bit-plane ALU, the row
// buses (broadcast and wired-OR), single-driver row and column broadcasts,
// the fused broadcast-add of statement 10 and the multi-round row
// elimination of min().
//
// A table of function pointers filled per SIMD variant (scalar / AVX2 /
// AVX-512), selected once per process from what the build compiled in and
// what the CPU reports, plus the PlaneAlu wrapper that bills each sweep
// and runs it inline: one SIMD instruction is one kernel call on the
// controller thread, never split over host threads (host parallelism
// comes from whole destinations and batches, one level up).
// tests/ppc_plane_kernels_test.cpp fuzzes every arm against plain word
// loops, and the segmented fill, segmented OR, row fill, column fill and
// row elimination of every arm against the scalar arm (which tests/sim_bus_planes_test.cpp
// holds to the word-engine bus, sim/bus.cpp).
//
// Dispatch order:
//   1. A PPA_FORCE_SIMD=<arm> build (CMake option) pins the arm at
//      compile time; if the CPU cannot execute the pinned arm the next
//      best one is used and a one-line note goes to stderr (keeps forced
//      CI legs green on heterogeneous runners).
//   2. The PPA_SIMD environment variable (scalar|avx2|avx512) overrides
//      at run time, with the same graceful fallback.
//   3. Otherwise the widest compiled-in variant the CPU supports wins.
#pragma once

#include <cstddef>
#include <cstdint>

#include "sim/bit_planes.hpp"

namespace ppa::sim::plane_kernels {

using sim::PlaneWord;

enum class SimdVariant { Scalar, Avx2, Avx512 };

[[nodiscard]] const char* variant_name(SimdVariant v) noexcept;

/// One fully-populated kernel arm. All pointers are non-null.
struct PlaneKernels {
  SimdVariant variant = SimdVariant::Scalar;

  // Elementwise bitwise sweeps over raw word ranges (callers pass pw or
  // h * pw).
  void (*op_and)(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                 std::size_t words) noexcept = nullptr;
  void (*op_or)(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                std::size_t words) noexcept = nullptr;
  void (*op_xor)(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                 std::size_t words) noexcept = nullptr;
  void (*op_andnot)(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                    std::size_t words) noexcept = nullptr;
  void (*op_copy)(const PlaneWord* a, PlaneWord* out, std::size_t words) noexcept = nullptr;
  void (*op_zero)(PlaneWord* out, std::size_t words) noexcept = nullptr;
  void (*masked_assign)(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                        std::size_t words) noexcept = nullptr;
  /// masked_assign of `planes` planes (plane j at offset j * pw) under the
  /// one mask plane: a whole-register masked store in one sweep.
  void (*masked_assign_planes)(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                               int planes, std::size_t pw) noexcept = nullptr;
  void (*blend)(const PlaneWord* cond, const PlaneWord* a, const PlaneWord* b,
                PlaneWord* out, std::size_t words) noexcept = nullptr;
  bool (*all_zero)(const PlaneWord* a, std::size_t words) noexcept = nullptr;
  bool (*equal)(const PlaneWord* a, const PlaneWord* b, std::size_t words) noexcept = nullptr;

  // Multi-plane kernels over all pw words of every plane: saturating add
  // (util::HField::add's clamp rule) and MSB-first compares; carry/lt/eq
  // live in registers per word block.
  void (*add_sat)(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  PlaneWord* out) noexcept = nullptr;
  /// add_sat fused into a masked store: dst = mask ? a + b : dst, dst
  /// free to alias a or b; word blocks the mask leaves empty are skipped.
  void (*add_sat_masked)(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                         const PlaneWord* mask, PlaneWord* dst) noexcept = nullptr;
  void (*compare_lt)(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                     const PlaneWord* full, PlaneWord* lt, PlaneWord* eq) noexcept = nullptr;
  void (*compare_eq)(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                     const PlaneWord* full, PlaneWord* eq) noexcept = nullptr;
  /// out = mask & (a != b); word blocks the mask leaves empty skip the
  /// planes and read 0.
  void (*compare_ne_masked)(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                            const PlaneWord* mask, PlaneWord* out) noexcept = nullptr;

  /// Packs per-PE words into `planes` bit planes (plane j at offset
  /// j * plane_words). Fully overwrites every word, pads read 0 — no
  /// pre-zeroing needed.
  void (*pack_words)(const sim::PlaneGeometry& g, const sim::Word* src, int planes,
                     PlaneWord* out) = nullptr;
  /// pack_words of the single row `r`: `row` holds its n words, and only
  /// row r's words of each plane are written (pads read 0).
  void (*pack_row)(const sim::PlaneGeometry& g, const sim::Word* row, int planes,
                   std::size_t r, PlaneWord* out) noexcept = nullptr;

  /// One row-bus broadcast cycle (dir East or West) on `planes` src
  /// planes, as a segmented fill: every lane reads the nearest Open switch
  /// strictly upstream, a ring wraps the row's last Open switch around to
  /// its head, undriven lanes read 0 — bus.cpp's rules exactly, for any
  /// number of Open switches per row. Fully overwrites `out` and `driven`.
  /// `full` is the valid-lane plane (plane_fill_full); `scratch` holds two
  /// planes. max_segment is not computed here (it depends on the switches
  /// alone).
  void (*segmented_fill)(const sim::PlaneGeometry& g, sim::BusTopology topology,
                         sim::Direction dir, const PlaneWord* src, int planes,
                         const PlaneWord* open, const PlaneWord* full, PlaneWord* out,
                         PlaneWord* driven, PlaneWord* scratch) noexcept = nullptr;

  /// One row-bus broadcast cycle (dir East or West) on `planes` src
  /// planes whose rows each hold at most one Open switch: every driven
  /// lane reads its row's one driver, so per plane each row is an OR of
  /// src & open across its words replicated under `driven` (the lanes the
  /// caller's switch pass found driven, which carries the direction and
  /// topology). Fully overwrites `out`; pads stay 0 when `driven`'s are. A
  /// row with two or more Open switches would read garbage.
  void (*row_fill)(const sim::PlaneGeometry& g, const PlaneWord* src, int planes,
                   const PlaneWord* open, const PlaneWord* driven,
                   PlaneWord* out) noexcept = nullptr;

  /// One word per row as `planes` planes, bit 0 on the last plane: plane j
  /// of row r is `mask`'s row-r words where bit planes-1-j of
  /// words[r] ^ flip is set, and 0 where it is not. So row_eliminate's
  /// round words (round k: bit h-1-k) are the extremes' value planes, with
  /// flip ~0 for a minimum. Reads words[0, n). With `store` == nullptr it
  /// fully overwrites `out`, whose pads stay 0 when `mask`'s are; otherwise
  /// it writes only the lanes of `store` (a masked store in place) and
  /// skips the word blocks `store` leaves empty.
  void (*row_word_fill)(const sim::PlaneGeometry& g, const PlaneWord* words, PlaneWord flip,
                        int planes, const PlaneWord* mask, const PlaneWord* store,
                        PlaneWord* out) noexcept = nullptr;

  /// One row-bus wired-OR cycle (dir East or West) on the single plane
  /// `src`: every lane reads the OR of its segment — an Open lane starts
  /// one, a ring's head stub joins the row's last segment, a linear head
  /// stub stands alone, a row with no Open lane is one segment — bus.cpp's
  /// rules exactly. Fully overwrites `out`; pads stay 0. max_segment is
  /// not computed here.
  void (*segmented_or)(const sim::PlaneGeometry& g, sim::BusTopology topology,
                       sim::Direction dir, const PlaneWord* src, const PlaneWord* open,
                       const PlaneWord* full, PlaneWord* out) noexcept = nullptr;

  /// One column-bus broadcast cycle (dir South or North) on `planes` src
  /// planes, for a switch configuration with at most one Open switch per
  /// column line: every driven lane reads its line's one driver, so per
  /// plane the cycle is an OR-gather of src & open over the rows and a
  /// replicate of that word row under `driven` (the chain resolver's pass
  /// 1 product, which carries the direction and topology). Fully
  /// overwrites `out`; pads stay 0 when `driven`'s are.
  void (*column_fill)(const sim::PlaneGeometry& g, const PlaneWord* src, int planes,
                      const PlaneWord* open, const PlaneWord* driven,
                      PlaneWord* out) noexcept = nullptr;

  /// The driver rows of a column broadcast with one driver per line whose
  /// Open switches all lie in the words [begin, end) of the plane (whole
  /// rows): plane j's row_words words at line + j * row_words get each word
  /// column's src & open, ORed over those words. What column_fill
  /// replicates, without the replicate.
  void (*column_gather)(const sim::PlaneGeometry& g, const PlaneWord* src, int planes,
                        const PlaneWord* open, std::size_t begin, std::size_t end,
                        PlaneWord* line) noexcept = nullptr;

  /// The paper's statement 10 for a column broadcast with one driver per
  /// line, stored in place: dst = mask ? sat((line & driven) + addend) :
  /// dst over h planes, where `line` holds each plane's driver row (plane
  /// j's row_words words at line + j * row_words), repeated down the
  /// columns, and `driven` is the broadcast's driven plane. Word blocks the
  /// mask leaves empty are skipped. dst may alias addend, not line; pads
  /// stay 0 when dst's, driven's and addend's are.
  void (*line_add_sat_masked)(const sim::PlaneGeometry& g, const PlaneWord* line, int h,
                              const PlaneWord* driven, const PlaneWord* addend,
                              const PlaneWord* mask, PlaneWord* dst) noexcept = nullptr;

  /// Every round of the bit-serial min/max elimination (the paper's min(),
  /// statements 8–10) on rows that each form ONE wired-OR segment, so a
  /// round's OR is the same on every lane of a row. `enable` starts as
  /// `full` & `initial` (nullptr: every lane); round k forms probe =
  /// enable & ~rounds[k] (enable & rounds[k] with `keep_max`), sets bit k
  /// of `row_or[r]` when row r's probe is nonzero, and there stores probe
  /// into enable on the `ambient` lanes (nullptr: every lane). At most 64
  /// rounds. Fully overwrites `enable` (pads stay 0) and row_or[0, n).
  void (*row_eliminate)(const sim::PlaneGeometry& g, const PlaneWord* const* rounds,
                        int count, bool keep_max, const PlaneWord* initial,
                        const PlaneWord* ambient, const PlaneWord* full, PlaneWord* enable,
                        PlaneWord* row_or) noexcept = nullptr;
};

/// The scalar arm (always compiled; the dispatch fallback).
[[nodiscard]] const PlaneKernels& scalar_kernels() noexcept;

/// The AVX2 / AVX-512 arms, or nullptr when the build did not compile
/// them (non-x86, or compiler without the flags) or the CPU cannot run
/// them. Tests iterate these directly to fuzz every arm.
[[nodiscard]] const PlaneKernels* avx2_kernels() noexcept;
[[nodiscard]] const PlaneKernels* avx512_kernels() noexcept;

/// The dispatched table / its variant (chosen once per process).
[[nodiscard]] const PlaneKernels& active() noexcept;
[[nodiscard]] SimdVariant active_variant() noexcept;

/// SIMD kernel-throughput counters, billed on the controller thread once
/// per dispatched sweep — the profiler's determinism contract
/// (docs/observability.md). Plain host bookkeeping: never charged as SIMD
/// steps.
struct SweepStats {
  std::uint64_t dispatches = 0;  // kernel sweeps issued
  std::uint64_t words = 0;       // total plane words those sweeps covered

  [[nodiscard]] SweepStats since(const SweepStats& earlier) const noexcept {
    return {dispatches - earlier.dispatches, words - earlier.words};
  }
};

/// The ppc layer's view of one plane sweep: the dispatched kernels plus
/// the throughput billing. Each op bills its word footprint and is one
/// kernel call.
class PlaneAlu {
 public:
  PlaneAlu(const PlaneKernels& kernels, SweepStats* stats) noexcept
      : k_(&kernels), stats_(stats) {}

  [[nodiscard]] const PlaneKernels& kernels() const noexcept { return *k_; }

  void op_and(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
              std::size_t words) const {
    bill(words);
    k_->op_and(a, b, out, words);
  }
  void op_or(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
             std::size_t words) const {
    bill(words);
    k_->op_or(a, b, out, words);
  }
  void op_xor(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
              std::size_t words) const {
    bill(words);
    k_->op_xor(a, b, out, words);
  }
  void op_andnot(const PlaneWord* a, const PlaneWord* b, PlaneWord* out,
                 std::size_t words) const {
    bill(words);
    k_->op_andnot(a, b, out, words);
  }
  void op_copy(const PlaneWord* a, PlaneWord* out, std::size_t words) const {
    bill(words);
    k_->op_copy(a, out, words);
  }
  void op_zero(PlaneWord* out, std::size_t words) const {
    bill(words);
    k_->op_zero(out, words);
  }
  void masked_assign(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                     std::size_t words) const {
    bill(words);
    k_->masked_assign(mask, src, dst, words);
  }
  void masked_assign_planes(const PlaneWord* mask, const PlaneWord* src, PlaneWord* dst,
                            int planes, std::size_t pw) const {
    bill(static_cast<std::size_t>(planes) * pw);
    k_->masked_assign_planes(mask, src, dst, planes, pw);
  }
  void blend(const PlaneWord* cond, const PlaneWord* a, const PlaneWord* b,
             PlaneWord* out, std::size_t words) const {
    bill(words);
    k_->blend(cond, a, b, out, words);
  }

  // Early-exit scans are not billed as sweeps.
  [[nodiscard]] bool all_zero(const PlaneWord* a, std::size_t words) const {
    return k_->all_zero(a, words);
  }
  [[nodiscard]] bool equal(const PlaneWord* a, const PlaneWord* b,
                           std::size_t words) const {
    return k_->equal(a, b, words);
  }

  void fill_scalar(sim::Word value, int h, std::size_t pw, const PlaneWord* full,
                   PlaneWord* out) const {
    for (int j = 0; j < h; ++j) {
      PlaneWord* plane = out + static_cast<std::size_t>(j) * pw;
      if ((value >> j) & 1u) {
        op_copy(full, plane, pw);
      } else {
        op_zero(plane, pw);
      }
    }
  }

  void add_sat(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
               PlaneWord* out) const {
    bill(static_cast<std::size_t>(h) * pw);
    k_->add_sat(a, b, h, pw, out);
  }
  void add_sat_masked(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                      const PlaneWord* mask, PlaneWord* dst) const {
    bill(static_cast<std::size_t>(h) * pw);
    k_->add_sat_masked(a, b, h, pw, mask, dst);
  }
  void line_add_sat_masked(const sim::PlaneGeometry& g, const PlaneWord* line, int h,
                           const PlaneWord* driven, const PlaneWord* addend,
                           const PlaneWord* mask, PlaneWord* dst) const {
    bill(static_cast<std::size_t>(h) * g.plane_words());
    k_->line_add_sat_masked(g, line, h, driven, addend, mask, dst);
  }
  void compare_lt(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* lt, PlaneWord* eq) const {
    bill(static_cast<std::size_t>(h) * pw);
    k_->compare_lt(a, b, h, pw, full, lt, eq);
  }
  void compare_eq(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                  const PlaneWord* full, PlaneWord* eq) const {
    bill(static_cast<std::size_t>(h) * pw);
    k_->compare_eq(a, b, h, pw, full, eq);
  }
  void compare_ne_masked(const PlaneWord* a, const PlaneWord* b, int h, std::size_t pw,
                         const PlaneWord* mask, PlaneWord* out) const {
    bill(static_cast<std::size_t>(h) * pw);
    k_->compare_ne_masked(a, b, h, pw, mask, out);
  }

  void pack_words(const sim::PlaneGeometry& g, const sim::Word* src, int planes,
                  PlaneWord* out) const {
    bill(g.plane_words() * static_cast<std::size_t>(planes));
    k_->pack_words(g, src, planes, out);
  }
  void pack_row(const sim::PlaneGeometry& g, const sim::Word* row, int planes, std::size_t r,
                PlaneWord* out) const {
    bill(g.row_words * static_cast<std::size_t>(planes));
    k_->pack_row(g, row, planes, r, out);
  }
  void row_eliminate(const sim::PlaneGeometry& g, const PlaneWord* const* rounds, int count,
                     bool keep_max, const PlaneWord* initial, const PlaneWord* ambient,
                     const PlaneWord* full, PlaneWord* enable, PlaneWord* row_or) const {
    bill(g.plane_words() * static_cast<std::size_t>(count));
    k_->row_eliminate(g, rounds, count, keep_max, initial, ambient, full, enable, row_or);
  }
  void row_word_fill(const sim::PlaneGeometry& g, const PlaneWord* words, PlaneWord flip,
                     int planes, const PlaneWord* mask, const PlaneWord* store,
                     PlaneWord* out) const {
    bill(g.plane_words() * static_cast<std::size_t>(planes));
    k_->row_word_fill(g, words, flip, planes, mask, store, out);
  }

 private:
  void bill(std::size_t words) const noexcept {
    if (stats_ != nullptr) {
      ++stats_->dispatches;
      stats_->words += words;
    }
  }

  const PlaneKernels* k_;
  SweepStats* stats_;
};

}  // namespace ppa::sim::plane_kernels
