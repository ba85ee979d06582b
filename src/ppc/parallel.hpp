// Parallel variables — PPC's `parallel` memorization class as a C++ eDSL.
//
// A Pint is "an array of h-bit integer variables, each element of which is
// associated to a different local memory" (paper Section 2); a Pbool is the
// `parallel logical` used for switch settings and conditions.
//
// SEMANTICS THAT DIFFER FROM PLAIN C++ — read before using:
//
//  * Copy construction / declaration-with-initializer is UNMASKED: it
//    allocates a fresh register in every PE, like a PPC declaration.
//  * ASSIGNMENT (operator=) is MASKED: only PEs active under the current
//    where-mask store the value; inactive PEs keep their old contents.
//    Use store_all() for an explicit unmasked store.
//  * Operators (+, ==, <, &, |, !) are evaluated by ALL PEs regardless of
//    the mask (the array executes every issued instruction; masking gates
//    write-back only). Each operator charges one SIMD ALU step.
//  * Values read from a bus carry a per-PE "driven" flag; consuming an
//    undriven value (storing it on an active PE) triggers the machine's
//    UndrivenPolicy. Values that never touched a floating bus are always
//    fully driven.
//
// Host-side introspection (at(), read_row()/read_column(), values()) reads
// the array without charging steps — that is the controller peeking at
// local memories, used for I/O and for assertions in tests.
#pragma once

#include <span>
#include <vector>

#include "ppc/context.hpp"

namespace ppa::ppc {

class Pbool;

/// Parallel h-bit unsigned integer (one per PE).
class Pint {
 public:
  /// Declaration with a scalar initializer — unmasked broadcast fill.
  /// `init` must be representable in the machine's h-bit field.
  Pint(Context& ctx, Word init);

  /// Declaration initialized from host data (the controller loading the
  /// local memories, e.g. the weight matrix W). Unmasked. Every value must
  /// be representable in the field.
  Pint(Context& ctx, std::span<const Word> values);

  /// A register's contents detached from any Pint: the per-PE words
  /// (Word backend) or the h bit planes, pads 0 (BitPlane backend); the
  /// other vector stays empty. Lets the host keep a packed register
  /// beyond the context that declared it (mcp's per-thread W panels).
  struct Storage {
    std::vector<Word> words;
    std::vector<sim::PlaneWord> planes;
  };

  /// Declaration of a register whose contents the host already holds in
  /// `storage`, laid out for this context's backend and geometry: the
  /// register takes the storage over instead of copying it. Unmasked,
  /// fully driven, and charged exactly like Pint(ctx, values).
  [[nodiscard]] static Pint adopt(Context& ctx, Storage storage);

  /// Gives the storage back to the host and leaves an empty shell, which
  /// releases nothing to the arena. The register must be fully driven.
  [[nodiscard]] Storage surrender() &&;

  /// Declaration loading ONE row from host data, the counterpart of
  /// read_row: row `row` holds `values` (exactly n of them) and every other
  /// PE holds 0. Unmasked, and charged exactly like Pint(ctx, span) — the
  /// host just skips packing the n - 1 zero rows.
  [[nodiscard]] static Pint load_row(Context& ctx, std::size_t row,
                                     std::span<const Word> values);

  /// load_row into this register in place: row `row` gets `values`, and
  /// with `zero_rest` every other PE gets 0 (load_row's contents exactly);
  /// without it the other rows keep theirs. Unmasked, and charged like
  /// load_row. The loaded PEs are driven afterwards.
  void reload_row(std::size_t row, std::span<const Word> values, bool zero_rest);

  /// Clone — a fresh register unmasked-copied from `other` (buffer drawn
  /// from the context's register arena; charges nothing, like the old
  /// memberwise copy).
  Pint(const Pint& other);
  Pint(Pint&& other) noexcept = default;

  /// Hands the registers back to the context's arena. Moved-from shells
  /// (empty buffers) release nothing.
  ~Pint();

  /// MASKED store (see header comment). Charges one ALU step.
  Pint& operator=(const Pint& rhs);
  Pint& operator=(Pint&& rhs);

  /// Unmasked stores.
  void store_all(const Pint& rhs);
  void store_all(Word value);

  [[nodiscard]] Context& context() const noexcept { return *ctx_; }

  /// Word-backend storage view (empty under the BitPlane backend — use
  /// at() / planes_view() there).
  [[nodiscard]] std::span<const Word> values() const noexcept { return data_; }
  [[nodiscard]] Word at(std::size_t pe) const;
  [[nodiscard]] Word at(std::size_t row, std::size_t col) const;

  /// Host line readback: copies row `row` (column `col`) into `out`, which
  /// must hold exactly n elements. Bounds are checked once per line and the
  /// storage is read directly, so this is the read for host loops over
  /// lines (panel unloads, per-round OR lines). Charges nothing.
  void read_row(std::size_t row, std::span<Word> out) const;
  void read_column(std::size_t col, std::span<Word> out) const;

  /// BitPlane-backend storage: h contiguous planes (empty under Word).
  [[nodiscard]] std::span<const sim::PlaneWord> planes_view() const noexcept {
    return planes_;
  }

  /// True when no element is a floating-bus read.
  [[nodiscard]] bool fully_driven() const noexcept {
    return driven_.empty() && driven_plane_.empty();
  }

  /// Per-PE driven flags; empty span when fully driven.
  [[nodiscard]] std::span<const Flag> driven_view() const noexcept { return driven_; }
  [[nodiscard]] std::span<const sim::PlaneWord> driven_plane_view() const noexcept {
    return driven_plane_;
  }

  /// The j-th bit plane as a parallel logical — the paper's bit(x, j).
  [[nodiscard]] Pbool bit(int j) const;

  /// `this | (flag << j)` — writes a bit plane; used by the bit-serial
  /// primitives to assemble values LSB by LSB.
  [[nodiscard]] Pint or_bit(int j, const Pbool& flag) const;

  // Saturating h-bit arithmetic.
  friend Pint operator+(const Pint& a, const Pint& b);
  friend Pint operator+(const Pint& a, Word b);

  /// Elementwise minimum / maximum (plain ALU ops, not bus reductions).
  friend Pint emin(const Pint& a, const Pint& b);
  friend Pint emax(const Pint& a, const Pint& b);

  // Comparisons — parallel logical results.
  friend Pbool operator==(const Pint& a, const Pint& b);
  friend Pbool operator!=(const Pint& a, const Pint& b);
  friend Pbool operator<(const Pint& a, const Pint& b);
  friend Pbool operator<=(const Pint& a, const Pint& b);
  friend Pbool operator==(const Pint& a, Word b);
  friend Pbool operator!=(const Pint& a, Word b);
  friend Pbool operator<(const Pint& a, Word b);

  /// cond ? a : b, elementwise (unmasked expression).
  friend Pint select(const Pbool& cond, const Pint& a, const Pint& b);

 private:
  friend class detail_access;

  /// Uncharged shell used by detail_access to wrap bus results.
  explicit Pint(Context* ctx) : ctx_(ctx) {}

  Context* ctx_;
  // Exactly one representation is populated, fixed by the machine's
  // ExecBackend: per-PE words (data_/driven_) or h bit planes
  // (planes_/driven_plane_). Programs cannot observe which.
  std::vector<Word> data_;
  // Empty = every element driven; otherwise one flag per PE.
  std::vector<Flag> driven_;
  std::vector<sim::PlaneWord> planes_;
  // Empty = every element driven; otherwise one bit per PE.
  std::vector<sim::PlaneWord> driven_plane_;
};

/// Parallel logical (one flag per PE); doubles as the Open/Short switch
/// setting for the bus primitives (1 = Open).
class Pbool {
 public:
  Pbool(Context& ctx, bool init);
  Pbool(Context& ctx, std::span<const Flag> values);
  Pbool(const Pbool& other);
  Pbool(Pbool&& other) noexcept = default;
  ~Pbool();

  /// MASKED store. Charges one ALU step.
  Pbool& operator=(const Pbool& rhs);
  Pbool& operator=(Pbool&& rhs);

  void store_all(const Pbool& rhs);
  void store_all(bool value);

  [[nodiscard]] Context& context() const noexcept { return *ctx_; }

  /// Word-backend storage view (empty under the BitPlane backend).
  [[nodiscard]] std::span<const Flag> values() const noexcept { return data_; }
  [[nodiscard]] bool at(std::size_t pe) const;
  [[nodiscard]] bool at(std::size_t row, std::size_t col) const;

  /// Host line readback as 0/1 flags (see Pint::read_row).
  void read_row(std::size_t row, std::span<Flag> out) const;
  void read_column(std::size_t col, std::span<Flag> out) const;

  /// BitPlane-backend storage: one plane (empty under Word).
  [[nodiscard]] std::span<const sim::PlaneWord> plane_view() const noexcept {
    return plane_;
  }

  [[nodiscard]] bool fully_driven() const noexcept {
    return driven_.empty() && driven_plane_.empty();
  }

  /// Per-PE driven flags; empty span when fully driven.
  [[nodiscard]] std::span<const Flag> driven_view() const noexcept { return driven_; }
  [[nodiscard]] std::span<const sim::PlaneWord> driven_plane_view() const noexcept {
    return driven_plane_;
  }

  /// Number of PEs whose flag is set (host introspection, no step charge).
  [[nodiscard]] std::size_t count() const noexcept;

  // Parallel logic. `!` is logical NOT; `&`, `|`, `^` are elementwise.
  friend Pbool operator!(const Pbool& a);
  friend Pbool operator&(const Pbool& a, const Pbool& b);
  friend Pbool operator|(const Pbool& a, const Pbool& b);
  friend Pbool operator^(const Pbool& a, const Pbool& b);
  friend Pbool operator==(const Pbool& a, const Pbool& b);
  friend Pbool operator!=(const Pbool& a, const Pbool& b);

  /// The flag as a 0/1 parallel integer.
  [[nodiscard]] Pint to_pint() const;

 private:
  friend class detail_access;

  /// Uncharged shell used by detail_access to wrap bus results.
  explicit Pbool(Context* ctx) : ctx_(ctx) {}

  Context* ctx_;
  // One representation populated, per the machine's ExecBackend.
  std::vector<Flag> data_;
  std::vector<Flag> driven_;
  std::vector<sim::PlaneWord> plane_;
  std::vector<sim::PlaneWord> driven_plane_;
};

/// ROW and COL — the coordinate constants every PPC program can read. One
/// ALU step each, like any declaration loaded from the host; a bit-plane
/// context writes the index planes directly.
[[nodiscard]] Pint row_of(Context& ctx);
[[nodiscard]] Pint col_of(Context& ctx);

/// The per-PE driven flags of a (possibly bus-read) value as a parallel
/// logical — all-true for fully driven values. On hardware this is the
/// bus sense line every PE can test. One ALU step.
[[nodiscard]] Pbool driven_mask(const Pint& value);
[[nodiscard]] Pbool driven_mask(const Pbool& value);

namespace detail {
/// Internal: builds a Pint/Pbool that carries a driven mask from a bus
/// read. Exposed for primitives.cpp only.
Pint make_bus_pint(Context& ctx, std::vector<Word> values, std::vector<Flag> driven);
Pbool make_bus_pbool(Context& ctx, std::vector<Flag> values, std::vector<Flag> driven);
/// BitPlane-backend twins.
Pint make_bus_pint_planes(Context& ctx, std::vector<sim::PlaneWord> planes,
                          std::vector<sim::PlaneWord> driven);
Pbool make_bus_pbool_plane(Context& ctx, std::vector<sim::PlaneWord> plane,
                           std::vector<sim::PlaneWord> driven);
/// The masked store's UndrivenPolicy check on the bit-plane backend: a PE
/// set in `mask` whose `driven` bit is clear consumed a floating bus read
/// (checked execution records it, otherwise the Error policy throws).
/// Empty `driven` = fully driven. For primitives that store in place.
void check_store_driven_plane(Context& ctx, const sim::PlaneWord* mask,
                              std::span<const sim::PlaneWord> driven);
/// Pint::operator='s bit-plane store from raw planes: the check above for
/// `driven` under `mask`, one ALU step, the h `values` planes stored under
/// `mask` in one sweep, and the stored PEs marked driven. With `addend`
/// the stored value is the saturating sum values + addend, computed in the
/// same sweep (its own ALU step is the caller's to charge). For primitives
/// that compute a value in arena planes and store it in place; `values`
/// may be dst's own planes.
void store_planes(Pint& dst, const sim::PlaneWord* mask, const sim::PlaneWord* values,
                  std::span<const sim::PlaneWord> driven,
                  const sim::PlaneWord* addend = nullptr);
/// store_planes of the saturating sum of a one-driver column broadcast and
/// `addend`: the broadcast is the driver row `line` (row_words words per
/// plane) under its driven plane `driven`, read in the same sweep
/// (PlaneKernels::line_add_sat_masked) instead of from p stored rows.
void store_line_sum(Pint& dst, const sim::PlaneWord* mask, const sim::PlaneWord* line,
                    const sim::PlaneWord* driven, const sim::PlaneWord* addend);
}  // namespace detail

}  // namespace ppa::ppc
