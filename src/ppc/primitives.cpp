#include "ppc/primitives.hpp"

#include <algorithm>
#include <array>
#include <cstdint>
#include <optional>
#include <span>
#include <utility>
#include <vector>

#include "util/check.hpp"

namespace ppa::ppc {

using sim::PlaneWord;

namespace {

void require_injectable(const Pint& src, const char* what) {
  PPA_REQUIRE(src.fully_driven(),
              std::string(what) + ": values injected on a bus must be fully driven — store "
                                  "the previous bus result into a variable first");
}

void require_injectable(const Pbool& src, const char* what) {
  PPA_REQUIRE(src.fully_driven(),
              std::string(what) + ": values injected on a bus must be fully driven — store "
                                  "the previous bus result into a variable first");
}

void require_same(const Context& a, const Context& b) {
  PPA_REQUIRE(&a == &b, "operands belong to different machines");
}

}  // namespace

Pint shift(const Pint& src, sim::Direction dir, Word fill) {
  require_injectable(src, "shift");
  Context& ctx = src.context();
  PPA_REQUIRE(ctx.field().representable(fill), "shift fill value does not fit in the field");
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = ctx.acquire_value_planes();
    // Bit j of the scalar fill feeds plane j's edge lanes.
    ctx.machine().shift_planes(src.planes_view().data(), ctx.field().bits(), dir, fill,
                               out.data());
    return detail::make_bus_pint_planes(ctx, std::move(out), {});
  }
  std::vector<Word> out = ctx.acquire_words();
  ctx.machine().shift(src.values(), dir, fill, out);
  return detail::make_bus_pint(ctx, std::move(out), {});
}

Pbool shift(const Pbool& src, sim::Direction dir, bool fill) {
  require_injectable(src, "shift");
  Context& ctx = src.context();
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.machine().shift_planes(src.plane_view().data(), 1, dir, fill ? 1u : 0u,
                               out.data());
    return detail::make_bus_pbool_plane(ctx, std::move(out), {});
  }
  // Route the flags through the word links: a logical is a 1-bit register.
  std::vector<Word> in = ctx.acquire_words();
  const auto sv = src.values();
  for (std::size_t pe = 0; pe < in.size(); ++pe) in[pe] = sv[pe];
  std::vector<Word> out = ctx.acquire_words();
  ctx.machine().shift(in, dir, fill ? 1u : 0u, out);
  std::vector<Flag> bits = ctx.acquire_flags();
  for (std::size_t pe = 0; pe < bits.size(); ++pe) bits[pe] = out[pe] ? Flag{1} : Flag{0};
  ctx.release_words(std::move(in));
  ctx.release_words(std::move(out));
  return detail::make_bus_pbool(ctx, std::move(bits), {});
}

Pint broadcast(const Pint& src, sim::Direction dir, const Pbool& open) {
  require_same(src.context(), open.context());
  Context& ctx = src.context();
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> values = ctx.acquire_value_planes();
    std::vector<PlaneWord> driven = ctx.acquire_flag_plane();
    ctx.machine().broadcast_planes_into(src.planes_view().data(), ctx.field().bits(), dir,
                                        open.plane_view().data(), values.data(),
                                        driven.data());
    if (!src.fully_driven()) {
      // The taint flags ride the same physical cycle (no extra step): a
      // receiver is driven only if its driver's own value was. The shadow
      // cycle sees the same effective switches and dead PEs as the data
      // cycle it rides.
      std::vector<PlaneWord> taint = ctx.acquire_flag_plane();
      std::vector<PlaneWord> taint_driven = ctx.acquire_flag_plane();
      ctx.machine().shadow_broadcast_planes_into(src.driven_plane_view().data(), dir,
                                                 open.plane_view().data(), taint.data(),
                                                 taint_driven.data());
      ctx.alu().op_and(driven.data(), taint.data(), driven.data(), pw);
      ctx.release_flag_plane(std::move(taint));
      ctx.release_flag_plane(std::move(taint_driven));
    }
    if (ctx.alu().equal(driven.data(), ctx.full_plane(), pw)) {
      ctx.release_flag_plane(std::move(driven));
      driven = {};
    }
    return detail::make_bus_pint_planes(ctx, std::move(values), std::move(driven));
  }
  std::vector<Word> values = ctx.acquire_words();
  std::vector<Flag> driven = ctx.acquire_flags();
  ctx.machine().broadcast_into(src.values(), dir, open.values(), values, driven);
  if (!src.fully_driven()) {
    // The taint flags ride the same physical cycle (no extra step): a
    // receiver is driven only if its driver's own value was. The shadow
    // cycle sees the same effective switches and dead PEs as the data
    // cycle it rides.
    std::vector<Flag> taint = ctx.acquire_flags();
    std::vector<Flag> taint_driven = ctx.acquire_flags();
    ctx.machine().shadow_broadcast_into(src.driven_view(), dir, open.values(), taint,
                                        taint_driven);
    for (std::size_t pe = 0; pe < driven.size(); ++pe) {
      driven[pe] = static_cast<Flag>(driven[pe] & (taint[pe] ? 1 : 0));
    }
    ctx.release_flags(std::move(taint));
    ctx.release_flags(std::move(taint_driven));
  }
  const bool all_driven =
      std::all_of(driven.begin(), driven.end(), [](Flag f) { return f != 0; });
  if (all_driven) {
    ctx.release_flags(std::move(driven));
    driven = {};
  }
  return detail::make_bus_pint(ctx, std::move(values), std::move(driven));
}

Pint two_sided_broadcast(const Pint& src, sim::Direction dir, const Pbool& open) {
  const Pint forward = broadcast(src, dir, open);
  const Pint backward = broadcast(src, sim::opposite(dir), open);
  return select(driven_mask(forward), forward, backward);
}

Pbool broadcast(const Pbool& src, sim::Direction dir, const Pbool& open) {
  require_injectable(src, "broadcast");
  require_same(src.context(), open.context());
  Context& ctx = src.context();
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> bits = ctx.acquire_flag_plane();
    std::vector<PlaneWord> driven = ctx.acquire_flag_plane();
    ctx.machine().broadcast_planes_into(src.plane_view().data(), 1, dir,
                                        open.plane_view().data(), bits.data(),
                                        driven.data());
    if (ctx.alu().equal(driven.data(), ctx.full_plane(), pw)) {
      ctx.release_flag_plane(std::move(driven));
      driven = {};
    }
    return detail::make_bus_pbool_plane(ctx, std::move(bits), std::move(driven));
  }
  // Flag-lane cycle: the received bits are the drivers' 0/1 flags verbatim.
  std::vector<Flag> bits = ctx.acquire_flags();
  std::vector<Flag> driven = ctx.acquire_flags();
  ctx.machine().broadcast_into(src.values(), dir, open.values(), bits, driven);
  const bool all_driven =
      std::all_of(driven.begin(), driven.end(), [](Flag f) { return f != 0; });
  if (all_driven) {
    ctx.release_flags(std::move(driven));
    driven = {};
  }
  return detail::make_bus_pbool(ctx, std::move(bits), std::move(driven));
}

Pbool bus_or(const Pbool& src, sim::Direction dir, const Pbool& open) {
  require_injectable(src, "bus_or");
  require_same(src.context(), open.context());
  Context& ctx = src.context();
  if (ctx.bitplane()) {
    // An open-collector read never floats, so the result is fully driven.
    std::vector<PlaneWord> bits = ctx.acquire_flag_plane();
    ctx.machine().wired_or_plane_into(src.plane_view().data(), dir,
                                      open.plane_view().data(), bits.data());
    return detail::make_bus_pbool_plane(ctx, std::move(bits), {});
  }
  // An open-collector read never floats, so the result is fully driven.
  std::vector<Flag> bits = ctx.acquire_flags();
  ctx.machine().wired_or_into(src.values(), dir, open.values(), bits);
  return detail::make_bus_pbool(ctx, std::move(bits), {});
}

bool any(const Pbool& flags) {
  Context& ctx = flags.context();
  if (ctx.bitplane()) return ctx.machine().global_or_plane(flags.plane_view().data());
  return ctx.machine().global_or(flags.values());
}

// ---------------------------------------------------------------------------
// min() / max() on the word backend: the paper's listing (Section 3, second
// listing) as written, one Pbool temporary per operator, one bus_or and one
// where per round, the route under where(L). It is the reference the
// bit-plane core below is held to (tests/ppc_minmax_test.cpp,
// tests/mcp_backend_diff_test.cpp), so it stays as printed.
// ---------------------------------------------------------------------------

namespace {

/// The shared MSB-first elimination loop of min()/selected_min(): after it
/// runs, `enable` is 1 exactly on the PEs holding the minimum src value
/// among the initially enabled PEs of each cluster. Paper listing,
/// statements 8–10. `or_probe` (when non-null) additionally reconstructs
/// the minimum value from the wired-OR results.
void eliminate_non_minima(const Pint& src, sim::Direction orientation, const Pbool& L,
                          Pbool& enable, Pint* or_probe) {
  Context& ctx = src.context();
  const int h = ctx.field().bits();
  const Pbool k_false(ctx, false);
  for (int j = h - 1; j >= 0; --j) {
    const Pbool bit_j = src.bit(j);
    // "if at least one 0 is found, all the values having 1 at that
    // position are excluded from the following comparisons"
    const Pbool some_zero = bus_or((!bit_j) & enable, orientation, L);
    where(ctx, some_zero & bit_j, [&] { enable = k_false; });
    if (or_probe != nullptr) {
      // Bit j of the cluster minimum is 1 iff NO enabled candidate had a 0
      // there. (On an empty candidate set every round reads 0, so the
      // reconstruction yields all ones — the field's infinity.)
      *or_probe = or_probe->or_bit(j, !some_zero);
    }
  }
}

/// Mirror of eliminate_non_minima for the MAXIMUM: a candidate survives
/// round j unless some enabled candidate has a 1 where it has a 0. The
/// probe reconstructs bit j of the maximum as "some enabled candidate has
/// a 1 there" — an empty candidate set yields 0.
void eliminate_non_maxima(const Pint& src, sim::Direction orientation, const Pbool& L,
                          Pbool& enable, Pint* or_probe) {
  Context& ctx = src.context();
  const int h = ctx.field().bits();
  const Pbool k_false(ctx, false);
  for (int j = h - 1; j >= 0; --j) {
    const Pbool bit_j = src.bit(j);
    const Pbool some_one = bus_or(bit_j & enable, orientation, L);
    where(ctx, some_one & !bit_j, [&] { enable = k_false; });
    if (or_probe != nullptr) *or_probe = or_probe->or_bit(j, some_one);
  }
}

/// Statements 11–13: route the surviving minimum to the cluster's extreme
/// node and broadcast it back to the whole cluster.
Pint route_and_spread(const Pint& src, sim::Direction orientation, const Pbool& L,
                      const Pbool& enable) {
  Context& ctx = src.context();
  Pint result(src);
  where(ctx, L, [&] {
    result = broadcast(result, sim::opposite(orientation), enable);
  });
  return broadcast(result, orientation, L);
}

/// The listing behind every min/max primitive on the word backend:
/// `selected` == nullptr starts from every PE, `or_probe` reconstructs the
/// extreme from the OR bits instead of routing it.
Pint listing_extreme(const Pint& src, bool keep_max, sim::Direction orientation,
                     const Pbool& L, const Pbool* selected, bool or_probe) {
  Context& ctx = src.context();
  Pbool enable = selected != nullptr ? Pbool(*selected) : Pbool(ctx, true);
  const auto eliminate = keep_max ? eliminate_non_maxima : eliminate_non_minima;
  if (!or_probe) {
    eliminate(src, orientation, L, enable, nullptr);
    return route_and_spread(src, orientation, L, enable);
  }
  Pint reconstructed(ctx, 0);
  eliminate(src, orientation, L, enable, &reconstructed);
  return reconstructed;
}

/// The sweep engine's row reduction as eDSL statements: per round
/// probe = enable & !bit, one bus_or, the OR line read off column 0, and
/// where(some) { enable = probe; }.
void listing_row_min_argmin(const Pint& value, std::span<const Pbool> index_bits,
                            const Pbool& row_end, std::size_t rows, std::span<Word> min_line,
                            std::span<Word> arg_line) {
  Context& ctx = value.context();
  std::vector<Flag> or_line(ctx.n());
  Pbool enable(ctx, true);
  const auto round = [&](const Pbool& bit_set, int j, std::span<Word> out) {
    const Pbool probe = enable & !bit_set;
    const Pbool some = bus_or(probe, sim::Direction::West, row_end);
    some.read_column(0, or_line);
    for (std::size_t r = 0; r < rows; ++r) out[r] |= static_cast<Word>(or_line[r] ^ 1u) << j;
    where(ctx, some, [&] { enable = probe; });
  };
  for (int j = ctx.field().bits() - 1; j >= 0; --j) round(value.bit(j), j, min_line);
  const auto idx_bits = static_cast<int>(index_bits.size());
  for (int j = idx_bits - 1; j >= 0; --j) {
    round(index_bits[static_cast<std::size_t>(idx_bits - 1 - j)], j, arg_line);
  }
}

// ---------------------------------------------------------------------------
// The bit-plane elimination core: the same rounds in place. Each round is
//
//   probe = enable & ~bit          (enable & bit for the maximum)
//   some  = wired-OR(probe)        one bus cycle
//   enable = (some & ambient) ? probe : enable
//
// which is the listing's where(some & bit) { enable = false; } (its mirror
// for the maximum), with `ambient` the enclosing where-mask. The listing's
// operators are charged one ALU step each, before and after the OR as the
// listing issues them, so the step counters and the trace agree event for
// event.
//
// When the machine plans the cycles for its caller (Machine::plan_cycle: a
// clean row bus whose rows are one segment each), every round runs in one
// PlaneKernels::row_eliminate call, which keeps each row's enable in
// registers and returns each row's OR per round as one word, and the
// Machine charges the listing's steps and cycles from the plan after it.
// A min() then writes its result from those words too when every route is
// known (known_route_and_spread), and the Machine charges the route and
// the spread without resolving them. Otherwise (faults, TMR/ECC, a column
// axis, a row with a second Open switch) each round is an op_andnot, one
// Machine::wired_or_plane_into cycle on the same planes, so faults,
// masking, bus_cycles() and traces see the listing's cycles, and a masked
// store into enable.
// ---------------------------------------------------------------------------

void charge(sim::Machine& machine, int instructions) {
  for (int i = 0; i < instructions; ++i) machine.charge_alu();
}

/// Bit k of `x` moved to bit 63 - k.
std::uint64_t reverse_bits(std::uint64_t x) noexcept {
  x = ((x >> 1) & 0x5555'5555'5555'5555ull) | ((x & 0x5555'5555'5555'5555ull) << 1);
  x = ((x >> 2) & 0x3333'3333'3333'3333ull) | ((x & 0x3333'3333'3333'3333ull) << 2);
  x = ((x >> 4) & 0x0F0F'0F0F'0F0F'0F0Full) | ((x & 0x0F0F'0F0F'0F0F'0F0Full) << 4);
  return __builtin_bswap64(x);
}

class PlaneElimination {
 public:
  /// `initial` == nullptr starts from every PE.
  PlaneElimination(Context& ctx, bool keep_max, sim::Direction orientation,
                   const PlaneWord* open, const PlaneWord* initial)
      : ctx_(ctx),
        keep_max_(keep_max),
        orientation_(orientation),
        open_(open),
        initial_(initial),
        ambient_(ctx.mask_is_full() ? nullptr : ctx.mask_plane()),
        enable_(ctx.acquire_flag_plane()),
        probe_(ctx.acquire_flag_plane()),
        some_(ctx.acquire_flag_plane()) {}

  ~PlaneElimination() {
    ctx_.release_flag_plane(std::move(enable_));
    ctx_.release_flag_plane(std::move(probe_));
    ctx_.release_flag_plane(std::move(some_));
  }

  PlaneElimination(const PlaneElimination&) = delete;
  PlaneElimination& operator=(const PlaneElimination&) = delete;

  /// Runs every round: first one per plane of `value` (`value_rounds`
  /// planes, MSB first), `before_value` ALU steps ahead of each OR, then
  /// one per `index` plane, `before_index` ahead of each; `after` steps
  /// follow each OR. Returns true when the rounds ran in the kernel: then
  /// row_or()[r] bit k is row r's OR in round k. Otherwise `read(k, some)`
  /// saw round k's unmasked OR plane before enable narrowed.
  template <typename Read>
  bool run(const PlaneWord* value, int value_rounds, int before_value,
           std::span<const Pbool> index, int before_index, int after, Read&& read) {
    sim::Machine& machine = ctx_.machine();
    const std::size_t pw = ctx_.geometry().plane_words();
    const int index_rounds = static_cast<int>(index.size());
    const auto plane = [&](int k) {
      return k < value_rounds
                 ? value + static_cast<std::size_t>(value_rounds - 1 - k) * pw
                 : index[static_cast<std::size_t>(k - value_rounds)].plane_view().data();
    };
    const int count = value_rounds + index_rounds;
    const auto plan = count <= kMaxKernelRounds
                          ? machine.plan_cycle(sim::StepCategory::BusOr, orientation_, open_, 1)
                          : std::nullopt;
    if (plan) {
      std::array<const PlaneWord*, kMaxKernelRounds> planes;
      for (int k = 0; k < count; ++k) planes[static_cast<std::size_t>(k)] = plane(k);
      ctx_.alu().row_eliminate(ctx_.geometry(), planes.data(), count, keep_max_, initial_,
                               ambient_, ctx_.full_plane(), enable_.data(), some_.data());
      machine.charge_cycles(*plan, static_cast<std::uint64_t>(value_rounds), before_value, after);
      machine.charge_cycles(*plan, static_cast<std::uint64_t>(index_rounds), before_index, after);
      return true;
    }
    // Pads stay 0, as `!bit & enable` leaves them in the listing.
    const auto& alu = ctx_.alu();
    if (initial_ == nullptr) {
      alu.op_copy(ctx_.full_plane(), enable_.data(), pw);
    } else {
      alu.op_and(initial_, ctx_.full_plane(), enable_.data(), pw);
    }
    for (int k = 0; k < count; ++k) {
      charge(machine, k < value_rounds ? before_value : before_index);
      if (keep_max_) {
        alu.op_and(enable_.data(), plane(k), probe_.data(), pw);
      } else {
        alu.op_andnot(enable_.data(), plane(k), probe_.data(), pw);
      }
      machine.wired_or_plane_into(probe_.data(), orientation_, open_, some_.data());
      charge(machine, after);
      read(k, static_cast<const PlaneWord*>(some_.data()));
      if (ambient_ != nullptr) alu.op_and(some_.data(), ambient_, some_.data(), pw);
      alu.masked_assign(some_.data(), probe_.data(), enable_.data(), pw);
    }
    return false;
  }

  [[nodiscard]] const PlaneWord* enable() const noexcept { return enable_.data(); }
  /// Each row's OR per round, after a run() in the kernel.
  [[nodiscard]] const PlaneWord* row_or() const noexcept { return some_.data(); }
  /// The enclosing where-mask, or nullptr when every PE is active.
  [[nodiscard]] const PlaneWord* ambient() const noexcept { return ambient_; }

 private:
  static constexpr int kMaxKernelRounds = 64;  // one row_or word

  Context& ctx_;
  bool keep_max_;
  sim::Direction orientation_;
  const PlaneWord* open_;
  const PlaneWord* initial_;
  const PlaneWord* ambient_;
  std::vector<PlaneWord> enable_;
  std::vector<PlaneWord> probe_;
  std::vector<PlaneWord> some_;  // the OR plane, or after the kernel the row words
};

/// Statements 11–13 in place: where(L) { r = broadcast(src, opposite,
/// enable); } then broadcast(r, orientation, L). The routed value is the
/// first broadcast under L & ambient and src elsewhere; the taint check is
/// the masked store's.
Pint plane_route_and_spread(const Pint& src, sim::Direction orientation, const Pbool& L,
                            const PlaneWord* enable) {
  Context& ctx = src.context();
  sim::Machine& machine = ctx.machine();
  const auto& alu = ctx.alu();
  const std::size_t pw = ctx.geometry().plane_words();
  const int h = ctx.field().bits();
  const PlaneWord* open = L.plane_view().data();
  std::vector<PlaneWord> stores = ctx.acquire_flag_plane();
  alu.op_and(ctx.mask_plane(), open, stores.data(), pw);
  machine.charge_alu();  // the where(L) push
  std::vector<PlaneWord> routed = ctx.acquire_value_planes();
  std::vector<PlaneWord> driven = ctx.acquire_flag_plane();
  machine.broadcast_planes_into(src.planes_view().data(), h, sim::opposite(orientation), enable,
                                routed.data(), driven.data());
  detail::check_store_driven_plane(ctx, stores.data(), driven);
  machine.charge_alu();  // the masked store
  // routed = stores ? routed : src, as one store of src outside `stores`.
  std::vector<PlaneWord> keep = ctx.acquire_flag_plane();
  alu.op_andnot(ctx.full_plane(), stores.data(), keep.data(), pw);
  alu.masked_assign_planes(keep.data(), src.planes_view().data(), routed.data(), h, pw);
  ctx.release_flag_plane(std::move(keep));
  std::vector<PlaneWord> out = ctx.acquire_value_planes();
  machine.broadcast_planes_into(routed.data(), h, orientation, open, out.data(), driven.data());
  ctx.release_flag_plane(std::move(stores));
  ctx.release_value_planes(std::move(routed));
  if (alu.equal(driven.data(), ctx.full_plane(), pw)) {
    ctx.release_flag_plane(std::move(driven));
    driven = {};
  }
  return detail::make_bus_pint_planes(ctx, std::move(out), std::move(driven));
}

/// Each row's extreme as one word (min() flips it: the round words are
/// its complement) and the lanes the spread drives (empty: every lane), in
/// arena buffers.
struct RowExtremes {
  explicit RowExtremes(Context& context)
      : ctx(context), words(context.acquire_flag_plane()) {}
  ~RowExtremes() {
    ctx.release_flag_plane(std::move(words));
    ctx.release_flag_plane(std::move(driven));
  }
  RowExtremes(const RowExtremes&) = delete;
  RowExtremes& operator=(const RowExtremes&) = delete;

  Context& ctx;
  std::vector<PlaneWord> words;
  std::vector<PlaneWord> driven;
  PlaneWord flip = 0;
};

/// Statements 11–13 from the row words, when the elimination ran in the
/// kernel (so every row opens L at its anchor lane, the flow head, or
/// nowhere) and each route's outcome is known without resolving it. A row
/// whose anchor stores (is in L & ambient) routes its survivors' common
/// value, the row's extreme: it needs a survivor, an ambient mask over the
/// whole row (else an unmasked survivor may hold another value), and on a
/// linear bus a survivor upstream of the anchor. A row whose anchor is in
/// L only keeps src there. The spread then drives that value over the
/// row, the anchor included on a ring only; a row without an anchor
/// floats. Returns false, and charges nothing, when some storing row's
/// route must be resolved. The route and the spread are charged from their
/// plans, which a machine that planned the elimination always gives.
bool known_route_and_spread(const Pint& src, bool keep_max, sim::Direction orientation,
                            const Pbool& L, const PlaneElimination& core, RowExtremes& out) {
  Context& ctx = src.context();
  const sim::PlaneGeometry& g = ctx.geometry();
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  const int h = ctx.field().bits();
  const bool west = orientation == sim::Direction::West;
  const std::size_t head_w = west ? rw - 1 : 0;
  const PlaneWord head = PlaneWord{1} << (west ? sim::PlaneGeometry::bit_of(n - 1) : 0u);
  // The head word's lanes a route may drive the anchor from, and the
  // spread drives: a linear bus leaves the anchor itself out.
  const bool ring = ctx.machine().config().topology == sim::BusTopology::Ring;
  const PlaneWord reach = ring ? ~PlaneWord{0} : ~head;
  const PlaneWord* open = L.plane_view().data();
  const PlaneWord* enable = core.enable();
  const PlaneWord* ambient = core.ambient();
  const PlaneWord* full = ctx.full_plane();
  const PlaneWord* values = src.planes_view().data();
  // Each row's extreme as its round words, or src at an anchor that does
  // not store, written the same way.
  std::vector<PlaneWord>& words = out.words;
  std::copy_n(core.row_or(), n, words.begin());
  std::size_t anchored = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const std::size_t base = r * rw;
    const std::size_t at = base + head_w;
    if ((open[at] & head) == 0) continue;
    ++anchored;
    if (ambient != nullptr && (ambient[at] & head) == 0) {
      PlaneWord word = 0;
      for (int j = 0; j < h; ++j) {
        const PlaneWord bit = values[static_cast<std::size_t>(j) * pw + at] & head;
        word |= static_cast<PlaneWord>(bit != 0) << (h - 1 - j);
      }
      words[r] = keep_max ? word : ~word;
      continue;
    }
    PlaneWord upstream = 0;
    PlaneWord unmasked = 0;
    for (std::size_t w = 0; w < rw; ++w) {
      upstream |= enable[base + w] & (w == head_w ? reach : ~PlaneWord{0});
      if (ambient != nullptr) unmasked |= full[base + w] & ~ambient[base + w];
    }
    if (upstream == 0 || unmasked != 0) return false;
  }
  out.flip = keep_max ? 0 : ~PlaneWord{0};
  if (!ring || anchored < n) {
    out.driven = ctx.acquire_flag_plane();
    for (std::size_t base = 0; base < pw; base += rw) {
      const bool anchor = (open[base + head_w] & head) != 0;
      for (std::size_t w = 0; w < rw; ++w) {
        out.driven[base + w] =
            anchor ? full[base + w] & (w == head_w ? reach : ~PlaneWord{0}) : 0;
      }
    }
  }
  sim::Machine& machine = ctx.machine();
  const auto route =
      machine.plan_cycle(sim::StepCategory::BusBroadcast, sim::opposite(orientation), enable, h);
  const auto spread = machine.plan_cycle(sim::StepCategory::BusBroadcast, orientation, open, h);
  PPA_ASSERT(route && spread, "a clean machine plans every row broadcast");
  // Each after its ALU step: the where(L) push, then the masked store.
  machine.charge_cycles(*route, 1, 1);
  machine.charge_cycles(*spread, 1, 1);
  return true;
}

/// The prologue and per-round charges of a min/max listing (the bit-plane
/// arm charges them in listing_extreme's order).
struct ListingCharges {
  int before = 0;  // ALU steps ahead of each round's OR
  int after = 0;   // and after it
};

/// Charges the prologue of `listing_extreme` — `Pbool enable(ctx, true)`
/// (a copy of `selected` is free), `Pint reconstructed(ctx, 0)`, the
/// loop's `k_false` — and returns its per-round charges: bit(j), !, &
/// before the OR (the maximum skips the !); after it the where's condition
/// (& — the maximum adds a !), its push and the store into enable, then
/// for the OR probe the ! (minimum only), or_bit and the store into the
/// reconstruction. A tainted `selected` is rejected as the listing's first
/// bus_or rejects the probe.
ListingCharges charge_listing_prologue(sim::Machine& machine, bool keep_max,
                                       const Pbool* selected, bool or_probe) {
  charge(machine, (selected == nullptr ? 1 : 0) + (or_probe ? 1 : 0) + 1);
  const ListingCharges per_round{keep_max ? 2 : 3,
                                 (keep_max ? 4 : 3) + (or_probe ? (keep_max ? 2 : 3) : 0)};
  if (selected != nullptr && !selected->fully_driven()) {
    charge(machine, per_round.before);
    require_injectable(*selected, "bus_or");
  }
  return per_round;
}

/// `dst = extreme(src, ...)` with statements 11–13 (no OR probe) run on
/// `core`, stored under the ambient mask: when the rounds ran in the kernel
/// and every route is known, the row words are written into dst in place,
/// with the store's check and charge (`known` keeps them and returns true);
/// otherwise the routed result is resolved and stored.
bool plane_extreme_into(Pint& dst, const Pint& src, bool keep_max, sim::Direction orientation,
                        const Pbool& L, PlaneElimination& core, ListingCharges per_round,
                        RowExtremes& known) {
  if (core.run(src.planes_view().data(), src.context().field().bits(), per_round.before, {}, 0,
               per_round.after, [](int, const PlaneWord*) {}) &&
      known_route_and_spread(src, keep_max, orientation, L, core, known)) {
    detail::store_row_words(dst, core.ambient(), known.words.data(), known.flip, known.driven);
    return true;
  }
  dst = plane_route_and_spread(src, orientation, L, core.enable());
  return false;
}

/// The bit-plane arm of every min/max primitive, charged as
/// listing_extreme issues it.
Pint plane_extreme(const Pint& src, bool keep_max, sim::Direction orientation, const Pbool& L,
                   const Pbool* selected, bool or_probe) {
  Context& ctx = src.context();
  const ListingCharges per_round =
      charge_listing_prologue(ctx.machine(), keep_max, selected, or_probe);
  PlaneElimination core(ctx, keep_max, orientation, L.plane_view().data(),
                        selected != nullptr ? selected->plane_view().data() : nullptr);
  const std::size_t pw = ctx.geometry().plane_words();
  const int h = ctx.field().bits();
  const PlaneWord* planes = src.planes_view().data();
  if (!or_probe) {
    if (core.run(planes, h, per_round.before, {}, 0, per_round.after,
                 [](int, const PlaneWord*) {})) {
      RowExtremes known(ctx);
      if (known_route_and_spread(src, keep_max, orientation, L, core, known)) {
        std::vector<PlaneWord> out = ctx.acquire_value_planes();
        ctx.alu().row_word_fill(ctx.geometry(), known.words.data(), known.flip, h,
                                known.driven.empty() ? ctx.full_plane() : known.driven.data(),
                                nullptr, out.data());
        return detail::make_bus_pint_planes(ctx, std::move(out), std::move(known.driven));
      }
    }
    return plane_route_and_spread(src, orientation, L, core.enable());
  }
  // Bit j of the extreme is "no enabled 0" (minimum) or "some enabled 1"
  // (maximum), stored under the ambient mask; outside it the
  // reconstruction keeps its initial 0. Each plane is written once.
  const PlaneWord* stored = core.ambient() != nullptr ? core.ambient() : ctx.full_plane();
  std::vector<PlaneWord> out = ctx.acquire_value_planes();
  const auto bit_out = [&](int k) {
    return out.data() + static_cast<std::size_t>(h - 1 - k) * pw;
  };
  const bool in_kernel = core.run(
      planes, h, per_round.before, {}, 0, per_round.after, [&](int k, const PlaneWord* some) {
        if (keep_max) {
          ctx.alu().op_and(some, stored, bit_out(k), pw);
        } else {
          ctx.alu().op_andnot(stored, some, bit_out(k), pw);
        }
      });
  if (in_kernel) {
    // A row's OR is the same on all its lanes: its words of plane j are
    // `stored` or 0 by bit h-1-j of the row's OR word.
    ctx.alu().row_word_fill(ctx.geometry(), core.row_or(), keep_max ? 0 : ~PlaneWord{0}, h,
                            stored, nullptr, out.data());
  }
  return detail::make_bus_pint_planes(ctx, std::move(out), {});
}

/// `min_out == src` once min_out = pmin(src, orientation, L) was stored
/// from the row words `known` of the elimination `core`, on fully driven
/// operands. Every PE of a row inside the ambient mask that the spread
/// drives holds the row minimum, so there the compare is the elimination's
/// survivors; every other word is compared (a row the mask leaves out, an
/// undriven anchor). Charged as the listing's ==.
Pbool survivors_equal(const Pint& min_out, const Pint& src, const PlaneElimination& core,
                      const RowExtremes& known) {
  Context& ctx = src.context();
  const std::size_t rw = ctx.geometry().row_words;
  const std::size_t pw = ctx.geometry().plane_words();
  const int h = ctx.field().bits();
  const PlaneWord* full = ctx.full_plane();
  const PlaneWord* a = min_out.planes_view().data();
  const PlaneWord* b = src.planes_view().data();
  const auto& alu = ctx.alu();
  std::vector<PlaneWord> eq = ctx.acquire_flag_plane();
  alu.op_copy(core.enable(), eq.data(), pw);
  // The lanes outside the mask and those the spread leaves undriven; a row
  // holding one is compared.
  std::vector<PlaneWord> odd = ctx.acquire_flag_plane();
  if (core.ambient() != nullptr) {
    alu.op_andnot(full, core.ambient(), odd.data(), pw);
  } else {
    alu.op_zero(odd.data(), pw);
  }
  if (!known.driven.empty()) {
    for (std::size_t i = 0; i < pw; ++i) odd[i] |= full[i] & ~known.driven[i];
  }
  for (std::size_t base = 0; base < pw; base += rw) {
    PlaneWord any = 0;
    for (std::size_t w = base; w < base + rw; ++w) any |= odd[w];
    if (any == 0) continue;
    for (std::size_t i = base; i < base + rw; ++i) {
      PlaneWord differ = 0;
      for (int j = 0; j < h; ++j) {
        differ |= a[static_cast<std::size_t>(j) * pw + i] ^ b[static_cast<std::size_t>(j) * pw + i];
      }
      eq[i] = full[i] & ~differ;
    }
  }
  ctx.release_flag_plane(std::move(odd));
  ctx.machine().charge_alu();
  return detail::make_bus_pbool_plane(ctx, std::move(eq), {});
}

/// The bit-plane arm of min_argmin: pmin's rounds stored into min_out, the
/// selection, then selected_min's rounds stored into arg_out.
void plane_min_argmin(Pint& min_out, Pint& arg_out, const Pint& src, const Pint& index,
                      sim::Direction orientation, const Pbool& L) {
  Context& ctx = src.context();
  const PlaneWord* open = L.plane_view().data();
  std::optional<Pbool> selected;
  {
    const ListingCharges per_round = charge_listing_prologue(ctx.machine(), false, nullptr, false);
    PlaneElimination core(ctx, false, orientation, open, nullptr);
    RowExtremes known(ctx);
    if (plane_extreme_into(min_out, src, false, orientation, L, core, per_round, known) &&
        &min_out != &src && min_out.fully_driven() && src.fully_driven()) {
      selected.emplace(survivors_equal(min_out, src, core, known));
    }
  }
  if (!selected) selected.emplace(min_out == src);
  require_injectable(index, "selected_min");
  const ListingCharges per_round =
      charge_listing_prologue(ctx.machine(), false, &*selected, false);
  PlaneElimination core(ctx, false, orientation, open, selected->plane_view().data());
  RowExtremes known(ctx);
  plane_extreme_into(arg_out, index, false, orientation, L, core, per_round, known);
}

/// Shared entry checks and backend dispatch of the min/max primitives.
Pint extreme(const char* what, const Pint& src, bool keep_max, sim::Direction orientation,
             const Pbool& L, const Pbool* selected, bool or_probe) {
  require_injectable(src, what);
  require_same(src.context(), L.context());
  if (selected != nullptr) require_same(src.context(), selected->context());
  if (src.context().bitplane()) {
    return plane_extreme(src, keep_max, orientation, L, selected, or_probe);
  }
  return listing_extreme(src, keep_max, orientation, L, selected, or_probe);
}

}  // namespace

Pint pmin(const Pint& src, sim::Direction orientation, const Pbool& L) {
  return extreme("pmin", src, false, orientation, L, nullptr, false);
}

Pint selected_min(const Pint& src, sim::Direction orientation, const Pbool& L,
                  const Pbool& selected) {
  return extreme("selected_min", src, false, orientation, L, &selected, false);
}

Pint pmin_orprobe(const Pint& src, sim::Direction orientation, const Pbool& L) {
  return extreme("pmin_orprobe", src, false, orientation, L, nullptr, true);
}

Pint selected_min_orprobe(const Pint& src, sim::Direction orientation, const Pbool& L,
                          const Pbool& selected) {
  return extreme("selected_min_orprobe", src, false, orientation, L, &selected, true);
}

Pint pmax(const Pint& src, sim::Direction orientation, const Pbool& L) {
  return extreme("pmax", src, true, orientation, L, nullptr, false);
}

Pint selected_max(const Pint& src, sim::Direction orientation, const Pbool& L,
                  const Pbool& selected) {
  return extreme("selected_max", src, true, orientation, L, &selected, false);
}

Pint pmax_orprobe(const Pint& src, sim::Direction orientation, const Pbool& L) {
  return extreme("pmax_orprobe", src, true, orientation, L, nullptr, true);
}

Pint selected_max_orprobe(const Pint& src, sim::Direction orientation, const Pbool& L,
                          const Pbool& selected) {
  return extreme("selected_max_orprobe", src, true, orientation, L, &selected, true);
}

void min_argmin(Pint& min_out, Pint& arg_out, const Pint& src, const Pint& index,
                sim::Direction orientation, const Pbool& L) {
  Context& ctx = src.context();
  for (const Context* other : {&min_out.context(), &arg_out.context(), &index.context(),
                               &L.context()}) {
    require_same(ctx, *other);
  }
  if (!ctx.bitplane()) {
    min_out = pmin(src, orientation, L);
    arg_out = selected_min(index, orientation, L, min_out == src);
    return;
  }
  require_injectable(src, "pmin");
  plane_min_argmin(min_out, arg_out, src, index, orientation, L);
}

void fused_row_min_argmin(const Pint& value, std::span<const Pbool> index_bits,
                          const Pbool& row_end, std::size_t rows, std::span<Word> min_line,
                          std::span<Word> arg_line) {
  Context& ctx = value.context();
  require_same(ctx, row_end.context());
  require_injectable(value, "fused_row_min_argmin");
  for (const Pbool& bit : index_bits) {
    require_same(ctx, bit.context());
    require_injectable(bit, "fused_row_min_argmin");
  }
  PPA_REQUIRE(rows <= ctx.n() && min_line.size() >= rows && arg_line.size() >= rows,
              "fused_row_min_argmin: the result lines must hold `rows` <= n entries");
  std::fill_n(min_line.begin(), rows, Word{0});
  std::fill_n(arg_line.begin(), rows, Word{0});
  if (!ctx.bitplane()) {
    listing_row_min_argmin(value, index_bits, row_end, rows, min_line, arg_line);
    return;
  }
  // The listing's rounds on the core: `Pbool enable(ctx, true)`, then per
  // value round bit(j), !, & | OR | push, store, and per index round
  // !, & | OR | push, store. Result bit j is 1 where the row's OR,
  // read off column 0, found no surviving 0.
  charge(ctx.machine(), 1);
  PlaneElimination core(ctx, false, sim::Direction::West, row_end.plane_view().data(),
                        nullptr);
  const std::size_t row_words = ctx.geometry().row_words;
  const int h = ctx.field().bits();
  const auto idx_bits = static_cast<int>(index_bits.size());
  const bool in_kernel = core.run(
      value.planes_view().data(), h, 3, index_bits, 2, 2, [&](int k, const PlaneWord* some) {
        const bool value_round = k < h;
        const int j = value_round ? h - 1 - k : h + idx_bits - 1 - k;
        std::span<Word> out = value_round ? min_line : arg_line;
        for (std::size_t r = 0; r < rows; ++r) {
          out[r] |= static_cast<Word>((some[r * row_words] & 1u) ^ 1u) << j;
        }
      });
  if (!in_kernel) return;
  // Round k's bit lands on bit h-1-k of the minimum and on bit
  // h+idx_bits-1-k of the argmin: the complemented OR word, reversed.
  const PlaneWord* row_or = core.row_or();
  const PlaneWord arg_mask = (PlaneWord{1} << idx_bits) - 1;
  for (std::size_t r = 0; r < rows; ++r) {
    const std::uint64_t bits = reverse_bits(~row_or[r]);
    min_line[r] = static_cast<Word>(bits >> (64 - h));
    arg_line[r] = static_cast<Word>((bits >> (64 - h - idx_bits)) & arg_mask);
  }
}

// ---------------------------------------------------------------------------
// Statement 10 and statements 15–18. The word backend runs the eDSL
// statements; the bit-plane backend computes each value in arena planes
// and stores it in place, issuing the statements' Machine calls on the
// same planes and charging each where-push, operator and store where the
// statements do.
// ---------------------------------------------------------------------------

namespace {

Pint scheme_broadcast(const Pint& src, sim::Direction dir, const Pbool& open, bool two_sided) {
  return two_sided ? two_sided_broadcast(src, dir, open) : broadcast(src, dir, open);
}

/// The value planes and driven plane of one bus read, in arena buffers.
struct PlaneRead {
  explicit PlaneRead(Context& context)
      : ctx(context),
        values(context.acquire_value_planes()),
        driven(context.acquire_flag_plane()) {}
  ~PlaneRead() {
    ctx.release_value_planes(std::move(values));
    ctx.release_flag_plane(std::move(driven));
  }
  PlaneRead(const PlaneRead&) = delete;
  PlaneRead& operator=(const PlaneRead&) = delete;

  Context& ctx;
  std::vector<PlaneWord> values;
  std::vector<PlaneWord> driven;
};

/// broadcast(src, dir, open) into `out`: one cycle, with a tainted src's
/// driven flags riding it on a shadow cycle, as broadcast() does.
void plane_broadcast(const Pint& src, sim::Direction dir, const PlaneWord* open, PlaneRead& out) {
  Context& ctx = src.context();
  ctx.machine().broadcast_planes_into(src.planes_view().data(), ctx.field().bits(), dir, open,
                                      out.values.data(), out.driven.data());
  if (src.fully_driven()) return;
  PlaneRead taint(ctx);
  ctx.machine().shadow_broadcast_planes_into(src.driven_plane_view().data(), dir, open,
                                             taint.values.data(), taint.driven.data());
  ctx.alu().op_and(out.driven.data(), taint.values.data(), out.driven.data(),
                   ctx.geometry().plane_words());
}

/// The column broadcast of `src` from `open`, or its two-sided pair: the
/// backward read fills the PEs the forward one left undriven, charged as
/// two_sided_broadcast's driven_mask and select.
void plane_scheme_broadcast(const Pint& src, const PlaneWord* open, bool two_sided,
                            PlaneRead& out) {
  plane_broadcast(src, sim::Direction::South, open, out);
  if (!two_sided) return;
  Context& ctx = src.context();
  PlaneRead backward(ctx);
  plane_broadcast(src, sim::Direction::North, open, backward);
  charge(ctx.machine(), 2);
  const std::size_t pw = ctx.geometry().plane_words();
  ctx.alu().masked_assign_planes(out.driven.data(), out.values.data(), backward.values.data(),
                                 ctx.field().bits(), pw);
  ctx.alu().op_or(out.driven.data(), backward.driven.data(), backward.driven.data(), pw);
  std::swap(out.values, backward.values);
  std::swap(out.driven, backward.driven);
}

/// `mask` = `ambient` & `cond`: a where-push on the bit-plane backend.
void plane_push(Context& ctx, const PlaneWord* ambient, const Pbool& cond, PlaneWord* mask) {
  ctx.alu().op_and(ambient, cond.plane_view().data(), mask, ctx.geometry().plane_words());
  ctx.machine().charge_alu();
}

/// The driven flags of a sum: `a` & `b`, a missing plane counting as full.
std::span<const PlaneWord> sum_driven(Context& ctx, const Pint& a, const Pint& b,
                                      std::vector<PlaneWord>& scratch) {
  if (a.fully_driven()) return b.driven_plane_view();
  if (b.fully_driven()) return a.driven_plane_view();
  ctx.alu().op_and(a.driven_plane_view().data(), b.driven_plane_view().data(), scratch.data(),
                   ctx.geometry().plane_words());
  return scratch;
}

/// Statement 10 from the carrier's driver row, when the machine planned the
/// column broadcast for its caller (`driven` is the cycle's driven plane and
/// `line` its driver row): the listing's charges after the broadcast around
/// one line_add_sat_masked pass. With `receivers` the carrier's local add
/// joins that pass: each carrier lane is its column's one driver, so it
/// reads its own SOW off the line, and the receivers' stores (`stores`)
/// miss every carrier lane, so no PE adds twice and the merged store finds
/// the same undriven PEs as the receivers' store alone.
void line_broadcast_add(Pint& sow, const Pint& addend, const PlaneWord* carrier,
                        const Pbool* receivers, PlaneWord* stores, const PlaneWord* line,
                        const PlaneWord* driven, PlaneWord* scratch) {
  Context& ctx = sow.context();
  const auto& alu = ctx.alu();
  const std::size_t pw = ctx.geometry().plane_words();
  const PlaneWord* ambient = ctx.mask_plane();
  if (receivers != nullptr) {
    alu.op_or(receivers->plane_view().data(), carrier, stores, pw);
    alu.op_and(stores, ambient, stores, pw);
    alu.op_or(driven, carrier, scratch, pw);
    driven = scratch;
  }
  ctx.machine().charge_alu();  // + addend
  detail::store_line_sum(sow, receivers != nullptr ? stores : ambient, line, driven,
                         addend.planes_view().data());
  // where(carrier), sow + addend and its store.
  if (receivers != nullptr) charge(ctx.machine(), 3);
}

void plane_broadcast_add(Pint& sow, const Pint& addend, const Pbool& carrier, bool two_sided,
                         const Pbool* receivers) {
  Context& ctx = sow.context();
  const auto& alu = ctx.alu();
  const std::size_t pw = ctx.geometry().plane_words();
  const PlaneWord* ambient = ctx.mask_plane();
  const PlaneWord* open = carrier.plane_view().data();
  std::vector<PlaneWord> pushed;
  if (receivers != nullptr) {
    pushed = ctx.acquire_flag_plane();
    plane_push(ctx, ambient, *receivers, pushed.data());
  }
  const PlaneWord* stores = receivers != nullptr ? pushed.data() : ambient;
  PlaneRead read(ctx);
  // A one-sided broadcast of driven values may leave the machine to read
  // the driver row alone; with receivers that needs stores that miss the
  // carrier (read.driven serves as scratch until the cycle writes it).
  bool line = !two_sided && sow.fully_driven() && addend.fully_driven();
  if (line && receivers != nullptr) {
    alu.op_and(stores, open, read.driven.data(), pw);
    line = alu.all_zero(read.driven.data(), pw);
  }
  const int h = ctx.field().bits();
  const auto plan = line ? ctx.machine().plan_cycle(sim::StepCategory::BusBroadcast,
                                                     sim::Direction::South, open, h)
                         : std::nullopt;
  if (plan) {
    PlaneWord* row = read.values.data();
    sim::column_driver_row(ctx.geometry(), sow.planes_view().data(), h, open, plan->column, row);
    ctx.machine().charge_cycles(*plan);
    line_broadcast_add(sow, addend, open, receivers, pushed.data(), row, plan->column.driven,
                       read.driven.data());
    ctx.release_flag_plane(std::move(pushed));
    return;
  }
  plane_scheme_broadcast(sow, open, two_sided, read);
  // Each `+` is fused into the store that follows it.
  ctx.machine().charge_alu();  // + addend
  if (!addend.fully_driven()) {
    alu.op_and(read.driven.data(), addend.driven_plane_view().data(), read.driven.data(), pw);
  }
  detail::store_planes(sow, stores, read.values.data(), read.driven,
                       addend.planes_view().data());
  if (receivers == nullptr) return;
  // The carrier's local add: its SOW is still resident.
  plane_push(ctx, ambient, carrier, pushed.data());
  ctx.machine().charge_alu();  // sow + addend
  detail::store_planes(sow, pushed.data(), sow.planes_view().data(),
                       sum_driven(ctx, sow, addend, read.driven), addend.planes_view().data());
  ctx.release_flag_plane(std::move(pushed));
}

/// The words [begin, end) of each plane holding every lane of `mask`
/// (begin == end: none).
std::pair<std::size_t, std::size_t> reached_words(const PlaneWord* mask, std::size_t pw) {
  std::size_t begin = 0;
  while (begin < pw && mask[begin] == 0) ++begin;
  std::size_t end = pw;
  while (end > begin && mask[end - 1] == 0) --end;
  return {begin, end};
}

/// A pullback broadcast: the column broadcast of `src` from `open` as a
/// store under `mask`, which lies in the words [begin, end), reads it.
/// When `plannable` (one-sided, untainted operands) and the machine plans
/// the cycle (a clean machine, one driver per column line), it is charged
/// from its plan and only those words of `out.values` are filled, from the
/// driver row (none when `mask` is empty); otherwise it is resolved. Each
/// call meets the plan cache once, as a resolved broadcast does. Returns
/// the driven plane the store checks, valid until the next bus cycle.
std::span<const PlaneWord> pull(const Pint& src, const PlaneWord* open, bool two_sided,
                                bool plannable, const PlaneWord* mask, std::size_t begin,
                                std::size_t end, PlaneRead& out) {
  Context& ctx = src.context();
  const int h = ctx.field().bits();
  const auto plan = plannable ? ctx.machine().plan_cycle(sim::StepCategory::BusBroadcast,
                                                         sim::Direction::South, open, h)
                              : std::nullopt;
  if (!plan) {
    plane_scheme_broadcast(src, open, two_sided, out);
    return out.driven;
  }
  const sim::PlaneGeometry& g = ctx.geometry();
  ctx.machine().charge_cycles(*plan);
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  const PlaneWord* driven = plan->column.driven;
  if (std::all_of(mask + begin, mask + end, [](PlaneWord m) { return m == 0; })) {
    return {driven, pw};
  }
  std::vector<PlaneWord> row = ctx.acquire_value_planes();
  sim::column_driver_row(g, src.planes_view().data(), h, open, plan->column, row.data());
  for (int j = 0; j < h; ++j) {
    const PlaneWord* rp = row.data() + static_cast<std::size_t>(j) * rw;
    PlaneWord* vp = out.values.data() + static_cast<std::size_t>(j) * pw;
    for (std::size_t i = begin; i < end; ++i) vp[i] = rp[i % rw] & driven[i];
  }
  ctx.release_value_planes(std::move(row));
  return {driven, pw};
}

Pbool plane_pullback(Pint& sow, Pint& old_sow, Pint& ptn, const Pint& min_sow, const Pbool& row,
                     const Pbool& diagonal, bool two_sided) {
  Context& ctx = sow.context();
  sim::Machine& machine = ctx.machine();
  const std::size_t pw = ctx.geometry().plane_words();
  const int h = ctx.field().bits();
  const PlaneWord* open = diagonal.plane_view().data();
  // `Pbool changed(ctx, false)`, where(row), !diagonal and its where:
  // `stores` = ambient & row & !diagonal, which reaches `row`'s rows only:
  // pull fills the words [begin, end), and the stores and the compare skip
  // the word blocks `stores` leaves empty.
  std::vector<PlaneWord> changed = ctx.acquire_flag_plane();
  machine.charge_alu();
  std::vector<PlaneWord> stores = ctx.acquire_flag_plane();
  plane_push(ctx, ctx.mask_plane(), row, stores.data());
  charge(machine, 2);
  ctx.alu().op_andnot(stores.data(), open, stores.data(), pw);
  const auto [begin, end] = reached_words(stores.data(), pw);
  detail::store_planes(old_sow, stores.data(), sow.planes_view().data(),
                       sow.driven_plane_view());
  // Both broadcasts are planned or both resolved: a tainted operand rides
  // a shadow cycle.
  const bool plannable = !two_sided && min_sow.fully_driven() && ptn.fully_driven();
  PlaneRead pulled(ctx);
  std::span<const PlaneWord> driven =
      pull(min_sow, open, two_sided, plannable, stores.data(), begin, end, pulled);
  // Under `stores` old_sow holds the old sow, so changed = stores & (pulled
  // != sow) before the store, and both sides of the compare are driven
  // there once stored: the changed store never meets an undriven value.
  ctx.alu().compare_ne_masked(pulled.values.data(), sow.planes_view().data(), h, pw,
                              stores.data(), changed.data());
  detail::store_planes(sow, stores.data(), pulled.values.data(), driven);
  charge(machine, 3);  // !=, the store into changed, where(changed)
  driven = pull(ptn, open, two_sided, plannable, changed.data(), begin, end, pulled);
  detail::store_planes(ptn, changed.data(), pulled.values.data(), driven);
  ctx.release_flag_plane(std::move(stores));
  return detail::make_bus_pbool_plane(ctx, std::move(changed), {});
}

}  // namespace

void broadcast_add(Pint& sow, const Pint& addend, const Pbool& carrier, bool two_sided,
                   const Pbool* receivers) {
  Context& ctx = sow.context();
  require_same(ctx, addend.context());
  require_same(ctx, carrier.context());
  if (receivers != nullptr) require_same(ctx, receivers->context());
  if (ctx.bitplane()) {
    plane_broadcast_add(sow, addend, carrier, two_sided, receivers);
    return;
  }
  if (receivers == nullptr) {
    sow = scheme_broadcast(sow, sim::Direction::South, carrier, two_sided) + addend;
    return;
  }
  where(ctx, *receivers, [&] {
    sow = scheme_broadcast(sow, sim::Direction::South, carrier, two_sided) + addend;
  });
  where(ctx, carrier, [&] { sow = sow + addend; });
}

Pbool pullback(Pint& sow, Pint& old_sow, Pint& ptn, const Pint& min_sow, const Pbool& row,
               const Pbool& diagonal, bool two_sided) {
  Context& ctx = sow.context();
  for (const Context* other : {&old_sow.context(), &ptn.context(), &min_sow.context(),
                               &row.context(), &diagonal.context()}) {
    require_same(ctx, *other);
  }
  if (ctx.bitplane()) {
    return plane_pullback(sow, old_sow, ptn, min_sow, row, diagonal, two_sided);
  }
  Pbool changed(ctx, false);
  where(ctx, row, [&] {
    where(ctx, !diagonal, [&] {
      old_sow = sow;
      sow = scheme_broadcast(min_sow, sim::Direction::South, diagonal, two_sided);
      changed = (sow != old_sow);
      where(ctx, changed,
            [&] { ptn = scheme_broadcast(ptn, sim::Direction::South, diagonal, two_sided); });
    });
  });
  return changed;
}

Pbool has_upstream(const Pbool& flags, sim::Direction dir) {
  Context& ctx = flags.context();
  PPA_REQUIRE(ctx.machine().config().topology == sim::BusTopology::Linear,
              "has_upstream needs a Linear machine (on a Ring every PE has upstream flags "
              "whenever the line has any)");
  // Flagged PEs open their switch and drive; a PE reads a driven line iff
  // some flag lies strictly upstream. The broadcast payload is irrelevant.
  const Pint probe = broadcast(Pint(ctx, 1), dir, flags);
  const Pbool driven = driven_mask(probe);
  return driven;
}

Pbool first_in_line(const Pbool& flags, sim::Direction dir) {
  return flags & !has_upstream(flags, dir);
}

Pint nearest_upstream(const Pint& payload, const Pbool& flags, sim::Direction dir) {
  return broadcast(payload, dir, flags);
}

}  // namespace ppa::ppc
