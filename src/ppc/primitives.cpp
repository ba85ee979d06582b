#include "ppc/primitives.hpp"

#include <algorithm>
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

}  // namespace

Pint pmin(const Pint& src, sim::Direction orientation, const Pbool& L) {
  require_injectable(src, "pmin");
  require_same(src.context(), L.context());
  Pbool enable(src.context(), true);
  eliminate_non_minima(src, orientation, L, enable, nullptr);
  return route_and_spread(src, orientation, L, enable);
}

Pint selected_min(const Pint& src, sim::Direction orientation, const Pbool& L,
                  const Pbool& selected) {
  require_injectable(src, "selected_min");
  require_same(src.context(), L.context());
  require_same(src.context(), selected.context());
  Pbool enable(selected);
  eliminate_non_minima(src, orientation, L, enable, nullptr);
  return route_and_spread(src, orientation, L, enable);
}

Pint pmin_orprobe(const Pint& src, sim::Direction orientation, const Pbool& L) {
  require_injectable(src, "pmin_orprobe");
  require_same(src.context(), L.context());
  Context& ctx = src.context();
  Pbool enable(ctx, true);
  Pint reconstructed(ctx, 0);
  eliminate_non_minima(src, orientation, L, enable, &reconstructed);
  return reconstructed;
}

Pint selected_min_orprobe(const Pint& src, sim::Direction orientation, const Pbool& L,
                          const Pbool& selected) {
  require_injectable(src, "selected_min_orprobe");
  require_same(src.context(), L.context());
  require_same(src.context(), selected.context());
  Context& ctx = src.context();
  Pbool enable(selected);
  Pint reconstructed(ctx, 0);
  eliminate_non_minima(src, orientation, L, enable, &reconstructed);
  return reconstructed;
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
  const std::size_t n = ctx.n();
  PPA_REQUIRE(rows <= n && min_line.size() >= rows && arg_line.size() >= rows,
              "fused_row_min_argmin: the result lines must hold `rows` <= n entries");
  std::fill_n(min_line.begin(), rows, Word{0});
  std::fill_n(arg_line.begin(), rows, Word{0});
  sim::Machine& machine = ctx.machine();
  // One charge per instruction, so a trace sees the eDSL's event sequence.
  const auto charge = [&machine](int instructions) {
    for (int i = 0; i < instructions; ++i) machine.charge_alu();
  };
  const int h = ctx.field().bits();
  const auto idx_bits = static_cast<int>(index_bits.size());
  const auto index_plane = [&](int j) -> const Pbool& {
    return index_bits[static_cast<std::size_t>(idx_bits - 1 - j)];
  };

  // Each `round` is one elimination round: probe = enable & !bit (its
  // 3 or 2 ALU steps charged by the caller), the OR cycle, result bit j
  // off column 0, then where(some) { enable = probe; } (2 ALU steps).
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    const std::size_t row_words = ctx.geometry().row_words;
    const sim::plane_kernels::PlaneAlu& alu = ctx.alu();
    std::vector<PlaneWord> enable = ctx.acquire_flag_plane();
    std::vector<PlaneWord> probe = ctx.acquire_flag_plane();
    std::vector<PlaneWord> some = ctx.acquire_flag_plane();
    const PlaneWord* ambient = ctx.mask_is_full() ? nullptr : ctx.mask_plane();
    alu.op_copy(ctx.full_plane(), enable.data(), pw);
    charge(1);
    const auto round = [&](const PlaneWord* bit, int j, std::span<Word> out) {
      alu.op_andnot(enable.data(), bit, probe.data(), pw);
      machine.wired_or_plane_into(probe.data(), sim::Direction::West,
                                  row_end.plane_view().data(), some.data());
      for (std::size_t r = 0; r < rows; ++r) {
        out[r] |= static_cast<Word>((some[r * row_words] & 1u) ^ 1u) << j;
      }
      if (ambient != nullptr) alu.op_and(some.data(), ambient, some.data(), pw);
      charge(2);
      alu.masked_assign(some.data(), probe.data(), enable.data(), pw);
    };
    const PlaneWord* planes = value.planes_view().data();
    for (int j = h - 1; j >= 0; --j) {
      charge(3);
      round(planes + static_cast<std::size_t>(j) * pw, j, min_line);
    }
    for (int j = idx_bits - 1; j >= 0; --j) {
      charge(2);
      round(index_plane(j).plane_view().data(), j, arg_line);
    }
    ctx.release_flag_plane(std::move(enable));
    ctx.release_flag_plane(std::move(probe));
    ctx.release_flag_plane(std::move(some));
    return;
  }
  std::vector<Flag> enable = ctx.acquire_flags();
  std::vector<Flag> probe = ctx.acquire_flags();
  std::vector<Flag> some = ctx.acquire_flags();
  std::fill(enable.begin(), enable.end(), Flag{1});
  charge(1);
  // `zero_at(pe)` is 1 where the round's bit is 0.
  const auto round = [&](auto zero_at, int j, std::span<Word> out) {
    const Flag* active = ctx.mask().data();
    const Flag* found = some.data();
    Flag* probing = probe.data();
    Flag* enabled = enable.data();
    machine.for_each_pe([=](std::size_t begin, std::size_t end) {
      for (std::size_t pe = begin; pe < end; ++pe) {
        probing[pe] = static_cast<Flag>(enabled[pe] & zero_at(pe));
      }
    });
    machine.wired_or_into(probe, sim::Direction::West, row_end.values(), some);
    for (std::size_t r = 0; r < rows; ++r) {
      out[r] |= static_cast<Word>(some[r * n] == 0) << j;
    }
    charge(2);
    machine.for_each_pe([=](std::size_t begin, std::size_t end) {
      for (std::size_t pe = begin; pe < end; ++pe) {
        if (active[pe] != 0 && found[pe] != 0) enabled[pe] = probing[pe];
      }
    });
  };
  const Word* words = value.values().data();
  for (int j = h - 1; j >= 0; --j) {
    charge(3);
    round([=](std::size_t pe) { return static_cast<Flag>(((words[pe] >> j) & 1u) ^ 1u); }, j,
          min_line);
  }
  for (int j = idx_bits - 1; j >= 0; --j) {
    const Flag* flags = index_plane(j).values().data();
    charge(2);
    round([=](std::size_t pe) { return static_cast<Flag>(flags[pe] ^ 1u); }, j, arg_line);
  }
  ctx.release_flags(std::move(enable));
  ctx.release_flags(std::move(probe));
  ctx.release_flags(std::move(some));
}

namespace {

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

}  // namespace

Pint pmax(const Pint& src, sim::Direction orientation, const Pbool& L) {
  require_injectable(src, "pmax");
  require_same(src.context(), L.context());
  Pbool enable(src.context(), true);
  eliminate_non_maxima(src, orientation, L, enable, nullptr);
  return route_and_spread(src, orientation, L, enable);
}

Pint selected_max(const Pint& src, sim::Direction orientation, const Pbool& L,
                  const Pbool& selected) {
  require_injectable(src, "selected_max");
  require_same(src.context(), L.context());
  require_same(src.context(), selected.context());
  Pbool enable(selected);
  eliminate_non_maxima(src, orientation, L, enable, nullptr);
  return route_and_spread(src, orientation, L, enable);
}

Pint pmax_orprobe(const Pint& src, sim::Direction orientation, const Pbool& L) {
  require_injectable(src, "pmax_orprobe");
  require_same(src.context(), L.context());
  Context& ctx = src.context();
  Pbool enable(ctx, true);
  Pint reconstructed(ctx, 0);
  eliminate_non_maxima(src, orientation, L, enable, &reconstructed);
  return reconstructed;
}

Pint selected_max_orprobe(const Pint& src, sim::Direction orientation, const Pbool& L,
                          const Pbool& selected) {
  require_injectable(src, "selected_max_orprobe");
  require_same(src.context(), L.context());
  require_same(src.context(), selected.context());
  Context& ctx = src.context();
  Pbool enable(selected);
  Pint reconstructed(ctx, 0);
  eliminate_non_maxima(src, orientation, L, enable, &reconstructed);
  return reconstructed;
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
