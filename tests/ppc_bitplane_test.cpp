// Backend equivalence at the eDSL level: every program here runs twice,
// once on the word backend and once on the bit-plane backend, and must
// produce bit-identical observable state AND an identical StepCounter
// (the counters compare componentwise, including the per-bus-cycle
// max_segment log, so even the charging order must agree).
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "ppc/parallel.hpp"
#include "ppc/primitives.hpp"
#include "ppc/where.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ppa::ppc {
namespace {

using sim::Direction;
using sim::Word;

/// Flattens a Pint into per-PE host words via at() (backend-independent).
std::vector<Word> dump(const Pint& v) {
  const std::size_t count = v.context().machine().pe_count();
  std::vector<Word> out(count);
  for (std::size_t pe = 0; pe < count; ++pe) out[pe] = v.at(pe);
  return out;
}

std::vector<Word> dump(const Pbool& v) {
  const std::size_t count = v.context().machine().pe_count();
  std::vector<Word> out(count);
  for (std::size_t pe = 0; pe < count; ++pe) out[pe] = v.at(pe) ? 1 : 0;
  return out;
}

/// Runs `program` under both backends on otherwise identical machines and
/// compares the returned observations and the full step counters.
template <typename Program>
void expect_backends_agree(sim::MachineConfig cfg, Program&& program, const char* label) {
  cfg.backend = sim::ExecBackend::Words;
  sim::Machine word_machine(cfg);
  cfg.backend = sim::ExecBackend::BitPlane;
  sim::Machine plane_machine(cfg);

  Context word_ctx(word_machine);
  Context plane_ctx(plane_machine);
  const std::vector<Word> word_obs = program(word_ctx);
  const std::vector<Word> plane_obs = program(plane_ctx);

  EXPECT_EQ(word_obs, plane_obs) << label;
  EXPECT_TRUE(word_machine.steps() == plane_machine.steps())
      << label << ": step counters diverged (word " << word_machine.steps().summary()
      << " vs bitplane " << plane_machine.steps().summary() << ")";
}

sim::MachineConfig config(std::size_t n, int bits) {
  sim::MachineConfig cfg;
  cfg.n = n;
  cfg.bits = bits;
  return cfg;
}

/// Leaves this thread's register arena for `cfg` holding `count` all-ones
/// buffers of each kind, so the next Context of that key starts dirty.
void fill_arena_with_ones(const sim::MachineConfig& cfg, int count) {
  sim::Machine machine(cfg);
  Context ctx(machine);
  const auto dirty = [count](auto acquire, auto release) {
    for (int i = 0; i < count; ++i) {
      auto buffer = acquire();
      using T = typename decltype(buffer)::value_type;
      std::fill(buffer.begin(), buffer.end(), static_cast<T>(~T{0}));
      release(std::move(buffer));
    }
  };
  dirty([&] { return ctx.acquire_words(); },
        [&](std::vector<Word>&& b) { ctx.release_words(std::move(b)); });
  dirty([&] { return ctx.acquire_flags(); },
        [&](std::vector<sim::Flag>&& b) { ctx.release_flags(std::move(b)); });
  dirty([&] { return ctx.acquire_value_planes(); },
        [&](std::vector<sim::PlaneWord>&& b) { ctx.release_value_planes(std::move(b)); });
  dirty([&] { return ctx.acquire_flag_plane(); },
        [&](std::vector<sim::PlaneWord>&& b) { ctx.release_flag_plane(std::move(b)); });
}

TEST(PpcBitPlane, ArithmeticComparisonsAndSelect) {
  for (const std::size_t n : {3u, 9u, 66u}) {
    expect_backends_agree(config(n, 10), [n](Context& ctx) {
      util::Rng rng(n);
      std::vector<Word> a_cells(n * n);
      std::vector<Word> b_cells(n * n);
      const Word inf = ctx.machine().field().infinity();
      for (std::size_t pe = 0; pe < n * n; ++pe) {
        // Include saturating sums: values up past half the field.
        a_cells[pe] = static_cast<Word>(rng.below(inf + 1));
        b_cells[pe] = static_cast<Word>(rng.below(inf + 1));
      }
      const Pint a(ctx, a_cells);
      const Pint b(ctx, b_cells);

      std::vector<Word> obs;
      const auto observe = [&obs](const std::vector<Word>& v) {
        obs.insert(obs.end(), v.begin(), v.end());
      };
      observe(dump(a + b));
      observe(dump(a + Word{7}));
      observe(dump(emin(a, b)));
      observe(dump(emax(a, b)));
      observe(dump(a == b));
      observe(dump(a != b));
      observe(dump(a < b));
      observe(dump(a <= b));
      observe(dump(a == Word{3}));
      observe(dump(a < Word{5}));
      observe(dump(select(a < b, a, b)));
      const Pbool lt = a < b;
      obs.push_back(static_cast<Word>(lt.count()));
      obs.push_back(any(lt) ? 1 : 0);
      observe(dump(lt.to_pint()));
      observe(dump(a.bit(0)));
      observe(dump(a.bit(9)));
      observe(dump(a.or_bit(2, lt)));
      return obs;
    }, "arithmetic");
  }
}

TEST(PpcBitPlane, MaskedStoresAndNestedWhere) {
  expect_backends_agree(config(8, 8), [](Context& ctx) {
    const std::size_t n = 8;
    util::Rng rng(42);
    std::vector<Word> cells(n * n);
    for (auto& c : cells) c = static_cast<Word>(rng.below(200));
    Pint v(ctx, cells);
    const Pint row = row_of(ctx);
    const Pint col = col_of(ctx);

    where(ctx, row < col, [&] {
      v = v + Word{10};
      where(ctx, v.bit(0), [&] { v = Pint(ctx, 1); });
    });
    where(ctx, !(row < col), [&] { v = emax(v, col + Word{3}); });

    Pbool flag(ctx, false);
    where(ctx, v == Word{1}, [&] { flag = Pbool(ctx, true); });
    flag.store_all(flag ^ (row == col));
    v.store_all(select(flag, v, col));

    std::vector<Word> obs = dump(v);
    const std::vector<Word> f = dump(flag);
    obs.insert(obs.end(), f.begin(), f.end());
    obs.push_back(static_cast<Word>(flag.count()));
    return obs;
  }, "masked stores");
}

TEST(PpcBitPlane, PrimitivesShiftBroadcastBusOrMin) {
  for (const std::size_t n : {5u, 12u, 66u}) {
    expect_backends_agree(config(n, 8), [n](Context& ctx) {
      util::Rng rng(n ^ 0xABCD);
      std::vector<Word> cells(n * n);
      const Word inf = ctx.machine().field().infinity();
      for (auto& c : cells) c = static_cast<Word>(rng.below(inf + 1));
      const Pint v(ctx, cells);
      const Pint row = row_of(ctx);
      const Pint col = col_of(ctx);
      const Pbool diag = (row == col);
      const Pbool row_end = (col == static_cast<Word>(n - 1));

      std::vector<Word> obs;
      const auto observe = [&obs](const std::vector<Word>& x) {
        obs.insert(obs.end(), x.begin(), x.end());
      };
      for (const auto dir :
           {Direction::East, Direction::West, Direction::South, Direction::North}) {
        observe(dump(shift(v, dir, /*fill=*/3)));
        observe(dump(shift(diag, dir, /*fill=*/true)));
        observe(dump(broadcast(v, dir, diag)));
        observe(dump(broadcast(diag, dir, row_end)));
        observe(dump(bus_or(v.bit(0), dir, diag)));
      }
      const Pint m = pmin(v, Direction::West, row_end);
      observe(dump(m));
      observe(dump(pmin_orprobe(v, Direction::West, row_end)));
      observe(dump(pmax(v, Direction::West, row_end)));
      // The paper's selected_min floats the bus on an empty selection, so
      // feed it the min attainers (never empty) — exactly the MCP's use.
      observe(dump(selected_min(col, Direction::West, row_end, m == v)));
      observe(dump(selected_min_orprobe(col, Direction::West, row_end, v.bit(0))));
      observe(dump(selected_max_orprobe(v, Direction::West, row_end, !v.bit(0))));
      obs.push_back(any(v == inf) ? 1 : 0);
      return obs;
    }, "primitives");
  }
}

TEST(PpcBitPlane, PartiallyDrivenBusReads) {
  // A Linear-topology broadcast from mid-line leaves upstream PEs
  // undriven; with the ReadZero policy those lanes are defined (0) and
  // both backends must agree on values AND on the driven mask.
  sim::MachineConfig cfg = config(7, 8);
  cfg.topology = sim::BusTopology::Linear;
  cfg.undriven = sim::UndrivenPolicy::ReadZero;
  expect_backends_agree(cfg, [](Context& ctx) {
    const std::size_t n = 7;
    std::vector<Word> cells(n * n);
    for (std::size_t pe = 0; pe < n * n; ++pe) cells[pe] = static_cast<Word>(pe % 101);
    const Pint v(ctx, cells);
    const Pbool mid = (col_of(ctx) == Word{3});

    const Pint east = broadcast(v, Direction::East, mid);
    const Pbool driven = driven_mask(east);
    const Pint sum = east + v;  // consumes undriven lanes as 0 (ReadZero)

    std::vector<Word> obs = dump(driven);
    const std::vector<Word> s = dump(sum);
    obs.insert(obs.end(), s.begin(), s.end());
    const Pint two = two_sided_broadcast(v, Direction::East, mid);
    const std::vector<Word> t = dump(two);
    obs.insert(obs.end(), t.begin(), t.end());
    obs.push_back(static_cast<Word>(driven.count()));

    // The line-structure primitives require a Linear machine.
    for (const auto dir :
         {Direction::East, Direction::West, Direction::South, Direction::North}) {
      const std::vector<Word> up = dump(has_upstream(mid, dir));
      obs.insert(obs.end(), up.begin(), up.end());
      const std::vector<Word> fst = dump(first_in_line(v.bit(1), dir));
      obs.insert(obs.end(), fst.begin(), fst.end());
      const std::vector<Word> near = dump(nearest_upstream(v, mid, dir));
      obs.insert(obs.end(), near.begin(), near.end());
    }
    return obs;
  }, "partially driven");
}

TEST(PpcBitPlane, WordWidthSweep) {
  // h = 1 and h = 32 are the field extremes (plane count 1 / 32). The
  // side shrinks with h: the machine requires n - 1 <= max_finite.
  for (const int bits : {1, 2, 5, 16, 32}) {
    const std::size_t n = bits == 1 ? 1 : bits == 2 ? 3 : 6;
    expect_backends_agree(config(n, bits), [bits, n](Context& ctx) {
      util::Rng rng(static_cast<std::uint64_t>(bits));
      const Word inf = ctx.machine().field().infinity();
      std::vector<Word> cells(n * n);
      for (auto& c : cells) {
        c = static_cast<Word>(rng.next() % (static_cast<std::uint64_t>(inf) + 1));
      }
      const Pint v(ctx, cells);
      const Pbool row_end = (col_of(ctx) == static_cast<Word>(n - 1));

      std::vector<Word> obs = dump(v + v);
      const std::vector<Word> m = dump(pmin(v, Direction::West, row_end));
      obs.insert(obs.end(), m.begin(), m.end());
      obs.push_back(any(v == inf) ? 1 : 0);
      return obs;
    }, "width sweep");
  }
}

TEST(IndexPlanes, RowAndColMatchTheWordBackend) {
  // A bit-plane machine writes ROW and COL as planes; each is one ALU
  // step, like a host-loaded declaration, and the pads of every plane
  // stay 0, even when the Context's arena starts with all-ones buffers.
  for (const std::size_t side : {1u, 63u, 64u, 65u, 96u, 128u, 130u}) {
    SCOPED_TRACE(side);
    std::vector<Word> want_rows(side * side);
    std::vector<Word> want_cols(side * side);
    for (std::size_t pe = 0; pe < side * side; ++pe) {
      want_rows[pe] = static_cast<Word>(pe / side);
      want_cols[pe] = static_cast<Word>(pe % side);
    }
    for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
      sim::MachineConfig cfg = config(side, 16);
      cfg.backend = backend;
      fill_arena_with_ones(cfg, 4);
      sim::Machine m(cfg);
      Context ctx(m);
      const Pint row = row_of(ctx);
      EXPECT_EQ(m.steps().count(sim::StepCategory::Alu), 1u);
      const Pint col = col_of(ctx);
      EXPECT_EQ(m.steps().count(sim::StepCategory::Alu), 2u);
      EXPECT_EQ(m.steps().total(), 2u);
      EXPECT_TRUE(row.fully_driven() && col.fully_driven());
      EXPECT_EQ(dump(row), want_rows);
      EXPECT_EQ(dump(col), want_cols);
      if (backend == sim::ExecBackend::Words) continue;
      const std::size_t pw = ctx.geometry().plane_words();
      for (const Pint* index : {&row, &col}) {
        const auto planes = index->planes_view();
        for (std::size_t w = 0; w < planes.size(); ++w) {
          ASSERT_EQ(planes[w] & ~ctx.full_plane()[w % pw], 0u) << "pad lanes set at word " << w;
        }
      }
    }
  }
}

}  // namespace
}  // namespace ppa::ppc
