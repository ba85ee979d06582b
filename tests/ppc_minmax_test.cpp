// pmax / selected_max and their OR-probe variants, mirrored from the
// pmin tests: randomized against host-computed cluster maxima.
#include <gtest/gtest.h>

#include <algorithm>

#include "ppc/primitives.hpp"
#include "util/rng.hpp"

namespace ppa::ppc {
namespace {

using sim::Direction;

sim::MachineConfig config_of(std::size_t n, int bits) {
  sim::MachineConfig c;
  c.n = n;
  c.bits = bits;
  return c;
}

// Every field is 8 bytes wide, so the case has no padding: gtest prints the
// case's raw bytes into the test name, and padding bytes would make that
// name change from one run to the next.
struct MaxCase {
  std::size_t n;
  std::int64_t bits;
  std::uint64_t seed;
};

class MaxSweep : public ::testing::TestWithParam<MaxCase> {};

TEST_P(MaxSweep, PmaxMatchesHostRowMaximum) {
  const auto [n, bits, seed] = GetParam();
  sim::Machine m(config_of(n, static_cast<int>(bits)));
  Context ctx(m);
  util::Rng rng(seed);

  std::vector<Word> data(n * n);
  for (auto& v : data) v = static_cast<Word>(rng.below(m.field().infinity() + 1ull));
  const Pint src(ctx, data);
  const Pbool row_end = (col_of(ctx) == static_cast<Word>(n - 1));

  const Pint result = pmax(src, Direction::West, row_end);
  const Pint probe = pmax_orprobe(src, Direction::West, row_end);

  for (std::size_t r = 0; r < n; ++r) {
    const Word expected =
        *std::max_element(data.begin() + static_cast<std::ptrdiff_t>(r * n),
                          data.begin() + static_cast<std::ptrdiff_t>((r + 1) * n));
    for (std::size_t c = 0; c < n; ++c) {
      ASSERT_EQ(result.at(r, c), expected) << "pmax row " << r;
      ASSERT_EQ(probe.at(r, c), expected) << "orprobe row " << r;
    }
  }
}

TEST_P(MaxSweep, SelectedMaxRespectsSelection) {
  const auto [n, bits, seed] = GetParam();
  sim::Machine m(config_of(n, static_cast<int>(bits)));
  Context ctx(m);
  util::Rng rng(seed ^ 0xABCD);

  std::vector<Word> data(n * n);
  std::vector<sim::Flag> sel_bits(n * n);
  for (std::size_t pe = 0; pe < n * n; ++pe) {
    data[pe] = static_cast<Word>(
        rng.below(std::min<std::uint64_t>(100, m.field().infinity() + 1ull)));
    sel_bits[pe] = rng.chance(0.6) ? sim::Flag{1} : sim::Flag{0};
  }
  // Guarantee at least one selected candidate per row.
  for (std::size_t r = 0; r < n; ++r) sel_bits[r * n] = 1;

  const Pint src(ctx, data);
  const Pbool selected(ctx, sel_bits);
  const Pbool row_end = (col_of(ctx) == static_cast<Word>(n - 1));
  const Pint result = selected_max(src, Direction::West, row_end, selected);
  const Pint probe = selected_max_orprobe(src, Direction::West, row_end, selected);

  for (std::size_t r = 0; r < n; ++r) {
    Word expected = 0;
    for (std::size_t c = 0; c < n; ++c) {
      if (sel_bits[r * n + c]) expected = std::max(expected, data[r * n + c]);
    }
    for (std::size_t c = 0; c < n; ++c) {
      ASSERT_EQ(result.at(r, c), expected) << "row " << r;
      ASSERT_EQ(probe.at(r, c), expected) << "row " << r;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Shapes, MaxSweep,
                         ::testing::Values(MaxCase{2, 4, 1}, MaxCase{4, 8, 2},
                                           MaxCase{8, 8, 3}, MaxCase{8, 16, 4},
                                           MaxCase{13, 12, 5}, MaxCase{16, 32, 6}));

TEST(Pmax, EmptySelectionOrProbeYieldsZero) {
  sim::Machine m(config_of(4, 8));
  Context ctx(m);
  const Pbool anchor = (col_of(ctx) == Word{3});
  const Pbool none(ctx, false);
  const Pint result = selected_max_orprobe(col_of(ctx), Direction::West, anchor, none);
  for (std::size_t pe = 0; pe < 16; ++pe) EXPECT_EQ(result.at(pe), 0u);
}

TEST(Pmax, CostMatchesPminExactly) {
  // Min and max are mirror programs: identical instruction counts.
  sim::Machine m1(config_of(8, 16));
  sim::Machine m2(config_of(8, 16));
  Context c1(m1);
  Context c2(m2);
  const Pbool a1 = (col_of(c1) == Word{7});
  const Pbool a2 = (col_of(c2) == Word{7});
  (void)pmin(row_of(c1), Direction::West, a1);
  (void)pmax(row_of(c2), Direction::West, a2);
  EXPECT_EQ(m1.steps().total(), m2.steps().total());
  EXPECT_EQ(m1.steps().count(sim::StepCategory::BusOr),
            m2.steps().count(sim::StepCategory::BusOr));
}

TEST(Pmax, ColumnOrientation) {
  sim::Machine m(config_of(5, 8));
  Context ctx(m);
  std::vector<Word> data(25);
  for (std::size_t pe = 0; pe < 25; ++pe) data[pe] = static_cast<Word>((pe * 13 + 1) % 200);
  const Pint src(ctx, data);
  const Pbool anchor = (row_of(ctx) == Word{0});
  const Pint result = pmax(src, Direction::South, anchor);
  for (std::size_t c = 0; c < 5; ++c) {
    Word expected = 0;
    for (std::size_t r = 0; r < 5; ++r) expected = std::max(expected, data[r * 5 + c]);
    for (std::size_t r = 0; r < 5; ++r) EXPECT_EQ(result.at(r, c), expected);
  }
}

TEST(BroadcastBool, MirrorsWordBroadcast) {
  sim::Machine m(config_of(4, 8));
  Context ctx(m);
  const Pbool open = (col_of(ctx) == Word{1});
  const Pbool payload = (row_of(ctx) == Word{2}) & (col_of(ctx) == Word{1});
  const Pbool got = broadcast(payload, sim::Direction::East, open);
  // Row 2's driver (col 1) injects 1; everyone in row 2 hears it.
  for (std::size_t c = 0; c < 4; ++c) {
    EXPECT_TRUE(got.at(2, c));
    EXPECT_FALSE(got.at(0, c));
  }
}

}  // namespace
}  // namespace ppa::ppc
