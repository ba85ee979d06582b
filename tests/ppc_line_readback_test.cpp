// Host line readback: Pint/Pbool read_row and read_column must return what
// at() returns for every element of every line, on both execution backends,
// for sides on both sides of the 64-lane word boundary — including values
// read off a floating bus (a partially driven Pint). Its counterpart, the
// one-row load Pint::load_row, must equal the full-array load of the same
// row with zeros elsewhere, at the same step charge, and its in-place form
// Pint::reload_row must rewrite that row and either keep or zero the rest.
// Bad indices, wrongly sized spans and unrepresentable values are contract
// errors.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "ppc/parallel.hpp"
#include "ppc/primitives.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ppa::ppc {
namespace {

using sim::Direction;
using sim::Flag;
using sim::Word;

sim::MachineConfig config(std::size_t n, sim::ExecBackend backend) {
  sim::MachineConfig cfg;
  cfg.n = n;
  cfg.bits = 12;
  cfg.backend = backend;
  cfg.topology = sim::BusTopology::Linear;
  return cfg;
}

std::string label(std::size_t n, sim::ExecBackend backend) {
  return "n=" + std::to_string(n) +
         (backend == sim::ExecBackend::BitPlane ? " bitplane" : " words");
}

/// Every row and every column of `v` against at().
template <typename P, typename T>
void expect_lines_match_at(const P& v, std::size_t n, const std::string& where) {
  std::vector<T> line(n);
  for (std::size_t r = 0; r < n; ++r) {
    v.read_row(r, line);
    for (std::size_t c = 0; c < n; ++c) {
      ASSERT_EQ(static_cast<Word>(line[c]), static_cast<Word>(v.at(r, c)))
          << where << " row " << r << " col " << c;
    }
  }
  for (std::size_t c = 0; c < n; ++c) {
    v.read_column(c, line);
    for (std::size_t r = 0; r < n; ++r) {
      ASSERT_EQ(static_cast<Word>(line[r]), static_cast<Word>(v.at(r, c)))
          << where << " column " << c << " row " << r;
    }
  }
}

class LineReadback : public ::testing::TestWithParam<std::size_t> {};

TEST_P(LineReadback, MatchesAtOnBothBackends) {
  const std::size_t n = GetParam();
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    sim::Machine machine(config(n, backend));
    Context ctx(machine);
    util::Rng rng(n);
    std::vector<Word> values(n * n);
    std::vector<Flag> flags(n * n);
    for (std::size_t pe = 0; pe < n * n; ++pe) {
      values[pe] = static_cast<Word>(rng.below(1u << 12));
      flags[pe] = rng.chance(0.5) ? Flag{1} : Flag{0};
    }
    const Pint v(ctx, values);
    const Pbool f(ctx, flags);
    expect_lines_match_at<Pint, Word>(v, n, label(n, backend));
    expect_lines_match_at<Pbool, Flag>(f, n, label(n, backend));
    // The line reads and at() agree with the host data they were loaded from.
    std::vector<Word> row(n);
    v.read_row(n - 1, row);
    for (std::size_t c = 0; c < n; ++c) ASSERT_EQ(row[c], values[(n - 1) * n + c]);

    // A linear broadcast from column n/2 leaves the columns up to it
    // floating: read them like any other element (undriven reads 0).
    std::vector<Flag> open(n * n, 0);
    for (std::size_t r = 0; r < n; ++r) open[r * n + n / 2] = 1;
    const Pint partial = broadcast(v, Direction::East, Pbool(ctx, open));
    ASSERT_FALSE(partial.fully_driven()) << label(n, backend);
    expect_lines_match_at<Pint, Word>(partial, n, label(n, backend) + " partial");
  }
}

TEST_P(LineReadback, RejectsBadIndicesAndSpans) {
  const std::size_t n = GetParam();
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    sim::Machine machine(config(n, backend));
    Context ctx(machine);
    const Pint v(ctx, Word{3});
    const Pbool f(ctx, true);
    std::vector<Word> words(n), short_words(n - 1), long_words(n + 1);
    std::vector<Flag> bits(n), long_bits(n + 1);
    EXPECT_THROW(v.read_row(n, words), util::ContractError);
    EXPECT_THROW(v.read_column(n, words), util::ContractError);
    EXPECT_THROW(v.read_row(0, short_words), util::ContractError);
    EXPECT_THROW(v.read_column(0, long_words), util::ContractError);
    EXPECT_THROW(f.read_row(n, bits), util::ContractError);
    EXPECT_THROW(f.read_column(n, bits), util::ContractError);
    EXPECT_THROW(f.read_row(0, long_bits), util::ContractError);
    EXPECT_THROW(f.read_column(0, long_bits), util::ContractError);
    EXPECT_THROW((void)v.at(n, 0), util::ContractError);
    EXPECT_THROW((void)f.at(0, n), util::ContractError);
  }
}

TEST_P(LineReadback, RowLoadEqualsFullLoadWithZerosOffTheRow) {
  const std::size_t n = GetParam();
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    sim::Machine machine(config(n, backend));
    Context ctx(machine);
    util::Rng rng(n + 7);
    for (const std::size_t row : {std::size_t{0}, n / 2, n - 1}) {
      const std::string where = label(n, backend) + " row " + std::to_string(row);
      std::vector<Word> values(n);
      for (Word& v : values) v = static_cast<Word>(rng.below(1u << 12));
      values.back() = (Word{1} << 12) - 1;  // every plane set somewhere
      std::vector<Word> cells(n * n, Word{0});
      std::copy(values.begin(), values.end(), cells.begin() + static_cast<std::ptrdiff_t>(row * n));

      // Dirty the register arena first: the row load draws the recycled
      // buffer and must not inherit its contents.
      { const Pint junk(ctx, Word{(1u << 12) - 1}); }
      const sim::StepCounter before = machine.steps();
      const Pint one = Pint::load_row(ctx, row, values);
      const sim::StepCounter row_charge = machine.steps().since(before);
      const sim::StepCounter mid = machine.steps();
      const Pint full(ctx, cells);
      const sim::StepCounter full_charge = machine.steps().since(mid);

      EXPECT_TRUE(row_charge == full_charge)
          << where << ": " << row_charge.summary() << " vs " << full_charge.summary();
      ASSERT_TRUE(one.fully_driven()) << where;
      for (std::size_t r = 0; r < n; ++r) {
        for (std::size_t c = 0; c < n; ++c) {
          ASSERT_EQ(one.at(r, c), full.at(r, c)) << where << " at (" << r << ", " << c << ")";
        }
      }
      std::vector<Word> line(n);
      one.read_row(row, line);
      EXPECT_EQ(line, values) << where;
    }
  }
}

TEST_P(LineReadback, RowReloadRewritesTheRowAndKeepsOrZeroesTheRest) {
  const std::size_t n = GetParam();
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    sim::Machine machine(config(n, backend));
    Context ctx(machine);
    util::Rng rng(n + 11);
    std::vector<Word> cells(n * n);
    for (Word& v : cells) v = static_cast<Word>(rng.below(1u << 12));
    for (const bool zero_rest : {false, true}) {
      for (const std::size_t row : {std::size_t{0}, n / 2, n - 1}) {
        const std::string where = label(n, backend) + " row " + std::to_string(row) +
                                  (zero_rest ? " zeroing" : " keeping");
        std::vector<Word> values(n);
        for (Word& v : values) v = static_cast<Word>(rng.below(1u << 12));
        // A register with its row `row` read off a floating bus: the
        // reload defines it.
        const Pint loaded(ctx, cells);
        const Pbool off_row = !(row_of(ctx) == static_cast<Word>(row));
        Pint reg = select(off_row, loaded, broadcast(loaded, sim::Direction::East,
                                                     Pbool(ctx, false)));
        ASSERT_FALSE(reg.fully_driven()) << where;
        const sim::StepCounter before = machine.steps();
        reg.reload_row(row, values, zero_rest);
        const sim::StepCounter charge = machine.steps().since(before);
        EXPECT_EQ(charge.total(), 1u) << where;
        EXPECT_EQ(charge.count(sim::StepCategory::Alu), 1u) << where;
        EXPECT_EQ(reg.fully_driven(), zero_rest) << where;
        EXPECT_TRUE(driven_mask(reg).count() == n * n) << where;
        for (std::size_t r = 0; r < n; ++r) {
          for (std::size_t c = 0; c < n; ++c) {
            const Word want = r == row ? values[c] : zero_rest ? Word{0} : cells[r * n + c];
            ASSERT_EQ(reg.at(r, c), want) << where << " at (" << r << ", " << c << ")";
          }
        }
      }
    }
  }
}

TEST_P(LineReadback, RowLoadRejectsBadRowsSpansAndValues) {
  const std::size_t n = GetParam();
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    sim::Machine machine(config(n, backend));
    Context ctx(machine);
    const std::vector<Word> ok(n, Word{5});
    std::vector<Word> too_wide = ok;
    too_wide[n / 2] = Word{1} << 12;  // not representable in a 12-bit field
    const std::vector<Word> short_row(n - 1, Word{5}), long_row(n + 1, Word{5});
    EXPECT_THROW((void)Pint::load_row(ctx, n, ok), util::ContractError) << label(n, backend);
    EXPECT_THROW((void)Pint::load_row(ctx, 0, short_row), util::ContractError)
        << label(n, backend);
    EXPECT_THROW((void)Pint::load_row(ctx, 0, long_row), util::ContractError)
        << label(n, backend);
    EXPECT_THROW((void)Pint::load_row(ctx, n - 1, too_wide), util::ContractError)
        << label(n, backend);
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, LineReadback,
                         ::testing::Values(std::size_t{1}, std::size_t{63}, std::size_t{64},
                                           std::size_t{65}, std::size_t{130}));

}  // namespace
}  // namespace ppa::ppc
