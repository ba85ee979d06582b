// Host line readback: Pint/Pbool read_row and read_column must return what
// at() returns for every element of every line, on both execution backends,
// for sides on both sides of the 64-lane word boundary — including values
// read off a floating bus (a partially driven Pint). Bad indices and
// wrongly sized spans are contract errors.
#include <gtest/gtest.h>

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

INSTANTIATE_TEST_SUITE_P(Sides, LineReadback,
                         ::testing::Values(std::size_t{1}, std::size_t{63}, std::size_t{64},
                                           std::size_t{65}, std::size_t{130}));

}  // namespace
}  // namespace ppa::ppc
