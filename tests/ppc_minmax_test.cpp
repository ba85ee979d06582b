// pmax / selected_max and their OR-probe variants, mirrored from the
// pmin tests: randomized against host-computed cluster maxima. Then the
// sweep engine's fused row min/argmin against the eDSL loop it replaced.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <string>

#include "ppc/primitives.hpp"
#include "util/check.hpp"
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

// ---------------------------------------------------------------------------
// fused_row_min_argmin: the in-place primitive against the eDSL formulation
// it replaced, on two identically configured machines. Results, step
// counters, bus-cycle index, masking counters, fault log and the recorded
// trace must all agree — including under faults, TMR/ECC, checked
// execution and a non-full ambient where-mask.
// ---------------------------------------------------------------------------

/// The reference: the sweep engine's row reduction written with Pbool
/// temporaries, one bus_or and one where per round.
void reference_row_min_argmin(Context& ctx, const Pint& value,
                              const std::vector<Pbool>& index_bits, const Pbool& row_end,
                              std::size_t rows, std::vector<Word>& min_line,
                              std::vector<Word>& arg_line) {
  std::fill(min_line.begin(), min_line.begin() + static_cast<std::ptrdiff_t>(rows), Word{0});
  std::fill(arg_line.begin(), arg_line.begin() + static_cast<std::ptrdiff_t>(rows), Word{0});
  std::vector<sim::Flag> or_line(ctx.n());
  Pbool enable(ctx, true);
  const auto round = [&](const Pbool& bit_set, int j, std::vector<Word>& out) {
    const Pbool probe = enable & !bit_set;
    const Pbool some = bus_or(probe, Direction::West, row_end);
    some.read_column(0, or_line);
    for (std::size_t r = 0; r < rows; ++r) {
      out[r] |= static_cast<Word>(or_line[r] ^ 1u) << j;
    }
    where(ctx, some, [&] { enable = probe; });
  };
  for (int j = ctx.field().bits() - 1; j >= 0; --j) round(value.bit(j), j, min_line);
  const int idx_bits = static_cast<int>(index_bits.size());
  for (int j = idx_bits - 1; j >= 0; --j) {
    round(index_bits[static_cast<std::size_t>(idx_bits - 1 - j)], j, arg_line);
  }
}

/// MSB-first column-index planes, as the sweep engine builds them.
std::vector<Pbool> column_index_planes(Context& ctx) {
  const std::size_t n = ctx.n();
  std::vector<Pbool> planes;
  std::vector<sim::Flag> flags(n * n);
  for (int j = static_cast<int>(std::bit_width(n - 1)) - 1; j >= 0; --j) {
    for (std::size_t pe = 0; pe < n * n; ++pe) {
      flags[pe] = static_cast<sim::Flag>((pe % n >> static_cast<std::size_t>(j)) & 1u);
    }
    planes.emplace_back(ctx, flags);
  }
  return planes;
}

enum class Scenario {
  Clean,            // no faults, full ambient mask: also checked against the host
  AmbientMask,      // no faults, reduction inside a random where-mask
  FaultsChecked,    // stuck switches, a dead PE, stuck bits; checked execution
  FaultsAmbient,    // the same faults, unchecked, inside a where-mask
  FaultsTmr,        // the same faults under TMR
  FaultsEcc,        // the same faults under ECC (bit-plane backend only)
};

struct FusedSetup {
  std::size_t side;
  sim::ExecBackend backend;
  sim::BusTopology topology;
  Scenario scenario;
};

/// Everything observable about one reduction on a fresh machine.
struct FusedRun {
  std::vector<Word> min_line;
  std::vector<Word> arg_line;
  sim::StepCounter steps;
  std::uint64_t bus_cycles = 0;
  sim::MaskingStats masking;
  std::vector<sim::FaultEvent> fault_log;
  std::size_t fault_count = 0;
  std::vector<sim::TraceEvent> events;
  std::vector<sim::FaultEvent> traced_faults;
};

/// 6, 11 or 16 bits, widened until the array side fits the field.
int field_bits_of(std::size_t side) {
  return std::max(6 + static_cast<int>(side % 3) * 5, static_cast<int>(std::bit_width(side)) + 1);
}

/// Row r mixes three patterns: uniformly random values, tie-heavy values
/// (a three-value alphabet, so the minimum repeats), and an all-infinity row.
std::vector<Word> fused_values(std::size_t side, int bits, std::uint64_t seed) {
  util::Rng rng(seed);
  const Word inf = (Word{1} << bits) - 1;
  std::vector<Word> data(side * side);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      Word& v = data[r * side + c];
      switch (r % 3) {
        case 0: v = static_cast<Word>(rng.below(inf + 1ull)); break;
        case 1: v = static_cast<Word>(inf - 2 + rng.below(3)); break;
        default: v = inf; break;
      }
    }
  }
  return data;
}

sim::FaultModel fused_faults(std::size_t side) {
  const auto at = [side](std::size_t k) { return (k * 7 + 3) % side; };
  sim::FaultModel model;
  model.add({sim::FaultKind::StuckOpen, sim::Axis::Row, at(1), at(2)});
  model.add({sim::FaultKind::StuckClosed, sim::Axis::Row, at(3), side - 1});
  model.add({sim::FaultKind::DeadPe, sim::Axis::Row, at(4), at(5)});
  // A transient wire (every third cycle) and a persistent one; a wired-OR
  // cycle carries its flag on wire 0.
  model.add({sim::FaultKind::StuckBit, sim::Axis::Row, at(6), 0, 0, true, 3, 1});
  model.add({sim::FaultKind::StuckBit, sim::Axis::Row, at(8), 0, 0, false, 0, 0});
  return model;
}

FusedRun run_fused(const FusedSetup& s, bool reference) {
  const Scenario sc = s.scenario;
  sim::MachineConfig config;
  config.n = s.side;
  config.bits = field_bits_of(s.side);
  config.topology = s.topology;
  config.backend = s.backend;
  config.checked = sc == Scenario::FaultsChecked;
  config.masking = sc == Scenario::FaultsTmr   ? sim::BusMasking::Tmr
                   : sc == Scenario::FaultsEcc ? sim::BusMasking::Ecc
                                               : sim::BusMasking::None;
  sim::Machine m(config);
  if (sc != Scenario::Clean && sc != Scenario::AmbientMask) {
    m.inject_faults(fused_faults(s.side));
  }
  sim::RecordingTrace trace;
  m.set_trace(&trace);
  Context ctx(m);
  const Pint value(ctx, fused_values(s.side, config.bits, s.side * 31 + 7));
  const std::vector<Pbool> index_bits = column_index_planes(ctx);
  const Pbool row_end = (col_of(ctx) == static_cast<Word>(s.side - 1));
  const std::size_t rows = s.side - s.side / 3;  // rows < n whenever n >= 3

  FusedRun run;
  run.min_line.assign(s.side, Word{0xBEEF});
  run.arg_line.assign(s.side, Word{0xBEEF});
  const auto reduce = [&] {
    if (reference) {
      reference_row_min_argmin(ctx, value, index_bits, row_end, rows, run.min_line,
                               run.arg_line);
    } else {
      fused_row_min_argmin(value, index_bits, row_end, rows, run.min_line, run.arg_line);
    }
  };
  if (sc == Scenario::AmbientMask || sc == Scenario::FaultsAmbient) {
    util::Rng rng(s.side);
    std::vector<sim::Flag> active(s.side * s.side);
    for (auto& f : active) f = rng.chance(0.7) ? sim::Flag{1} : sim::Flag{0};
    const Pbool cond(ctx, active);
    where(ctx, cond, reduce);
  } else {
    reduce();
  }
  m.set_trace(nullptr);
  run.steps = m.steps();
  run.bus_cycles = m.bus_cycles();
  run.masking = m.masking_stats();
  run.fault_log = m.fault_events();
  run.fault_count = m.fault_count();
  run.events = trace.events();
  run.traced_faults = trace.faults();
  return run;
}

std::string describe(const FusedSetup& s) {
  return "side=" + std::to_string(s.side) +
         (s.backend == sim::ExecBackend::BitPlane ? " bitplane" : " words") +
         (s.topology == sim::BusTopology::Ring ? " ring" : " linear") +
         " scenario=" + std::to_string(static_cast<int>(s.scenario));
}

class FusedRowMinArgmin : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusedRowMinArgmin, MatchesEdslReferenceEverywhere) {
  const std::size_t side = GetParam();
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    for (const auto topology : {sim::BusTopology::Ring, sim::BusTopology::Linear}) {
      for (const auto scenario :
           {Scenario::Clean, Scenario::AmbientMask, Scenario::FaultsChecked,
            Scenario::FaultsAmbient, Scenario::FaultsTmr, Scenario::FaultsEcc}) {
        if (scenario == Scenario::FaultsEcc && backend != sim::ExecBackend::BitPlane) continue;
        const FusedSetup setup{side, backend, topology, scenario};
        SCOPED_TRACE(describe(setup));
        const FusedRun want = run_fused(setup, /*reference=*/true);
        const FusedRun got = run_fused(setup, /*reference=*/false);
        EXPECT_EQ(got.min_line, want.min_line);
        EXPECT_EQ(got.arg_line, want.arg_line);
        EXPECT_TRUE(got.steps == want.steps)
            << got.steps.summary() << " vs " << want.steps.summary();
        EXPECT_EQ(got.bus_cycles, want.bus_cycles);
        EXPECT_TRUE(got.masking == want.masking);
        EXPECT_TRUE(got.fault_log == want.fault_log);
        EXPECT_EQ(got.fault_count, want.fault_count);
        EXPECT_TRUE(got.events == want.events) << got.events.size() << " vs "
                                               << want.events.size() << " events";
        EXPECT_TRUE(got.traced_faults == want.traced_faults);
        if (scenario != Scenario::Clean) continue;
        // Fault-free and unmasked, both are the true row minimum and its
        // smallest column; an all-infinity row answers column 0.
        const int bits = field_bits_of(side);
        const std::vector<Word> data = fused_values(side, bits, side * 31 + 7);
        for (std::size_t r = 0; r < side - side / 3; ++r) {
          const auto first = data.begin() + static_cast<std::ptrdiff_t>(r * side);
          const auto best = std::min_element(first, first + static_cast<std::ptrdiff_t>(side));
          ASSERT_EQ(got.min_line[r], *best) << "row " << r;
          ASSERT_EQ(got.arg_line[r], static_cast<Word>(best - first)) << "row " << r;
        }
        for (std::size_t r = side - side / 3; r < side; ++r) {
          ASSERT_EQ(got.min_line[r], Word{0xBEEF}) << "row " << r << " is past `rows`";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, FusedRowMinArgmin,
                         ::testing::Values(1, 2, 3, 5, 7, 16, 63, 64, 65, 96, 128, 130),
                         [](const ::testing::TestParamInfo<std::size_t>& side_info) {
                           return "Side" + std::to_string(side_info.param);
                         });

TEST(FusedRowMinArgminContract, UndrivenValueThrowsLikeBusOr) {
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    sim::MachineConfig config;
    config.n = 5;
    config.bits = 8;
    config.topology = sim::BusTopology::Linear;
    config.backend = backend;
    sim::Machine m(config);
    Context ctx(m);
    // No Open node anywhere: every receiver on a Linear line floats.
    const Pint floating = broadcast(Pint(ctx, 3), Direction::East, Pbool(ctx, false));
    ASSERT_FALSE(floating.fully_driven());
    const std::vector<Pbool> index_bits = column_index_planes(ctx);
    const Pbool row_end = (col_of(ctx) == Word{4});
    std::vector<Word> min_line(5), arg_line(5);
    EXPECT_THROW(reference_row_min_argmin(ctx, floating, index_bits, row_end, 5, min_line,
                                          arg_line),
                 util::ContractError);
    EXPECT_THROW(fused_row_min_argmin(floating, index_bits, row_end, 5, min_line, arg_line),
                 util::ContractError);
  }
}

}  // namespace
}  // namespace ppa::ppc
