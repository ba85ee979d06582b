// pmax / selected_max and their OR-probe variants, mirrored from the
// pmin tests: randomized against host-computed cluster maxima. Then every
// min/max primitive and the sweep engine's fused row min/argmin on the
// bit-plane core, and the relaxation primitives broadcast_add and
// pullback in place, against the paper's listing on the word backend.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <initializer_list>
#include <iterator>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "ppc/primitives.hpp"
#include "test_util.hpp"
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
// The bit-plane elimination core against the paper's listing. A bit-plane
// machine runs every min/max primitive, and fused_row_min_argmin, through
// the in-place core (src/ppc/primitives.cpp); a word machine runs the
// listing as eDSL statements. The two are independent code paths, so on
// identically configured machines (same FaultModel, masking, checked mode
// and ambient where-mask) everything observable must agree: values, driven
// flags, step counters, bus-cycle index, masking counters, fault log, the
// recorded trace, and the message of any contract check that throws.
//
// ECC exists on the bit-plane backend only. There the bit-plane machine
// runs under ECC with the stuck and transient wires injected, and the word
// machine gets the same switch and dead-PE faults but no wires: ECC must
// correct every wire hit, and its parity beats must be exactly the ones
// the word machine's bus cycles call for.
// ---------------------------------------------------------------------------

enum class Primitive {
  Pmin,
  SelectedMin,
  PminOrProbe,
  SelectedMinOrProbe,
  Pmax,
  SelectedMax,
  PmaxOrProbe,
  SelectedMaxOrProbe,
  Fused,  // fused_row_min_argmin: rows only
};

constexpr Primitive kMinMax[] = {Primitive::Pmin,        Primitive::SelectedMin,
                                  Primitive::PminOrProbe, Primitive::SelectedMinOrProbe,
                                  Primitive::Pmax,        Primitive::SelectedMax,
                                  Primitive::PmaxOrProbe, Primitive::SelectedMaxOrProbe};

bool selects(Primitive p) {
  return p == Primitive::SelectedMin || p == Primitive::SelectedMinOrProbe ||
         p == Primitive::SelectedMax || p == Primitive::SelectedMaxOrProbe;
}

bool or_probe(Primitive p) {
  return p == Primitive::PminOrProbe || p == Primitive::SelectedMinOrProbe ||
         p == Primitive::PmaxOrProbe || p == Primitive::SelectedMaxOrProbe;
}

bool keeps_max(Primitive p) {
  return p == Primitive::Pmax || p == Primitive::SelectedMax || p == Primitive::PmaxOrProbe ||
         p == Primitive::SelectedMaxOrProbe;
}

Pint apply(Primitive p, const Pint& src, Direction o, const Pbool& anchor, const Pbool& sel) {
  switch (p) {
    case Primitive::Pmin: return pmin(src, o, anchor);
    case Primitive::SelectedMin: return selected_min(src, o, anchor, sel);
    case Primitive::PminOrProbe: return pmin_orprobe(src, o, anchor);
    case Primitive::SelectedMinOrProbe: return selected_min_orprobe(src, o, anchor, sel);
    case Primitive::Pmax: return pmax(src, o, anchor);
    case Primitive::SelectedMax: return selected_max(src, o, anchor, sel);
    case Primitive::PmaxOrProbe: return pmax_orprobe(src, o, anchor);
    case Primitive::SelectedMaxOrProbe: return selected_max_orprobe(src, o, anchor, sel);
    case Primitive::Fused: break;
  }
  throw std::logic_error("fused_row_min_argmin returns lines, not a Pint");
}

enum class Scenario {
  Clean,          // no faults, full ambient mask: also checked against the host
  AmbientMask,    // no faults, the call inside a random where-mask
  FaultsChecked,  // stuck switches, a dead PE, transient and stuck wires; checked
  FaultsAmbient,  // the same faults, unchecked, inside a where-mask
  FaultsTmr,      // the same faults under TMR
  FaultsEcc,      // bit-plane machine under ECC with every fault, word machine no wires
  Tainted,        // no faults, some SOW elements undriven: an unchecked store throws
  TaintedChecked, // the same, checked: the store records the undriven reads
  SplitAnchor,    // no faults, the anchor plane opens a second lane in one line
  LineAmbient,    // no faults, a where-mask of whole lines; the selection
                  // empties only lines the mask leaves out
  PartialLine,    // LineAmbient, and one line inside the mask loses a lane
                  // other than its anchor
  EmptyLines,     // no faults, checked: every fifth line selects nothing
  AnchorOnly,     // no faults, checked: every fifth line selects its anchor only
  CarrierAmbient, // relaxations only, no faults: the carrier opens the middle of
                  // its row, and a where-mask keeps the PEs of those columns on
                  // and (a Linear bus) below the carrier row, so every store is
                  // driven
  InertFault,     // Clean on a machine with one fault that never bites: the
                  // machine plans no cycle, so every cycle is resolved
};

constexpr Scenario kScenarios[] = {
    Scenario::Clean,         Scenario::AmbientMask, Scenario::FaultsChecked,
    Scenario::FaultsAmbient, Scenario::FaultsTmr,   Scenario::FaultsEcc,
    Scenario::SplitAnchor,   Scenario::LineAmbient, Scenario::PartialLine,
    Scenario::EmptyLines,    Scenario::AnchorOnly,  Scenario::InertFault};

/// Fault-free and unmasked: the bit-plane core may run a row call's rounds
/// in the row elimination kernel.
bool clean(Scenario sc) {
  return sc == Scenario::Clean || sc == Scenario::AmbientMask || sc == Scenario::SplitAnchor ||
         sc == Scenario::LineAmbient || sc == Scenario::PartialLine ||
         sc == Scenario::EmptyLines || sc == Scenario::AnchorOnly;
}

bool checked(Scenario sc) {
  return sc == Scenario::FaultsChecked || sc == Scenario::EmptyLines ||
         sc == Scenario::AnchorOnly;
}

struct Setup {
  std::size_t side;
  sim::BusTopology topology;
  // West: each row is a cluster anchored at column n-1; East: anchored at
  // column 0; South: each column is one anchored at row 0.
  Direction orientation;
  Scenario scenario;
  Primitive primitive;
  int bits = 0;  // the field width; 0: field_bits_of(side)
};

/// Everything observable about one call on a fresh machine.
struct Observed {
  std::vector<Word> values;  // the result row-major; fused: min line, arg line
  std::vector<sim::Flag> driven;
  bool fully_driven = true;
  std::string error;  // the ContractError message, when the call threw
  sim::StepCounter steps;
  std::uint64_t bus_cycles = 0;
  sim::MaskingStats masking;
  std::vector<sim::FaultEvent> fault_log;
  std::size_t fault_count = 0;
  std::vector<sim::TraceEvent> events;
  std::vector<sim::FaultEvent> traced_faults;
  std::uint64_t dispatches = 0;   // plane kernel dispatches of the call alone
  std::uint64_t ladder_rows = 0;  // rows its row broadcasts put on the ladder
  std::uint64_t charge_only = 0;  // bus cycles the machine planned and did not resolve
};

/// 6, 11 or 16 bits, widened until the array side fits the field.
int field_bits_of(std::size_t side) {
  return std::max(6 + static_cast<int>(side % 3) * 5, static_cast<int>(std::bit_width(side)) + 1);
}

/// True for a row bus (East or West): each row is one cluster line.
bool along_rows(Direction o) { return o == Direction::West || o == Direction::East; }

/// The cluster line of PE (r, c) along `o`.
std::size_t line_of(std::size_t r, std::size_t c, Direction o) {
  return along_rows(o) ? r : c;
}

/// The position of PE (r, c) within its line along `o`.
std::size_t lane_of(std::size_t r, std::size_t c, Direction o) {
  return along_rows(o) ? c : r;
}

/// The lane that anchors every line: the flow head of `o`.
std::size_t anchor_lane(std::size_t side, Direction o) {
  return o == Direction::West ? side - 1 : 0;
}

/// Line l mixes four patterns by l % 4: uniformly random values, a
/// tie-heavy three-value alphabet just under infinity, all infinity, and
/// ties among the values 0..2.
std::vector<Word> line_values(std::size_t side, int bits, Direction o, std::uint64_t seed) {
  util::Rng rng(seed);
  const Word inf = (Word{1} << bits) - 1;
  std::vector<Word> data(side * side);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      Word& v = data[r * side + c];
      switch (line_of(r, c, o) % 4) {
        case 0: v = static_cast<Word>(rng.below(inf + 1ull)); break;
        case 1: v = static_cast<Word>(inf - 2 + rng.below(3)); break;
        case 2: v = inf; break;
        default: v = static_cast<Word>(rng.below(3)); break;
      }
    }
  }
  return data;
}

/// What every fifth line selects.
enum class Special { None, Nothing, AnchorOnly };

/// About 60% of the PEs, with at least one per line — except that every
/// fifth line selects nothing, or its anchor only, as `special` says.
std::vector<sim::Flag> selection(std::size_t side, Direction o, std::uint64_t seed,
                                 Special special) {
  util::Rng rng(seed);
  std::vector<sim::Flag> sel(side * side);
  for (std::size_t r = 0; r < side; ++r) {
    for (std::size_t c = 0; c < side; ++c) {
      const std::size_t line = line_of(r, c, o);
      const std::size_t lane = lane_of(r, c, o);
      const bool special_line = line % 5 == 4 && special != Special::None;
      const bool chosen = special_line ? special == Special::AnchorOnly &&
                                             lane == anchor_lane(side, o)
                                       : lane == line % side || rng.chance(0.6);
      sel[r * side + c] = chosen ? sim::Flag{1} : sim::Flag{0};
    }
  }
  return sel;
}

/// Empty selections leave the route's anchor undriven, which an unchecked
/// machine rejects at the store; they ride the runs where that is not the
/// whole story — checked execution records it, the OR probe answers, the
/// where-mask leaves the line out. A lone anchor leaves it undriven on a
/// linear bus only: the route has no survivor upstream of it.
Special special_lines(const Setup& s) {
  if (s.scenario == Scenario::AnchorOnly) return Special::AnchorOnly;
  const bool empty = or_probe(s.primitive) || s.scenario == Scenario::FaultsChecked ||
                     s.scenario == Scenario::EmptyLines ||
                     s.scenario == Scenario::LineAmbient || s.scenario == Scenario::PartialLine;
  return empty ? Special::Nothing : Special::None;
}

/// Lines the LineAmbient mask leaves out: every fifth (the lines a
/// selection may empty) and every third from line 1.
bool line_masked_out(std::size_t line) { return line % 5 == 4 || line % 3 == 1; }

/// The where-mask a scenario runs its call in; empty: none.
std::vector<sim::Flag> ambient_of(const Setup& s) {
  const std::size_t n = s.side;
  std::vector<sim::Flag> active(n * n);
  if (s.scenario == Scenario::AmbientMask || s.scenario == Scenario::FaultsAmbient) {
    util::Rng rng(n);
    for (auto& f : active) f = rng.chance(0.7) ? sim::Flag{1} : sim::Flag{0};
    return active;
  }
  if (s.scenario != Scenario::LineAmbient && s.scenario != Scenario::PartialLine) return {};
  // PartialLine: the first line inside the mask from n/2 on also drops
  // lane (anchor + 1) mod n, which is not its anchor once n > 1.
  std::size_t partial = n;
  for (std::size_t l = n / 2; l < n && s.scenario == Scenario::PartialLine; ++l) {
    if (!line_masked_out(l)) {
      partial = l;
      break;
    }
  }
  const std::size_t dropped = (anchor_lane(n, s.orientation) + 1) % n;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t line = line_of(r, c, s.orientation);
      const bool out = line_masked_out(line) ||
                       (line == partial && lane_of(r, c, s.orientation) == dropped);
      active[r * n + c] = out ? sim::Flag{0} : sim::Flag{1};
    }
  }
  return active;
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

std::size_t fused_rows(std::size_t side) { return side - side / 3; }  // < n once n >= 3

sim::FaultModel faults_of(std::size_t side, bool stuck_wires) {
  const auto at = [side](std::size_t k) { return (k * 7 + 3) % side; };
  sim::FaultModel model;
  for (const sim::Axis axis : {sim::Axis::Row, sim::Axis::Column}) {
    const bool row = axis == sim::Axis::Row;
    model.add({sim::FaultKind::StuckOpen, axis, at(1), at(2)});
    // Jams one anchor: column n-1 anchors the rows, row 0 the columns.
    model.add({sim::FaultKind::StuckClosed, axis, row ? at(3) : 0, row ? side - 1 : at(3)});
    if (stuck_wires) {
      // Wire 0 of line 2 (line 1 on a side-2 array) stuck at 0, and at 1
      // on every third cycle; a wired-OR cycle carries its flag on wire 0.
      // Line 2 is all infinity (line 1 holds values just under it), so
      // the wires bite every call: a minimum round's OR reads 0 there, a
      // maximum round's 1, and a broadcast carries infinity's bit 0.
      const std::size_t wired = std::min<std::size_t>(2, side - 1);
      model.add({sim::FaultKind::StuckBit, axis, wired, 0, 0, false, 0, 0});
      model.add({sim::FaultKind::StuckBit, axis, wired, 0, 0, true, 3, 1});
    }
  }
  model.add({sim::FaultKind::DeadPe, sim::Axis::Row, at(4), at(5)});
  return model;
}

/// Host-side driven flags of a result, one per PE.
std::vector<sim::Flag> driven_flags(const Pint& v) {
  const Context& ctx = v.context();
  const std::size_t n = ctx.n();
  std::vector<sim::Flag> out(n * n, sim::Flag{1});
  if (!ctx.bitplane()) {
    const auto d = v.driven_view();
    std::copy(d.begin(), d.end(), out.begin());
    return out;
  }
  const auto d = v.driven_plane_view();
  if (d.empty()) return out;
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      out[r * n + c] = sim::plane_get(ctx.geometry(), d.data(), r, c) ? 1 : 0;
    }
  }
  return out;
}

/// One call on a fresh machine, with a trace sink attached unless
/// `traced` is false.
Observed observe(const Setup& s, sim::ExecBackend backend, bool traced = true) {
  const Scenario sc = s.scenario;
  const std::size_t n = s.side;
  sim::MachineConfig config;
  config.n = n;
  config.bits = s.bits != 0 ? s.bits : field_bits_of(n);
  config.topology = s.topology;
  config.backend = backend;
  config.checked = checked(sc);
  const bool ecc = sc == Scenario::FaultsEcc && backend == sim::ExecBackend::BitPlane;
  config.masking = sc == Scenario::FaultsTmr ? sim::BusMasking::Tmr
                   : ecc                     ? sim::BusMasking::Ecc
                                             : sim::BusMasking::None;
  sim::Machine m(config);
  if (sc == Scenario::InertFault) {
    m.inject_faults(test::inert_fault());
  } else if (!clean(sc)) {
    m.inject_faults(faults_of(n, sc != Scenario::FaultsEcc || ecc));
  }
  sim::RecordingTrace trace;
  if (traced) m.set_trace(&trace);
  Context ctx(m);
  const Pint src(ctx, line_values(n, config.bits, s.orientation, n * 31 + 7));
  Pbool anchor = s.orientation == Direction::West  ? (col_of(ctx) == static_cast<Word>(n - 1))
                 : s.orientation == Direction::East ? (col_of(ctx) == Word{0})
                                                    : (row_of(ctx) == Word{0});
  if (sc == Scenario::SplitAnchor) {
    // Line n/2 also opens at lane n/3 (n-1-n/3 East, mirrored), which
    // splits its wired-OR segment (on a 1x1 array that lane is the anchor
    // itself).
    std::vector<sim::Flag> extra(n * n);
    const std::size_t line = n / 2;
    extra[s.orientation == Direction::West   ? line * n + n / 3
          : s.orientation == Direction::East ? line * n + (n - 1 - n / 3)
                                             : (n / 3) * n + line] = 1;
    anchor = anchor | Pbool(ctx, extra);
  }
  const Pbool selected(ctx, selection(n, s.orientation, n * 17 + 5, special_lines(s)));
  const std::vector<Pbool> index_bits =
      s.primitive == Primitive::Fused ? column_index_planes(ctx) : std::vector<Pbool>{};

  Observed seen;
  const std::uint64_t dispatches_before = m.sweep_stats().dispatches;
  const auto call = [&] {
    try {
      if (s.primitive == Primitive::Fused) {
        std::vector<Word> min_line(n, Word{0xBEEF});
        std::vector<Word> arg_line(n, Word{0xBEEF});
        fused_row_min_argmin(src, index_bits, anchor, fused_rows(n), min_line, arg_line);
        seen.values = min_line;
        seen.values.insert(seen.values.end(), arg_line.begin(), arg_line.end());
        return;
      }
      const Pint result = apply(s.primitive, src, s.orientation, anchor, selected);
      seen.values.resize(n * n);
      for (std::size_t r = 0; r < n; ++r) {
        result.read_row(r, std::span<Word>(seen.values).subspan(r * n, n));
      }
      seen.driven = driven_flags(result);
      seen.fully_driven = result.fully_driven();
    } catch (const util::ContractError& e) {
      seen.error = e.what();
    }
  };
  if (const std::vector<sim::Flag> active = ambient_of(s); !active.empty()) {
    const Pbool cond(ctx, active);
    where(ctx, cond, call);
  } else {
    call();
  }
  seen.dispatches = m.sweep_stats().dispatches - dispatches_before;
  m.set_trace(nullptr);
  seen.steps = m.steps();
  seen.bus_cycles = m.bus_cycles();
  seen.masking = m.masking_stats();
  seen.fault_log = m.fault_events();
  seen.fault_count = m.fault_count();
  seen.events = trace.events();
  seen.traced_faults = trace.faults();
  seen.ladder_rows = m.row_ladder_rows();
  seen.charge_only = m.charge_only_cycles();
  return seen;
}

/// What an ECC machine records for the unmasked run `want`: every bus
/// cycle is followed by its parity beat, a Masking cycle of
/// bit_width(planes) spare wires over the same switches, charged and
/// traced like the cycle it rides, and every bus cycle is one ECC vote.
Observed with_parity_beats(Observed want) {
  std::vector<sim::TraceEvent> events;
  for (const sim::TraceEvent& e : want.events) {
    events.push_back(e);
    if (e.category != sim::StepCategory::BusOr && e.category != sim::StepCategory::BusBroadcast) {
      continue;
    }
    want.steps.charge_bus(sim::StepCategory::Masking, e.max_segment);
    ++want.masking.votes;
    events.push_back(sim::TraceEvent{sim::StepCategory::Masking, e.direction, e.open_count,
                                     e.max_segment, 1,
                                     static_cast<std::size_t>(std::bit_width(e.planes))});
  }
  want.events = std::move(events);
  return want;
}

void expect_same(const Observed& got, const Observed& want, bool ecc) {
  EXPECT_EQ(got.error, want.error);
  EXPECT_TRUE(got.values == want.values);
  EXPECT_TRUE(got.driven == want.driven);
  EXPECT_EQ(got.fully_driven, want.fully_driven);
  EXPECT_EQ(got.bus_cycles, want.bus_cycles);
  EXPECT_TRUE(got.fault_log == want.fault_log);
  EXPECT_EQ(got.fault_count, want.fault_count);
  EXPECT_TRUE(got.traced_faults == want.traced_faults);
  if (ecc) {
    // The wires hit one data wire per cycle: ECC repairs every hit.
    const Observed coded = with_parity_beats(want);
    EXPECT_TRUE(got.steps == coded.steps) << got.steps.summary() << " vs "
                                          << coded.steps.summary();
    EXPECT_EQ(got.masking.votes, coded.masking.votes);
    EXPECT_EQ(got.masking.uncorrectable, 0u);
    EXPECT_TRUE(got.events == coded.events)
        << got.events.size() << " vs " << coded.events.size() << " events";
    return;
  }
  EXPECT_TRUE(got.steps == want.steps) << got.steps.summary() << " vs " << want.steps.summary();
  EXPECT_EQ(got.steps.total_under(sim::BusDelayModel::Log),
            want.steps.total_under(sim::BusDelayModel::Log));
  EXPECT_EQ(got.steps.total_under(sim::BusDelayModel::Linear),
            want.steps.total_under(sim::BusDelayModel::Linear));
  EXPECT_TRUE(got.masking == want.masking);
  EXPECT_TRUE(got.events == want.events)
      << got.events.size() << " vs " << want.events.size() << " events";
}

/// Fault-free and unmasked, every driven PE holds its cluster's extreme
/// over the candidates (the field's infinity, or 0 for the maximum, on an
/// empty OR-probe selection); the fused lines hold each row's minimum and
/// its smallest column, and rows past `rows` are left alone.
void expect_host_answer(const Setup& s, const Observed& got) {
  const std::size_t n = s.side;
  const int bits = field_bits_of(n);
  const std::vector<Word> data = line_values(n, bits, s.orientation, n * 31 + 7);
  if (s.primitive == Primitive::Fused) {
    for (std::size_t r = 0; r < n; ++r) {
      if (r >= fused_rows(n)) {
        ASSERT_EQ(got.values[r], Word{0xBEEF}) << "row " << r << " is past `rows`";
        continue;
      }
      const auto first = data.begin() + static_cast<std::ptrdiff_t>(r * n);
      const auto best = std::min_element(first, first + static_cast<std::ptrdiff_t>(n));
      ASSERT_EQ(got.values[r], *best) << "row " << r;
      ASSERT_EQ(got.values[n + r], static_cast<Word>(best - first)) << "row " << r;
    }
    return;
  }
  const std::vector<sim::Flag> sel = selection(n, s.orientation, n * 17 + 5, special_lines(s));
  const bool max = keeps_max(s.primitive);
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      if (!got.driven[r * n + c]) continue;
      Word want = max ? Word{0} : (Word{1} << bits) - 1;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t pe = along_rows(s.orientation) ? r * n + k : k * n + c;
        if (selects(s.primitive) && sel[pe] == 0) continue;
        want = max ? std::max(want, data[pe]) : std::min(want, data[pe]);
      }
      ASSERT_EQ(got.values[r * n + c], want) << "PE (" << r << ", " << c << ")";
    }
  }
}

std::string describe(const Setup& s) {
  return "side=" + std::to_string(s.side) +
         (s.topology == sim::BusTopology::Ring ? " ring" : " linear") +
         (s.orientation == Direction::West   ? " rows west"
          : s.orientation == Direction::East ? " rows east"
                                             : " columns") +
         " scenario=" + std::to_string(static_cast<int>(s.scenario)) +
         " primitive=" + std::to_string(static_cast<int>(s.primitive));
}

/// Which way a row call's route and spread went. Where every storing row
/// routes its extreme to a reachable anchor (a survivor upstream of it, an
/// ambient mask over the whole row), the two broadcasts are charged and
/// not resolved, so no row reaches the ladder. A line that drops one lane
/// from the mask puts the call on the resolved route, where line 2 (all
/// infinity: every lane survives) takes the ladder; a storing line with no
/// survivor, or with its anchor alone on a linear bus, is an undriven
/// store there. A line the mask leaves out may select nothing.
void expect_route_path(const Setup& s, const Observed& got) {
  const bool ring = s.topology == sim::BusTopology::Ring;
  const bool routes = !or_probe(s.primitive) && s.primitive != Primitive::Fused;
  const bool fifth_line = s.side >= 5 && selects(s.primitive) && routes;
  switch (s.scenario) {
    case Scenario::Clean:
    case Scenario::LineAmbient:
      if (ring) {
        EXPECT_EQ(got.error, "");
      }
      if (got.error.empty()) {
        EXPECT_EQ(got.ladder_rows, 0u);
      }
      break;
    case Scenario::PartialLine:
      if (s.side >= 3 && routes && !selects(s.primitive)) {
        EXPECT_GT(got.ladder_rows, 0u);
      }
      break;
    case Scenario::EmptyLines:
      if (fifth_line) {
        EXPECT_GT(got.fault_count, 0u);
      }
      break;
    case Scenario::AnchorOnly:
      if (ring) {
        EXPECT_EQ(got.ladder_rows, 0u);
        EXPECT_EQ(got.fault_count, 0u);
      } else if (fifth_line) {
        EXPECT_GT(got.fault_count, 0u);
      }
      break;
    default: break;
  }
}

/// Runs `primitives` along `orientations` in every topology and scenario.
void expect_core_matches_listing(std::size_t side, std::span<const Primitive> primitives,
                                 std::initializer_list<Direction> orientations) {
  for (const auto topology : {sim::BusTopology::Ring, sim::BusTopology::Linear}) {
    for (const Direction orientation : orientations) {
      for (const Scenario scenario : kScenarios) {
        for (const Primitive primitive : primitives) {
          const Setup setup{side, topology, orientation, scenario, primitive};
          SCOPED_TRACE(describe(setup));
          const Observed want = observe(setup, sim::ExecBackend::Words);
          const Observed got = observe(setup, sim::ExecBackend::BitPlane);
          expect_same(got, want, scenario == Scenario::FaultsEcc);
          if (scenario == Scenario::FaultsEcc && side > 1) {
            // The wires bit, and ECC repaired them (a 1x1 array's only PE
            // is the dead one, so no wire carries anything there).
            EXPECT_GT(got.masking.corrections, 0u);
          }
          if (clean(scenario)) {
            // Traced or not, the same answer and the same charges.
            const Observed bare = observe(setup, sim::ExecBackend::BitPlane, false);
            EXPECT_EQ(bare.error, got.error);
            EXPECT_TRUE(bare.values == got.values);
            EXPECT_TRUE(bare.driven == got.driven);
            EXPECT_TRUE(bare.steps == got.steps);
            EXPECT_EQ(bare.bus_cycles, got.bus_cycles);
            EXPECT_EQ(bare.ladder_rows, got.ladder_rows);
            EXPECT_TRUE(bare.events.empty());
          }
          if (along_rows(orientation)) expect_route_path(setup, got);
          if (scenario != Scenario::Clean) continue;
          // A Ring route always reaches the anchor: only the Linear one may throw.
          if (topology == sim::BusTopology::Ring) {
            EXPECT_EQ(got.error, "");
          }
          if (got.error.empty()) expect_host_answer(setup, got);
        }
      }
    }
  }
}

const auto kSides = ::testing::Values(1, 2, 3, 5, 7, 16, 63, 64, 65, 96, 128, 130);

std::string side_name(const ::testing::TestParamInfo<std::size_t>& side_info) {
  return "Side" + std::to_string(side_info.param);
}

class MinMaxBackendDiff : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MinMaxBackendDiff, CoreMatchesListing) {
  expect_core_matches_listing(GetParam(), kMinMax,
                              {Direction::West, Direction::East, Direction::South});
}

// A stuck-open row switch at (x, p), 0 < p < n-1, gives row x a second
// driver on both row broadcasts of min(): the spread (every row opens only
// its anchor, column n-1) and the route. The values rise along every row
// from a unique minimum at column 0, so every other row routes from one
// lane; in row x the switch splits the elimination's wired-OR segments,
// which keep a survivor each. So exactly row x has two Open lanes on each
// row broadcast cycle — each TMR trial and each ECC parity beat included —
// and sends that cycle to the segmented fill. Values, driven flags,
// steps, bus cycles, the trace and the fault log must match the word
// backend's listing, unmasked, under TMR and under ECC.
struct StuckOpenRun {
  Observed seen;
  std::uint64_t ladder_rows = 0;
};

StuckOpenRun observe_stuck_open(std::size_t n, sim::BusTopology topology, Primitive primitive,
                                sim::BusMasking masking, sim::ExecBackend backend,
                                bool faulty) {
  sim::MachineConfig config = config_of(n, field_bits_of(n));
  config.topology = topology;
  config.backend = backend;
  config.masking = masking;
  sim::Machine m(config);
  if (faulty) {
    sim::FaultModel model;
    model.add({sim::FaultKind::StuckOpen, sim::Axis::Row, n / 2, n / 3});
    m.inject_faults(model);
  }
  sim::RecordingTrace trace;
  m.set_trace(&trace);
  Context ctx(m);
  std::vector<Word> values(n * n);
  std::vector<sim::Flag> chosen(n * n);
  for (std::size_t pe = 0; pe < n * n; ++pe) {
    const std::size_t r = pe / n;
    const std::size_t c = pe % n;
    values[pe] = static_cast<Word>(c + r % 3);
    chosen[pe] = c == 0 || (r + c) % 3 != 1 ? sim::Flag{1} : sim::Flag{0};
  }
  const Pint src(ctx, values);
  const Pbool anchor = col_of(ctx) == static_cast<Word>(n - 1);
  const Pbool selected(ctx, chosen);
  StuckOpenRun run;
  Observed& seen = run.seen;
  try {
    const Pint result = apply(primitive, src, Direction::West, anchor, selected);
    seen.values.resize(n * n);
    for (std::size_t r = 0; r < n; ++r) {
      result.read_row(r, std::span<Word>(seen.values).subspan(r * n, n));
    }
    seen.driven = driven_flags(result);
    seen.fully_driven = result.fully_driven();
  } catch (const util::ContractError& e) {
    seen.error = e.what();
  }
  m.set_trace(nullptr);
  seen.steps = m.steps();
  seen.bus_cycles = m.bus_cycles();
  seen.masking = m.masking_stats();
  seen.fault_log = m.fault_events();
  seen.fault_count = m.fault_count();
  seen.events = trace.events();
  seen.traced_faults = trace.faults();
  run.ladder_rows = m.row_ladder_rows();
  return run;
}

TEST_P(MinMaxBackendDiff, StuckOpenRowSwitchPutsOneRowOnTheLadder) {
  const std::size_t n = GetParam();
  if (n < 3) return;  // no column strictly between the route's driver and the anchor
  for (const auto topology : {sim::BusTopology::Ring, sim::BusTopology::Linear}) {
    for (const Primitive primitive : {Primitive::Pmin, Primitive::SelectedMin}) {
      for (const auto masking :
           {sim::BusMasking::None, sim::BusMasking::Tmr, sim::BusMasking::Ecc}) {
        const bool ecc = masking == sim::BusMasking::Ecc;
        SCOPED_TRACE("side=" + std::to_string(n) +
                     (topology == sim::BusTopology::Ring ? " ring" : " linear") +
                     " primitive=" + std::to_string(static_cast<int>(primitive)) +
                     " masking=" + std::to_string(static_cast<int>(masking)));
        const StuckOpenRun want =
            observe_stuck_open(n, topology, primitive, ecc ? sim::BusMasking::None : masking,
                               sim::ExecBackend::Words, true);
        const StuckOpenRun got = observe_stuck_open(n, topology, primitive, masking,
                                                    sim::ExecBackend::BitPlane, true);
        expect_same(got.seen, want.seen, ecc);
        // The route and the spread, each run once, three times under TMR,
        // or followed by its parity beat under ECC.
        const std::uint64_t cycles = masking == sim::BusMasking::Tmr ? 3 : ecc ? 2 : 1;
        EXPECT_EQ(got.ladder_rows, 2 * cycles);
        const StuckOpenRun clean = observe_stuck_open(n, topology, primitive, masking,
                                                      sim::ExecBackend::BitPlane, false);
        EXPECT_EQ(clean.ladder_rows, 0u);
        EXPECT_EQ(clean.seen.error, "");
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, MinMaxBackendDiff, kSides, side_name);

class FusedRowMinArgmin : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FusedRowMinArgmin, MatchesEdslReferenceEverywhere) {
  constexpr Primitive kFused[] = {Primitive::Fused};
  expect_core_matches_listing(GetParam(), kFused, {Direction::West});
}

INSTANTIATE_TEST_SUITE_P(Sides, FusedRowMinArgmin, kSides, side_name);

// Which path ran, read off the plane kernel dispatches of one call at two
// field widths (8 and 16 value rounds) and off Machine::charge_only_cycles().
// On a clean row bus whose rows open only their anchor, every round runs in
// one row elimination kernel call, so the count does not move with the
// rounds, and the machine charges every round from its plan; a second Open
// lane in one row, a column axis or a fault (even one that never bites)
// puts the call on the per-round path, which dispatches at least two sweeps
// per round (the probe and the store into enable) and resolves every
// cycle. Either way the call matches the listing (above).
void expect_kernel_only_on_clean_rows(std::size_t side) {
  std::vector<Primitive> primitives(std::begin(kMinMax), std::end(kMinMax));
  primitives.push_back(Primitive::Fused);
  for (const auto topology : {sim::BusTopology::Ring, sim::BusTopology::Linear}) {
    for (const Direction orientation : {Direction::West, Direction::East, Direction::South}) {
      for (const Scenario scenario : {Scenario::Clean, Scenario::AmbientMask,
                                      Scenario::LineAmbient, Scenario::SplitAnchor,
                                      Scenario::FaultsTmr, Scenario::InertFault}) {
        for (const Primitive primitive : primitives) {
          if (primitive == Primitive::Fused && orientation != Direction::West) continue;
          Setup setup{side, topology, orientation, scenario, primitive, 8};
          SCOPED_TRACE(describe(setup));
          const Observed narrow = observe(setup, sim::ExecBackend::BitPlane, false);
          setup.bits = 16;
          const Observed wide = observe(setup, sim::ExecBackend::BitPlane, false);
          if (!narrow.error.empty() || !wide.error.empty()) continue;
          const bool kernel = along_rows(orientation) &&
                              (scenario == Scenario::Clean || scenario == Scenario::AmbientMask ||
                               scenario == Scenario::LineAmbient);
          if (kernel) {
            EXPECT_EQ(wide.dispatches, narrow.dispatches);
            EXPECT_GE(narrow.charge_only, 8u);
            EXPECT_GE(wide.charge_only, 16u);
            // A mask over whole rows leaves every route known.
            if (scenario != Scenario::AmbientMask) {
              EXPECT_EQ(narrow.ladder_rows, 0u);
              EXPECT_EQ(wide.ladder_rows, 0u);
            }
          } else {
            EXPECT_GE(wide.dispatches, narrow.dispatches + 2 * 8);
            EXPECT_EQ(narrow.charge_only, 0u);
            EXPECT_EQ(wide.charge_only, 0u);
          }
        }
      }
    }
  }
}

class MinMaxKernelPath : public ::testing::TestWithParam<std::size_t> {};

TEST_P(MinMaxKernelPath, DispatchesScaleWithRoundsOnlyOffTheKernel) {
  expect_kernel_only_on_clean_rows(GetParam());
}

// The solver's min() pair (mcp.cpp, statements 11–12): each row's minimum,
// then the smallest column holding it. On a clean ring machine both calls'
// routes and spreads are charged and not resolved, traced or not, so no
// row reaches the ladder; every PE holds its row's minimum and argmin.
TEST_P(MinMaxKernelPath, CleanPminThenSelectedMinStayOffTheLadder) {
  const std::size_t n = GetParam();
  for (const Direction o : {Direction::West, Direction::East}) {
    for (const bool traced : {false, true}) {
      SCOPED_TRACE(std::string(o == Direction::West ? "west" : "east") +
                   (traced ? " traced" : ""));
      sim::MachineConfig config = config_of(n, field_bits_of(n));
      config.backend = sim::ExecBackend::BitPlane;
      sim::Machine m(config);
      sim::RecordingTrace trace;
      if (traced) m.set_trace(&trace);
      Context ctx(m);
      const std::vector<Word> data = line_values(n, config.bits, o, n * 31 + 7);
      const Pint src(ctx, data);
      const Pint index = col_of(ctx);
      const Pbool anchor = index == static_cast<Word>(anchor_lane(n, o));
      const Pint min = pmin(src, o, anchor);
      const Pint arg = selected_min(index, o, anchor, min == src);
      EXPECT_EQ(m.row_ladder_rows(), 0u);
      ASSERT_TRUE(min.fully_driven());
      ASSERT_TRUE(arg.fully_driven());
      std::vector<Word> got_min(n), got_arg(n);
      for (std::size_t r = 0; r < n; ++r) {
        min.read_row(r, got_min);
        arg.read_row(r, got_arg);
        const auto first = data.begin() + static_cast<std::ptrdiff_t>(r * n);
        const auto best = std::min_element(first, first + static_cast<std::ptrdiff_t>(n));
        for (std::size_t c = 0; c < n; ++c) {
          ASSERT_EQ(got_min[c], *best) << "PE (" << r << ", " << c << ")";
          ASSERT_EQ(got_arg[c], static_cast<Word>(best - first)) << "PE (" << r << ", " << c << ")";
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, MinMaxKernelPath, ::testing::Values(5, 64, 65, 128, 130),
                         side_name);

// ---------------------------------------------------------------------------
// Statement 10 (broadcast_add, in the full array's and the sweep engine's
// form) and statements 15–18 (pullback) on the bit-plane backend against
// their eDSL statements on the word backend, observed as above. The state
// the primitives write (SOW, and for the pullback OLD_SOW, PTN and the
// returned `changed`) is compared whether or not the call threw, so a
// store that throws must leave the same partial state as the statements.
// ---------------------------------------------------------------------------

enum class Relax {
  Candidates,       // where(!carrier) broadcast_add(...): the full array's form
  SweepCandidates,  // broadcast_add(..., &not_carrier): the sweep engine's form
  OverlapCandidates,  // the sweep form with every PE a receiver, the carrier too
  Pullback,
};

constexpr Scenario kRelaxScenarios[] = {
    Scenario::Clean,     Scenario::AmbientMask, Scenario::FaultsChecked,
    Scenario::FaultsAmbient, Scenario::FaultsTmr, Scenario::FaultsEcc,
    Scenario::Tainted,   Scenario::TaintedChecked, Scenario::CarrierAmbient,
    Scenario::InertFault};

struct RelaxSetup {
  std::size_t side;
  sim::BusTopology topology;
  bool two_sided;
  std::size_t carrier;  // the carrier row; the pullback's row d
  Scenario scenario;
  Relax primitive;
};

/// The operands, row-major. SOW, W and PTN mix random values with 0 and
/// infinity (the adds saturate); MIN_SOW's diagonal repeats row d's SOW in
/// every third column, so the pullback changes some PEs and not others.
/// Column 2 (1 on a side-2 array) of SOW, MIN_SOW and PTN is all infinity,
/// so the stuck wire on that column line bites every broadcast.
struct RelaxOperands {
  std::vector<Word> sow, w, min_sow, ptn;
};

RelaxOperands relax_operands(const RelaxSetup& s, int bits) {
  const std::size_t n = s.side;
  const Word inf = (Word{1} << bits) - 1;
  util::Rng rng(n * 131 + s.carrier);
  const auto draw = [&] {
    const std::uint64_t kind = rng.below(8);
    return kind == 0 ? Word{0} : kind == 1 ? inf : static_cast<Word>(rng.below(inf + 1ull));
  };
  const std::size_t wired = std::min<std::size_t>(2, n - 1);
  RelaxOperands ops;
  for (auto* v : {&ops.sow, &ops.w, &ops.min_sow, &ops.ptn}) {
    v->resize(n * n);
    for (std::size_t pe = 0; pe < n * n; ++pe) (*v)[pe] = pe % n == wired ? inf : draw();
  }
  for (std::size_t pe = 0; pe < n * n; ++pe) {
    if (pe % n != wired) ops.w[pe] = draw();
  }
  for (std::size_t c = 0; c < n; c += 3) ops.min_sow[c * n + c] = ops.sow[s.carrier * n + c];
  return ops;
}

/// `values` with about one element in seven undriven (and read as 0) when
/// `tainted`, PE `undriven` always among them: a select between the loaded
/// values and a broadcast with no Open node, whose every element floats.
Pint maybe_tainted(Context& ctx, const std::vector<Word>& values, bool tainted,
                   std::uint64_t seed, std::size_t undriven) {
  if (!tainted) return Pint(ctx, values);
  util::Rng rng(seed);
  std::vector<sim::Flag> keep(values.size());
  for (auto& f : keep) f = rng.chance(6.0 / 7.0) ? sim::Flag{1} : sim::Flag{0};
  keep[undriven] = 0;
  const Pint loaded(ctx, values);
  const Pint floating = broadcast(loaded, Direction::East, Pbool(ctx, false));
  return select(Pbool(ctx, keep), loaded, floating);
}

void append(Observed& seen, const Pint& v) {
  const std::size_t n = v.context().n();
  const std::size_t at = seen.values.size();
  seen.values.resize(at + n * n);
  for (std::size_t r = 0; r < n; ++r) {
    v.read_row(r, std::span<Word>(seen.values).subspan(at + r * n, n));
  }
  const std::vector<sim::Flag> driven = driven_flags(v);
  seen.driven.insert(seen.driven.end(), driven.begin(), driven.end());
  seen.fully_driven = seen.fully_driven && v.fully_driven();
}

/// The carrier's columns [lo, hi): its whole row, or under CarrierAmbient
/// the middle of it.
std::pair<std::size_t, std::size_t> carrier_columns(const RelaxSetup& s) {
  const std::size_t lo = s.scenario == Scenario::CarrierAmbient ? s.side / 4 : 0;
  return {lo, s.side - lo};
}

/// The where-mask a scenario runs the call under, row-major (empty: none):
/// about 70% of the PEs, and under CarrierAmbient only of those the
/// broadcast drives or that carry.
std::vector<sim::Flag> relax_where_mask(const RelaxSetup& s) {
  const Scenario sc = s.scenario;
  if (sc != Scenario::AmbientMask && sc != Scenario::FaultsAmbient &&
      sc != Scenario::CarrierAmbient) {
    return {};
  }
  const std::size_t n = s.side;
  const auto [lo, hi] = carrier_columns(s);
  util::Rng rng(n);
  std::vector<sim::Flag> active(n * n);
  for (std::size_t pe = 0; pe < n * n; ++pe) {
    const std::size_t r = pe / n;
    const std::size_t c = pe % n;
    const bool driven = sc != Scenario::CarrierAmbient ||
                        (c >= lo && c < hi &&
                         (s.topology == sim::BusTopology::Ring || r >= s.carrier));
    active[pe] = driven && rng.chance(0.7) ? sim::Flag{1} : sim::Flag{0};
  }
  return active;
}

Observed observe_relax(const RelaxSetup& s, sim::ExecBackend backend) {
  const Scenario sc = s.scenario;
  const std::size_t n = s.side;
  sim::MachineConfig config;
  config.n = n;
  config.bits = field_bits_of(n);
  config.topology = s.topology;
  config.backend = backend;
  config.checked = sc == Scenario::FaultsChecked || sc == Scenario::TaintedChecked;
  const bool ecc = sc == Scenario::FaultsEcc && backend == sim::ExecBackend::BitPlane;
  config.masking = sc == Scenario::FaultsTmr ? sim::BusMasking::Tmr
                   : ecc                     ? sim::BusMasking::Ecc
                                             : sim::BusMasking::None;
  sim::Machine m(config);
  const bool faults = sc == Scenario::FaultsChecked || sc == Scenario::FaultsAmbient ||
                      sc == Scenario::FaultsTmr || sc == Scenario::FaultsEcc;
  if (faults) m.inject_faults(faults_of(n, sc != Scenario::FaultsEcc || ecc));
  if (sc == Scenario::InertFault) m.inject_faults(test::inert_fault());
  sim::RecordingTrace trace;
  m.set_trace(&trace);
  Context ctx(m);
  const RelaxOperands ops = relax_operands(s, config.bits);
  const bool tainted = sc == Scenario::Tainted || sc == Scenario::TaintedChecked;
  // The carrier row's SOW and one diagonal MIN_SOW are undriven in a
  // column off the carrier's diagonal, so the taint reaches a store.
  const std::size_t tainted_col = (s.carrier + 1) % n;
  Pint sow = maybe_tainted(ctx, ops.sow, tainted, n * 3 + 1, s.carrier * n + tainted_col);
  const Pint W(ctx, ops.w);
  const Pint min_sow =
      maybe_tainted(ctx, ops.min_sow, tainted, n * 5 + 2, tainted_col * n + tainted_col);
  Pint ptn(ctx, ops.ptn);
  Pint old_sow(ctx, 0);
  Pbool carrier = (row_of(ctx) == static_cast<Word>(s.carrier));
  if (sc == Scenario::CarrierAmbient) {
    const auto [lo, hi] = carrier_columns(s);
    carrier = carrier & !(col_of(ctx) < static_cast<Word>(lo)) &
              (col_of(ctx) < static_cast<Word>(hi));
  }
  const Pbool not_carrier = !carrier;
  std::optional<Pbool> everyone;
  if (s.primitive == Relax::OverlapCandidates) everyone.emplace(ctx, true);
  const Pbool diagonal = (row_of(ctx) == col_of(ctx));

  Observed seen;
  std::vector<Word> changed(n * n, Word{0xBEEF});
  const auto call = [&] {
    try {
      switch (s.primitive) {
        case Relax::Candidates:
          where(ctx, not_carrier, [&] { broadcast_add(sow, W, carrier, s.two_sided); });
          break;
        case Relax::SweepCandidates:
          broadcast_add(sow, W, carrier, s.two_sided, &not_carrier);
          break;
        case Relax::OverlapCandidates:
          broadcast_add(sow, W, carrier, s.two_sided, &*everyone);
          break;
        case Relax::Pullback: {
          const Pbool flags = pullback(sow, old_sow, ptn, min_sow, carrier, diagonal, s.two_sided);
          EXPECT_TRUE(flags.fully_driven());
          for (std::size_t pe = 0; pe < n * n; ++pe) changed[pe] = flags.at(pe) ? 1 : 0;
          break;
        }
      }
    } catch (const util::ContractError& e) {
      seen.error = e.what();
    }
  };
  const std::vector<sim::Flag> active = relax_where_mask(s);
  if (!active.empty()) {
    const Pbool cond(ctx, active);
    where(ctx, cond, call);
  } else {
    call();
  }
  m.set_trace(nullptr);
  seen.charge_only = m.charge_only_cycles();
  append(seen, sow);
  if (s.primitive == Relax::Pullback) {
    append(seen, old_sow);
    append(seen, ptn);
    seen.values.insert(seen.values.end(), changed.begin(), changed.end());
  }
  seen.steps = m.steps();
  seen.bus_cycles = m.bus_cycles();
  seen.masking = m.masking_stats();
  seen.fault_log = m.fault_events();
  seen.fault_count = m.fault_count();
  seen.events = trace.events();
  seen.traced_faults = trace.faults();
  return seen;
}

/// Fault-free on a Ring, with a full ambient mask: statement 10 leaves PE
/// (r, c) off the carrier row with min(SOW[carrier][c] + w_rc, infinity)
/// (the sweep form gives the carrier row its own SOW + w, and twice that
/// when the carrier is a receiver too), and the pullback
/// moves MIN_SOW's diagonal and, where that changed row d, PTN's into row
/// d, diagonal element excepted.
void expect_relax_host_answer(const RelaxSetup& s, const Observed& got) {
  const std::size_t n = s.side;
  const int bits = field_bits_of(n);
  const Word inf = (Word{1} << bits) - 1;
  const RelaxOperands ops = relax_operands(s, bits);
  const std::size_t d = s.carrier;
  const auto sat = [inf](Word a, Word b) { return std::min<Word>(a + b, inf); };
  for (std::size_t r = 0; r < n; ++r) {
    for (std::size_t c = 0; c < n; ++c) {
      const std::size_t pe = r * n + c;
      if (s.primitive != Relax::Pullback) {
        const Word want = r != d ? sat(ops.sow[d * n + c], ops.w[pe])
                          : s.primitive == Relax::SweepCandidates ? sat(ops.sow[pe], ops.w[pe])
                          // The carrier hears itself around the ring, then adds again.
                          : s.primitive == Relax::OverlapCandidates
                              ? sat(sat(ops.sow[pe], ops.w[pe]), ops.w[pe])
                              : ops.sow[pe];
        ASSERT_EQ(got.values[pe], want) << "PE (" << r << ", " << c << ")";
        continue;
      }
      const bool pulled = r == d && c != d;
      const bool changed = pulled && ops.min_sow[c * n + c] != ops.sow[pe];
      ASSERT_EQ(got.values[pe], pulled ? ops.min_sow[c * n + c] : ops.sow[pe]) << pe;
      ASSERT_EQ(got.values[n * n + pe], pulled ? ops.sow[pe] : Word{0}) << pe;
      ASSERT_EQ(got.values[2 * n * n + pe], changed ? ops.ptn[c * n + c] : ops.ptn[pe]) << pe;
      ASSERT_EQ(got.values[3 * n * n + pe], changed ? Word{1} : Word{0}) << pe;
    }
  }
}

std::string describe(const RelaxSetup& s) {
  return "side=" + std::to_string(s.side) +
         (s.topology == sim::BusTopology::Ring ? " ring" : " linear") +
         (s.two_sided ? " two-sided" : " one-sided") + " carrier=" + std::to_string(s.carrier) +
         " scenario=" + std::to_string(static_cast<int>(s.scenario)) +
         " primitive=" + std::to_string(static_cast<int>(s.primitive));
}

/// Runs `primitives` on both topologies and schemes, with the carrier at
/// the first, middle and last row, in every scenario.
void expect_relax_matches_listing(std::size_t side, std::initializer_list<Relax> primitives) {
  std::uint64_t ecc_corrections = 0;
  for (const auto topology : {sim::BusTopology::Ring, sim::BusTopology::Linear}) {
    for (const bool two_sided : {false, true}) {
      for (const std::size_t carrier : {std::size_t{0}, side / 2, side - 1}) {
        for (const Scenario scenario : kRelaxScenarios) {
          for (const Relax primitive : primitives) {
            const RelaxSetup setup{side, topology, two_sided, carrier, scenario, primitive};
            SCOPED_TRACE(describe(setup));
            const Observed want = observe_relax(setup, sim::ExecBackend::Words);
            const Observed got = observe_relax(setup, sim::ExecBackend::BitPlane);
            expect_same(got, want, scenario == Scenario::FaultsEcc);
            if (scenario == Scenario::FaultsEcc) ecc_corrections += got.masking.corrections;
            if (scenario == Scenario::Tainted && side > 1) {
              // Some tainted element reaches a store, and the unchecked
              // machine rejects it: the throw path is exercised.
              EXPECT_NE(got.error, "");
            }
            if (scenario == Scenario::TaintedChecked && side > 1) {
              EXPECT_GT(got.fault_count, 0u);
            }
            if (scenario != Scenario::Clean || topology != sim::BusTopology::Ring) continue;
            EXPECT_EQ(got.error, "");
            expect_relax_host_answer(setup, got);
          }
        }
      }
    }
  }
  // Some cases hear no wire hit (a Linear broadcast from the last row
  // reaches nobody, a dead PE sits on the wired line), but the wires bite
  // somewhere, and ECC repairs them (a 1x1 array's only PE is the dead one).
  if (side > 1) {
    EXPECT_GT(ecc_corrections, 0u);
  }
}

class BroadcastAddBackendDiff : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BroadcastAddBackendDiff, InPlaceMatchesListing) {
  expect_relax_matches_listing(GetParam(), {Relax::Candidates, Relax::SweepCandidates,
                                            Relax::OverlapCandidates});
}

INSTANTIATE_TEST_SUITE_P(Sides, BroadcastAddBackendDiff, kSides, side_name);

// Which path statement 10 took, read off Machine::charge_only_cycles():
// a one-sided call on a clean machine whose SOW and W are fully driven
// reads the carrier's row alone and adds it in one pass, on either
// topology and in either form; a two-sided, faulty (even inertly), TMR, ECC
// or tainted call, or a sweep-form call whose receivers' stores (under the where-mask)
// meet the carrier's, resolves the whole broadcast. The values, steps and
// traces of every case are BroadcastAddBackendDiff's.
class BroadcastAddKernelPath : public ::testing::TestWithParam<std::size_t> {};

TEST_P(BroadcastAddKernelPath, CleanOneSidedCallsReadTheCarrierRowAlone) {
  const std::size_t side = GetParam();
  for (const auto topology : {sim::BusTopology::Ring, sim::BusTopology::Linear}) {
    for (const bool two_sided : {false, true}) {
      for (const std::size_t carrier : {std::size_t{0}, side / 2, side - 1}) {
        for (const Scenario scenario : kRelaxScenarios) {
          for (const Relax primitive :
               {Relax::Candidates, Relax::SweepCandidates, Relax::OverlapCandidates}) {
            const RelaxSetup setup{side, topology, two_sided, carrier, scenario, primitive};
            SCOPED_TRACE(describe(setup));
            const bool clean = scenario == Scenario::Clean || scenario == Scenario::AmbientMask ||
                               scenario == Scenario::CarrierAmbient;
            // Every PE is an OverlapCandidates receiver: do the stores meet
            // a carrier lane?
            const std::vector<sim::Flag> active = relax_where_mask(setup);
            const auto [lo, hi] = carrier_columns(setup);
            bool overlap = false;
            for (std::size_t c = lo; c < hi; ++c) {
              overlap = overlap || active.empty() || active[carrier * side + c] != 0;
            }
            overlap = overlap && primitive == Relax::OverlapCandidates;
            const bool line = clean && !two_sided && !overlap;
            EXPECT_EQ(observe_relax(setup, sim::ExecBackend::BitPlane).charge_only,
                      line ? 1u : 0u);
          }
        }
      }
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Sides, BroadcastAddKernelPath, ::testing::Values(1, 5, 64, 65, 130),
                         side_name);

class PullbackBackendDiff : public ::testing::TestWithParam<std::size_t> {};

TEST_P(PullbackBackendDiff, InPlaceMatchesListing) {
  expect_relax_matches_listing(GetParam(), {Relax::Pullback});
}

INSTANTIATE_TEST_SUITE_P(Sides, PullbackBackendDiff, kSides, side_name);

// ---------------------------------------------------------------------------
// Charge-only cycles against their resolved run. A machine with a fault
// that never bites (InertFault) plans no cycle, so it resolves every bus
// cycle the clean machine charges from a plan without resolving: the
// kernel elimination's wired-ORs, min()'s known route and spread, and
// statement 10's driver row. Both runs are bit-plane runs of one setup, so
// values, driven flags, steps, bus_cycles(), masking counters, the fault
// log and the trace must agree exactly.
// ---------------------------------------------------------------------------

class ChargeOnlyParity : public ::testing::TestWithParam<std::size_t> {};

void expect_minmax_charge_only_parity(std::size_t side) {
  std::vector<Primitive> primitives(std::begin(kMinMax), std::end(kMinMax));
  primitives.push_back(Primitive::Fused);
  std::uint64_t planned = 0;
  for (const auto topology : {sim::BusTopology::Ring, sim::BusTopology::Linear}) {
    for (const Direction orientation : {Direction::West, Direction::East, Direction::South}) {
      for (const Primitive primitive : primitives) {
        if (primitive == Primitive::Fused && orientation != Direction::West) continue;
        Setup setup{side, topology, orientation, Scenario::Clean, primitive};
        const Observed charged = observe(setup, sim::ExecBackend::BitPlane);
        setup.scenario = Scenario::InertFault;
        SCOPED_TRACE(describe(setup));
        const Observed resolved = observe(setup, sim::ExecBackend::BitPlane);
        expect_same(resolved, charged, false);
        EXPECT_EQ(resolved.charge_only, 0u);
        planned += charged.charge_only;
      }
    }
  }
  EXPECT_GT(planned, 0u);  // the clean runs took the charge-only paths
}

TEST_P(ChargeOnlyParity, MinMaxCallsMatchTheirResolvedRun) {
  expect_minmax_charge_only_parity(GetParam());
}

TEST_P(ChargeOnlyParity, RelaxCallsMatchTheirResolvedRun) {
  const std::size_t side = GetParam();
  std::uint64_t planned = 0;
  for (const auto topology : {sim::BusTopology::Ring, sim::BusTopology::Linear}) {
    for (const bool two_sided : {false, true}) {
      for (const std::size_t carrier : {std::size_t{0}, side / 2, side - 1}) {
        for (const Relax primitive : {Relax::Candidates, Relax::SweepCandidates,
                                      Relax::OverlapCandidates, Relax::Pullback}) {
          RelaxSetup setup{side, topology, two_sided, carrier, Scenario::Clean, primitive};
          const Observed charged = observe_relax(setup, sim::ExecBackend::BitPlane);
          setup.scenario = Scenario::InertFault;
          SCOPED_TRACE(describe(setup));
          const Observed resolved = observe_relax(setup, sim::ExecBackend::BitPlane);
          expect_same(resolved, charged, false);
          EXPECT_EQ(resolved.charge_only, 0u);
          planned += charged.charge_only;
        }
      }
    }
  }
  EXPECT_GT(planned, 0u);  // the clean one-sided statement 10 read its driver row
}

INSTANTIATE_TEST_SUITE_P(Sides, ChargeOnlyParity, ::testing::Values(1, 2, 5, 63, 64, 65, 128, 130),
                         side_name);

TEST(MinMaxBackendDiffContract, UndrivenSelectionThrowsAfterTheListingsCharges) {
  for (const Primitive p : kMinMax) {
    if (!selects(p)) continue;
    SCOPED_TRACE(static_cast<int>(p));
    std::vector<Observed> runs;
    for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
      sim::MachineConfig config;
      config.n = 5;
      config.bits = 8;
      config.topology = sim::BusTopology::Linear;
      config.backend = backend;
      sim::Machine m(config);
      sim::RecordingTrace trace;
      m.set_trace(&trace);
      Context ctx(m);
      // No Open node anywhere: every receiver on a Linear line floats.
      const Pbool floating = broadcast(Pbool(ctx, true), Direction::East, Pbool(ctx, false));
      ASSERT_FALSE(floating.fully_driven());
      const Pbool anchor = (col_of(ctx) == Word{4});
      Observed seen;
      try {
        (void)apply(p, col_of(ctx), Direction::West, anchor, floating);
      } catch (const util::ContractError& e) {
        seen.error = e.what();
      }
      seen.steps = m.steps();
      seen.events = trace.events();
      runs.push_back(std::move(seen));
    }
    EXPECT_NE(runs[0].error, "");
    EXPECT_EQ(runs[1].error, runs[0].error);
    EXPECT_TRUE(runs[1].steps == runs[0].steps)
        << runs[1].steps.summary() << " vs " << runs[0].steps.summary();
    EXPECT_TRUE(runs[1].events == runs[0].events);
  }
}

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
    EXPECT_THROW(fused_row_min_argmin(floating, index_bits, row_end, 5, min_line, arg_line),
                 util::ContractError);
  }
}

}  // namespace
}  // namespace ppa::ppc
