// Fault-injection unit tests: the spec parser, the seeded random model,
// and the Machine-level semantics of each fault class (dead PEs never
// drive and read 0, stuck switch boxes rewrite the effective Open mask,
// stuck bus-line bits force wires of received values, stuck-closed program
// drivers are reported as bus contention in checked mode). The bus-cycle
// parity table runs a word-backend and a bit-plane machine under one
// FaultModel and asserts they agree bit for bit: the machine-level anchor
// for the backend differential on faulty runs.
#include "sim/fault_model.hpp"

#include <gtest/gtest.h>

#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "sim/machine.hpp"
#include "util/check.hpp"

namespace ppa::sim {
namespace {

MachineConfig config_of(std::size_t n, int bits = 8) {
  MachineConfig c;
  c.n = n;
  c.bits = bits;
  return c;
}

TEST(FaultModelParse, AcceptsEveryItemKind) {
  const FaultModel m = FaultModel::parse(
      " stuck-open:row,1,2 ; stuck-closed:col,0,3 ; stuck-bit:row,1,3,1 ; dead:2,3 ", 4, 8);
  ASSERT_EQ(m.size(), 4u);
  EXPECT_EQ(m.faults()[0].kind, FaultKind::StuckOpen);
  EXPECT_EQ(m.faults()[0].axis, Axis::Row);
  EXPECT_EQ(m.faults()[0].row, 1u);
  EXPECT_EQ(m.faults()[0].col, 2u);
  EXPECT_EQ(m.faults()[1].kind, FaultKind::StuckClosed);
  EXPECT_EQ(m.faults()[1].axis, Axis::Column);
  EXPECT_EQ(m.faults()[2].kind, FaultKind::StuckBit);
  EXPECT_EQ(m.faults()[2].row, 1u);  // line index
  EXPECT_EQ(m.faults()[2].bit, 3);
  EXPECT_TRUE(m.faults()[2].stuck_value);
  EXPECT_EQ(m.faults()[3].kind, FaultKind::DeadPe);
  EXPECT_EQ(m.faults()[3].row, 2u);
  EXPECT_EQ(m.faults()[3].col, 3u);
}

TEST(FaultModelParse, AcceptsTransientBitGrammar) {
  const FaultModel m = FaultModel::parse("transient-bit:col,2,5,1,4,3", 4, 8);
  ASSERT_EQ(m.size(), 1u);
  const Fault& f = m.faults()[0];
  EXPECT_EQ(f.kind, FaultKind::StuckBit);
  EXPECT_EQ(f.axis, Axis::Column);
  EXPECT_EQ(f.row, 2u);
  EXPECT_EQ(f.bit, 5);
  EXPECT_TRUE(f.stuck_value);
  EXPECT_EQ(f.period, 4u);
  EXPECT_EQ(f.phase, 3u);
  // The transient form round-trips through to_string.
  EXPECT_NE(to_string(f).find("transient-bit"), std::string::npos);
}

TEST(FaultModelParse, RejectsMalformedTransientBit) {
  const auto bad = [](std::string_view spec) {
    EXPECT_THROW((void)FaultModel::parse(spec, 4, 8), util::ParseError) << spec;
  };
  bad("transient-bit:row,1,3,1");        // transient form needs period+phase
  bad("transient-bit:row,1,3,1,4");      // missing phase
  bad("transient-bit:row,1,3,1,0,0");    // period must be >= 1
  bad("transient-bit:row,1,3,1,4,4");    // phase must be < period
  bad("transient-bit:row,9,3,1,4,1");    // line out of range for n=4
  bad("transient-bit:row,1,8,1,4,1");    // bit out of range for h=8
}

TEST(FaultModelParse, RandomItemExpandsDeterministically) {
  const FaultModel parsed = FaultModel::parse("random:9,4", 8, 8);
  EXPECT_EQ(parsed, FaultModel::random(8, 8, 9, 4));
  EXPECT_EQ(parsed.size(), 4u);
}

TEST(FaultModelParse, RejectsMalformedSpecs) {
  const auto bad = [](std::string_view spec) {
    EXPECT_THROW((void)FaultModel::parse(spec, 4, 8), util::ParseError) << spec;
  };
  bad("bogus:1,2");
  bad("stuck-open:diag,0,0");  // unknown axis
  bad("stuck-open:row,0");     // missing field
  bad("dead:9,0");             // row out of range for n=4
  bad("dead:0,4");             // col out of range
  bad("stuck-bit:row,0,8,1");  // bit out of range for h=8
  bad("stuck-bit:row,0,0,2");  // stuck value must be 0|1
  bad("dead:a,b");             // not a number
  bad("dead");                 // no payload at all
}

TEST(FaultModelRandom, SeededAndInRange) {
  const FaultModel a = FaultModel::random(16, 12, 5, 24);
  EXPECT_EQ(a, FaultModel::random(16, 12, 5, 24));
  EXPECT_NE(a, FaultModel::random(16, 12, 6, 24));
  EXPECT_EQ(a.size(), 24u);
  // Everything drawn must survive compilation against the same geometry.
  for (const ExecBackend backend : {ExecBackend::Words, ExecBackend::BitPlane}) {
    EXPECT_NO_THROW((void)compile_faults(a, PlaneGeometry(16), 12, backend));
  }
}

TEST(CompileFaults, RejectsOutOfRangeCoordinates) {
  for (const ExecBackend backend : {ExecBackend::Words, ExecBackend::BitPlane}) {
    FaultModel m;
    m.add(Fault{FaultKind::DeadPe, Axis::Row, 4, 0, 0, false});
    EXPECT_THROW((void)compile_faults(m, PlaneGeometry(4), 8, backend), util::ContractError);
    FaultModel b;
    b.add(Fault{FaultKind::StuckBit, Axis::Column, 0, 0, 8, true});
    EXPECT_THROW((void)compile_faults(b, PlaneGeometry(4), 8, backend), util::ContractError);
  }
}

TEST(MachineFaults, InjectAndClear) {
  Machine m(config_of(4));
  EXPECT_FALSE(m.has_faults());
  m.inject_faults(FaultModel::parse("dead:1,1", 4, 8));
  EXPECT_TRUE(m.has_faults());
  m.inject_faults(FaultModel{});
  EXPECT_FALSE(m.has_faults());
}

TEST(MachineFaults, DeadPeNeverDrivesItsSegment) {
  Machine m(config_of(4));
  m.inject_faults(FaultModel::parse("dead:0,1", 4, 8));
  std::vector<Word> src(16, 7);
  std::vector<Flag> open(16, 0);
  open[1] = 1;  // the dead PE is the only row-0 driver
  const BusResult r = m.broadcast(src, Direction::East, open);
  for (std::size_t col = 0; col < 4; ++col) {
    EXPECT_EQ(r.driven[col], 0) << "col " << col;
    EXPECT_EQ(r.values[col], 0u) << "col " << col;
  }
  // Rows without the fault behave normally (undriven: no driver at all).
  EXPECT_EQ(r.driven[4], 0);
}

TEST(MachineFaults, DeadPeReadsZeroFromADrivenBus) {
  Machine m(config_of(4));
  m.inject_faults(FaultModel::parse("dead:0,3", 4, 8));
  std::vector<Word> src(16, 0);
  src[1] = 9;
  std::vector<Flag> open(16, 0);
  open[1] = 1;  // alive driver at (0,1), Ring: whole row reads 9
  const BusResult r = m.broadcast(src, Direction::East, open);
  EXPECT_EQ(r.values[0], 9u);
  EXPECT_EQ(r.values[2], 9u);
  EXPECT_EQ(r.values[3], 0u);  // the dead PE's input port reads 0
  EXPECT_EQ(r.driven[3], 1);   // the segment itself is driven
}

TEST(MachineFaults, StuckOpenSegmentsAndInjects) {
  Machine m(config_of(4));
  m.inject_faults(FaultModel::parse("stuck-open:row,0,2", 4, 8));
  std::vector<Word> src(16, 0);
  src[0] = 5;
  src[2] = 8;  // the jammed switch injects this PE's src
  std::vector<Flag> open(16, 0);
  open[0] = 1;
  const BusResult r = m.broadcast(src, Direction::East, open);
  // Ring row 0 with opens at cols {0, 2}: cols 1,2 read PE 0's value, cols
  // 3,0 read PE 2's value.
  EXPECT_EQ(r.values[1], 5u);
  EXPECT_EQ(r.values[2], 5u);
  EXPECT_EQ(r.values[3], 8u);
  EXPECT_EQ(r.values[0], 8u);
}

TEST(MachineFaults, StuckClosedSuppressesAProgramDriver) {
  auto cfg = config_of(4);
  cfg.checked = true;
  Machine m(cfg);
  m.inject_faults(FaultModel::parse("stuck-closed:row,0,2", 4, 8));
  std::vector<Word> src(16, 0);
  src[0] = 5;
  src[2] = 8;
  std::vector<Flag> open(16, 0);
  open[0] = 1;
  open[2] = 1;  // this switch is forced Short: 8 is never injected
  const BusResult r = m.broadcast(src, Direction::East, open);
  for (std::size_t col = 1; col < 4; ++col) EXPECT_EQ(r.values[col], 5u) << col;
  // The suppressed driver is bus contention in checked mode.
  ASSERT_EQ(m.fault_count(), 1u);
  EXPECT_EQ(m.fault_events()[0].kind, FaultEventKind::BusContention);
  EXPECT_EQ(m.fault_events()[0].row, 0u);
  EXPECT_EQ(m.fault_events()[0].col, 2u);
}

TEST(MachineFaults, UncheckedMachineDoesNotLogContention) {
  Machine m(config_of(4));
  m.inject_faults(FaultModel::parse("stuck-closed:row,0,2", 4, 8));
  std::vector<Word> src(16, 3);
  std::vector<Flag> open(16, 0);
  open[2] = 1;
  (void)m.broadcast(src, Direction::East, open);
  EXPECT_EQ(m.fault_count(), 0u);
}

TEST(MachineFaults, StuckBitForcesTheWireOnItsLine) {
  Machine m(config_of(4));
  m.inject_faults(FaultModel::parse("stuck-bit:row,0,1,1", 4, 8));
  std::vector<Word> src(16, 0);
  src[0] = 4;
  src[4] = 4;  // row 1 driver, line is healthy there
  std::vector<Flag> open(16, 0);
  open[0] = 1;
  open[4] = 1;
  const BusResult r = m.broadcast(src, Direction::East, open);
  EXPECT_EQ(r.values[1], 6u);  // 4 with bit 1 forced on
  EXPECT_EQ(r.values[5], 4u);  // other lines untouched
  // Stuck-at-0 masks the wire off instead.
  m.inject_faults(FaultModel::parse("stuck-bit:row,0,2,0", 4, 8));
  const BusResult r0 = m.broadcast(src, Direction::East, open);
  EXPECT_EQ(r0.values[1], 0u);  // 4 == bit 2 alone, forced off
}

TEST(MachineFaults, ColumnFaultsDoNotDisturbRowCycles) {
  Machine m(config_of(4));
  m.inject_faults(FaultModel::parse("stuck-bit:col,0,0,1;stuck-open:col,1,1", 4, 8));
  std::vector<Word> src(16, 0);
  src[0] = 4;
  std::vector<Flag> open(16, 0);
  open[0] = 1;
  const BusResult row_cycle = m.broadcast(src, Direction::East, open);
  EXPECT_EQ(row_cycle.values[1], 4u);  // row cycle sees no column fault
  const BusResult col_cycle = m.broadcast(src, Direction::South, open);
  EXPECT_EQ(col_cycle.values[4], 5u);  // column 0 wire 0 forced on
}

TEST(MachineFaults, WiredOrAppliesDeadAndStuckSemantics) {
  Machine m(config_of(4));
  m.inject_faults(FaultModel::parse("dead:0,1;stuck-bit:row,1,0,1", 4, 8));
  std::vector<Flag> bits(16, 0);
  bits[1] = 1;  // dead PE's contribution must vanish
  const std::vector<Flag> open(16, 0);
  const BusResult r = m.wired_or(bits, Direction::East, open);
  EXPECT_EQ(r.values[0], 0u);  // row 0: only the dead PE asserted
  EXPECT_EQ(r.values[1], 0u);  // and the dead PE itself reads 0
  EXPECT_EQ(r.values[4], 1u);  // row 1: the stuck wire forces 1 everywhere
  EXPECT_EQ(r.values[7], 1u);
}

TEST(MachineFaults, FaultyMachineResolvesOnlyItsOwnBackend) {
  // Faults compile into the masks of the machine's own backend only, so a
  // faulty machine refuses the other representation's cycles; a clean one
  // resolves both.
  const std::size_t n = 4;
  const PlaneGeometry g(n);
  std::vector<Word> src(n * n, 3);
  std::vector<Flag> open(n * n, 1);
  std::vector<PlaneWord> src_planes(g.plane_words() * 8, 0);
  std::vector<PlaneWord> open_plane(g.plane_words());
  pack_flags(g, open, open_plane.data());
  std::vector<PlaneWord> out(src_planes.size());
  std::vector<PlaneWord> driven(g.plane_words());

  Machine words(config_of(n));
  (void)words.broadcast_planes_into(src_planes.data(), 8, Direction::East, open_plane.data(),
                                    out.data(), driven.data());
  words.inject_faults(FaultModel::parse("dead:1,1", n, 8));
  EXPECT_THROW((void)words.broadcast_planes_into(src_planes.data(), 8, Direction::East,
                                                 open_plane.data(), out.data(),
                                                 driven.data()),
               util::ContractError);
  EXPECT_NO_THROW((void)words.broadcast(src, Direction::East, open));

  auto cfg = config_of(n);
  cfg.backend = ExecBackend::BitPlane;
  Machine planes(cfg);
  (void)planes.broadcast(src, Direction::East, open);
  planes.inject_faults(FaultModel::parse("stuck-open:col,0,2", n, 8));
  EXPECT_THROW((void)planes.broadcast(src, Direction::South, open), util::ContractError);
  EXPECT_NO_THROW((void)planes.broadcast_planes_into(src_planes.data(), 8, Direction::South,
                                                     open_plane.data(), out.data(),
                                                     driven.data()));
}

// ---------------------------------------------------------------------------
// Bus-cycle parity table: two machines built from one FaultModel, one per
// backend, run the same sequence of cycles and must agree on everything the
// machine exposes — values, driven flags, max_segment, the StepCounter,
// bus_cycles(), masking stats, the fault log and the trace. n = 67 straddles
// the 64-lane plane-word boundary.
// ---------------------------------------------------------------------------

enum class CycleKind { WordBroadcast, FlagBroadcast, WiredOr, Shadow };

struct ParityCycle {
  CycleKind kind = CycleKind::WordBroadcast;
  Direction dir = Direction::East;
  unsigned pattern = 0;  // varies the source values, not the switches
};

struct ParityCase {
  std::string name;
  std::string faults;  // FaultModel::parse spec at n = 67, h = 8
  bool checked = true;
  BusMasking masking = BusMasking::None;
  std::vector<ParityCycle> cycles;
};

constexpr std::size_t kParityN = 67;
constexpr int kParityBits = 8;

// Every fault class on both axes, on or next to the plane-word boundary:
// dead PEs, stuck-open and stuck-closed switches (the stuck-closed boxes
// sit on program drivers, so checked mode logs contention), persistent
// stuck wires on value and flag bits, and transient wires on both axes.
constexpr const char* kEveryFaultClass =
    "dead:0,1;dead:3,65;dead:66,63;"
    "stuck-open:row,2,64;stuck-open:col,5,63;"
    "stuck-closed:row,4,65;stuck-closed:col,11,64;"
    "stuck-bit:row,5,2,1;stuck-bit:row,7,0,1;stuck-bit:col,65,0,0;"
    "transient-bit:row,6,3,1,3,1;transient-bit:row,8,0,0,3,2;transient-bit:col,64,0,1,4,2";

std::vector<ParityCase> parity_cases() {
  std::vector<ParityCase> cases;
  const std::pair<CycleKind, const char*> kinds[] = {
      {CycleKind::WordBroadcast, "WordBroadcast"},
      {CycleKind::FlagBroadcast, "FlagBroadcast"},
      {CycleKind::WiredOr, "WiredOr"},
      {CycleKind::Shadow, "Shadow"}};
  const std::pair<BusMasking, const char*> maskings[] = {{BusMasking::None, "None"},
                                                         {BusMasking::Tmr, "Tmr"}};
  const std::pair<Axis, const char*> axes[] = {{Axis::Row, "Row"}, {Axis::Column, "Column"}};
  for (const auto& [kind, kind_name] : kinds) {
    for (const auto& [masking, masking_name] : maskings) {
      for (const auto& [axis, axis_name] : axes) {
        const Direction dir = axis == Axis::Row ? Direction::East : Direction::South;
        // Three cycles, so each transient wire meets afflicted and clean
        // bus-cycle indices under both maskings.
        cases.push_back({std::string(kind_name) + "_" + axis_name + "_" + masking_name,
                         kEveryFaultClass,
                         true,
                         masking,
                         {{kind, dir, 0}, {kind, opposite(dir), 1}, {kind, dir, 2}}});
      }
    }
  }
  // A seeded random model on top of fixed faults, in unchecked mode, with a
  // word broadcast followed by a wired-OR.
  cases.push_back({"WordAndPlaneEnginesAgreeUnderIdenticalFaults",
                   "dead:0,1;dead:3,65;stuck-open:row,2,64;stuck-closed:row,4,4;"
                   "stuck-bit:row,5,2,1;stuck-bit:row,6,0,0;random:31,6",
                   false,
                   BusMasking::None,
                   {{CycleKind::WordBroadcast, Direction::East, 0},
                    {CycleKind::WiredOr, Direction::South, 0}}});
  return cases;
}

// Names the case in test listings (the default prints its raw bytes).
void PrintTo(const ParityCase& pc, std::ostream* os) { *os << pc.name; }

class MachineFaultsParity : public ::testing::TestWithParam<ParityCase> {};

TEST_P(MachineFaultsParity, BackendsAgree) {
  const ParityCase& pc = GetParam();
  const std::size_t n = kParityN;
  const int bits = kParityBits;
  const FaultModel model = FaultModel::parse(pc.faults, n, bits);
  auto cfg = config_of(n, bits);
  cfg.checked = pc.checked;
  cfg.masking = pc.masking;
  Machine word_m(cfg);
  cfg.backend = ExecBackend::BitPlane;
  Machine plane_m(cfg);
  word_m.inject_faults(model);
  plane_m.inject_faults(model);
  RecordingTrace word_trace;
  RecordingTrace plane_trace;
  word_m.set_trace(&word_trace);
  plane_m.set_trace(&plane_trace);

  const PlaneGeometry& g = plane_m.plane_geometry();
  const std::size_t pw = g.plane_words();
  std::vector<Flag> open(n * n);
  for (std::size_t pe = 0; pe < n * n; ++pe) open[pe] = (pe % 9 == 0) ? 1 : 0;
  std::vector<PlaneWord> open_plane(pw);
  pack_flags(g, open, open_plane.data());

  for (std::size_t step = 0; step < pc.cycles.size(); ++step) {
    const ParityCycle& cycle = pc.cycles[step];
    SCOPED_TRACE("cycle " + std::to_string(step));
    std::vector<Word> src(n * n);
    std::vector<Flag> flags(n * n);
    for (std::size_t pe = 0; pe < n * n; ++pe) {
      src[pe] = static_cast<Word>((pe * 7 + 3 + 29 * cycle.pattern) % (1u << bits));
      flags[pe] = ((pe + cycle.pattern) % 5 == 0) ? 1 : 0;
    }
    const int planes = cycle.kind == CycleKind::WordBroadcast ? bits : 1;
    std::vector<PlaneWord> src_planes(pw * static_cast<std::size_t>(planes));
    if (cycle.kind == CycleKind::WordBroadcast) {
      pack_words(g, src, bits, src_planes.data());
    } else {
      pack_flags(g, flags, src_planes.data());
    }

    std::vector<Word> word_values(n * n);
    std::vector<Flag> word_flags(n * n);
    std::vector<Flag> word_driven(n * n, 1);  // a wired-OR never floats
    std::vector<PlaneWord> out_planes(src_planes.size());
    std::vector<PlaneWord> driven_plane(pw);
    std::size_t word_seg = 0;
    std::size_t plane_seg = 0;
    switch (cycle.kind) {
      case CycleKind::WordBroadcast:
        word_seg = word_m.broadcast_into(std::span<const Word>(src), cycle.dir, open,
                                         word_values, word_driven);
        plane_seg = plane_m.broadcast_planes_into(src_planes.data(), bits, cycle.dir,
                                                  open_plane.data(), out_planes.data(),
                                                  driven_plane.data());
        break;
      case CycleKind::FlagBroadcast:
        word_seg = word_m.broadcast_into(std::span<const Flag>(flags), cycle.dir, open,
                                         word_flags, word_driven);
        plane_seg = plane_m.broadcast_planes_into(src_planes.data(), 1, cycle.dir,
                                                  open_plane.data(), out_planes.data(),
                                                  driven_plane.data());
        break;
      case CycleKind::WiredOr:
        word_seg = word_m.wired_or_into(flags, cycle.dir, open, word_flags);
        plane_seg = plane_m.wired_or_plane_into(src_planes.data(), cycle.dir,
                                                open_plane.data(), out_planes.data());
        pack_flags(g, word_driven, driven_plane.data());
        break;
      case CycleKind::Shadow:
        word_seg = word_m.shadow_broadcast_into(flags, cycle.dir, open, word_flags,
                                                word_driven);
        plane_seg = plane_m.shadow_broadcast_planes_into(src_planes.data(), cycle.dir,
                                                         open_plane.data(),
                                                         out_planes.data(),
                                                         driven_plane.data());
        break;
    }
    EXPECT_EQ(plane_seg, word_seg);
    std::vector<Flag> plane_driven(n * n);
    unpack_flags(g, driven_plane.data(), plane_driven);
    EXPECT_EQ(plane_driven, word_driven);
    if (cycle.kind == CycleKind::WordBroadcast) {
      std::vector<Word> plane_values(n * n);
      unpack_words(g, out_planes.data(), bits, plane_values);
      EXPECT_EQ(plane_values, word_values);
    } else {
      std::vector<Flag> plane_flags(n * n);
      unpack_flags(g, out_planes.data(), plane_flags);
      EXPECT_EQ(plane_flags, word_flags);
    }
  }

  EXPECT_EQ(plane_m.steps(), word_m.steps());
  EXPECT_EQ(plane_m.bus_cycles(), word_m.bus_cycles());
  EXPECT_EQ(plane_m.masking_stats(), word_m.masking_stats());
  EXPECT_EQ(plane_m.fault_count(), word_m.fault_count());
  EXPECT_EQ(plane_m.fault_events(), word_m.fault_events());
  EXPECT_EQ(plane_trace.events(), word_trace.events());
  EXPECT_EQ(plane_trace.faults(), word_trace.faults());
}

std::string parity_name(const ::testing::TestParamInfo<ParityCase>& case_info) {
  return case_info.param.name;
}

INSTANTIATE_TEST_SUITE_P(Cycles, MachineFaultsParity, ::testing::ValuesIn(parity_cases()),
                         parity_name);

TEST(FaultEventFormatting, NamesAndToString) {
  EXPECT_STREQ(name_of(FaultKind::DeadPe), "dead");
  const FaultEvent e{FaultEventKind::BusContention, StepCategory::BusBroadcast,
                     Direction::South, 3, 7, 2};
  const std::string s = to_string(e);
  EXPECT_NE(s.find("bus_contention"), std::string::npos);
  EXPECT_NE(s.find("(3,7)"), std::string::npos);
}

}  // namespace
}  // namespace ppa::sim
