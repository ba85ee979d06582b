#include "sim/machine.hpp"

#include <gtest/gtest.h>

#include "util/check.hpp"

namespace ppa::sim {
namespace {

MachineConfig config_of(std::size_t n, int bits = 16) {
  MachineConfig c;
  c.n = n;
  c.bits = bits;
  return c;
}

TEST(Machine, ConstructionAndGeometry) {
  const Machine m(config_of(3));
  EXPECT_EQ(m.n(), 3u);
  EXPECT_EQ(m.pe_count(), 9u);
  EXPECT_EQ(m.field().bits(), 16);
}

TEST(Machine, RejectsArrayLargerThanField) {
  // h=4: max finite value 14, so n-1 must be <= 14.
  EXPECT_NO_THROW(Machine(config_of(15, 4)));
  EXPECT_THROW(Machine(config_of(16, 4)), util::ContractError);
  EXPECT_THROW(Machine(config_of(0, 8)), util::ContractError);
  // The same bound on the bit-plane backend, whose ROW/COL planes hold h bits.
  MachineConfig planes = config_of(16, 4);
  planes.backend = ExecBackend::BitPlane;
  EXPECT_THROW(Machine{planes}, util::ContractError);
}

TEST(Machine, ShiftEastBringsWestNeighbour) {
  Machine m(config_of(3));
  std::vector<Word> src(9);
  for (std::size_t pe = 0; pe < 9; ++pe) src[pe] = static_cast<Word>(pe);
  std::vector<Word> dst(9);
  m.shift(src, Direction::East, 99, dst);
  // Row 0: [99, 0, 1]; row 1: [99, 3, 4]; row 2: [99, 6, 7].
  EXPECT_EQ(dst[0], 99u);
  EXPECT_EQ(dst[1], 0u);
  EXPECT_EQ(dst[2], 1u);
  EXPECT_EQ(dst[3], 99u);
  EXPECT_EQ(dst[4], 3u);
  EXPECT_EQ(dst[8], 7u);
}

TEST(Machine, ShiftAllDirectionsBoundaries) {
  Machine m(config_of(2));
  const std::vector<Word> src{10, 11, 12, 13};
  std::vector<Word> dst(4);

  m.shift(src, Direction::West, 0, dst);  // receive from East
  EXPECT_EQ(dst, (std::vector<Word>{11, 0, 13, 0}));

  m.shift(src, Direction::South, 7, dst);  // receive from North
  EXPECT_EQ(dst, (std::vector<Word>{7, 7, 10, 11}));

  m.shift(src, Direction::North, 7, dst);  // receive from South
  EXPECT_EQ(dst, (std::vector<Word>{12, 13, 7, 7}));
}

TEST(Machine, ShiftRejectsAliasingAndBadSizes) {
  Machine m(config_of(2));
  std::vector<Word> buf(4);
  EXPECT_THROW(m.shift(buf, Direction::East, 0, buf), util::ContractError);
  std::vector<Word> small(3);
  std::vector<Word> dst(4);
  EXPECT_THROW(m.shift(small, Direction::East, 0, dst), util::ContractError);
}

TEST(Machine, StepChargingPerPrimitive) {
  Machine m(config_of(4));
  EXPECT_EQ(m.steps().total(), 0u);

  std::vector<Word> src(16, 1);
  std::vector<Word> dst(16);
  m.shift(src, Direction::East, 0, dst);
  EXPECT_EQ(m.steps().count(StepCategory::Shift), 1u);

  const std::vector<Flag> open(16, 1);
  (void)m.broadcast(src, Direction::East, open);
  EXPECT_EQ(m.steps().count(StepCategory::BusBroadcast), 1u);

  const std::vector<Flag> bits(16, 0);
  (void)m.wired_or(bits, Direction::South, open);
  EXPECT_EQ(m.steps().count(StepCategory::BusOr), 1u);

  (void)m.global_or(bits);
  EXPECT_EQ(m.steps().count(StepCategory::GlobalOr), 1u);

  m.charge_alu(5);
  EXPECT_EQ(m.steps().count(StepCategory::Alu), 5u);
  EXPECT_EQ(m.steps().total(), 9u);
}

TEST(Machine, GlobalOrSemantics) {
  Machine m(config_of(2));
  std::vector<Flag> flags(4, 0);
  EXPECT_FALSE(m.global_or(flags));
  flags[3] = 1;
  EXPECT_TRUE(m.global_or(flags));
  EXPECT_THROW((void)m.global_or(std::vector<Flag>(3, 0)), util::ContractError);
}

TEST(Machine, RingVersusLinearTopologyConfig) {
  auto cfg = config_of(4);
  cfg.topology = BusTopology::Linear;
  Machine m(cfg);
  std::vector<Word> src(16, 5);
  std::vector<Flag> open(16, 0);
  open[2] = 1;  // row 0 col 2
  const auto r = m.broadcast(src, Direction::East, open);
  EXPECT_EQ(r.driven[3], 1);
  EXPECT_EQ(r.driven[1], 0);  // no wrap in Linear mode
}

}  // namespace
}  // namespace ppa::sim
