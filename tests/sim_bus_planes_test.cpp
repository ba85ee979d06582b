// Differential fuzzing of the bit-plane bus kernels against the word
// engine (bus.cpp) as oracle: for random switch settings, directions and
// topologies the packed kernels must reproduce the oracle's values, driven
// flags AND max_segment — the latter is load-bearing for the step-counter
// contract between the two execution backends. Sides straddle the 64-lane
// word boundary on purpose (63 / 64 / 65, and 130 = 2 words + 2 lanes).
// Every cycle runs inline; a fresh PlaneBusScratch per call is the cold
// resolver, one block kept across calls the warm one (the column plan
// cache included).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "sim/bus.hpp"
#include "sim/bus_planes.hpp"
#include "util/rng.hpp"

namespace ppa::sim {
namespace {

struct FuzzCase {
  std::size_t n;
  std::uint64_t seed;
  double open_density;
};

class BusPlaneFuzz : public ::testing::TestWithParam<FuzzCase> {};

/// Pads past column n-1 must stay zero in every produced plane.
void expect_pads_zero(const PlaneGeometry& g, const PlaneWord* plane, const char* what) {
  for (std::size_t r = 0; r < g.n; ++r) {
    for (std::size_t w = 0; w < g.row_words; ++w) {
      ASSERT_EQ(plane[r * g.row_words + w] & ~g.word_mask(w), 0u)
          << what << ": pad bits set in row " << r << " word " << w;
    }
  }
}

/// row_lines, the switch walk behind the row broadcasts a caller charges
/// without resolving them, must give a row broadcast's max_segment and
/// its driven lane count, with and without counting.
void expect_row_lines(const PlaneGeometry& g, BusTopology topology, Direction dir,
                      const PlaneWord* open, std::size_t want_segment,
                      const std::vector<Flag>& want_driven) {
  const RowLines counted = row_lines(g, topology, dir, open, false, true);
  EXPECT_EQ(counted.max_segment, want_segment);
  EXPECT_EQ(counted.driven,
            static_cast<std::size_t>(std::count(want_driven.begin(), want_driven.end(), 1)));
  EXPECT_EQ(row_lines(g, topology, dir, open, false, false).max_segment, want_segment);
}

TEST_P(BusPlaneFuzz, BroadcastMatchesWordEngine) {
  const auto [n, seed, density] = GetParam();
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  const int planes = 11;  // deliberately not a power of two
  util::Rng rng(seed);

  for (int round = 0; round < 12; ++round) {
    std::vector<Word> src(n * n);
    std::vector<Flag> open(n * n);
    for (std::size_t pe = 0; pe < n * n; ++pe) {
      src[pe] = static_cast<Word>(rng.below(1u << planes));
      // Rounds 0/1 pin the all-Short / all-Open extremes.
      open[pe] = round == 0 ? Flag{0}
                 : round == 1
                     ? Flag{1}
                     : (rng.chance(density) ? Flag{1} : Flag{0});
    }
    const auto topology = rng.chance(0.5) ? BusTopology::Ring : BusTopology::Linear;
    const auto dir = static_cast<Direction>(rng.below(4));

    std::vector<Word> want_values(n * n);
    std::vector<Flag> want_driven(n * n);
    const std::size_t want_segment =
        bus_broadcast_into(n, topology, dir, src, open, want_values, want_driven);

    std::vector<PlaneWord> src_planes(pw * planes);
    std::vector<PlaneWord> open_plane(pw);
    std::vector<PlaneWord> out_planes(pw * planes, ~PlaneWord{0});  // must be overwritten
    std::vector<PlaneWord> driven_plane(pw, ~PlaneWord{0});
    pack_words(g, src, planes, src_planes.data());
    pack_flags(g, open, open_plane.data());
    PlaneBusScratch scratch;
    const std::size_t got_segment =
        plane_broadcast_into(g, topology, dir, src_planes.data(), planes, open_plane.data(),
                             out_planes.data(), driven_plane.data(), scratch);

    ASSERT_EQ(got_segment, want_segment)
        << "n=" << n << " dir=" << name_of(dir) << " round=" << round;
    if (dir == Direction::East || dir == Direction::West) {
      expect_row_lines(g, topology, dir, open_plane.data(), want_segment, want_driven);
    }
    std::vector<Word> got_values(n * n);
    std::vector<Flag> got_driven(n * n);
    unpack_words(g, out_planes.data(), planes, got_values);
    unpack_flags(g, driven_plane.data(), got_driven);
    ASSERT_EQ(got_driven, want_driven) << "n=" << n << " dir=" << name_of(dir);
    // Both engines define undriven receivers as value 0, so whole-array
    // equality is exact.
    ASSERT_EQ(got_values, want_values)
        << "n=" << n << " dir=" << name_of(dir) << " round=" << round;
    for (int j = 0; j < planes; ++j) {
      expect_pads_zero(g, out_planes.data() + static_cast<std::size_t>(j) * pw, "broadcast");
    }
    expect_pads_zero(g, driven_plane.data(), "broadcast driven");
  }
}

/// Index into an n x n array of position `pos` (column of a row line, row
/// of a column line) on line `line` along the axis of `dir`.
std::size_t line_index(std::size_t n, Direction dir, std::size_t line, std::size_t pos) {
  const bool row_axis = dir == Direction::East || dir == Direction::West;
  return row_axis ? line * n + pos : pos * n + line;
}

/// Pins six line shapes at the edges of the bus rules onto lines 0..5
/// along the axis of `dir`: no Open switch (a broadcast floats, a wired-OR
/// is one segment), one at the line's first position, one at its last (a
/// ring wraps it over the whole line; one of the two is the flow head, the
/// solver's cluster anchor), every switch Open, and a lone Open switch at
/// position 63, then 64 (the last lane of a row's first word and the
/// first of its second).
void pin_edge_lines(std::size_t n, Direction dir, std::vector<Flag>& open) {
  if (n < 4) return;
  for (std::size_t line = 0; line < std::min<std::size_t>(n, 6); ++line) {
    for (std::size_t k = 0; k < n; ++k) {
      const bool on = line == 1   ? k == 0
                      : line == 2 ? k == n - 1
                      : line == 3 ? true
                      : line >= 4 ? k == 59 + line
                                  : false;
      open[line_index(n, dir, line, k)] = on ? Flag{1} : Flag{0};
    }
  }
}

// Every wired-OR must match the word oracle bus.cpp in values and
// max_segment, with zero pads, in all four directions on both topologies:
// random switches with the pinned edge lines, then every line opening at
// one shared position — 0, 63, 64 and n - 1, so whole vectors of lines
// share a shape, and one of the ends is each line's flow head (the solver
// shape) and the other its flow tail. Each configuration
// runs twice: cold, through a fresh scratch block, and warm, through one
// scratch block shared by every call of the test.
TEST_P(BusPlaneFuzz, WiredOrMatchesWordEngine) {
  const auto [n, seed, density] = GetParam();
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  util::Rng rng(seed ^ 0xF00D);
  PlaneBusScratch warm;
  // Shared Open positions (column of a row line, row of a column line);
  // kRandom is the random layout.
  constexpr std::size_t kRandom = static_cast<std::size_t>(-1);
  const std::size_t layouts[] = {kRandom, 0, 63, 64, n - 1};

  for (int round = 0; round < 6; ++round) {
    for (Direction dir : {Direction::East, Direction::West, Direction::South,
                          Direction::North}) {
      for (BusTopology topology : {BusTopology::Ring, BusTopology::Linear}) {
        for (const std::size_t shared : layouts) {
          if (shared != kRandom && shared >= n) continue;
          std::vector<Flag> src(n * n);
          std::vector<Flag> open(n * n);
          for (std::size_t pe = 0; pe < n * n; ++pe) {
            src[pe] = rng.chance(0.3) ? Flag{1} : Flag{0};
            // Rounds 0/1 pin the all-Short / all-Open extremes.
            open[pe] = round == 0 ? Flag{0}
                       : round == 1
                           ? Flag{1}
                           : (rng.chance(density) ? Flag{1} : Flag{0});
          }
          if (shared != kRandom) {
            for (std::size_t line = 0; line < n; ++line) {
              for (std::size_t k = 0; k < n; ++k) {
                open[line_index(n, dir, line, k)] = k == shared ? Flag{1} : Flag{0};
              }
            }
          } else if (round > 1) {
            pin_edge_lines(n, dir, open);
          }

          std::vector<Flag> want_values(n * n);
          const std::size_t want_segment =
              bus_wired_or_into(n, topology, dir, src, open, want_values);

          std::vector<PlaneWord> src_plane(pw);
          std::vector<PlaneWord> open_plane(pw);
          pack_flags(g, src, src_plane.data());
          pack_flags(g, open, open_plane.data());
          for (const bool cold : {true, false}) {
            PlaneBusScratch fresh;
            std::vector<PlaneWord> out_plane(pw, ~PlaneWord{0});  // must be overwritten
            const std::size_t got_segment =
                plane_wired_or_into(g, topology, dir, src_plane.data(), open_plane.data(),
                                    out_plane.data(), cold ? fresh : warm);
            const auto where = [&] {
              return "n=" + std::to_string(n) + " dir=" + std::string(name_of(dir)) +
                     (topology == BusTopology::Ring ? " ring" : " linear") + " layout=" +
                     (shared == kRandom ? std::string("random") : std::to_string(shared)) +
                     " round=" + std::to_string(round) + (cold ? " cold" : " warm");
            };
            ASSERT_EQ(got_segment, want_segment) << where();
            std::vector<Flag> got_values(n * n);
            unpack_flags(g, out_plane.data(), got_values);
            ASSERT_EQ(got_values, want_values) << where();
            expect_pads_zero(g, out_plane.data(), "wired-or");
          }
        }
      }
    }
  }
}

TEST_P(BusPlaneFuzz, ShiftMatchesBruteForce) {
  const auto [n, seed, density] = GetParam();
  (void)density;
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  const int planes = 9;
  util::Rng rng(seed ^ 0xCAFE);

  for (int round = 0; round < 8; ++round) {
    std::vector<Word> src(n * n);
    for (auto& v : src) v = static_cast<Word>(rng.below(1u << planes));
    const auto dir = static_cast<Direction>(rng.below(4));
    const Word fill = static_cast<Word>(rng.below(1u << planes));

    // Brute-force: each PE reads its flow-order upstream neighbour, edge
    // lanes read `fill` (matching Machine::shift semantics).
    std::vector<Word> want(n * n, fill);
    for (std::size_t r = 0; r < n; ++r) {
      for (std::size_t c = 0; c < n; ++c) {
        std::size_t sr = r;
        std::size_t sc = c;
        bool inside = true;
        switch (dir) {
          case Direction::East: inside = c > 0; sc = c - 1; break;
          case Direction::West: inside = c + 1 < n; sc = c + 1; break;
          case Direction::South: inside = r > 0; sr = r - 1; break;
          case Direction::North: inside = r + 1 < n; sr = r + 1; break;
        }
        if (inside) want[r * n + c] = src[sr * n + sc];
      }
    }

    std::vector<PlaneWord> src_planes(pw * planes);
    std::vector<PlaneWord> dst_planes(pw * planes, ~PlaneWord{0});
    pack_words(g, src, planes, src_planes.data());
    plane_shift(g, dir, src_planes.data(), planes, fill, dst_planes.data());

    std::vector<Word> got(n * n);
    unpack_words(g, dst_planes.data(), planes, got);
    ASSERT_EQ(got, want) << "n=" << n << " dir=" << name_of(dir) << " fill=" << fill;
    for (int j = 0; j < planes; ++j) {
      expect_pads_zero(g, dst_planes.data() + static_cast<std::size_t>(j) * pw, "shift");
    }
  }
}

// Every broadcast through a persistent scratch block — first sight, then
// repeats of the same configuration with fresh data (the column axis
// records a plan on the second sight and replays it after that; the row
// axis runs the segmented fill every time) — must match the word oracle
// bus.cpp in values, driven flags and max_segment, in all four directions
// on both topologies (the ring wrap included), for 1-, 16- and 32-plane
// registers and the pinned edge lines.
TEST_P(BusPlaneFuzz, CachedBroadcastMatchesColdOnRepeats) {
  const auto [n, seed, density] = GetParam();
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  util::Rng rng(seed ^ 0xBEEF);
  PlaneBusScratch scratch;  // persists across all configurations below

  for (int config = 0; config < 3; ++config) {
    for (Direction dir : {Direction::East, Direction::West, Direction::South,
                          Direction::North}) {
      for (BusTopology topology : {BusTopology::Ring, BusTopology::Linear}) {
        std::vector<Flag> open(n * n);
        for (auto& f : open) f = rng.chance(density) ? Flag{1} : Flag{0};
        pin_edge_lines(n, dir, open);
        std::vector<PlaneWord> open_plane(pw);
        pack_flags(g, open, open_plane.data());
        for (const int planes : {1, 16, 32}) {
          for (int replay = 0; replay < 3; ++replay) {
            std::vector<Word> src(n * n);
            for (auto& v : src) {
              v = static_cast<Word>(rng.next() >> (64 - planes));
            }
            std::vector<Word> want_values(n * n);
            std::vector<Flag> want_driven(n * n);
            const std::size_t want_segment =
                bus_broadcast_into(n, topology, dir, src, open, want_values, want_driven);

            std::vector<PlaneWord> src_planes(pw * static_cast<std::size_t>(planes));
            pack_words(g, src, planes, src_planes.data());
            std::vector<PlaneWord> out(pw * static_cast<std::size_t>(planes), ~PlaneWord{0});
            std::vector<PlaneWord> driven(pw, ~PlaneWord{0});
            const std::size_t got_segment =
                plane_broadcast_into(g, topology, dir, src_planes.data(), planes,
                                     open_plane.data(), out.data(), driven.data(), scratch);

            const auto where = [&] {
              return "n=" + std::to_string(n) + " dir=" + std::string(name_of(dir)) +
                     (topology == BusTopology::Ring ? " ring" : " linear") +
                     " planes=" + std::to_string(planes) + " config=" +
                     std::to_string(config) + " replay=" + std::to_string(replay);
            };
            ASSERT_EQ(got_segment, want_segment) << where();
            std::vector<Word> got_values(n * n);
            std::vector<Flag> got_driven(n * n);
            unpack_words(g, out.data(), planes, got_values);
            unpack_flags(g, driven.data(), got_driven);
            ASSERT_EQ(got_driven, want_driven) << where();
            ASSERT_EQ(got_values, want_values) << where();
            for (int j = 0; j < planes; ++j) {
              expect_pads_zero(g, out.data() + static_cast<std::size_t>(j) * pw,
                               "cached broadcast");
            }
            expect_pads_zero(g, driven.data(), "cached broadcast driven");
          }
        }
      }
    }
  }
  // Each column configuration was issued 9 times: first sight runs plain,
  // the second records, the rest hit.
  EXPECT_GE(scratch.broadcast_plans.hits, 2u);
}

// Switch shapes with at most one Open switch per column line — the
// solver's column broadcasts — which a column broadcast resolves with the
// column fill instead of the per-row chain, and one shape that puts a
// second Open switch on one column line, which must fall back to the chain.
enum class ColumnShape {
  Diagonal,
  AntiDiagonal,
  CarrierFirst,   // every switch of the first flow row Open
  CarrierMiddle,  // ... of the middle flow row
  CarrierLast,    // ... of the last flow row
  RandomRow,      // one random row per column, about 1/8 of the columns empty
  MultiOpen,      // RandomRow plus a second Open switch on column 0
};

std::vector<Flag> column_shape(std::size_t n, Direction dir, ColumnShape shape,
                               util::Rng& rng) {
  std::vector<Flag> open(n * n, Flag{0});
  const auto flow_row = [&](std::size_t k) { return dir == Direction::North ? n - 1 - k : k; };
  for (std::size_t c = 0; c < n; ++c) {
    std::size_t r = n;  // n: the column stays empty
    switch (shape) {
      case ColumnShape::Diagonal: r = c; break;
      case ColumnShape::AntiDiagonal: r = n - 1 - c; break;
      case ColumnShape::CarrierFirst: r = flow_row(0); break;
      case ColumnShape::CarrierMiddle: r = flow_row(n / 2); break;
      case ColumnShape::CarrierLast: r = flow_row(n - 1); break;
      case ColumnShape::RandomRow:
      case ColumnShape::MultiOpen:
        if (!rng.chance(0.125)) r = static_cast<std::size_t>(rng.below(n));
        break;
    }
    if (r < n) open[r * n + c] = Flag{1};
  }
  if (shape == ColumnShape::MultiOpen) {
    open[0] = Flag{1};
    open[(n - 1) * n] = Flag{1};
  }
  return open;
}

// Every single-driver shape, and the multi-Open fallback, must match the
// word oracle bus.cpp in values, driven flags and max_segment, with zero
// pads, in all four directions on both topologies, for 1-, 11-, 16- and
// 32-plane registers: through a fresh scratch (the plain path) and through
// one scratch shared by the four register widths of a configuration (plain
// on first sight, then record, then hits). The plan recorded for a column
// configuration must carry the single-driver flag exactly when no column
// line has two Open switches.
TEST_P(BusPlaneFuzz, SingleDriverColumnBroadcastMatchesWordEngine) {
  const auto [n, seed, density] = GetParam();
  (void)density;
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  util::Rng rng(seed ^ 0xD21E);
  for (const ColumnShape shape :
       {ColumnShape::Diagonal, ColumnShape::AntiDiagonal, ColumnShape::CarrierFirst,
        ColumnShape::CarrierMiddle, ColumnShape::CarrierLast, ColumnShape::RandomRow,
        ColumnShape::MultiOpen}) {
    const bool multi = shape == ColumnShape::MultiOpen;
    if (multi && n < 2) continue;
    for (Direction dir : {Direction::East, Direction::West, Direction::South,
                          Direction::North}) {
      for (BusTopology topology : {BusTopology::Ring, BusTopology::Linear}) {
        const std::vector<Flag> open = column_shape(n, dir, shape, rng);
        std::vector<PlaneWord> open_plane(pw);
        pack_flags(g, open, open_plane.data());
        PlaneBusScratch shared;
        for (const int planes : {1, 11, 16, 32}) {
          std::vector<Word> src(n * n);
          for (auto& v : src) v = static_cast<Word>(rng.next() >> (64 - planes));
          std::vector<Word> want_values(n * n);
          std::vector<Flag> want_driven(n * n);
          const std::size_t want_segment =
              bus_broadcast_into(n, topology, dir, src, open, want_values, want_driven);
          std::vector<PlaneWord> src_planes(pw * static_cast<std::size_t>(planes));
          pack_words(g, src, planes, src_planes.data());
          for (const bool fresh : {true, false}) {
            PlaneBusScratch cold;
            std::vector<PlaneWord> out(pw * static_cast<std::size_t>(planes), ~PlaneWord{0});
            std::vector<PlaneWord> driven(pw, ~PlaneWord{0});
            const std::size_t got_segment = plane_broadcast_into(
                g, topology, dir, src_planes.data(), planes, open_plane.data(), out.data(),
                driven.data(), fresh ? cold : shared);
            const auto where = [&] {
              return "n=" + std::to_string(n) + " dir=" + std::string(name_of(dir)) +
                     (topology == BusTopology::Ring ? " ring" : " linear") + " shape=" +
                     std::to_string(static_cast<int>(shape)) + " planes=" +
                     std::to_string(planes) + (fresh ? " fresh" : " shared");
            };
            ASSERT_EQ(got_segment, want_segment) << where();
            std::vector<Word> got_values(n * n);
            std::vector<Flag> got_driven(n * n);
            unpack_words(g, out.data(), planes, got_values);
            unpack_flags(g, driven.data(), got_driven);
            ASSERT_EQ(got_driven, want_driven) << where();
            ASSERT_EQ(got_values, want_values) << where();
            for (int j = 0; j < planes; ++j) {
              expect_pads_zero(g, out.data() + static_cast<std::size_t>(j) * pw,
                               "single-driver broadcast");
            }
            expect_pads_zero(g, driven.data(), "single-driver broadcast driven");
          }
        }
        if (dir == Direction::South || dir == Direction::North) {
          EXPECT_EQ(shared.broadcast_plans.misses, 2u);
          EXPECT_EQ(shared.broadcast_plans.hits, 2u);
          for (const BroadcastPlan& plan : shared.broadcast_plans.slots) {
            if (plan.n != 0) {
              EXPECT_EQ(plan.single_driver, !multi) << "n=" << n;
            }
          }
        }
      }
    }
  }
}

/// Open lanes of row r in the mixed-rows shape: r % 6 picks none, one
/// random lane, one lane at an edge (first, last, 63 or 64), two random
/// lanes, a random 30%, or every lane; rows n/2 .. n/2+9 are a run of
/// several-lane rows (most rows with several lanes sit alone between
/// single-driver rows).
std::vector<Flag> mixed_rows(std::size_t n, util::Rng& rng) {
  std::vector<Flag> open(n * n, Flag{0});
  for (std::size_t r = 0; r < n; ++r) {
    Flag* row = open.data() + r * n;
    const std::size_t kind = r >= n / 2 && r < n / 2 + 10 ? 3 + r % 3 : r % 6;
    switch (kind) {
      case 0: break;
      case 1: row[rng.below(n)] = 1; break;
      case 2: {
        const std::size_t edges[] = {0, n - 1, 63, 64};
        row[std::min(edges[r / 6 % 4], n - 1)] = 1;
        break;
      }
      case 3:
        row[rng.below(n)] = 1;
        row[rng.below(n)] = 1;
        break;
      case 4:
        for (std::size_t c = 0; c < n; ++c) row[c] = rng.chance(0.3) ? Flag{1} : Flag{0};
        break;
      default: std::fill(row, row + n, Flag{1}); break;
    }
  }
  return open;
}

// Row broadcasts whose rows mix no Open lane, one and several — a cycle
// with a row of several takes the segmented fill over every row, one
// without it the row fill — must match the word oracle bus.cpp in values, driven flags
// and max_segment, with zero pads, on both topologies and both row
// directions, for 1-, 11-, 16- and 32-plane registers. The scratch block's
// ladder count must grow by exactly the rows with several Open lanes.
TEST_P(BusPlaneFuzz, MixedRowBroadcastMatchesWordEngine) {
  const auto [n, seed, density] = GetParam();
  (void)density;
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  util::Rng rng(seed ^ 0x5EED);
  PlaneBusScratch scratch;
  for (int config = 0; config < 3; ++config) {
    const std::vector<Flag> open = mixed_rows(n, rng);
    std::uint64_t several = 0;
    for (std::size_t r = 0; r < n; ++r) {
      const auto row = open.begin() + static_cast<std::ptrdiff_t>(r * n);
      if (std::count(row, row + static_cast<std::ptrdiff_t>(n), Flag{1}) > 1) ++several;
    }
    std::vector<PlaneWord> open_plane(pw);
    pack_flags(g, open, open_plane.data());
    for (Direction dir : {Direction::East, Direction::West}) {
      for (BusTopology topology : {BusTopology::Ring, BusTopology::Linear}) {
        for (const int planes : {1, 11, 16, 32}) {
          std::vector<Word> src(n * n);
          for (auto& v : src) v = static_cast<Word>(rng.next() >> (64 - planes));
          std::vector<Word> want_values(n * n);
          std::vector<Flag> want_driven(n * n);
          const std::size_t want_segment =
              bus_broadcast_into(n, topology, dir, src, open, want_values, want_driven);
          std::vector<PlaneWord> src_planes(pw * static_cast<std::size_t>(planes));
          pack_words(g, src, planes, src_planes.data());
          std::vector<PlaneWord> out(pw * static_cast<std::size_t>(planes), ~PlaneWord{0});
          std::vector<PlaneWord> driven(pw, ~PlaneWord{0});
          const std::uint64_t ladder_before = scratch.ladder_rows;
          const std::size_t got_segment =
              plane_broadcast_into(g, topology, dir, src_planes.data(), planes,
                                   open_plane.data(), out.data(), driven.data(), scratch);
          const auto where = [&] {
            return "n=" + std::to_string(n) + " dir=" + std::string(name_of(dir)) +
                   (topology == BusTopology::Ring ? " ring" : " linear") +
                   " planes=" + std::to_string(planes) + " config=" + std::to_string(config);
          };
          ASSERT_EQ(got_segment, want_segment) << where();
          expect_row_lines(g, topology, dir, open_plane.data(), want_segment, want_driven);
          ASSERT_EQ(scratch.ladder_rows - ladder_before, several) << where();
          std::vector<Word> got_values(n * n);
          std::vector<Flag> got_driven(n * n);
          unpack_words(g, out.data(), planes, got_values);
          unpack_flags(g, driven.data(), got_driven);
          ASSERT_EQ(got_driven, want_driven) << where();
          ASSERT_EQ(got_values, want_values) << where();
          for (int j = 0; j < planes; ++j) {
            expect_pads_zero(g, out.data() + static_cast<std::size_t>(j) * pw,
                             "mixed-rows broadcast");
          }
          expect_pads_zero(g, driven.data(), "mixed-rows broadcast driven");
        }
      }
    }
  }
}

// Pin of the second-chance policy: call 1 runs the plain resolver (first
// sight), call 2 records a plan, calls 3..5 hit it.
TEST(BroadcastPlanCache, CountsHitsAfterSecondSight) {
  const std::size_t n = 16;
  const PlaneGeometry g(n);
  const std::size_t pw = g.plane_words();
  const int planes = 3;
  std::vector<PlaneWord> src(pw * planes), open(pw), out(pw * planes), driven(pw);
  for (std::size_t i = 0; i < src.size(); ++i) src[i] = i * 0x9E3779B97F4A7C15ull;
  for (std::size_t w = 0; w < g.row_words; ++w) open[5 * g.row_words + w] = g.word_mask(w);
  PlaneBusScratch scratch;
  for (int call = 0; call < 5; ++call) {
    plane_broadcast_into(g, BusTopology::Ring, Direction::South, src.data(), planes,
                         open.data(), out.data(), driven.data(), scratch);
  }
  EXPECT_EQ(scratch.broadcast_plans.hits, 3u);
  EXPECT_EQ(scratch.broadcast_plans.misses, 2u);
}

INSTANTIATE_TEST_SUITE_P(Shapes, BusPlaneFuzz,
                         ::testing::Values(FuzzCase{1, 1, 0.5}, FuzzCase{2, 2, 0.5},
                                           FuzzCase{5, 3, 0.2}, FuzzCase{8, 4, 0.15},
                                           FuzzCase{63, 5, 0.05}, FuzzCase{64, 6, 0.05},
                                           FuzzCase{65, 7, 0.05}, FuzzCase{96, 8, 0.02},
                                           FuzzCase{130, 9, 0.02}, FuzzCase{128, 10, 0.3},
                                           FuzzCase{130, 11, 0.7}));

}  // namespace
}  // namespace ppa::sim
