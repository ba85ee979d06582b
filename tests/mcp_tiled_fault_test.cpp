// Fault injection on a VIRTUALIZED array: the physical machine is a small
// p x p panel engine (p < n), so a single defective PE or bus segment is
// revisited by every panel of every iteration — much hotter than on a full
// array. The robustness contract is unchanged: a run is either Verified
// and exactly right, or it reports a structured fault event; with retries
// the fault-free oracle (same p x p geometry — tiled runs retry tiled)
// recovers every scenario; and no silently wrong row ever escapes, on
// either execution backend.
#include <gtest/gtest.h>

#include <sstream>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/mcp.hpp"
#include "sim/fault_model.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ppa::mcp {
namespace {

using sim::FaultKind;
using sim::FaultModel;

enum class FaultClass { Dead, StuckOpen, StuckClosed, StuckBit, Mixed };

const char* name_of(FaultClass c) {
  switch (c) {
    case FaultClass::Dead: return "dead";
    case FaultClass::StuckOpen: return "stuck-open";
    case FaultClass::StuckClosed: return "stuck-closed";
    case FaultClass::StuckBit: return "stuck-bit";
    case FaultClass::Mixed: return "mixed";
  }
  return "?";
}

/// Defects land on the PHYSICAL array, so coordinates are drawn below p,
/// not n — the machine the solver builds for a tiled run is p x p.
FaultModel model_for(FaultClass c, std::size_t p, int bits, util::Rng& rng) {
  if (c == FaultClass::Mixed) return FaultModel::random(p, bits, rng.next(), 3);
  FaultModel m;
  const std::size_t count = 1 + rng.below(2);
  for (std::size_t k = 0; k < count; ++k) {
    sim::Fault f;
    f.axis = rng.below(2) == 0 ? sim::Axis::Row : sim::Axis::Column;
    f.row = rng.below(p);
    f.col = rng.below(p);
    switch (c) {
      case FaultClass::Dead: f.kind = FaultKind::DeadPe; break;
      case FaultClass::StuckOpen: f.kind = FaultKind::StuckOpen; break;
      case FaultClass::StuckClosed: f.kind = FaultKind::StuckClosed; break;
      case FaultClass::StuckBit:
        f.kind = FaultKind::StuckBit;
        f.bit = static_cast<int>(rng.below(static_cast<std::size_t>(bits)));
        f.stuck_value = rng.below(2) == 1;
        break;
      case FaultClass::Mixed: break;
    }
    m.add(f);
  }
  return m;
}

void expect_never_silently_wrong(const graph::WeightMatrix& g, const Result& r,
                                 const std::string& label) {
  if (r.outcome == SolveOutcome::Verified) {
    test::expect_solves(g, r.solution, label + " (verified must be exact)");
  } else {
    EXPECT_NE(r.outcome, SolveOutcome::Unchecked) << label;
    EXPECT_FALSE(r.fault_events.empty())
        << label << ": non-verified outcome carries no fault event";
  }
}

TEST(McpTiledFaultInjection, FuzzAllClassesOnSmallPhysicalArrays) {
  const FaultClass classes[] = {FaultClass::Dead, FaultClass::StuckOpen,
                                FaultClass::StuckClosed, FaultClass::StuckBit,
                                FaultClass::Mixed};
  struct Geometry {
    std::size_t n;
    std::size_t p;
  };
  const Geometry geometries[] = {{10, 4}, {16, 4}, {13, 5}};
  std::size_t cases = 0;
  std::size_t recovered = 0;
  for (const FaultClass fault_class : classes) {
    for (const Geometry geo : geometries) {
      for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        util::Rng rng(seed * 900 + geo.n * 10 + static_cast<std::uint64_t>(fault_class));
        const int bits = 8 + static_cast<int>(rng.below(2)) * 4;  // 8 or 12
        const auto g =
            graph::random_reachable_digraph(geo.n, bits, 0.2, {1, 20}, 0, rng);
        const graph::Vertex dest = static_cast<graph::Vertex>(rng.below(geo.n));
        const FaultModel model = model_for(fault_class, geo.p, bits, rng);
        std::ostringstream label;
        label << "class=" << name_of(fault_class) << " n=" << geo.n << " p=" << geo.p
              << " seed=" << seed << " dest=" << dest;

        Options base;
        base.verify = true;
        base.faults = model;
        base.array_side = geo.p;

        // --- no-retry runs, both backends: never silently wrong, and
        // bit-identical under identical faults despite the panel sweep.
        Options plain = base;
        plain.backend = sim::ExecBackend::Words;
        const Result word = solve(g, dest, plain);
        plain.backend = sim::ExecBackend::BitPlane;
        const Result plane = solve(g, dest, plain);
        expect_never_silently_wrong(g, word, label.str() + " word");
        expect_never_silently_wrong(g, plane, label.str() + " bitplane");
        cases += 2;
        ASSERT_EQ(plane.solution.cost, word.solution.cost) << label.str();
        ASSERT_EQ(plane.solution.next, word.solution.next) << label.str();
        ASSERT_EQ(plane.outcome, word.outcome) << label.str();
        ASSERT_TRUE(plane.total_steps == word.total_steps)
            << label.str() << ": tiled step counters diverged under faults (word "
            << word.total_steps.summary() << " vs bitplane "
            << plane.total_steps.summary() << ")";
        ASSERT_EQ(plane.fault_events.size(), word.fault_events.size()) << label.str();

        // --- retry runs: the oracle is a fault-free machine of the SAME
        // p x p geometry, so recovery itself exercises the tiled sweep.
        for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
          Options retry = base;
          retry.backend = backend;
          retry.max_retries = 2;
          const Result r = solve(g, dest, retry);
          ++cases;
          ASSERT_EQ(r.outcome, SolveOutcome::Verified)
              << label.str() << ": not recovered after " << r.attempts << " attempts";
          test::expect_solves(g, r.solution, label.str() + " (after tiled retry)");
          if (r.attempts > 1) {
            ++recovered;
            EXPECT_FALSE(r.fault_events.empty())
                << label.str() << ": retried without recording why";
          }
        }
      }
    }
  }
  EXPECT_GE(cases, 200u);
  EXPECT_GT(recovered, 20u)
      << "faults almost never perturbed a tiled run; with every panel routed "
         "through the defective physical array they should bite harder, not "
         "softer, than on a full array";
}

TEST(McpTiledFaultInjection, ActivePanelScheduleKeepsTheRobustnessContract) {
  // The active-panel schedule decides skips from the PREVIOUS iteration's
  // change counts — counts a fault may itself have corrupted. The contract
  // must hold anyway, under every recovery arm: never silently wrong,
  // bit-identical across backends under identical faults, and with retry /
  // masking armed the run ends Verified (or MaskedFaults) and exact.
  const FaultClass classes[] = {FaultClass::Dead, FaultClass::StuckOpen,
                                FaultClass::StuckClosed, FaultClass::StuckBit};
  std::size_t perturbed = 0;
  for (const FaultClass fault_class : classes) {
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
      util::Rng rng(seed * 1700 + static_cast<std::uint64_t>(fault_class));
      const int bits = 8;
      const std::size_t n = 12, p = 4;
      const auto g = graph::random_reachable_digraph(n, bits, 0.2, {1, 20}, 0, rng);
      const graph::Vertex dest = static_cast<graph::Vertex>(rng.below(n));
      const FaultModel model = model_for(fault_class, p, bits, rng);
      std::ostringstream label;
      label << "active class=" << name_of(fault_class) << " seed=" << seed
            << " dest=" << dest;

      Options base;
      base.verify = true;
      base.faults = model;
      base.array_side = p;
      base.active_panels = true;

      // Unprotected, both backends: never silently wrong, and the two
      // backends agree on rows, outcome AND step counters — skip decisions
      // included, since both replay the same corrupted change counts.
      Options plain = base;
      plain.backend = sim::ExecBackend::Words;
      const Result word = solve(g, dest, plain);
      plain.backend = sim::ExecBackend::BitPlane;
      const Result plane = solve(g, dest, plain);
      expect_never_silently_wrong(g, word, label.str() + " word");
      expect_never_silently_wrong(g, plane, label.str() + " bitplane");
      ASSERT_EQ(plane.solution.cost, word.solution.cost) << label.str();
      ASSERT_EQ(plane.outcome, word.outcome) << label.str();
      ASSERT_TRUE(plane.total_steps == word.total_steps)
          << label.str() << ": active-panel skip decisions diverged under faults";
      if (word.outcome != SolveOutcome::Verified) ++perturbed;

      // Retry arm: recovery re-runs tiled with the active schedule on a
      // fault-free machine — exact every time.
      Options retry = base;
      retry.max_retries = 2;
      const Result recovered_run = solve(g, dest, retry);
      ASSERT_EQ(recovered_run.outcome, SolveOutcome::Verified) << label.str();
      test::expect_solves(g, recovered_run.solution, label.str() + " (retry)");

      // Masking arms: TMR (word or plane) and ECC (plane-only) vote /
      // decode every bus cycle of every visited panel; a skipped panel has
      // no bus cycles, so skipping can never hide a maskable fault.
      for (const auto policy : {RecoveryPolicy::Tmr, RecoveryPolicy::TmrThenRetry}) {
        Options masked = base;
        masked.recovery = policy;
        masked.max_retries = policy == RecoveryPolicy::TmrThenRetry ? 2 : 0;
        const Result r = solve(g, dest, masked);
        expect_never_silently_wrong(g, r, label.str() + " tmr");
        if (policy == RecoveryPolicy::TmrThenRetry) {
          ASSERT_TRUE(r.outcome == SolveOutcome::Verified ||
                      r.outcome == SolveOutcome::MaskedFaults)
              << label.str() << " tmr+retry";
          test::expect_solves(g, r.solution, label.str() + " (tmr+retry)");
        }
      }
      Options ecc = base;
      ecc.backend = sim::ExecBackend::BitPlane;
      ecc.recovery = RecoveryPolicy::Ecc;
      expect_never_silently_wrong(g, solve(g, dest, ecc), label.str() + " ecc");
    }
  }
  EXPECT_GT(perturbed, 0u)
      << "no unprotected active-panel run was ever perturbed; the fault grid "
         "is too soft to exercise the skip-under-corruption path";
}

TEST(McpTiledFaultInjection, AllPairsRecoversOnTinyPhysicalArray) {
  util::Rng rng(171);
  const std::size_t n = 12;
  const auto g = graph::random_reachable_digraph(n, 8, 0.25, {1, 20}, 0, rng);
  AllPairsOptions options;
  options.workers = 3;
  options.mcp.verify = true;
  options.mcp.max_retries = 2;
  options.mcp.array_side = 4;
  options.mcp.faults = FaultModel::parse("dead:1,2;stuck-bit:row,3,0,1", 4, 8);
  const AllPairsResult faulty = all_pairs(g, options);
  ASSERT_EQ(faulty.outcomes.size(), n);
  EXPECT_EQ(faulty.failed_destinations(), 0u);
  std::size_t retried = 0;
  for (std::size_t d = 0; d < n; ++d) {
    EXPECT_EQ(faulty.outcomes[d], SolveOutcome::Verified) << "destination " << d;
    if (faulty.attempts[d] > 1) ++retried;
  }
  EXPECT_GT(retried, 0u);

  // The recovered matrix equals the fault-free full-array one entry for
  // entry: virtualization + faults + retry is still exact.
  const AllPairsResult clean = all_pairs(g, Options{});
  EXPECT_EQ(faulty.dist, clean.dist);
  EXPECT_EQ(faulty.next, clean.next);
}

TEST(McpTiledFaultInjection, DegradesPerDestinationWithoutRetries) {
  util::Rng rng(172);
  const std::size_t n = 10;
  const auto g = graph::random_reachable_digraph(n, 8, 0.3, {1, 20}, 0, rng);
  AllPairsOptions options;
  options.mcp.verify = true;
  options.mcp.array_side = 3;
  // Column 0 carries every wired-OR line readback of the row reduction, so
  // a dead PE there sits on the path every panel visit reads.
  options.mcp.faults = FaultModel::parse("dead:1,0", 3, 8);
  const AllPairsResult r = all_pairs(g, options);
  ASSERT_EQ(r.outcomes.size(), n);
  std::size_t failed = 0;
  for (std::size_t d = 0; d < n; ++d) {
    if (r.outcomes[d] != SolveOutcome::Verified) ++failed;
  }
  EXPECT_EQ(failed, r.failed_destinations());
  EXPECT_GT(failed, 0u) << "a dead PE on the readback column of a 3x3 physical "
                           "array touches every panel; it must corrupt at least "
                           "one destination";
  EXPECT_FALSE(r.fault_events.empty());
}

TEST(McpTiledFaultInjection, DeadPeOffTheReadPathLeavesVerifiedRowsExact) {
  // An interior dead PE never drives a bus, so under the fused elimination
  // its candidate just never enters the row's wired-OR. Whatever that does
  // to a row, every row that comes back Verified must be the fault-free
  // tiled row, next hops included.
  util::Rng rng(172);
  const std::size_t n = 10;
  const auto g = graph::random_reachable_digraph(n, 8, 0.3, {1, 20}, 0, rng);
  AllPairsOptions options;
  options.mcp.verify = true;
  options.mcp.array_side = 3;
  const AllPairsResult clean = all_pairs(g, options);
  options.mcp.faults = FaultModel::parse("dead:1,1", 3, 8);
  const AllPairsResult r = all_pairs(g, options);
  ASSERT_EQ(r.outcomes.size(), n);
  std::size_t verified = 0;
  for (graph::Vertex d = 0; d < n; ++d) {
    if (r.outcomes[d] != SolveOutcome::Verified) continue;
    ++verified;
    for (graph::Vertex i = 0; i < n; ++i) {
      EXPECT_EQ(r.dist_at(i, d), clean.dist_at(i, d)) << "dest=" << d << " i=" << i;
      EXPECT_EQ(r.next_at(i, d), clean.next_at(i, d)) << "dest=" << d << " i=" << i;
    }
  }
  EXPECT_GT(verified, 0u) << "no row came back Verified; the check above is vacuous";
}

}  // namespace
}  // namespace ppa::mcp
