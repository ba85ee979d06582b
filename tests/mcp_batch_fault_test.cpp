// Fault injection on BATCHED runs (mcp/batch.hpp): k destinations share
// one machine pass, so a defective PE or bus line bites every member of
// the batch at once. The robustness contract must hold per member: a row
// is either Verified and exactly right, or it reports a structured fault
// event — zero silently wrong rows, on either backend, full or tiled.
// The recovery pin: a failed member retries ALONE on the fault-free
// oracle (same backend and geometry); members that verified on the first
// pass keep attempts == 1 (the batch is NOT re-run for them).
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "graph/generators.hpp"
#include "mcp/allpairs.hpp"
#include "mcp/batch.hpp"
#include "mcp/mcp.hpp"
#include "sim/fault_model.hpp"
#include "test_util.hpp"
#include "util/rng.hpp"

namespace ppa::mcp {
namespace {

using sim::FaultKind;
using sim::FaultModel;

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

TEST(McpBatchFaultInjection, AcceptanceFuzzZeroSilentlyWrongRows) {
  struct Geometry {
    std::size_t n;
    std::size_t p;  // 0 = full array
  };
  const Geometry geometries[] = {{10, 0}, {12, 4}, {13, 5}};
  std::size_t cases = 0;
  std::size_t perturbed = 0;
  for (const Geometry geo : geometries) {
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
      util::Rng rng(seed * 7919 + geo.n);
      const int bits = 8;
      const auto g = graph::random_reachable_digraph(geo.n, bits, 0.25, {1, 20}, 0, rng);
      const std::size_t side = geo.p == 0 ? geo.n : geo.p;
      const FaultModel model = FaultModel::random(side, bits, rng.next(), 2);
      std::vector<graph::Vertex> dests;
      for (graph::Vertex d = 0; d < geo.n; ++d) dests.push_back(d);

      Options options;
      options.verify = true;
      options.faults = model;
      options.array_side = geo.p;
      options.batch_width = 4;
      for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
        options.backend = backend;
        const std::vector<Result> batched = solve_batch(g, dests, options);
        ASSERT_EQ(batched.size(), dests.size());
        for (const Result& r : batched) {
          std::ostringstream label;
          label << "n=" << geo.n << " p=" << geo.p << " seed=" << seed << " dest="
                << r.solution.destination
                << (backend == sim::ExecBackend::Words ? " word" : " bitplane");
          expect_never_silently_wrong(g, r, label.str());
          ++cases;
          if (r.outcome != SolveOutcome::Verified) ++perturbed;
        }
      }
    }
  }
  EXPECT_GE(cases, 500u);
  EXPECT_GT(perturbed, 10u) << "faults never perturbed a batched run; the fuzz "
                               "is not exercising the failure paths";
}

TEST(McpBatchFaultInjection, FailedMembersRetryAloneAndRecover) {
  // With retries enabled every member must end Verified and exact; the
  // members the first pass already verified must NOT have been re-run
  // (attempts stays 1), while at least one member across the fuzz pays a
  // retry — the per-member recovery path of docs/batching.md.
  std::size_t retried_members = 0;
  std::size_t clean_members = 0;
  std::size_t mixed_batches = 0;
  for (std::uint64_t seed = 1; seed <= 10; ++seed) {
    util::Rng rng(seed * 131 + 7);
    const std::size_t n = 12;
    const auto g = graph::random_reachable_digraph(n, 8, 0.25, {1, 20}, 0, rng);
    const FaultModel model = FaultModel::random(4, 8, rng.next(), 2);
    std::vector<graph::Vertex> dests;
    for (graph::Vertex d = 0; d < n; ++d) dests.push_back(d);

    Options options;
    options.verify = true;
    options.max_retries = 2;
    options.faults = model;
    options.array_side = 4;
    options.batch_width = n;  // one group: mixed outcomes share one pass
    options.backend = sim::ExecBackend::BitPlane;
    const std::vector<Result> batched = solve_batch(g, dests, options);
    ASSERT_EQ(batched.size(), n);
    bool any_retried = false;
    bool any_clean = false;
    for (const Result& r : batched) {
      const std::string label = "seed=" + std::to_string(seed) + " dest=" +
                                std::to_string(r.solution.destination);
      ASSERT_EQ(r.outcome, SolveOutcome::Verified)
          << label << ": not recovered after " << r.attempts << " attempts";
      test::expect_solves(g, r.solution, label + " (after batch retry)");
      if (r.attempts > 1) {
        ++retried_members;
        any_retried = true;
        EXPECT_FALSE(r.fault_events.empty()) << label << ": retried without recording why";
      } else {
        ++clean_members;
        any_clean = true;
      }
    }
    if (any_retried && any_clean) ++mixed_batches;
  }
  EXPECT_GT(retried_members, 0u);
  EXPECT_GT(clean_members, 0u);
  EXPECT_GT(mixed_batches, 0u)
      << "no batch mixed clean and retried members; the retry-alone path "
         "was never distinguishable from a whole-batch re-run";
}

TEST(McpBatchFaultInjection, MaskedBatchesZeroSilentlyWrongRows) {
  // Masked runs extend the batch contract: with TMR or ECC active and NO
  // retries, a transient wire is corrected in place for every member of
  // the shared pass — full or tiled, and for TMR on either backend. Each
  // member carries the group's masking delta, and the silently-wrong-row
  // bar stays absolute.
  struct Arm {
    RecoveryPolicy policy;
    sim::ExecBackend backend;
  };
  const Arm arms[] = {{RecoveryPolicy::Tmr, sim::ExecBackend::Words},
                      {RecoveryPolicy::Tmr, sim::ExecBackend::BitPlane},
                      {RecoveryPolicy::Ecc, sim::ExecBackend::BitPlane}};
  const std::size_t sides[] = {0, 4};  // full array / tiled p=4
  std::size_t masked_members = 0;
  for (const Arm arm : arms) {
    for (const std::size_t p : sides) {
      for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        util::Rng rng(seed * 577 + p);
        const std::size_t n = 12;
        const auto g = graph::random_reachable_digraph(n, 8, 0.25, {1, 20}, 0, rng);
        const std::size_t side = p == 0 ? n : p;
        // One transient wire (period >= 3: maskable by both policies).
        std::ostringstream spec;
        spec << "transient-bit:row," << rng.below(side) << ","
             << rng.below(8) << ",1," << 3 + rng.below(3) << ",0";
        std::vector<graph::Vertex> dests;
        for (graph::Vertex d = 0; d < n; ++d) dests.push_back(d);

        Options options;
        options.verify = true;
        options.recovery = arm.policy;
        options.backend = arm.backend;
        options.faults = FaultModel::parse(spec.str(), side, 8);
        options.array_side = p;
        options.batch_width = 4;
        const std::vector<Result> batched = solve_batch(g, dests, options);
        ASSERT_EQ(batched.size(), dests.size());
        for (const Result& r : batched) {
          std::ostringstream label;
          label << "policy=" << name_of(arm.policy) << " backend="
                << (arm.backend == sim::ExecBackend::Words ? "word" : "bitplane")
                << " p=" << p << " seed=" << seed << " dest="
                << r.solution.destination;
          expect_never_silently_wrong(g, r, label.str());
          EXPECT_EQ(r.attempts, 1u) << label.str() << ": masking must not retry";
          EXPECT_GT(r.masking.votes, 0u)
              << label.str() << ": member lost the group's masking delta";
          if (r.masking.corrections > 0) ++masked_members;
        }
      }
    }
  }
  EXPECT_GT(masked_members, 0u)
      << "no batch member ever saw a correction; the transient wires never bit";
}

TEST(McpBatchFaultInjection, AllPairsBatchedRecoversExactly) {
  util::Rng rng(171);
  const std::size_t n = 12;
  const auto g = graph::random_reachable_digraph(n, 8, 0.25, {1, 20}, 0, rng);
  AllPairsOptions options;
  options.workers = 3;
  options.mcp.verify = true;
  options.mcp.max_retries = 2;
  options.mcp.array_side = 4;
  options.mcp.backend = sim::ExecBackend::BitPlane;
  options.mcp.batch_width = 5;
  options.mcp.faults = FaultModel::parse("dead:1,2;stuck-bit:row,3,0,1", 4, 8);
  const AllPairsResult faulty = all_pairs(g, options);
  ASSERT_EQ(faulty.outcomes.size(), n);
  EXPECT_EQ(faulty.failed_destinations(), 0u);
  for (std::size_t d = 0; d < n; ++d) {
    EXPECT_EQ(faulty.outcomes[d], SolveOutcome::Verified) << "destination " << d;
  }

  // The recovered matrix equals the fault-free one entry for entry:
  // batching + faults + per-member retry is still exact.
  const AllPairsResult clean = all_pairs(g, Options{});
  EXPECT_EQ(faulty.dist, clean.dist);
  EXPECT_EQ(faulty.next, clean.next);
}

// A stuck-open column switch off the carrier row makes its PE a second
// driver of every panel's column broadcast, so that PE's fragment value
// reaches the PEs below it. The sweep engine keeps one fragment register
// for the whole pass, and on a faulty machine each load must leave it
// exactly as a fresh one-row load would: then a member's rows depend only
// on its own fragments, and a batched member computes what it computes
// alone, wrong answers included.
TEST(McpBatchFaultInjection, StuckOpenColumnSwitchBitesMembersAsItBitesSoloRuns) {
  util::Rng rng(23);
  const auto g = graph::random_reachable_digraph(16, 8, 0.6, {1, 20}, 0, rng);
  FaultModel model;
  for (const std::size_t col : {std::size_t{1}, std::size_t{2}, std::size_t{3}}) {
    model.add({FaultKind::StuckOpen, sim::Axis::Column, 1, col});
  }
  const std::vector<graph::Vertex> dests{0, 5, 9, 13};
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    Options options;
    options.backend = backend;
    options.array_side = 8;
    options.batch_width = 4;
    const std::vector<Result> clean = solve_batch(g, dests, options);
    options.faults = model;
    const std::vector<Result> batched = solve_batch(g, dests, options);
    std::size_t bitten = 0;
    for (std::size_t i = 0; i < dests.size(); ++i) {
      const Result solo = solve(g, dests[i], options);
      const std::string label = "dest=" + std::to_string(dests[i]) +
                                (backend == sim::ExecBackend::Words ? " word" : " bitplane");
      EXPECT_EQ(batched[i].solution.cost, solo.solution.cost) << label;
      EXPECT_EQ(batched[i].solution.next, solo.solution.next) << label;
      if (batched[i].solution.cost != clean[i].solution.cost) ++bitten;
    }
    EXPECT_GT(bitten, 0u) << "the stuck switch never changed a row";
  }
}

TEST(McpBatchFaultInjection, DegradesPerMemberWithoutRetries) {
  // Without retries a batch degrades member by member: failed members
  // report themselves, verified members stay exact — the batch never
  // aborts as a whole.
  util::Rng rng(288);
  const std::size_t n = 10;
  const auto g = graph::random_reachable_digraph(n, 8, 0.3, {1, 20}, 0, rng);
  std::vector<graph::Vertex> dests;
  for (graph::Vertex d = 0; d < n; ++d) dests.push_back(d);
  Options options;
  options.verify = true;
  options.array_side = 3;
  options.batch_width = n;
  options.backend = sim::ExecBackend::BitPlane;
  options.faults = FaultModel::parse("dead:1,1", 3, 8);
  const std::vector<Result> batched = solve_batch(g, dests, options);
  ASSERT_EQ(batched.size(), n);
  for (const Result& r : batched) {
    expect_never_silently_wrong(
        g, r, "dest=" + std::to_string(r.solution.destination));
    EXPECT_EQ(r.attempts, 1u);
  }
}

}  // namespace
}  // namespace ppa::mcp
