// Fault-injection acceptance fuzz for the robustness layer.
//
// Over 300 seeded fault scenarios (every fault class, n in {8, 16, 32},
// both execution backends) the contract is: a run is either VERIFIED — and
// then its solution must equal Dijkstra's exactly — or it is reported as a
// non-Verified outcome carrying at least one structured FaultEvent. No
// silently wrong row may ever escape. With retries enabled the fault-free
// oracle (same backend as the failed run: the word-backend arm retries on
// the word backend) must recover every scenario to Verified. The two
// backends must also stay bit-identical under IDENTICAL faults: same
// solution, same outcome, same step counters, same fault-event log.
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

/// One or two defects of the given class at seeded locations.
FaultModel model_for(FaultClass c, std::size_t n, int bits, util::Rng& rng) {
  if (c == FaultClass::Mixed) return FaultModel::random(n, bits, rng.next(), 4);
  FaultModel m;
  const std::size_t count = 1 + rng.below(2);
  for (std::size_t k = 0; k < count; ++k) {
    sim::Fault f;
    f.axis = rng.below(2) == 0 ? sim::Axis::Row : sim::Axis::Column;
    f.row = rng.below(n);
    f.col = rng.below(n);
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

/// The acceptance predicate: Verified implies exactly correct; anything
/// else implies at least one structured fault event.
void expect_never_silently_wrong(const graph::WeightMatrix& g, const Result& r,
                                 const std::string& label) {
  if (r.outcome == SolveOutcome::Verified) {
    test::expect_solves(g, r.solution, label + " (verified must be exact)");
  } else {
    EXPECT_NE(r.outcome, SolveOutcome::Unchecked) << label;
    EXPECT_FALSE(r.fault_events.empty())
        << label << ": non-verified outcome " << name_of(r.outcome)
        << " carries no fault event";
  }
}

TEST(McpFaultInjection, FuzzAllClassesSizesAndBackends) {
  const FaultClass classes[] = {FaultClass::Dead, FaultClass::StuckOpen,
                                FaultClass::StuckClosed, FaultClass::StuckBit,
                                FaultClass::Mixed};
  const std::size_t sizes[] = {8, 16, 32};
  std::size_t cases = 0;
  std::size_t recovered = 0;
  for (const FaultClass fault_class : classes) {
    for (const std::size_t n : sizes) {
      for (std::uint64_t seed = 1; seed <= 5; ++seed) {
        util::Rng rng(seed * 1000 + n * 10 + static_cast<std::uint64_t>(fault_class));
        const int bits = 8 + static_cast<int>(rng.below(2)) * 4;  // 8 or 12
        const auto g = graph::random_reachable_digraph(
            n, bits, 0.2, {1, 20}, 0, rng);
        const graph::Vertex dest = static_cast<graph::Vertex>(rng.below(n));
        const FaultModel model = model_for(fault_class, n, bits, rng);
        std::ostringstream label;
        label << "class=" << name_of(fault_class) << " n=" << n << " seed=" << seed
              << " dest=" << dest;

        Options base;
        base.verify = true;
        base.faults = model;

        // --- no-retry runs, both backends: never silently wrong, and the
        // two backends are bit-identical under identical faults.
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
        ASSERT_EQ(plane.iterations, word.iterations) << label.str();
        ASSERT_TRUE(plane.total_steps == word.total_steps)
            << label.str() << ": step counters diverged under faults (word "
            << word.total_steps.summary() << " vs bitplane "
            << plane.total_steps.summary() << ")";
        ASSERT_EQ(plane.fault_events.size(), word.fault_events.size()) << label.str();
        for (std::size_t i = 0; i < word.fault_events.size(); ++i) {
          ASSERT_EQ(plane.fault_events[i], word.fault_events[i])
              << label.str() << " event " << i;
        }

        // --- retry runs, both backends: the fault-free oracle must
        // recover every scenario to an exact Verified solution.
        for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
          Options retry = base;
          retry.backend = backend;
          retry.max_retries = 2;
          const Result r = solve(g, dest, retry);
          ++cases;
          ASSERT_EQ(r.outcome, SolveOutcome::Verified)
              << label.str() << ": not recovered after " << r.attempts << " attempts";
          test::expect_solves(g, r.solution, label.str() + " (after retry)");
          if (r.attempts > 1) {
            ++recovered;
            EXPECT_FALSE(r.fault_events.empty())
                << label.str() << ": retried without recording why";
          }
        }
      }
    }
  }
  // The acceptance floor: >= 200 fuzz cases, and the faults actually bit —
  // a healthy fraction of runs needed the oracle.
  EXPECT_GE(cases, 200u);
  EXPECT_GT(recovered, 20u) << "faults almost never perturbed a run; the "
                               "injection sites are too weak to test recovery";
}

/// Per-category step equality with StepCategory::Masking excluded — the
/// masked-run identity contract of docs/robustness.md.
void expect_steps_equal_modulo_masking(const sim::StepCounter& a, const sim::StepCounter& b,
                                       const std::string& label) {
  for (int c = 0; c < static_cast<int>(sim::StepCategory::kCount); ++c) {
    const auto category = static_cast<sim::StepCategory>(c);
    if (category == sim::StepCategory::Masking) continue;
    EXPECT_EQ(a.count(category), b.count(category))
        << label << ": category " << sim::name_of(category);
  }
}

TEST(McpFaultInjection, MaskedFaultFreeRunsBitIdenticalToUnmasked) {
  // On a fault-free machine TMR and ECC must be pure overhead: identical
  // solution, iterations and step ledger outside StepCategory::Masking.
  util::Rng rng(42);
  const std::size_t n = 16;
  const auto g = graph::random_reachable_digraph(n, 8, 0.25, {1, 20}, 0, rng);
  const graph::Vertex dest = 3;
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    const std::string tag = backend == sim::ExecBackend::Words ? "word" : "bitplane";
    Options base;
    base.backend = backend;
    base.verify = true;
    const Result plain = solve(g, dest, base);
    ASSERT_EQ(plain.outcome, SolveOutcome::Verified);
    EXPECT_EQ(plain.total_steps.count(sim::StepCategory::Masking), 0u);

    std::vector<RecoveryPolicy> policies = {RecoveryPolicy::Tmr,
                                            RecoveryPolicy::TmrThenRetry};
    if (backend == sim::ExecBackend::BitPlane) policies.push_back(RecoveryPolicy::Ecc);
    for (const RecoveryPolicy policy : policies) {
      Options masked = base;
      masked.recovery = policy;
      const Result r = solve(g, dest, masked);
      const std::string label = tag + std::string(" recovery=") + name_of(policy);
      EXPECT_EQ(r.outcome, SolveOutcome::Verified) << label;
      EXPECT_EQ(r.solution.cost, plain.solution.cost) << label;
      EXPECT_EQ(r.solution.next, plain.solution.next) << label;
      EXPECT_EQ(r.iterations, plain.iterations) << label;
      expect_steps_equal_modulo_masking(r.total_steps, plain.total_steps, label);
      EXPECT_GT(r.total_steps.count(sim::StepCategory::Masking), 0u) << label;
      EXPECT_GT(r.masking.votes, 0u) << label;
      EXPECT_EQ(r.masking.corrections, 0u) << label;
      EXPECT_EQ(r.masking.uncorrectable, 0u) << label;
    }
  }
}

TEST(McpFaultInjection, BackendsBitIdenticalUnderTmrMasking) {
  // The word/bit-plane differential oracle extends to masked runs: under
  // IDENTICAL transient faults the TMR-voted engines stay bit-identical —
  // solution, outcome, full step ledger (Masking included) and events.
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    util::Rng rng(seed * 311);
    const std::size_t n = 12;
    const auto g = graph::random_reachable_digraph(n, 8, 0.25, {1, 20}, 0, rng);
    const graph::Vertex dest = static_cast<graph::Vertex>(rng.below(n));
    Options options;
    options.verify = true;
    options.recovery = RecoveryPolicy::Tmr;
    options.faults = FaultModel::parse(
        "transient-bit:row,2,3,1,3,1;transient-bit:col,5,0,1,5,2", n, 8);
    options.backend = sim::ExecBackend::Words;
    const Result word = solve(g, dest, options);
    options.backend = sim::ExecBackend::BitPlane;
    const Result plane = solve(g, dest, options);
    const std::string label = "seed=" + std::to_string(seed);
    ASSERT_EQ(plane.solution.cost, word.solution.cost) << label;
    ASSERT_EQ(plane.solution.next, word.solution.next) << label;
    ASSERT_EQ(plane.outcome, word.outcome) << label;
    ASSERT_TRUE(plane.total_steps == word.total_steps)
        << label << ": masked step ledgers diverged (word "
        << word.total_steps.summary() << " vs bitplane "
        << plane.total_steps.summary() << ")";
    ASSERT_EQ(plane.masking.votes, word.masking.votes) << label;
    ASSERT_EQ(plane.masking.corrections, word.masking.corrections) << label;
    ASSERT_EQ(plane.fault_events.size(), word.fault_events.size()) << label;
  }
}

TEST(McpFaultInjection, MaskingRecoversNinetyPercentOfRetryScenarios) {
  // The acceptance suite: 20 fixed seeded single-wire scenarios (19
  // transient with period >= 3, one persistent). Retry with the fault-free
  // oracle recovers all of them; TMR must recover >= 90% of those WITHOUT
  // any retry (it provably loses the persistent one), ECC all of them —
  // and no policy may ever hand back a silently wrong row.
  const std::size_t n = 16;
  const int bits = 8;
  std::size_t retry_recovered = 0;
  std::size_t tmr_recovered = 0;
  std::size_t ecc_recovered = 0;
  std::size_t perturbed = 0;
  const std::size_t scenarios = 20;
  for (std::size_t i = 0; i < scenarios; ++i) {
    util::Rng rng(9000 + i * 17);
    const auto g = graph::random_reachable_digraph(n, bits, 0.25, {1, 20}, 0, rng);
    const graph::Vertex dest = static_cast<graph::Vertex>(rng.below(n));
    sim::Fault f;
    f.kind = FaultKind::StuckBit;
    f.axis = (i % 2 == 0) ? sim::Axis::Row : sim::Axis::Column;
    f.row = rng.below(n);
    f.bit = static_cast<int>(rng.below(static_cast<std::size_t>(bits)));
    f.stuck_value = rng.below(2) == 1;
    if (i < scenarios - 1) {  // transient; the last scenario stays persistent
      f.period = 3 + i % 5;
      f.phase = rng.below(f.period);
    }
    FaultModel model;
    model.add(f);
    const std::string label = "scenario=" + std::to_string(i);

    Options base;
    base.backend = sim::ExecBackend::BitPlane;
    base.verify = true;
    base.faults = model;

    Options retry = base;
    retry.max_retries = 2;
    const Result rr = solve(g, dest, retry);
    expect_never_silently_wrong(g, rr, label + " retry");
    if (rr.outcome == SolveOutcome::Verified) ++retry_recovered;
    if (rr.attempts > 1) ++perturbed;

    Options tmr = base;
    tmr.recovery = RecoveryPolicy::Tmr;
    const Result rt = solve(g, dest, tmr);
    expect_never_silently_wrong(g, rt, label + " tmr");
    EXPECT_EQ(rt.attempts, 1u) << label;
    if (rt.outcome == SolveOutcome::Verified) ++tmr_recovered;
    if (rt.masking.corrections > 0) ++perturbed;

    Options ecc = base;
    ecc.recovery = RecoveryPolicy::Ecc;
    const Result re = solve(g, dest, ecc);
    expect_never_silently_wrong(g, re, label + " ecc");
    EXPECT_EQ(re.attempts, 1u) << label;
    if (re.outcome == SolveOutcome::Verified) ++ecc_recovered;
  }
  EXPECT_EQ(retry_recovered, scenarios) << "the oracle retry baseline itself failed";
  EXPECT_GE(tmr_recovered * 10, retry_recovered * 9)
      << "TMR recovered " << tmr_recovered << "/" << retry_recovered;
  EXPECT_GE(ecc_recovered * 10, retry_recovered * 9)
      << "ECC recovered " << ecc_recovered << "/" << retry_recovered;
  EXPECT_GE(perturbed, 5u) << "the scenario faults almost never bit; the suite "
                              "is too weak to compare recovery policies";
}

TEST(McpFaultInjection, EccMasksCheaperThanRetryAtN128) {
  // The headline step claim (docs/robustness.md): on an n = 128 MCP run a
  // persistent stuck bus wire costs ECC one Masking beat per plane bus
  // cycle, while verify-then-retry pays a whole second solve. Total SIMD
  // steps, Masking included, must favor ECC.
  util::Rng rng(4242);
  const std::size_t n = 128;
  const auto g = graph::random_reachable_digraph(n, 12, 0.05, {1, 40}, 0, rng);
  const graph::Vertex dest = 7;
  Options base;
  base.backend = sim::ExecBackend::BitPlane;
  base.verify = true;

  // Probe a fixed candidate list for a wire whose corruption actually
  // changes the outcome (a stuck bus bit is harmless when the delivered
  // words already carry it); the comparison needs a fault that bites.
  const char* const candidates[] = {
      "stuck-bit:row,1,0,1", "stuck-bit:col,1,0,1", "stuck-bit:row,2,0,0",
      "stuck-bit:col,2,0,0", "stuck-bit:row,1,3,1", "stuck-bit:col,3,5,1"};
  Result rr;
  bool found = false;
  for (const char* spec : candidates) {
    Options retry = base;
    retry.max_retries = 2;
    retry.faults = FaultModel::parse(spec, n, 12);
    rr = solve(g, dest, retry);
    ASSERT_EQ(rr.outcome, SolveOutcome::Verified) << spec;
    if (rr.attempts > 1) {
      base.faults = retry.faults;
      found = true;
      break;
    }
  }
  ASSERT_TRUE(found) << "no candidate stuck wire perturbed the run; the "
                        "comparison would be vacuous";

  Options ecc = base;
  ecc.recovery = RecoveryPolicy::Ecc;
  const Result re = solve(g, dest, ecc);
  ASSERT_EQ(re.outcome, SolveOutcome::Verified);
  EXPECT_EQ(re.attempts, 1u);
  EXPECT_GT(re.masking.corrections, 0u);
  test::expect_solves(g, re.solution, "ecc-masked n=128");
  EXPECT_LT(re.total_steps.total(), rr.total_steps.total())
      << "ECC (" << re.total_steps.total() << " steps) did not beat retry ("
      << rr.total_steps.total() << " steps)";
}

TEST(McpFaultInjection, AllPairsRecoversAndReportsPerDestination) {
  util::Rng rng(77);
  const std::size_t n = 12;
  const auto g = graph::random_reachable_digraph(n, 8, 0.25, {1, 20}, 0, rng);
  AllPairsOptions options;
  options.workers = 3;
  options.mcp.verify = true;
  options.mcp.max_retries = 2;
  options.mcp.faults = FaultModel::parse("dead:2,5;stuck-bit:row,4,1,1", n, 8);
  const AllPairsResult faulty = all_pairs(g, options);
  ASSERT_EQ(faulty.outcomes.size(), n);
  EXPECT_EQ(faulty.failed_destinations(), 0u);
  std::size_t retried = 0;
  for (std::size_t d = 0; d < n; ++d) {
    EXPECT_EQ(faulty.outcomes[d], SolveOutcome::Verified) << "destination " << d;
    if (faulty.attempts[d] > 1) ++retried;
  }
  EXPECT_GT(retried, 0u);

  // The recovered matrix equals the fault-free one entry for entry.
  const AllPairsResult clean = all_pairs(g, Options{});
  EXPECT_EQ(faulty.dist, clean.dist);
  EXPECT_EQ(faulty.next, clean.next);
}

TEST(McpFaultInjection, AllPairsDegradesPerDestinationWithoutRetries) {
  util::Rng rng(78);
  const std::size_t n = 10;
  const auto g = graph::random_reachable_digraph(n, 8, 0.3, {1, 20}, 0, rng);
  AllPairsOptions options;
  options.mcp.verify = true;
  options.mcp.faults = FaultModel::parse("dead:3,3;dead:0,7", n, 8);
  const AllPairsResult r = all_pairs(g, options);
  // The batch completes despite failures; every non-Verified destination
  // is visible in the outcome vector and the merged event log is nonempty.
  ASSERT_EQ(r.outcomes.size(), n);
  std::size_t failed = 0;
  for (std::size_t d = 0; d < n; ++d) {
    if (r.outcomes[d] != SolveOutcome::Verified) ++failed;
  }
  EXPECT_EQ(failed, r.failed_destinations());
  EXPECT_GT(failed, 0u) << "two dead PEs never corrupted any destination";
  EXPECT_FALSE(r.fault_events.empty());
}

TEST(McpFaultInjection, WorkerCountDoesNotChangeFaultyResults) {
  util::Rng rng(79);
  const std::size_t n = 9;
  const auto g = graph::random_digraph(n, 8, 0.3, {1, 15}, rng);
  const auto run = [&](std::size_t workers) {
    AllPairsOptions options;
    options.workers = workers;
    options.mcp.verify = true;
    options.mcp.max_retries = 1;
    options.mcp.faults = FaultModel::parse("stuck-closed:row,4,4", n, 8);
    return all_pairs(g, options);
  };
  const AllPairsResult a = run(1);
  const AllPairsResult b = run(4);
  EXPECT_EQ(a.dist, b.dist);
  EXPECT_EQ(a.next, b.next);
  EXPECT_EQ(a.outcomes, b.outcomes);
  EXPECT_EQ(a.attempts, b.attempts);
  EXPECT_TRUE(a.total_steps == b.total_steps);
}

}  // namespace
}  // namespace ppa::mcp
