// Self-test of the benchmark's own helpers: the exact reference and the
// tail-percentile picker. Exits non-zero on the first failed check.
#include <cstdint>
#include <cstdio>
#include <vector>

#include "exact.hpp"
#include "graph/generators.hpp"
#include "stats.hpp"
#include "util/rng.hpp"

namespace {

int g_failures = 0;

void expect(bool ok, const char* what) {
  if (!ok) {
    std::fprintf(stderr, "FAIL: %s\n", what);
    ++g_failures;
  }
}

void exact_on_hand_checked_graph() {
  // 0->1 (5), 0->2 (1), 1->3 (2), 2->3 (10), 2->1 (1); vertex 4 has no
  // out-edges. Toward 3: cost 1 = 2, cost 2 = 1+2 = 3, cost 0 = 1+1+2 = 4.
  ppa::graph::WeightMatrix g(5, 16);
  g.set(0, 1, 5);
  g.set(0, 2, 1);
  g.set(1, 3, 2);
  g.set(2, 3, 10);
  g.set(2, 1, 1);
  const std::vector<std::uint64_t> cost = perfbench::ExactOracle(g).costs_to(3);
  const std::vector<std::uint64_t> want = {4, 2, 3, 0, perfbench::kUnreachable};
  expect(cost == want, "hand-checked graph costs toward 3");

  const std::vector<ppa::graph::Weight> row = {4, 2, 3, 0, g.infinity()};
  const perfbench::RowCheck check = perfbench::check_row(row, cost, g.infinity());
  expect(check.exact && check.field, "matching row is exact and in-field");
  const std::vector<ppa::graph::Weight> off = {4, 2, 4, 0, g.infinity()};
  expect(!perfbench::check_row(off, cost, g.infinity()).exact, "wrong entry is not exact");
}

// Saturating single-destination Bellman-Ford in the h-bit field, the
// arithmetic the simulator and the library's own oracles use.
std::vector<std::uint64_t> field_costs_to(const ppa::graph::WeightMatrix& g,
                                          ppa::graph::Vertex d) {
  const std::size_t n = g.size();
  const std::uint64_t inf = g.infinity();
  std::vector<std::uint64_t> cost(n, inf);
  cost[d] = 0;
  for (std::size_t round = 0; round < n; ++round) {
    for (std::size_t i = 0; i < n; ++i) {
      for (std::size_t j = 0; j < n; ++j) {
        if (i == j || !g.has_edge(i, j) || cost[j] == inf) continue;
        cost[i] = std::min(cost[i], std::min<std::uint64_t>(inf, g.at(i, j) + cost[j]));
      }
    }
  }
  return cost;
}

void exact_on_saturating_ring() {
  ppa::util::Rng rng(7);
  const ppa::graph::WeightMatrix ring =
      ppa::graph::directed_ring(128, 16, {600, 700}, rng);
  const ppa::graph::Vertex d = 5;
  const std::vector<std::uint64_t> cost = perfbench::ExactOracle(ring).costs_to(d);
  // On a ring the only path i -> d walks i, i+1, ..., d.
  bool walk_ok = true;
  std::uint64_t walked = 0;
  for (std::size_t step = 1; step < 128; ++step) {
    const std::size_t v = (d + 128 - step) % 128;
    walked += ring.at(v, (v + 1) % 128);
    walk_ok = walk_ok && cost[v] == walked;
  }
  expect(walk_ok, "ring costs equal the walked sums");
  expect(walked > ring.infinity(), "ring costs pass the 16-bit field");

  const std::vector<std::uint64_t> field = field_costs_to(ring, d);
  std::vector<ppa::graph::Weight> field_row(field.begin(), field.end());
  const perfbench::RowCheck check = perfbench::check_row(field_row, cost, ring.infinity());
  expect(!check.exact, "saturated field answer differs from the exact answer");
  expect(check.field, "saturated field answer is the field clamp of the exact answer");
}

void tail_percentile_picks_ten_beyond() {
  const auto samples = [](std::size_t n) {
    std::vector<double> v;
    for (std::size_t i = n; i > 0; --i) v.push_back(static_cast<double>(i));
    return v;
  };
  expect(!perfbench::tail_percentile(samples(10)).has_value(), "no tail with 10 samples");

  const auto t11 = perfbench::tail_percentile(samples(11));
  expect(t11 && t11->percentile == 9 && t11->rank == 1 && t11->beyond == 10 &&
             t11->samples == 11 && t11->value == 1.0,
         "11 samples: p9 at rank 1");

  const auto t100 = perfbench::tail_percentile(samples(100));
  expect(t100 && t100->percentile == 90 && t100->rank == 90 && t100->beyond == 10 &&
             t100->samples == 100 && t100->value == 90.0,
         "100 samples: p90 at rank 90");

  const auto t37 = perfbench::tail_percentile(samples(37));
  expect(t37 && t37->percentile == 72 && t37->rank == 27 && t37->beyond == 10 &&
             t37->samples == 37,
         "37 samples: p72 at rank 27");

  const auto t1000 = perfbench::tail_percentile(samples(1000));
  expect(t1000 && t1000->percentile == 99 && t1000->rank == 990 && t1000->beyond == 10 &&
             t1000->samples == 1000 && t1000->value == 990.0,
         "1000 samples: p99 at rank 990");

  const auto t5000 = perfbench::tail_percentile(samples(5000));
  expect(t5000 && t5000->percentile == 99 && t5000->beyond == 50,
         "5000 samples: p99 is the highest whole percentile");

  expect(perfbench::median({3, 1, 2}) == 2 && perfbench::median({4, 1, 2, 3}) == 2.5,
         "median of odd and even counts");
}

}  // namespace

int main() {
  exact_on_hand_checked_graph();
  exact_on_saturating_ring();
  tail_percentile_picks_ten_beyond();
  if (g_failures == 0) std::printf("perfbench self-test: ok\n");
  return g_failures == 0 ? 0 : 1;
}
