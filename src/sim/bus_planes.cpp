#include "sim/bus_planes.hpp"

#include <algorithm>
#include <vector>

#include "sim/plane_kernels.hpp"
#include "util/check.hpp"

namespace ppa::sim {

namespace {

constexpr std::size_t kNone = static_cast<std::size_t>(-1);

[[nodiscard]] bool is_row_axis(Direction dir) noexcept {
  return dir == Direction::East || dir == Direction::West;
}

[[nodiscard]] std::size_t flow_row(std::size_t n, Direction dir, std::size_t k) noexcept {
  return dir == Direction::South ? k : n - 1 - k;
}

/// Grows (never shrinks) a scratch vector to `need` elements.
template <typename T>
[[nodiscard]] T* grown(std::vector<T>& v, std::size_t need) {
  if (v.size() < need) v.resize(need);
  return v.data();
}

// ---------------------------------------------------------------------------
// Broadcast plan cache (BroadcastPlanCache): exact-key LRU lookup for the
// column broadcast resolver. A hit skips the whole switch resolution pass;
// a miss rebuilds the least-recently-used slot.
// ---------------------------------------------------------------------------

/// Cache probe. Returns the matching slot with hit=true; on a miss, either
/// the LRU victim to record into (configuration seen before, hit=false) or
/// nullptr (first sight — the caller must run the plain resolver and leave
/// the cache alone).
[[nodiscard]] BroadcastPlan* lookup_broadcast_plan(BroadcastPlanCache& cache,
                                                   const PlaneGeometry& g,
                                                   BusTopology topology, Direction dir,
                                                   const PlaneWord* open, bool& hit) {
  const std::size_t pw = g.plane_words();
  const auto& kernels = plane_kernels::active();
  for (BroadcastPlan& slot : cache.slots) {
    if (slot.n == g.n && slot.topology == static_cast<std::uint8_t>(topology) &&
        slot.dir == static_cast<std::uint8_t>(dir) && slot.open.size() == pw &&
        kernels.equal(slot.open.data(), open, pw)) {
      slot.stamp = ++cache.clock;
      ++cache.hits;
      hit = true;
      return &slot;
    }
  }
  ++cache.misses;
  hit = false;
  // Second-chance filter: plan only configurations seen at least twice. A
  // hash collision merely plans one cycle early — slot matches stay exact.
  std::uint64_t h = std::uint64_t{0x9E3779B97F4A7C15} ^
                    (static_cast<std::uint64_t>(g.n) << 16) ^
                    (static_cast<std::uint64_t>(topology) << 8) ^
                    static_cast<std::uint64_t>(dir);
  for (std::size_t w = 0; w < pw; ++w) {
    h = (h ^ open[w]) * std::uint64_t{0x100000001B3};
  }
  h |= 1;  // 0 marks an empty seen[] entry
  bool seen = false;
  for (std::uint64_t& s : cache.seen) {
    if (s == h) {
      seen = true;
      s = 0;
      break;
    }
  }
  if (!seen) {
    cache.seen[cache.seen_next] = h;
    cache.seen_next = (cache.seen_next + 1) % BroadcastPlanCache::kSeen;
    return nullptr;
  }
  BroadcastPlan* victim = nullptr;
  for (BroadcastPlan& slot : cache.slots) {
    if (slot.n == 0) {
      victim = &slot;
      break;
    }
    if (victim == nullptr || slot.stamp < victim->stamp) victim = &slot;
  }
  victim->stamp = ++cache.clock;
  return victim;
}

// ---------------------------------------------------------------------------
// Row buses (East / West)
// ---------------------------------------------------------------------------

/// Longest run of clear lanes strictly between two set lanes of `x` (0
/// when there is none). Binary lifting over a run ladder — rung k marks
/// the lanes that start 2^k clear lanes — so the cost is a few dozen word
/// operations however many switches the word holds.
[[nodiscard]] unsigned longest_inner_gap(PlaneWord x) noexcept {
  const auto lo = static_cast<unsigned>(__builtin_ctzll(x));
  const auto hi = static_cast<unsigned>(63 - __builtin_clzll(x));
  const PlaneWord z = ~x & (((PlaneWord{2} << hi) - 1) & ~((PlaneWord{1} << lo) - 1));
  PlaneWord rung[6];
  rung[0] = z;
  for (unsigned k = 1; k < 6; ++k) rung[k] = rung[k - 1] & (rung[k - 1] >> (1u << (k - 1)));
  PlaneWord starts = ~PlaneWord{0};
  unsigned len = 0;
  for (unsigned k = 6; k-- > 0;) {
    const PlaneWord longer = starts & (rung[k] >> len);
    starts = longer != 0 ? longer : starts;
    len += longer != 0 ? 1u << k : 0u;
  }
  return len;
}

/// max_segment of the row lines, from the switches alone (bus.cpp's
/// accounting): the longest run from one Open switch to the next, plus the
/// ring wrap or the linear runs past the row's last Open switch (and, for a
/// wired-OR, the linear head stub before its first). A row with no Open
/// switch floats under a broadcast and adds nothing; under a wired-OR it is
/// one segment of n. This is one row `o` folded into `max_segment`: words
/// whose switches span no more than the longest run found so far are not
/// searched.
[[nodiscard]] std::size_t row_line_segment(std::size_t n, std::size_t rw,
                                           BusTopology topology, Direction dir,
                                           const PlaneWord* o, bool wired_or,
                                           std::size_t max_segment) noexcept {
  std::size_t lo = kNone;
  std::size_t hi = 0;
  for (std::size_t w = 0; w < rw; ++w) {
    const PlaneWord bits = o[w];
    if (bits == 0) continue;
    const std::size_t base = w * kLanesPerWord;
    const std::size_t first = base + static_cast<unsigned>(__builtin_ctzll(bits));
    const std::size_t last = base + static_cast<unsigned>(63 - __builtin_clzll(bits));
    if (lo == kNone) {
      lo = first;
    } else {
      max_segment = std::max(max_segment, first - hi);
    }
    if (last - first > max_segment) {
      max_segment = std::max(max_segment, std::size_t{longest_inner_gap(bits)} + 1);
    }
    hi = last;
  }
  if (lo == kNone) return wired_or ? n : max_segment;
  if (topology == BusTopology::Ring) return std::max(max_segment, n - hi + lo);
  if (wired_or) {
    return std::max({max_segment, dir == Direction::East ? n - hi : lo + 1,
                     dir == Direction::East ? lo : n - 1 - hi});
  }
  return std::max(max_segment, dir == Direction::East ? n - 1 - hi : lo);
}

/// The lanes a broadcast drives on one row line `o` (bus.cpp's rules): none
/// without an Open switch; otherwise all n on a ring, and on a linear bus
/// those downstream of the first Open switch in flow order (the lowest
/// lane East, the highest West).
[[nodiscard]] std::size_t row_driven_lanes(std::size_t n, std::size_t rw, BusTopology topology,
                                           Direction dir, const PlaneWord* o) noexcept {
  const bool east = dir == Direction::East;
  for (std::size_t k = 0; k < rw; ++k) {
    const std::size_t w = east ? k : rw - 1 - k;
    if (o[w] == 0) continue;
    if (topology == BusTopology::Ring) return n;
    const std::size_t base = w * kLanesPerWord;
    return east ? n - 1 - (base + static_cast<unsigned>(__builtin_ctzll(o[w])))
                : base + static_cast<unsigned>(63 - __builtin_clzll(o[w]));
  }
  return 0;
}

/// The longest run a row line can have: the walk stops once it reaches it.
[[nodiscard]] std::size_t row_ceiling(std::size_t n, BusTopology topology,
                                      bool wired_or) noexcept {
  return topology == BusTopology::Ring || wired_or ? n : n - 1;
}

/// The valid-lane plane for `g`, built once per array side.
[[nodiscard]] const PlaneWord* full_plane(const PlaneGeometry& g, PlaneBusScratch& s) {
  if (s.full_n != g.n) {
    s.full.resize(g.plane_words());
    plane_fill_full(g, s.full.data());
    s.full_n = g.n;
  }
  return s.full.data();
}

/// The row broadcast's switch-only pass over rows of `kRowWords` words (0:
/// g.row_words, for widths past two). It sorts each row by its Open
/// lanes: none (the row floats: driven 0, no segment), one at lane p
/// (driven: on a ring the whole row, on a linear bus the lanes strictly
/// downstream of p; segment: n on a ring, n-1-p East, p West), or two and
/// more, which it counts in `ladder_rows` (their driven words are the
/// ladder's to write). Returns the max_segment.
template <std::size_t kRowWords>
std::size_t sort_rows(const PlaneGeometry& g, BusTopology topology, Direction dir,
                      const PlaneWord* open, const PlaneWord* full, PlaneWord* driven,
                      std::size_t& ladder_rows) {
  const std::size_t n = g.n;
  const std::size_t rw = kRowWords != 0 ? kRowWords : g.row_words;
  const bool ring = topology == BusTopology::Ring;
  const bool east = dir == Direction::East;
  const std::size_t ceiling = row_ceiling(n, topology, /*wired_or=*/false);
  std::size_t max_segment = 0;
  for (std::size_t r = 0; r < n; ++r) {
    const PlaneWord* o = open + r * rw;
    const PlaneWord* valid = full + r * rw;
    PlaneWord* d = driven + r * rw;
    std::size_t open_words = 0;
    std::size_t driver_word = 0;
    PlaneWord crowded = 0;  // nonzero when one word holds two Open lanes
    for (std::size_t w = 0; w < rw; ++w) {
      open_words += o[w] != 0 ? 1 : 0;
      driver_word = o[w] != 0 ? w : driver_word;
      crowded |= o[w] & (o[w] - 1);
    }
    if (open_words > 1 || crowded != 0) {
      ++ladder_rows;
      if (max_segment < ceiling) {
        max_segment = row_line_segment(n, rw, topology, dir, o, false, max_segment);
      }
      continue;
    }
    const PlaneWord any = open_words != 0 ? ~PlaneWord{0} : PlaneWord{0};
    if (ring) {
      for (std::size_t w = 0; w < rw; ++w) d[w] = valid[w] & any;
      max_segment = open_words != 0 ? n : max_segment;
      continue;
    }
    // Lanes strictly downstream of p: above it East, below it West. An
    // empty row takes bit 63 in place of p; `any` clears its words.
    const auto bit = static_cast<unsigned>(__builtin_ctzll(o[driver_word] | ~any << 63));
    const PlaneWord below = (PlaneWord{1} << bit) - 1;
    const PlaneWord at_and_below = below | (PlaneWord{1} << bit);
    for (std::size_t w = 0; w < rw; ++w) {
      const PlaneWord downstream = w == driver_word ? (east ? ~at_and_below : below)
                                   : (w > driver_word) == east ? ~PlaneWord{0}
                                                               : PlaneWord{0};
      d[w] = valid[w] & downstream & any;
    }
    const std::size_t p = driver_word * kLanesPerWord + bit;
    max_segment = open_words != 0 ? std::max(max_segment, east ? n - 1 - p : p) : max_segment;
  }
  return max_segment;
}

/// Row broadcast: the switch-only pass, then the values — the row fill
/// when every row has at most one Open lane, else the segmented fill over
/// the whole array (which writes the driven plane too).
std::size_t row_broadcast(const PlaneGeometry& g, BusTopology topology, Direction dir,
                          const PlaneWord* src, int planes, const PlaneWord* open,
                          PlaneWord* out, PlaneWord* driven, PlaneBusScratch& s) {
  const PlaneWord* full = full_plane(g, s);
  std::size_t ladder_rows = 0;
  const std::size_t max_segment =
      g.row_words == 1   ? sort_rows<1>(g, topology, dir, open, full, driven, ladder_rows)
      : g.row_words == 2 ? sort_rows<2>(g, topology, dir, open, full, driven, ladder_rows)
                         : sort_rows<0>(g, topology, dir, open, full, driven, ladder_rows);
  const auto& kernels = plane_kernels::active();
  if (ladder_rows == 0) {
    kernels.row_fill(g, src, planes, open, driven, out);
  } else {
    kernels.segmented_fill(g, topology, dir, src, planes, open, full, out, driven,
                           grown(s.per_k_a, 2 * g.plane_words()));
  }
  s.ladder_rows += ladder_rows;
  return max_segment;
}

std::size_t row_wired_or(const PlaneGeometry& g, BusTopology topology, Direction dir,
                         const PlaneWord* src, const PlaneWord* open, PlaneWord* out,
                         PlaneBusScratch& s) {
  plane_kernels::active().segmented_or(g, topology, dir, src, open, full_plane(g, s), out);
  return row_lines(g, topology, dir, open, /*wired_or=*/true, /*count_driven=*/false)
      .max_segment;
}

// ---------------------------------------------------------------------------
// Column buses (South / North): 64 lines per word-column, resolved with
// vertical scans over the rows in flow order. The scans keep their running
// state in per-word-column arrays and put the word index in the INNER loop,
// so every inner iteration reads/writes consecutive words of one row — the
// layout the compiler auto-vectorizes.
// ---------------------------------------------------------------------------

/// max_segment of the column lines, computed from per-line Open positions
/// (one pass over the open plane; O(n * row_words + popcount)).
std::size_t column_max_segment(const PlaneGeometry& g, BusTopology topology, Direction dir,
                               const PlaneWord* open, bool wired_or,
                               PlaneBusScratch& s) {
  const std::size_t n = g.n;
  std::size_t* first = grown(s.pos_a, n);
  std::size_t* last = grown(s.pos_b, n);
  std::size_t* gap = grown(s.pos_c, n);
  std::fill(first, first + n, kNone);
  std::fill(last, last + n, std::size_t{0});
  std::fill(gap, gap + n, std::size_t{0});
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t r = flow_row(n, dir, k);
    for (std::size_t w = 0; w < g.row_words; ++w) {
      PlaneWord bits = open[r * g.row_words + w];
      while (bits != 0) {
        const auto b = static_cast<unsigned>(__builtin_ctzll(bits));
        const std::size_t c = w * kLanesPerWord + b;
        if (first[c] == kNone) {
          first[c] = k;
        } else {
          gap[c] = std::max(gap[c], k - last[c]);
        }
        last[c] = k;
        bits &= bits - 1;
      }
    }
  }
  std::size_t max_segment = 0;
  for (std::size_t c = 0; c < n; ++c) {
    if (first[c] == kNone) {
      if (wired_or) max_segment = std::max(max_segment, n);
      continue;
    }
    std::size_t line = gap[c];
    if (topology == BusTopology::Ring) {
      line = std::max(line, n - last[c] + first[c]);
    } else if (wired_or) {
      line = std::max({line, n - last[c], first[c]});
    } else {
      line = std::max(line, n - 1 - last[c]);
    }
    max_segment = std::max(max_segment, line);
  }
  return max_segment;
}

/// What column-broadcast pass 1 derives beyond its per-row masks.
struct ColumnPass1 {
  std::size_t k_stop = 0;      // flow rows the ring wrap reaches (0 on a linear bus)
  bool single_driver = false;  // no column line has two Open switches
  std::size_t open_begin = 0;  // rows [open_begin, open_end) hold every Open switch
  std::size_t open_end = 0;
};

/// Column-broadcast pass 1, from the switches alone: have_k[k * rw + w] is
/// the driven mask of flow row k (the lanes that saw an Open switch
/// strictly upstream), pend_k the ring's wrap-carry mask per row; `driven`
/// gets both. Its upstream-OR doubles as the single-driver test: a lane
/// Open downstream of an earlier Open lane marks a line with two drivers.
ColumnPass1 column_pass1(const PlaneGeometry& g, BusTopology topology, Direction dir,
                         const PlaneWord* open, PlaneWord* driven, PlaneWord* have_k,
                         PlaneWord* pend_k, PlaneWord* state) {
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  std::fill(state, state + rw, PlaneWord{0});
  PlaneWord second_open = 0;
  ColumnPass1 pass1;
  pass1.open_begin = n;
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t r = flow_row(n, dir, k);
    const std::size_t base = r * rw;
    PlaneWord row_open = 0;
    for (std::size_t w = 0; w < rw; ++w) {
      const PlaneWord ow = open[base + w];
      have_k[k * rw + w] = state[w];
      driven[base + w] = state[w];
      second_open |= state[w] & ow;
      state[w] |= ow;
      row_open |= ow;
    }
    if (row_open != 0) {
      pass1.open_begin = std::min(pass1.open_begin, r);
      pass1.open_end = std::max(pass1.open_end, r + 1);
    }
  }
  pass1.open_begin = std::min(pass1.open_begin, pass1.open_end);
  pass1.single_driver = second_open == 0;
  if (topology == BusTopology::Ring) {
    // Wrap: every lane's prefix through its FIRST Open row reads the
    // signal carried around from its LAST Open row.
    for (std::size_t k = 0; k < n; ++k) {
      PlaneWord alive = 0;
      const std::size_t base = flow_row(n, dir, k) * rw;
      for (std::size_t w = 0; w < rw; ++w) {
        const PlaneWord ow = open[base + w];
        alive |= state[w];
        pend_k[k * rw + w] = state[w];
        driven[base + w] |= state[w];
        state[w] &= ~ow;
      }
      if (alive == 0) break;
      pass1.k_stop = k + 1;
    }
  }
  return pass1;
}

/// Column-broadcast pass 2: carry the latest driver word down the flow,
/// reading the pass-1 products (per-row driven and wrap-carry masks) from
/// wherever they live — the scratch block on the plain path, a cached plan
/// on a hit. Each (plane, word column) is one chain over the rows, held in
/// a register.
void column_pass2(const PlaneGeometry& g, Direction dir, const PlaneWord* src, int planes,
                  const PlaneWord* open, PlaneWord* out, const PlaneWord* have_k,
                  const PlaneWord* pend_k, std::size_t k_stop) {
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  for (int j = 0; j < planes; ++j) {
    const PlaneWord* sp = src + static_cast<std::size_t>(j) * pw;
    PlaneWord* op = out + static_cast<std::size_t>(j) * pw;
    for (std::size_t w = 0; w < rw; ++w) {
      PlaneWord cur = 0;
      for (std::size_t k = 0; k < n; ++k) {
        const std::size_t idx = flow_row(n, dir, k) * rw + w;
        const PlaneWord ow = open[idx];
        op[idx] = cur & have_k[k * rw + w];
        cur = (cur & ~ow) | (sp[idx] & ow);
      }
      for (std::size_t k = 0; k < k_stop; ++k) {
        op[flow_row(n, dir, k) * rw + w] |= cur & pend_k[k * rw + w];
      }
    }
  }
}

/// Everything one column broadcast derives from its switches, wherever it
/// lives: a cached plan, or the scratch block and the caller's driven plane.
struct ColumnSwitches {
  const PlaneWord* driven = nullptr;
  const PlaneWord* have_k = nullptr;
  const PlaneWord* pend_k = nullptr;
  ColumnPass1 pass1;
  std::size_t max_segment = 0;
};

/// The switch products of a column broadcast on `open`, after one plan
/// cache lookup: a hit reads the cached plan, a miss the cache keeps
/// (second sight) records pass 1 into the plan's slot first, and a
/// first-sight miss runs pass 1 into the scratch block and `driven`.
ColumnSwitches column_switches(const PlaneGeometry& g, BusTopology topology, Direction dir,
                               const PlaneWord* open, PlaneWord* driven, PlaneBusScratch& s) {
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  bool hit = false;
  BroadcastPlan* plan = lookup_broadcast_plan(s.broadcast_plans, g, topology, dir, open, hit);
  if (plan == nullptr) {
    PlaneWord* have_k = grown(s.per_k_a, n * rw);
    PlaneWord* pend_k = grown(s.per_k_b, n * rw);
    const ColumnPass1 pass1 =
        column_pass1(g, topology, dir, open, driven, have_k, pend_k, grown(s.lane_a, rw));
    return {driven, have_k, pend_k, pass1,
            column_max_segment(g, topology, dir, open, /*wired_or=*/false, s)};
  }
  if (!hit) {
    plan->open.assign(open, open + g.plane_words());
    plan->n = n;
    plan->topology = static_cast<std::uint8_t>(topology);
    plan->dir = static_cast<std::uint8_t>(dir);
    plan->col_have.resize(n * rw);
    plan->col_pend.resize(topology == BusTopology::Ring ? n * rw : 0);
    plan->driven.resize(g.plane_words());
    const ColumnPass1 pass1 =
        column_pass1(g, topology, dir, open, plan->driven.data(), plan->col_have.data(),
                     plan->col_pend.data(), grown(s.lane_a, rw));
    plan->k_stop = pass1.k_stop;
    plan->single_driver = pass1.single_driver;
    plan->open_begin = pass1.open_begin;
    plan->open_end = pass1.open_end;
    plan->max_segment = column_max_segment(g, topology, dir, open, /*wired_or=*/false, s);
  }
  return {plan->driven.data(), plan->col_have.data(), plan->col_pend.data(),
          {plan->k_stop, plan->single_driver, plan->open_begin, plan->open_end},
          plan->max_segment};
}

/// The values of one column broadcast into `out` and `driven`: the
/// dispatched column fill when every line has at most one driver, pass 2
/// otherwise. Both give the same values.
void column_values(const PlaneGeometry& g, Direction dir, const PlaneWord* src, int planes,
                   const PlaneWord* open, const ColumnSwitches& sw, PlaneWord* out,
                   PlaneWord* driven) {
  if (sw.driven != driven) std::copy_n(sw.driven, g.plane_words(), driven);
  if (sw.pass1.single_driver) {
    plane_kernels::active().column_fill(g, src, planes, open, driven, out);
  } else {
    column_pass2(g, dir, src, planes, open, out, sw.have_k, sw.pend_k, sw.pass1.k_stop);
  }
}

std::size_t column_broadcast(const PlaneGeometry& g, BusTopology topology, Direction dir,
                             const PlaneWord* src, int planes, const PlaneWord* open,
                             PlaneWord* out, PlaneWord* driven, PlaneBusScratch& s) {
  PPA_ASSERT(planes <= 32, "a register has at most 32 planes");
  const ColumnSwitches sw = column_switches(g, topology, dir, open, driven, s);
  column_values(g, dir, src, planes, open, sw, out, driven);
  return sw.max_segment;
}

std::size_t column_wired_or(const PlaneGeometry& g, BusTopology topology, Direction dir,
                            const PlaneWord* src, const PlaneWord* open, PlaneWord* out,
                            PlaneBusScratch& s) {
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  PlaneWord* forward = grown(s.per_k_a, n * rw);    // running OR of the segment
  PlaneWord* head_mask = grown(s.per_k_b, n * rw);  // lanes before their first Open
  PlaneWord* acc = grown(s.lane_a, rw);   // then: seg (backward full-segment OR)
  PlaneWord* have = grown(s.lane_b, rw);  // then: tail (no Open strictly downstream)
  PlaneWord* head_acc = grown(s.lane_c, rw);  // then, on a ring: the wrap value

  std::fill(acc, acc + rw, PlaneWord{0});
  std::fill(have, have + rw, PlaneWord{0});
  std::fill(head_acc, head_acc + rw, PlaneWord{0});
  for (std::size_t k = 0; k < n; ++k) {
    const std::size_t base = flow_row(n, dir, k) * rw;
    for (std::size_t w = 0; w < rw; ++w) {
      const PlaneWord ow = open[base + w];
      const PlaneWord sw = src[base + w];
      const PlaneWord head = ~(have[w] | ow);
      head_acc[w] |= sw & head;
      // An Open row starts a new segment that includes its own src bit.
      acc[w] = sw | (acc[w] & ~ow);
      forward[k * rw + w] = acc[w];
      head_mask[k * rw + w] = head;
      have[w] |= ow;
    }
  }
  // Backward pass: seg carries each row's full-segment OR; tail marks
  // lanes with no Open row strictly downstream (the tail segment).
  PlaneWord* seg = acc;   // seg starts as forward[n-1], which acc now holds
  PlaneWord* tail = have;
  PlaneWord* wrap = head_acc;
  if (topology == BusTopology::Ring) {
    for (std::size_t w = 0; w < rw; ++w) {
      wrap[w] = forward[(n - 1) * rw + w] | head_acc[w];
      tail[w] = ~PlaneWord{0};
    }
    for (std::size_t k = n; k-- > 0;) {
      const std::size_t base = flow_row(n, dir, k) * rw;
      for (std::size_t w = 0; w < rw; ++w) {
        const PlaneWord in_wrap = head_mask[k * rw + w] | tail[w];
        out[base + w] = (wrap[w] & in_wrap) | (seg[w] & ~in_wrap);
      }
      if (k > 0) {
        for (std::size_t w = 0; w < rw; ++w) {
          const PlaneWord ow = open[base + w];
          seg[w] = (forward[(k - 1) * rw + w] & ow) | (seg[w] & ~ow);
          tail[w] &= ~ow;
        }
      }
    }
  } else {
    for (std::size_t k = n; k-- > 0;) {
      const std::size_t base = flow_row(n, dir, k) * rw;
      for (std::size_t w = 0; w < rw; ++w) {
        const PlaneWord hm = head_mask[k * rw + w];
        out[base + w] = (head_acc[w] & hm) | (seg[w] & ~hm);
      }
      if (k > 0) {
        for (std::size_t w = 0; w < rw; ++w) {
          const PlaneWord ow = open[base + w];
          seg[w] = (forward[(k - 1) * rw + w] & ow) | (seg[w] & ~ow);
        }
      }
    }
  }
  return column_max_segment(g, topology, dir, open, /*wired_or=*/true, s);
}

}  // namespace

RowLines row_lines(const PlaneGeometry& g, BusTopology topology, Direction dir,
                   const PlaneWord* open, bool wired_or, bool count_driven) noexcept {
  const std::size_t ceiling = row_ceiling(g.n, topology, wired_or);
  const std::size_t rw = g.row_words;
  RowLines lines;
  for (std::size_t r = 0; r < g.n; ++r) {
    if (!count_driven && lines.max_segment >= ceiling) break;
    const PlaneWord* o = open + r * rw;
    if (lines.max_segment < ceiling) {
      lines.max_segment =
          row_line_segment(g.n, rw, topology, dir, o, wired_or, lines.max_segment);
    }
    if (count_driven) lines.driven += row_driven_lanes(g.n, rw, topology, dir, o);
  }
  return lines;
}

bool row_or_single_segments(const PlaneGeometry& g, Direction dir,
                            const PlaneWord* open) noexcept {
  const bool west = dir == Direction::West;
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  const std::size_t head_w = west ? rw - 1 : 0;
  const PlaneWord head = PlaneWord{1} << (west ? PlaneGeometry::bit_of(g.n - 1) : 0u);
  // Word column w of every row, folded: only the head word may hold a
  // switch, and only on the head lane.
  for (std::size_t w = 0; w < rw; ++w) {
    PlaneWord column = 0;
    for (std::size_t i = w; i < pw; i += rw) column |= open[i];
    if ((column & ~(w == head_w ? head : PlaneWord{0})) != 0) return false;
  }
  return true;
}

std::size_t plane_broadcast_into(const PlaneGeometry& g, BusTopology topology,
                                 Direction dir, const PlaneWord* src, int planes,
                                 const PlaneWord* open, PlaneWord* out,
                                 PlaneWord* driven, PlaneBusScratch& scratch) {
  PPA_REQUIRE(g.n >= 1, "array side must be positive");
  PPA_REQUIRE(planes >= 1, "a bus cycle needs at least one plane");
  return is_row_axis(dir)
             ? row_broadcast(g, topology, dir, src, planes, open, out, driven, scratch)
             : column_broadcast(g, topology, dir, src, planes, open, out, driven, scratch);
}

std::optional<ColumnDrivers> column_drivers(const PlaneGeometry& g, BusTopology topology,
                                            Direction dir, const PlaneWord* open,
                                            PlaneBusScratch& scratch) {
  PPA_REQUIRE(!is_row_axis(dir), "driver rows are a column broadcast's");
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  // A lane Open in two rows is a line with two drivers.
  for (std::size_t w = 0; w < rw; ++w) {
    PlaneWord above = 0;
    for (std::size_t i = w; i < pw; i += rw) {
      if ((above & open[i]) != 0) return std::nullopt;
      above |= open[i];
    }
  }
  const ColumnSwitches sw = column_switches(g, topology, dir, open,
                                            grown(scratch.column_driven, pw), scratch);
  return ColumnDrivers{sw.driven, sw.max_segment, sw.pass1.open_begin, sw.pass1.open_end};
}

void column_driver_row(const PlaneGeometry& g, const PlaneWord* src, int planes,
                       const PlaneWord* open, const ColumnDrivers& drivers, PlaneWord* line) {
  PPA_REQUIRE(planes >= 1 && planes <= 32, "a register has 1 to 32 planes");
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  const std::size_t begin = drivers.rows_begin * rw;
  const std::size_t end = drivers.rows_end * rw;
  for (int j = 0; j < planes; ++j) {
    const PlaneWord* sp = src + static_cast<std::size_t>(j) * pw;
    PlaneWord* lp = line + static_cast<std::size_t>(j) * rw;
    for (std::size_t w = 0; w < rw; ++w) {
      PlaneWord word = 0;
      for (std::size_t i = begin + w; i < end; i += rw) word |= sp[i] & open[i];
      lp[w] = word;
    }
  }
}

std::size_t plane_wired_or_into(const PlaneGeometry& g, BusTopology topology,
                                Direction dir, const PlaneWord* src,
                                const PlaneWord* open, PlaneWord* out,
                                PlaneBusScratch& scratch) {
  PPA_REQUIRE(g.n >= 1, "array side must be positive");
  return is_row_axis(dir) ? row_wired_or(g, topology, dir, src, open, out, scratch)
                          : column_wired_or(g, topology, dir, src, open, out, scratch);
}

void plane_shift(const PlaneGeometry& g, Direction dir, const PlaneWord* src, int planes,
                 std::uint64_t fill_bits, PlaneWord* dst) {
  PPA_REQUIRE(src != dst, "shift source and destination must not alias");
  const std::size_t n = g.n;
  const std::size_t rw = g.row_words;
  const std::size_t pw = g.plane_words();
  for (int j = 0; j < planes; ++j) {
    const PlaneWord* sp = src + static_cast<std::size_t>(j) * pw;
    PlaneWord* dp = dst + static_cast<std::size_t>(j) * pw;
    const bool fill = (fill_bits >> j) & 1u;
    switch (dir) {
      case Direction::East:
        // dst(r, c) = src(r, c-1); column 0 reads the fill bit.
        for (std::size_t r = 0; r < n; ++r) {
          const PlaneWord* s = sp + r * rw;
          PlaneWord* d = dp + r * rw;
          PlaneWord carry = fill ? 1u : 0u;
          for (std::size_t w = 0; w < rw; ++w) {
            const PlaneWord next_carry = s[w] >> 63;
            d[w] = (s[w] << 1) | carry;
            carry = next_carry;
          }
          d[rw - 1] &= g.word_mask(rw - 1);
        }
        break;
      case Direction::West:
        // dst(r, c) = src(r, c+1); column n-1 reads the fill bit.
        for (std::size_t r = 0; r < n; ++r) {
          const PlaneWord* s = sp + r * rw;
          PlaneWord* d = dp + r * rw;
          for (std::size_t w = 0; w < rw; ++w) {
            d[w] = (s[w] >> 1) | (w + 1 < rw ? s[w + 1] << 63 : PlaneWord{0});
          }
          if (fill) d[(n - 1) / kLanesPerWord] |= PlaneWord{1} << PlaneGeometry::bit_of(n - 1);
        }
        break;
      case Direction::South:
        // dst(r, ·) = src(r-1, ·); row 0 reads the fill bit.
        for (std::size_t r = n; r-- > 1;) {
          for (std::size_t w = 0; w < rw; ++w) dp[r * rw + w] = sp[(r - 1) * rw + w];
        }
        for (std::size_t w = 0; w < rw; ++w) dp[w] = fill ? g.word_mask(w) : PlaneWord{0};
        break;
      case Direction::North:
        // dst(r, ·) = src(r+1, ·); row n-1 reads the fill bit.
        for (std::size_t r = 0; r + 1 < n; ++r) {
          for (std::size_t w = 0; w < rw; ++w) dp[r * rw + w] = sp[(r + 1) * rw + w];
        }
        for (std::size_t w = 0; w < rw; ++w) {
          dp[(n - 1) * rw + w] = fill ? g.word_mask(w) : PlaneWord{0};
        }
        break;
    }
  }
}

}  // namespace ppa::sim
