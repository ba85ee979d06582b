// Reconfigurable-bus cycles on bit-plane operands.
//
// These kernels are the plane-packed twins of bus.cpp's scan resolvers:
// same switch semantics, same driven-flag rules, and — load-bearing for
// the step-accounting contract — the same max_segment for every
// configuration, so StepCounter totals are bit-identical between the word
// and bit-plane backends (tests/sim_bus_planes_test.cpp fuzzes exactly
// this equivalence, with bus.cpp as the oracle).
//
// Row buses (East/West) run every cycle through dispatched plane kernels
// (plane_kernels::PlaneKernels). A broadcast starts with a switch-only pass
// over the open plane that sorts each row by its Open lanes. A row with
// none floats; a row with one at lane p is driven over the whole row on a
// ring and over the lanes strictly downstream of p on a linear bus, and
// the same pass gives its max_segment (n on a ring, n-1-p East, p West).
// Those rows' values come from row_fill: per plane an OR of src & open
// across the row's words, replicated under the driven plane. A row with two
// or more Open lanes (ties and all-infinity rows of a min() route its
// caller must resolve, stuck-open switch faults) sends the whole cycle to
// segmented_fill: a log-step segmented scan over each row's 64-lane words,
// one pass per bit plane plus one for the driven plane, with each word's
// head carried in from the nearest Open switch upstream (or, on a ring,
// wrapped from the row's last one); its max_segment comes from the open
// plane (row_line_segment). The switches choose the kernel per cycle, with
// no state kept between cycles, so the data-dependent route broadcasts of
// the paper's min() cost what a repeated configuration costs. Wired-ORs run through segmented_or, which
// ORs a flow-order and a reverse-order segmented smear per word and
// carries segment ORs across word boundaries and the ring wrap; a wired-OR
// whose rows open only at their flow head (the solver's cluster anchor)
// skips the smears and is one any() per row.
// Column buses (South/North) are resolved 64 lines at a time with vertical
// scans whose inner loop runs across the row's words. A column broadcast
// runs a switch-only pass first (the driven plane, the ring's wrap carries,
// and whether any column line has two Open switches), then the values:
// when every line has at most one driver, through the dispatched
// column_fill kernel (an OR-gather of src & open over the rows and a
// replicate of that driver row under the driven plane, two whole-plane
// sweeps); otherwise through a per-row select chain per (plane, word
// column). The solver's column broadcasts (carrier row, diagonal) are all
// single-driver; only stuck-switch faults give a line two drivers. An
// 8-deep LRU plan cache (BroadcastPlanCache) memoizes the switch-only
// pass, so a repeat configuration runs only the values — results and
// max_segment are identical on every path. A caller that needs only the
// driver row of a single-driver column broadcast (statement 10, which adds
// it to W in the same pass) takes column_drivers, the same plan lookup
// without the values, then column_driver_row, a gather of the rows that
// hold Open switches instead of the column fill.
//
// Every entry point runs its cycle inline on the caller's thread, one
// cycle per call, and takes the PlaneBusScratch that keeps the resolvers
// allocation-free across cycles and holds the column plan cache (the
// Machine owns one; a fresh block per call gives the cold resolver).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "sim/bit_planes.hpp"

namespace ppa::sim {

/// Memoized decomposition of one column BROADCAST switch configuration.
/// Everything a column broadcast cycle derives from the switches alone is
/// cached: the driven plane, the max_segment, the single-driver flag that
/// picks the column fill over the select chain, and the chain's per-row
/// scan products (recorded whichever path the flag picks).
struct BroadcastPlan {
  // Key: exact switch configuration. n == 0 marks an empty slot.
  std::vector<PlaneWord> open;
  std::size_t n = 0;
  std::uint8_t topology = 0;
  std::uint8_t dir = 0;
  std::uint64_t stamp = 0;  // LRU clock of the owning cache
  std::size_t max_segment = 0;
  std::vector<PlaneWord> driven;  // plane_words
  // Pass-1 scan state per flow row (see column_broadcast), indexed
  // [k * row_words + w].
  std::vector<PlaneWord> col_have;
  std::vector<PlaneWord> col_pend;
  std::size_t k_stop = 0;
  // No column line has two Open switches: the cycle runs the column fill.
  bool single_driver = false;
  // Rows [open_begin, open_end) hold every Open switch (empty: none).
  std::size_t open_begin = 0;
  std::size_t open_end = 0;
};

/// 8-deep LRU cache of column broadcast decompositions. The
/// minimum-cost-path kernels rotate through a handful of switch
/// configurations (carrier row, diagonal, row end — per scheme and per
/// panel), so a shallow exact-key cache absorbs nearly every resolution
/// after the first sweep; hits/misses surface as bus.plan_cache.* in
/// ppa.metrics.v1.
struct BroadcastPlanCache {
  static constexpr std::size_t kDepth = 8;
  BroadcastPlan slots[kDepth];
  std::uint64_t clock = 0;
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  // Second-chance filter: a configuration is only planned once it has been
  // seen twice (the minimum-variant kernels issue data-dependent
  // configurations that never repeat — planning those would evict live
  // plans and pay recording cost for nothing). First sight leaves a hash
  // here; the cycle itself runs the plain resolver untouched.
  static constexpr std::size_t kSeen = 16;
  std::uint64_t seen[kSeen] = {};
  std::size_t seen_next = 0;
};

/// Reusable buffers for the plane bus resolvers, owned by the Machine (one
/// per machine; bus cycles are issued sequentially by the controller).
/// Sized lazily on first use. The per-k arrays are indexed [k * row_words
/// + w], the per-line arrays by column.
struct PlaneBusScratch {
  std::vector<PlaneWord> per_k_a;     // n * row_words (row broadcast: 2x)
  std::vector<PlaneWord> per_k_b;     // n * row_words
  std::vector<PlaneWord> lane_a;      // row_words
  std::vector<PlaneWord> lane_b;      // row_words
  std::vector<PlaneWord> lane_c;      // row_words
  std::vector<std::size_t> pos_a;     // n (column_max_segment: first)
  std::vector<std::size_t> pos_b;     // n (column_max_segment: last)
  std::vector<std::size_t> pos_c;     // n (column_max_segment: gap)
  std::vector<PlaneWord> full;        // plane_words: valid lanes of side full_n
  std::size_t full_n = 0;
  BroadcastPlanCache broadcast_plans; // see BroadcastPlanCache
  std::vector<PlaneWord> column_driven;  // plane_words: column_drivers' first-sight driven plane
  // Rows with two or more Open switches that sent their row broadcast to
  // segmented_fill, summed over cycles.
  std::uint64_t ladder_rows = 0;
};

/// One broadcast bus cycle over `planes` bit planes sharing a single
/// switch configuration (the planes of one h-bit register ride the same
/// physical cycle). `src`/`out` hold `planes` contiguous planes; `open`
/// and `driven` are single planes. Undriven lanes read 0 and get driven
/// bit 0, exactly like bus_broadcast_into. Returns max_segment.
std::size_t plane_broadcast_into(const PlaneGeometry& g, BusTopology topology,
                                 Direction dir, const PlaneWord* src, int planes,
                                 const PlaneWord* open, PlaneWord* out,
                                 PlaneWord* driven, PlaneBusScratch& scratch);

/// What a single-driver column broadcast derives from its switches, for a
/// caller that reads only its driver rows.
struct ColumnDrivers {
  /// The cycle's driven plane: the cached plan's, or on first sight the
  /// scratch block's. Valid until the next cycle on the same scratch.
  const PlaneWord* driven = nullptr;
  std::size_t max_segment = 0;
  /// Rows [rows_begin, rows_end) hold every Open switch (empty: none).
  std::size_t rows_begin = 0;
  std::size_t rows_end = 0;
};

/// The driver rows of a column broadcast (dir South or North) on `open`,
/// or nothing when some column line has two Open switches. A line with two
/// drivers is found from the switches before the plan cache is consulted,
/// so a refused cycle leaves the cache to the caller's resolving cycle, and
/// every cycle looks its switches up exactly once.
std::optional<ColumnDrivers> column_drivers(const PlaneGeometry& g, BusTopology topology,
                                            Direction dir, const PlaneWord* open,
                                            PlaneBusScratch& scratch);

/// Plane j of `line` (row_words words at line + j * row_words) gets each
/// word column's src & open, ORed over `drivers`' rows: what every driven
/// lane of that column broadcast reads.
void column_driver_row(const PlaneGeometry& g, const PlaneWord* src, int planes,
                       const PlaneWord* open, const ColumnDrivers& drivers, PlaneWord* line);

/// One wired-OR bus cycle on a single plane. Never floats (a segment
/// nobody pulls reads 0), so there is no driven output. Returns
/// max_segment.
std::size_t plane_wired_or_into(const PlaneGeometry& g, BusTopology topology,
                                Direction dir, const PlaneWord* src,
                                const PlaneWord* open, PlaneWord* out,
                                PlaneBusScratch& scratch);

/// What a row bus cycle (dir East or West) on the switches `open` shows of
/// itself, from the switches alone.
struct RowLines {
  /// What plane_broadcast_into / plane_wired_or_into return.
  std::size_t max_segment = 0;
  /// The lanes a broadcast drives (counted on request only): all n of a
  /// ring row with an Open switch, and on a linear bus the lanes
  /// downstream of the row's first Open switch in flow order.
  std::size_t driven = 0;
};

/// The row lines of a broadcast or (`wired_or`) a wired-OR cycle. Without
/// `count_driven` the walk stops once a row reaches the longest possible
/// segment, and `driven` reads 0.
RowLines row_lines(const PlaneGeometry& g, BusTopology topology, Direction dir,
                   const PlaneWord* open, bool wired_or, bool count_driven) noexcept;

/// True when every row is ONE wired-OR segment in `dir` (East or West), on
/// either topology: it opens no switch but its flow-head lane (column 0
/// East, column n-1 West). Every lane of such a row reads the OR of the
/// whole row.
bool row_or_single_segments(const PlaneGeometry& g, Direction dir,
                            const PlaneWord* open) noexcept;

/// Nearest-neighbour move of `planes` bit planes; lanes shifted in from
/// the array edge read bit j of `fill_bits` in plane j. dst must not alias
/// src.
void plane_shift(const PlaneGeometry& g, Direction dir, const PlaneWord* src, int planes,
                 std::uint64_t fill_bits, PlaneWord* dst);

}  // namespace ppa::sim
