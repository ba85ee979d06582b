// PPC communication and combination primitives.
//
// These are the paper's Section-2/3 primitives:
//
//   shift(src, dir)            — nearest-neighbour move.
//   broadcast(src, dir, L)     — segmented bus broadcast: L partitions each
//                                row/column bus into clusters; every PE
//                                receives the value of "the extreme node of
//                                the cluster the processor belongs to".
//   bus_or(src, dir, L)        — cluster-wide wired-OR (the paper's
//                                `or(...)` inside min()); one bus cycle.
//   any(flags)                 — the controller's global-OR response line,
//                                used for "while (at least one SOW in row d
//                                has changed)".
//   pmin / selected_min        — the paper's bit-serial minimum / argmin
//                                (Section 3, second listing): h wired-OR
//                                rounds MSB-first, then the surviving
//                                minimum is routed to the cluster's extreme
//                                node and broadcast back. O(h) bus cycles.
//                                The word backend runs the listing as
//                                printed; the bit-plane backend runs the
//                                same instructions in place.
//   pmin_orprobe               — GCN-style variant that *reconstructs* the
//                                minimum from the OR bits instead of
//                                routing it at the end (every PE already
//                                learns each bit of the minimum); used by
//                                the GCN baseline and the ablation bench.
//   fused_row_min_argmin       — the virtualized sweep's row reduction:
//                                min and smallest-index argmin of every
//                                row from h + log2 p wired-OR rounds,
//                                read back by the controller.
//   min_argmin                 — statements 11–12: min() and the
//                                smallest index attaining it, stored into
//                                the caller's registers.
//   broadcast_add              — statement 10: a column broadcast of the
//                                carrier row plus a saturating add, stored
//                                in place.
//   pullback                   — statements 15–18: the diagonal's row
//                                minima and pointers pulled into row d.
//                                All three run as eDSL statements on the
//                                word backend and in place on the
//                                bit-plane backend.
//
// Injection precondition for shift and bus_or: values injected must be
// fully driven (store a received bus value into a variable first).
// broadcast additionally accepts tainted sources and propagates the taint
// to the receivers — needed by two_sided_broadcast chains on Linear
// machines.
#pragma once

#include "ppc/parallel.hpp"
#include "ppc/where.hpp"

namespace ppa::ppc {

/// Nearest-neighbour move along `dir`; array-edge PEs receive `fill`.
[[nodiscard]] Pint shift(const Pint& src, sim::Direction dir, Word fill = 0);

/// Nearest-neighbour move of a parallel logical (one Shift step).
[[nodiscard]] Pbool shift(const Pbool& src, sim::Direction dir, bool fill = false);

/// Segmented bus broadcast; `open` is the parallel Open/Short setting
/// (1 = Open = inject & segment). The result carries per-PE driven flags;
/// consuming an undriven element triggers the machine's UndrivenPolicy.
/// A tainted src may be injected: a driver that is itself a floating read
/// taints everything it drives (the taint flags ride the same bus cycle).
[[nodiscard]] Pint broadcast(const Pint& src, sim::Direction dir, const Pbool& open);

/// Two broadcasts — `dir` and its opposite — combined by per-PE
/// driven-ness. On a Linear machine this reaches both sides of every Open
/// node (the PPA's way to emulate the Ring reach at 2x the bus cycles);
/// only the drivers' own positions (and open-free lines) stay undriven.
/// On a Ring machine the second cycle is redundant but harmless.
[[nodiscard]] Pint two_sided_broadcast(const Pint& src, sim::Direction dir, const Pbool& open);

/// Segmented broadcast of a parallel logical (one bus cycle on a 1-bit
/// lane). Same driver/cluster semantics as the word broadcast.
[[nodiscard]] Pbool broadcast(const Pbool& src, sim::Direction dir, const Pbool& open);

/// Cluster-wide wired-OR of parallel logicals, one bus cycle.
[[nodiscard]] Pbool bus_or(const Pbool& src, sim::Direction dir, const Pbool& open);

/// Controller global-OR over all PEs (one GlobalOr step).
[[nodiscard]] bool any(const Pbool& flags);

/// Bit-serial cluster minimum (paper's min()). Every PE of a cluster
/// receives the minimum of src over the cluster's members. O(h) bus
/// cycles. Clusters are defined by `L` (Open nodes) along `orientation`.
[[nodiscard]] Pint pmin(const Pint& src, sim::Direction orientation, const Pbool& L);

/// Bit-serial cluster minimum restricted to PEs with selected != 0
/// (paper's selected_min()). Used with src = COL it returns the smallest
/// column index among the selected PEs — the deterministic argmin.
/// Clusters whose selected set is empty produce an undriven result in
/// those PEs; it must not be consumed there (mask it off).
[[nodiscard]] Pint selected_min(const Pint& src, sim::Direction orientation, const Pbool& L,
                                const Pbool& selected);

/// OR-probe minimum: same O(h) wired-OR rounds, but each PE reconstructs
/// the minimum locally from the OR results (bit j of the minimum is the
/// complement of "some enabled candidate has 0 at j"). No final routing
/// step; an empty candidate set yields the field's infinity.
[[nodiscard]] Pint pmin_orprobe(const Pint& src, sim::Direction orientation, const Pbool& L);

/// OR-probe argmin restricted to `selected`; empty selections yield
/// infinity (never undriven), which callers can detect and mask.
[[nodiscard]] Pint selected_min_orprobe(const Pint& src, sim::Direction orientation,
                                        const Pbool& L, const Pbool& selected);

/// Bit-serial cluster MAXIMUM — the mirror image of pmin (keep the
/// candidates holding a 1 whenever some enabled candidate holds a 1,
/// MSB first). Same O(h) cost. Used by the eccentricity/diameter
/// extension (DESIGN.md §7).
[[nodiscard]] Pint pmax(const Pint& src, sim::Direction orientation, const Pbool& L);

/// pmax restricted to `selected` candidates. Clusters whose selected set
/// is empty produce an undriven result in those PEs (mask it off).
[[nodiscard]] Pint selected_max(const Pint& src, sim::Direction orientation, const Pbool& L,
                                const Pbool& selected);

/// OR-probe maximum: reconstructs the maximum locally from the OR bits;
/// an empty candidate set yields 0 (never undriven).
[[nodiscard]] Pint pmax_orprobe(const Pint& src, sim::Direction orientation, const Pbool& L);

/// OR-probe maximum over the `selected` candidates; empty selections
/// yield 0.
[[nodiscard]] Pint selected_max_orprobe(const Pint& src, sim::Direction orientation,
                                        const Pbool& L, const Pbool& selected);

/// The sweep engine's row reduction (docs/batching.md, "The fused
/// min/argmin"): a FUSED bit-serial min/argmin of h + index_bits.size()
/// wired-OR elimination rounds along the row buses (Direction::West,
/// clusters anchored at the Open PEs of `row_end`), MSB-first over the
/// value bits and then over `index_bits` (MSB-first planes of a per-PE
/// index). The controller reads each round's per-row OR line off column 0
/// — so `row_end` must make each row one cluster — and reconstructs both
/// results from it: a round whose OR finds no surviving 0 pins that result
/// bit to 1, otherwise the bit is 0 and the candidate set narrows. For
/// rows r < `rows`, min_line[r] is the row minimum of `value` and
/// arg_line[r] the smallest index among the PEs holding it.
///
/// The word backend runs the eDSL listing — `Pbool enable(ctx, true)`,
/// then per round `probe = enable & !bit`, `some = bus_or(probe, West,
/// row_end)` and `where(some) { enable = probe; }` — and the bit-plane
/// backend the same rounds in place on the elimination core behind pmin
/// (docs/ppc_language.md), charge for charge. Like bus_or, it requires
/// `value` and `index_bits` to be fully driven.
void fused_row_min_argmin(const Pint& value, std::span<const Pbool> index_bits,
                          const Pbool& row_end, std::size_t rows, std::span<Word> min_line,
                          std::span<Word> arg_line);

/// Statements 11–12 in place, the full array's row reduction:
///
///   min_out = min(src, orientation, L);
///   arg_out = selected_min(index, orientation, L, min_out == src);
///
/// both stored under the ambient where-mask. The word backend runs these
/// eDSL statements. The bit-plane backend charges every operator, store
/// and bus cycle as they do, but when min()'s rounds ran in the row
/// elimination kernel and every route is known (a clean machine, rows of
/// one segment) it writes each result straight into its register from the
/// elimination's row words, once, and takes `min_out == src` from the
/// value rounds' survivors on every row inside the mask that the spread
/// drives (the compare elsewhere). Any other case resolves the routes and
/// stores their results, as the statements do.
void min_argmin(Pint& min_out, Pint& arg_out, const Pint& src, const Pint& index,
                sim::Direction orientation, const Pbool& L);

/// Statement 10 in place, `two_sided` choosing two_sided_broadcast over
/// broadcast:
///
///   sow = broadcast(sow, South, carrier) + addend;
///
/// stored under the ambient where-mask (the full array, whose caller's
/// where(ROW != d) excludes the carrier). With `receivers` it is the sweep
/// engine's form instead, where the carrier row doubles as data row 0:
///
///   where (receivers) sow = broadcast(sow, South, carrier) + addend;
///   where (carrier)   sow = sow + addend;
///
/// The adds saturate. The word backend runs these eDSL statements; the
/// bit-plane backend writes sow in place with no Pint result, charging
/// every where-push, operator and store as the statements do, on the same
/// bus cycles. On a clean machine a one-sided call with driven operands
/// reads only the carrier's row and forms every sum in one pass
/// (Machine::plan_cycle).
void broadcast_add(Pint& sow, const Pint& addend, const Pbool& carrier, bool two_sided,
                   const Pbool* receivers = nullptr);

/// Statements 15–18, the full array's pullback of the row minima into row
/// `row`, `two_sided` choosing two_sided_broadcast over broadcast:
///
///   parallel logical changed = false;
///   where (row) where (!diagonal) {
///     old_sow = sow;
///     sow = broadcast(min_sow, South, diagonal);
///     changed = (sow != old_sow);
///     where (changed) ptn = broadcast(ptn, South, diagonal);
///   }
///
/// Returns `changed`. Same backend split as broadcast_add: on a clean
/// machine a one-sided call with driven operands charges both broadcasts
/// from their plans (Machine::plan_cycle) and reads only the diagonal's
/// driver row, and every store skips the word blocks outside `row`'s rows.
[[nodiscard]] Pbool pullback(Pint& sow, Pint& old_sow, Pint& ptn, const Pint& min_sow,
                             const Pbool& row, const Pbool& diagonal, bool two_sided);

// ---------------------------------------------------------------------------
// Priority-resolution idioms (classic reconfigurable-mesh building blocks,
// cf. the paper's reference [1], Miller et al.). They exploit the LINEAR
// bus reading: a PE whose upstream stub has no Open node reads a floating
// line, so "is my input driven?" answers "does any flag precede me?" in
// ONE bus cycle. They therefore require a Linear machine.
// ---------------------------------------------------------------------------

/// has_upstream(flags, dir)[pe] == true iff some PE strictly upstream of
/// `pe` on its line (against the data direction `dir`) has its flag set.
/// One broadcast cycle + one ALU step. Linear topology only.
[[nodiscard]] Pbool has_upstream(const Pbool& flags, sim::Direction dir);

/// The per-line leader: the first flagged PE in flow order (e.g. with
/// dir == East, the westernmost flag of each row). flags & !has_upstream.
/// Linear topology only.
[[nodiscard]] Pbool first_in_line(const Pbool& flags, sim::Direction dir);

/// Each PE receives the payload of the nearest flagged PE strictly
/// upstream of it; PEs with no flagged predecessor get an undriven
/// element (mask or detect via driven_mask). One bus cycle. Works on both
/// topologies; on a Ring the "nearest upstream" wraps.
[[nodiscard]] Pint nearest_upstream(const Pint& payload, const Pbool& flags,
                                    sim::Direction dir);

}  // namespace ppa::ppc
