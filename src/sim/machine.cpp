#include "sim/machine.hpp"

#include <algorithm>
#include <bit>
#include <type_traits>

#include "sim/plane_kernels.hpp"
#include "util/check.hpp"

namespace ppa::sim {

Machine::Machine(const MachineConfig& config)
    : config_(config), field_(config.bits), geometry_(config.n) {
  PPA_REQUIRE(config.n >= 1, "array side must be positive");
  // The array must be addressable by its own words: ROW and COL constants
  // (and selected_min over COL) live in the h-bit field.
  PPA_REQUIRE(config.n - 1 <= field_.max_finite(),
              "array side does not fit in the h-bit word field");
  PPA_REQUIRE(config.masking != BusMasking::Ecc || config.backend == ExecBackend::BitPlane,
              "ECC masking rides the bit-plane bus engine; it requires "
              "backend == BitPlane (use TMR on the word backend)");
}

void Machine::shift(std::span<const Word> src, Direction dir, Word fill,
                    std::span<Word> dst) {
  PPA_REQUIRE(src.size() == pe_count() && dst.size() == pe_count(),
              "shift operands must cover the whole array");
  PPA_REQUIRE(src.data() != dst.data(), "shift source and destination must not alias");
  const std::size_t side = config_.n;
  steps_.charge(StepCategory::Shift);
  if (trace_ != nullptr) trace_->on_event(TraceEvent{StepCategory::Shift, dir, 0, 0});
  for (std::size_t pe = 0; pe < pe_count(); ++pe) {
    const std::size_t r = pe / side;
    const std::size_t c = pe % side;
    // Receiving from the upstream neighbour: data moving East arrives
    // from the West, etc.
    switch (dir) {
      case Direction::East:
        dst[pe] = (c == 0) ? fill : src[pe - 1];
        break;
      case Direction::West:
        dst[pe] = (c + 1 == side) ? fill : src[pe + 1];
        break;
      case Direction::South:
        dst[pe] = (r == 0) ? fill : src[pe - side];
        break;
      case Direction::North:
        dst[pe] = (r + 1 == side) ? fill : src[pe + side];
        break;
    }
  }
}

namespace {

std::size_t count_open(std::span<const Flag> open) {
  std::size_t total = 0;
  for (const Flag f : open) total += (f != 0);
  return total;
}

/// True when a transient (or persistent) stuck bit afflicts this cycle.
bool stuck_bit_active(const Fault& sb, std::uint64_t cycle) {
  return sb.period == 0 || cycle % sb.period == sb.phase;
}

/// Per-element 2-of-3 majority vote of a (the primary trial, updated in
/// place), b and c. Bitwise, so it is simultaneously a per-wire vote on
/// words and a per-lane vote on packed planes. Returns true when any trial
/// disagreed with the voted result — i.e. the vote actually masked
/// something.
template <typename T>
bool majority_vote(std::span<T> a, std::span<const T> b, std::span<const T> c) {
  bool changed = false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const T m = static_cast<T>((a[i] & b[i]) | (a[i] & c[i]) | (b[i] & c[i]));
    changed = changed || m != a[i] || m != b[i] || m != c[i];
    a[i] = m;
  }
  return changed;
}

/// Parity planes protecting `planes` data planes: Hamming with data plane j
/// assigned the nonzero signature j + 1, so r = bit_width(planes) parity
/// planes distinguish every single-plane error (h = 16 -> r = 5).
int ecc_parity_count(int planes) {
  return static_cast<int>(std::bit_width(static_cast<unsigned>(planes)));
}

}  // namespace

void Machine::inject_faults(const FaultModel& model) {
  faults_ = compile_faults(model, geometry_, field_.bits(), config_.backend);
}

void Machine::report_fault(const FaultEvent& event) {
  ++fault_count_;
  if (fault_log_.size() < kMaxFaultLog) fault_log_.push_back(event);
  if (trace_ != nullptr) trace_->on_fault(event);
}

// ---------------------------------------------------------------------------
// Fault layer (docs/robustness.md, "Semantics, precisely"). A resolving
// cycle on a faulty machine runs the fault-free kernel between one
// pre-kernel step (effective switches, then dead drivers silenced) and one
// post-kernel step (contention, liveness, stuck wires, then dead reads),
// written once per representation over the backend's own compiled masks.
// Both representations compute the same function, so backend parity
// extends to faulty runs. Which post-kernel steps apply is the cycle
// kind's FaultSteps (machine.hpp).
// ---------------------------------------------------------------------------

template <typename T>
void Machine::fault_pre(Direction dir, std::span<const Flag>& open,
                        std::span<const T>& src) {
  PPA_REQUIRE(config_.backend == ExecBackend::Words,
              "a faulty machine resolves only its own backend's bus cycles");
  const FaultMasks<Flag>& masks = faults_.words;
  const int a = static_cast<int>(axis_of(dir));
  if (faults_.any_switch[a]) {
    scratch_open_.resize(open.size());
    const Flag* so = masks.stuck_open[a].data();
    const Flag* sc = masks.stuck_closed[a].data();
    for (std::size_t pe = 0; pe < open.size(); ++pe) {
      scratch_open_[pe] = static_cast<Flag>((open[pe] | so[pe]) & (sc[pe] ^ 1u));
    }
    open = scratch_open_;
  }
  if (faults_.any_dead) {
    std::vector<T>& silenced = [&]() -> std::vector<T>& {
      if constexpr (std::is_same_v<T, Word>) return scratch_src_word_;
      else return scratch_src_flag_;
    }();
    silenced.resize(src.size());
    const Flag* alive = masks.alive.data();
    for (std::size_t pe = 0; pe < src.size(); ++pe) {
      silenced[pe] = alive[pe] != 0 ? src[pe] : T{0};
    }
    src = silenced;
  }
}

template <typename T>
void Machine::fault_post(FaultSteps steps, StepCategory category, Direction dir,
                         std::span<const Flag> program_open, std::span<const Flag> open,
                         std::span<T> values, std::span<Flag> driven, int value_bits) {
  const FaultMasks<Flag>& masks = faults_.words;
  const Axis axis = axis_of(dir);
  const int a = static_cast<int>(axis);
  const std::size_t n = config_.n;
  if (steps.contention && config_.checked && faults_.any_switch[a]) {
    const Flag* sc = masks.stuck_closed[a].data();
    std::size_t first = 0;
    std::size_t count = 0;
    for (std::size_t pe = 0; pe < program_open.size(); ++pe) {
      if (program_open[pe] != 0 && sc[pe] != 0) {
        if (count == 0) first = pe;
        ++count;
      }
    }
    if (count != 0) {
      report_fault(FaultEvent{FaultEventKind::BusContention, category, dir, first / n,
                              first % n, count});
    }
  }
  if (steps.liveness && faults_.any_dead) {
    // Ride-along liveness cycle: broadcast "I am alive" over the same
    // effective switches; a segment reads 0 exactly when its driver is dead
    // (or the segment floats, in which case driven is already 0). Raw kernel
    // call — physically this is the same bus cycle, so no extra charge.
    scratch_alive_value_.resize(pe_count());
    scratch_alive_driven_.resize(pe_count());
    (void)bus_broadcast_into(n, config_.topology, dir, std::span<const Flag>(masks.alive), open,
                             std::span<Flag>(scratch_alive_value_),
                             std::span<Flag>(scratch_alive_driven_));
    for (std::size_t pe = 0; pe < driven.size(); ++pe) {
      driven[pe] = static_cast<Flag>(driven[pe] & scratch_alive_value_[pe]);
    }
  }
  if (steps.stuck_wires) {
    for (const Fault& sb : faults_.stuck_bits[a]) {
      if (sb.bit >= value_bits || !stuck_bit_active(sb, bus_cycles_)) continue;
      const T bit = static_cast<T>(T{1} << sb.bit);
      const std::size_t base = axis == Axis::Row ? sb.row * n : sb.row;
      const std::size_t stride = axis == Axis::Row ? 1 : n;
      for (std::size_t k = 0; k < n; ++k) {
        T& v = values[base + k * stride];
        v = static_cast<T>(sb.stuck_value ? (v | bit) : (v & static_cast<T>(~bit)));
      }
    }
  }
  if (faults_.any_dead) {
    const Flag* alive = masks.alive.data();
    for (std::size_t pe = 0; pe < values.size(); ++pe) {
      if (alive[pe] == 0) values[pe] = T{0};
    }
  }
}

void Machine::fault_pre(Direction dir, const PlaneWord*& open, const PlaneWord*& src,
                        int planes) {
  PPA_REQUIRE(config_.backend == ExecBackend::BitPlane,
              "a faulty machine resolves only its own backend's bus cycles");
  const FaultMasks<PlaneWord>& masks = faults_.planes;
  const int a = static_cast<int>(axis_of(dir));
  const std::size_t pw = geometry_.plane_words();
  if (faults_.any_switch[a]) {
    scratch_open_plane_.resize(pw);
    const PlaneWord* so = masks.stuck_open[a].data();
    const PlaneWord* sc = masks.stuck_closed[a].data();
    for (std::size_t i = 0; i < pw; ++i) scratch_open_plane_[i] = (open[i] | so[i]) & ~sc[i];
    open = scratch_open_plane_.data();
  }
  if (faults_.any_dead) {
    scratch_src_planes_.resize(pw * static_cast<std::size_t>(planes));
    const PlaneWord* alive = masks.alive.data();
    for (int j = 0; j < planes; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw;
      for (std::size_t i = 0; i < pw; ++i) scratch_src_planes_[off + i] = src[off + i] & alive[i];
    }
    src = scratch_src_planes_.data();
  }
}

void Machine::fault_post(FaultSteps steps, StepCategory category, Direction dir,
                         const PlaneWord* program_open, const PlaneWord* open, PlaneWord* out,
                         int planes, PlaneWord* driven) {
  const FaultMasks<PlaneWord>& masks = faults_.planes;
  const Axis axis = axis_of(dir);
  const int a = static_cast<int>(axis);
  const std::size_t pw = geometry_.plane_words();
  if (steps.contention && config_.checked && faults_.any_switch[a]) {
    const PlaneWord* sc = masks.stuck_closed[a].data();
    std::size_t first = 0;
    std::size_t count = 0;
    for (std::size_t i = 0; i < pw; ++i) {
      const PlaneWord hit = program_open[i] & sc[i];
      if (hit == 0) continue;
      if (count == 0) {
        const std::size_t row = i / geometry_.row_words;
        const std::size_t col = (i % geometry_.row_words) * kLanesPerWord +
                                static_cast<std::size_t>(__builtin_ctzll(hit));
        first = row * config_.n + col;
      }
      count += static_cast<std::size_t>(__builtin_popcountll(hit));
    }
    if (count != 0) {
      report_fault(FaultEvent{FaultEventKind::BusContention, category, dir,
                              first / config_.n, first % config_.n, count});
    }
  }
  if (steps.liveness && faults_.any_dead) {
    scratch_alive_out_.resize(pw);
    scratch_alive_driven_plane_.resize(pw);
    (void)plane_broadcast_into(geometry_, config_.topology, dir, masks.alive.data(), 1, open,
                               scratch_alive_out_.data(), scratch_alive_driven_plane_.data(),
                               bus_scratch_);
    for (std::size_t i = 0; i < pw; ++i) driven[i] &= scratch_alive_out_[i];
  }
  if (steps.stuck_wires) {
    for (const Fault& sb : faults_.stuck_bits[a]) {
      if (sb.bit >= planes || !stuck_bit_active(sb, bus_cycles_)) continue;
      PlaneWord* plane = out + static_cast<std::size_t>(sb.bit) * pw;
      if (axis == Axis::Row) {
        for (std::size_t w = 0; w < geometry_.row_words; ++w) {
          PlaneWord& v = plane[sb.row * geometry_.row_words + w];
          const PlaneWord mask = geometry_.word_mask(w);  // keeps pads zero
          v = sb.stuck_value ? (v | mask) : (v & ~mask);
        }
      } else {
        const std::size_t w = sb.row / kLanesPerWord;
        const PlaneWord mask = PlaneWord{1} << PlaneGeometry::bit_of(sb.row);
        for (std::size_t r = 0; r < config_.n; ++r) {
          PlaneWord& v = plane[r * geometry_.row_words + w];
          v = sb.stuck_value ? (v | mask) : (v & ~mask);
        }
      }
    }
  }
  if (faults_.any_dead) {
    const PlaneWord* alive = masks.alive.data();
    for (int j = 0; j < planes; ++j) {
      const std::size_t off = static_cast<std::size_t>(j) * pw;
      for (std::size_t i = 0; i < pw; ++i) out[off + i] &= alive[i];
    }
  }
}

// ---------------------------------------------------------------------------
// TMR (BusMasking::Tmr): the cycle runs three times, trial 1 into the
// caller's buffers under its own category, trials 2-3 into machine scratch
// under StepCategory::Masking, and each output is majority-voted per wire.
// Without TMR the one trial is the cycle.
// ---------------------------------------------------------------------------

template <typename V, typename D, typename Cycle>
std::size_t Machine::tmr_cycle(StepCategory category, std::span<V> values,
                               std::span<D> driven, Cycle cycle) {
  const std::size_t max_segment = cycle(values, driven, category);
  if (config_.masking != BusMasking::Tmr) return max_segment;
  auto& trial_values = [&]() -> auto& {
    if constexpr (std::is_same_v<V, Word>) return tmr_word_;
    else if constexpr (std::is_same_v<V, Flag>) return tmr_flag_;
    else return tmr_planes_;
  }();
  auto& trial_driven = [&]() -> auto& {
    if constexpr (std::is_same_v<D, Flag>) return tmr_driven_;
    else return tmr_planes_driven_;
  }();
  for (int i = 0; i < 2; ++i) {
    trial_values[i].resize(values.size());
    trial_driven[i].resize(driven.size());
    (void)cycle(std::span<V>(trial_values[i]), std::span<D>(trial_driven[i]),
                StepCategory::Masking);
  }
  ++mask_stats_.votes;
  bool changed = majority_vote<V>(values, trial_values[0], trial_values[1]);
  changed |= majority_vote<D>(driven, trial_driven[0], trial_driven[1]);
  if (changed) ++mask_stats_.corrections;
  return max_segment;
}

// ---------------------------------------------------------------------------
// Resolving cycles. Each runs the fault-free kernel (sim/bus.hpp,
// sim/bus_planes.hpp) between the fault layer's two steps, then charges
// and traces itself; each charged call advances bus_cycles_.
// ---------------------------------------------------------------------------

template <typename T>
std::size_t Machine::broadcast_cycle(std::span<const T> src, Direction dir,
                                     std::span<const Flag> open, std::span<T> values,
                                     std::span<Flag> driven, int value_bits,
                                     StepCategory category) {
  const std::span<const Flag> program_open = open;
  if (faults_.any) fault_pre(dir, open, src);
  const std::size_t max_segment =
      bus_broadcast_into(config_.n, config_.topology, dir, src, open, values, driven);
  if (faults_.any) {
    fault_post(category == StepCategory::Masking ? kTmrTrialSteps : kBroadcastSteps, category,
               dir, program_open, open, values, driven, value_bits);
  }
  TraceEvent event{category, dir, 0, max_segment, 1, static_cast<std::size_t>(value_bits), 0,
                   driven.size()};
  if (trace_ != nullptr) {
    // Bus occupancy rides the event only while a sink is attached: the
    // driven-flag scan is host bookkeeping, never charged, and the flags
    // themselves are pinned bit-identical across backends.
    event.open_count = count_open(open);
    for (const Flag f : driven) event.driven_wires += static_cast<std::size_t>(f != 0);
  }
  charge_cycles({event, {}, true});
  return max_segment;
}

std::size_t Machine::wired_or_cycle(std::span<const Flag> src, Direction dir,
                                    std::span<const Flag> open, std::span<Flag> values,
                                    StepCategory category) {
  const std::span<const Flag> program_open = open;
  if (faults_.any) fault_pre(dir, open, src);
  const std::size_t max_segment =
      bus_wired_or_into(config_.n, config_.topology, dir, src, open, values);
  if (faults_.any) {
    fault_post(kWiredOrSteps, category, dir, program_open, open, values, std::span<Flag>(), 1);
  }
  // An open-collector read never floats: every PE port sees the OR.
  TraceEvent event{category, dir, 0, max_segment, 1, 1, values.size(), values.size()};
  if (trace_ != nullptr) event.open_count = count_open(open);
  charge_cycles({event, {}, true});
  return max_segment;
}

std::size_t Machine::broadcast_planes_cycle(const PlaneWord* src, int planes,
                                            Direction dir, const PlaneWord* open,
                                            PlaneWord* out, PlaneWord* driven,
                                            StepCategory category) {
  const PlaneWord* program_open = open;
  if (faults_.any) fault_pre(dir, open, src, planes);
  const std::size_t max_segment = plane_broadcast_into(geometry_, config_.topology, dir, src,
                                                       planes, open, out, driven, bus_scratch_);
  if (faults_.any) {
    fault_post(category == StepCategory::Masking ? kTmrTrialSteps : kBroadcastSteps, category,
               dir, program_open, open, out, planes, driven);
  }
  TraceEvent event{category, dir, 0, max_segment, 1, static_cast<std::size_t>(planes), 0,
                   pe_count()};
  if (trace_ != nullptr) {
    // Pads are canonically zero, so the plane popcount equals the word
    // engine's driven-flag count exactly (the parity the tests pin).
    event.open_count = plane_popcount(geometry_, open);
    event.driven_wires = plane_popcount(geometry_, driven);
  }
  charge_cycles({event, {}, true});
  return max_segment;
}

std::size_t Machine::wired_or_plane_cycle(const PlaneWord* src, Direction dir,
                                          const PlaneWord* open, PlaneWord* out,
                                          StepCategory category) {
  const PlaneWord* program_open = open;
  if (faults_.any) fault_pre(dir, open, src, 1);
  const std::size_t max_segment =
      plane_wired_or_into(geometry_, config_.topology, dir, src, open, out, bus_scratch_);
  if (faults_.any) fault_post(kWiredOrSteps, category, dir, program_open, open, out, 1, nullptr);
  TraceEvent event{category, dir, 0, max_segment, 1, 1, pe_count(), pe_count()};
  if (trace_ != nullptr) event.open_count = plane_popcount(geometry_, open);
  charge_cycles({event, {}, true});
  return max_segment;
}

std::size_t Machine::shadow_broadcast_into(std::span<const Flag> src, Direction dir,
                                           std::span<const Flag> open,
                                           std::span<Flag> values, std::span<Flag> driven) {
  const std::span<const Flag> program_open = open;
  if (faults_.any) fault_pre(dir, open, src);
  const std::size_t max_segment =
      bus_broadcast_into(config_.n, config_.topology, dir, src, open, values, driven);
  if (faults_.any) {
    fault_post(kShadowSteps, StepCategory::BusBroadcast, dir, program_open, open, values, driven,
               1);
  }
  return max_segment;
}

std::size_t Machine::shadow_broadcast_planes_into(const PlaneWord* src, Direction dir,
                                                  const PlaneWord* open, PlaneWord* out,
                                                  PlaneWord* driven) {
  const PlaneWord* program_open = open;
  if (faults_.any) fault_pre(dir, open, src, 1);
  const std::size_t max_segment = plane_broadcast_into(geometry_, config_.topology, dir, src, 1,
                                                       open, out, driven, bus_scratch_);
  if (faults_.any) {
    fault_post(kShadowSteps, StepCategory::BusBroadcast, dir, program_open, open, out, 1, driven);
  }
  return max_segment;
}

BusResult Machine::broadcast(std::span<const Word> src, Direction dir,
                             std::span<const Flag> open) {
  BusResult result;
  result.values.resize(pe_count());
  result.driven.resize(pe_count());
  result.max_segment = broadcast_into(src, dir, open, result.values, result.driven);
  return result;
}

BusResult Machine::wired_or(std::span<const Flag> src, Direction dir,
                            std::span<const Flag> open) {
  BusResult result;
  std::vector<Flag> values(pe_count());
  result.max_segment = wired_or_into(src, dir, open, values);
  result.values.assign(values.begin(), values.end());
  result.driven.assign(pe_count(), 1);  // an open-collector read never floats
  return result;
}

std::size_t Machine::broadcast_into(std::span<const Word> src, Direction dir,
                                    std::span<const Flag> open, std::span<Word> values,
                                    std::span<Flag> driven) {
  return tmr_cycle(StepCategory::BusBroadcast, values, driven,
                   [&](std::span<Word> v, std::span<Flag> d, StepCategory category) {
                     return broadcast_cycle<Word>(src, dir, open, v, d, field_.bits(),
                                                  category);
                   });
}

std::size_t Machine::broadcast_into(std::span<const Flag> src, Direction dir,
                                    std::span<const Flag> open, std::span<Flag> values,
                                    std::span<Flag> driven) {
  return tmr_cycle(StepCategory::BusBroadcast, values, driven,
                   [&](std::span<Flag> v, std::span<Flag> d, StepCategory category) {
                     return broadcast_cycle<Flag>(src, dir, open, v, d, 1, category);
                   });
}

std::size_t Machine::wired_or_into(std::span<const Flag> src, Direction dir,
                                   std::span<const Flag> open, std::span<Flag> values) {
  return tmr_cycle(StepCategory::BusOr, values, std::span<Flag>(),
                   [&](std::span<Flag> v, std::span<Flag>, StepCategory category) {
                     return wired_or_cycle(src, dir, open, v, category);
                   });
}

std::size_t Machine::broadcast_planes_into(const PlaneWord* src, int planes,
                                           Direction dir, const PlaneWord* open,
                                           PlaneWord* out, PlaneWord* driven) {
  const std::size_t pw = geometry_.plane_words();
  const std::size_t max_segment = tmr_cycle(
      StepCategory::BusBroadcast, std::span<PlaneWord>(out, pw * static_cast<std::size_t>(planes)),
      std::span<PlaneWord>(driven, pw),
      [&](std::span<PlaneWord> o, std::span<PlaneWord> d, StepCategory category) {
        return broadcast_planes_cycle(src, planes, dir, open, o.data(), d.data(), category);
      });
  if (config_.masking == BusMasking::Ecc) ecc_correct(src, planes, dir, open, out, false);
  return max_segment;
}

std::size_t Machine::wired_or_plane_into(const PlaneWord* src, Direction dir,
                                         const PlaneWord* open, PlaneWord* out) {
  const std::size_t max_segment = tmr_cycle(
      StepCategory::BusOr, std::span<PlaneWord>(out, geometry_.plane_words()),
      std::span<PlaneWord>(), [&](std::span<PlaneWord> o, std::span<PlaneWord>, StepCategory category) {
        return wired_or_plane_cycle(src, dir, open, o.data(), category);
      });
  if (config_.masking == BusMasking::Ecc) ecc_correct(src, 1, dir, open, out, true);
  return max_segment;
}

const Machine::RowOrSwitches& Machine::row_or_switches(Direction dir, const PlaneWord* open) {
  RowOrSwitches& seen = row_or_switches_;
  const std::size_t pw = geometry_.plane_words();
  if (seen.open.size() == pw && seen.dir == dir &&
      plane_kernels::active().equal(open, seen.open.data(), pw)) {
    return seen;
  }
  seen.open.assign(open, open + pw);
  seen.dir = dir;
  seen.single_segments = row_or_single_segments(geometry_, dir, open);
  seen.max_segment =
      row_lines(geometry_, config_.topology, dir, open, /*wired_or=*/true, false).max_segment;
  seen.open_count = plane_popcount(geometry_, open);
  return seen;
}

std::optional<Machine::CyclePlan> Machine::plan_cycle(StepCategory category, Direction dir,
                                                      const PlaneWord* open, int planes) {
  PPA_REQUIRE(category == StepCategory::BusOr || category == StepCategory::BusBroadcast,
              "a cycle plan is a BusOr or a BusBroadcast cycle's");
  if (faults_.any || config_.masking != BusMasking::None) return std::nullopt;
  const bool traced = trace_ != nullptr;
  const bool row = axis_of(dir) == Axis::Row;
  CyclePlan plan;
  plan.event = {category, dir, 0, 0, 1, static_cast<std::size_t>(planes), 0, pe_count()};
  if (category == StepCategory::BusOr) {
    if (!row) return std::nullopt;
    const RowOrSwitches& seen = row_or_switches(dir, open);
    if (!seen.single_segments) return std::nullopt;
    plan.event.open_count = seen.open_count;
    plan.event.max_segment = seen.max_segment;
    plan.event.driven_wires = pe_count();  // a wired-OR never floats
    return plan;
  }
  if (row) {
    const RowLines lines =
        row_lines(geometry_, config_.topology, dir, open, /*wired_or=*/false, traced);
    plan.event.max_segment = lines.max_segment;
    plan.event.driven_wires = lines.driven;
  } else {
    const std::optional<ColumnDrivers> drivers =
        column_drivers(geometry_, config_.topology, dir, open, bus_scratch_);
    if (!drivers) return std::nullopt;
    plan.column = *drivers;
    plan.event.max_segment = drivers->max_segment;
    if (traced) plan.event.driven_wires = plane_popcount(geometry_, drivers->driven);
  }
  if (traced) plan.event.open_count = plane_popcount(geometry_, open);
  return plan;
}

void Machine::charge_cycles(const CyclePlan& plan, std::uint64_t cycles, int alu_before,
                            int alu_after) {
  // One bulk charge per category, however many cycles: charging a
  // 16-round elimination round by round cost allpairs_batched 10% of its
  // rows/s (docs/performance.md, "Charge-only cycles").
  bus_cycles_ += cycles;
  if (!plan.resolved) charge_only_cycles_ += cycles;
  steps_.charge(StepCategory::Alu, cycles * static_cast<std::uint64_t>(alu_before + alu_after));
  steps_.charge_bus(plan.event.category, plan.event.max_segment, cycles);
  if (trace_ == nullptr) return;
  const TraceEvent alu{StepCategory::Alu, Direction::North, 0, 0, 1};
  for (std::uint64_t k = 0; k < cycles; ++k) {
    for (int i = 0; i < alu_before; ++i) trace_->on_event(alu);
    trace_->on_event(plan.event);
    for (int i = 0; i < alu_after; ++i) trace_->on_event(alu);
  }
}

// ---------------------------------------------------------------------------
// ECC rider (docs/robustness.md). Every plane bus cycle is followed by a
// parity beat: r = bit_width(planes) parity planes of the PROGRAM source,
// computed with the dispatched SIMD plane kernels and sent through the same
// switch fabric (the fault layer's kParityBeatSteps: effective switches,
// dead-driver silencing, dead reads) but on spare wires outside the h-bit
// stuck-bit fault surface. The receiver recomputes parity over the
// received data planes; the XOR of the two is a per-lane Hamming syndrome
// that names the single corrupted data plane (signature j + 1), which is
// then bit-flipped in place. Double faults on one lane can alias to a wrong
// signature — the run's verification certificate stays the backstop for
// that.
// ---------------------------------------------------------------------------

void Machine::ecc_parity_of(const PlaneWord* data, int planes, int r, PlaneWord* parity) {
  const auto& k = plane_kernels::active();
  const std::size_t pw = geometry_.plane_words();
  for (int b = 0; b < r; ++b) {
    PlaneWord* p = parity + static_cast<std::size_t>(b) * pw;
    bool first = true;
    for (int j = 0; j < planes; ++j) {
      if ((static_cast<unsigned>(j + 1) >> b & 1u) == 0) continue;
      const PlaneWord* d = data + static_cast<std::size_t>(j) * pw;
      if (first) {
        k.op_copy(d, p, pw);
        first = false;
      } else {
        k.op_xor(p, d, p, pw);
      }
    }
    if (first) k.op_zero(p, pw);  // unreachable for r = bit_width(planes)
  }
}

void Machine::ecc_parity_beat(int r, Direction dir, const PlaneWord* open, bool wired_or) {
  const std::size_t pw = geometry_.plane_words();
  const PlaneWord* program_open = open;
  const PlaneWord* src = ecc_parity_src_.data();
  if (faults_.any) fault_pre(dir, open, src, r);
  ecc_parity_recv_.resize(static_cast<std::size_t>(r) * pw);
  std::size_t max_segment = 0;
  if (wired_or) {
    max_segment = plane_wired_or_into(geometry_, config_.topology, dir, src, open,
                                      ecc_parity_recv_.data(), bus_scratch_);
  } else {
    ecc_parity_driven_.resize(pw);
    max_segment = plane_broadcast_into(geometry_, config_.topology, dir, src, r, open,
                                       ecc_parity_recv_.data(), ecc_parity_driven_.data(),
                                       bus_scratch_);
  }
  // Dead PEs still read zero — zero received data plus zero parity is a
  // valid codeword, so dead lanes never trigger a false correction.
  if (faults_.any) {
    fault_post(kParityBeatSteps, StepCategory::Masking, dir, program_open, open,
               ecc_parity_recv_.data(), r, nullptr);
  }
  steps_.charge_bus(StepCategory::Masking, max_segment);
  if (trace_ != nullptr) {
    trace_->on_event(TraceEvent{StepCategory::Masking, dir, plane_popcount(geometry_, open),
                                max_segment, 1, static_cast<std::size_t>(r)});
  }
}

void Machine::ecc_decode(PlaneWord* out, int planes, int r) {
  const auto& k = plane_kernels::active();
  const std::size_t pw = geometry_.plane_words();
  ecc_check_.resize(static_cast<std::size_t>(r) * pw);
  ecc_parity_of(out, planes, r, ecc_check_.data());
  // Per-lane syndrome, in place: received parity XOR recomputed parity.
  k.op_xor(ecc_parity_recv_.data(), ecc_check_.data(), ecc_parity_recv_.data(),
           static_cast<std::size_t>(r) * pw);
  const PlaneWord* s = ecc_parity_recv_.data();
  ++mask_stats_.votes;
  ecc_nonzero_.resize(pw);
  k.op_copy(s, ecc_nonzero_.data(), pw);
  for (int b = 1; b < r; ++b) {
    k.op_or(ecc_nonzero_.data(), s + static_cast<std::size_t>(b) * pw,
            ecc_nonzero_.data(), pw);
  }
  if (k.all_zero(ecc_nonzero_.data(), pw)) return;  // clean cycle
  ecc_corrected_.resize(pw);
  ecc_mask_.resize(pw);
  k.op_zero(ecc_corrected_.data(), pw);
  for (int j = 0; j < planes; ++j) {
    const unsigned sig = static_cast<unsigned>(j) + 1;
    // Lanes whose syndrome equals this plane's signature exactly.
    bool first = true;
    for (int b = 0; b < r; ++b) {
      if ((sig >> b & 1u) == 0) continue;
      const PlaneWord* sb = s + static_cast<std::size_t>(b) * pw;
      if (first) {
        k.op_copy(sb, ecc_mask_.data(), pw);
        first = false;
      } else {
        k.op_and(ecc_mask_.data(), sb, ecc_mask_.data(), pw);
      }
    }
    for (int b = 0; b < r; ++b) {
      if ((sig >> b & 1u) != 0) continue;
      k.op_andnot(ecc_mask_.data(), s + static_cast<std::size_t>(b) * pw,
                  ecc_mask_.data(), pw);
    }
    if (k.all_zero(ecc_mask_.data(), pw)) continue;
    PlaneWord* dj = out + static_cast<std::size_t>(j) * pw;
    k.op_xor(dj, ecc_mask_.data(), dj, pw);
    k.op_or(ecc_corrected_.data(), ecc_mask_.data(), ecc_corrected_.data(), pw);
  }
  if (!k.all_zero(ecc_corrected_.data(), pw)) ++mask_stats_.corrections;
  // Lanes whose syndrome matched no data-plane signature (e.g. a multi-bit
  // hit aliasing past `planes`): flagged, not repaired.
  k.op_andnot(ecc_nonzero_.data(), ecc_corrected_.data(), ecc_nonzero_.data(), pw);
  if (!k.all_zero(ecc_nonzero_.data(), pw)) ++mask_stats_.uncorrectable;
}

void Machine::ecc_correct(const PlaneWord* src, int planes, Direction dir,
                          const PlaneWord* open, PlaneWord* out, bool wired_or) {
  // A 1-plane wired-OR cycle degenerates to r = 1: the parity "plane" is a
  // duplicate of the data plane on the clean spare wire.
  const int r = ecc_parity_count(planes);
  ecc_parity_src_.resize(static_cast<std::size_t>(r) * geometry_.plane_words());
  ecc_parity_of(src, planes, r, ecc_parity_src_.data());
  ecc_parity_beat(r, dir, open, wired_or);
  ecc_decode(out, planes, r);
}

void Machine::shift_planes(const PlaneWord* src, int planes, Direction dir,
                           std::uint64_t fill_bits, PlaneWord* dst) {
  PPA_REQUIRE(src != dst, "shift source and destination must not alias");
  steps_.charge(StepCategory::Shift);
  if (trace_ != nullptr) trace_->on_event(TraceEvent{StepCategory::Shift, dir, 0, 0});
  plane_shift(geometry_, dir, src, planes, fill_bits, dst);
}

bool Machine::global_or_plane(const PlaneWord* plane) {
  steps_.charge(StepCategory::GlobalOr);
  if (trace_ != nullptr) {
    trace_->on_event(TraceEvent{StepCategory::GlobalOr, Direction::North, 0, 0});
  }
  const std::size_t words = geometry_.plane_words();
  for (std::size_t i = 0; i < words; ++i) {
    if (plane[i] != 0) return true;
  }
  return false;
}

bool Machine::global_or(std::span<const Flag> flags) {
  PPA_REQUIRE(flags.size() == pe_count(), "global_or operand must cover the whole array");
  steps_.charge(StepCategory::GlobalOr);
  if (trace_ != nullptr) {
    trace_->on_event(TraceEvent{StepCategory::GlobalOr, Direction::North, 0, 0});
  }
  return std::any_of(flags.begin(), flags.end(), [](Flag f) { return f != 0; });
}

}  // namespace ppa::sim
