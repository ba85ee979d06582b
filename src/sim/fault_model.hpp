// Deterministic hardware fault injection.
//
// Real polymorphic arrays fail in the reconfiguration layer the paper's
// algorithm depends on: switch boxes jam (stuck-open segments the bus where
// the program wanted a through-connection, stuck-closed merges segments the
// program meant to keep apart), individual bus wires short to power or
// ground (stuck-at bits), and whole PEs die. A FaultModel is a seedable,
// reproducible description of such defects; Machine::inject_faults compiles
// it into per-axis masks in the representation of the machine's backend
// (word or bit-plane). Both backends apply the same fault steps in the same
// order, so the backend-differential oracle extends to faulty runs: under
// the same FaultModel the two backends still agree bit for bit.
//
// Semantics (applied around the fault-free bus kernels, per cycle):
//   * effective switch setting = (program Open | stuck-open) & ~stuck-closed;
//   * a dead PE never drives (its injected value is removed; a broadcast
//     segment whose only driver is dead floats undriven) and always reads 0;
//   * a stuck bus-line bit forces that wire of every PE's received value on
//     the faulty line (bit 0 for flag/wired-OR cycles); driven flags are a
//     host bookkeeping notion and are not affected by stuck bits.
//
// In checked execution (MachineConfig::checked) a program driver whose
// switch is forced closed is reported as bus contention: it injects into a
// segment it no longer bounds, so its value collides with the upstream
// driver's.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "sim/bit_planes.hpp"
#include "sim/bus.hpp"
#include "sim/geometry.hpp"

namespace ppa::sim {

enum class FaultKind : std::uint8_t {
  StuckOpen,    // switch box jammed Open (always segments + injects)
  StuckClosed,  // switch box jammed Short (never segments, never injects)
  StuckBit,     // one wire of one bus line stuck at 0 or 1
  DeadPe,       // PE never drives any bus and reads 0 from every bus
};

[[nodiscard]] const char* name_of(FaultKind kind) noexcept;

/// One hardware defect. Field meaning depends on `kind`:
///   StuckOpen/StuckClosed — axis + (row, col) of the jammed switch box;
///   StuckBit              — axis, `row` = bus line index (row number on the
///                           Row axis, column number on the Column axis),
///                           `bit` = wire index, `stuck_value` = forced level;
///   DeadPe                — (row, col) of the dead PE; axis ignored.
///
/// A StuckBit with `period` > 0 is TRANSIENT: it afflicts a bus cycle only
/// when the machine's bus-cycle index satisfies cycle % period == phase (a
/// deterministic stand-in for intermittent contacts / coupling glitches —
/// seed-reproducible, identical under both backends). period == 0 is the
/// persistent defect. With period >= 3 at most one of any three
/// consecutive cycles is hit, which is what makes TMR's 2-of-3 vote a
/// guaranteed correction (docs/robustness.md).
struct Fault {
  FaultKind kind = FaultKind::StuckOpen;
  Axis axis = Axis::Row;
  std::size_t row = 0;
  std::size_t col = 0;
  int bit = 0;
  bool stuck_value = false;
  std::size_t period = 0;  // StuckBit only: 0 = persistent, else cycle period
  std::size_t phase = 0;   // StuckBit only: afflicted when cycle % period == phase

  friend bool operator==(const Fault&, const Fault&) = default;
};

[[nodiscard]] std::string to_string(const Fault& fault);

/// An ordered, reproducible collection of defects.
class FaultModel {
 public:
  FaultModel() = default;

  void add(const Fault& fault) { faults_.push_back(fault); }
  [[nodiscard]] const std::vector<Fault>& faults() const noexcept { return faults_; }
  [[nodiscard]] bool empty() const noexcept { return faults_.empty(); }
  [[nodiscard]] std::size_t size() const noexcept { return faults_.size(); }

  /// `count` defects drawn uniformly over all four classes, deterministic in
  /// `seed` (util::Rng), valid for an n x n array with h-bit buses.
  [[nodiscard]] static FaultModel random(std::size_t n, int bits, std::uint64_t seed,
                                         std::size_t count);

  /// Parses the CLI spec grammar: items separated by ';', each one of
  ///   stuck-open:<row|col>,<r>,<c>
  ///   stuck-closed:<row|col>,<r>,<c>
  ///   stuck-bit:<row|col>,<line>,<bit>,<0|1>
  ///   transient-bit:<row|col>,<line>,<bit>,<0|1>,<period>,<phase>
  ///   dead:<r>,<c>
  ///   random:<seed>,<count>
  /// Throws util::ParseError on malformed input or out-of-range coordinates.
  [[nodiscard]] static FaultModel parse(std::string_view spec, std::size_t n, int bits);

  friend bool operator==(const FaultModel&, const FaultModel&) = default;

 private:
  std::vector<Fault> faults_;
};

// ---------------------------------------------------------------------------
// Compiled per-machine form. compile_faults builds only the masks of the
// machine's backend: Flag vectors (one per PE, row-major) for the word
// engine, bit planes (sim/bit_planes.hpp) for the bit-plane engine. The
// other representation's vectors stay empty. Each engine applies them in
// one pre-kernel and one post-kernel fault step (sim/machine.cpp), in the
// order docs/robustness.md gives.
// ---------------------------------------------------------------------------

/// One backend's masks. A switch axis's two masks are sized only when that
/// axis has a switch fault, `alive` only when some PE is dead; a plane
/// mask's pads are zero.
template <typename Mask>
struct FaultMasks {
  std::vector<Mask> stuck_open[2];    // indexed by Axis: 1 where jammed Open
  std::vector<Mask> stuck_closed[2];  // 1 where jammed Short
  std::vector<Mask> alive;            // 1 where the PE lives
};

struct CompiledFaults {
  bool any = false;
  bool any_dead = false;
  bool any_switch[2] = {false, false};  // indexed by Axis

  FaultMasks<Flag> words;        // ExecBackend::Words only
  FaultMasks<PlaneWord> planes;  // ExecBackend::BitPlane only

  std::vector<Fault> stuck_bits[2];  // the StuckBit faults, indexed by Axis
};

/// Validates coordinates against the array geometry and word width, then
/// expands the model into `backend`'s masks above. Throws
/// util::ContractError on out-of-range faults.
[[nodiscard]] CompiledFaults compile_faults(const FaultModel& model,
                                            const PlaneGeometry& geometry, int bits,
                                            ExecBackend backend);

}  // namespace ppa::sim
