#include "sim/fault_model.hpp"

#include <charconv>
#include <sstream>
#include <type_traits>

#include "util/check.hpp"
#include "util/rng.hpp"

namespace ppa::sim {

const char* name_of(FaultKind kind) noexcept {
  switch (kind) {
    case FaultKind::StuckOpen: return "stuck-open";
    case FaultKind::StuckClosed: return "stuck-closed";
    case FaultKind::StuckBit: return "stuck-bit";
    case FaultKind::DeadPe: return "dead";
  }
  return "?";
}

std::string to_string(const Fault& fault) {
  std::ostringstream os;
  const char* axis = fault.axis == Axis::Row ? "row" : "col";
  switch (fault.kind) {
    case FaultKind::StuckOpen:
    case FaultKind::StuckClosed:
      os << name_of(fault.kind) << ':' << axis << ',' << fault.row << ',' << fault.col;
      break;
    case FaultKind::StuckBit:
      if (fault.period > 0) {
        os << "transient-bit:" << axis << ',' << fault.row << ',' << fault.bit << ','
           << (fault.stuck_value ? 1 : 0) << ',' << fault.period << ',' << fault.phase;
      } else {
        os << "stuck-bit:" << axis << ',' << fault.row << ',' << fault.bit << ','
           << (fault.stuck_value ? 1 : 0);
      }
      break;
    case FaultKind::DeadPe:
      os << "dead:" << fault.row << ',' << fault.col;
      break;
  }
  return os.str();
}

FaultModel FaultModel::random(std::size_t n, int bits, std::uint64_t seed,
                              std::size_t count) {
  PPA_REQUIRE(n >= 1 && bits >= 1, "fault model needs a non-empty array");
  util::Rng rng(seed);
  FaultModel model;
  for (std::size_t i = 0; i < count; ++i) {
    Fault fault;
    fault.kind = static_cast<FaultKind>(rng.below(4));
    fault.axis = rng.below(2) == 0 ? Axis::Row : Axis::Column;
    fault.row = static_cast<std::size_t>(rng.below(n));
    fault.col = static_cast<std::size_t>(rng.below(n));
    if (fault.kind == FaultKind::StuckBit) {
      fault.col = 0;
      fault.bit = static_cast<int>(rng.below(static_cast<std::uint64_t>(bits)));
      fault.stuck_value = rng.below(2) != 0;
    }
    model.add(fault);
  }
  return model;
}

namespace {

[[noreturn]] void fail_parse(std::string_view item, const char* why) {
  std::ostringstream os;
  os << "malformed fault spec item '" << item << "': " << why;
  throw util::ParseError(os.str());
}

std::string_view trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) s.remove_prefix(1);
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) s.remove_suffix(1);
  return s;
}

std::vector<std::string_view> split(std::string_view s, char sep) {
  std::vector<std::string_view> parts;
  while (true) {
    const std::size_t pos = s.find(sep);
    if (pos == std::string_view::npos) {
      parts.push_back(trim(s));
      return parts;
    }
    parts.push_back(trim(s.substr(0, pos)));
    s.remove_prefix(pos + 1);
  }
}

std::uint64_t parse_number(std::string_view item, std::string_view text) {
  std::uint64_t value = 0;
  const char* first = text.data();
  const char* last = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(first, last, value);
  if (ec != std::errc{} || ptr != last || text.empty()) {
    fail_parse(item, "expected a non-negative integer");
  }
  return value;
}

Axis parse_axis(std::string_view item, std::string_view text) {
  if (text == "row") return Axis::Row;
  if (text == "col") return Axis::Column;
  fail_parse(item, "axis must be 'row' or 'col'");
}

void require_range(std::string_view item, std::uint64_t value, std::uint64_t bound,
                   const char* what) {
  if (value >= bound) {
    std::ostringstream os;
    os << what << ' ' << value << " out of range [0, " << bound << ')';
    fail_parse(item, os.str().c_str());
  }
}

}  // namespace

FaultModel FaultModel::parse(std::string_view spec, std::size_t n, int bits) {
  PPA_REQUIRE(n >= 1 && bits >= 1, "fault model needs a non-empty array");
  FaultModel model;
  for (std::string_view item : split(spec, ';')) {
    if (item.empty()) continue;
    const std::size_t colon = item.find(':');
    if (colon == std::string_view::npos) fail_parse(item, "expected '<kind>:<args>'");
    const std::string_view kind = trim(item.substr(0, colon));
    const std::vector<std::string_view> args = split(item.substr(colon + 1), ',');
    Fault fault;
    if (kind == "stuck-open" || kind == "stuck-closed") {
      if (args.size() != 3) fail_parse(item, "expected <row|col>,<r>,<c>");
      fault.kind = kind == "stuck-open" ? FaultKind::StuckOpen : FaultKind::StuckClosed;
      fault.axis = parse_axis(item, args[0]);
      fault.row = parse_number(item, args[1]);
      fault.col = parse_number(item, args[2]);
      require_range(item, fault.row, n, "row");
      require_range(item, fault.col, n, "col");
    } else if (kind == "stuck-bit" || kind == "transient-bit") {
      const bool transient = kind == "transient-bit";
      if (!transient && args.size() != 4) {
        fail_parse(item, "expected <row|col>,<line>,<bit>,<0|1>");
      }
      if (transient && args.size() != 6) {
        fail_parse(item, "expected <row|col>,<line>,<bit>,<0|1>,<period>,<phase>");
      }
      fault.kind = FaultKind::StuckBit;
      fault.axis = parse_axis(item, args[0]);
      fault.row = parse_number(item, args[1]);
      const std::uint64_t bit = parse_number(item, args[2]);
      const std::uint64_t value = parse_number(item, args[3]);
      require_range(item, fault.row, n, "line");
      require_range(item, bit, static_cast<std::uint64_t>(bits), "bit");
      if (value > 1) fail_parse(item, "stuck value must be 0 or 1");
      fault.bit = static_cast<int>(bit);
      fault.stuck_value = value != 0;
      if (transient) {
        fault.period = parse_number(item, args[4]);
        fault.phase = parse_number(item, args[5]);
        if (fault.period == 0) fail_parse(item, "transient period must be >= 1");
        if (fault.phase >= fault.period) fail_parse(item, "phase must be < period");
      }
    } else if (kind == "dead") {
      if (args.size() != 2) fail_parse(item, "expected <r>,<c>");
      fault.kind = FaultKind::DeadPe;
      fault.row = parse_number(item, args[0]);
      fault.col = parse_number(item, args[1]);
      require_range(item, fault.row, n, "row");
      require_range(item, fault.col, n, "col");
    } else if (kind == "random") {
      if (args.size() != 2) fail_parse(item, "expected <seed>,<count>");
      const std::uint64_t seed = parse_number(item, args[0]);
      const std::uint64_t count = parse_number(item, args[1]);
      const FaultModel drawn = random(n, bits, seed, count);
      for (const Fault& f : drawn.faults()) model.add(f);
      continue;
    } else {
      fail_parse(item, "unknown fault kind");
    }
    model.add(fault);
  }
  return model;
}

namespace {

/// Builds `masks` from the switch and dead-PE faults of `model`, setting
/// each faulty PE's lane straight from the fault list: a Flag mask holds
/// one byte per PE, a plane mask one bit.
template <typename Mask>
void compile_masks(const FaultModel& model, const PlaneGeometry& geometry,
                   FaultMasks<Mask>& masks) {
  constexpr bool kFlags = std::is_same_v<Mask, Flag>;
  const std::size_t size = kFlags ? geometry.n * geometry.n : geometry.plane_words();
  const auto set = [&](std::vector<Mask>& mask, const Fault& fault, bool value) {
    if constexpr (kFlags) {
      mask[fault.row * geometry.n + fault.col] = value ? Flag{1} : Flag{0};
    } else {
      plane_set(geometry, mask.data(), fault.row, fault.col, value);
    }
  };
  for (const Fault& fault : model.faults()) {
    const int axis = static_cast<int>(fault.axis);
    switch (fault.kind) {
      case FaultKind::StuckOpen:
      case FaultKind::StuckClosed:
        if (masks.stuck_open[axis].empty()) {
          masks.stuck_open[axis].assign(size, 0);
          masks.stuck_closed[axis].assign(size, 0);
        }
        set(fault.kind == FaultKind::StuckOpen ? masks.stuck_open[axis]
                                               : masks.stuck_closed[axis],
            fault, true);
        break;
      case FaultKind::DeadPe:
        if (masks.alive.empty()) {
          // Every PE alive: a 1 per Flag, or a full plane with zero pads.
          masks.alive.assign(size, 1);
          if constexpr (!kFlags) plane_fill_full(geometry, masks.alive.data());
        }
        set(masks.alive, fault, false);
        break;
      case FaultKind::StuckBit:
        break;
    }
  }
}

}  // namespace

CompiledFaults compile_faults(const FaultModel& model, const PlaneGeometry& geometry,
                              int bits, ExecBackend backend) {
  CompiledFaults compiled;
  if (model.empty()) return compiled;
  const std::size_t n = geometry.n;
  compiled.any = true;
  for (const Fault& fault : model.faults()) {
    const int axis = static_cast<int>(fault.axis);
    switch (fault.kind) {
      case FaultKind::StuckOpen:
      case FaultKind::StuckClosed:
        PPA_REQUIRE(fault.row < n && fault.col < n,
                    "switch fault coordinates out of range: " + to_string(fault));
        compiled.any_switch[axis] = true;
        break;
      case FaultKind::StuckBit:
        PPA_REQUIRE(fault.row < n, "stuck-bit line out of range: " + to_string(fault));
        PPA_REQUIRE(fault.bit >= 0 && fault.bit < bits,
                    "stuck-bit wire out of range: " + to_string(fault));
        PPA_REQUIRE(fault.period == 0 || fault.phase < fault.period,
                    "transient phase out of range: " + to_string(fault));
        compiled.stuck_bits[axis].push_back(fault);
        break;
      case FaultKind::DeadPe:
        PPA_REQUIRE(fault.row < n && fault.col < n,
                    "dead PE coordinates out of range: " + to_string(fault));
        compiled.any_dead = true;
        break;
    }
  }
  // A stuck-closed switch wins over stuck-open at the same box (the short
  // dominates electrically); the pre-kernel step applies & ~stuck_closed
  // last, so no cleanup is needed here.
  if (backend == ExecBackend::Words) {
    compile_masks(model, geometry, compiled.words);
  } else {
    compile_masks(model, geometry, compiled.planes);
  }
  return compiled;
}

}  // namespace ppa::sim
