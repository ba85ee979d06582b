// Minimal streaming JSON writer + the observability schema's field names.
//
// Every machine-readable artifact this repo emits — the metrics dump
// (`ppa_mcp --metrics-out`), the bench harness's perf trajectory
// (BENCH_e6.json) and the Chrome trace — goes through this writer, and the
// shared run-record field names live here as constants, so the perf gate
// (tools/perf_gate.py) and the metrics schema can never drift apart
// silently. The writer is deliberately tiny: objects, arrays, scalars,
// string escaping — no DOM, no allocation beyond the output stream.
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <string_view>
#include <type_traits>
#include <vector>

namespace ppa::obs {

/// Schema identifier stamped into every metrics dump; bump on any
/// backwards-incompatible field change (docs/observability.md).
inline constexpr std::string_view kMetricsSchema = "ppa.metrics.v1";

/// Field names shared between the metrics dump's "run" object and the
/// BENCH_e6.json perf records (tools/perf_gate.py matches on these).
namespace field {
inline constexpr std::string_view kWorkload = "workload";
inline constexpr std::string_view kBackend = "backend";
inline constexpr std::string_view kN = "n";
inline constexpr std::string_view kHostThreads = "host_threads";
/// Destinations per shared machine pass (docs/batching.md); part of the
/// perf gate's configuration key so batched and unbatched runs never get
/// compared against each other's baselines.
inline constexpr std::string_view kBatchWidth = "batch_width";
/// 1 = activity-driven panel schedule (docs/tiling.md), 0 = the dense
/// every-panel sweep. Part of the perf gate's configuration key: the two
/// schedules charge different PanelIo totals by design.
inline constexpr std::string_view kActivePanels = "active_panels";
inline constexpr std::string_view kSimdSteps = "simd_steps";
inline constexpr std::string_view kWallSeconds = "wall_seconds";
inline constexpr std::string_view kPeOpsPerSec = "pe_ops_per_sec";
/// Dispatched SIMD variant of the bit-plane kernels ("scalar" | "avx2" |
/// "avx512"; "none" on the word backend). Informational — NOT part of the
/// perf gate's configuration key, so baselines recorded on a different
/// host still match, but a surprising wall-clock delta can be traced to a
/// dispatch change from the record alone.
inline constexpr std::string_view kSimd = "simd";
}  // namespace field

/// Streaming writer with automatic comma placement. Usage:
///   JsonWriter w(out);
///   w.begin_object();
///   w.key("n"); w.value(16);
///   w.key("items"); w.begin_array(); w.value("a"); w.end_array();
///   w.end_object();
/// Nesting depth is tracked internally; the caller must pair begin/end.
class JsonWriter {
 public:
  explicit JsonWriter(std::ostream& out) : out_(out) {}

  void begin_object();
  void end_object();
  void begin_array();
  void end_array();

  /// Writes an object key; the next value/begin_* call is its value.
  void key(std::string_view name);

  void value(std::string_view text);
  void value(const char* text) { value(std::string_view(text)); }
  void value(const std::string& text) { value(std::string_view(text)); }
  void value(double number);
  void value(bool flag);
  /// Any non-bool integral type (signed and unsigned widths collapse onto
  /// int64/uint64, so size_t-vs-uint64_t never creates overload clashes).
  template <typename T>
    requires(std::is_integral_v<T> && !std::is_same_v<T, bool>)
  void value(T number) {
    if constexpr (std::is_signed_v<T>) {
      write_int(static_cast<std::int64_t>(number));
    } else {
      write_uint(static_cast<std::uint64_t>(number));
    }
  }

  /// Convenience: key + scalar value in one call.
  template <typename T>
  void kv(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

 private:
  void separate();  // emits "," where the grammar needs one
  void write_int(std::int64_t number);
  void write_uint(std::uint64_t number);

  std::ostream& out_;
  // One entry per open container: true once the first element was written.
  std::vector<bool> has_element_{false};
  bool pending_key_ = false;
};

/// JSON string escaping (quotes not included).
[[nodiscard]] std::string json_escape(std::string_view text);

/// Strict syntax check over a complete JSON document (the test suite
/// validates the emitted metrics dump and Chrome trace with this): the
/// verdict of json_parse (obs/json_dom.hpp). Returns false and fills
/// `error` (when non-null) on the first violation.
[[nodiscard]] bool json_valid(std::string_view text, std::string* error = nullptr);

}  // namespace ppa::obs
