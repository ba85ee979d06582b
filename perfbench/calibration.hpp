// The frozen host-speed probe that timings are normalized by.
//
// A bit-plane shaped kernel over h = 16 planes of 64-lane words, laid out
// plane-major like the simulator's bit-plane registers: a ripple-carry add,
// an MSB-first less-than compare, and a log-step prefix-OR of the result
// within each word. Every window maps and fills fresh pages, so it pays the
// same first-touch cost whatever state the solver left the heap in. It
// calls nothing in the library, so no change to the library can move it.
#pragma once

#include <cstddef>
#include <cstdint>

namespace perfbench {

struct CalibrationShape {
  std::size_t words_per_plane = 256;  // 64-lane words in each of the 16 planes
  int passes = 8;                     // add/compare/prefix-OR passes per window
};

/// Runs one calibration window; returns a checksum the caller must consume.
[[nodiscard]] std::uint64_t calibration_window(const CalibrationShape& shape,
                                               std::uint64_t salt);

}  // namespace perfbench
