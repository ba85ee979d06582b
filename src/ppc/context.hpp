// PPC execution context: a machine plus the activity-mask stack.
//
// Polymorphic Parallel C partitions the PEs with the `where/elsewhere`
// control structure; nested wheres AND-compose. The mask gates *register
// write-back only*: expressions and bus cycles are executed by the whole
// physical array (the buses do not know about the program's mask — see
// DESIGN.md §4.1; the paper's statement 10 broadcasts FROM row d INSIDE a
// `where(ROW != d)` block, which only works under these semantics).
//
// Context is the object every Parallel variable holds a pointer to; it
// provides the mask stack and forwards geometry/primitives to the Machine.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

#include "sim/machine.hpp"
#include "sim/plane_kernels.hpp"

namespace ppa::ppc {

using sim::Flag;
using sim::Word;

class Context {
 public:
  explicit Context(sim::Machine& machine);

  /// Hands the register arena back to the thread (see below).
  ~Context();

  Context(const Context&) = delete;
  Context& operator=(const Context&) = delete;

  [[nodiscard]] sim::Machine& machine() noexcept { return machine_; }
  [[nodiscard]] const sim::Machine& machine() const noexcept { return machine_; }
  [[nodiscard]] const util::HField& field() const noexcept { return machine_.field(); }
  [[nodiscard]] std::size_t n() const noexcept { return machine_.n(); }
  [[nodiscard]] std::size_t pe_count() const noexcept { return machine_.pe_count(); }

  /// True when the machine runs the bit-plane backend; every parallel
  /// operation dispatches on this once, up front.
  [[nodiscard]] bool bitplane() const noexcept {
    return machine_.config().backend == sim::ExecBackend::BitPlane;
  }
  [[nodiscard]] const sim::PlaneGeometry& geometry() const noexcept {
    return machine_.plane_geometry();
  }
  /// The all-PEs mask plane (1 on every PE, 0 on pads).
  [[nodiscard]] const sim::PlaneWord* full_plane() const noexcept { return full_.data(); }

  /// The bit-plane ALU: the runtime-dispatched SIMD kernel table, billing
  /// the machine's sweep counters (sim/plane_kernels.hpp). Every
  /// plane-backend elementwise operation goes through it.
  [[nodiscard]] const sim::plane_kernels::PlaneAlu& alu() const noexcept { return alu_; }

  /// Current activity mask (1 = PE executes write-backs). Word backend
  /// only: a bit-plane context throws util::ContractError (use
  /// mask_plane()).
  [[nodiscard]] std::span<const Flag> mask() const;

  /// True iff no `where` is active (every PE active).
  [[nodiscard]] bool mask_is_full() const noexcept;

  /// Pushes `current & cond` / `current & !cond`. Each costs one ALU step
  /// (the hardware computes the new activity bit in every PE).
  void push_mask_and(std::span<const Flag> cond);
  void push_mask_and_not(std::span<const Flag> cond);
  void pop_mask();

  /// Bit-plane twins of the mask stack (used when bitplane() is true; the
  /// two stacks never mix — a Context runs one backend for its lifetime).
  /// A word-backend context throws util::ContractError (use mask()).
  [[nodiscard]] const sim::PlaneWord* mask_plane() const;
  void push_mask_and_plane(const sim::PlaneWord* cond);
  void push_mask_and_not_plane(const sim::PlaneWord* cond);

  /// Number of enclosing wheres (0 at top level), on either backend.
  [[nodiscard]] std::size_t mask_depth() const noexcept { return depth_; }

  // -------------------------------------------------------------------------
  // Register arena. Parallel temporaries (every SIMD operator's result, mask
  // pushes, primitive scratch lanes) draw pe_count-sized buffers from these
  // free-lists instead of hitting the allocator once per operation; Pint /
  // Pbool destructors hand the buffers back. The free-lists outlive the
  // Context: each thread keeps one arena, keyed by (backend, side, bits). A
  // Context adopts it when it is constructed (a new key drops the old
  // buffers first) and hands its free-lists back when it is destroyed; the
  // thread keeps at most kArenaKeepBytes of them and frees the rest. So
  // between Contexts a thread holds at most kArenaKeepBytes, and while
  // Contexts run, each holds its own free-lists on top. Buffers keep
  // unspecified contents across Contexts, as within one. Single-threaded
  // by design: the controller issues instructions sequentially, so neither
  // the arena nor the thread's store needs locks.
  // -------------------------------------------------------------------------

  /// Bytes of buffers a thread keeps between Contexts. An n = 128 solve
  /// ends holding 0.32 MB on the bit-plane backend and 0.88 MB on the word
  /// backend.
  static constexpr std::size_t kArenaKeepBytes = std::size_t{2} << 20;

  /// A pe_count-sized Word buffer with unspecified contents.
  [[nodiscard]] std::vector<Word> acquire_words();
  /// A pe_count-sized Flag buffer with unspecified contents.
  [[nodiscard]] std::vector<Flag> acquire_flags();

  /// Return a buffer to the arena. Accepts any vector: too-small ones
  /// (e.g. moved-from husks) are simply dropped. Never throws — a failed
  /// recycle just frees the buffer.
  void release_words(std::vector<Word>&& buffer) noexcept;
  void release_flags(std::vector<Flag>&& buffer) noexcept;

  /// Plane arenas: an h-plane value buffer (h * plane_words words) and a
  /// single-plane flag buffer (plane_words words), both with unspecified
  /// contents.
  [[nodiscard]] std::vector<sim::PlaneWord> acquire_value_planes();
  [[nodiscard]] std::vector<sim::PlaneWord> acquire_flag_plane();
  void release_value_planes(std::vector<sim::PlaneWord>&& buffer) noexcept;
  void release_flag_plane(std::vector<sim::PlaneWord>&& buffer) noexcept;

 private:
  sim::Machine& machine_;
  sim::plane_kernels::PlaneAlu alu_;
  std::size_t depth_ = 0;                 // pushes not yet popped
  std::vector<std::vector<Flag>> stack_;  // stack_[0] = all ones
  std::vector<std::vector<Word>> free_words_;
  std::vector<std::vector<Flag>> free_flags_;
  // Bit-plane state (empty planes when running the Word backend).
  std::vector<sim::PlaneWord> full_;
  std::vector<std::vector<sim::PlaneWord>> plane_stack_;  // plane_stack_[0] = full_
  std::vector<std::vector<sim::PlaneWord>> free_value_planes_;
  std::vector<std::vector<sim::PlaneWord>> free_flag_planes_;
};

}  // namespace ppa::ppc
