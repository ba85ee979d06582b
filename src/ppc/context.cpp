#include "ppc/context.hpp"

#include <algorithm>
#include <utility>

#include "ppc/flag_sweep.hpp"
#include "util/check.hpp"

namespace ppa::ppc {

namespace {

template <typename T>
using FreeList = std::vector<std::vector<T>>;

/// The register arena a thread keeps between Contexts: the free-lists of
/// the last Context it destroyed, for one (backend, side, bits) key.
struct ArenaStore {
  sim::ExecBackend backend = sim::ExecBackend::Words;
  std::size_t side = 0;
  int bits = 0;
  std::size_t bytes = 0;
  FreeList<Word> words;
  FreeList<Flag> flags;
  FreeList<sim::PlaneWord> value_planes;
  FreeList<sim::PlaneWord> flag_planes;

  [[nodiscard]] bool holds(const Context& ctx) const noexcept {
    return backend == ctx.machine().config().backend && side == ctx.n() &&
           bits == ctx.field().bits();
  }

  /// Drops every buffer and takes `ctx`'s key.
  void rekey(const Context& ctx) noexcept {
    *this = ArenaStore{};
    backend = ctx.machine().config().backend;
    side = ctx.n();
    bits = ctx.field().bits();
  }

  /// Moves `list`'s buffers into the store while it stays within
  /// kArenaKeepBytes; the rest die with `list`.
  template <typename T>
  void keep(FreeList<T>& list, FreeList<T>& into) noexcept {
    for (std::vector<T>& buffer : list) {
      const std::size_t size = buffer.capacity() * sizeof(T);
      if (bytes + size > Context::kArenaKeepBytes) continue;
      try {
        into.push_back(std::move(buffer));
        bytes += size;
      } catch (...) {
        // Out of memory growing the store: just let the buffer die.
      }
    }
  }
};

ArenaStore& thread_arena() {
  thread_local ArenaStore store;
  return store;
}

}  // namespace

Context::Context(sim::Machine& machine)
    : machine_(machine),
      alu_(sim::plane_kernels::active(), machine.mutable_sweep_stats()) {
  ArenaStore& store = thread_arena();
  if (store.holds(*this)) {
    free_words_ = std::exchange(store.words, {});
    free_flags_ = std::exchange(store.flags, {});
    free_value_planes_ = std::exchange(store.value_planes, {});
    free_flag_planes_ = std::exchange(store.flag_planes, {});
    store.bytes = 0;
  } else {
    store.rekey(*this);
  }
  if (bitplane()) {
    full_ = acquire_flag_plane();
    sim::plane_fill_full(geometry(), full_.data());
    plane_stack_.push_back(acquire_flag_plane());
    std::copy(full_.begin(), full_.end(), plane_stack_.back().begin());
  } else {
    stack_.push_back(acquire_flags());
    std::fill(stack_.back().begin(), stack_.back().end(), Flag{1});
  }
}

Context::~Context() {
  for (std::vector<Flag>& level : stack_) release_flags(std::move(level));
  for (std::vector<sim::PlaneWord>& level : plane_stack_) release_flag_plane(std::move(level));
  release_flag_plane(std::move(full_));
  ArenaStore& store = thread_arena();
  if (!store.holds(*this)) store.rekey(*this);
  store.keep(free_value_planes_, store.value_planes);
  store.keep(free_flag_planes_, store.flag_planes);
  store.keep(free_words_, store.words);
  store.keep(free_flags_, store.flags);
}

std::span<const Flag> Context::mask() const {
  PPA_REQUIRE(!bitplane(), "Context::mask() is the word-backend mask; a bit-plane context "
                           "keeps its mask as a plane (mask_plane())");
  return stack_.back();
}

const sim::PlaneWord* Context::mask_plane() const {
  PPA_REQUIRE(bitplane(), "Context::mask_plane() is the bit-plane mask; a word-backend "
                          "context keeps its mask as flags (mask())");
  return plane_stack_.back().data();
}

bool Context::mask_is_full() const noexcept {
  if (bitplane()) {
    return alu_.equal(plane_stack_.back().data(), full_.data(),
                      geometry().plane_words());
  }
  const auto& top = stack_.back();
  return std::all_of(top.begin(), top.end(), [](Flag f) { return f != 0; });
}

void Context::push_mask_and(std::span<const Flag> cond) {
  PPA_REQUIRE(cond.size() == pe_count(), "where-condition must cover the whole array");
  const std::span<const Flag> top = mask();
  std::vector<Flag> next = acquire_flags();
  // Raw pointers: keeps the sweep at real loads/stores even when the
  // vector/span operator[] calls don't inline (unoptimized builds).
  const Flag* pt = top.data();
  const Flag* pc = cond.data();
  Flag* pn = next.data();
  flag_sweep::mask_and_cond(pt, pc, pn, /*negate=*/false, pe_count());
  machine_.charge_alu();
  stack_.push_back(std::move(next));
  ++depth_;
}

void Context::push_mask_and_not(std::span<const Flag> cond) {
  PPA_REQUIRE(cond.size() == pe_count(), "where-condition must cover the whole array");
  const std::span<const Flag> top = mask();
  std::vector<Flag> next = acquire_flags();
  const Flag* pt = top.data();
  const Flag* pc = cond.data();
  Flag* pn = next.data();
  flag_sweep::mask_and_cond(pt, pc, pn, /*negate=*/true, pe_count());
  machine_.charge_alu();
  stack_.push_back(std::move(next));
  ++depth_;
}

void Context::pop_mask() {
  PPA_REQUIRE(depth_ > 0, "pop_mask without a matching where");
  --depth_;
  if (bitplane()) {
    release_flag_plane(std::move(plane_stack_.back()));
    plane_stack_.pop_back();
    return;
  }
  release_flags(std::move(stack_.back()));
  stack_.pop_back();
}

void Context::push_mask_and_plane(const sim::PlaneWord* cond) {
  const sim::PlaneWord* top = mask_plane();
  std::vector<sim::PlaneWord> next = acquire_flag_plane();
  alu_.op_and(top, cond, next.data(), geometry().plane_words());
  machine_.charge_alu();
  plane_stack_.push_back(std::move(next));
  ++depth_;
}

void Context::push_mask_and_not_plane(const sim::PlaneWord* cond) {
  const sim::PlaneWord* top = mask_plane();
  std::vector<sim::PlaneWord> next = acquire_flag_plane();
  alu_.op_andnot(top, cond, next.data(), geometry().plane_words());
  machine_.charge_alu();
  plane_stack_.push_back(std::move(next));
  ++depth_;
}

std::vector<Word> Context::acquire_words() {
  if (!free_words_.empty()) {
    std::vector<Word> buffer = std::move(free_words_.back());
    free_words_.pop_back();
    buffer.resize(pe_count());
    return buffer;
  }
  return std::vector<Word>(pe_count());
}

std::vector<Flag> Context::acquire_flags() {
  if (!free_flags_.empty()) {
    std::vector<Flag> buffer = std::move(free_flags_.back());
    free_flags_.pop_back();
    buffer.resize(pe_count());
    return buffer;
  }
  return std::vector<Flag>(pe_count());
}

void Context::release_words(std::vector<Word>&& buffer) noexcept {
  if (buffer.capacity() < pe_count()) return;  // moved-from husk or wrong size
  try {
    free_words_.push_back(std::move(buffer));
  } catch (...) {
    // Out of memory growing the free-list: just let the buffer die.
  }
}

void Context::release_flags(std::vector<Flag>&& buffer) noexcept {
  if (buffer.capacity() < pe_count()) return;
  try {
    free_flags_.push_back(std::move(buffer));
  } catch (...) {
  }
}

std::vector<sim::PlaneWord> Context::acquire_value_planes() {
  const std::size_t words =
      geometry().plane_words() * static_cast<std::size_t>(field().bits());
  if (!free_value_planes_.empty()) {
    std::vector<sim::PlaneWord> buffer = std::move(free_value_planes_.back());
    free_value_planes_.pop_back();
    buffer.resize(words);
    return buffer;
  }
  return std::vector<sim::PlaneWord>(words);
}

std::vector<sim::PlaneWord> Context::acquire_flag_plane() {
  if (!free_flag_planes_.empty()) {
    std::vector<sim::PlaneWord> buffer = std::move(free_flag_planes_.back());
    free_flag_planes_.pop_back();
    buffer.resize(geometry().plane_words());
    return buffer;
  }
  return std::vector<sim::PlaneWord>(geometry().plane_words());
}

void Context::release_value_planes(std::vector<sim::PlaneWord>&& buffer) noexcept {
  const std::size_t words =
      geometry().plane_words() * static_cast<std::size_t>(field().bits());
  if (buffer.capacity() < words) return;
  try {
    free_value_planes_.push_back(std::move(buffer));
  } catch (...) {
  }
}

void Context::release_flag_plane(std::vector<sim::PlaneWord>&& buffer) noexcept {
  if (buffer.capacity() < geometry().plane_words()) return;
  try {
    free_flag_planes_.push_back(std::move(buffer));
  } catch (...) {
  }
}

}  // namespace ppa::ppc
