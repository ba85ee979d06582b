// Masked-SIMD semantics of the PPC layer: parallel variables, where /
// elsewhere, operator evaluation, and step charging.
#include "ppc/parallel.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <utility>
#include <vector>

#include "ppc/primitives.hpp"
#include "ppc/where.hpp"
#include "util/check.hpp"

namespace ppa::ppc {
namespace {

sim::MachineConfig config_of(std::size_t n, int bits = 8) {
  sim::MachineConfig c;
  c.n = n;
  c.bits = bits;
  return c;
}

TEST(Parallel, DeclarationFillsEveryPe) {
  sim::Machine m(config_of(3));
  Context ctx(m);
  const Pint x(ctx, 7);
  for (std::size_t pe = 0; pe < 9; ++pe) EXPECT_EQ(x.at(pe), 7u);
  const Pbool b(ctx, true);
  EXPECT_EQ(b.count(), 9u);
}

TEST(Parallel, DeclarationRejectsUnrepresentable) {
  sim::Machine m(config_of(3, 4));
  Context ctx(m);
  EXPECT_NO_THROW(Pint(ctx, 15));
  EXPECT_THROW(Pint(ctx, 16), util::ContractError);
}

TEST(Parallel, RowColConstants) {
  sim::Machine m(config_of(3));
  Context ctx(m);
  const Pint r = row_of(ctx);
  const Pint c = col_of(ctx);
  EXPECT_EQ(r.at(2, 1), 2u);
  EXPECT_EQ(c.at(2, 1), 1u);
}

TEST(Parallel, MaskedAssignmentOnlyWritesActivePes) {
  sim::Machine m(config_of(2));
  Context ctx(m);
  Pint x(ctx, 0);
  const Pint fives(ctx, 5);
  const Pbool top_row = (row_of(ctx) == Word{0});
  where(ctx, top_row, [&] { x = fives; });
  EXPECT_EQ(x.at(0, 0), 5u);
  EXPECT_EQ(x.at(0, 1), 5u);
  EXPECT_EQ(x.at(1, 0), 0u);
  EXPECT_EQ(x.at(1, 1), 0u);
}

TEST(Parallel, WhereElsePartitions) {
  sim::Machine m(config_of(2));
  Context ctx(m);
  Pint x(ctx, 0);
  const Pbool diag = (row_of(ctx) == col_of(ctx));
  where_else(
      ctx, diag, [&] { x = Pint(ctx, 1); }, [&] { x = Pint(ctx, 2); });
  EXPECT_EQ(x.at(0, 0), 1u);
  EXPECT_EQ(x.at(1, 1), 1u);
  EXPECT_EQ(x.at(0, 1), 2u);
  EXPECT_EQ(x.at(1, 0), 2u);
}

TEST(Parallel, NestedWheresAndCompose) {
  sim::Machine m(config_of(3));
  Context ctx(m);
  Pint x(ctx, 0);
  const Pbool row0 = (row_of(ctx) == Word{0});
  const Pbool col0 = (col_of(ctx) == Word{0});
  where(ctx, row0, [&] {
    where(ctx, col0, [&] { x = Pint(ctx, 9); });
  });
  EXPECT_EQ(x.at(0, 0), 9u);
  EXPECT_EQ(x.at(0, 1), 0u);
  EXPECT_EQ(x.at(1, 0), 0u);
  EXPECT_EQ(ctx.mask_depth(), 0u);
}

TEST(Parallel, MaskRestoredAfterException) {
  sim::Machine m(config_of(2));
  Context ctx(m);
  const Pbool cond(ctx, true);
  EXPECT_THROW(where(ctx, cond, [&] { throw std::runtime_error("x"); }), std::runtime_error);
  EXPECT_EQ(ctx.mask_depth(), 0u);
  EXPECT_TRUE(ctx.mask_is_full());
}

TEST(MaskDepth, CountsNestedWheresOnBothBackends) {
  for (const auto backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    sim::MachineConfig cfg = config_of(3);
    cfg.backend = backend;
    sim::Machine m(cfg);
    Context ctx(m);
    EXPECT_EQ(ctx.mask_depth(), 0u);
    const Pbool cond(ctx, true);
    where(ctx, cond, [&] {
      EXPECT_EQ(ctx.mask_depth(), 1u);
      where_else(
          ctx, cond, [&] { EXPECT_EQ(ctx.mask_depth(), 2u); },
          [&] { EXPECT_EQ(ctx.mask_depth(), 2u); });
      EXPECT_EQ(ctx.mask_depth(), 1u);
    });
    EXPECT_EQ(ctx.mask_depth(), 0u);
    EXPECT_THROW(ctx.pop_mask(), util::ContractError);
    EXPECT_EQ(ctx.mask_depth(), 0u);
  }
}

TEST(MaskDepth, EachBackendReadsOnlyItsOwnMask) {
  sim::MachineConfig cfg = config_of(3);
  sim::Machine words(cfg);
  Context word_ctx(words);
  EXPECT_EQ(word_ctx.mask().size(), 9u);
  EXPECT_THROW((void)word_ctx.mask_plane(), util::ContractError);
  EXPECT_THROW(word_ctx.push_mask_and_plane(nullptr), util::ContractError);
  cfg.backend = sim::ExecBackend::BitPlane;
  sim::Machine planes(cfg);
  Context plane_ctx(planes);
  EXPECT_NE(plane_ctx.mask_plane(), nullptr);
  EXPECT_THROW((void)plane_ctx.mask(), util::ContractError);
  const std::vector<sim::Flag> all(9, sim::Flag{1});
  EXPECT_THROW(plane_ctx.push_mask_and(all), util::ContractError);
  EXPECT_EQ(word_ctx.mask_depth(), 0u);
  EXPECT_EQ(plane_ctx.mask_depth(), 0u);
}

TEST(Parallel, ExpressionsEvaluateUnmasked) {
  // Operators run on every PE; only stores are masked.
  sim::Machine m(config_of(2));
  Context ctx(m);
  Pint x(ctx, 3);
  Pint y(ctx, 0);
  const Pbool nothing(ctx, false);
  where(ctx, nothing, [&] { y = x + Word{1}; });
  for (std::size_t pe = 0; pe < 4; ++pe) EXPECT_EQ(y.at(pe), 0u);  // no store happened
  const Pint z = x + Word{1};  // outside any where: plain expression
  for (std::size_t pe = 0; pe < 4; ++pe) EXPECT_EQ(z.at(pe), 4u);
}

TEST(Parallel, SaturatingAdd) {
  sim::Machine m(config_of(2, 4));  // infinity = 15
  Context ctx(m);
  const Pint a(ctx, 9);
  const Pint b(ctx, 9);
  const Pint s = a + b;
  for (std::size_t pe = 0; pe < 4; ++pe) EXPECT_EQ(s.at(pe), 15u);
  const Pint inf(ctx, 15);
  const Pint t = inf + Word{1};
  for (std::size_t pe = 0; pe < 4; ++pe) EXPECT_EQ(t.at(pe), 15u);
}

TEST(Parallel, ComparisonsAndLogic) {
  sim::Machine m(config_of(2));
  Context ctx(m);
  const Pint r = row_of(ctx);
  const Pint c = col_of(ctx);
  EXPECT_EQ((r == c).count(), 2u);
  EXPECT_EQ((r != c).count(), 2u);
  EXPECT_EQ((r < c).count(), 1u);   // only (0,1)
  EXPECT_EQ((r <= c).count(), 3u);
  EXPECT_EQ((r < Word{1}).count(), 2u);  // row 0
  const Pbool a = (r == Word{0});
  const Pbool b = (c == Word{0});
  EXPECT_EQ((a & b).count(), 1u);
  EXPECT_EQ((a | b).count(), 3u);
  EXPECT_EQ((a ^ b).count(), 2u);
  EXPECT_EQ((!a).count(), 2u);
  EXPECT_EQ((a == b).count(), 2u);
  EXPECT_EQ((a != b).count(), 2u);
}

TEST(Parallel, EminEmaxSelect) {
  sim::Machine m(config_of(2));
  Context ctx(m);
  const Pint r = row_of(ctx);
  const Pint c = col_of(ctx);
  const Pint lo = emin(r, c);
  const Pint hi = emax(r, c);
  EXPECT_EQ(lo.at(0, 1), 0u);
  EXPECT_EQ(hi.at(0, 1), 1u);
  const Pint sel = select(r == c, Pint(ctx, 8), Pint(ctx, 9));
  EXPECT_EQ(sel.at(0, 0), 8u);
  EXPECT_EQ(sel.at(0, 1), 9u);
}

TEST(Parallel, BitPlanesRoundTrip) {
  sim::Machine m(config_of(2, 8));
  Context ctx(m);
  const Pint x(ctx, 0b10110101);
  EXPECT_EQ(x.bit(0).count(), 4u);
  EXPECT_TRUE(x.bit(7).at(0));
  EXPECT_FALSE(x.bit(6).at(0));
  EXPECT_THROW((void)x.bit(8), util::ContractError);
  EXPECT_THROW((void)x.bit(-1), util::ContractError);

  // Reassemble the value from its planes with or_bit.
  Pint rebuilt(ctx, 0);
  for (int j = 0; j < 8; ++j) rebuilt = rebuilt.or_bit(j, x.bit(j));
  for (std::size_t pe = 0; pe < 4; ++pe) EXPECT_EQ(rebuilt.at(pe), x.at(pe));
}

TEST(Parallel, ToPintAndBack) {
  sim::Machine m(config_of(2));
  Context ctx(m);
  const Pbool diag = (row_of(ctx) == col_of(ctx));
  const Pint as_int = diag.to_pint();
  EXPECT_EQ(as_int.at(0, 0), 1u);
  EXPECT_EQ(as_int.at(0, 1), 0u);
}

TEST(Parallel, StoreAllIgnoresMask) {
  sim::Machine m(config_of(2));
  Context ctx(m);
  Pint x(ctx, 0);
  const Pbool nothing(ctx, false);
  where(ctx, nothing, [&] { x.store_all(6); });
  for (std::size_t pe = 0; pe < 4; ++pe) EXPECT_EQ(x.at(pe), 6u);
}

TEST(Parallel, CrossMachineOperandsRejected) {
  sim::Machine m1(config_of(2));
  sim::Machine m2(config_of(2));
  Context c1(m1);
  Context c2(m2);
  const Pint a(c1, 1);
  const Pint b(c2, 1);
  EXPECT_THROW((void)(a + b), util::ContractError);
  Pint x(c1, 0);
  EXPECT_THROW(x = b, util::ContractError);
}

TEST(Parallel, EveryOperationChargesSteps) {
  sim::Machine m(config_of(2));
  Context ctx(m);
  const auto base = m.steps().total();
  const Pint a(ctx, 1);                 // +1 store
  const Pint b(ctx, 2);                 // +1
  const Pint c = a + b;                 // +1
  const Pbool eq = (a == b);            // +1
  (void)c;
  (void)eq;
  EXPECT_EQ(m.steps().total() - base, 4u);
}

TEST(Parallel, PopWithoutPushRejected) {
  sim::Machine m(config_of(2));
  Context ctx(m);
  EXPECT_THROW(ctx.pop_mask(), util::ContractError);
}

TEST(Parallel, UndrivenConsumptionThrowsUnderErrorPolicy) {
  auto cfg = config_of(4);
  cfg.topology = sim::BusTopology::Linear;
  sim::Machine m(cfg);
  Context ctx(m);
  const Pint src = row_of(ctx);
  // Open only in row 0 at column 1: columns 0..1 of row 0 float, and every
  // other row floats entirely.
  const Pbool open = (row_of(ctx) == Word{0}) & (col_of(ctx) == Word{1});
  const Pint received = broadcast(src, sim::Direction::East, open);
  EXPECT_FALSE(received.fully_driven());
  Pint sink(ctx, 0);
  EXPECT_THROW(sink = received, util::ContractError);
  // Masking the store to driven PEs only is fine.
  const Pbool safe = (row_of(ctx) == Word{0}) & !(col_of(ctx) < Word{2});
  EXPECT_NO_THROW(where(ctx, safe, [&] { sink = received; }));
  EXPECT_EQ(sink.at(0, 2), 0u);  // value injected by row 0's driver
}

TEST(Parallel, UndrivenReadZeroPolicyStoresZero) {
  auto cfg = config_of(4);
  cfg.topology = sim::BusTopology::Linear;
  cfg.undriven = sim::UndrivenPolicy::ReadZero;
  sim::Machine m(cfg);
  Context ctx(m);
  const Pint src(ctx, 9);
  const Pbool open = (row_of(ctx) == Word{0}) & (col_of(ctx) == Word{1});
  const Pint received = broadcast(src, sim::Direction::East, open);
  Pint sink(ctx, 7);
  EXPECT_NO_THROW(sink = received);
  EXPECT_EQ(sink.at(0, 0), 0u);  // floating read becomes 0
  EXPECT_EQ(sink.at(0, 2), 9u);
  EXPECT_EQ(sink.at(3, 3), 0u);
}

TEST(Parallel, AdoptAndSurrenderMoveStorageOnBothBackends) {
  for (const sim::ExecBackend backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    SCOPED_TRACE(backend == sim::ExecBackend::Words ? "words" : "bitplane");
    // 70 x 70: two words per plane row, the second one partial.
    sim::MachineConfig cfg = config_of(70, 12);
    cfg.backend = backend;
    std::vector<Word> values(70 * 70);
    for (std::size_t pe = 0; pe < values.size(); ++pe) values[pe] = (pe * 37) % 4096;

    Pint::Storage storage;
    {
      sim::Machine first(cfg);
      Context ctx(first);
      storage = Pint(ctx, values).surrender();
    }  // the machine and context that packed it are gone
    EXPECT_EQ(storage.words.empty(), backend == sim::ExecBackend::BitPlane);
    EXPECT_EQ(storage.planes.empty(), backend == sim::ExecBackend::Words);

    sim::Machine m(cfg);
    Context ctx(m);
    const std::uint64_t before = m.steps().total();
    Pint adopted = Pint::adopt(ctx, std::move(storage));
    EXPECT_EQ(m.steps().total() - before, 1u);  // declared like Pint(ctx, values)
    EXPECT_TRUE(adopted.fully_driven());
    for (std::size_t pe = 0; pe < values.size(); ++pe) {
      ASSERT_EQ(adopted.at(pe), values[pe]) << "pe " << pe;
    }
    // The adopted register computes like any other, pads included.
    const Pint sum = adopted + Word{1};
    EXPECT_EQ(sum.at(69, 69), values[69 * 70 + 69] + 1);

    // Round trip: surrender hands the same contents back, and the shell
    // it leaves releases nothing.
    Pint::Storage back = std::move(adopted).surrender();
    Pint again = Pint::adopt(ctx, std::move(back));
    EXPECT_EQ(again.at(1, 2), values[70 + 2]);

    // Storage for the other backend or another geometry is rejected.
    Pint::Storage wrong;
    wrong.words.resize(69 * 69);
    EXPECT_THROW((void)Pint::adopt(ctx, std::move(wrong)), util::ContractError);
    Pint::Storage other_backend;
    if (backend == sim::ExecBackend::Words) {
      other_backend.planes.resize(ctx.geometry().plane_words() * 12);
    } else {
      other_backend.words.resize(70 * 70);
    }
    EXPECT_THROW((void)Pint::adopt(ctx, std::move(other_backend)), util::ContractError);
  }
}

TEST(Parallel, SurrenderRequiresAFullyDrivenRegister) {
  for (const sim::ExecBackend backend : {sim::ExecBackend::Words, sim::ExecBackend::BitPlane}) {
    sim::MachineConfig cfg = config_of(4);
    cfg.backend = backend;
    cfg.undriven = sim::UndrivenPolicy::ReadZero;
    sim::Machine m(cfg);
    Context ctx(m);
    const Pint src(ctx, 9);
    const Pbool open = (row_of(ctx) == Word{0}) & (col_of(ctx) == Word{1});
    Pint received = broadcast(src, sim::Direction::East, open);
    ASSERT_FALSE(received.fully_driven());
    EXPECT_THROW((void)std::move(received).surrender(), util::ContractError);
  }
}

// ---------------------------------------------------------------------------
// The register arena a thread keeps between Contexts (context.hpp). A
// buffer is recognised by its address and by a mark written into it before
// it is released: a fresh allocation is value-initialised, so it cannot
// carry the mark even where the allocator reuses the address.
// ---------------------------------------------------------------------------

constexpr std::uint64_t kMark = 0xA5A5A5A5A5A5A5A5u;

template <typename T>
bool carries_mark(const std::vector<T>& buffer) {
  return std::all_of(buffer.begin(), buffer.end(),
                     [](T v) { return v == static_cast<T>(kMark); });
}

/// One released buffer of each arena kind.
struct Marked {
  const Word* words = nullptr;
  const Flag* flags = nullptr;
  const sim::PlaneWord* value_planes = nullptr;
  const sim::PlaneWord* flag_plane = nullptr;
};

template <typename T, typename Release>
const T* release_marked(std::vector<T> buffer, Release release) {
  std::fill(buffer.begin(), buffer.end(), static_cast<T>(kMark));
  const T* address = buffer.data();
  release(std::move(buffer));
  return address;
}

/// Marks and releases one buffer of each kind into `ctx`'s arena.
Marked release_marked(Context& ctx) {
  Marked m;
  m.words = release_marked(ctx.acquire_words(),
                           [&](std::vector<Word>&& b) { ctx.release_words(std::move(b)); });
  m.flags = release_marked(ctx.acquire_flags(),
                           [&](std::vector<Flag>&& b) { ctx.release_flags(std::move(b)); });
  m.value_planes = release_marked(ctx.acquire_value_planes(), [&](std::vector<sim::PlaneWord>&& b) {
    ctx.release_value_planes(std::move(b));
  });
  m.flag_plane = release_marked(ctx.acquire_flag_plane(), [&](std::vector<sim::PlaneWord>&& b) {
    ctx.release_flag_plane(std::move(b));
  });
  return m;
}

/// Acquires buffers of one kind until `old` comes back still marked or
/// `limit` have been taken, then releases them all in reverse, which
/// leaves the free-list as it was plus any buffers allocated on the way.
/// Returns 1 if `old` came back.
template <typename T, typename Acquire, typename Release>
int count_adopted(const T* old, std::size_t limit, Acquire acquire, Release release) {
  std::vector<std::vector<T>> taken;
  int found = 0;
  while (found == 0 && taken.size() < limit) {
    taken.push_back(acquire());
    if (taken.back().data() == old && carries_mark(taken.back())) found = 1;
  }
  for (auto it = taken.rbegin(); it != taken.rend(); ++it) release(std::move(*it));
  return found;
}

/// Search depths: a buffer expected back may sit under every buffer the
/// test has released since (kSearch), while a probe for a buffer that must
/// not come back takes few, since each one it takes from an empty list
/// is a fresh buffer that the list keeps (kProbe). Every list a probe
/// reads in these tests holds fewer than kProbe buffers.
constexpr std::size_t kSearch = 64;
constexpr std::size_t kProbe = 8;

/// How many of `old`'s four buffers `ctx` hands out.
int adopted(Context& ctx, const Marked& old, std::size_t limit) {
  return count_adopted(
             old.words, limit, [&] { return ctx.acquire_words(); },
             [&](std::vector<Word>&& b) { ctx.release_words(std::move(b)); }) +
         count_adopted(
             old.flags, limit, [&] { return ctx.acquire_flags(); },
             [&](std::vector<Flag>&& b) { ctx.release_flags(std::move(b)); }) +
         count_adopted(
             old.value_planes, limit, [&] { return ctx.acquire_value_planes(); },
             [&](std::vector<sim::PlaneWord>&& b) { ctx.release_value_planes(std::move(b)); }) +
         count_adopted(
             old.flag_plane, limit, [&] { return ctx.acquire_flag_plane(); },
             [&](std::vector<sim::PlaneWord>&& b) { ctx.release_flag_plane(std::move(b)); });
}

/// Runs `body` on a new thread, whose arena is empty.
template <typename Body>
void on_new_thread(Body body) {
  std::async(std::launch::async, std::move(body)).get();
}

sim::MachineConfig arena_config(sim::ExecBackend backend, std::size_t n = 20, int bits = 12) {
  sim::MachineConfig cfg = config_of(n, bits);
  cfg.backend = backend;
  return cfg;
}

constexpr sim::ExecBackend kBackends[] = {sim::ExecBackend::Words, sim::ExecBackend::BitPlane};

TEST(RegisterArena, ReleasedBuffersComeBackInTheNextContext) {
  for (const sim::ExecBackend backend : kBackends) {
    on_new_thread([backend] {
      sim::Machine m(arena_config(backend));
      Marked old;
      {
        Context ctx(m);
        old = release_marked(ctx);
      }
      Context next(m);
      EXPECT_EQ(adopted(next, old, kSearch), 4);
    });
  }
}

TEST(RegisterArena, ANewKeyGetsNoneOfTheOldBuffers) {
  for (const sim::ExecBackend backend : kBackends) {
    const sim::ExecBackend other_backend = backend == sim::ExecBackend::Words
                                               ? sim::ExecBackend::BitPlane
                                               : sim::ExecBackend::Words;
    for (const sim::MachineConfig& other :
         {arena_config(backend, 19), arena_config(backend, 20, 13),
          arena_config(other_backend)}) {
      on_new_thread([backend, other] {
        sim::Machine m(arena_config(backend));
        Marked old;
        {
          Context ctx(m);
          old = release_marked(ctx);
        }
        {
          sim::Machine changed(other);
          Context ctx(changed);
          EXPECT_EQ(adopted(ctx, old, kProbe), 0);
        }
        // The new key dropped them: the old key does not get them back.
        Context again(m);
        EXPECT_EQ(adopted(again, old, kProbe), 0);
      });
    }
  }
}

TEST(RegisterArena, NestedContextsKeepTheirOwnBuffers) {
  for (const sim::ExecBackend backend : kBackends) {
    on_new_thread([backend] {
      sim::Machine m(arena_config(backend));
      Marked outer_buffers;
      Marked inner_buffers;
      {
        Context outer(m);
        const Pint y = Pint(outer, 2) + Word{4};
        outer_buffers = release_marked(outer);
        {
          Context inner(m);
          const Pint x = Pint(inner, 5) + Word{1};
          EXPECT_EQ(x.at(3, 4), 6u);
          EXPECT_EQ(adopted(inner, outer_buffers, kProbe), 0);
          inner_buffers = release_marked(inner);
        }
        // The inner Context handed its buffers to the thread, not to the
        // outer one, which still has its own.
        EXPECT_EQ(adopted(outer, inner_buffers, kProbe), 0);
        EXPECT_EQ(adopted(outer, outer_buffers, kSearch), 4);
        EXPECT_EQ(y.at(19, 19), 6u);
      }
      Context next(m);
      EXPECT_EQ(adopted(next, inner_buffers, kSearch), 4);
      EXPECT_EQ(adopted(next, outer_buffers, kSearch), 4);

      // An inner Context with another key leaves the outer one's buffers
      // alone; the outer Context, ending last, decides what the thread keeps.
      Marked kept;
      {
        Context outer(m);
        kept = release_marked(outer);
        {
          sim::Machine narrow(arena_config(backend, 9));
          Context inner(narrow);
          (void)release_marked(inner);
        }
        EXPECT_EQ(adopted(outer, kept, kSearch), 4);
      }
      Context last(m);
      EXPECT_EQ(adopted(last, kept, kSearch), 4);
    });
  }
}

TEST(RegisterArena, AnotherThreadSeesNoneOfThisThreadsBuffers) {
  for (const sim::ExecBackend backend : kBackends) {
    on_new_thread([backend] {
      sim::Machine m(arena_config(backend));
      Marked old;
      {
        Context ctx(m);
        old = release_marked(ctx);
      }
      on_new_thread([backend, old] {
        sim::Machine elsewhere(arena_config(backend));
        Context ctx(elsewhere);
        EXPECT_EQ(adopted(ctx, old, kProbe), 0);
      });
      Context here(m);
      EXPECT_EQ(adopted(here, old, kSearch), 4);
    });
  }
}

}  // namespace
}  // namespace ppa::ppc
