#include "ppc/parallel.hpp"

#include <algorithm>
#include <sstream>

#include "ppc/flag_sweep.hpp"
#include "util/check.hpp"

namespace ppa::ppc {

using sim::PlaneWord;

/// Private-access backdoor for primitives.cpp: builds parallel values that
/// carry bus-driven masks without charging a store instruction (the bus
/// primitive itself already charged the cycle).
class detail_access {
 public:
  static Pint raw_pint(Context& ctx, std::vector<Word> data, std::vector<Flag> driven) {
    Pint p(&ctx);
    p.data_ = std::move(data);
    p.driven_ = std::move(driven);
    PPA_ASSERT(p.data_.size() == ctx.pe_count(), "raw pint size mismatch");
    return p;
  }

  static Pbool raw_pbool(Context& ctx, std::vector<Flag> data, std::vector<Flag> driven) {
    Pbool p(&ctx);
    p.data_ = std::move(data);
    p.driven_ = std::move(driven);
    PPA_ASSERT(p.data_.size() == ctx.pe_count(), "raw pbool size mismatch");
    return p;
  }

  static Pint raw_pint_planes(Context& ctx, std::vector<PlaneWord> planes,
                              std::vector<PlaneWord> driven) {
    Pint p(&ctx);
    p.planes_ = std::move(planes);
    p.driven_plane_ = std::move(driven);
    PPA_ASSERT(p.planes_.size() == ctx.geometry().plane_words() *
                                       static_cast<std::size_t>(ctx.field().bits()),
               "raw pint plane size mismatch");
    return p;
  }

  static std::vector<PlaneWord>& planes(Pint& p) { return p.planes_; }
  static std::vector<PlaneWord>& driven_plane(Pint& p) { return p.driven_plane_; }

  static Pbool raw_pbool_plane(Context& ctx, std::vector<PlaneWord> plane,
                               std::vector<PlaneWord> driven) {
    Pbool p(&ctx);
    p.plane_ = std::move(plane);
    p.driven_plane_ = std::move(driven);
    PPA_ASSERT(p.plane_.size() == ctx.geometry().plane_words(),
               "raw pbool plane size mismatch");
    return p;
  }
};

namespace {

void check_same_context(const Context& a, const Context& b) {
  PPA_REQUIRE(&a == &b, "parallel operands belong to different machines");
}

/// Elementwise AND of the operands' driven masks; empty when both are
/// fully driven.
std::vector<Flag> combine_driven(Context& ctx, std::span<const Flag> a,
                                 std::span<const Flag> b) {
  if (a.empty() && b.empty()) return {};
  std::vector<Flag> out = ctx.acquire_flags();
  // Raw pointers: the elementwise sweeps below are the simulator's hot
  // path and must stay cheap even in unoptimized builds, where the
  // vector/span operator[] calls don't inline.
  const Flag* pa = a.empty() ? nullptr : a.data();
  const Flag* pb = b.empty() ? nullptr : b.data();
  Flag* po = out.data();
  const std::size_t count = out.size();
  for (std::size_t pe = 0; pe < count; ++pe) {
    Flag f = 1;
    if (pa != nullptr) f = static_cast<Flag>(f & pa[pe]);
    if (pb != nullptr) f = static_cast<Flag>(f & pb[pe]);
    po[pe] = f;
  }
  return out;
}

/// Arena-backed clone of a driven mask; empty in, empty out.
std::vector<Flag> copy_driven(Context& ctx, std::span<const Flag> driven) {
  if (driven.empty()) return {};
  std::vector<Flag> out = ctx.acquire_flags();
  std::copy(driven.begin(), driven.end(), out.begin());
  return out;
}

/// Plane twin of combine_driven: AND of the driven planes (full stands in
/// for an empty side); {} only when both sides are fully driven. Like the
/// word version, an all-ones result is NOT collapsed — the taint structure
/// stays observable.
std::vector<PlaneWord> combine_driven_planes(Context& ctx, std::span<const PlaneWord> a,
                                             std::span<const PlaneWord> b) {
  if (a.empty() && b.empty()) return {};
  std::vector<PlaneWord> out = ctx.acquire_flag_plane();
  const PlaneWord* pa = a.empty() ? ctx.full_plane() : a.data();
  const PlaneWord* pb = b.empty() ? ctx.full_plane() : b.data();
  ctx.alu().op_and(pa, pb, out.data(), ctx.geometry().plane_words());
  return out;
}

std::vector<PlaneWord> copy_driven_plane(Context& ctx,
                                         std::span<const PlaneWord> driven) {
  if (driven.empty()) return {};
  std::vector<PlaneWord> out = ctx.acquire_flag_plane();
  ctx.alu().op_copy(driven.data(), out.data(), ctx.geometry().plane_words());
  return out;
}

[[noreturn]] void fail_undriven(const Context& ctx, std::size_t pe) {
  std::ostringstream os;
  const std::size_t n = ctx.n();
  os << "PE (" << pe / n << ", " << pe % n
     << ") consumed an undriven bus value; with BusTopology::Linear this usually means a "
        "broadcast relied on ring wrap-around (see DESIGN.md), or an empty candidate set "
        "drove nothing onto the bus";
  throw util::ContractError(os.str());
}

/// Resolves a masked consume of undriven bus values. Checked execution
/// records a structured diagnostic and lets the store proceed (the bus
/// kernels already zeroed the undriven cells, so the PE reads 0); otherwise
/// the UndrivenPolicy::Error contract throws.
void handle_undriven(Context& ctx, std::size_t first_pe, std::size_t count) {
  if (ctx.machine().config().checked) {
    const std::size_t n = ctx.n();
    ctx.machine().report_fault(sim::FaultEvent{sim::FaultEventKind::UndrivenRead,
                                               sim::StepCategory::Alu,
                                               sim::Direction::North, first_pe / n,
                                               first_pe % n, count});
    return;
  }
  fail_undriven(ctx, first_pe);
}

/// Enforces the machine's UndrivenPolicy for a masked store of `rhs_driven`
/// (empty = fully driven, nothing to check).
void check_store_driven(Context& ctx, std::span<const Flag> mask,
                        std::span<const Flag> rhs_driven) {
  if (rhs_driven.empty()) return;
  const sim::MachineConfig& config = ctx.machine().config();
  if (!config.checked && config.undriven != sim::UndrivenPolicy::Error) return;
  std::size_t first = 0;
  std::size_t count = 0;
  for (std::size_t pe = 0; pe < mask.size(); ++pe) {
    if (mask[pe] && !rhs_driven[pe]) {
      if (count == 0) first = pe;
      ++count;
      if (!config.checked) break;  // the throw only reports the first PE
    }
  }
  if (count != 0) handle_undriven(ctx, first, count);
}

/// PE index of the lowest set bit of `bits` within word `word` of a plane
/// (row-major word order == PE order, so the first hit is the lowest PE).
std::size_t plane_pe_of(const sim::PlaneGeometry& g, std::size_t word, PlaneWord bits) {
  const std::size_t row = word / g.row_words;
  const std::size_t col = (word % g.row_words) * sim::kLanesPerWord +
                          static_cast<std::size_t>(__builtin_ctzll(bits));
  return row * g.n + col;
}

/// store_all's unmasked variant of the check: every PE must be driven.
void check_store_all_driven_plane(Context& ctx, std::span<const PlaneWord> rhs_driven) {
  detail::check_store_driven_plane(ctx, ctx.full_plane(), rhs_driven);
}

/// store_all's unmasked word-path variant.
void check_store_all_driven(Context& ctx, std::span<const Flag> rhs_driven) {
  if (rhs_driven.empty()) return;
  const sim::MachineConfig& config = ctx.machine().config();
  if (!config.checked && config.undriven != sim::UndrivenPolicy::Error) return;
  std::size_t first = 0;
  std::size_t count = 0;
  for (std::size_t pe = 0; pe < rhs_driven.size(); ++pe) {
    if (!rhs_driven[pe]) {
      if (count == 0) first = pe;
      ++count;
      if (!config.checked) break;
    }
  }
  if (count != 0) handle_undriven(ctx, first, count);
}

}  // namespace

// ---------------------------------------------------------------------------
// Pint
// ---------------------------------------------------------------------------

Pint::Pint(Context& ctx, Word init) : ctx_(&ctx) {
  PPA_REQUIRE(ctx.field().representable(init), "initializer does not fit in the h-bit field");
  if (ctx.bitplane()) {
    planes_ = ctx.acquire_value_planes();
    ctx.alu().fill_scalar(init, ctx.field().bits(), ctx.geometry().plane_words(),
                           ctx.full_plane(), planes_.data());
  } else {
    data_ = ctx.acquire_words();
    std::fill(data_.begin(), data_.end(), init);
  }
  ctx.machine().charge_alu();
}

Pint::Pint(Context& ctx, std::span<const Word> values) : ctx_(&ctx) {
  PPA_REQUIRE(values.size() == ctx.pe_count(), "initializer must cover the whole array");
  for (const Word v : values) {
    PPA_REQUIRE(ctx.field().representable(v), "initializer value does not fit in the field");
  }
  if (ctx.bitplane()) {
    planes_ = ctx.acquire_value_planes();
    ctx.alu().pack_words(ctx.geometry(), values.data(), ctx.field().bits(), planes_.data());
  } else {
    data_ = ctx.acquire_words();
    std::copy(values.begin(), values.end(), data_.begin());
  }
  ctx.machine().charge_alu();
}

Pint Pint::adopt(Context& ctx, Storage storage) {
  if (ctx.bitplane()) {
    PPA_REQUIRE(storage.words.empty() &&
                    storage.planes.size() == ctx.geometry().plane_words() *
                                                 static_cast<std::size_t>(ctx.field().bits()),
                "adopted storage must hold the context's h bit planes");
  } else {
    PPA_REQUIRE(storage.planes.empty() && storage.words.size() == ctx.pe_count(),
                "adopted storage must hold one word per PE");
  }
  Pint p(&ctx);
  p.data_ = std::move(storage.words);
  p.planes_ = std::move(storage.planes);
  ctx.machine().charge_alu();
  return p;
}

Pint::Storage Pint::surrender() && {
  PPA_REQUIRE(fully_driven(), "only a fully driven register can be surrendered");
  return Storage{std::move(data_), std::move(planes_)};
}

Pint Pint::load_row(Context& ctx, std::size_t row, std::span<const Word> values) {
  Pint p(&ctx);
  if (ctx.bitplane()) {
    p.planes_ = ctx.acquire_value_planes();
  } else {
    p.data_ = ctx.acquire_words();
  }
  p.reload_row(row, values, true);
  return p;
}

void Pint::reload_row(std::size_t row, std::span<const Word> values, bool zero_rest) {
  Context& ctx = *ctx_;
  const std::size_t n = ctx.n();
  PPA_REQUIRE(row < n, "row index out of range");
  PPA_REQUIRE(values.size() == n, "row load needs exactly n elements");
  for (const Word v : values) {
    PPA_REQUIRE(ctx.field().representable(v), "initializer value does not fit in the field");
  }
  if (ctx.bitplane()) {
    const auto& g = ctx.geometry();
    if (zero_rest) ctx.alu().op_zero(planes_.data(), planes_.size());
    ctx.alu().pack_row(g, values.data(), ctx.field().bits(), row, planes_.data());
    if (!driven_plane_.empty()) {
      if (zero_rest) {
        ctx.release_flag_plane(std::move(driven_plane_));
        driven_plane_ = {};
      } else {
        std::copy_n(ctx.full_plane() + row * g.row_words, g.row_words,
                    driven_plane_.begin() + static_cast<std::ptrdiff_t>(row * g.row_words));
      }
    }
  } else {
    if (zero_rest) std::fill(data_.begin(), data_.end(), Word{0});
    std::copy(values.begin(), values.end(), data_.begin() + static_cast<std::ptrdiff_t>(row * n));
    if (!driven_.empty()) {
      if (zero_rest) {
        ctx.release_flags(std::move(driven_));
        driven_ = {};
      } else {
        std::fill_n(driven_.begin() + static_cast<std::ptrdiff_t>(row * n), n, Flag{1});
      }
    }
  }
  ctx.machine().charge_alu();
}

Pint::Pint(const Pint& other) : ctx_(other.ctx_) {
  if (ctx_->bitplane()) {
    planes_ = ctx_->acquire_value_planes();
    planes_.resize(other.planes_.size());  // no-op except for moved-from shells
    std::copy(other.planes_.begin(), other.planes_.end(), planes_.begin());
    if (!other.driven_plane_.empty()) {
      driven_plane_ = ctx_->acquire_flag_plane();
      driven_plane_.resize(other.driven_plane_.size());
      std::copy(other.driven_plane_.begin(), other.driven_plane_.end(),
                driven_plane_.begin());
    }
    return;
  }
  data_ = ctx_->acquire_words();
  data_.resize(other.data_.size());  // no-op except for moved-from shells
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  if (!other.driven_.empty()) {
    driven_ = ctx_->acquire_flags();
    driven_.resize(other.driven_.size());
    std::copy(other.driven_.begin(), other.driven_.end(), driven_.begin());
  }
}

Pint::~Pint() {
  if (ctx_ != nullptr) {
    ctx_->release_words(std::move(data_));
    ctx_->release_flags(std::move(driven_));
    ctx_->release_value_planes(std::move(planes_));
    ctx_->release_flag_plane(std::move(driven_plane_));
  }
}

Pint& Pint::operator=(const Pint& rhs) {
  check_same_context(*ctx_, *rhs.ctx_);
  Context& ctx = *ctx_;
  if (ctx.bitplane()) {
    detail::store_planes(*this, ctx.mask_plane(), rhs.planes_.data(), rhs.driven_plane_);
    return *this;
  }
  const auto mask = ctx.mask();
  check_store_driven(ctx, mask, rhs.driven_);
  ctx.machine().charge_alu();
  // Self-assignment is harmless: each PE rewrites its own value.
  const Flag* pm = mask.data();
  const Word* ps = rhs.data_.data();
  Word* pd = data_.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe) {
    if (pm[pe]) pd[pe] = ps[pe];
  }
  if (!driven_.empty()) {
    // Written cells now hold defined values (undriven reads were rejected
    // or zeroed above).
    Flag* pv = driven_.data();
    for (std::size_t pe = 0; pe < driven_.size(); ++pe) {
      if (pm[pe]) pv[pe] = 1;
    }
  }
  return *this;
}

Pint& Pint::operator=(Pint&& rhs) { return *this = static_cast<const Pint&>(rhs); }

void Pint::store_all(const Pint& rhs) {
  check_same_context(*ctx_, *rhs.ctx_);
  if (ctx_->bitplane()) {
    check_store_all_driven_plane(*ctx_, rhs.driven_plane_);
    ctx_->machine().charge_alu();
    planes_ = rhs.planes_;
    driven_plane_.clear();
    return;
  }
  check_store_all_driven(*ctx_, rhs.driven_);
  ctx_->machine().charge_alu();
  data_ = rhs.data_;
  driven_.clear();
}

void Pint::store_all(Word value) {
  PPA_REQUIRE(ctx_->field().representable(value), "value does not fit in the h-bit field");
  ctx_->machine().charge_alu();
  if (ctx_->bitplane()) {
    ctx_->alu().fill_scalar(value, ctx_->field().bits(), ctx_->geometry().plane_words(),
                            ctx_->full_plane(), planes_.data());
    driven_plane_.clear();
    return;
  }
  std::fill(data_.begin(), data_.end(), value);
  driven_.clear();
}

Word Pint::at(std::size_t pe) const {
  PPA_REQUIRE(pe < ctx_->pe_count(), "PE index out of range");
  const std::size_t n = ctx_->n();
  return at(pe / n, pe % n);
}

Word Pint::at(std::size_t row, std::size_t col) const {
  const std::size_t n = ctx_->n();
  PPA_REQUIRE(row < n && col < n, "PE coordinates out of range");
  if (!ctx_->bitplane()) return data_[row * n + col];
  const auto& g = ctx_->geometry();
  const std::size_t pw = g.plane_words();
  const std::size_t word = g.word_of(row, col);
  const unsigned bit = sim::PlaneGeometry::bit_of(col);
  Word v = 0;
  const int h = ctx_->field().bits();
  for (int j = 0; j < h; ++j) {
    v |= static_cast<Word>((planes_[static_cast<std::size_t>(j) * pw + word] >> bit) & 1u) << j;
  }
  return v;
}

void Pint::read_row(std::size_t row, std::span<Word> out) const {
  const std::size_t n = ctx_->n();
  PPA_REQUIRE(row < n, "row index out of range");
  PPA_REQUIRE(out.size() == n, "row readback needs exactly n elements");
  if (!ctx_->bitplane()) {
    std::copy_n(data_.begin() + static_cast<std::ptrdiff_t>(row * n), n, out.begin());
    return;
  }
  const auto& g = ctx_->geometry();
  const std::size_t pw = g.plane_words();
  const int h = ctx_->field().bits();
  std::fill(out.begin(), out.end(), Word{0});
  for (int j = 0; j < h; ++j) {
    const sim::PlaneWord* plane =
        planes_.data() + static_cast<std::size_t>(j) * pw + row * g.row_words;
    for (std::size_t w = 0; w < g.row_words; ++w) {
      sim::PlaneWord bits = plane[w];
      while (bits != 0) {
        const auto b = static_cast<std::size_t>(__builtin_ctzll(bits));
        out[w * sim::kLanesPerWord + b] |= Word{1} << j;
        bits &= bits - 1;
      }
    }
  }
}

void Pint::read_column(std::size_t col, std::span<Word> out) const {
  const std::size_t n = ctx_->n();
  PPA_REQUIRE(col < n, "column index out of range");
  PPA_REQUIRE(out.size() == n, "column readback needs exactly n elements");
  if (!ctx_->bitplane()) {
    for (std::size_t r = 0; r < n; ++r) out[r] = data_[r * n + col];
    return;
  }
  const auto& g = ctx_->geometry();
  const std::size_t pw = g.plane_words();
  const std::size_t rw = g.row_words;
  const unsigned bit = sim::PlaneGeometry::bit_of(col);
  const int h = ctx_->field().bits();
  std::fill(out.begin(), out.end(), Word{0});
  for (int j = 0; j < h; ++j) {
    const sim::PlaneWord* word =
        planes_.data() + static_cast<std::size_t>(j) * pw + col / sim::kLanesPerWord;
    for (std::size_t r = 0; r < n; ++r) {
      out[r] |= static_cast<Word>((word[r * rw] >> bit) & 1u) << j;
    }
  }
}

Pbool Pint::bit(int j) const {
  PPA_REQUIRE(j >= 0 && j < ctx_->field().bits(), "bit plane index out of range");
  Context& ctx = *ctx_;
  if (ctx.bitplane()) {
    // The plane IS the representation: extraction is a straight copy.
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.alu().op_copy(planes_.data() + static_cast<std::size_t>(j) * pw, out.data(), pw);
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(ctx, std::move(out),
                                          copy_driven_plane(ctx, driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* ps = data_.data();
  Flag* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe) {
    po[pe] = static_cast<Flag>((ps[pe] >> j) & 1u);
  }
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out), copy_driven(ctx, driven_));
}

Pint Pint::or_bit(int j, const Pbool& flag) const {
  PPA_REQUIRE(j >= 0 && j < ctx_->field().bits(), "bit plane index out of range");
  check_same_context(*ctx_, flag.context());
  Context& ctx = *ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    const int h = ctx.field().bits();
    std::vector<PlaneWord> out = ctx.acquire_value_planes();
    ctx.alu().op_copy(planes_.data(), out.data(), static_cast<std::size_t>(h) * pw);
    PlaneWord* oj = out.data() + static_cast<std::size_t>(j) * pw;
    ctx.alu().op_or(oj, flag.plane_view().data(), oj, pw);
    ctx.machine().charge_alu();
    return detail_access::raw_pint_planes(
        ctx, std::move(out), combine_driven_planes(ctx, driven_plane_, flag.driven_plane_view()));
  }
  std::vector<Word> out = ctx.acquire_words();
  const Flag* pf = flag.values().data();
  const Word* ps = data_.data();
  Word* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe) {
    po[pe] = ps[pe] | (pf[pe] ? (Word{1} << j) : Word{0});
  }
  ctx.machine().charge_alu();
  return detail_access::raw_pint(ctx, std::move(out),
                                 combine_driven(ctx, driven_, flag.driven_view()));
}

// ---------------------------------------------------------------------------
// The operator bodies need the operands' driven masks; they are friends so
// they touch the members directly rather than going through helpers.
// ---------------------------------------------------------------------------

Pint operator+(const Pint& a, const Pint& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> out = ctx.acquire_value_planes();
    ctx.alu().add_sat(a.planes_.data(), b.planes_.data(), ctx.field().bits(), pw, out.data());
    ctx.machine().charge_alu();
    return detail_access::raw_pint_planes(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  const auto& field = ctx.field();
  std::vector<Word> out = ctx.acquire_words();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Word* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe) po[pe] = field.add(pa[pe], pb[pe]);
  ctx.machine().charge_alu();
  return detail_access::raw_pint(ctx, std::move(out),
                                 combine_driven(ctx, a.driven_, b.driven_));
}

Pint operator+(const Pint& a, Word b) {
  Context& ctx = *a.ctx_;
  PPA_REQUIRE(ctx.field().representable(b), "scalar does not fit in the h-bit field");
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    const int h = ctx.field().bits();
    std::vector<PlaneWord> scalar = ctx.acquire_value_planes();
    ctx.alu().fill_scalar(b, h, pw, ctx.full_plane(), scalar.data());
    std::vector<PlaneWord> out = ctx.acquire_value_planes();
    ctx.alu().add_sat(a.planes_.data(), scalar.data(), h, pw, out.data());
    ctx.release_value_planes(std::move(scalar));
    ctx.machine().charge_alu();
    return detail_access::raw_pint_planes(ctx, std::move(out),
                                          copy_driven_plane(ctx, a.driven_plane_));
  }
  const auto& field = ctx.field();
  std::vector<Word> out = ctx.acquire_words();
  const Word* pa = a.data_.data();
  Word* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe) po[pe] = field.add(pa[pe], b);
  ctx.machine().charge_alu();
  return detail_access::raw_pint(ctx, std::move(out), combine_driven(ctx, a.driven_, {}));
}

namespace {

/// Shared plane body of emin/emax: out = choose ? a : b per plane, where
/// `choose` was computed by a compare. Returns the blended planes.
std::vector<PlaneWord> blend_planes(Context& ctx, const PlaneWord* choose,
                                    std::span<const PlaneWord> a,
                                    std::span<const PlaneWord> b) {
  const std::size_t pw = ctx.geometry().plane_words();
  const int h = ctx.field().bits();
  std::vector<PlaneWord> out = ctx.acquire_value_planes();
  for (int j = 0; j < h; ++j) {
    const std::size_t off = static_cast<std::size_t>(j) * pw;
    ctx.alu().blend(choose, a.data() + off, b.data() + off, out.data() + off, pw);
  }
  return out;
}

}  // namespace

Pint emin(const Pint& a, const Pint& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> lt = ctx.acquire_flag_plane();
    std::vector<PlaneWord> eq = ctx.acquire_flag_plane();
    ctx.alu().compare_lt(a.planes_.data(), b.planes_.data(), ctx.field().bits(), pw,
                          ctx.full_plane(), lt.data(), eq.data());
    std::vector<PlaneWord> out = blend_planes(ctx, lt.data(), a.planes_, b.planes_);
    ctx.release_flag_plane(std::move(lt));
    ctx.release_flag_plane(std::move(eq));
    ctx.machine().charge_alu();
    return detail_access::raw_pint_planes(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Word> out = ctx.acquire_words();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Word* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe)
    po[pe] = pa[pe] < pb[pe] ? pa[pe] : pb[pe];
  ctx.machine().charge_alu();
  return detail_access::raw_pint(ctx, std::move(out),
                                 combine_driven(ctx, a.driven_, b.driven_));
}

Pint emax(const Pint& a, const Pint& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> gt = ctx.acquire_flag_plane();
    std::vector<PlaneWord> eq = ctx.acquire_flag_plane();
    // a > b  <=>  b < a.
    ctx.alu().compare_lt(b.planes_.data(), a.planes_.data(), ctx.field().bits(), pw,
                          ctx.full_plane(), gt.data(), eq.data());
    std::vector<PlaneWord> out = blend_planes(ctx, gt.data(), a.planes_, b.planes_);
    ctx.release_flag_plane(std::move(gt));
    ctx.release_flag_plane(std::move(eq));
    ctx.machine().charge_alu();
    return detail_access::raw_pint_planes(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Word> out = ctx.acquire_words();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Word* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe)
    po[pe] = pa[pe] > pb[pe] ? pa[pe] : pb[pe];
  ctx.machine().charge_alu();
  return detail_access::raw_pint(ctx, std::move(out),
                                 combine_driven(ctx, a.driven_, b.driven_));
}

namespace {

/// Plane bodies of the Pint comparisons; `kind` selects the output.
enum class CompareKind { Eq, Ne, Lt, Le };

std::vector<PlaneWord> compare_planes(Context& ctx, std::span<const PlaneWord> a,
                                      std::span<const PlaneWord> b, CompareKind kind) {
  const std::size_t pw = ctx.geometry().plane_words();
  const int h = ctx.field().bits();
  std::vector<PlaneWord> out = ctx.acquire_flag_plane();
  if (kind == CompareKind::Eq || kind == CompareKind::Ne) {
    ctx.alu().compare_eq(a.data(), b.data(), h, pw, ctx.full_plane(), out.data());
    if (kind == CompareKind::Ne) {
      ctx.alu().op_andnot(ctx.full_plane(), out.data(), out.data(), pw);
    }
    return out;
  }
  std::vector<PlaneWord> eq = ctx.acquire_flag_plane();
  ctx.alu().compare_lt(a.data(), b.data(), h, pw, ctx.full_plane(), out.data(), eq.data());
  if (kind == CompareKind::Le) {
    ctx.alu().op_or(out.data(), eq.data(), out.data(), pw);
  }
  ctx.release_flag_plane(std::move(eq));
  return out;
}

/// Materializes a scalar's planes so the vector compare bodies can be
/// reused for the Pint-vs-scalar comparisons.
std::vector<PlaneWord> scalar_planes(Context& ctx, Word value) {
  std::vector<PlaneWord> out = ctx.acquire_value_planes();
  ctx.alu().fill_scalar(value, ctx.field().bits(), ctx.geometry().plane_words(),
                         ctx.full_plane(), out.data());
  return out;
}

}  // namespace

Pbool operator==(const Pint& a, const Pint& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = compare_planes(ctx, a.planes_, b.planes_, CompareKind::Eq);
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Flag* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe)
    po[pe] = pa[pe] == pb[pe] ? Flag{1} : Flag{0};
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out),
                                  combine_driven(ctx, a.driven_, b.driven_));
}

Pbool operator!=(const Pint& a, const Pint& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = compare_planes(ctx, a.planes_, b.planes_, CompareKind::Ne);
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Flag* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe)
    po[pe] = pa[pe] != pb[pe] ? Flag{1} : Flag{0};
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out),
                                  combine_driven(ctx, a.driven_, b.driven_));
}

Pbool operator<(const Pint& a, const Pint& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = compare_planes(ctx, a.planes_, b.planes_, CompareKind::Lt);
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Flag* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe)
    po[pe] = pa[pe] < pb[pe] ? Flag{1} : Flag{0};
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out),
                                  combine_driven(ctx, a.driven_, b.driven_));
}

Pbool operator<=(const Pint& a, const Pint& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = compare_planes(ctx, a.planes_, b.planes_, CompareKind::Le);
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Flag* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe)
    po[pe] = pa[pe] <= pb[pe] ? Flag{1} : Flag{0};
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out),
                                  combine_driven(ctx, a.driven_, b.driven_));
}

Pbool operator==(const Pint& a, Word b) {
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> bp = scalar_planes(ctx, b);
    std::vector<PlaneWord> out = compare_planes(ctx, a.planes_, bp, CompareKind::Eq);
    ctx.release_value_planes(std::move(bp));
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(ctx, std::move(out),
                                          copy_driven_plane(ctx, a.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* pa = a.data_.data();
  Flag* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe)
    po[pe] = pa[pe] == b ? Flag{1} : Flag{0};
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out), combine_driven(ctx, a.driven_, {}));
}

Pbool operator!=(const Pint& a, Word b) {
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> bp = scalar_planes(ctx, b);
    std::vector<PlaneWord> out = compare_planes(ctx, a.planes_, bp, CompareKind::Ne);
    ctx.release_value_planes(std::move(bp));
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(ctx, std::move(out),
                                          copy_driven_plane(ctx, a.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* pa = a.data_.data();
  Flag* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe)
    po[pe] = pa[pe] != b ? Flag{1} : Flag{0};
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out), combine_driven(ctx, a.driven_, {}));
}

Pbool operator<(const Pint& a, Word b) {
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> bp = scalar_planes(ctx, b);
    std::vector<PlaneWord> out = compare_planes(ctx, a.planes_, bp, CompareKind::Lt);
    ctx.release_value_planes(std::move(bp));
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(ctx, std::move(out),
                                          copy_driven_plane(ctx, a.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Word* pa = a.data_.data();
  Flag* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe)
    po[pe] = pa[pe] < b ? Flag{1} : Flag{0};
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out), combine_driven(ctx, a.driven_, {}));
}

Pint select(const Pbool& cond, const Pint& a, const Pint& b) {
  check_same_context(cond.context(), a.context());
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> out =
        blend_planes(ctx, cond.plane_view().data(), a.planes_, b.planes_);
    ctx.machine().charge_alu();
    // Driven-ness follows the SELECTED operand per element (a tainted
    // condition taints everything).
    std::vector<PlaneWord> driven;
    const auto cd = cond.driven_plane_view();
    if (!a.driven_plane_.empty() || !b.driven_plane_.empty() || !cd.empty()) {
      driven = ctx.acquire_flag_plane();
      const PlaneWord* pc = cond.plane_view().data();
      const PlaneWord* pad =
          a.driven_plane_.empty() ? ctx.full_plane() : a.driven_plane_.data();
      const PlaneWord* pbd =
          b.driven_plane_.empty() ? ctx.full_plane() : b.driven_plane_.data();
      const PlaneWord* pcd = cd.empty() ? ctx.full_plane() : cd.data();
      PlaneWord* pdv = driven.data();
      for (std::size_t i = 0; i < pw; ++i) {
        pdv[i] = ((pc[i] & pad[i]) | (pbd[i] & ~pc[i])) & pcd[i];
      }
      if (ctx.alu().equal(pdv, ctx.full_plane(), pw)) {
        ctx.release_flag_plane(std::move(driven));
        driven = {};
      }
    }
    return detail_access::raw_pint_planes(ctx, std::move(out), std::move(driven));
  }
  std::vector<Word> out = ctx.acquire_words();
  const auto cv = cond.values();
  const Flag* pc = cv.data();
  const Word* pa = a.data_.data();
  const Word* pb = b.data_.data();
  Word* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe) po[pe] = pc[pe] ? pa[pe] : pb[pe];
  ctx.machine().charge_alu();
  // Driven-ness follows the SELECTED operand per element (a tainted
  // condition taints everything).
  std::vector<Flag> driven;
  if (!a.driven_.empty() || !b.driven_.empty() || !cond.driven_view().empty()) {
    driven = ctx.acquire_flags();
    const auto cd = cond.driven_view();
    const Flag* pad = a.driven_.empty() ? nullptr : a.driven_.data();
    const Flag* pbd = b.driven_.empty() ? nullptr : b.driven_.data();
    const Flag* pcd = cd.empty() ? nullptr : cd.data();
    Flag* pdv = driven.data();
    bool any_undriven = false;
    for (std::size_t pe = 0; pe < driven.size(); ++pe) {
      const Flag chosen = pc[pe] ? (pad == nullptr ? Flag{1} : pad[pe])
                                 : (pbd == nullptr ? Flag{1} : pbd[pe]);
      const Flag cond_ok = pcd == nullptr ? Flag{1} : pcd[pe];
      pdv[pe] = static_cast<Flag>(chosen & cond_ok);
      any_undriven |= (pdv[pe] == 0);
    }
    if (!any_undriven) {
      ctx.release_flags(std::move(driven));
      driven = {};
    }
  }
  return detail_access::raw_pint(ctx, std::move(out), std::move(driven));
}

// ---------------------------------------------------------------------------
// Pbool
// ---------------------------------------------------------------------------

Pbool::Pbool(Context& ctx, bool init) : ctx_(&ctx) {
  if (ctx.bitplane()) {
    plane_ = ctx.acquire_flag_plane();
    if (init) {
      ctx.alu().op_copy(ctx.full_plane(), plane_.data(), plane_.size());
    } else {
      ctx.alu().op_zero(plane_.data(), plane_.size());
    }
  } else {
    data_ = ctx.acquire_flags();
    std::fill(data_.begin(), data_.end(), init ? Flag{1} : Flag{0});
  }
  ctx.machine().charge_alu();
}

Pbool::Pbool(Context& ctx, std::span<const Flag> values) : ctx_(&ctx) {
  PPA_REQUIRE(values.size() == ctx.pe_count(), "initializer must cover the whole array");
  if (ctx.bitplane()) {
    plane_ = ctx.acquire_flag_plane();
    sim::pack_flags(ctx.geometry(), values, plane_.data());
  } else {
    data_ = ctx.acquire_flags();
    for (std::size_t pe = 0; pe < data_.size(); ++pe) {
      data_[pe] = values[pe] ? Flag{1} : Flag{0};
    }
  }
  ctx.machine().charge_alu();
}

Pbool::Pbool(const Pbool& other) : ctx_(other.ctx_) {
  if (ctx_->bitplane()) {
    plane_ = ctx_->acquire_flag_plane();
    plane_.resize(other.plane_.size());
    std::copy(other.plane_.begin(), other.plane_.end(), plane_.begin());
    if (!other.driven_plane_.empty()) {
      driven_plane_ = ctx_->acquire_flag_plane();
      driven_plane_.resize(other.driven_plane_.size());
      std::copy(other.driven_plane_.begin(), other.driven_plane_.end(),
                driven_plane_.begin());
    }
    return;
  }
  data_ = ctx_->acquire_flags();
  data_.resize(other.data_.size());
  std::copy(other.data_.begin(), other.data_.end(), data_.begin());
  if (!other.driven_.empty()) {
    driven_ = ctx_->acquire_flags();
    driven_.resize(other.driven_.size());
    std::copy(other.driven_.begin(), other.driven_.end(), driven_.begin());
  }
}

Pbool::~Pbool() {
  if (ctx_ != nullptr) {
    ctx_->release_flags(std::move(data_));
    ctx_->release_flags(std::move(driven_));
    ctx_->release_flag_plane(std::move(plane_));
    ctx_->release_flag_plane(std::move(driven_plane_));
  }
}

Pbool& Pbool::operator=(const Pbool& rhs) {
  check_same_context(*ctx_, *rhs.ctx_);
  Context& ctx = *ctx_;
  if (ctx.bitplane()) {
    const PlaneWord* pm = ctx.mask_plane();
    detail::check_store_driven_plane(ctx, pm, rhs.driven_plane_);
    ctx.machine().charge_alu();
    const std::size_t pw = ctx.geometry().plane_words();
    ctx.alu().masked_assign(pm, rhs.plane_.data(), plane_.data(), pw);
    if (!driven_plane_.empty()) {
      ctx.alu().op_or(driven_plane_.data(), pm, driven_plane_.data(), pw);
    }
    return *this;
  }
  const auto mask = ctx.mask();
  check_store_driven(ctx, mask, rhs.driven_);
  ctx.machine().charge_alu();
  const Flag* pm = mask.data();
  const Flag* ps = rhs.data_.data();
  Flag* pd = data_.data();
  flag_sweep::masked_assign_flags(pm, ps, pd, ctx.pe_count());
  if (!driven_.empty()) {
    Flag* pv = driven_.data();
    for (std::size_t pe = 0; pe < driven_.size(); ++pe) {
      if (pm[pe]) pv[pe] = 1;
    }
  }
  return *this;
}

Pbool& Pbool::operator=(Pbool&& rhs) { return *this = static_cast<const Pbool&>(rhs); }

void Pbool::store_all(const Pbool& rhs) {
  check_same_context(*ctx_, *rhs.ctx_);
  if (ctx_->bitplane()) {
    check_store_all_driven_plane(*ctx_, rhs.driven_plane_);
    ctx_->machine().charge_alu();
    plane_ = rhs.plane_;
    driven_plane_.clear();
    return;
  }
  check_store_all_driven(*ctx_, rhs.driven_);
  ctx_->machine().charge_alu();
  data_ = rhs.data_;
  driven_.clear();
}

void Pbool::store_all(bool value) {
  ctx_->machine().charge_alu();
  if (ctx_->bitplane()) {
    if (value) {
      ctx_->alu().op_copy(ctx_->full_plane(), plane_.data(), plane_.size());
    } else {
      ctx_->alu().op_zero(plane_.data(), plane_.size());
    }
    driven_plane_.clear();
    return;
  }
  std::fill(data_.begin(), data_.end(), value ? Flag{1} : Flag{0});
  driven_.clear();
}

bool Pbool::at(std::size_t pe) const {
  PPA_REQUIRE(pe < ctx_->pe_count(), "PE index out of range");
  const std::size_t n = ctx_->n();
  return at(pe / n, pe % n);
}

bool Pbool::at(std::size_t row, std::size_t col) const {
  const std::size_t n = ctx_->n();
  PPA_REQUIRE(row < n && col < n, "PE coordinates out of range");
  if (!ctx_->bitplane()) return data_[row * n + col] != 0;
  return sim::plane_get(ctx_->geometry(), plane_.data(), row, col);
}

void Pbool::read_row(std::size_t row, std::span<Flag> out) const {
  const std::size_t n = ctx_->n();
  PPA_REQUIRE(row < n, "row index out of range");
  PPA_REQUIRE(out.size() == n, "row readback needs exactly n elements");
  if (!ctx_->bitplane()) {
    for (std::size_t c = 0; c < n; ++c) out[c] = data_[row * n + c] != 0 ? Flag{1} : Flag{0};
    return;
  }
  const auto& g = ctx_->geometry();
  const sim::PlaneWord* words = plane_.data() + row * g.row_words;
  for (std::size_t w = 0; w < g.row_words; ++w) {
    const std::size_t base = w * sim::kLanesPerWord;
    const std::size_t lanes = std::min(sim::kLanesPerWord, n - base);
    for (std::size_t b = 0; b < lanes; ++b) {
      out[base + b] = static_cast<Flag>((words[w] >> b) & 1u);
    }
  }
}

void Pbool::read_column(std::size_t col, std::span<Flag> out) const {
  const std::size_t n = ctx_->n();
  PPA_REQUIRE(col < n, "column index out of range");
  PPA_REQUIRE(out.size() == n, "column readback needs exactly n elements");
  if (!ctx_->bitplane()) {
    for (std::size_t r = 0; r < n; ++r) out[r] = data_[r * n + col] != 0 ? Flag{1} : Flag{0};
    return;
  }
  const auto& g = ctx_->geometry();
  const std::size_t rw = g.row_words;
  const unsigned bit = sim::PlaneGeometry::bit_of(col);
  const sim::PlaneWord* word = plane_.data() + col / sim::kLanesPerWord;
  for (std::size_t r = 0; r < n; ++r) out[r] = static_cast<Flag>((word[r * rw] >> bit) & 1u);
}

std::size_t Pbool::count() const noexcept {
  if (ctx_->bitplane()) {
    return sim::plane_popcount(ctx_->geometry(), plane_.data());
  }
  std::size_t c = 0;
  for (const Flag f : data_) c += (f != 0);
  return c;
}

Pbool operator!(const Pbool& a) {
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.alu().op_andnot(ctx.full_plane(), a.plane_.data(), out.data(), out.size());
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(ctx, std::move(out),
                                          copy_driven_plane(ctx, a.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Flag* pa = a.data_.data();
  Flag* po = out.data();
  flag_sweep::not_flags(pa, po, ctx.pe_count());
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out), copy_driven(ctx, a.driven_));
}

Pbool operator&(const Pbool& a, const Pbool& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.alu().op_and(a.plane_.data(), b.plane_.data(), out.data(), out.size());
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Flag* pa = a.data_.data();
  const Flag* pb = b.data_.data();
  Flag* po = out.data();
  flag_sweep::and_flags(pa, pb, po, ctx.pe_count());
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out),
                                  combine_driven(ctx, a.driven_, b.driven_));
}

Pbool operator|(const Pbool& a, const Pbool& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.alu().op_or(a.plane_.data(), b.plane_.data(), out.data(), out.size());
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Flag* pa = a.data_.data();
  const Flag* pb = b.data_.data();
  Flag* po = out.data();
  flag_sweep::or_flags(pa, pb, po, ctx.pe_count());
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out),
                                  combine_driven(ctx, a.driven_, b.driven_));
}

Pbool operator^(const Pbool& a, const Pbool& b) {
  check_same_context(*a.ctx_, *b.ctx_);
  Context& ctx = *a.ctx_;
  if (ctx.bitplane()) {
    std::vector<PlaneWord> out = ctx.acquire_flag_plane();
    ctx.alu().op_xor(a.plane_.data(), b.plane_.data(), out.data(), out.size());
    ctx.machine().charge_alu();
    return detail_access::raw_pbool_plane(
        ctx, std::move(out), combine_driven_planes(ctx, a.driven_plane_, b.driven_plane_));
  }
  std::vector<Flag> out = ctx.acquire_flags();
  const Flag* pa = a.data_.data();
  const Flag* pb = b.data_.data();
  Flag* po = out.data();
  flag_sweep::xor_flags(pa, pb, po, ctx.pe_count());
  ctx.machine().charge_alu();
  return detail_access::raw_pbool(ctx, std::move(out),
                                  combine_driven(ctx, a.driven_, b.driven_));
}

Pbool operator==(const Pbool& a, const Pbool& b) { return !(a ^ b); }
Pbool operator!=(const Pbool& a, const Pbool& b) { return a ^ b; }

Pint Pbool::to_pint() const {
  Context& ctx = *ctx_;
  if (ctx.bitplane()) {
    const std::size_t pw = ctx.geometry().plane_words();
    std::vector<PlaneWord> out = ctx.acquire_value_planes();
    ctx.alu().op_zero(out.data(), out.size());
    ctx.alu().op_copy(plane_.data(), out.data(), pw);
    ctx.machine().charge_alu();
    return detail_access::raw_pint_planes(ctx, std::move(out),
                                          copy_driven_plane(ctx, driven_plane_));
  }
  std::vector<Word> out = ctx.acquire_words();
  const Flag* ps = data_.data();
  Word* po = out.data();
  for (std::size_t pe = 0, end = ctx.pe_count(); pe < end; ++pe) po[pe] = ps[pe] ? 1u : 0u;
  ctx.machine().charge_alu();
  return detail_access::raw_pint(ctx, std::move(out), copy_driven(ctx, driven_));
}

// ---------------------------------------------------------------------------
// Coordinate constants
// ---------------------------------------------------------------------------

namespace {

/// The lanes of a plane word whose lane index has bit j set, j < 6: the
/// in-word part of COL's plane j.
constexpr PlaneWord kLaneBits[6] = {0xAAAAAAAAAAAAAAAA, 0xCCCCCCCCCCCCCCCC,
                                    0xF0F0F0F0F0F0F0F0, 0xFF00FF00FF00FF00,
                                    0xFFFF0000FFFF0000, 0xFFFFFFFF00000000};

/// Every lane when bit j of `index` is set, none otherwise.
PlaneWord lanes_if(std::size_t index, int j) {
  return ((index >> j) & 1u) != 0 ? ~PlaneWord{0} : PlaneWord{0};
}

/// Extends the period held in the first `have` words of `p` to its first
/// `total` words, doubling the copied span each step.
void repeat_forward(PlaneWord* p, std::size_t have, std::size_t total) {
  while (have < total) {
    const std::size_t count = std::min(have, total - have);
    std::copy_n(p, count, p + have);
    have += count;
  }
}

/// ROW (`rows`) or COL as h bit planes, written a span at a time. Plane j
/// of ROW repeats a period of 2^(j+1) rows: 2^j empty rows, then 2^j
/// whole rows. Plane j of COL repeats its row 0, the columns c with bit j
/// set. Every word is written; pads stay 0.
Pint index_planes(Context& ctx, bool rows) {
  const sim::PlaneGeometry& g = ctx.geometry();
  const std::size_t pw = g.plane_words();
  const std::size_t rw = g.row_words;
  const PlaneWord* full_row = ctx.full_plane();  // every row of full is the same
  std::vector<PlaneWord> planes = ctx.acquire_value_planes();
  for (int j = 0; j < ctx.field().bits(); ++j) {
    PlaneWord* plane = planes.data() + static_cast<std::size_t>(j) * pw;
    if (!rows) {
      for (std::size_t w = 0; w < rw; ++w) {
        plane[w] = full_row[w] & (j < 6 ? kLaneBits[j] : lanes_if(w * sim::kLanesPerWord, j));
      }
      repeat_forward(plane, rw, pw);
      continue;
    }
    const std::size_t half = std::size_t{1} << j;  // rows per run; j < 32
    if (half >= g.n) {
      std::fill_n(plane, pw, PlaneWord{0});
      continue;
    }
    std::fill_n(plane, half * rw, PlaneWord{0});
    std::copy_n(full_row, rw, plane + half * rw);
    repeat_forward(plane + half * rw, rw, std::min(half, g.n - half) * rw);
    repeat_forward(plane, 2 * half * rw, pw);
  }
  ctx.machine().charge_alu();
  return detail_access::raw_pint_planes(ctx, std::move(planes), {});
}

/// ROW (`rows`) or COL as per-PE words, for the word backend.
std::vector<Word> index_words(const Context& ctx, bool rows) {
  const std::size_t n = ctx.n();
  std::vector<Word> out(ctx.pe_count());
  for (std::size_t pe = 0; pe < out.size(); ++pe) {
    out[pe] = static_cast<Word>(rows ? pe / n : pe % n);
  }
  return out;
}

}  // namespace

Pint row_of(Context& ctx) {
  return ctx.bitplane() ? index_planes(ctx, true) : Pint(ctx, index_words(ctx, true));
}

Pint col_of(Context& ctx) {
  return ctx.bitplane() ? index_planes(ctx, false) : Pint(ctx, index_words(ctx, false));
}

namespace {

Pbool driven_mask_impl(Context& ctx, std::span<const Flag> d) {
  ctx.machine().charge_alu();
  std::vector<Flag> bits = ctx.acquire_flags();
  if (d.empty()) {
    std::fill(bits.begin(), bits.end(), Flag{1});
  } else {
    const Flag* pd = d.data();
    Flag* po = bits.data();
    for (std::size_t pe = 0; pe < bits.size(); ++pe) po[pe] = pd[pe] ? Flag{1} : Flag{0};
  }
  return detail_access::raw_pbool(ctx, std::move(bits), {});
}

Pbool driven_mask_plane_impl(Context& ctx, std::span<const PlaneWord> d) {
  ctx.machine().charge_alu();
  std::vector<PlaneWord> bits = ctx.acquire_flag_plane();
  ctx.alu().op_copy(d.empty() ? ctx.full_plane() : d.data(), bits.data(), bits.size());
  return detail_access::raw_pbool_plane(ctx, std::move(bits), {});
}

}  // namespace

Pbool driven_mask(const Pint& value) {
  Context& ctx = value.context();
  if (ctx.bitplane()) return driven_mask_plane_impl(ctx, value.driven_plane_view());
  return driven_mask_impl(ctx, value.driven_view());
}

Pbool driven_mask(const Pbool& value) {
  Context& ctx = value.context();
  if (ctx.bitplane()) return driven_mask_plane_impl(ctx, value.driven_plane_view());
  return driven_mask_impl(ctx, value.driven_view());
}

namespace detail {

void check_store_driven_plane(Context& ctx, const PlaneWord* mask,
                              std::span<const PlaneWord> rhs_driven) {
  if (rhs_driven.empty()) return;
  const sim::MachineConfig& config = ctx.machine().config();
  if (!config.checked && config.undriven != sim::UndrivenPolicy::Error) return;
  const std::size_t pw = ctx.geometry().plane_words();
  const PlaneWord* pd = rhs_driven.data();
  std::size_t first = 0;
  std::size_t count = 0;
  for (std::size_t i = 0; i < pw; ++i) {
    const PlaneWord bad = mask[i] & ~pd[i];
    if (bad == 0) continue;
    if (count == 0) first = plane_pe_of(ctx.geometry(), i, bad);
    count += static_cast<std::size_t>(__builtin_popcountll(bad));
    if (!config.checked) break;  // the throw only reports the first PE
  }
  if (count != 0) handle_undriven(ctx, first, count);
}

void store_planes(Pint& dst, const PlaneWord* mask, const PlaneWord* values,
                  std::span<const PlaneWord> driven, const PlaneWord* addend) {
  Context& ctx = dst.context();
  check_store_driven_plane(ctx, mask, driven);
  ctx.machine().charge_alu();
  const std::size_t pw = ctx.geometry().plane_words();
  const int h = ctx.field().bits();
  PlaneWord* out = detail_access::planes(dst).data();
  // Self-assignment is harmless: each PE rewrites its own value.
  if (addend != nullptr) {
    ctx.alu().add_sat_masked(values, addend, h, pw, mask, out);
  } else {
    ctx.alu().masked_assign_planes(mask, values, out, h, pw);
  }
  std::vector<PlaneWord>& dst_driven = detail_access::driven_plane(dst);
  if (!dst_driven.empty()) ctx.alu().op_or(dst_driven.data(), mask, dst_driven.data(), pw);
}

void store_line_sum(Pint& dst, const PlaneWord* mask, const PlaneWord* line,
                    const PlaneWord* driven, const PlaneWord* addend) {
  Context& ctx = dst.context();
  const std::size_t pw = ctx.geometry().plane_words();
  check_store_driven_plane(ctx, mask, {driven, pw});
  ctx.machine().charge_alu();
  ctx.alu().line_add_sat_masked(ctx.geometry(), line, ctx.field().bits(), driven, addend, mask,
                                detail_access::planes(dst).data());
  std::vector<PlaneWord>& dst_driven = detail_access::driven_plane(dst);
  if (!dst_driven.empty()) ctx.alu().op_or(dst_driven.data(), mask, dst_driven.data(), pw);
}

Pint make_bus_pint(Context& ctx, std::vector<Word> values, std::vector<Flag> driven) {
  return detail_access::raw_pint(ctx, std::move(values), std::move(driven));
}

Pbool make_bus_pbool(Context& ctx, std::vector<Flag> values, std::vector<Flag> driven) {
  return detail_access::raw_pbool(ctx, std::move(values), std::move(driven));
}

Pint make_bus_pint_planes(Context& ctx, std::vector<PlaneWord> planes,
                          std::vector<PlaneWord> driven) {
  return detail_access::raw_pint_planes(ctx, std::move(planes), std::move(driven));
}

Pbool make_bus_pbool_plane(Context& ctx, std::vector<PlaneWord> plane,
                           std::vector<PlaneWord> driven) {
  return detail_access::raw_pbool_plane(ctx, std::move(plane), std::move(driven));
}

}  // namespace detail

}  // namespace ppa::ppc
