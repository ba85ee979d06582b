#include "calibration.hpp"

#include <sys/mman.h>

#include <new>
#include <span>
#include <utility>

namespace perfbench {

namespace {

constexpr std::size_t kPlanes = 16;

// An anonymous private mapping, unmapped on destruction.
class FreshPages {
 public:
  explicit FreshPages(std::size_t bytes) : bytes_(bytes) {
    base_ = mmap(nullptr, bytes_, PROT_READ | PROT_WRITE, MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
    if (base_ == MAP_FAILED) throw std::bad_alloc();
  }
  FreshPages(const FreshPages&) = delete;
  FreshPages& operator=(const FreshPages&) = delete;
  ~FreshPages() { munmap(base_, bytes_); }

  [[nodiscard]] std::span<std::uint64_t> words(std::size_t offset, std::size_t count) const {
    return {static_cast<std::uint64_t*>(base_) + offset, count};
  }

 private:
  std::size_t bytes_;
  void* base_;
};

void fill(std::span<std::uint64_t> words, std::uint64_t state) {
  state |= 1;
  for (std::uint64_t& w : words) {
    state ^= state << 13;
    state ^= state >> 7;
    state ^= state << 17;
    w = state;
  }
}

}  // namespace

std::uint64_t calibration_window(const CalibrationShape& shape, std::uint64_t salt) {
  const std::size_t pw = shape.words_per_plane;
  const std::size_t plane_words = kPlanes * pw;
  // Pages straight from the kernel, so every window pays the same first
  // touch whatever state the solver left the heap in.
  FreshPages pages((3 * plane_words + pw) * sizeof(std::uint64_t));
  std::span<std::uint64_t> a = pages.words(0, plane_words);
  std::span<std::uint64_t> b = pages.words(plane_words, plane_words);
  std::span<std::uint64_t> sum = pages.words(2 * plane_words, plane_words);
  std::span<std::uint64_t> less = pages.words(3 * plane_words, pw);
  fill(a, salt * 0x9E3779B97F4A7C15ULL);
  fill(b, ~salt * 0xC2B2AE3D27D4EB4FULL);

  std::uint64_t checksum = 0;
  for (int pass = 0; pass < shape.passes; ++pass) {
    // Ripple-carry add, LSB plane first.
    for (std::size_t w = 0; w < pw; ++w) {
      std::uint64_t carry = 0;
      for (std::size_t p = 0; p < kPlanes; ++p) {
        const std::uint64_t x = a[p * pw + w];
        const std::uint64_t y = b[p * pw + w];
        sum[p * pw + w] = x ^ y ^ carry;
        carry = (x & y) | (carry & (x ^ y));
      }
    }
    // MSB-first compare sum < a (true exactly where the add wrapped).
    for (std::size_t w = 0; w < pw; ++w) {
      std::uint64_t lt = 0;
      std::uint64_t eq = ~std::uint64_t{0};
      for (std::size_t p = kPlanes; p-- > 0;) {
        const std::uint64_t x = sum[p * pw + w];
        const std::uint64_t y = a[p * pw + w];
        lt |= eq & ~x & y;
        eq &= ~(x ^ y);
      }
      less[w] = lt;
    }
    // Log-step prefix-OR toward the high lanes of each word.
    for (std::size_t w = 0; w < pw; ++w) {
      std::uint64_t x = less[w];
      x |= x << 1;
      x |= x << 2;
      x |= x << 4;
      x |= x << 8;
      x |= x << 16;
      x |= x << 32;
      less[w] = x;
      checksum += x;
    }
    // The sum feeds the next pass, so no pass can be folded away.
    std::swap(a, sum);
    checksum ^= a[(static_cast<std::size_t>(pass) * 7919) % a.size()];
  }
  return checksum;
}

}  // namespace perfbench
