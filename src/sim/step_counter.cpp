#include "sim/step_counter.hpp"

#include <sstream>

#include "util/bits.hpp"

namespace ppa::sim {

const char* name_of(StepCategory c) noexcept {
  switch (c) {
    case StepCategory::Alu: return "alu";
    case StepCategory::Shift: return "shift";
    case StepCategory::BusBroadcast: return "bus_bcast";
    case StepCategory::BusOr: return "bus_or";
    case StepCategory::GlobalOr: return "global_or";
    case StepCategory::PanelIo: return "panel_io";
    case StepCategory::Masking: return "masking";
    case StepCategory::kCount: break;
  }
  return "?";
}

void StepCounter::charge(StepCategory category, std::uint64_t count) noexcept {
  counts_[static_cast<std::size_t>(category)] += count;
}

void StepCounter::charge_bus(StepCategory category, std::size_t max_segment,
                             std::uint64_t cycles) noexcept {
  const auto idx = static_cast<std::size_t>(category);
  counts_[idx] += cycles;
  const std::uint64_t len = max_segment == 0 ? 1 : max_segment;
  log_extra_[idx] += cycles * static_cast<std::uint64_t>(util::ceil_log2(len));  // (1+log) - 1
  linear_extra_[idx] += cycles * (len - 1);                                      // len - 1
}

std::uint64_t StepCounter::count(StepCategory category) const noexcept {
  return counts_[static_cast<std::size_t>(category)];
}

std::uint64_t StepCounter::total() const noexcept {
  std::uint64_t sum = 0;
  for (const auto c : counts_) sum += c;
  return sum;
}

std::uint64_t StepCounter::total_under(BusDelayModel model) const noexcept {
  std::uint64_t sum = total();
  if (model == BusDelayModel::Unit) return sum;
  const auto& extra = (model == BusDelayModel::Log) ? log_extra_ : linear_extra_;
  for (const auto e : extra) sum += e;
  return sum;
}

StepCounter StepCounter::since(const StepCounter& baseline) const noexcept {
  StepCounter delta;
  for (std::size_t i = 0; i < kCategories; ++i) {
    delta.counts_[i] = counts_[i] - baseline.counts_[i];
    delta.log_extra_[i] = log_extra_[i] - baseline.log_extra_[i];
    delta.linear_extra_[i] = linear_extra_[i] - baseline.linear_extra_[i];
  }
  return delta;
}

void StepCounter::merge(const StepCounter& other) noexcept {
  for (std::size_t i = 0; i < kCategories; ++i) {
    counts_[i] += other.counts_[i];
    log_extra_[i] += other.log_extra_[i];
    linear_extra_[i] += other.linear_extra_[i];
  }
}

void StepCounter::reset() noexcept {
  counts_.fill(0);
  log_extra_.fill(0);
  linear_extra_.fill(0);
}

std::string StepCounter::summary() const {
  std::ostringstream os;
  os << "steps=" << total();
  for (std::size_t i = 0; i < kCategories; ++i) {
    if (counts_[i] == 0) continue;
    os << ' ' << name_of(static_cast<StepCategory>(static_cast<int>(i))) << '=' << counts_[i];
  }
  return os.str();
}

}  // namespace ppa::sim
