#include "reliability/fault.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "ssd/geometry.hpp"

namespace nvmooc {

namespace {

void check_index(const char* fault, const char* level, std::uint32_t index,
                 std::uint32_t limit, const char* limit_name) {
  if (index >= limit) {
    throw std::invalid_argument(std::string(fault) + ": " + level + " " +
                                std::to_string(index) + " out of range (device has " +
                                std::to_string(limit) + " " + limit_name + ")");
  }
}

}  // namespace

void FaultConfig::validate(const SsdGeometry& geometry) const {
  for (const DieStuckFault& fault : stuck_dies) {
    check_index("stuck", "channel", fault.channel, geometry.channels, "channels");
    check_index("stuck", "package", fault.package, geometry.packages_per_channel,
                "packages per channel");
    check_index("stuck", "die", fault.die, geometry.dies_per_package, "dies per package");
  }
  for (const ChannelStallFault& fault : channel_stalls) {
    check_index("stall", "channel", fault.channel, geometry.channels, "channels");
  }
}

double media_base_rber(NvmType type) {
  switch (type) {
    case NvmType::kSlc: return 1e-8;
    case NvmType::kMlc: return 1e-6;
    case NvmType::kTlc: return 1e-5;
    case NvmType::kPcm: return 1e-9;
  }
  return 1e-8;
}

namespace {

inline std::uint64_t splitmix64(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

}  // namespace

double fault_uniform(std::uint64_t seed, std::uint64_t a, std::uint64_t b,
                     std::uint64_t c) {
  std::uint64_t h = splitmix64(seed ^ splitmix64(a));
  h = splitmix64(h ^ splitmix64(b ^ 0xa5a5a5a5a5a5a5a5ULL));
  h = splitmix64(h ^ splitmix64(c ^ 0x3c3c3c3c3c3c3c3cULL));
  // Top 53 bits -> [0, 1) double, the same construction xoshiro uses.
  return static_cast<double>(h >> 11) * 0x1.0p-53;
}

FaultInjector::FaultInjector(const FaultConfig& config, NvmType media,
                             std::uint64_t endurance)
    : config_(config) {
  base_rber_ = config_.rber >= 0.0 ? config_.rber : media_base_rber(media);
  endurance_inverse_ = endurance > 0 ? 1.0 / static_cast<double>(endurance) : 0.0;
}

std::uint64_t FaultInjector::next_access(std::uint64_t unit) {
  return access_counts_[unit]++;
}

double FaultInjector::effective_rber(std::uint64_t erases) const {
  const double cycles = static_cast<double>(erases) * endurance_inverse_;
  return base_rber_ * (1.0 + config_.wear_slope * cycles);
}

bool FaultInjector::die_stuck(std::uint32_t channel, std::uint32_t package,
                              std::uint32_t die, Time when) const {
  for (const DieStuckFault& fault : config_.stuck_dies) {
    if (fault.channel == channel && fault.package == package && fault.die == die &&
        when >= fault.begin) {
      return true;
    }
  }
  return false;
}

Time FaultInjector::channel_available(std::uint32_t channel, Time when,
                                      bool* stalled) const {
  Time available = when;
  // Windows may chain (a stall ending inside another's span), so sweep
  // until no window covers the candidate time.
  bool moved = true;
  while (moved) {
    moved = false;
    for (const ChannelStallFault& fault : config_.channel_stalls) {
      if (fault.channel != channel || fault.duration <= Time{}) continue;
      if (available >= fault.begin && available < fault.begin + fault.duration) {
        available = fault.begin + fault.duration;
        moved = true;
      }
    }
  }
  if (stalled != nullptr) *stalled = available != when;
  return available;
}

}  // namespace nvmooc
