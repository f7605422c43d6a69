#include "nvm/package.hpp"

#include <vector>

namespace nvmooc {

Package::Package(const NvmTiming& timing, const BusConfig& bus, std::uint32_t dies,
                 bool backfill)
    : bus_(bus), flash_bus_(backfill) {
  dies_.reserve(dies);
  for (std::uint32_t d = 0; d < dies; ++d) {
    dies_.push_back(std::make_unique<Die>(timing, backfill));
  }
}

Reservation Package::reserve_flash_bus(Time earliest, Bytes bytes) {
  return flash_bus_.reserve(earliest, bus_.transfer_time(bytes));
}

void Package::settle_busy_before(Time horizon) {
  flash_bus_.settle_busy_before(horizon);
  for (auto& die : dies_) die->settle_busy_before(horizon);
}

}  // namespace nvmooc
