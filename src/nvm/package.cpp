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

void Package::set_shard_ref(const shard::ShardRef& ref) {
  shard_ref_ = ref;
  if (ref.unconstrained() || ref.package == shard::ShardRef::kAny) return;
  for (std::uint32_t d = 0; d < dies_.size(); ++d) {
    dies_[d]->set_shard_ref(shard::ShardRef::of_die(
        static_cast<std::uint32_t>(ref.channel),
        static_cast<std::uint32_t>(ref.package), d));
  }
}

Reservation Package::reserve_flash_bus(Time earliest, Bytes bytes) {
  // The port timeline is package-owned state.
  shard::check_access(shard_ref_, "Package::reserve_flash_bus");
  return flash_bus_.reserve(earliest, bus_.transfer_time(bytes));
}

void Package::settle_busy_before(Time horizon) {
  flash_bus_.settle_busy_before(horizon);
  for (auto& die : dies_) die->settle_busy_before(horizon);
}

void Package::reset() {
  flash_bus_.reset();
  for (auto& die : dies_) die->reset();
}

}  // namespace nvmooc
