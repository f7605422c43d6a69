#include "ssd/ssd.hpp"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "obs/host_profiler.hpp"

namespace nvmooc {

BusyCensus::BusyCensus(const SsdGeometry& geometry)
    : geometry_(geometry),
      die_(geometry.total_dies()),
      package_(geometry.total_packages()),
      channel_(geometry.channels),
      die_runs_(geometry.dies_per_package),
      package_runs_(geometry.packages_per_channel),
      channel_runs_(geometry.channels) {}

void BusyCensus::add(const SsdHardware& hardware, Time horizon) {
  const auto spans_of = [this](const std::vector<std::vector<BusyInterval>>& runs) {
    for (const std::vector<BusyInterval>& run : runs) inputs_.emplace_back(run);
  };
  for (std::uint32_t c = 0; c < geometry_.channels; ++c) {
    for (std::uint32_t p = 0; p < geometry_.packages_per_channel; ++p) {
      const Package& package = hardware.package(c, p);
      for (std::uint32_t d = 0; d < package.die_count(); ++d) {
        const Die& die = package.die(d);
        inputs_.clear();
        for (std::uint32_t plane = 0; plane < die.plane_count(); ++plane) {
          inputs_.emplace_back(die.plane_busy(plane).intervals());
        }
        die_[package_index(c, p) * geometry_.dies_per_package + d] +=
            union_runs(inputs_, horizon, die_runs_[d]);
      }
      inputs_.clear();
      inputs_.emplace_back(package.flash_bus().busy().intervals());
      spans_of(die_runs_);
      package_[package_index(c, p)] += union_runs(inputs_, horizon, package_runs_[p]);
    }
    inputs_.clear();
    inputs_.emplace_back(hardware.channel_bus(c).busy().intervals());
    spans_of(package_runs_);
    channel_[c] += union_runs(inputs_, horizon, channel_runs_[c]);
  }
  inputs_.clear();
  spans_of(channel_runs_);
  device_ += union_runs(inputs_, horizon, device_runs_);
}

Ssd::Ssd(const SsdConfig& config)
    : config_(config), timing_(timing_for(config.media)), settled_(config.geometry) {
  hardware_ = std::make_unique<SsdHardware>(config_.geometry, timing_, config_.bus,
                                            config_.controller.queue_backfill);
  ftl_ = std::make_unique<Ftl>(config_.geometry, timing_, config_.ftl);
  if (config_.fault.enabled) {
    injector_ = std::make_unique<FaultInjector>(config_.fault, config_.media,
                                                timing_.endurance);
  }
  controller_ = std::make_unique<Controller>(*hardware_, *ftl_, config_.controller,
                                             injector_.get());
}

void Ssd::preload(Bytes dataset_bytes) { ftl_->set_preloaded(dataset_bytes); }

RequestResult Ssd::submit(const BlockRequest& request, Time arrival) {
  // A grant before the settled horizon would be busy time the census
  // already closed: fail loudly rather than undercount it.
  if (arrival < settled_horizon_) {
    throw std::logic_error("Ssd::submit: arrival " + std::to_string(arrival.ps()) +
                           " ps is before the settled busy horizon " +
                           std::to_string(settled_horizon_.ps()) + " ps");
  }
  // Host telemetry (--speed-report): everything below the device boundary
  // — controller, FTL, media model — bills to the "controller" wall-time
  // bucket; nested timeline sections are subtracted back out.
  obs::HostSection host_section(obs::HostSubsystem::kController);
  return controller_->submit(request, arrival);
}

void Ssd::settle_before(Time horizon) {
  const std::uint64_t transactions = controller_->stats().transactions;
  if (transactions - settled_transactions_ < kSettleTransactions ||
      horizon <= settled_horizon_) {
    return;
  }
  settled_transactions_ = transactions;
  settled_.add(*hardware_, horizon);
  hardware_->settle_busy_before(horizon);
  settled_horizon_ = horizon;
}

WearSummary Ssd::wear() const {
  WearSummary total;
  double erase_weighted = 0.0;
  total.min_unit_erases = ~0ULL;
  for (std::uint32_t c = 0; c < config_.geometry.channels; ++c) {
    for (std::uint32_t p = 0; p < config_.geometry.packages_per_channel; ++p) {
      const Package& package = hardware_->package(c, p);
      for (std::uint32_t d = 0; d < package.die_count(); ++d) {
        const WearSummary die_wear = package.die(d).wear().summary();
        total.total_erases += die_wear.total_erases;
        total.total_writes += die_wear.total_writes;
        total.touched_units += die_wear.touched_units;
        total.max_unit_erases = std::max(total.max_unit_erases, die_wear.max_unit_erases);
        if (die_wear.touched_units > 0) {
          total.min_unit_erases = std::min(total.min_unit_erases, die_wear.min_unit_erases);
          erase_weighted += die_wear.mean_unit_erases * static_cast<double>(die_wear.touched_units);
        }
      }
    }
  }
  if (total.touched_units == 0) {
    total.min_unit_erases = 0;
    total.imbalance = 1.0;
    return total;
  }
  total.mean_unit_erases = erase_weighted / static_cast<double>(total.touched_units);
  total.imbalance = total.mean_unit_erases > 0.0
                        ? static_cast<double>(total.max_unit_erases) / total.mean_unit_erases
                        : 1.0;
  return total;
}

double Ssd::media_capability_bytes_per_sec() const {
  const double channel_aggregate =
      config_.bus.byte_rate() * static_cast<double>(config_.geometry.channels);
  const double cell_aggregate =
      timing_.die_read_bandwidth() * static_cast<double>(config_.geometry.total_dies());
  return std::min(channel_aggregate, cell_aggregate);
}

DeviceStats Ssd::device_stats(Time wall_time) const {
  DeviceStats stats;
  stats.media_capability = media_capability_bytes_per_sec();

  // The settled census plus the intervals still held.
  BusyCensus busy = settled_;
  busy.add(*hardware_, Time::max());
  stats.active_time = busy.device();
  if (stats.active_time <= Time{}) {
    stats.remaining_bandwidth = stats.media_capability;
    return stats;
  }
  // A caller passing a zero/negative makespan (empty replay, or stats
  // taken before any host DMA) must get 0-utilisation answers, not
  // NaN/inf from the divisions below; the device's own active window is
  // the honest fallback denominator.
  if (wall_time <= Time{}) wall_time = stats.active_time;

  // A channel counts as busy while anything in its subsystem (bus or any
  // of its packages) is working — the paper's channel-level utilisation,
  // which is why GPFS's scatter keeps "channels" hot even though each
  // holds only one active die.
  const auto share = [](Time busy, Time window) {
    return std::min(1.0, static_cast<double>(busy) / static_cast<double>(window));
  };
  double channel_sum = 0.0;
  double package_sum = 0.0;
  double die_sum = 0.0;
  for (std::uint32_t c = 0; c < config_.geometry.channels; ++c) {
    channel_sum += share(busy.channel(c), stats.active_time);
    for (std::uint32_t p = 0; p < config_.geometry.packages_per_channel; ++p) {
      package_sum += share(busy.package(c, p), stats.active_time);
      for (std::uint32_t d = 0; d < config_.geometry.dies_per_package; ++d) {
        die_sum += share(busy.die(c, p, d), wall_time);
      }
    }
  }
  stats.channel_utilization = channel_sum / config_.geometry.channels;
  stats.package_utilization = package_sum / config_.geometry.total_packages();
  stats.die_wall_utilization = die_sum / config_.geometry.total_dies();
  stats.remaining_bandwidth = stats.media_capability * (1.0 - stats.die_wall_utilization);
  return stats;
}

}  // namespace nvmooc
