// Assembled SSD: hardware + FTL + controller, with the derived statistics
// the paper's figures report.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <vector>

#include "nvm/bus.hpp"
#include "nvm/wear.hpp"
#include "ssd/controller.hpp"

namespace nvmooc {

struct SsdConfig {
  SsdGeometry geometry = paper_geometry();
  NvmType media = NvmType::kSlc;
  BusConfig bus = onfi3_sdr_bus();
  ControllerConfig controller;
  FtlConfig ftl;
  /// Fault injection (disabled by default: no injector is built and the
  /// device behaves exactly like the fault-free simulator).
  FaultConfig fault;
};

/// Figure 7b/8b/9 quantities, all derived after a replay finishes.
struct DeviceStats {
  /// Union of every internal busy interval — "the device was doing
  /// something". Denominator for the utilisation numbers.
  Time active_time;
  /// Mean over channels of bus-busy / active_time (Figure 9a).
  double channel_utilization = 0.0;
  /// Mean over packages of package-busy / active_time (Figure 9b).
  double package_utilization = 0.0;
  /// Mean over dies of cell-busy / wall time; used for the remaining-
  /// bandwidth estimate.
  double die_wall_utilization = 0.0;
  /// min(aggregate channel-bus rate, aggregate cell read rate), bytes/s.
  double media_capability = 0.0;
  /// media_capability x (1 - die_wall_utilization) — Figure 7b/8b.
  double remaining_bandwidth = 0.0;
};

/// Busy time at every level of the device's resource tree, each level the
/// union of the one below plus its own bus (docs/MODEL.md §6): a die is
/// busy while any plane is, a package while its port or any die is, a
/// channel while its bus or any package is, the device while any
/// channel is.
class BusyCensus {
 public:
  explicit BusyCensus(const SsdGeometry& geometry);

  /// Adds the busy time `hardware` holds before `horizon`, in one
  /// hierarchical merge of coalesced runs: die from its planes, package
  /// from its port and dies, channel from its bus and packages, device
  /// from the channels.
  void add(const SsdHardware& hardware, Time horizon);

  [[nodiscard]] Time die(std::uint32_t channel, std::uint32_t package,
                         std::uint32_t die) const {
    return die_[package_index(channel, package) * geometry_.dies_per_package + die];
  }
  [[nodiscard]] Time package(std::uint32_t channel, std::uint32_t package) const {
    return package_[package_index(channel, package)];
  }
  [[nodiscard]] Time channel(std::uint32_t channel) const { return channel_[channel]; }
  [[nodiscard]] Time device() const { return device_; }

 private:
  std::size_t package_index(std::uint32_t channel, std::uint32_t package) const {
    return std::size_t{channel} * geometry_.packages_per_channel + package;
  }

  SsdGeometry geometry_;
  std::vector<Time> die_;
  std::vector<Time> package_;
  std::vector<Time> channel_;
  Time device_;
  // Scratch reused by every add(): the runs of one package's dies, of
  // one channel's packages, of every channel, and the merge inputs.
  std::vector<std::vector<BusyInterval>> die_runs_;
  std::vector<std::vector<BusyInterval>> package_runs_;
  std::vector<std::vector<BusyInterval>> channel_runs_;
  std::vector<BusyInterval> device_runs_;
  std::vector<std::span<const BusyInterval>> inputs_;
};

class Ssd {
 public:
  explicit Ssd(const SsdConfig& config);

  /// Declares the sequentially pre-loaded dataset (paper Section 3.1:
  /// data migrates to the local SSD before computation starts).
  void preload(Bytes dataset_bytes);

  /// Runs one device request; `arrival` is when it reaches the device.
  /// Throws std::logic_error if `arrival` is before the settled horizon.
  RequestResult submit(const BlockRequest& request, Time arrival);

  /// Promises that no later request arrives before `horizon`. Once about
  /// kSettleTransactions transactions have run since the last settle,
  /// folds the busy time before it into the settled census and frees
  /// those busy intervals; otherwise returns at once. A device that is
  /// never settled keeps every interval until device_stats().
  void settle_before(Time horizon);
  /// Horizon of the last settle; zero until one happens.
  [[nodiscard]] Time settled_horizon() const { return settled_horizon_; }

  const SsdConfig& config() const { return config_; }
  const NvmTiming& timing() const { return timing_; }
  const ControllerStats& controller_stats() const { return controller_->stats(); }
  const FtlStats& ftl_stats() const { return ftl_->stats(); }

  /// Aggregate wear across every die.
  WearSummary wear() const;

  /// Derived per-figure statistics; `wall_time` is the replay makespan
  /// (first issue to last completion including host DMA).
  DeviceStats device_stats(Time wall_time) const;

  /// min(channel aggregate, cell aggregate) streaming read capability.
  double media_capability_bytes_per_sec() const;

  SsdHardware& hardware() { return *hardware_; }
  Ftl& ftl() { return *ftl_; }
  const Ftl& ftl() const { return *ftl_; }
  /// Null unless fault injection is enabled.
  const FaultInjector* fault_injector() const { return injector_.get(); }

 private:
  static constexpr std::uint64_t kSettleTransactions = 1 << 14;

  SsdConfig config_;
  NvmTiming timing_;
  std::unique_ptr<SsdHardware> hardware_;
  std::unique_ptr<Ftl> ftl_;
  std::unique_ptr<FaultInjector> injector_;
  std::unique_ptr<Controller> controller_;
  /// Busy time folded by settle_before(), all of it before
  /// settled_horizon_.
  BusyCensus settled_;
  Time settled_horizon_;
  std::uint64_t settled_transactions_ = 0;
};

}  // namespace nvmooc
