// End-to-end integration tests: the real OoC eigensolver producing a
// trace that flows through the full storage stack, DOoC middleware
// overlapping I/O with compute, and UFS-vs-FS comparisons on captured
// (not synthesized) traces.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>

#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "fs/presets.hpp"
#include "dooc/prefetcher.hpp"
#include "dooc/scheduler.hpp"
#include "ooc/lobpcg.hpp"
#include "ooc/ooc_operator.hpp"
#include "obs/host_profiler.hpp"
#include "ooc/workload.hpp"

namespace nvmooc {
namespace {

CapturedWorkload captured_fixture() {
  // Large enough that the serialized Hamiltonian spans dozens of GPFS
  // stripe chunks (so striping effects are visible), small enough for a
  // test-budget eigensolve.
  HamiltonianParams h_params;
  h_params.dimension = 16000;
  h_params.band_width = 64;
  h_params.band_fill = 0.35;
  h_params.seed = 11;
  LobpcgOptions solver;
  solver.block_size = 6;
  solver.tolerance = 1e-4;
  solver.max_iterations = 200;
  return capture_ooc_trace(h_params, 512, solver);
}

TEST(Integration, SolverConvergesAndTraceReplays) {
  const CapturedWorkload workload = captured_fixture();
  ASSERT_TRUE(workload.solution.converged);
  ASSERT_GT(workload.trace.size(), 0u);

  // Replay the captured trace through two full stacks; UFS on CNL must
  // beat a traditional FS on CNL on the same trace.
  const auto ext4 =
      run_experiment(cnl_fs_config(ext4_behavior(), NvmType::kMlc), workload.trace);
  const auto ufs = run_experiment(cnl_ufs_config(NvmType::kMlc), workload.trace);
  EXPECT_GT(ufs.achieved_mbps, ext4.achieved_mbps);
  EXPECT_EQ(ufs.payload_bytes, workload.trace.stats().total_bytes);
}

TEST(Integration, CapturedTraceShowsIterativeStructure) {
  const CapturedWorkload workload = captured_fixture();
  // One full-dataset sweep per operator application: offsets restart at
  // 0 exactly operator_applications times.
  std::size_t restarts = 0;
  for (const PosixRequest& request : workload.trace.requests()) {
    if (request.offset == Bytes{}) ++restarts;
  }
  EXPECT_EQ(restarts, workload.solution.operator_applications);
}

TEST(Integration, DoocPrefetcherOverlapsSolverIo) {
  // Run the same eigensolve twice: once with plain tile streaming, once
  // with the DOoC prefetcher driving tiles through a (simulated-latency)
  // storage; both must give identical eigenvalues.
  HamiltonianParams h_params;
  h_params.dimension = 900;
  h_params.band_width = 30;
  const CsrMatrix h = synthetic_hamiltonian(h_params);
  MemoryStorage storage(h.storage_bytes(0, h.rows()) + MiB);
  OocHamiltonian ooc(h, storage, 128);

  LobpcgOptions solver;
  solver.block_size = 4;
  solver.tolerance = 1e-6;
  solver.max_iterations = 120;

  const LobpcgResult plain =
      lobpcg([&](const DenseMatrix& x) { return ooc.apply(x); }, h.rows(), solver);

  // Prefetched apply: tiles stream through the prefetcher, compute
  // overlaps the next read.
  std::vector<TilePrefetcher::TileRef> tiles;
  for (std::size_t t = 0; t < ooc.tile_count(); ++t) {
    tiles.push_back({ooc.tile(t).offset, ooc.tile(t).bytes});
  }
  TilePrefetcher prefetcher(storage, tiles, 4);
  auto prefetched_apply = [&](const DenseMatrix& x) {
    DenseMatrix y(x.rows(), x.cols());
    for (std::size_t t = 0; t < ooc.tile_count(); ++t) {
      const auto buffer = prefetcher.get(t);
      ooc.apply_tile(ooc.tile(t), *buffer, x, y);
    }
    prefetcher.restart();
    return y;
  };
  const LobpcgResult overlapped = lobpcg(prefetched_apply, h.rows(), solver);

  ASSERT_TRUE(plain.converged);
  ASSERT_TRUE(overlapped.converged);
  for (std::size_t j = 0; j < solver.block_size; ++j) {
    EXPECT_NEAR(plain.eigenvalues[j], overlapped.eigenvalues[j], 1e-6);
  }
}

TEST(Integration, SchedulerDrivesTiledSpmm) {
  // Express one SpMM as a DOoC task DAG: one task per tile plus a
  // reduction barrier; result must equal the direct product.
  HamiltonianParams h_params;
  h_params.dimension = 640;
  const CsrMatrix h = synthetic_hamiltonian(h_params);
  MemoryStorage storage(h.storage_bytes(0, h.rows()) + MiB);
  OocHamiltonian ooc(h, storage, 64);

  Rng rng(3);
  DenseMatrix x(h.rows(), 3);
  x.fill_random(rng);
  DenseMatrix y(h.rows(), 3);

  DataAwareScheduler scheduler;
  std::vector<TaskId> tile_tasks;
  for (std::size_t t = 0; t < ooc.tile_count(); ++t) {
    tile_tasks.push_back(scheduler.add_task(
        {[&, t] {
           std::vector<std::uint8_t> buffer(ooc.tile(t).bytes.value());
           storage.read(ooc.tile(t).offset, buffer.data(), Bytes{buffer.size()});
           ooc.apply_tile(ooc.tile(t), buffer, x, y);  // Disjoint row ranges.
         },
         {},
         {static_cast<ArrayId>(t)},
         0}));
  }
  bool reduced = false;
  scheduler.add_task({[&] { reduced = true; }, tile_tasks, {}, 0});
  scheduler.run(4);
  ASSERT_TRUE(reduced);

  const DenseMatrix expected = h.multiply(x);
  double max_err = 0;
  for (std::size_t i = 0; i < h.rows() * 3; ++i) {
    max_err = std::max(max_err, std::abs(expected.data()[i] - y.data()[i]));
  }
  EXPECT_LT(max_err, 1e-12);
}

TEST(Integration, Figure6StripingContrast) {
  // The Figure 6 mechanism end to end: the POSIX trace is highly
  // sequential; below GPFS the block addresses are scrambled.
  const CapturedWorkload workload = captured_fixture();
  EXPECT_GT(workload.trace.stats().sequentiality, 0.8);

  FileSystemModel gpfs(gpfs_behavior());
  gpfs.mount(workload.trace.extent());
  Trace device_level;
  for (const PosixRequest& request : workload.trace.requests()) {
    for (const BlockRequest& block : gpfs.submit(request)) {
      if (!block.internal) device_level.add(NvmOp::kRead, block.offset, block.size);
    }
  }
  EXPECT_LT(device_level.stats().sequentiality,
            workload.trace.stats().sequentiality * 0.5);
}

TEST(Integration, PreloadThenIterateEndToEnd) {
  // The full paper workflow on one CNL node: provision a UFS object,
  // pre-load, replay the captured solve, and confirm the device saw only
  // reads (immutable dataset) at PAL4.
  const CapturedWorkload workload = captured_fixture();
  ReplayEngine engine(cnl_ufs_config(NvmType::kSlc));
  const ExperimentResult result = engine.run(workload.trace);
  EXPECT_GT(result.achieved_mbps, 0.0);
  EXPECT_EQ(engine.ssd().ftl_stats().writes, 0u);  // Read-only replay.
  EXPECT_GT(result.pal_fraction[3], 0.5);
}

// A backfill-heavy replay pinned to its exact outputs: seeded random
// 4-64 KiB reads and 30% writes on 512 B sectors over 1 GiB, on
// CNL-EXT4/MLC. Backfilled grants split channel gaps, and that split path
// does not enforce the timeline's max_gaps (64), so the gap lists grow far
// past it; the pins hold the reservation path to the grants it made when
// every scan was a linear walk of the list.
TEST(Integration, BackfillHeavyRandomReplayIsPinned) {
  std::uint64_t state = 7;
  const auto next = [&state] {
    state += 0x9e3779b97f4a7c15ULL;
    std::uint64_t z = state;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  };
  constexpr std::uint64_t kSector = 512;
  constexpr std::uint64_t kExtent = 1ULL << 30;
  constexpr std::uint64_t kSizes = ((64 << 10) - (4 << 10)) / kSector + 1;
  Trace trace;
  for (int i = 0; i < 3000; ++i) {
    const bool write = next() % 10 < 3;
    const std::uint64_t size = (4 << 10) + next() % kSizes * kSector;
    const std::uint64_t offset = next() % ((kExtent - size) / kSector + 1) * kSector;
    trace.add(write ? NvmOp::kWrite : NvmOp::kRead, Bytes{offset}, Bytes{size});
  }

  ReplayEngine engine(cnl_fs_config(ext4_behavior(), NvmType::kMlc));
  const ExperimentResult result = engine.run(trace);

  std::size_t most_gaps = 0;
  const SsdHardware& hardware = engine.ssd().hardware();
  for (std::uint32_t c = 0; c < hardware.geometry().channels; ++c) {
    most_gaps = std::max(most_gaps, hardware.channel_bus(c).gap_count());
  }
  EXPECT_GT(most_gaps, 64u);

  // Recorded with the linear-scan gap search.
  EXPECT_EQ(result.makespan.ps(), 315942923593);
  EXPECT_EQ(result.transactions, 29524u);
  EXPECT_EQ(result.channel_utilization, 0.99188627367208726);
  EXPECT_EQ(result.package_utilization, 0.26087661090315695);
}

// The replay engine settles busy time behind its issue watermark, so a
// PCM replay of the quick OoC trace (a 64 MiB dataset, one sweep) ends
// holding only the busy intervals since the last settle: fewer than 1%
// of its timeline reservations.
TEST(Integration, PcmReplaySettlesBusyIntervals) {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 64 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = 2 * MiB;
  ReplayEngine engine(cnl_fs_config(ext4_behavior(), NvmType::kPcm));
  ExperimentResult result;
  {
    obs::HostSession host;  // Counts the timeline reservations.
    result = engine.run(synthesize_ooc_trace(params));
  }
  const std::uint64_t reservations =
      result.host.events[static_cast<int>(obs::HostEvent::kTimelineReservation)];

  std::uint64_t held = 0;
  const SsdHardware& hardware = engine.ssd().hardware();
  for (std::uint32_t c = 0; c < hardware.geometry().channels; ++c) {
    held += hardware.channel_bus(c).busy().interval_count();
    for (std::uint32_t p = 0; p < hardware.geometry().packages_per_channel; ++p) {
      const Package& package = hardware.package(c, p);
      held += package.flash_bus().busy().interval_count();
      for (std::uint32_t d = 0; d < package.die_count(); ++d) {
        const Die& die = package.die(d);
        for (std::uint32_t plane = 0; plane < die.plane_count(); ++plane) {
          held += die.plane_busy(plane).interval_count();
        }
      }
    }
  }
  EXPECT_GT(engine.ssd().settled_horizon(), Time{});
  EXPECT_GT(reservations, 100'000u);
  EXPECT_LT(held * 100, reservations) << held << " of " << reservations;
}

}  // namespace
}  // namespace nvmooc
