// Thread-safety witness for the concurrency the simulator supports: one
// replay per worker thread. Every replay owns its device, FTL, timelines,
// links and FS/UFS, and the per-replay instruments install thread-locally,
// so replays on a ThreadPool must reproduce a serial run byte for byte.
// The tsan preset runs this test (label `threaded`); any process-shared
// state a replay touches without synchronisation shows up as a race.
#include <gtest/gtest.h>

#include <cstddef>
#include <string>
#include <vector>

#include "check/audit.hpp"
#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "common/thread_pool.hpp"
#include "obs/flight_recorder.hpp"
#include "obs/latency.hpp"
#include "ooc/workload.hpp"

namespace nvmooc {
namespace {

/// bench_headline's --quick trace: one sweep of 8 MiB tiles over 64 MiB
/// plus a 2 MiB checkpoint.
Trace quick_trace() {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 64 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = 2 * MiB;
  return synthesize_ooc_trace(params);
}

/// Network FS, local FS and UFS paths on every medium.
std::vector<ExperimentConfig> replay_configs() {
  std::vector<ExperimentConfig> configs;
  for (NvmType media : {NvmType::kSlc, NvmType::kMlc, NvmType::kTlc, NvmType::kPcm}) {
    for (const ExperimentConfig& config : all_configs(media)) {
      if (config.name == "ION-GPFS" || config.name == "CNL-EXT4" ||
          config.name == "CNL-UFS") {
        configs.push_back(config);
      }
    }
  }
  return configs;
}

struct ReplayOutput {
  std::string result_json;
  std::string exemplars;
  bool audit_passed = false;
};

/// One replay under the calling thread's own audit, latency and flight
/// sessions (the host profiler is left out: its wall times differ from
/// run to run).
ReplayOutput replay(const ExperimentConfig& config, const Trace& trace) {
  check::AuditSession audit;
  obs::LatencySession latency(4);
  obs::FlightSession flight;
  const ExperimentResult result = run_experiment(config, trace);
  return {result.to_json(), latency.observatory().summary(), result.audit.passed()};
}

TEST(ConcurrentReplays, MatchSerialReference) {
  const Trace trace = quick_trace();
  const std::vector<ExperimentConfig> configs = replay_configs();
  ASSERT_EQ(configs.size(), 12u);
  bool saw_ufs = false;
  bool saw_fs = false;
  for (const ExperimentConfig& config : configs) {
    (config.use_ufs ? saw_ufs : saw_fs) = true;
  }
  ASSERT_TRUE(saw_ufs && saw_fs);

  std::vector<ReplayOutput> serial;
  for (const ExperimentConfig& config : configs) serial.push_back(replay(config, trace));

  std::vector<ReplayOutput> concurrent(configs.size());
  ThreadPool pool(4);
  pool.parallel_for(0, configs.size(), [&](std::size_t lo, std::size_t hi) {
    for (std::size_t i = lo; i < hi; ++i) concurrent[i] = replay(configs[i], trace);
  });

  for (std::size_t i = 0; i < configs.size(); ++i) {
    const std::string label =
        configs[i].name + "/" + std::string(to_string(configs[i].media));
    EXPECT_TRUE(serial[i].audit_passed) << label;
    EXPECT_TRUE(concurrent[i].audit_passed) << label;
    EXPECT_EQ(concurrent[i].result_json, serial[i].result_json) << label;
    EXPECT_EQ(concurrent[i].exemplars, serial[i].exemplars) << label;
  }
}

}  // namespace
}  // namespace nvmooc
