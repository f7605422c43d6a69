// In-process half of the perfbench benchmark (run.py is the other half).
//
// Every command prints JSON lines on stdout that run.py parses: "setup"
// lines (one per batch of timed set-up sequences), one "replay" line per
// replay (simulated outputs plus the host wall time of ReplayEngine::run
// alone) and, with --layers 1, one "layers" line. Host time is read from
// std::chrono::steady_clock around calls into each layer's public
// functions; the library's own host instruments (obs::HostSession,
// Timeline/BusyTracker counters, the timeline allocation tally) are only
// read, never extended. Each timed span also carries its start and end on
// the steady clock (CLOCK_MONOTONIC, shared by all processes), so run.py
// can pair it with the host-speed probes that ran meanwhile.
//
//   perfbench_driver gen-ooc --out FILE
//       Writes the standard OoC trace (bench_common.hpp) as a trace file.
//   perfbench_driver setup --trace FILE --config NAME --media M --reps N
//       N timed set-up sequences: load FILE, build the engine.
//   perfbench_driver replay --trace FILE --config NAME --media M
//       --seconds S [--check-trace FILE] [--layers 1]
//       Untraced replays of FILE until S seconds of replay time have
//       passed (at least one); then one replay of --check-trace; then
//       (with --layers 1) the traced replay and the isolated layer passes.
//   perfbench_driver sweep --setup-reps N [--layers 1]
//       The bench_headline --quick sweep: N timed set-up sequences and
//       (with --layers 1) the traced replay and layer passes of every
//       config.
//   perfbench_driver probe-loop
//       Host-speed probes, one after another, until killed or orphaned:
//       one "probe" line each, with its end time and duration.
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <queue>
#include <stdexcept>
#include <string>
#include <vector>

#include <malloc.h>
#include <unistd.h>

#include "bench_common.hpp"
#include "cluster/configs.hpp"
#include "cluster/engine.hpp"
#include "common/alloc_counter.hpp"
#include "obs/host_profiler.hpp"
#include "ooc/workload.hpp"
#include "ssd/ftl.hpp"
#include "trace/trace.hpp"
#include "ufs/ufs.hpp"

namespace {

using namespace nvmooc;
using Clock = std::chrono::steady_clock;

/// Seconds on the steady clock, comparable across processes.
double clock_s() {
  return std::chrono::duration<double>(Clock::now().time_since_epoch()).count();
}

double seconds_between(Clock::time_point start, Clock::time_point end) {
  return std::chrono::duration<double>(end - start).count();
}

volatile std::uint64_t probe_sink = 0;

/// The host-speed probe: a fixed piece of work, about 0.1 s, run over and
/// over on another core while the benchmark measures. The host is shared
/// with other tenants and its speed drifts by tens of percent within
/// seconds; a span and the probes that ran during it slow down together,
/// so run.py divides the one by the other. The probe is a small
/// discrete-event loop shaped like the simulator's hot path (an event
/// heap, ordered interval maps with node allocation, gap list scans),
/// written here so that no change to the simulator moves it.
double probe_once() {
  using Event = std::pair<std::uint64_t, std::uint32_t>;
  using Gap = std::pair<std::uint64_t, std::uint64_t>;
  const Clock::time_point start = Clock::now();
  std::uint64_t h = 1469598103934665603ULL;
  {
    std::priority_queue<Event, std::vector<Event>, std::greater<>> events;
    std::vector<std::map<std::uint64_t, std::uint64_t>> busy(64);
    std::vector<std::vector<Gap>> gaps(64);
    for (std::uint32_t i = 0; i < 4096; ++i) events.push({std::uint64_t{i} * 7, i});
    for (int step = 0; step < 250000; ++step) {
      const auto [time, id] = events.top();
      events.pop();
      h = (h ^ id) * 1099511628211ULL;
      std::map<std::uint64_t, std::uint64_t>& intervals = busy[h % busy.size()];
      std::uint64_t begin = time + (h >> 40) % 1000;
      const std::uint64_t length = 1 + (h >> 20) % 500;
      const auto next = intervals.lower_bound(begin);
      if (next != intervals.end() && next->first < begin + length) begin = next->second;
      intervals.emplace_hint(next, begin, begin + length);
      if (intervals.size() > 2048) intervals.erase(intervals.begin());
      std::vector<Gap>& list = gaps[(h >> 8) % gaps.size()];
      std::uint64_t fit = 0;
      for (const Gap& gap : list) {
        if (gap.second - gap.first >= length) {
          fit = gap.first;
          break;
        }
      }
      const Gap gap{begin, begin + 2 * length};
      if (list.size() < 256) {
        list.push_back(gap);
      } else {
        list[(h >> 30) % list.size()] = gap;
      }
      events.push({begin + length + fit % 3, id});
    }
  }
  probe_sink = probe_sink + h;
  return seconds_between(start, Clock::now());
}

int probe_loop() {
  // Keep the probe's freed memory in the process: otherwise every probe
  // returns it to the kernel and faults it back in, and that kernel work
  // competes with the page faults of the process being measured.
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  // A parent that was killed cannot stop the loop, so the loop stops
  // itself once it has been handed to another parent.
  const pid_t parent = getppid();
  while (getppid() == parent) {
    const double seconds = probe_once();
    std::printf("{\"kind\": \"probe\", \"end\": %.6f, \"seconds\": %.9f}\n", clock_s(), seconds);
    std::fflush(stdout);
  }
  return 0;
}

/// "--name value" pairs.
std::map<std::string, std::string> parse_args(int argc, char** argv, int first) {
  std::map<std::string, std::string> args;
  for (int i = first; i < argc; i += 2) {
    if (std::strncmp(argv[i], "--", 2) != 0 || i + 1 >= argc) {
      throw std::runtime_error(std::string("expected --name value at ") + argv[i]);
    }
    args[argv[i] + 2] = argv[i + 1];
  }
  return args;
}

const std::string& required(const std::map<std::string, std::string>& args,
                            const std::string& key) {
  const auto it = args.find(key);
  if (it == args.end()) throw std::runtime_error("missing --" + key);
  return it->second;
}

bool enabled(const std::map<std::string, std::string>& args, const std::string& key) {
  const auto it = args.find(key);
  return it != args.end() && it->second == "1";
}

NvmType parse_media(const std::string& name) {
  for (NvmType media : bench::all_media()) {
    if (to_string(media) == name) return media;
  }
  throw std::runtime_error("unknown media " + name);
}

ExperimentConfig find_config(const std::string& name, NvmType media) {
  for (const ExperimentConfig& config : all_configs(media)) {
    if (config.name == name) return config;
  }
  throw std::runtime_error("unknown config " + name);
}

/// The simulated outputs run.py compares against perfbench/reference.json,
/// plus any layer-pass fidelity errors found for this replay, which ran
/// from t0 to t1 (clock_s).
void print_replay(const char* tag, const ExperimentResult& result, double t0, double t1,
                  const std::vector<std::string>& errors = {}) {
  std::printf(
      "{\"kind\": \"replay\", \"tag\": \"%s\", \"config\": \"%s\", \"media\": \"%s\", "
      "\"t0\": %.6f, \"t1\": %.6f, \"wall_s\": %.9f, \"makespan_ps\": %lld, "
      "\"device_requests\": %llu, "
      "\"transactions\": %llu, \"payload_bytes\": %llu, \"channel_util\": %.17g, "
      "\"package_util\": %.17g, \"errors\": [",
      tag, result.name.c_str(), std::string(to_string(result.media)).c_str(), t0, t1, t1 - t0,
      static_cast<long long>(result.makespan.ps()),
      static_cast<unsigned long long>(result.device_requests),
      static_cast<unsigned long long>(result.transactions),
      static_cast<unsigned long long>(result.payload_bytes.value()),
      result.channel_utilization, result.package_utilization);
  for (std::size_t i = 0; i < errors.size(); ++i) {
    std::printf("%s\"%s\"", i ? ", " : "", errors[i].c_str());
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

/// One batch of set-up sequences, which ran from t0 to t1 (clock_s).
void print_setup(const std::vector<double>& seconds, std::size_t posix_requests, double t0,
                 double t1) {
  std::printf("{\"kind\": \"setup\", \"posix_requests\": %zu, \"t0\": %.6f, \"t1\": %.6f, "
              "\"seconds\": [",
              posix_requests, t0, t1);
  for (std::size_t i = 0; i < seconds.size(); ++i) {
    std::printf("%s%.9f", i ? ", " : "", seconds[i]);
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

/// Replays once and prints the replay. The span is ReplayEngine::run
/// alone; the engine is built outside it.
void timed_replay(const char* tag, const ExperimentConfig& config, const Trace& trace) {
  ReplayEngine engine(config);
  const double t0 = clock_s();
  const ExperimentResult result = engine.run(trace);
  print_replay(tag, result, t0, clock_s());
}

/// Per-layer host time and work counts, summed over the replays of a
/// workload. run.py derives BENCHMARK.json's per_layer metrics from them.
using Layers = std::map<std::string, double>;

double host_section(const obs::HostReport& report, const char* name) {
  for (const obs::HostSectionStat& section : report.sections) {
    if (section.name == name) return section.wall_seconds;
  }
  return 0.0;
}

/// Busy intervals held by the device's channel-bus, flash-bus and
/// die-plane trackers once the replay is done.
std::uint64_t busy_intervals(const SsdHardware& hardware) {
  const SsdGeometry& geometry = hardware.geometry();
  std::uint64_t total = 0;
  for (std::uint32_t c = 0; c < geometry.channels; ++c) {
    total += hardware.channel_bus(c).busy().interval_count();
    for (std::uint32_t p = 0; p < geometry.packages_per_channel; ++p) {
      const Package& package = hardware.package(c, p);
      total += package.flash_bus().busy().interval_count();
      for (std::uint32_t d = 0; d < package.die_count(); ++d) {
        const Die& die = package.die(d);
        for (std::uint32_t plane = 0; plane < die.plane_count(); ++plane) {
          total += die.plane_busy(plane).interval_count();
        }
      }
    }
  }
  return total;
}

/// IoPath::submit over the whole trace: returns the non-empty device
/// requests in issue order, and adds the pass's time and counts to
/// layers under `name`.
std::vector<BlockRequest> io_pass(IoPath& path, const std::string& name, const Trace& trace,
                                  Layers& layers) {
  std::vector<BlockRequest> stream;
  std::uint64_t internal = 0;
  const Clock::time_point start = Clock::now();
  for (const PosixRequest& posix : trace.requests()) {
    for (const BlockRequest& request : path.submit(posix)) {
      if (request.size == Bytes{}) continue;
      if (request.internal) ++internal;
      stream.push_back(request);
    }
  }
  layers[name + ".submit_s"] += seconds_between(start, Clock::now());
  layers[name + ".device_requests"] += static_cast<double>(stream.size());
  layers[name + ".internal_requests"] += static_cast<double>(internal);
  return stream;
}

/// One replay under obs::HostSession, then the isolated I/O-path and FTL
/// passes over the same trace, checked against the replay's own counts.
/// Prints the traced replay with any mismatch as its errors.
void trace_layers(const ExperimentConfig& config, const Trace& trace, Layers& layers) {
  ReplayEngine engine(config);
  // The tally keeps the thread's high-water mark over every earlier
  // replay; restart it so the peak belongs to this one.
  AllocTally& tally = alloc_tally(AllocDomain::kTimeline);
  tally.peak_live_bytes = tally.live_bytes;
  ExperimentResult result;
  double t0 = 0.0;
  double t1 = 0.0;
  {
    obs::HostSession session;
    t0 = clock_s();
    result = engine.run(trace);
    t1 = clock_s();
  }
  layers["bench.traced_wall_s"] += t1 - t0;
  const obs::HostReport& host = result.host;
  double attributed = 0.0;
  for (const obs::HostSectionStat& section : host.sections) attributed += section.wall_seconds;
  constexpr double kMiB = 1024.0 * 1024.0;
  layers["ssd.controller_self_s"] += host_section(host, "controller");
  layers["ssd.transactions"] += static_cast<double>(result.transactions);
  layers["sim.timeline_self_s"] += host_section(host, "timeline");
  layers["sim.reservations"] += static_cast<double>(
      host.events[static_cast<int>(obs::HostEvent::kTimelineReservation)]);
  layers["sim.timeline_alloc_mib"] +=
      static_cast<double>(host.timeline_alloc.allocated_bytes) / kMiB;
  double& peak_live = layers["sim.timeline_peak_live_mib"];
  peak_live = std::max(peak_live, static_cast<double>(host.timeline_alloc.peak_live_bytes) / kMiB);
  layers["common.busy_intervals"] +=
      static_cast<double>(busy_intervals(engine.ssd().hardware()));
  layers["interconnect.self_s"] += host_section(host, "interconnect");
  layers["cluster.engine_self_s"] += host_section(host, "engine");
  layers["cluster.untracked_s"] += std::max(0.0, host.wall_seconds - attributed);
  layers["model.device_requests"] += static_cast<double>(result.device_requests);
  layers["model.makespan_ms"] += static_cast<double>(result.makespan.ps()) / 1e9;
  layers["model.channel_util"] += result.channel_utilization;
  layers["model.package_util"] += result.package_utilization;
  layers["model.channel_contention_frac"] +=
      result.phase_fraction[static_cast<int>(Phase::kChannelContention)];
  layers["model.replays"] += 1.0;

  // Isolated pass over the config's own I/O path, on a fresh model set up
  // as the engine sets it up. It feeds the FTL pass and must match the
  // replay.
  const Bytes extent = trace.extent();
  const std::string io = config.use_ufs ? "ufs" : "fs";
  std::vector<BlockRequest> stream;
  if (config.use_ufs) {
    UfsConfig ufs_config;
    ufs_config.capacity = config.geometry.capacity(timing_for(config.media));
    UnifiedFileSystem ufs(ufs_config);
    ufs.provision_dataset(std::max(extent, Bytes{1}));
    stream = io_pass(ufs, io, trace, layers);
  } else {
    FileSystemModel fs(config.fs);
    fs.mount(extent);
    stream = io_pass(fs, io, trace, layers);
  }
  std::vector<std::string> errors;
  if (stream.size() != result.device_requests) {
    errors.push_back(io + " pass made " + std::to_string(stream.size()) +
                     " non-empty device requests, the replay " +
                     std::to_string(result.device_requests));
  }

  // Isolated FTL pass over the I/O path's stream.
  Ftl ftl(config.geometry, timing_for(config.media), config.ftl);
  ftl.set_preloaded(extent);
  std::uint64_t unit_runs = 0;
  const Clock::time_point ftl_start = Clock::now();
  for (const BlockRequest& request : stream) unit_runs += ftl.translate(request).size();
  layers["ssd.ftl_translate_s"] += seconds_between(ftl_start, Clock::now());
  const FtlStats& got = ftl.stats();
  const FtlStats& want = result.ftl;
  layers["ssd.ftl_unit_runs"] += static_cast<double>(unit_runs);
  layers["ssd.ftl_writes"] += static_cast<double>(got.writes);
  layers["ssd.ftl_rmw"] += static_cast<double>(got.read_modify_writes);
  if (got.reads != want.reads || got.writes != want.writes ||
      got.read_modify_writes != want.read_modify_writes) {
    errors.push_back(
        "FTL pass reads/writes/rmw " + std::to_string(got.reads) + "/" +
        std::to_string(got.writes) + "/" + std::to_string(got.read_modify_writes) +
        ", the replay " + std::to_string(want.reads) + "/" + std::to_string(want.writes) +
        "/" + std::to_string(want.read_modify_writes));
  }
  print_replay("traced", result, t0, t1, errors);
}

/// The layer values of traced replays that ran from t0 to t1 (clock_s).
void print_layers(const Layers& layers, double t0, double t1) {
  std::printf("{\"kind\": \"layers\", \"t0\": %.6f, \"t1\": %.6f, \"values\": {", t0, t1);
  bool first = true;
  for (const auto& [name, value] : layers) {
    std::printf("%s\"%s\": %.17g", first ? "" : ", ", name.c_str(), value);
    first = false;
  }
  std::printf("}}\n");
  std::fflush(stdout);
}

int gen_ooc(const std::map<std::string, std::string>& args) {
  bench::standard_trace().save(required(args, "out"));
  return 0;
}

int setup(const std::map<std::string, std::string>& args) {
  const std::string trace_path = required(args, "trace");
  const ExperimentConfig config =
      find_config(required(args, "config"), parse_media(required(args, "media")));
  const int reps = std::stoi(required(args, "reps"));
  std::vector<double> seconds;
  std::size_t posix_requests = 0;
  const double t0 = clock_s();
  for (int i = 0; i < reps; ++i) {
    const Clock::time_point start = Clock::now();
    const Trace loaded = Trace::load(trace_path);
    const ReplayEngine engine(config);
    seconds.push_back(seconds_between(start, Clock::now()));
    posix_requests = loaded.size();
  }
  print_setup(seconds, posix_requests, t0, clock_s());
  return 0;
}

int replay(const std::map<std::string, std::string>& args) {
  const std::string trace_path = required(args, "trace");
  const ExperimentConfig config =
      find_config(required(args, "config"), parse_media(required(args, "media")));
  const double budget_s = std::stod(required(args, "seconds"));

  const Trace trace = Trace::load(trace_path);
  double spent = 0.0;
  do {
    const double start = clock_s();
    timed_replay("timed", config, trace);
    spent += clock_s() - start;
  } while (spent < budget_s);
  if (args.count("check-trace") != 0) {
    timed_replay("check", config, Trace::load(args.at("check-trace")));
  }
  if (enabled(args, "layers")) {
    Layers layers;
    const Clock::time_point load_start = Clock::now();
    const Trace loaded = Trace::load(trace_path);
    layers["trace.load_s"] = seconds_between(load_start, Clock::now());
    layers["trace.posix_requests"] = static_cast<double>(loaded.size());
    const double t0 = clock_s();
    trace_layers(config, loaded, layers);
    print_layers(layers, t0, clock_s());
  }
  return 0;
}

/// The quick trace bench_headline replays, synthesized afresh (the
/// bench_common copy is a cached static, so it cannot time set-up).
Trace synthesize_quick_trace() {
  SyntheticWorkloadParams params;
  params.dataset_bytes = 64 * MiB;
  params.tile_bytes = 8 * MiB;
  params.sweeps = 1;
  params.checkpoint_bytes = 2 * MiB;
  return synthesize_ooc_trace(params);
}

bool same_requests(const Trace& a, const Trace& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    const PosixRequest& x = a[i];
    const PosixRequest& y = b[i];
    if (x.op != y.op || x.offset != y.offset || x.size != y.size ||
        x.not_before != y.not_before || x.barrier != y.barrier) {
      return false;
    }
  }
  return true;
}

int sweep(const std::map<std::string, std::string>& args) {
  const int setup_reps = std::stoi(required(args, "setup-reps"));
  if (!same_requests(synthesize_quick_trace(), bench::quick_trace())) {
    throw std::runtime_error("synthesize_quick_trace() no longer matches bench_headline's quick trace");
  }
  // One set-up sequence: synthesize the quick trace, build every engine
  // of the 13 configs x 4 media grid.
  std::vector<double> setup;
  std::size_t posix_requests = 0;
  const double setup_start = clock_s();
  for (int i = 0; i < setup_reps; ++i) {
    const Clock::time_point start = Clock::now();
    const Trace trace = synthesize_quick_trace();
    for (NvmType media : bench::all_media()) {
      for (const ExperimentConfig& config : all_configs(media)) {
        const ReplayEngine engine(config);
      }
    }
    setup.push_back(seconds_between(start, Clock::now()));
    posix_requests = trace.size();
  }
  print_setup(setup, posix_requests, setup_start, clock_s());

  if (enabled(args, "layers")) {
    Layers layers;
    const Clock::time_point synth_start = Clock::now();
    const Trace trace = synthesize_quick_trace();
    layers["trace.load_s"] = seconds_between(synth_start, Clock::now());
    layers["trace.posix_requests"] = static_cast<double>(trace.size());
    const double t0 = clock_s();
    for (NvmType media : bench::all_media()) {
      for (const ExperimentConfig& config : all_configs(media)) {
        trace_layers(config, trace, layers);
      }
    }
    print_layers(layers, t0, clock_s());
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  try {
    if (argc < 2) throw std::runtime_error("usage: perfbench_driver gen-ooc|setup|replay|sweep|probe-loop ...");
    const std::string command = argv[1];
    const std::map<std::string, std::string> args = parse_args(argc, argv, 2);
    if (command == "gen-ooc") return gen_ooc(args);
    if (command == "setup") return setup(args);
    if (command == "replay") return replay(args);
    if (command == "sweep") return sweep(args);
    if (command == "probe-loop") return probe_loop();
    throw std::runtime_error("unknown command " + command);
  } catch (const std::exception& error) {
    std::fprintf(stderr, "perfbench_driver: %s\n", error.what());
    return 2;
  }
}
