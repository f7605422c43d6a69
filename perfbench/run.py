#!/usr/bin/env python3
"""The simulator's benchmark: three workloads, end-to-end and per-layer.

    python3 perfbench/run.py --workload ooc-pcm|rand-rw|headline-quick \\
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-test
    python3 perfbench/run.py --record      # rewrite perfbench/reference.json

Run from the repository root. The first run builds the simulator, the
in-process driver (driver.cpp) and bench_headline into .bench_build/.
Human-readable lines go to stdout first; the last stdout line is one JSON
object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics (--trace 0) or the per-layer metrics (--trace 1), with
the names and units of BENCHMARK.json. Every replay's simulated outputs
are compared with perfbench/reference.json; a mismatch fails the replay
and makes "correct" false. See perfbench/README.md.
"""

import argparse
import copy
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "cmake")
WORK = os.path.join(ROOT, ".bench_build", "work")
DRIVER = os.path.join(BUILD, "perfbench_driver")
HEADLINE = os.path.join(BUILD, "nvmooc_bench", "bench_headline")
REFERENCE = os.path.join(HERE, "reference.json")
SPEC = os.path.join(ROOT, "BENCHMARK.json")

# Every child is killed after this long, so a run always ends within the
# 180 s a run may take.
CHILD_TIMEOUT_S = 150
# setup_s: SETUP_PROCESSES fresh driver processes each time SETUP_REPS
# set-up sequences before the timed replays; setup_s is the mean of their
# medians. One sequence takes microseconds (ooc-pcm) to milliseconds
# (rand-rw, headline-quick), so a single timing would measure timer and
# cache jitter. And each core of the shared host runs at its own speed,
# which changes from minute to minute: ooc-pcm's set-up took 26 us on
# three cores and 41 us on the fourth, then 25 us on that one and 43 us
# on another. So the processes are pinned to the cores in turn, and
# setup_s is the mean over them, not a median that would jump between
# the fast and the slow cores. These take 0.1-0.6 s per run.
SETUP_PROCESSES = 8
SETUP_REPS = {"ooc-pcm": 250, "rand-rw": 15, "headline-quick": 10}

# The host-speed probe (driver.cpp, probe_once) runs over and over on
# another core while a workload measures. Host times are reported scaled
# to a host on which the probe takes this long: span * PROBE_REFERENCE_S /
# (mean probe during the span). The host is shared and its speed drifts
# by tens of percent within seconds; the scaling removes what the span
# and the probes share. The value is the probe's median on a 4-vCPU Xeon
# KVM guest at 2.1 GHz.
PROBE_REFERENCE_S = 0.11
# A span shorter than this many probes (a set-up batch) is scaled by the
# probes nearest to it instead.
PROBES_PER_SPAN = 5

# rand-rw: uniform-random requests over a 1 GiB working set, sizes and
# offsets on 512 B sectors (so partial-page writes exercise the FTL's
# read-modify-write), 30% writes, replayed on CNL-EXT4/MLC.
RAND_REQUESTS = 20_000
RAND_EXTENT = 1 << 30
RAND_SECTOR = 512
RAND_MIN_SIZE = 4 << 10
RAND_MAX_SIZE = 64 << 10
RAND_WRITE_FRACTION = 0.3
# Seeds 0..RECORDED_SEEDS-1 have recorded outputs. Each rand-rw run also
# replays one of them (the "second seed"), so every run compares at least
# one rand-rw replay with a recorded reference whatever its --seed.
RECORDED_SEEDS = 100

# The simulated outputs compared per replay.
FIELDS = ("makespan_ps", "device_requests", "transactions", "payload_bytes",
          "channel_util", "package_util")


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


# ---- building and running children ----------------------------------------

def build():
    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        raise BenchError("no simulator sources next to perfbench/ (src/CMakeLists.txt)")
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        check_call(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    jobs = str(min(4, os.cpu_count() or 1))
    check_call(["cmake", "--build", BUILD, "-j", jobs, "--target", "perfbench_driver",
                "bench_headline"])


def check_call(cmd):
    if subprocess.call(cmd, stdout=sys.stderr, cwd=ROOT) != 0:
        raise BenchError("command failed: " + " ".join(cmd))


def run_child(cmd, capture=True, core=None):
    """Runs cmd to completion; returns (stdout, (start, end), peak RSS MiB).

    Start and end are on time.monotonic(), which is CLOCK_MONOTONIC like
    the driver's steady clock. The peak RSS is the child's own (wait4),
    not that of earlier children.
    """
    start = time.monotonic()
    pin = None if core is None else lambda: os.sched_setaffinity(0, {core})
    proc = subprocess.Popen(cmd, cwd=ROOT, preexec_fn=pin,
                            stdout=subprocess.PIPE if capture else subprocess.DEVNULL)
    timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    timer.start()
    try:
        out = proc.stdout.read().decode() if capture else ""
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
    end = time.monotonic()
    proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        raise BenchError(f"{os.path.basename(cmd[0])} exited with {proc.returncode}")
    return out, (start, end), usage.ru_maxrss / 1024.0


def driver(args, core=None):
    """Runs the in-process driver, on one core if given; returns (records
    by kind, peak RSS MiB)."""
    out, _, rss = run_child([DRIVER] + args, core=core)
    records = {"setup": [], "replay": [], "layers": []}
    for line in out.splitlines():
        record = json.loads(line)
        records[record["kind"]].append(record)
    return records, rss


class ProbeLoop:
    """The driver's probe loop, running beside the workload for as long as
    it measures; scales host times to the reference host speed."""

    def __enter__(self):
        self.path = os.path.join(WORK, "probes.jsonl")
        self.log = open(self.path, "w")
        self.proc = subprocess.Popen([DRIVER, "probe-loop"], cwd=ROOT, stdout=self.log)
        # Measure only once probes precede the first span.
        while len(self.probes()) < PROBES_PER_SPAN:
            time.sleep(0.05)
        return self

    def __exit__(self, *exc):
        self.proc.kill()
        self.proc.wait()
        self.log.close()

    def probes(self):
        if self.proc.poll() is not None:
            raise BenchError(f"the probe loop exited with {self.proc.returncode}")
        with open(self.path) as f:
            # The loop may be writing its last line right now.
            return [json.loads(line) for line in f if line.endswith("\n")]

    def probe_s(self, start, end):
        """The mean probe over [start, end]: the probes whose middle falls
        inside it, or the PROBES_PER_SPAN nearest if fewer do."""
        middles = [(p["end"] - p["seconds"] / 2, p["seconds"]) for p in self.probes()]
        inside = [s for m, s in middles if start <= m <= end]
        if len(inside) < PROBES_PER_SPAN:
            centre = (start + end) / 2
            nearest = sorted(middles, key=lambda ms: abs(ms[0] - centre))
            inside = [s for _, s in nearest[:PROBES_PER_SPAN]]
        return statistics.mean(inside)

    def scaled(self, seconds, start, end):
        """Host seconds at the reference host speed (see PROBE_REFERENCE_S)."""
        return seconds * PROBE_REFERENCE_S / self.probe_s(start, end)

    def span(self, record):
        """A driver record's own span, scaled."""
        return self.scaled(record["t1"] - record["t0"], record["t0"], record["t1"])


# ---- workload inputs -------------------------------------------------------

MASK64 = (1 << 64) - 1


def splitmix64(state):
    """One splitmix64 step: returns (new state, 64-bit output)."""
    state = (state + 0x9E3779B97F4A7C15) & MASK64
    z = state
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK64
    return state, z ^ (z >> 31)


def write_rand_trace(seed, path):
    """Writes the rand-rw trace for `seed`; returns (requests, writes, bytes)."""
    state = seed & MASK64
    sizes = (RAND_MAX_SIZE - RAND_MIN_SIZE) // RAND_SECTOR + 1
    lines = []
    writes = 0
    total = 0
    for _ in range(RAND_REQUESTS):
        state, r_op = splitmix64(state)
        state, r_size = splitmix64(state)
        state, r_offset = splitmix64(state)
        write = (r_op >> 11) / float(1 << 53) < RAND_WRITE_FRACTION
        size = RAND_MIN_SIZE + (r_size % sizes) * RAND_SECTOR
        offset = (r_offset % ((RAND_EXTENT - size) // RAND_SECTOR + 1)) * RAND_SECTOR
        lines.append(f"{'W' if write else 'R'} {offset} {size} 0\n")
        writes += write
        total += size
    with open(path, "w") as f:
        f.writelines(lines)
    return RAND_REQUESTS, writes, total


# ---- checking outputs ------------------------------------------------------

class Tally:
    """Replays attempted, and a one-line reason for each that failed."""

    def __init__(self):
        self.attempted = 0
        self.failures = []

    def check(self, what, got, want, errors=()):
        """One replay: `got` must equal `want` field by field."""
        self.attempted += 1
        problems = [f"{k}: got {got.get(k)!r}, reference {want.get(k)!r}"
                    for k in sorted(set(got) | set(want)) if got.get(k) != want.get(k)]
        problems += errors
        if problems:
            self.failures.append(f"{what}: " + "; ".join(problems))


def outputs(record):
    return {k: record.get(k) for k in FIELDS}


def replay_key(record):
    return f"{record['config']}/{record['media']}"


def replays(records, tag):
    return [r for r in records["replay"] if r["tag"] == tag]


def load_errors(batches, requests):
    """Trace::load stops quietly at a malformed line, so every replay of a
    trace that loaded short of its generated request count fails."""
    return [f"trace loaded {b['posix_requests']} of {requests} requests"
            for b in batches if b["posix_requests"] != requests][:1]


def print_samples(name, values, estimate=statistics.median):
    """Prints the samples; returns their estimate (by default the median)."""
    listing = ": " + " ".join(f"{v:.4g}" for v in values) if len(values) <= 16 else ""
    print(f"{name}: {len(values)} samples, min/median/max {min(values):.6g}/"
          f"{statistics.median(values):.6g}/{max(values):.6g}, {estimate.__name__} "
          f"{estimate(values):.6g} s{listing}")
    return estimate(values)


def measure_setup(args, probes):
    """Runs the set-up processes; returns (setup_s, their setup records)."""
    cores = sorted(os.sched_getaffinity(0))
    batches = []
    for i in range(SETUP_PROCESSES):
        records, _ = driver(args, core=cores[i % len(cores)])
        batches += records["setup"]
    medians = [probes.scaled(statistics.median(b["seconds"]), b["t0"], b["t1"])
               for b in batches]
    print(f"setup: {len(batches)} processes x {len(batches[0]['seconds'])} sequences")
    return print_samples("setup_s (process medians)", medians, statistics.mean), batches


# ---- workloads ---------------------------------------------------------------

def run_ooc_pcm(seed, seconds, layers, reference, tally, probes):
    del seed  # The OoC pattern is deterministic.
    path = os.path.join(WORK, "ooc-standard.trace")
    driver(["gen-ooc", "--out", path])
    want = reference["ooc-pcm"]
    config = ["--trace", path, "--config", "CNL-EXT4", "--media", "PCM"]
    setup_s, batches = measure_setup(["setup"] + config + ["--reps", str(SETUP_REPS["ooc-pcm"])],
                                     probes)
    records, rss = driver(["replay"] + config + ["--seconds", str(seconds),
                                                 "--layers", str(int(layers))])
    errors = load_errors(batches, want["posix_requests"])
    for record in records["replay"]:
        tally.check(f"{record['tag']} replay {replay_key(record)}", outputs(record),
                    want["outputs"], errors + record["errors"])
    return single_replay_result(records, rss, probes, setup_s)


def run_rand_rw(seed, seconds, layers, reference, tally, probes):
    want = reference["rand-rw"]["seeds"]
    path = os.path.join(WORK, f"rand-rw-{seed}.trace")
    requests, writes, total = write_rand_trace(seed, path)
    check_seed = (seed + 1) % RECORDED_SEEDS
    check_path = os.path.join(WORK, f"rand-rw-{check_seed}.trace")
    write_rand_trace(check_seed, check_path)
    print(f"rand-rw: seed {seed}, {requests} requests, {writes} writes, {total} bytes; "
          f"second seed {check_seed}")
    config = ["--trace", path, "--config", "CNL-EXT4", "--media", "MLC"]
    setup_s, batches = measure_setup(["setup"] + config + ["--reps", str(SETUP_REPS["rand-rw"])],
                                     probes)
    records, rss = driver(["replay"] + config + ["--seconds", str(seconds),
                                                 "--check-trace", check_path,
                                                 "--layers", str(int(layers))])
    errors = load_errors(batches, requests)
    primary = [r for r in records["replay"] if r["tag"] != "check"]
    if str(seed) in want:
        expected = want[str(seed)]
        print(f"rand-rw: seed {seed} checked against its recorded reference")
    else:
        # No recorded outputs for this draw: every replay of it must agree
        # with the first and carry exactly the generated payload.
        expected = dict(outputs(primary[0]), payload_bytes=total)
        print(f"rand-rw: seed {seed} has no recorded reference; its replays are checked "
              f"against each other and the trace's payload, seed {check_seed} against "
              f"its reference")
    for record in primary:
        tally.check(f"{record['tag']} replay seed {seed}", outputs(record), expected,
                    errors + record["errors"])
    (check,) = replays(records, "check")
    tally.check(f"replay seed {check_seed}", outputs(check), want[str(check_seed)])
    print(f"rand-rw: wall_s on second seed {check_seed}: {probes.span(check):.4f} s "
          f"({check['wall_s']:.4f} s unscaled)")
    return single_replay_result(records, rss, probes, setup_s)


def single_replay_result(records, rss, probes, setup_s):
    timed = replays(records, "timed")
    raw_wall_s = print_samples("raw wall_s", [r["wall_s"] for r in timed])
    probe_s = print_samples("probe", [probes.probe_s(r["t0"], r["t1"]) for r in timed])
    wall_s = print_samples("wall_s", [probes.span(r) for r in timed])
    values = traced_values(records, probes)
    if values is not None:
        values["bench.sweep_replay_sum_s"] = wall_s
        values["bench.raw_wall_s"] = raw_wall_s
        values["bench.probe_s"] = probe_s
    return {
        "wall_s": wall_s,
        "device_req_per_s": timed[0]["device_requests"] / wall_s,
        "peak_rss_mib": rss,
        "setup_s": setup_s,
        "layers": values,
    }


def traced_values(records, probes):
    """The driver's layer values, with the traced replays' host time
    scaled like the untraced; None for an untraced run."""
    if not records["layers"]:
        return None
    (layers,) = records["layers"]
    values = layers["values"]
    values["bench.traced_wall_s"] = probes.scaled(values["bench.traced_wall_s"], layers["t0"],
                                                  layers["t1"])
    return values


def run_headline_quick(seed, seconds, layers, reference, tally, probes):
    del seed  # The quick OoC pattern is deterministic.
    want = reference["headline-quick"]
    cells = want["headline"]["results"]
    setup_s, batches = measure_setup(
        ["sweep", "--setup-reps", str(SETUP_REPS["headline-quick"])], probes)
    errors = load_errors(batches, want["posix_requests"])
    raw_walls, spans, rss, sums = [], [], [], []
    while not raw_walls or sum(raw_walls) < seconds:
        i = len(raw_walls)
        headline = os.path.join(WORK, f"headline-{i}.json")
        gbench = os.path.join(WORK, f"headline-{i}-gbench.json")
        _, (start, end), peak = run_child([HEADLINE, "--quick", "--no-flight-recorder",
                                           f"--headline-out={headline}",
                                           f"--benchmark_out={gbench}",
                                           "--benchmark_out_format=json"], capture=False)
        raw_walls.append(end - start)
        spans.append((start, end))
        rss.append(peak)
        with open(headline) as f:
            got = json.load(f)
        for key, cell in cells.items():
            tally.check(f"headline run {i} {key}", got["results"].get(key, {}), cell, errors)
        # The claims are derived from the cells; a cell the reference does
        # not know is a failure too.
        tally.check(f"headline run {i} claims and cell set",
                    {"claims": got["claims"], "cells": sorted(got["results"])},
                    {"claims": want["headline"]["claims"], "cells": sorted(cells)})
        with open(gbench) as f:
            runs = json.load(f)["benchmarks"]
        sums.append(sum(b["real_time"] for b in runs) / 1e3)
    print(f"headline-quick: {len(cells)} replays per child run")
    raw_wall_s = print_samples("raw wall_s", raw_walls)
    # Scaled once the run is over, so that probes on both sides of a span
    # are known.
    probe_s = print_samples("probe", [probes.probe_s(*span) for span in spans])
    wall_s = print_samples("wall_s", [probes.scaled(end - start, start, end)
                                      for start, end in spans])
    values = None
    if layers:
        records, _ = driver(["sweep", "--setup-reps", "0", "--layers", "1"])
        traced = {replay_key(r): r for r in records["replay"]}
        for key, expected in want["replays"].items():
            record = traced.get(key, {"errors": ["not replayed"]})
            tally.check(f"traced replay {key}", outputs(record), expected, record["errors"])
        values = traced_values(records, probes)
        values["bench.sweep_replay_sum_s"] = statistics.median(
            probes.scaled(total, *span) for total, span in zip(sums, spans))
        values["bench.raw_wall_s"] = raw_wall_s
        values["bench.probe_s"] = probe_s
    device_requests = sum(r["device_requests"] for r in want["replays"].values())
    return {
        "wall_s": wall_s,
        "device_req_per_s": device_requests / wall_s,
        "peak_rss_mib": max(rss),
        "setup_s": setup_s,
        "layers": values,
    }


WORKLOADS = {
    "ooc-pcm": run_ooc_pcm,
    "rand-rw": run_rand_rw,
    "headline-quick": run_headline_quick,
}


# ---- metrics -----------------------------------------------------------------

def per_layer(values, wall_s):
    """The per-layer metrics from the driver's layer values. Layers a
    workload does not exercise (ufs on an ext4 config) read 0.

    The tracing overhead compares the traced replays with the same
    replays untraced: for headline-quick that is the sum of the child's
    per-config times, not its wall time with process start-up."""
    replays_n = values["model.replays"]
    device_requests = values["model.device_requests"]
    derived = dict(values)
    derived["ssd.txn_per_request"] = values["ssd.transactions"] / device_requests
    derived["sim.reservations_per_request"] = values["sim.reservations"] / device_requests
    for mean in ("model.channel_util", "model.package_util", "model.channel_contention_frac"):
        derived[mean] = values[mean] / replays_n
    base = values["bench.sweep_replay_sum_s"]
    derived["bench.sweep_parallel_eff"] = base / wall_s
    derived["obs.trace_base_wall_s"] = base
    derived["obs.trace_overhead_frac"] = (values["bench.traced_wall_s"] - base) / base
    return derived


def run(args, reference):
    """Runs one workload; returns (result JSON object, Tally)."""
    with open(SPEC) as f:
        spec = json.load(f)
    tally = Tally()
    os.makedirs(WORK, exist_ok=True)
    with ProbeLoop() as probes:
        result = WORKLOADS[args.workload](args.seed, args.seconds, bool(args.trace), reference,
                                          tally, probes)
    fail_frac = len(tally.failures) / tally.attempted
    result["replay_ok_frac"] = 1.0 - fail_frac
    for failure in tally.failures:
        print("FAILED " + failure)
    print(f"replay_fail_frac: {fail_frac:.6g} frac ({len(tally.failures)} of "
          f"{tally.attempted} replays)")
    if args.trace:
        values = per_layer(result["layers"], result["wall_s"])
        wanted = spec["per_layer"]
    else:
        values = result
        wanted = spec["end_to_end"]
    metrics = {}
    for metric in wanted:
        value = float(values.get(metric["name"], 0.0))
        metrics[metric["name"]] = {"value": value, "unit": metric["unit"]}
        print(f"  {metric['name']:32s} {value:.6g} {metric['unit']}")
    return {
        "correct": not tally.failures,
        "attempted": tally.attempted,
        "failed": len(tally.failures),
        "metrics": metrics,
    }, tally


# ---- self-test and recording ---------------------------------------------------

def self_test(reference):
    """A perturbed reference value must fail the replay it describes."""
    args = argparse.Namespace(workload="rand-rw", seed=0, seconds=0, trace=0)
    clean, _ = run(args, reference)
    perturbed = copy.deepcopy(reference)
    perturbed["rand-rw"]["seeds"]["0"]["makespan_ps"] += 1
    broken, tally = run(args, perturbed)
    ok = (clean["correct"] and clean["failed"] == 0 and not broken["correct"]
          and broken["failed"] == 1 and broken["metrics"]["replay_ok_frac"]["value"] < 1.0
          and "makespan_ps" in tally.failures[0])
    print("self-test " + ("passed" if ok else "FAILED") +
          f": clean run {clean['failed']}/{clean['attempted']} failed, perturbed "
          f"reference {broken['failed']}/{broken['attempted']} failed")
    return ok


def record():
    """Rewrites reference.json from the current build."""
    os.makedirs(WORK, exist_ok=True)
    reference = {"schema": 1}
    path = os.path.join(WORK, "ooc-standard.trace")
    driver(["gen-ooc", "--out", path])
    config = ["--trace", path, "--config", "CNL-EXT4", "--media", "PCM"]
    setup, _ = driver(["setup"] + config + ["--reps", "1"])
    records, _ = driver(["replay"] + config + ["--seconds", "0"])
    reference["ooc-pcm"] = {"posix_requests": setup["setup"][0]["posix_requests"],
                            "outputs": outputs(records["replay"][0])}

    def one_seed(seed):
        trace = os.path.join(WORK, f"rand-rw-{seed}.trace")
        write_rand_trace(seed, trace)
        recs, _ = driver(["replay", "--trace", trace, "--config", "CNL-EXT4", "--media", "MLC",
                          "--seconds", "0"])
        os.remove(trace)
        log(f"recorded rand-rw seed {seed}")
        return str(seed), outputs(recs["replay"][0])

    with ThreadPoolExecutor(max_workers=3) as pool:
        reference["rand-rw"] = {"seeds": dict(pool.map(one_seed, range(RECORDED_SEEDS)))}

    records, _ = driver(["sweep", "--setup-reps", "1", "--layers", "1"])
    headline = os.path.join(WORK, "headline-record.json")
    run_child([HEADLINE, "--quick", "--no-flight-recorder", f"--headline-out={headline}"],
              capture=False)
    with open(headline) as f:
        got = json.load(f)
    reference["headline-quick"] = {
        "posix_requests": records["setup"][0]["posix_requests"],
        "replays": {replay_key(r): outputs(r) for r in records["replay"]},
        "headline": {"claims": got["claims"], "results": got["results"]},
    }
    with open(REFERENCE, "w") as f:
        json.dump(reference, f, indent=1, sort_keys=True)
        f.write("\n")
    log(f"wrote {REFERENCE}")


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--record", action="store_true")
    args = parser.parse_args()
    if not (args.workload or args.self_test or args.record):
        parser.error("one of --workload, --self-test, --record is required")
    try:
        build()
        if args.record:
            record()
            return 0
        with open(REFERENCE) as f:
            reference = json.load(f)
        if args.self_test:
            return 0 if self_test(reference) else 1
        print(f"perfbench: workload {args.workload}, seed {args.seed}, "
              f"{args.seconds} s, trace {args.trace}")
        result, _ = run(args, reference)
    except (BenchError, OSError, ValueError, KeyError) as error:
        log(f"perfbench: {error}")
        return 2
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
