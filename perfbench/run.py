#!/usr/bin/env python3
"""Campaign benchmark for the gpufi fault-injection tool.

Builds `gpufi` from the checkout it runs in (CMake Release build in
.bench_build/), then repeats one campaign lifecycle per round for
--seconds. Each round draws a fresh campaign seed from --seed and runs
the workload's campaign through the real CLI five times:

  campaign  one worker with a run log: the reference log
  parallel  twice the runs on PARALLEL_THREADS workers: its log must
            begin with the reference
  shards    shards 0/2 and 1/2, one after the other, each journaled
  resume    shard 1's journal cut to a quarter of its runs plus a torn
            line (a crash mid-append), finished with --resume
  merge     `gpufi merge` of shard 0 and the resumed shard 1: the
            merged log must equal the reference

End-to-end metrics are medians over the rounds, in host time. With
--trace 1 the benchmark prints per-layer metrics instead: the program's
own --metrics-out counters and the spans this script records around
each gpufi process. The spans are also written as Chrome trace events
to .bench_build/work/<workload>/trace.json.

Usage:
  python3 perfbench/run.py --workload rf_transient --seed 1 \\
      --seconds 35 --trace 0

The last line of stdout is one JSON object:
  {"correct": bool, "attempted": runs, "failed": runs, "metrics": {...}}
"""

import argparse
import json
import os
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

BUILD_DIR = Path(".bench_build")
CMAKE_DIR = BUILD_DIR / "cmake"
GPUFI = CMAKE_DIR / "src" / "tools" / "gpufi"
CARD = "rtx2060"
PARALLEL_THREADS = 4
# Rounds measured even when --seconds runs out first. The per-layer
# counts are summed over exactly these rounds, so for one seed they
# repeat exactly from run to run.
MIN_ROUNDS = 5
INVOCATION_TIMEOUT_S = 60.0
LOG_HEADER = "# gpuFI-4 run log\n"
RECORD_RE = re.compile(r"run=(\d+) .*\boutcome=(\w+)")
OUTCOMES = ("Masked", "Performance", "SDC", "Crash", "Timeout",
            "ToolError", "ToolHang")
RUN_PHASES = ("run_fast", "run_slow")
ALL_PHASES = ("golden", "pioneer") + RUN_PHASES


@dataclass(frozen=True)
class Workload:
    benchmark: str
    kernel: str
    target: str
    model: str
    runs: int


# Each workload stresses a layer another one bypasses: the snapshot
# ladder and early convergence serve rf_transient and l1d_transient
# but not warp_stuck_at; cache-line strikes, over half of them into
# invalid lines, happen only in l1d_transient.
WORKLOADS = {
    # The paper's campaign: single-bit transient flips in the register
    # file of k-means' assignment kernel.
    "rf_transient": Workload("KM", "km_assign", "register_file",
                             "transient", 300),
    # A stuck-at-1 bit in hotspot's warp control words. The fault holds
    # from cycle 0, so every run re-simulates the whole application
    # without snapshots or convergence.
    "warp_stuck_at": Workload("HS", "hotspot", "warp_ctrl",
                              "stuck_at_1", 100),
    # Transient flips in the L1 data-cache lines of backprop's forward
    # layer, whose loads go through L1 and whose partial sums go
    # through shared memory.
    "l1d_transient": Workload("BP", "bp_layerforward", "l1_data",
                              "transient", 400),
}


class BenchError(Exception):
    """The benchmark cannot produce a result at all."""


@dataclass
class Invocation:
    """One finished gpufi process."""
    started: float
    wall: float
    rc: int
    maxrss_kb: int
    stderr: str
    counters: dict

    def phases_s(self, phases):
        return sum(self.counters[f"campaign.phase_us.{p}"]
                   for p in phases) / 1e6


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str
    args: dict = field(default_factory=dict)

    @property
    def dur(self):
        return self.end - self.start


def log(msg):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def build():
    """Configure once, then bring the gpufi target up to date."""
    if not Path("CMakeLists.txt").is_file() or not Path("src").is_dir():
        raise BenchError("no CMake project here; run from the root of a "
                         "gpuFI-4 source checkout")
    BUILD_DIR.mkdir(exist_ok=True)
    steps = []
    if not (CMAKE_DIR / "CMakeCache.txt").is_file():
        steps.append(["cmake", "-S", ".", "-B", str(CMAKE_DIR),
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", str(CMAKE_DIR), "--target", "gpufi",
                  "-j", str(min(4, os.cpu_count() or 1))])
    with open(BUILD_DIR / "build.log", "ab") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out,
                              stderr=subprocess.STDOUT).returncode != 0:
                raise BenchError(f"'{' '.join(cmd)}' failed; see "
                                 f"{BUILD_DIR / 'build.log'}")
    if not GPUFI.is_file():
        raise BenchError(f"the build produced no {GPUFI}")


def run_gpufi(cwd, args, report=None):
    """Run gpufi in @p cwd, killing it after the timeout (or when this
    script is interrupted), and read the counters of its --metrics-out
    @p report."""
    started = time.perf_counter()
    proc = subprocess.Popen([str(GPUFI.resolve()), *args], cwd=cwd,
                            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    killer = threading.Timer(INVOCATION_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        err = proc.stderr.read().decode(errors="replace")
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        killer.cancel()
        proc.stderr.close()
    wall = time.perf_counter() - started
    proc.returncode = os.waitstatus_to_exitcode(status)
    counters = {}
    if report and report.is_file():
        counters = json.loads(report.read_text()).get("counters", {})
    return Invocation(started, wall, proc.returncode, usage.ru_maxrss, err,
                      counters)


def check_log(text, runs):
    """Outcome tally of a run log, or None if it is malformed."""
    if not text.startswith(LOG_HEADER):
        return None
    lines = text[len(LOG_HEADER):].splitlines()
    if len(lines) != runs:
        return None
    tally = dict.fromkeys(OUTCOMES, 0)
    for idx, line in enumerate(lines):
        m = RECORD_RE.match(line)
        if not m or int(m.group(1)) != idx or m.group(2) not in tally:
            return None
        tally[m.group(2)] += 1
    return tally


def cut_journal(src, dst):
    """Copy a quarter of the run records of journal @p src to @p dst and
    end it mid-record, as a crash during an append leaves a journal.
    Returns the runs left to do."""
    lines = src.read_text().splitlines(keepends=True)
    meta = [l for l in lines if not l.startswith("c=")]
    records = [l for l in lines if l.startswith("c=")]
    keep = len(records) // 4
    torn = records[keep][:len(records[keep]) // 2]
    dst.write_text("".join(meta + records[:keep]) + torn)
    return len(records) - keep


class Round:
    """One campaign lifecycle: campaign, parallel, shards, resume, merge.

    A round writes into a directory of its own and replaces no file.
    Freeing the blocks of a file that was fsync'd can stall for tens of
    milliseconds (ext4 mounted with `discard` does), so a replaced
    output would land in the timings; the directory is deleted only
    between rounds."""

    def __init__(self, wl, work, index, seed, traced):
        self.wl = wl
        self.traced = traced
        self.dir = work / (f"round{index}" if index >= 0 else "warmup")
        self.index = index
        self.seed = seed
        self.spans = []
        self.attempted = 0
        self.failed = 0
        self.errors = []

    def fail(self, what):
        self.errors.append(f"round {self.index} (seed {self.seed}): {what}")

    def campaign_args(self, extra, runs=None):
        wl = self.wl
        return ["--card", CARD, "--benchmark", wl.benchmark,
                "--kernel", wl.kernel, "--target", wl.target,
                "--fault-model", wl.model, "--runs", str(runs or wl.runs),
                "--seed", str(self.seed), *extra]

    def run(self, name, args, planned=0, report=None):
        """Run one gpufi process, span it and count the runs it was
        asked for; a process that fails fails all of them."""
        inv = run_gpufi(self.dir, args, report and self.dir / report)
        self.spans.append(Span(name, inv.started, inv.started + inv.wall,
                               "round", {"counters": inv.counters,
                                         "maxrss_kb": inv.maxrss_kb}))
        self.attempted += planned
        if inv.rc != 0:
            self.failed += planned
            tail = inv.stderr.strip().splitlines()[-1:]
            self.fail(f"{name} exited with {inv.rc}: {' '.join(tail)}")
        return inv

    def read_log(self, what, name, runs):
        """Check a run log's shape and count its tool failures."""
        path = self.dir / name
        data = path.read_bytes() if path.is_file() else b""
        tally = check_log(data.decode(errors="replace"), runs)
        if tally is None:
            self.fail(f"{what} wrote a malformed run log")
        else:
            self.failed += tally["ToolError"] + tally["ToolHang"]
        return data

    def execute(self):
        wl, work = self.wl, self.dir
        work.mkdir()
        t_round = time.perf_counter()

        self.campaign_inv = self.run(
            "campaign", self.campaign_args(
                ["--threads", "1", "--log", "ref.log",
                 "--metrics-out", "campaign.json"]),
            planned=wl.runs, report="campaign.json")
        reference = self.read_log("campaign", "ref.log", wl.runs)

        # Twice the runs, so the parallel part outweighs the serial
        # setup. Plans depend only on the seed and the run index, so the
        # first records must be the reference's.
        self.parallel_inv = self.run(
            "parallel", self.campaign_args(
                ["--threads", str(PARALLEL_THREADS), "--log", "par.log"],
                runs=2 * wl.runs),
            planned=2 * wl.runs)
        parallel = self.read_log("parallel", "par.log", 2 * wl.runs)
        if not reference or not parallel.startswith(reference):
            self.fail("the parallel log does not begin with the reference")

        # One shard at a time, each alone on the host as if on hosts of
        # their own; running them at once would also interleave the
        # journals' blocks, which makes deleting them slow.
        self.shard_invs = [
            self.run(f"shard{i}", self.campaign_args(
                ["--threads", "1", "--shard", f"{i}/2",
                 "--journal", f"s{i}.jnl"]),
                planned=(wl.runs + 1 - i) // 2)
            for i in range(2)]
        if self.errors:
            return

        pending = cut_journal(work / "s1.jnl", work / "cut.jnl")
        report = ["--metrics-out", "resume.json"] if self.traced else []
        self.resume_inv = self.run(
            "resume", self.campaign_args(
                ["--threads", "1", "--shard", "1/2", "--journal", "cut.jnl",
                 "--resume", *report]),
            planned=pending, report=report and "resume.json")

        self.merge_inv = self.run(
            "merge", ["merge", "--out", "merged.log", "s0.jnl", "cut.jnl"])
        merged = work / "merged.log"
        if not merged.is_file() or merged.read_bytes() != reference:
            self.fail("the merged shard log differs from the reference")
        # The campaign split over two hosts: the slower shard, then the
        # merge.
        self.sharded_s = (max(inv.wall for inv in self.shard_invs) +
                          self.merge_inv.wall)

        self.spans.append(Span("round", t_round, time.perf_counter(), ""))

    def self_ms(self):
        """The round span's self time: this script's own work between
        gpufi processes (log checks, journal cutting)."""
        top = next(s for s in self.spans if s.name == "round")
        children = sum(s.dur for s in self.spans if s.parent == "round")
        return (top.dur - children) * 1e3


def end_to_end(rounds, wl):
    """Medians over the rounds of what a campaign user waits for."""
    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    def run_s(r):
        return r.campaign_inv.phases_s(RUN_PHASES)

    m = {
        # One worker, process start to exit.
        "campaign_s": (med(lambda r: r.campaign_inv.wall), "s"),
        # Everything but the injected runs: start-up, golden run,
        # snapshot-ladder pioneer, plan drawing and writing the log.
        "setup_s": (med(lambda r: r.campaign_inv.wall - run_s(r)), "s"),
        # Host time per injected run.
        "run_ms": (med(lambda r: run_s(r) * 1e3 / wl.runs), "ms"),
        # PARALLEL_THREADS workers, twice the runs.
        "parallel_s": (med(lambda r: r.parallel_inv.wall), "s"),
        "sharded_s": (med(lambda r: r.sharded_s), "s"),
        # Journal recovery plus the runs the cut journal lacks.
        "resume_s": (med(lambda r: r.resume_inv.wall), "s"),
        "peak_rss_mb": (med(lambda r: r.campaign_inv.maxrss_kb / 1024),
                        "MB"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def per_layer(rounds, wl):
    """The layer ledger. Counts are summed over the first MIN_ROUNDS
    rounds' single-worker campaigns (journal counts over their resumed
    shards); times are medians over all rounds."""
    first = rounds[:MIN_ROUNDS]
    runs = wl.runs * len(first)

    def total(key, inv=lambda r: r.campaign_inv):
        return sum(inv(r).counters.get(key, 0) for r in first)

    def ratio(num, den):
        return num / den if den else 0.0

    def med(fn):
        return statistics.median(fn(r) for r in rounds)

    def other_ms(inv):
        return (inv.wall - inv.phases_s(ALL_PHASES)) * 1e3

    def miss_ratio(level):
        c = f"cache.{level}."
        return ratio(total(c + "read_misses") + total(c + "write_misses"),
                     total(c + "reads") + total(c + "writes"))

    def resumed(r):
        return r.resume_inv

    cycles = total("sim.cycles")
    sim_us = sum(r.campaign_inv.phases_s(ALL_PHASES) for r in first) * 1e6
    issue = total("sched.issue_cycles")
    failures = sum(total(f"campaign.outcome.{o}")
                   for o in ("sdc", "crash", "timeout"))
    campaign_s = med(lambda r: r.campaign_inv.wall)
    m = {
        "campaign.golden_ms": (
            total("campaign.phase_us.golden") / len(first) / 1e3, "ms"),
        "campaign.pioneer_ms": (
            total("campaign.phase_us.pioneer") / len(first) / 1e3, "ms"),
        "campaign.run_fast_ms": (
            total("campaign.phase_us.run_fast") / runs / 1e3, "ms/run"),
        "campaign.run_slow_ms": (
            total("campaign.phase_us.run_slow") / runs / 1e3, "ms/run"),
        "campaign.other_ms": (med(lambda r: other_ms(r.campaign_inv)),
                              "ms"),
        "campaign.early_term_share": (
            ratio(total("campaign.early_terminations"), runs), "ratio"),
        "campaign.failure_ratio": (ratio(failures, runs), "ratio"),
        "snapshot.ff_run_share": (ratio(total("snapshot.ff_runs"), runs),
                                  "ratio"),
        "snapshot.ff_cycles_saved": (
            ratio(total("snapshot.ff_cycles_saved"), runs), "cycles/run"),
        "sim.cycles": (ratio(cycles, runs), "cycles/run"),
        "sim.warp_instructions": (
            ratio(total("sim.warp_instructions"), runs), "winst/run"),
        "sim.mcycles_per_s": (ratio(cycles, sim_us), "Mcycles/s"),
        "sim.idle_skip_share": (
            ratio(total("sim.idle_cycles_skipped"), cycles), "ratio"),
        "sim.convergence_checks": (
            ratio(total("sim.convergence_checks"), runs), "count/run"),
        "sched.issue_share": (
            ratio(issue, issue + total("sched.stall_cycles")), "ratio"),
        "cache.l1d_miss_ratio": (miss_ratio("l1d"), "ratio"),
        "cache.l2_miss_ratio": (miss_ratio("l2"), "ratio"),
        "journal.append_us": (
            ratio(total("journal.append_us", resumed),
                  total("journal.appends", resumed)), "us"),
        "journal.resume_other_ms": (med(lambda r: other_ms(r.resume_inv)),
                                    "ms"),
        "shard.merge_ms": (med(lambda r: r.merge_inv.wall * 1e3), "ms"),
        "shard.speedup": (ratio(campaign_s, med(lambda r: r.sharded_s)),
                          "x"),
        # Runs per second with PARALLEL_THREADS workers over one worker.
        "parallel.speedup": (
            ratio(2 * campaign_s, med(lambda r: r.parallel_inv.wall)), "x"),
        "bench.self_ms": (med(Round.self_ms), "ms"),
    }
    return {k: {"value": v, "unit": u} for k, (v, u) in m.items()}


def write_trace(rounds, path):
    """Chrome trace-event JSON, which Perfetto and chrome://tracing
    open."""
    origin = min(s.start for r in rounds for s in r.spans)
    events = [{"name": s.name, "ph": "X", "pid": 1, "tid": 1,
               "ts": (s.start - origin) * 1e6, "dur": s.dur * 1e6,
               "args": {"round": r.index, "parent": s.parent, **s.args}}
              for r in rounds for s in r.spans]
    path.write_text(json.dumps({"traceEvents": events}))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    wl = WORKLOADS[args.workload]
    # A SIGTERM unwinds through run_gpufi, which kills and reaps gpufi.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    try:
        build()
    except BenchError as e:
        log(str(e))
        return 2

    work = BUILD_DIR / "work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    rng = random.Random(f"{args.workload}/{args.seed}")

    def next_round(index):
        r = Round(wl, work, index, rng.randrange(1, 2**31), args.trace)
        r.execute()
        if not r.errors:
            shutil.rmtree(r.dir)
        return r

    # An untimed warm-up round first: page cache, binary, loader.
    done = [next_round(-1)]
    t_start = time.perf_counter()
    while not done[-1].errors and (
            len(done) <= MIN_ROUNDS or
            time.perf_counter() - t_start < args.seconds):
        done.append(next_round(len(done) - 1))
    rounds = done[1:]
    errors = done[-1].errors

    for e in errors:
        log(e)
    metrics = {}
    if not errors:
        if args.trace:
            metrics = per_layer(rounds, wl)
            write_trace(rounds, work / "trace.json")
        else:
            metrics = end_to_end(rounds, wl)
    log(f"{args.workload} seed {args.seed}: {len(rounds)} rounds of "
        f"{wl.runs} runs")
    print(json.dumps({"correct": not errors,
                      "attempted": sum(r.attempted for r in done),
                      "failed": sum(r.failed for r in done),
                      "metrics": metrics}))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
