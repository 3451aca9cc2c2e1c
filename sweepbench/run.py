#!/usr/bin/env python3
"""Sweep benchmark: end-to-end figure runs plus a traced per-layer replay.

Run from the repository root:

    python3 sweepbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Each run builds `experiments` and the `sweep-replay` helper (Cargo, release
profile, into $CARGO_TARGET_DIR or `.bench_build/`), builds the workload's
starting state from nothing several times (`setup_s`), then measures for
`--seconds` seconds:

* `--trace 0` times `experiments <fig> --json` child processes one at a time,
  each with the program's default thread count and each followed by a run of
  the helper's calibration work (`sweep-replay calibrate`), and reports the
  end-to-end metrics of BENCHMARK.json scaled to the reference host speed.
* `--trace 1` alternates the traced in-process replay of the same sweep
  (`sweep-replay sweep`) with untraced children, and reports the per-layer
  metrics.

Every child's report is compared with the reference recorded in
`reference.json`, its `result store:` summary with the workload's expected
computed/hit split, and every replayed point with the store record the
program wrote. A table of every metric (median, quartiles, min, max, sample
count) is printed, and the last line of stdout is one JSON result object.
See README.md beside this file for the workloads and the layer map.
"""

import argparse
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent

# name -> (figure, warm store?)
WORKLOADS = {
    "select-scaling-warm": ("fig15", True),
    "hybrid-tradeoff-cold": ("fig14", False),
    "hybrid-tradeoff-warm": ("fig14", True),
}

# Variables that would change what a child run does. `scripts/bench.sh`
# exports LSQCA_NO_STORE=1, which would turn a warm run into a cold one.
SCRUBBED_ENV = (
    "LSQCA_NO_STORE",
    "LSQCA_NO_CACHE",
    "LSQCA_THREADS",
    "LSQCA_BEAT_HISTOGRAM",
    "LSQCA_INSTRUCTION_BUDGET",
    "LSQCA_SHARD",
    "LSQCA_POISON_KEY",
    "LSQCA_CACHE_DIR",
    "LSQCA_STORE_DIR",
)

# `setup_s` is the median of the set-ups made in SETUP_SECONDS, at least
# SETUP_MIN and at most SETUP_MAX of them.
SETUP_MIN = 5
SETUP_SECONDS = 3
SETUP_MAX = 40
# Pause after each step that filled a result store, so the disk has drained
# its fsyncs before the next timed step starts. Without it the cold
# workload's run-to-run spread was twice as wide.
THINK_S = 0.25
MIN_SAMPLES = 5
CHILD_TIMEOUT_S = 120

STORE_LINE = re.compile(r"^result store: (\d+) computed, (\d+) hits, (\d+) quarantined", re.M)


class HarnessError(Exception):
    """The benchmark itself cannot run (missing sources, build failure)."""


def summarize(values):
    """Median, quartiles (as `statistics.quantiles(n=4)`), min, max and count."""
    values = list(values)
    if not values:
        raise ValueError("no samples")
    if len(values) == 1:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {
        "median": statistics.median(values),
        "q1": q1,
        "q3": q3,
        "min": min(values),
        "max": max(values),
        "n": len(values),
    }


def child_env(cache_dir, store_dir):
    """The environment of one hermetic child run."""
    env = {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}
    env["LSQCA_CACHE_DIR"] = str(cache_dir)
    env["LSQCA_STORE_DIR"] = str(store_dir)
    return env


def run_checked(argv, env=None):
    """Runs a helper to completion in its own session; returns its stdout."""
    proc = subprocess.Popen(
        [str(a) for a in argv],
        cwd=ROOT,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(timeout=CHILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, 9)
        proc.communicate()
        raise HarnessError(f"{argv[0]} timed out")
    if proc.returncode != 0:
        sys.stderr.write(err.decode(errors="replace"))
        raise HarnessError(f"{' '.join(map(str, argv[:3]))} exited with {proc.returncode}")
    return out.decode()


def last_json(text):
    return json.loads(text.strip().splitlines()[-1])


def measure(replay_bin, argv, env, out_path, err_path):
    """Runs `argv` under `sweep-replay measure`: wall, CPU and peak RSS."""
    text = run_checked(
        [replay_bin, "measure", "--stdout", out_path, "--stderr", err_path, "--", *argv], env=env
    )
    return last_json(text)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_report(reference, exit_code, out_path, err_path, cold):
    """Problems with one `experiments` run; empty when it is correct."""
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    if sha256(out_path) != reference["report_sha256"]:
        problems.append("report differs from the reference")
    found = STORE_LINE.search(Path(err_path).read_text(errors="replace"))
    if not found:
        problems.append("no `result store:` summary")
    else:
        computed, hits, quarantined = map(int, found.groups())
        points = reference["points"]
        want = (points, 0) if cold else (0, points)
        if (computed, hits) != want or quarantined:
            problems.append(
                f"result store: {computed} computed, {hits} hits, {quarantined} quarantined; "
                f"expected {want[0]} computed, {want[1]} hits"
            )
    return problems


class Run:
    """State of one benchmark run."""

    def __init__(self, workload, seed, target_dir):
        self.fig, self.warm = WORKLOADS[workload]
        reference = json.loads((HERE / "reference.json").read_text())
        self.reference = reference[self.fig]
        self.calibration = reference["calibration"]
        self.experiments = target_dir / "release" / "experiments"
        self.replay = target_dir / "release" / "sweep-replay"
        self.work = ROOT / ".bench_work" / f"{workload}-seed{seed}-pid{os.getpid()}"
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.beats = None
        self.counter = 0

    def fresh(self, stem):
        """A path in the work directory that no earlier call returned."""
        self.counter += 1
        return self.work / f"{stem}-{self.counter}"

    def account(self, points, problems, what):
        self.attempted += points
        if problems:
            self.failed += points
            self.problems.extend(f"{what}: {p}" for p in problems)

    def store_for_run(self, warm_store):
        """The store a timed run uses: the filled one, or a fresh one when cold."""
        return warm_store if self.warm else self.fresh("store")

    def child(self, cache, store, what):
        """One measured `experiments <fig> --json` run, checked."""
        out, err = self.work / "stdout", self.work / "stderr"
        argv = [self.experiments, self.fig, "--json"]
        result = measure(self.replay, argv, child_env(cache, store), out, err)
        problems = check_report(self.reference, result["exit_code"], out, err, not self.warm)
        self.account(self.reference["points"], problems, what)
        if not self.warm:
            time.sleep(THINK_S)
        return result

    def set_up(self):
        """Builds the starting state from nothing; returns (seconds, compile s, cache, store)."""
        cache, store = self.fresh("cache"), self.fresh("store")
        out, err = self.work / "stdout", self.work / "stderr"
        start = time.perf_counter()
        compiled = last_json(
            run_checked([self.replay, "setup", "--fig", self.fig, "--cache", cache])
        )
        if self.warm:
            with open(out, "wb") as o, open(err, "wb") as e:
                code = subprocess.run(
                    [self.experiments, self.fig, "--json"],
                    cwd=ROOT,
                    env=child_env(cache, store),
                    stdout=o,
                    stderr=e,
                    timeout=CHILD_TIMEOUT_S,
                ).returncode
        seconds = time.perf_counter() - start
        if self.warm:
            problems = check_report(self.reference, code, out, err, cold=True)
            self.account(self.reference["points"], problems, "setup fill")
            time.sleep(THINK_S)
        if compiled["compile_calls"] == 0 or compiled["load_calls"] != 0:
            self.account(1, ["setup did not compile into an empty cache"], "setup")
        return seconds, compiled["compile_s"], cache, store

    def set_up_repeatedly(self):
        """Sets up repeatedly, each set-up followed by a calibration.

        Returns the set-up samples, the calibrations and the last state.
        """
        seconds, compile_s, calibrations = [], [], []
        start = time.perf_counter()
        while len(seconds) < SETUP_MIN or (
            len(seconds) < SETUP_MAX and time.perf_counter() - start < SETUP_SECONDS
        ):
            s, c, cache, store = self.set_up()
            seconds.append(s)
            compile_s.append(c)
            calibrations.append(self.calibrate())
        # Settle the set-up's writes before anything is timed.
        os.sync()
        return seconds, compile_s, calibrations, (cache, store)

    def calibrate(self):
        """Times the helper's fixed calibration work once.

        Returns (CPU part wall s, CPU part CPU s, CPU part wall s + publish part wall s).
        """
        figures = last_json(
            run_checked([self.replay, "calibrate", "--publish-into", self.fresh("calibration")])
        )
        return figures["wall_s"], figures["cpu_s"], figures["wall_s"] + figures["publish_s"]

    def scales(self, calibrations):
        """Factors that bring times taken beside `calibrations` to the reference host.

        Returns (wall scale, CPU scale, wall scale of steps that publish).
        """
        reference = self.calibration
        medians = [statistics.median(c[i] for c in calibrations) for i in range(3)]
        return (
            reference["cpu_part_wall_s"] / medians[0],
            reference["cpu_part_cpu_s"] / medians[1],
            (reference["cpu_part_wall_s"] + reference["publish_part_wall_s"]) / medians[2],
        )

    def replay_once(self, cache, store, reference_store):
        """One traced replay; returns its JSON figures."""
        report = self.work / "replay-report"
        figures = last_json(
            run_checked(
                [
                    self.replay, "sweep", "--fig", self.fig, "--cache", cache, "--store", store,
                    "--reference-store", reference_store,
                    "--expect", "warm" if self.warm else "cold", "--report-out", report,
                ],
                env=child_env(cache, store),
            )
        )
        whole_run = []
        if sha256(report) != self.reference["report_sha256"]:
            whole_run.append("replayed report differs from the reference")
        if figures["beats"] != self.reference["beats"]:
            whole_run.append(f"simulated beats {figures['beats']} differ from the reference")
        if figures["points"] != self.reference["points"]:
            whole_run.append(f"replay visited {figures['points']} points")
        points = self.reference["points"]
        problems = figures["problems"] + whole_run
        failed = figures["failed_points"]
        if whole_run or (problems and failed == 0):
            failed = points
        self.attempted += points
        self.failed += failed
        self.problems.extend(f"replay: {p}" for p in problems)
        self.beats = figures["beats"]
        if not self.warm:
            time.sleep(THINK_S)
        return figures


def end_to_end(run, seconds, setup, cache, store):
    """Times children for `seconds`; returns (metrics, host figures).

    Each timed child is followed by one run of the calibration work, and the
    times are reported at the reference host speed (see README.md). CPU time
    is scaled by the calibration's CPU time, and the wall time of children
    that publish nothing by its CPU part's wall time. Set-ups and cold
    children publish records with fsyncs, so their wall time is scaled by
    the wall time of both parts together; set-ups by the calibrations made
    between them.
    """
    setup_s, setup_calibrations = setup
    run.child(cache, run.store_for_run(store), "warm-up run")
    run.calibrate()
    walls, cpus, rss, calibrations = [], [], [], []
    deadline = time.perf_counter() + seconds
    while len(walls) < MIN_SAMPLES or time.perf_counter() < deadline:
        r = run.child(cache, run.store_for_run(store), "timed run")
        walls.append(r["wall_s"])
        cpus.append(r["user_s"] + r["sys_s"])
        rss.append(r["maxrss_kb"] * 1024 / 1e6)
        calibrations.append(run.calibrate())
    wall_scale, cpu_scale, publish_scale = run.scales(calibrations)
    if not run.warm:
        wall_scale = publish_scale
    setup_scale = run.scales(setup_calibrations)[2]
    metrics = {
        "wall_s": ("s", [w * wall_scale for w in walls]),
        "points_per_s": ("1/s", [run.reference["points"] / (w * wall_scale) for w in walls]),
        "cpu_s": ("s", [c * cpu_scale for c in cpus]),
        "peak_rss_mb": ("MB", rss),
        "setup_s": ("s", [s * setup_scale for s in setup_s]),
    }
    host = {
        "host.calibration_wall_s": ("s", [c[0] for c in calibrations]),
        "host.calibration_cpu_s": ("s", [c[1] for c in calibrations]),
        "host.calibration_all_s": ("s", [c[2] for c in calibrations]),
        "host.raw_wall_s": ("s", walls),
        "host.raw_cpu_s": ("s", cpus),
        "host.raw_setup_s": ("s", setup_s),
    }
    return metrics, host


def per_layer(run, seconds, compile_s, cache, store):
    """Alternates traced replays and untraced children for `seconds`."""
    # On the cold workload the replay is checked against the store a cold
    # child of this run wrote; on the warm ones against the filled store.
    reference_store = run.store_for_run(store)
    run.child(cache, reference_store, "reference run")
    replays, child_walls = [], []
    deadline = time.perf_counter() + seconds
    while len(replays) < MIN_SAMPLES or time.perf_counter() < deadline:
        replays.append(run.replay_once(cache, run.store_for_run(store), reference_store))
        child_walls.append(run.child(cache, run.store_for_run(store), "untraced run")["wall_s"])

    def each(f):
        return [f(r) for r in replays]

    def per_instruction(r):
        return r["execute_s"] * 1e9 / r["instructions"] if r["instructions"] else 0.0

    overhead = statistics.median(each(lambda r: r["wall_s"])) / statistics.median(child_walls) - 1
    return {
        "workloads.load_s": ("s", each(lambda r: r["load_s"])),
        "workloads.load_calls": ("count", each(lambda r: r["load_calls"])),
        "workloads.load_mb": ("MB", each(lambda r: r["load_bytes"] / 1e6)),
        "workloads.compile_s": ("s", compile_s),
        "core.result_key_s": ("s", each(lambda r: r["result_key_s"])),
        "core.result_key_calls": ("count", each(lambda r: r["result_key_calls"])),
        "core.hot_set_s": ("s", each(lambda r: r["hot_set_s"])),
        "core.hot_set_calls": ("count", each(lambda r: r["hot_set_calls"])),
        "core.result_from_stats_s": ("s", each(lambda r: r["result_from_stats_s"])),
        "sim.build_s": ("s", each(lambda r: r["build_s"])),
        "sim.builds": ("count", each(lambda r: r["builds"])),
        "sim.execute_s": ("s", each(lambda r: r["execute_s"])),
        "sim.instructions": ("count", each(lambda r: r["instructions"])),
        "sim.ns_per_instruction": ("ns", each(per_instruction)),
        "store.read_s": ("s", each(lambda r: r["read_s"])),
        "store.hits": ("count", each(lambda r: r["hits"])),
        "store.write_s": ("s", each(lambda r: r["write_s"])),
        "store.computed": ("count", each(lambda r: r["computed"])),
        "store.quarantined": ("count", each(lambda r: r["quarantined"])),
        "json.report_s": ("s", each(lambda r: r["report_s"])),
        "bench.busy_s": ("s", each(lambda r: r["busy_s"])),
        "bench.idle_s": ("s", each(lambda r: r["idle_s"])),
        "bench.busy_frac": ("ratio", each(lambda r: r["busy_s"] / r["capacity_s"])),
        "bench.slowest_point_s": ("s", each(lambda r: r["slowest_point_s"])),
        "unattributed_s": ("s", each(lambda r: r["unattributed_s"])),
        "trace.overhead_frac": ("ratio", [overhead]),
        # Filled in by main() once every check of the run is in.
        "error_rate": ("ratio", []),
    }


def print_table(metrics):
    header = f"{'metric':<26} {'unit':<6} {'median':>12} {'q1':>12} {'q3':>12} {'min':>12} {'max':>12} {'n':>4}"
    print(header)
    print("-" * len(header))
    for name, (unit, values) in metrics.items():
        s = summarize(values)
        print(
            f"{name:<26} {unit:<6} {s['median']:>12.6g} {s['q1']:>12.6g} {s['q3']:>12.6g} "
            f"{s['min']:>12.6g} {s['max']:>12.6g} {s['n']:>4}"
        )


def target_dir():
    value = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return (ROOT / value).resolve()


def build(target):
    """Builds `experiments` and `sweep-replay` from the checkout's sources."""
    env = dict(os.environ, CARGO_TARGET_DIR=str(target))
    for argv in (
        ["cargo", "build", "--release", "--offline", "-p", "lsqca-bench", "--bin", "experiments"],
        ["cargo", "build", "--release", "--offline", "--manifest-path",
         str(HERE / "replay" / "Cargo.toml")],
    ):
        if subprocess.run(argv, cwd=ROOT, env=env, stdout=sys.stderr).returncode != 0:
            raise HarnessError(f"`{' '.join(argv)}` failed")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    if not (ROOT / "Cargo.toml").is_file() or not (ROOT / "crates" / "bench").is_dir():
        print(f"error: {ROOT} holds no LSQCA sources to build", file=sys.stderr)
        return 2
    target = target_dir()
    run = Run(args.workload, args.seed, target)
    try:
        build(target)
        run.work.mkdir(parents=True, exist_ok=True)
        setup_s, compile_s, setup_calibrations, (cache, store) = run.set_up_repeatedly()
        host = {}
        if args.trace:
            metrics = per_layer(run, args.seconds, compile_s, cache, store)
            metrics["error_rate"] = ("ratio", [run.failed / run.attempted])
        else:
            metrics, host = end_to_end(
                run, args.seconds, (setup_s, setup_calibrations), cache, store
            )
    except (HarnessError, subprocess.TimeoutExpired, OSError, ValueError, KeyError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 1
    finally:
        # The run's caches and stores stay in `.bench_work/`. Deleting
        # thousands of small files here made the fsyncs of the runs that
        # followed up to twice as slow, for minutes, on the discard-mounted
        # disk the benchmark was tuned on.
        os.sync()

    print(f"workload {args.workload} (seed {args.seed}, {args.seconds:g} s, trace {args.trace})")
    print_table(metrics)
    if host:
        print("unscaled times and the calibration work's time:")
        print_table(host)
    if run.beats is not None:
        print("simulated beats summed over the replayed points: "
              + ", ".join(f"{k} {v}" for k, v in run.beats.items()))
    for problem in run.problems[:20]:
        print(f"FAILED {problem}")
    result = {
        "correct": run.failed == 0 and not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            name: {"value": summarize(values)["median"], "unit": unit}
            for name, (unit, values) in metrics.items()
        },
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
