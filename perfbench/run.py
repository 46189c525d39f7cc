"""fednoise benchmark: time one workload end to end, or trace its layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace {0,1}

Runs from the root of a fednoise checkout and imports the package from its
``src/``. The seed builds the workload's inputs (see workloads.py). Each
timed run is a fresh ``python3 perfbench/child.py`` process that calls
``run_experiment`` once; runs go one at a time until about S seconds have
passed. With ``--trace 0`` the last line reports the end-to-end metrics:
set-up time, memory and accuracy as medians over the runs, round times
with every SGD step at its fastest over the runs, which do the same work
on one seed. Medians of the run and round times are printed above it,
not gated. With ``--trace 1`` plain and traced runs alternate and the
last line reports the per-layer metrics of the traced runs, including
the tracing overhead.

Before timing, the 8 short method configs are hashed at workers=1 and
workers=2 (golden.py). Every run's metrics.csv is checked against the
stored golden hash for the seed, or against the first run when there is
none, and its final accuracy against the workload's floor. A run that
raises or fails a check counts in ``failed`` and in failed_frac.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

import golden
import spans
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

# name, unit, better, bound (share of the parent's median it may worsen by).
# The reference VM's speed moves by 20-60% from second to second and from
# minute to minute, so round times are built from the fastest each SGD step
# ran over the repeated runs of one seed (the same work every time), not
# from medians; see README.md.
E2E = (
    ("setup_s", "s", "lower", 0.25),
    ("round_ms_best", "ms", "lower", 0.25),
    ("peak_rss_mb", "MB", "lower", 0.05),
    ("final_acc", "ratio", "higher", 0.25),
)
# Printed with --trace 0 but not gated: medians that move with the host.
INFO = (
    ("run_s", "s"), ("rounds_per_s", "1/s"), ("round_ms_p50", "ms"),
    ("round_ms_p90", "ms"), ("cpu_s", "s"),
)
BUDGET_S = 165  # the whole invocation stays under 180 s
MIN_RUNS = 5  # each step's fastest time needs a few repeats to choose from
MAX_FAILURES = 3


def spawn(args: list, timeout: float) -> tuple:
    """Run a perfbench script in a fresh interpreter: (start ns, JSON result or error text)."""
    start = time.monotonic_ns()
    proc = subprocess.Popen([sys.executable, *args], cwd=ROOT, text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    try:
        out, err = proc.communicate(timeout=max(timeout, 1.0))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        return start, f"timed out after {timeout:.0f} s"
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return start, f"exit {proc.returncode}: {tail[0]}"
    try:
        return start, json.loads(lines[-1])
    except json.JSONDecodeError:
        return start, f"bad result line {lines[-1][:200]!r}"


def fastest_round_ms(runs: list) -> float:
    """Mean round time in ms with every segment at its least over the runs.

    A segment (spans.segments) is the stretch between two SGD-step
    boundaries. All runs of an invocation use one seed, so segment i does
    the same work in every run and its least time is the one the host
    disturbed least.
    """
    counts = {len(r["segments"]) for _, r in runs}
    if len(counts) != 1:
        raise ValueError(f"runs of one seed made different numbers of SGD steps: "
                         f"{sorted(counts)}")
    total = sum(min(r["segments"][i] for _, r in runs) for i in range(counts.pop()))
    return total / len(runs[0][1]["round_ns"]) / 1e6


def end_to_end(runs: list) -> tuple:
    """Gated e2e metrics and ungated medians over (start ns, result) runs; the round count."""
    rounds = [ns / 1e6 for _, r in runs for ns in r["round_ns"]]
    values = {
        "setup_s": statistics.median((r["first_round_ns"] - t) / 1e9 for t, r in runs),
        "round_ms_best": fastest_round_ms(runs),
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for _, r in runs),
        "final_acc": statistics.median(r["final_acc"] for _, r in runs),
        "run_s": statistics.median((r["done_ns"] - t) / 1e9 for t, r in runs),
        "rounds_per_s": statistics.median(
            len(r["round_ns"]) * 1e9 / (r["fed_end_ns"] - r["first_round_ns"]) for _, r in runs),
        "round_ms_p50": spans.quantile(rounds, 0.5),
        "round_ms_p90": spans.quantile(rounds, 0.9),
        "cpu_s": statistics.median(r["cpu_s"] for _, r in runs),
    }
    gated = {name: values[name] for name, *_ in E2E}
    info = {name: values[name] for name, _ in INFO}
    return gated, info, len(rounds)


def per_layer(runs: list, traced: list) -> dict:
    """Per-layer metrics of the traced runs; overhead against the plain runs.

    The overhead compares the fastest run of each kind, as medians of
    whole runs move with the host by more than the tracing costs.
    """
    metrics = spans.median_metrics([r["layers"] for _, r in traced])
    plain_ns = min(r["experiment_ns"] for _, r in runs)
    traced_ns = min(r["experiment_ns"] for _, r in traced)
    metrics["trace.overhead_frac"] = traced_ns / plain_ns - 1.0
    return metrics


class Checker:
    """Checks each run's outputs: the metrics.csv hash and the final accuracy."""

    def __init__(self, golden: dict, workload: str, seed: int, floor: float, tiny: bool):
        self.golden, self.floor, self.tiny = golden, floor, tiny
        self.known = golden["workloads"][workload].get(str(seed))
        self.expected, self.source = None, None

    def problem(self, result: dict) -> "str | None":
        if self.expected is None:
            comparable = result["env"]["blas_core"] == self.golden["blas_core"]
            if self.known and comparable and not self.tiny:
                self.expected, self.source = self.known, "golden.json"
            else:
                self.expected, self.source = result["sha256"], "the first run"
        if result["sha256"] != self.expected:
            return (f"metrics.csv {result['sha256'][:12]} differs from "
                    f"{self.source} {self.expected[:12]}")
        if result["final_acc"] < self.floor:
            return f"final_acc {result['final_acc']} below the floor {self.floor}"
        return None


def measure(args, config_path: str, checker: Checker, begin: float) -> tuple:
    """Spawn runs until about args.seconds have passed.

    Returns (plain runs, traced runs, failures, runs spawned). A run that
    the host slowed needs no special handling: each step's fastest time
    comes from another run, and set-up time is a median.
    """
    runs, traced, failures, durations = [], [], [], []
    start_measuring = time.monotonic()
    while True:
        mode = "trace" if args.trace and len(traced) < len(runs) else "plain"
        left = BUDGET_S - (time.monotonic() - begin)
        shutil.rmtree(os.path.join(os.path.dirname(config_path), "out"), ignore_errors=True)
        start, result = spawn([os.path.join(HERE, "child.py"), SRC, config_path, mode], left)
        durations.append((time.monotonic_ns() - start) / 1e9)
        problem = result if isinstance(result, str) else checker.problem(result)
        if problem:
            failures.append(f"{mode} run {len(durations)}: {problem}")
        else:
            (traced if mode == "trace" else runs).append((start, result))
        typical = statistics.median(durations)
        elapsed = time.monotonic() - start_measuring + typical
        if len(failures) >= MAX_FAILURES or time.monotonic() - begin + typical > BUDGET_S:
            break
        if enough(args, runs, traced) and elapsed > args.seconds:
            break
    return runs, traced, failures, len(durations)


def enough(args, runs: list, traced: list) -> bool:
    return len(runs) >= MIN_RUNS and (not args.trace or len(traced) == len(runs))


def cpu_ticks() -> list:
    """Aggregate CPU tick counters from /proc/stat (user ... steal), or [] if unreadable."""
    try:
        with open("/proc/stat") as fh:
            return [int(v) for v in fh.readline().split()[1:9]]
    except (OSError, ValueError):
        return []


def steal_share(before: list, after: list) -> "float | None":
    """Share of CPU time the hypervisor took from this machine between two readings."""
    if len(before) < 8 or len(after) < 8 or sum(after) == sum(before):
        return None
    return (after[7] - before[7]) / (sum(after) - sum(before))


def environment(load_at_start: tuple, child_env: "dict | None") -> dict:
    env = {"cores": len(os.sched_getaffinity(0)),
           "loadavg_at_start": [round(v, 2) for v in load_at_start]}
    env.update(child_env or {})
    return env


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true", help="smoke-test size, no golden hash")
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "fednoise", "__init__.py")):
        print(f"no fednoise package under {SRC}: run from a fednoise checkout",
              file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    begin = time.monotonic()
    load_at_start, ticks_at_start = os.getloadavg(), cpu_ticks()
    stored = golden.load()
    workdir = os.path.join(HERE, "work", f"{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        cfg = workloads.config(args.workload, args.seed, workdir, tiny=args.tiny)
        config_path = workloads.write_config(cfg, os.path.join(workdir, "config.json"))
        _, report = spawn([os.path.join(HERE, "golden.py"), "methods"], BUDGET_S / 4)
        if isinstance(report, str):
            checks = [("method hashes", False, report)] * (2 * 8)
        else:
            checks = golden.check_methods(report, stored)
        floor = 0.0 if args.tiny else workloads.ACC_FLOOR[args.workload]
        checker = Checker(stored, args.workload, args.seed, floor, args.tiny)
        runs, traced, failures, spawned = measure(args, config_path, checker, begin)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    steal = steal_share(ticks_at_start, cpu_ticks())
    failures += [f"{label}: {detail}" for label, ok, detail in checks if not ok]
    attempted = spawned + len(checks)
    print(f"fednoise benchmark: workload {args.workload}, seed {args.seed}, "
          f"{args.seconds:g} s, trace {args.trace}")
    print(f"workload: {workloads.WORKLOADS[args.workload]}")
    first_env = (runs or traced or [(None, {"env": None})])[0][1]["env"]
    env = environment(load_at_start, first_env)
    env["steal_share"] = None if steal is None else round(steal, 4)
    print("env:", json.dumps(env, sort_keys=True))
    print(f"checks: {sum(ok for _, ok, _ in checks)}/{len(checks)} method hashes "
          f"(workers 1 and 2) match; metrics.csv compared with {checker.source}")
    for failure in failures:
        print("FAILED", failure)

    metrics, units = {}, {}
    if runs and (traced or not args.trace):
        if args.trace:
            try:
                metrics = per_layer(runs, traced)
            except ValueError as exc:  # counts that do not repeat
                failures.append(str(exc))
                print("FAILED", exc)
            units = {name: unit for name, unit, _ in spans.PER_LAYER}
            print(f"traced runs: {len(traced)}, plain runs: {len(runs)}; "
                  f"times are medians per run")
        else:
            try:
                metrics, info, pooled = end_to_end(runs)
            except ValueError as exc:  # runs that did not repeat step for step
                failures.append(str(exc))
                print("FAILED", exc)
            else:
                print(f"not gated: medians over {len(runs)} runs, round times pooled "
                      f"over {pooled} rounds")
                for name, unit in INFO:
                    print(f"  {name:44s} {info[name]:14.6f} {unit}")
                print(f"gated: round times with each SGD step at its fastest of {len(runs)} runs")
            units = {name: unit for name, unit, *_ in E2E}
    for name, value in metrics.items():
        shown = f"{value:14d}" if isinstance(value, int) else f"{value:14.6f}"
        print(f"  {name:44s} {shown} {units[name]}")
    print(f"  {'failed_frac':44s} {len(failures) / attempted:14.6f} ratio "
          f"({len(failures)} of {attempted} runs)")

    print(json.dumps({
        "correct": not failures and bool(metrics),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0 if metrics else 1


if __name__ == "__main__":
    sys.exit(main())
