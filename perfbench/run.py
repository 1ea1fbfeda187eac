"""jring benchmark: run one workload (or all) and print its metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all          # every workload, by name

Each repetition is a fresh, single-threaded ``worker.py`` process started
with the same generated inputs, so jring's memo and cache tables start cold
every time, as they do for a command-line user.  Repetitions run one after
another (a closed loop with one caller) until ``--seconds`` have passed and
at least three have run.  Every time is scaled to a reference machine
speed measured alongside it (see ``worker.calibrate``).  Each task's latency
is its median over the repetitions; ``wall_s`` is the sum of those medians,
``task_p50_ms`` and ``task_p90_ms`` are percentiles over them, and
``setup_s`` and ``peak_rss_mb`` are medians over the repetitions.

With ``--trace 1`` every second repetition runs traced and the result holds
the per-layer metrics (medians over the traced repetitions) and the tracing
overhead instead of the end-to-end metrics.  The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
MIN_REPS = 3
# after two repetitions, none starts that could end later than this
BUDGET_S = 150.0
REP_TIMEOUT_S = 170.0
# worker.calibrate's median time on the machine the benchmark was tuned on
# (2 vCPUs, Intel Xeon at 2.1 GHz), so scaled times read close to raw times
# there
REFERENCE_CALIBRATION_S = 0.0027
# calibration samples within this distance of a task gauge its speed
SPEED_WINDOW_S = 0.25

UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "task_p50_ms": "ms",
    "task_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


class BenchError(Exception):
    pass


def run_worker(spec: dict, traced: bool) -> dict:
    env = {k: v for k, v in os.environ.items() if k not in ("JRING_CACHE", "PYTHONPATH")}
    env["PYTHONHASHSEED"] = "0"
    cmd = [sys.executable, str(HERE / "worker.py")] + (["--trace"] if traced else [])
    started = time.clock_gettime(time.CLOCK_MONOTONIC)
    try:
        proc = subprocess.run(
            cmd,
            input=json.dumps(spec),
            capture_output=True,
            text=True,
            env=env,
            cwd=ROOT,
            timeout=REP_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise BenchError(f"a {spec['workload']} repetition ran over {REP_TIMEOUT_S} s")
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    rep["traced"] = traced
    ends = [end for end, _ in rep["calibration"]]
    seconds = [sec for _, sec in rep["calibration"]]

    def scale(raw: float, lo: float, hi: float) -> float:
        """raw times the reference over the calibration time around [lo, hi]."""
        first = bisect.bisect_left(ends, lo - SPEED_WINDOW_S)
        last = max(bisect.bisect_right(ends, hi + SPEED_WINDOW_S), first + 1)
        return raw * REFERENCE_CALIBRATION_S / statistics.fmean(seconds[first:last])

    rep["scaled_task_s"] = [scale(raw, at, at + raw) for at, raw in zip(rep["task_at"], rep["task_s"])]
    raw_setup = rep["first_task_at"] - started - rep["setup_calibration_s"]
    rep["raw_setup_s"] = raw_setup
    rep["setup_s"] = scale(raw_setup, started, rep["first_task_at"])
    return rep


def git_sha() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    return proc.stdout.strip() or None


def percentile(values: list[float], pct: int) -> float:
    """The pct-th percentile, by statistics.quantiles' default method."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100)[pct - 1]


def task_medians(reps: list[dict], key: str = "scaled_task_s") -> list[float]:
    """Each task's latency, as the median over the repetitions.

    Taking one value per task before any quantile keeps p50 and p90 off the
    extreme samples at the edge between two tasks' pooled samples.
    """
    return [statistics.median(times) for times in zip(*(r[key] for r in reps))]


def run_workload(name: str, seed: int, seconds: float, trace: bool, size: str) -> dict:
    spec = workloads.make(name, seed, size)
    reps: list[dict] = []
    start = time.perf_counter()
    longest = 0.0
    while True:
        rep_start = time.perf_counter()
        reps.append(run_worker(spec, traced=trace and len(reps) % 2 == 1))
        longest = max(longest, time.perf_counter() - rep_start)
        elapsed = time.perf_counter() - start
        enough = len(reps) >= MIN_REPS and elapsed >= seconds
        if enough or (len(reps) >= 2 and elapsed + longest > BUDGET_S):
            break

    plain = [r for r in reps if not r["traced"]]
    latencies = task_medians(plain)
    wall = sum(latencies)
    end_to_end = {
        "wall_s": wall,
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "task_p50_ms": percentile(latencies, 50) * 1e3,
        "task_p90_ms": percentile(latencies, 90) * 1e3,
        "peak_rss_mb": statistics.median(r["rss_mb"] for r in plain),
    }
    traced = [r for r in reps if r["traced"]]
    per_layer = {}
    if traced:
        for rep in traced:
            # self times scale by the repetition's overall speed factor
            factor = sum(rep["scaled_task_s"]) / sum(rep["task_s"])
            for metric in rep["layers"]:
                if metric.endswith("_s"):
                    rep["layers"][metric] *= factor
        for metric in traced[0]["layers"]:
            per_layer[metric] = statistics.median(r["layers"][metric] for r in traced)
        per_layer["trace.overhead_s"] = sum(task_medians(traced)) - wall
    return {
        "workload": name,
        "seed": seed,
        "reps": len(reps),
        "traced_reps": len(traced),
        "latency_samples": len(latencies),
        "inputs": workloads.properties(spec),
        "attempted": sum(r["attempted"] for r in reps),
        "failed": sum(r["failed"] for r in reps),
        "failures": [f for r in reps for f in r["failures"]][:10],
        "jring_file": reps[0]["jring_file"],
        "raw_wall_s": sum(task_medians(plain, "task_s")),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in plain),
        "rep_wall_s": [sum(r["scaled_task_s"]) for r in reps],
        "rep_raw_wall_s": [r["wall_s"] for r in reps],
        "rep_setup_s": [r["setup_s"] for r in plain],
        "rep_task_s": [r["task_s"] for r in plain],
        "rep_scaled_task_s": [r["scaled_task_s"] for r in plain],
        "end_to_end": end_to_end,
        "per_layer": per_layer,
    }


def layer_unit(metric: str) -> str:
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_share", "_ratio")):
        return "ratio"
    if metric.endswith(".bytes"):
        return "bytes"
    return "count"


def report(result: dict, trace: bool, prefix: str = "") -> dict:
    """Print a result by name and unit; return its metrics for the JSON line."""
    name = result["workload"]
    print(
        f"== {name} (seed {result['seed']}): {result['reps']} repetitions, "
        f"{result['traced_reps']} traced, {result['latency_samples']} task latencies "
        "(each a median over the untraced repetitions)"
    )
    print("inputs " + json.dumps(result["inputs"], sort_keys=True))
    print("repetitions wall_s " + " ".join(f"{w:.4f}" for w in result["rep_wall_s"]))
    print("repetitions raw wall_s " + " ".join(f"{w:.4f}" for w in result["rep_raw_wall_s"]))
    print("repetitions setup_s " + " ".join(f"{s:.4f}" for s in result["rep_setup_s"]))
    print(f"raw wall_s {result['raw_wall_s']:.6g} s, raw setup_s {result['raw_setup_s']:.6g} s (unscaled)")
    frac = result["failed"] / result["attempted"]
    print(f"{prefix}failed_frac {frac} ({result['failed']} of {result['attempted']} tasks)")
    for failure in result["failures"]:
        print(f"  FAIL {failure}")
    metrics = {}
    if trace:
        for metric, value in sorted(result["per_layer"].items()):
            metrics[prefix + metric] = {"value": value, "unit": layer_unit(metric)}
    else:
        for metric, value in result["end_to_end"].items():
            metrics[prefix + metric] = {"value": value, "unit": UNITS[metric]}
    for metric, entry in metrics.items():
        print(f"{metric} {entry['value']:.6g} {entry['unit']}")
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "jring" / "__init__.py").is_file():
        print(f"perfbench: no jring sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, args.seconds, bool(args.trace), args.size) for n in names]
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    info = {
        "jring_file": results[0]["jring_file"],
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seconds": args.seconds,
        "size": args.size,
    }
    print("info " + json.dumps(info, sort_keys=True))
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)
    for result in results:
        path = out_dir / f"result-{result['workload']}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps({"info": info, **result}))
    metrics = {}
    for result in results:
        metrics.update(report(result, bool(args.trace), f"{result['workload']}." if len(results) > 1 else ""))
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
