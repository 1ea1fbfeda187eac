"""One repetition of a workload, in a fresh process so every cache starts cold.

Reads a workload spec (see ``workloads.make``) as JSON on stdin, imports
jring from the checkout's ``src``, runs the warm-up and then each task in
turn, checks every output and prints one JSON line on stdout.  With
``--trace`` the public jring functions are wrapped while the warm-up and the
tasks run, and the spans are written to ``perfbench/.out`` at exit.

    python3 perfbench/worker.py [--trace] < spec.json
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import sys
import time
from pathlib import Path

import checks
import spans
import workloads

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / ".out"
# a calibration runs at most this often, between tasks or warm-up slices
CALIBRATION_EVERY_S = 0.02


def now() -> float:
    """A clock every process on the machine shares, so setup_s can span two."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def calibrate(samples: list, force: bool = False) -> None:
    """Time a fixed dense polynomial product; append (end, seconds).

    The machine this runs on is shared, and its speed drifts by a third
    over seconds to minutes.  Samples taken between tasks let run.py scale
    each task's time to a fixed reference speed.  The product is the same
    kind of work as jring's (tuple keys, dict updates, integer arithmetic)
    but its own code, so a change to jring cannot change it.
    """
    if not force and samples and now() - samples[-1][0] < CALIBRATION_EVERY_S:
        return
    # the collector would scan jring's heap, and the first pass refills the
    # caches jring's last task used; neither may depend on jring
    gc.disable()
    try:
        _product()
        start = time.perf_counter()
        _product()
        seconds = time.perf_counter() - start
    finally:
        gc.enable()
    samples.append((now(), seconds))


def _product() -> None:
    left = {(i, j, 0): i + j for i in range(30) for j in range(30)}
    right = {(k, 0, m): 1 for k in range(3) for m in range(3)}
    product: dict = {}
    for ka, va in left.items():
        for kb, vb in right.items():
            key = (ka[0] + kb[0], ka[1] + kb[1], ka[2] + kb[2])
            product[key] = product.get(key, 0) + va * vb


def import_jring():
    """Import jring from this checkout's sources and nowhere else."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    import jring

    if Path(jring.__file__).resolve().parent != (SRC / "jring").resolve():
        raise ImportError(f"jring was imported from {jring.__file__}, not from {SRC}")
    return jring


def execute(task: dict, symfun, cli):
    """Run one task in a timed region; returns (seconds, output, error)."""
    if task["kind"] == "matrix":
        start = time.perf_counter()
        try:
            output = symfun.transition_matrix(task["n"], task["ell"])
        except Exception as exc:  # a failed task is counted, not fatal
            return time.perf_counter() - start, None, repr(exc)
        return time.perf_counter() - start, output, None
    buffer = io.StringIO()
    with contextlib.redirect_stdout(buffer):
        start = time.perf_counter()
        try:
            status = cli.main(task["argv"])
        except (Exception, SystemExit) as exc:  # argparse exits on bad input
            status = exc
        seconds = time.perf_counter() - start
    error = None if status == 0 else f"exit status {status!r}"
    return seconds, buffer.getvalue(), error


def run_rep(spec: dict, trace: bool = False) -> dict:
    """Warm up, run every task, then check the outputs."""
    samples: list = []
    calibrate(samples, force=True)
    jring = import_jring()
    from jring import cli, symfun

    tracer = spans.Tracer() if trace else None
    if tracer is not None:
        tracer.install()
    try:
        for n, ell in spec["warmup"]:
            symfun.transition_matrix(n, ell)
            calibrate(samples)
        calibrate(samples, force=True)
        setup_samples = len(samples)
        first_task_at = now()
        tasks_from = time.perf_counter()
        results, task_at = [], []
        for task in spec["tasks"]:
            task_at.append(now())
            results.append(execute(task, symfun, cli))
            calibrate(samples)
        calibrate(samples, force=True)
    finally:
        if tracer is not None:
            tracer.uninstall()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wall_s = sum(seconds for seconds, _, _ in results)

    reference = json.loads((HERE / "reference.json").read_text())[spec["workload"]]
    failures = []
    for task, (_, output, error) in zip(spec["tasks"], results):
        try:
            problems = [error] if error else checks.check(task, output, reference)
        except Exception as exc:  # a check that cannot run is a failed task
            problems = [f"check raised {exc!r}"]
        if problems:
            failures.append(f"{workloads.key(task)}: {'; '.join(problems)}")
    rep = {
        "jring_file": jring.__file__,
        "first_task_at": first_task_at,
        "task_at": task_at,
        "task_s": [seconds for seconds, _, _ in results],
        "calibration": samples,
        "setup_calibration_s": sum(seconds for _, seconds in samples[:setup_samples]),
        "wall_s": wall_s,
        "rss_mb": rss_mb,
        "attempted": len(results),
        "failed": len(failures),
        "failures": failures[:5],
        "layers": None,
    }
    if tracer is not None:
        layers = tracer.layer_metrics(wall_s, tasks_from)
        layers["cli.render.bytes"] = sum(len(out.encode()) for _, out, _ in results if isinstance(out, str))
        rep["layers"] = layers
        OUT.mkdir(exist_ok=True)
        base = tracer.spans[0][1] if tracer.spans else 0.0
        payload = [[name, start - base, end - base, parent] for name, start, end, parent in tracer.spans]
        (OUT / f"spans-{spec['workload']}.json").write_text(json.dumps(payload))
    return rep


def main() -> int:
    spec = json.load(sys.stdin)
    try:
        rep = run_rep(spec, trace="--trace" in sys.argv[1:])
    except ImportError as exc:
        print(f"perfbench worker: {exc}", file=sys.stderr)
        return 2
    print(json.dumps(rep))
    return 0


if __name__ == "__main__":
    sys.exit(main())
