"""Self-tests of the benchmark: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import spans
import worker
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=cwd,
        capture_output=True,
        text=True,
        timeout=170,
    )


def last_json(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_smoke_run(workload):
    plain = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "0", "--size", "tiny"))
    assert set(plain) == {"correct", "attempted", "failed", "metrics"}
    assert plain["correct"] and plain["failed"] == 0 and plain["attempted"] >= 1
    assert set(plain["metrics"]) == {m["name"] for m in BENCHMARK["end_to_end"]}
    assert all(m["value"] > 0 for m in plain["metrics"].values())

    traced = last_json(run_bench("--workload", workload, "--seed", "3", "--seconds", "0", "--trace", "1", "--size", "tiny"))
    assert traced["correct"]
    layers = {name: m["value"] for name, m in traced["metrics"].items()}
    assert set(layers) == {m["name"] for m in BENCHMARK["per_layer"]}
    # the bypass workloads never reach the layers they bypass
    if workload == "algebra":
        assert layers["symfun.expand.calls"] == 0
    if workload == "sweep":
        assert layers["analysis.rref.calls"] == 0
        assert layers["invariants.structure_constants.calls"] == 0
        assert layers["symfun.matrix.builds"] == 36


def test_corrupted_matrix_entry_is_a_failure(monkeypatch):
    worker.import_jring()
    from jring import symfun

    build = symfun._build_transition_matrix

    def corrupted(n, ell):
        tm = build(n, ell)
        if (n, ell) == (6, 2):
            entry = next(iter(tm.entries))
            tm.entries[entry] += 1
        return tm

    monkeypatch.setattr(symfun, "_memo", {})
    monkeypatch.setattr(symfun, "_build_transition_matrix", corrupted)
    rep = worker.run_rep(workloads.make("sweep", 5, "tiny"))
    assert rep["failed"] == 1 and rep["attempted"] == 36
    assert rep["failures"][0].startswith("matrix 6 2:")


def test_self_time_subtracts_covered_child_time():
    # root [0, 10] has children [1, 4] and [3, 6] that overlap, and [9, 12]
    # that runs past the root; [1, 4] has a child [2, 3]
    tree = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["b", 3.0, 6.0, 0],
        ["c", 9.0, 12.0, 0],
        ["a1", 2.0, 3.0, 1],
    ]
    assert spans.self_times(tree) == [10.0 - 5.0 - 1.0, 2.0, 3.0, 3.0, 1.0]


def test_tracer_counts_from_call_arguments():
    worker.import_jring()
    from jring import invariants, symfun

    tracer = spans.Tracer()
    tracer.install()
    try:
        symfun.transition_matrix(5, 2)
        symfun.transition_matrix(5, 2)
        invariants.structure_constants((0, 1), (0, 2))
        invariants.structure_constants((0, 2), (0, 1))
        invariants.structure_constants((0, 3), (0, 1, 1))
    finally:
        tracer.uninstall()
    layers = tracer.layer_metrics(wall_s=1.0, tasks_from=0.0)
    assert layers["symfun.matrix.builds"] == 1
    assert layers["symfun.matrix.repeats"] == 1
    assert layers["invariants.pair_table.new_keys"] == 2
    assert layers["invariants.pair_table.reuse_ratio"] == pytest.approx(1 / 3)
    assert symfun.transition_matrix.__module__ == "jring.symfun"


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_same_inputs(workload):
    first = json.dumps(workloads.make(workload, 7))
    assert json.dumps(workloads.make(workload, 7)) == first
    other = workloads.make(workload, 8)
    # a sweep takes no random input; only the recorded seed differs
    assert (other["tasks"] == json.loads(first)["tasks"]) == (workload == "sweep")
    props = workloads.properties(workloads.make(workload, 7))
    assert props["input_digest"] == workloads.properties(json.loads(first))["input_digest"]


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_reference_covers_every_drawable_task(workload):
    reference = json.loads((HERE / "reference.json").read_text())[workload]
    keys = {workloads.key(t) for t in workloads.reference_universe(workload)}
    assert keys == set(reference)
    for size in workloads.SIZES:
        assert {workloads.key(t) for t in workloads.make(workload, 1, size)["tasks"]} <= keys


def test_refuses_to_run_without_jring_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".out", "__pycache__"))
    proc = run_bench("--workload", "sweep", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
