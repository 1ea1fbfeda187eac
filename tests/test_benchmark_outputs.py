"""Every task the benchmark can draw still prints its recorded output.

perfbench/reference.json pins the digest of each task in each workload's
reference universe.  This replays them all in process, through the
benchmark's own executor and digest, so an output change shows here and not
first as a failed benchmark run.
"""

from __future__ import annotations

import importlib
import json
import sys
from pathlib import Path

import pytest

from jring import cli, symfun

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
# perfbench's modules import one another by these top-level names
NAMES = ("checks", "spans", "workloads", "worker")


def _load_perfbench():
    # import perfbench's worker (and through it checks and workloads) from
    # its own directory, then give back sys.path and sys.modules as they
    # were, so that no later import of these names finds perfbench's files
    saved = {name: sys.modules.pop(name) for name in NAMES if name in sys.modules}
    sys.path.insert(0, str(PERFBENCH))
    try:
        worker = importlib.import_module("worker")
    finally:
        sys.path.remove(str(PERFBENCH))
        for name in NAMES:
            sys.modules.pop(name, None)
        sys.modules.update(saved)
    return worker


worker = _load_perfbench()
REFERENCE = json.loads((PERFBENCH / "reference.json").read_text())


@pytest.mark.parametrize("workload", worker.workloads.WORKLOADS)
def test_every_reference_task_reproduces_its_digest(workload, monkeypatch):
    monkeypatch.setattr(symfun, "_memo", {})
    want = REFERENCE[workload]
    tasks = worker.workloads.reference_universe(workload)
    assert len(tasks) == len(want)
    differ = []
    for task in tasks:
        key = worker.workloads.key(task)
        _, output, error = worker.execute(task, symfun, cli)
        assert error is None, f"{key}: {error}"
        if worker.checks.output_digest(task, output) != want[key]:
            differ.append(key)
    assert differ == []
