"""Correctness checks for one executed task.

Each task's output is compared with the digest recorded in
``reference.json``.  Where an independent route is cheap it is checked too:
the Waring closed form for every matrix column, the closed product formulas
and non-negativity for products, the invariance ``d g = 0`` for basis
polynomials, the lift law ``dF = F`` below the top degree, and dimension
totals against the Poincare series.  The checks run after every task of a
repetition has finished, so they neither add to the timed regions nor warm
a cache before a task that would otherwise build it.
"""

from __future__ import annotations

import hashlib
import json

import workloads


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:12]


def matrix_digest(tm) -> str:
    """Digest of the nonzero entries, read through the public ``entry``."""
    entries = sorted(
        [list(lam), list(beta), tm.entry(lam, beta)]
        for lam in tm.partitions
        for beta in tm.compositions
        if tm.entry(lam, beta)
    )
    return digest(json.dumps([tm.n, tm.ell, entries], separators=(",", ":")))


def output_digest(task: dict, output) -> str:
    return matrix_digest(output) if task["kind"] == "matrix" else digest(output)


def _dims_totals(output: str, fmt: str) -> dict[int, int]:
    totals = {}
    if fmt == "json":
        for row in json.loads(output):
            if sum(row["dims"]) != row["total"]:
                raise ValueError(f"row {row['n']} does not add up")
            totals[row["n"]] = row["total"]
    elif fmt == "latex":
        for n, line in enumerate(output.splitlines(), start=1):
            totals[n] = int(line.rstrip("\\ ").split("&")[-1])
    else:
        for line in output.splitlines()[2:]:
            n, _, rest = line.partition("|")
            totals[int(n)] = int(rest.rpartition("|")[2])
    return totals


def independent(task: dict, output) -> list[str]:
    """Problems found by a route that does not read the reference digests."""
    from jring import analysis, cli, invariants, symfun
    from jring.xring import derivation_d, project, truncate

    kind, fmt = task["kind"], task.get("format")
    problems = []
    if kind == "matrix":
        n, ell = task["n"], task["ell"]
        omega = (n - ell + 1,) + (1,) * (ell - 1)
        for beta in output.compositions:
            if output.entry(omega, beta) != symfun.waring_coefficient(beta):
                problems.append(f"Waring entry of {beta} differs from the closed form")
    elif kind == "poly":
        g = invariants.g_poly(tuple(task["beta"]))
        if not derivation_d(g).is_zero():
            problems.append("basis polynomial is not invariant")
    elif kind == "product":
        b1, b2 = tuple(task["beta"]), tuple(task["beta2"])
        comb = invariants.structure_constants(b1, b2)
        if any(c < 0 for c in comb.values()):
            problems.append("negative structure constant")
        closed = None
        if len(b1) == 2 and len(b2) == 2:
            closed = invariants.product_closed_form(b1[1], b2[1])
        elif len(b1) == 2 and len(b2) == 3 and b2[1] >= 1:
            closed = invariants.product_closed_form(b1[1], b2[1], b2[2])
        if closed is not None and output != cli.render_combination(closed, fmt) + "\n":
            problems.append("output differs from the closed product formula")
    elif kind == "lift":
        beta, top = tuple(task["beta"]), task["max_degree"]
        g = invariants.g_poly(beta)
        if task["method"] == "tilde":
            lift = invariants.lift_tilde(beta, top)
        else:
            lift = invariants.lift_exp(g, top)
        if derivation_d(lift) != truncate(lift, top - 1):
            problems.append("lift violates dF = F")
        if project(lift, workloads.label_weight(beta)) != g:
            problems.append("lift does not start at the basis polynomial")
        if output != cli.render_polynomial(lift, fmt) + "\n":
            problems.append("output is not the rendered lift")
    elif kind == "dims":
        series = analysis.poincare_series(task["max_n"])
        try:
            totals = _dims_totals(output, fmt)
        except (ValueError, KeyError) as exc:
            return [f"cannot read the dimension table: {exc}"]
        if totals != {n: series[n] for n in range(1, task["max_n"] + 1)}:
            problems.append("dimension totals differ from the Poincare series")
    return problems


def check(task: dict, output, reference: dict) -> list[str]:
    """Every problem with one task's output; empty when it is correct."""
    want = reference.get(workloads.key(task))
    if want is None:
        return [f"no reference digest for {workloads.key(task)!r}"]
    problems = independent(task, output)
    if output_digest(task, output) != want:
        problems.append("output differs from the reference digest")
    return problems
