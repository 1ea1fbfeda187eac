"""Spans around jring's public functions, recorded from outside the package.

``Tracer.install`` rebinds each wrapped function in every jring module that
holds a reference to it (``enumerate_compositions`` is bound in five
modules, for instance) and patches the two wrapped methods on their classes.
Spans are kept in memory as ``[name, start, end, parent]`` and turned into
per-layer metrics at the end of a run.  The matrix and pair-table key
counts are derived from call arguments alone, never from jring's private
caches, so they mean the same whatever caching jring does.
"""

from __future__ import annotations

import functools
import time
from collections import Counter
from typing import Callable, Optional

from workloads import label_weight


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the part of it covered by its children."""
    children: list[list[int]] = [[] for _ in spans]
    for i, span in enumerate(spans):
        if span[3] >= 0:
            children[span[3]].append(i)
    out = []
    for i, (_, start, end, _) in enumerate(spans):
        covered = 0.0
        reach = start
        for lo, hi in sorted((spans[c][1], spans[c][2]) for c in children[i]):
            lo = max(lo, reach)
            hi = min(hi, end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        out.append(end - start - covered)
    return out


class Tracer:
    """Records one span per call of each wrapped jring function."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []
        self._matrix_keys: set = set()
        self._pair_keys: set = set()

    def _wrap(self, name, fn, after: Optional[Callable] = None):
        """Wrap fn; name is a string or a function of the positional args."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span_name = name(args) if callable(name) else name
            index = len(self.spans)
            span = [span_name, time.perf_counter(), 0.0, self._stack[-1] if self._stack else -1]
            self.spans.append(span)
            self._stack.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._stack.pop()
                span[2] = time.perf_counter()
            if after is not None:
                after(span_name, args, result)
            return result

        return wrapper

    # -- counts derived from call arguments -------------------------------

    def _matrix_name(self, args) -> str:
        key = tuple(args[:2])
        if key in self._matrix_keys:
            return "symfun.matrix.repeat"
        self._matrix_keys.add(key)
        return "symfun.matrix.build"

    def _count_entries(self, name, args, tm) -> None:
        if name == "symfun.matrix.build":
            self.counts["symfun.matrix.entries"] += len(tm.entries)

    def _count_terms(self, name, args, expansion) -> None:
        self.counts["symfun.expand.terms"] += len(expansion)

    def _pair_name(self, args) -> str:
        beta, beta2 = tuple(args[0]), tuple(args[1])
        if beta and beta2:
            key = (label_weight(beta) + label_weight(beta2), len(beta), len(beta2))
            if key in self._pair_keys:
                self.counts["invariants.pair_table.reused"] += 1
            else:
                self._pair_keys.add(key)
                self.counts["invariants.pair_table.new_keys"] += 1
        return "invariants.structure_constants"

    def _count_cells(self, name, args, result) -> None:
        rows = args[0]
        self.counts["analysis.rref.cells"] += len(rows) * (len(rows[0]) if rows else 0)

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        import jring
        from jring import analysis, cli, combinatorics, invariants, symfun, xring

        modules = (jring, combinatorics, xring, symfun, invariants, analysis, cli)
        functions = [
            (combinatorics.enumerate_compositions, "combinatorics.enumerate", None),
            (combinatorics.enumerate_partitions, "combinatorics.enumerate", None),
            (symfun.expand_elementary_product, "symfun.expand", self._count_terms),
            (symfun.transition_matrix, self._matrix_name, self._count_entries),
            (invariants.g_poly, "invariants.g_poly", None),
            (invariants.lift_tilde, "invariants.lift", None),
            (invariants.lift_exp, "invariants.lift", None),
            (invariants.structure_constants, self._pair_name, None),
            (invariants.j_product, "invariants.j_product", None),
            (xring.derivation_d, "xring.derivation", None),
            (xring.derivation_delta, "xring.derivation", None),
            (analysis.rref, "analysis.rref", self._count_cells),
            (analysis.kernel_basis, "analysis.kernel_basis", None),
            (cli.build_parser, "cli.build_parser", None),
            (cli.render_polynomial, "cli.render", None),
            (cli.render_polynomial_text, "cli.render", None),
            (cli.render_polynomial_latex, "cli.render", None),
            (cli.render_polynomial_json, "cli.render", None),
            (cli.render_combination, "cli.render", None),
        ]
        for fn, name, after in functions:
            wrapper = self._wrap(name, fn, after)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is fn:
                        self._undo.append((module, attr, fn))
                        setattr(module, attr, wrapper)
        methods = [
            (xring.XPolynomial, "__mul__", "xring.mul"),
            (symfun.TransitionMatrix, "g_column", "symfun.g_column"),
        ]
        for cls, attr, name in methods:
            fn = vars(cls)[attr]
            self._undo.append((cls, attr, fn))
            setattr(cls, attr, self._wrap(name, fn))

    def uninstall(self) -> None:
        for owner, attr, fn in reversed(self._undo):
            setattr(owner, attr, fn)
        self._undo.clear()

    # -- metrics -----------------------------------------------------------

    def layer_metrics(self, wall_s: float, tasks_from: float) -> dict[str, float]:
        """Per-layer metrics; expand's wall share counts spans after tasks_from."""
        calls: Counter = Counter()
        self_s: Counter = Counter()
        expand_in_tasks = 0.0
        for span, own in zip(self.spans, self_times(self.spans)):
            calls[span[0]] += 1
            self_s[span[0]] += own
            if span[0] == "symfun.expand" and span[1] >= tasks_from:
                expand_in_tasks += own
        out: dict[str, float] = {}
        for layer in (
            "combinatorics.enumerate",
            "symfun.expand",
            "symfun.g_column",
            "invariants.g_poly",
            "invariants.lift",
            "invariants.structure_constants",
            "invariants.j_product",
            "xring.mul",
            "xring.derivation",
            "analysis.rref",
            "analysis.kernel_basis",
            "cli.build_parser",
            "cli.render",
        ):
            out[f"{layer}.calls"] = calls[layer]
            out[f"{layer}.self_s"] = self_s[layer]
        out["symfun.expand.terms"] = self.counts["symfun.expand.terms"]
        out["symfun.expand.wall_share"] = expand_in_tasks / wall_s if wall_s else 0.0
        out["symfun.matrix.builds"] = calls["symfun.matrix.build"]
        out["symfun.matrix.repeats"] = calls["symfun.matrix.repeat"]
        out["symfun.matrix.build_self_s"] = self_s["symfun.matrix.build"]
        out["symfun.matrix.entries"] = self.counts["symfun.matrix.entries"]
        new = self.counts["invariants.pair_table.new_keys"]
        reused = self.counts["invariants.pair_table.reused"]
        out["invariants.pair_table.new_keys"] = new
        out["invariants.pair_table.reuse_ratio"] = reused / (new + reused) if new + reused else 0.0
        out["analysis.rref.cells"] = self.counts["analysis.rref.cells"]
        out["trace.spans"] = len(self.spans)
        return out
