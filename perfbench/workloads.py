"""Seeded task lists for the three benchmark workloads.

Nothing here imports jring: the task lists are built from the benchmark's own
label enumeration, so the program under test only ever receives the
generated inputs.  A task is a JSON-ready dict; a workload spec is
``{"workload", "seed", "size", "warmup", "tasks"}``.

Every task is drawn from a finite *universe* that does not depend on the
seed.  ``perfbench/reference.json`` holds one output digest per member of
the union of the universes of all sizes, so any task any seed can draw has
a reference.

For ``queries`` and ``algebra`` the seed chooses labels inside fixed strata,
the output formats and the order; ``sweep`` takes no random input.  The strata themselves (how many product queries, which pair-table
keys, which slices) are fixed, so the cost of a run barely depends on the
seed while its inputs do.
"""

from __future__ import annotations

import hashlib
import json
import random
from collections import Counter
from dataclasses import dataclass

WORKLOADS = ("sweep", "queries", "algebra")
FORMATS = ("text", "json", "latex")


@dataclass(frozen=True)
class Size:
    sweep_n: int  # sweep builds every slice 1 <= ell <= n <= sweep_n
    query_n: int  # queries warm every slice with n <= query_n
    lift_weight: int  # lifted labels have weight <= lift_weight
    chern_degree: int  # chern --ell / --k use max degree <= chern_degree
    pair_weights: tuple[int, ...]  # total weights of the pair-table keys
    counts: dict  # queries drawn per stratum
    product_repeats: int  # product queries on an already used key
    algebra_n: int  # dims / generators bound and top relations degree


FULL = Size(
    sweep_n=16,
    query_n=14,
    lift_weight=8,
    chern_degree=12,
    pair_weights=(16, 18, 20, 22, 24),
    # 215 cheap calls put p90 among the mid-priced pair-table builds, where
    # neighbouring builds cost about the same
    counts={"poly": 55, "basis": 30, "lift": 50, "chern_ell": 18, "chern_k": 27},
    product_repeats=35,
    algebra_n=18,
)
# a strict subset of FULL's universe, for the self-tests
TINY = Size(
    sweep_n=8,
    query_n=8,
    lift_weight=4,
    chern_degree=8,
    pair_weights=(16,),
    counts={"poly": 6, "basis": 3, "lift": 4, "chern_ell": 2, "chern_k": 3},
    product_repeats=4,
    algebra_n=10,
)
SIZES = {"full": FULL, "tiny": TINY}

# (len beta, len beta') of the pair-table keys; both labels are in B(0)
PAIR_LENGTHS = ((2, 2), (2, 3), (3, 3), (2, 4), (3, 4), (2, 5), (4, 4))
PAIRS_PER_KEY = 6
CHERN_K_VALUES = (-2, -1, 1, 2, 3)


# ---------------------------------------------------------------------------
# Labels, independent of jring's own enumeration


def b0_labels(n: int, ell: int) -> list[tuple[int, ...]]:
    """Labels (0, b_2, ..., b_ell) of weight n with b_ell >= 1, ell >= 2."""
    out: list[tuple[int, ...]] = []

    def rec(pos: int, remaining: int, acc: tuple[int, ...]):
        if pos == ell:
            if remaining % ell == 0 and remaining >= ell:
                out.append(acc + (remaining // ell,))
            return
        for b in range(remaining // pos + 1):
            rec(pos + 1, remaining - pos * b, acc + (b,))

    if ell >= 2:
        rec(2, n, (0,))
    return out


def label_weight(beta) -> int:
    return sum(i * b for i, b in enumerate(beta, start=1))


def partition_count(n: int, ell: int) -> int:
    """Number of partitions of n with exactly ell parts (the slice size)."""
    table = [[0] * (ell + 1) for _ in range(n + 1)]
    table[0][0] = 1
    for m in range(1, n + 1):
        for k in range(1, min(m, ell) + 1):
            table[m][k] = table[m - 1][k - 1] + table[m - k][k]
    return table[n][ell]


def _label_arg(beta) -> str:
    return ",".join(str(b) for b in beta)


# ---------------------------------------------------------------------------
# Universes: every task a generator of the given size can draw, by stratum


def _b0_upto(low: int, high: int) -> list[tuple[int, ...]]:
    return [b for n in range(low, high + 1) for ell in range(2, n + 1) for b in b0_labels(n, ell)]


def _spread(items: list, k: int) -> list:
    # k items evenly spaced over the list, always including both ends
    if len(items) <= k:
        return items
    return [items[round(i * (len(items) - 1) / (k - 1))] for i in range(k)]


def pair_universe(size: Size) -> dict[tuple[int, int, int], list]:
    """Pair-table key (weight sum, len, len') -> the label pairs drawn for it."""
    out = {}
    for l1, l2 in PAIR_LENGTHS:
        for total in size.pair_weights:
            pairs = [
                (b1, b2)
                for n1 in range(2, total - 1)
                for b1 in b0_labels(n1, l1)
                for b2 in b0_labels(total - n1, l2)
            ]
            out[(total, l1, l2)] = _spread(pairs, PAIRS_PER_KEY)
    return out


def query_strata(size: Size) -> dict[str, list[dict]]:
    """Format-free query templates per stratum; the generator adds a format."""
    strata: dict[str, list[dict]] = {}
    strata["poly"] = [
        {"kind": "poly", "argv": ["poly", _label_arg(b)], "beta": list(b)}
        for b in _b0_upto(4, size.query_n)
    ]
    strata["basis"] = [
        {"kind": "basis", "argv": ["basis", "--n", str(n), "--ell", str(ell), "--zero-only"]}
        for n in range(4, size.query_n + 1)
        for ell in range(2, n + 1)
        if b0_labels(n, ell)
    ]
    lifts = []
    for b in _b0_upto(2, size.lift_weight):
        for extra in (3, 6):
            degree = label_weight(b) + extra
            for method in ("tilde", "exp"):
                lifts.append(
                    {
                        "kind": "lift",
                        "argv": ["lift", _label_arg(b), "--max-degree", str(degree), "--method", method],
                        "beta": list(b),
                        "max_degree": degree,
                        "method": method,
                    }
                )
    strata["lift"] = lifts
    strata["chern_ell"] = [
        {"kind": "chern", "argv": ["chern", "--ell", str(ell), "--max-degree", str(d)]}
        for ell in (2, 3, 4)
        for d in range(ell + 4, size.chern_degree + 1)
    ]
    strata["chern_k"] = [
        # "--k=" keeps argparse from reading a leading minus as an option
        {"kind": "chern", "argv": ["chern", f"--k={k1},{k2}", "--max-degree", str(d)]}
        for k1 in CHERN_K_VALUES
        for k2 in CHERN_K_VALUES
        for d in (6, 8)
        if d <= size.chern_degree
    ]
    return strata


def _product_task(b1, b2) -> dict:
    return {
        "kind": "product",
        "argv": ["product", _label_arg(b1), _label_arg(b2)],
        "beta": list(b1),
        "beta2": list(b2),
    }


def _algebra_templates(n: int) -> list[dict]:
    return (
        [{"kind": "dims", "argv": ["dims", "--max-n", str(n)], "max_n": n}]
        + [{"kind": "generators", "argv": ["generators", "--max-n", str(n)]}]
        + [{"kind": "relations", "argv": ["relations", "--degree", str(d)]} for d in range(2, n + 1)]
    )


def universe(workload: str, size: Size = FULL) -> list[dict]:
    """Every task the generator can draw for this workload at this size."""
    if workload == "sweep":
        return [{"kind": "matrix", "n": n, "ell": ell} for n in range(1, size.sweep_n + 1) for ell in range(1, n + 1)]
    if workload == "queries":
        templates = [t for group in query_strata(size).values() for t in group]
        templates += [_product_task(b1, b2) for pairs in pair_universe(size).values() for b1, b2 in pairs]
    elif workload == "algebra":
        templates = _algebra_templates(size.algebra_n)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return [_formatted(t, fmt) for t in templates for fmt in FORMATS]


def reference_universe(workload: str) -> list[dict]:
    """The union of the universes of every size, each task once."""
    tasks = {key(t): t for size in SIZES.values() for t in universe(workload, size)}
    return [tasks[k] for k in sorted(tasks)]


def _formatted(template: dict, fmt: str) -> dict:
    return {**template, "argv": template["argv"] + ["--format", fmt], "format": fmt}


def key(task: dict) -> str:
    """The task's name in reference.json."""
    if task["kind"] == "matrix":
        return f"matrix {task['n']} {task['ell']}"
    return " ".join(task["argv"])


# ---------------------------------------------------------------------------
# Seeded task lists


def _balanced_formats(rng: random.Random, count: int) -> list[str]:
    fmts = [FORMATS[i % len(FORMATS)] for i in range(count)]
    rng.shuffle(fmts)
    return fmts


def make(workload: str, seed: int, size_name: str = "full") -> dict:
    """The workload spec for this seed; the same seed gives the same bytes."""
    size = SIZES[size_name]
    rng = random.Random(f"{workload}:{seed}")
    warmup: list[list[int]] = []
    if workload == "sweep":
        # a sweep has no random input: every seed gives the same slices in
        # the same order.  A seeded order would move the peak memory (by up
        # to a quarter) and which slices the garbage collector pauses in.
        tasks = universe("sweep", size)
    elif workload == "queries":
        warmup = [[n, ell] for n in range(1, size.query_n + 1) for ell in range(1, n + 1)]
        templates = []
        strata = query_strata(size)
        for stratum, count in size.counts.items():
            templates += [rng.choice(strata[stratum]) for _ in range(count)]
        pairs = pair_universe(size)
        keys = sorted(pairs)
        # one query per pair-table key builds it; the repeats reuse a key
        for k in keys + [rng.choice(keys) for _ in range(size.product_repeats)]:
            templates.append(_product_task(*rng.choice(pairs[k])))
        tasks = [_formatted(t, f) for t, f in zip(templates, _balanced_formats(rng, len(templates)))]
        rng.shuffle(tasks)
    elif workload == "algebra":
        # fixed order: relations reuse the pair tables of lower degrees
        templates = _algebra_templates(size.algebra_n)
        tasks = [_formatted(t, f) for t, f in zip(templates, _balanced_formats(rng, len(templates)))]
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return {"workload": workload, "seed": seed, "size": size_name, "warmup": warmup, "tasks": tasks}


def pair_key(task: dict) -> tuple[int, int, int]:
    b1, b2 = task["beta"], task["beta2"]
    return (label_weight(b1) + label_weight(b2), len(b1), len(b2))


def properties(spec: dict) -> dict:
    """The input properties recorded with every result."""
    tasks = spec["tasks"]
    seen: set = set()
    repeats = products = 0
    for t in tasks:
        if t["kind"] == "product":
            products += 1
            k = pair_key(t)
            repeats += k in seen
            seen.add(k)
    slices = [(t["n"], t["ell"]) for t in tasks if t["kind"] == "matrix"]
    slices += [tuple(s) for s in spec["warmup"]]
    slices += [(t["max_n"], ell) for t in tasks if t["kind"] == "dims" for ell in range(1, t["max_n"] + 1)]
    # a pair table enumerates the compositions of its weight sum and length
    slices += [(k[0], k[1] + k[2]) for k in seen]
    canonical = json.dumps(spec, sort_keys=True, separators=(",", ":")).encode()
    return {
        "input_digest": hashlib.sha256(canonical).hexdigest()[:16],
        "tasks": len(tasks),
        "warmup_slices": len(spec["warmup"]),
        "kinds": dict(sorted(Counter(t["kind"] for t in tasks).items())),
        "formats": dict(sorted(Counter(t.get("format", "-") for t in tasks).items())),
        "product_queries": products,
        "product_key_repeat_share": repeats / products if products else 0.0,
        "largest_slice": max((partition_count(n, ell) for n, ell in slices), default=0),
    }
