"""The generator-monomial search without its reachability table.

This is the search jring.analysis._monomials_of_weight made before it
pruned every branch whose remaining weight the later generators cannot
make: the same depth-first order, which fixes the column order of
find_relations and so the canonical rows of its kernel.  It is kept as an
oracle for the pruned search, monomials and order alike.
"""

from __future__ import annotations

from typing import Sequence

from jring.combinatorics import Composition, composition_sort_key, weight

Monomial = tuple[Composition, ...]


def monomials_of_weight(
    generators: Sequence[Composition], target: int
) -> list[Monomial]:
    gens = sorted(generators, key=composition_sort_key)
    weights = [weight(g) for g in gens]
    out: list[Monomial] = []

    def rec(idx: int, remaining: int, acc: list[Composition]):
        if remaining == 0:
            if len(acc) >= 1:
                out.append(tuple(acc))
            return
        # the weights never decrease, so nothing after a too-heavy one fits
        if idx == len(gens) or weights[idx] > remaining:
            return
        w = weights[idx]
        max_copies = remaining // w
        for copies in range(max_copies, -1, -1):
            rec(idx + 1, remaining - copies * w, acc + [gens[idx]] * copies)

    rec(0, target, [])
    return out
