"""Reference structure constants from the whole two-set pair table.

For a product slice (n, ell, ell2) it expands e^{beta''} for every label
beta'' of weight n and length ell + ell2 in two variable sets, and reads one
pair (beta, beta') off every expansion.  It is far slower than
jring.invariants' split-table count and shares none of its code, which is
what makes it a useful oracle.
"""

from __future__ import annotations

from functools import lru_cache

from jring.combinatorics import Composition, enumerate_compositions, weight


@lru_cache(maxsize=None)
def _pair_expansion_table(
    n2: int, ell: int, ell2: int
) -> dict[Composition, dict[tuple[Composition, Composition], int]]:
    """For every beta'' in B_{n2}^{(ell+ell2)}: its expansion over pairs.

    Expands e^{beta''} in the union variable set via
    e_i(k, k') = sum_j e_j(k) e_{i-j}(k'), with e_j(k) = 0 for j > ell and
    e_j(k') = 0 for j > ell2, treating the one-set elementary polynomials as
    formal commuting indeterminates.
    """
    total = ell + ell2
    factors: list[list[tuple[int, int]]] = [[]]  # index i-1: (j, i-j) choices
    for i in range(1, total + 1):
        lo = max(0, i - ell2)
        hi = min(i, ell)
        factors.append([(j, i - j) for j in range(lo, hi + 1)])

    table: dict[Composition, dict[tuple[Composition, Composition], int]] = {}
    for beta2 in enumerate_compositions(n2, total):
        prod: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {
            ((0,) * ell, (0,) * ell2): 1
        }
        for i in range(1, total + 1):
            for _ in range(beta2[i - 1]):
                nxt: dict[tuple[tuple[int, ...], tuple[int, ...]], int] = {}
                for (a, b), c in prod.items():
                    for j, j2 in factors[i]:
                        na = list(a)
                        nb = list(b)
                        if j > 0:
                            na[j - 1] += 1
                        if j2 > 0:
                            nb[j2 - 1] += 1
                        key = (tuple(na), tuple(nb))
                        nxt[key] = nxt.get(key, 0) + c
                prod = nxt
        table[beta2] = prod
    return table


def pair_table_constants(
    beta: Composition, beta2: Composition
) -> dict[Composition, int]:
    """The nonzero coefficients of e^beta(k) e^beta'(k') over the table."""
    table = _pair_expansion_table(
        weight(beta) + weight(beta2), len(beta), len(beta2)
    )
    out: dict[Composition, int] = {}
    for b2, expansion in table.items():
        c = expansion.get((beta, beta2), 0)
        if c:
            out[b2] = c
    return out
