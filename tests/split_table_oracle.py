"""The split-table count of structure constants, weighted by factorials.

This is the count jring.invariants.structure_constants made before it
carried each table's weight as running binomials: the same tables, each
adding prod_i beta''_i! / prod T[j][j']! computed afresh at its leaf.  It
is kept as an oracle for the incremental weights, and is much faster than
pair_table_oracle on large weights.
"""

from __future__ import annotations

import math

from jring.combinatorics import EMPTY, Composition, is_composition


def split_table_constants(
    beta: Composition, beta2: Composition
) -> dict[Composition, int]:
    """The multiplication table entry: g_beta * g_beta' = sum N * g_beta''.

    N^{beta''} is the coefficient of e^beta(k) e^beta'(k') in
    e^{beta''}(k u k'), by e_i(k u k') = sum_j e_j(k) e_{i-j}(k').  It is a
    sum over split tables T[j][j'], 0 <= j <= ell = len(beta) and
    0 <= j' <= ell' = len(beta2), with T[0][0] absent: row j >= 1 sums to
    beta_j, column j' >= 1 sums to beta'_j', row 0 and column 0 take what is
    left, and beta''_i = sum_{j+j'=i} T[j][j'].  Each table adds
    prod_i beta''_i! / prod T[j][j']!.  Only tables with T[ell][ell'] >= 1
    count, so every beta'' has length ell + ell' and weight
    weight(beta) + weight(beta2); each coefficient returned is positive.
    """
    beta, beta2 = tuple(beta), tuple(beta2)
    if not (is_composition(beta) and is_composition(beta2)):
        raise ValueError("invalid basis labels")
    if beta == EMPTY:
        return {beta2: 1} if beta2 != EMPTY else {EMPTY: 1}
    if beta2 == EMPTY:
        return {beta: 1}
    ell, ell2 = len(beta), len(beta2)
    fact = math.factorial
    # only rows and columns with a nonzero total hold nonzero entries
    rows = [j for j, b in enumerate(beta, start=1) if b]
    cols = [j2 for j2, b in enumerate(beta2, start=1) if b]
    col_left = list(beta2)  # column totals still left, column j' at j'-1
    diag = [0] * (ell + ell2 + 1)  # beta''_i so far at i
    out: dict[Composition, int] = {}

    def place(r: int, c: int, row_left: int, denom: int) -> None:
        # choose T[j][j2] for j = rows[r], j2 = cols[c], then the next cell
        j = rows[r]
        if c == len(cols):
            diag[j] += row_left  # T[j][0]
            denom *= fact(row_left)
            if r + 1 < len(rows):
                place(r + 1, 0, beta[rows[r + 1] - 1], denom)
            else:
                top = diag[:]
                for j2, t in enumerate(col_left, start=1):  # T[0][j2]
                    top[j2] += t
                    denom *= fact(t)
                key = tuple(top[1:])
                n = math.prod(fact(b) for b in key) // denom
                out[key] = out.get(key, 0) + n
            diag[j] -= row_left
            return
        j2 = cols[c]
        lo = 1 if (j, j2) == (ell, ell2) else 0
        for t in range(lo, min(row_left, col_left[j2 - 1]) + 1):
            col_left[j2 - 1] -= t
            diag[j + j2] += t
            place(r, c + 1, row_left - t, denom * fact(t))
            col_left[j2 - 1] += t
            diag[j + j2] -= t

    place(0, 0, beta[rows[0] - 1], 1)
    return out
