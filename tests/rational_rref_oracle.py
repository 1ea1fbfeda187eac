"""Reference row reduction over Q with Fraction Gauss-Jordan elimination.

This is the rational elimination jring.analysis used before it switched to
fraction-free integer elimination.  It shares no code with the integer
routine, which is what makes it a useful oracle: its reduced rows, scaled to
primitive integer rows, must equal the integer routine's rows.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Sequence

Row = list[Fraction]


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form over Q; returns (rows, pivot columns)."""
    rows = [list(r) for r in rows]
    if not rows:
        return [], []
    ncols = len(rows[0])
    pivots: list[int] = []
    r = 0
    for c in range(ncols):
        # pick the pivot with the largest numerator to keep entries tame
        best = None
        for i in range(r, len(rows)):
            if rows[i][c] != 0 and (
                best is None or abs(rows[i][c].numerator) > abs(rows[best][c].numerator)
            ):
                best = i
        if best is None:
            continue
        rows[r], rows[best] = rows[best], rows[r]
        piv = rows[r][c]
        rows[r] = [v / piv for v in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][c] != 0:
                f = rows[i][c]
                rows[i] = [a - f * b for a, b in zip(rows[i], rows[r])]
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    nonzero = [row for row in rows if any(v != 0 for v in row)]
    return nonzero, pivots


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Basis of {v : A v = 0}, from the reduced echelon form of A."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    basis: list[Row] = []
    for fc in free:
        v = [Fraction(0)] * ncols
        v[fc] = Fraction(1)
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc]
        basis.append(v)
    return basis


def in_span(vector: Row, basis: list[Row]) -> bool:
    """True iff vector is a rational linear combination of the basis rows."""
    if all(v == 0 for v in vector):
        return True
    if not basis:
        return False
    red, pivots = rref(basis)
    v = list(vector)
    for row, pc in zip(red, pivots):
        if v[pc] != 0:
            f = v[pc]
            v = [a - f * b for a, b in zip(v, row)]
    return all(x == 0 for x in v)


def sparse_in_span(vector: Mapping, basis: Sequence[Mapping]) -> bool:
    """in_span for sparse {column: entry} rows with any orderable column keys."""
    columns = sorted({c for row in (vector, *basis) for c in row})

    def dense(row: Mapping) -> Row:
        return [Fraction(row.get(c, 0)) for c in columns]

    return in_span(dense(vector), [dense(row) for row in basis])
