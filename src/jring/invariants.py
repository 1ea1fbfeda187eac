"""The invariant basis g_beta, structure constants, and lifts.

A JCombination is a finite integer linear combination of basis labels beta,
stored as a plain dict {Composition: int}.  The unit of the ring is the
empty label (): realize({(): 1}) == 1.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Optional, Sequence

from . import symfun
from .combinatorics import (
    EMPTY,
    Composition,
    Partition,
    enumerate_compositions,
    in_b0,
    is_composition,
    weight,
)
from .xring import Coeff, XPolynomial, derivation_d, derivation_delta

JCombination = dict[Composition, int]


def g_poly(beta: Composition) -> XPolynomial:
    """The invariant-ring basis polynomial labelled by beta.

    g_() = 1 and g_(1) = x_1; in general the column of the transition matrix
    at beta, an integer polynomial with unit leading coefficient at
    x_{conjugate partition}.
    """
    beta = tuple(beta)
    if not is_composition(beta):
        raise ValueError(f"{beta} is not a valid basis label")
    if beta == EMPTY:
        return XPolynomial.one()
    tm = symfun.transition_matrix(weight(beta), len(beta))
    return XPolynomial._canonical(tm.g_column(beta))


def realize(comb: JCombination) -> XPolynomial:
    """The polynomial sum(coeff * g_beta) denoted by a combination."""
    out: dict[Partition, Coeff] = {}
    for beta, c in comb.items():
        for lam, v in g_poly(beta).terms.items():
            out[lam] = out.get(lam, 0) + c * v
    return XPolynomial._canonical(out)


def structure_constants(
    beta: Composition, beta2: Composition
) -> dict[Composition, int]:
    """The multiplication table entry: g_beta * g_beta' = sum N * g_beta''.

    N^{beta''} is the coefficient of e^beta(k) e^beta'(k') in
    e^{beta''}(k u k'), by e_i(k u k') = sum_j e_j(k) e_{i-j}(k').  It is a
    sum over split tables T[j][j'], 0 <= j <= ell = len(beta) and
    0 <= j' <= ell' = len(beta2), with T[0][0] absent: row j >= 1 sums to
    beta_j, column j' >= 1 sums to beta'_j', row 0 and column 0 take what is
    left, and beta''_i = sum_{j+j'=i} T[j][j'].  Each table adds
    prod_i beta''_i! / prod T[j][j']!, a product of one multinomial per
    anti-diagonal i, carried as cells are placed: putting t on a diagonal
    that holds s so far multiplies the weight by C(s + t, t).  Only tables
    with T[ell][ell'] >= 1 count, so every beta'' has length ell + ell' and
    weight weight(beta) + weight(beta2); each coefficient returned is
    positive.

    The tables are filled row by row over the nonzero rows and columns.  A
    cell set to 0 changes neither the weight nor the running totals, so it
    goes straight to the next cell, and row 0 and column 0 multiply in a
    binomial only where they take something.
    """
    beta, beta2 = tuple(beta), tuple(beta2)
    if not (is_composition(beta) and is_composition(beta2)):
        raise ValueError("invalid basis labels")
    if beta == EMPTY:
        return {beta2: 1}
    if beta2 == EMPTY:
        return {beta: 1}
    ell, ell2 = len(beta), len(beta2)
    comb = math.comb
    # only rows and columns with a nonzero total hold nonzero entries
    rows = [(j, b) for j, b in enumerate(beta, start=1) if b]
    cols = [j2 for j2, b in enumerate(beta2, start=1) if b]
    last_row, ncols = len(rows) - 1, len(cols)
    col_left = [0, *beta2]  # column totals still left, at column j'
    diag = [0] * (ell + ell2 + 1)  # beta''_i so far at i
    out: dict[Composition, int] = {}

    def place(r: int, c: int, j: int, row_left: int, w: int) -> None:
        # choose T[j][j2] for (j, beta_j) = rows[r], j2 = cols[c], then the
        # next cell; w is the weight of the cells placed so far
        if c == ncols:
            s = diag[j]
            if row_left:  # T[j][0]
                w *= comb(s + row_left, row_left)
                diag[j] = s + row_left
            if r < last_row:
                next_j, next_b = rows[r + 1]
                place(r + 1, 0, next_j, next_b, w)
            else:
                top = diag[:]
                for j2 in cols:  # T[0][j2]
                    t = col_left[j2]
                    if t:
                        w *= comb(top[j2] + t, t)
                        top[j2] += t
                key = tuple(top[1:])
                out[key] = out.get(key, 0) + w
            diag[j] = s
            return
        j2 = cols[c]
        # T[j][j2] = 0 changes nothing; the last cell is T[ell][ell'] >= 1
        if r < last_row or c + 1 < ncols:
            place(r, c + 1, j, row_left, w)
        left = col_left[j2]
        i = j + j2
        s = diag[i]
        for t in range(1, min(row_left, left) + 1):
            col_left[j2] = left - t
            diag[i] = s + t
            place(r, c + 1, j, row_left - t, w * comb(s + t, t))
        col_left[j2] = left
        diag[i] = s

    j, b = rows[0]
    place(0, 0, j, b, 1)
    return out


def j_product(c1: JCombination, c2: JCombination) -> JCombination:
    """Bilinear product in the abstract ring presented on B(0) labels."""
    if not all(map(in_b0, [*c1, *c2])):
        raise ValueError("j_product operands must be supported on B(0)")
    out: JCombination = {}
    for b1, a1 in c1.items():
        for b2, a2 in c2.items():
            for b3, n in structure_constants(b1, b2).items():
                if not in_b0(b3):
                    raise RuntimeError(
                        f"product of B(0) labels left B(0) at {b3}"
                    )
                val = out.get(b3, 0) + a1 * a2 * n
                if val == 0:
                    out.pop(b3, None)
                else:
                    out[b3] = val
    return out


def product_closed_form(a: int, b: int, c: Optional[int] = None) -> JCombination:
    """The displayed closed formulas for g_(0,a) g_(0,b) and g_(0,a) g_(0,b,c).

        g_(0,a) g_(0,b) = sum_{r=1}^{min(a,b)}
            (a+b-2r)! / ((a-r)! (b-r)!) g_(0,a+b-2r,0,r)

        g_(0,a) g_(0,b,c) = sum_{s=1}^{c} sum_{r=0}^{min(a-s,b)}
            (a+b-2r-s)! / ((a-r-s)! (b-r)!) g_(0,a+b-2r-s,c-s,r,s)

    So each coefficient is a binomial, C(a+b-2r, b-r) or C(a+b-2r-s, b-r);
    over these ranges every one is positive and every label occurs once.
    """
    if a < 1 or b < 1 or (c is not None and c < 1):
        raise ValueError("closed product formulas need positive indices")
    if c is None:
        return {
            (0, a + b - 2 * r, 0, r): math.comb(a + b - 2 * r, b - r)
            for r in range(1, min(a, b) + 1)
        }
    return {
        (0, a + b - 2 * r - s, c - s, r, s): math.comb(a + b - 2 * r - s, b - r)
        for s in range(1, c + 1)
        for r in range(0, min(a - s, b) + 1)
    }


# ---------------------------------------------------------------------------
# Chern character series


def elementary_symmetric_values(ks: Sequence[int]) -> list[int]:
    """[e_0, e_1, ..., e_l] evaluated at the numeric tuple ks."""
    es = [1] + [0] * len(ks)
    for k in ks:
        for j in range(len(es) - 1, 0, -1):
            es[j] += k * es[j - 1]
    return es


def e_power_value(beta: Composition, ks: Sequence[int]) -> int:
    es = elementary_symmetric_values(ks)
    return math.prod(es[j] ** b for j, b in enumerate(beta, start=1))


def ch_numeric(ks: Sequence[int], max_degree: int) -> XPolynomial:
    """Truncated product of the numeric power series sum_i k_j^i x_i.

    Every factor starts at degree 1, so a term of degree d meets only the
    factor terms of degree <= max_degree - d, and nothing above the
    truncation degree is ever formed.
    """
    if not ks or max_degree < 1:
        raise ValueError("need a nonempty k tuple and max_degree >= 1")
    out: dict[Partition, Coeff] = {(): 1}
    for k in ks:
        powers = [k**i for i in range(max_degree + 1)]
        step: dict[Partition, Coeff] = {}
        for lam, c in out.items():
            for i in range(1, max_degree - sum(lam) + 1):
                key = tuple(sorted(lam + (i,), reverse=True))
                step[key] = step.get(key, 0) + c * powers[i]
        out = {lam: c for lam, c in step.items() if c}
    return XPolynomial._canonical(out)


def chern_coefficients(
    ell: int, max_degree: int
) -> dict[tuple[int, ...], XPolynomial]:
    """The e_1 = 0 specialization: coefficient of e_2^{b2} ... e_l^{bl}.

    Keyed by the exponent vector (b2, ..., bl); the value is exactly the
    basis polynomial labelled (0, b2, ..., bl).  The keys come in the
    canonical order of those labels: by degree, then as enumerated.
    """
    if ell < 2 or max_degree < ell:
        raise ValueError("need max_degree >= ell >= 2")
    out: dict[tuple[int, ...], XPolynomial] = {}
    for n in range(ell, max_degree + 1):
        for beta in enumerate_compositions(n, ell, first=0):
            out[beta[1:]] = g_poly(beta)
    return out


# ---------------------------------------------------------------------------
# Lifts to twisted cohomology


def lift_tilde(beta: Composition, max_degree: int) -> XPolynomial:
    """The basis lift: sum over i of g_{(beta_1 + i, beta_2, ...)}.

    Truncated to total degree <= max_degree; the truncation F at N satisfies
    d(F) = F up to degree N - 1.
    """
    beta = tuple(beta)
    if not in_b0(beta) or beta == EMPTY:
        raise ValueError("lift_tilde needs a nonempty B(0) label")
    n = weight(beta)
    if max_degree < n:
        raise ValueError("max_degree below the degree of the polynomial")
    # the summands have pairwise distinct degrees
    out: dict[Partition, Coeff] = {}
    for i in range(0, max_degree - n + 1):
        out.update(g_poly((beta[0] + i,) + beta[1:]).terms)
    return XPolynomial._canonical(out)


def lift_exp(f: XPolynomial, max_degree: int) -> XPolynomial:
    """The exponential lift of a homogeneous invariant polynomial f.

    Applies exp(delta / l) to each length-l component.  The commutator of
    the lowering and raising derivations is the length operator, so with
    this normalization the truncation F at degree N satisfies d(F) = F up
    to degree N - 1; any other divisor breaks the lift law whenever the
    length differs from the degree.
    """
    if f.is_zero() or not f.is_homogeneous():
        raise ValueError("lift_exp needs a nonzero homogeneous polynomial")
    n = f.max_degree()
    if n < 1:
        raise ValueError("lift_exp needs positive degree")
    if not derivation_d(f).is_zero():
        raise ValueError("lift_exp needs an invariant polynomial (d f = 0)")
    if max_degree < n:
        raise ValueError("max_degree below the degree of the polynomial")
    # delta keeps the length and raises the degree, so every monomial of F
    # comes from exactly one (l, i), with coefficient c / (i! l^i)
    out: dict[Partition, Coeff] = {}
    for ell in {len(lam) for lam in f.terms}:
        term = XPolynomial._canonical(
            {lam: c for lam, c in f.terms.items() if len(lam) == ell}
        )
        denom = 1
        for i in range(0, max_degree - n + 1):
            if i > 0:
                term = derivation_delta(term)
                denom *= i * ell
            for lam, c in term.terms.items():
                out[lam] = Fraction(c, denom)
    return XPolynomial._canonical(out)
