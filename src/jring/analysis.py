"""Independent verification and exploration of the invariant ring.

Re-derives the kernel of the lowering derivation by exact, fraction-free
integer elimination, tabulates dimensions two independent ways, expands the
closed-form Poincare series, and searches for algebra generators and their
relations.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as iproduct
from math import gcd, lcm
from typing import Optional, Sequence

from . import invariants, symfun
from .combinatorics import (
    Composition,
    Partition,
    enumerate_compositions,
    enumerate_partitions,
    leading_partition,
    composition_sort_key,
    weight,
)
from .xring import XPolynomial, derivation_d


# ---------------------------------------------------------------------------
# Exact integer linear algebra

Row = list[int]


def _primitive(row: Row) -> Row:
    # divide by the content, making the first nonzero entry positive
    g = gcd(*row)
    if g == 0:
        return row
    if next(x for x in row if x) < 0:
        g = -g
    return [x // g for x in row]


def rref(rows: list[Row]) -> tuple[list[Row], list[int]]:
    """Reduced row echelon form over Z; returns (rows, pivot columns).

    Fraction-free Gauss-Jordan elimination: a row is only ever replaced by
    an integer combination of itself and the pivot row, divided by its
    content.  Each returned row is primitive, with a positive pivot and zeros
    in the other pivot columns: the primitive integer multiple of the
    reduced row over Q.
    """
    rows = [list(r) for r in rows]
    pivots: list[int] = []
    r = 0
    for c in range(len(rows[0]) if rows else 0):
        live = [i for i in range(r, len(rows)) if rows[i][c]]
        if not live:
            continue
        # the smallest pivot keeps the entries tame
        best = min(live, key=lambda i: abs(rows[i][c]))
        rows[r], rows[best] = rows[best], rows[r]
        pivot_row = rows[r] = _primitive(rows[r])
        piv = pivot_row[c]
        for i, row in enumerate(rows):
            a = row[c]
            if a and i != r:
                g = gcd(piv, a)
                p, q = piv // g, a // g
                rows[i] = _primitive(
                    [p * x - q * y for x, y in zip(row, pivot_row)]
                )
        pivots.append(c)
        r += 1
        if r == len(rows):
            break
    return rows[:r], pivots


def nullspace(rows: list[Row], ncols: int) -> list[Row]:
    """Integer basis of {v : A v = 0}, one vector per non-pivot column."""
    red, pivots = rref(rows)
    free = [c for c in range(ncols) if c not in pivots]
    scale = lcm(*(row[pc] for row, pc in zip(red, pivots)))
    basis: list[Row] = []
    for fc in free:
        v = [0] * ncols
        v[fc] = scale
        for row, pc in zip(red, pivots):
            v[pc] = -row[fc] * scale // row[pc]
        basis.append(_primitive(v))
    return basis


def in_span(vector: Row, basis: list[Row]) -> bool:
    """True iff vector is a rational linear combination of the basis rows.

    That is, iff appending it to the rows leaves the rank unchanged.
    """
    return len(rref(list(basis) + [vector])[1]) == len(rref(basis)[1])


# ---------------------------------------------------------------------------
# Kernel of the derivation


def kernel_basis(n: int, ell: int) -> list[XPolynomial]:
    """Exact basis of the degree-n, length-ell slice of the kernel of d."""
    if n < 1 or ell < 1:
        raise ValueError("need n >= 1 and ell >= 1")
    domain = enumerate_partitions(n, ell)
    codomain = enumerate_partitions(n - 1, ell)
    if not domain:
        return []
    cod_pos = {lam: i for i, lam in enumerate(codomain)}
    rows = [[0] * len(domain) for _ in codomain]
    for j, lam in enumerate(domain):
        for mu, c in derivation_d(XPolynomial.monomial(lam)).terms.items():
            rows[cod_pos[mu]][j] += c
    # canonical form: echelonize the kernel basis itself
    vectors, _ = rref(nullspace(rows, len(domain)))
    return [
        XPolynomial({lam: c for lam, c in zip(domain, v) if c != 0})
        for v in vectors
    ]


@dataclass
class DimensionTable:
    """dim of each (degree, length) slice of the kernel, with row totals."""

    n_max: int
    dims: dict[int, list[int]]  # dims[n][ell - 1] for ell = 1..n
    totals: dict[int, int]

    def cell(self, n: int, ell: int) -> int:
        row = self.dims[n]
        return row[ell - 1] if 1 <= ell <= len(row) else 0


def dimension_table(n_max: int) -> DimensionTable:
    """Kernel dimensions computed two independent ways and cross-checked.

    Counting method: |B_n^(l)(0)|.  Rank method: columns minus rank of the
    matrix of d on the (n, l) monomial slice.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    dims: dict[int, list[int]] = {}
    totals: dict[int, int] = {}
    for n in range(1, n_max + 1):
        row = []
        for ell in range(1, n + 1):
            by_count = len(enumerate_compositions(n, ell, first=0))
            by_rank = len(kernel_basis(n, ell))
            if by_count != by_rank:
                raise RuntimeError(
                    f"dimension mismatch at (n={n}, ell={ell}): "
                    f"counting {by_count} vs kernel rank {by_rank}"
                )
            row.append(by_count)
        dims[n] = row
        totals[n] = sum(row)
    return DimensionTable(n_max, dims, totals)


def g_expansion(p: XPolynomial, n: int, ell: int) -> dict[Composition, Fraction]:
    """Expand a homogeneous (n, ell) polynomial over the g_beta basis."""
    tm = symfun.transition_matrix(n, ell)
    return tm.solve_g_coefficients(dict(p.terms))


# ---------------------------------------------------------------------------
# Poincare series


def _series_mul(a: list, b: list, order: int) -> list:
    out = [0] * (order + 1)
    for i, ai in enumerate(a):
        if ai == 0:
            continue
        for j in range(0, order + 1 - i):
            if b[j] != 0:
                out[i + j] += ai * b[j]
    return out


def _geometric(step: int, order: int) -> list[int]:
    # 1 / (1 - t^step) truncated
    out = [0] * (order + 1)
    for m in range(0, order + 1, step):
        out[m] = 1
    return out


def poincare_series(order: int, ell: Optional[int] = None) -> list[int]:
    """Coefficients (index 0..order) of the dimension generating function.

    With ell given, the single-length series t^l / ((1-t^2)...(1-t^l));
    otherwise the total series 1/((1-t^2)(1-t^3)...) + t, with the infinite
    product truncated at factor index = order.
    """
    if order < 1:
        raise ValueError("need order >= 1")
    if ell is not None:
        if ell < 0:
            raise ValueError("need ell >= 0")
        if ell == 0:
            return [1] + [0] * order
        if ell == 1:
            return [0, 1] + [0] * (order - 1)
        out = [0] * (order + 1)
        if ell <= order:
            out[ell] = 1
        for i in range(2, ell + 1):
            out = _series_mul(out, _geometric(i, order), order)
        return out
    out = [1] + [0] * order
    for i in range(2, order + 1):
        out = _series_mul(out, _geometric(i, order), order)
    out[1] += 1
    return out


def poincare_series_bivariate(order: int) -> list[dict[int, int]]:
    """Coefficient of t^n as {length: dim}; the auxiliary u-grading.

    Expands (1 - t) / prod_i (1 - u t^i) + t, truncating the product at
    factor index = order.
    """
    if order < 1:
        raise ValueError("need order >= 1")
    out: list[dict[int, int]] = [{0: 1}] + [{} for _ in range(order)]
    for i in range(1, order + 1):
        # multiply by 1 / (1 - u t^i) = sum_m u^m t^{i m}
        nxt: list[dict[int, int]] = [dict(c) for c in out]
        for m in range(1, order // i + 1):
            for n in range(0, order + 1 - i * m):
                for l, c in out[n].items():
                    key = l + m
                    tgt = nxt[n + i * m]
                    tgt[key] = tgt.get(key, 0) + c
        out = nxt
    # multiply by (1 - t)
    final: list[dict[int, int]] = [{} for _ in range(order + 1)]
    for n in range(order + 1):
        for l, c in out[n].items():
            final[n][l] = final[n].get(l, 0) + c
        if n >= 1:
            for l, c in out[n - 1].items():
                final[n][l] = final[n].get(l, 0) - c
    final[1][0] = final[1].get(0, 0) + 1
    return [{l: c for l, c in row.items() if c != 0} for row in final]


# ---------------------------------------------------------------------------
# Generators and relations


def _is_leading_of_b0(lam: Partition) -> bool:
    # leading partitions of nontrivial B(0) labels: (1), or lam_1 == lam_2
    if lam == (1,):
        return True
    return len(lam) >= 2 and lam[0] == lam[1]


def _proper_sub_multisets(lam: Partition) -> list[Partition]:
    parts = sorted(set(lam), reverse=True)
    mults = [lam.count(p) for p in parts]
    subs: list[Partition] = []
    for choice in iproduct(*(range(m + 1) for m in mults)):
        sub = tuple(
            p for p, c in zip(parts, choice) for _ in range(c)
        )
        if sub and sub != lam:
            subs.append(sub)
    return subs


@lru_cache(maxsize=None)
def _decomposable(lam: Partition) -> bool:
    # can lam be written as a multiset union of >= 1 B(0) leading partitions?
    if _is_leading_of_b0(lam):
        return True
    return _splits_properly(lam)


@lru_cache(maxsize=None)
def _splits_properly(lam: Partition) -> bool:
    # union of >= 2 leading partitions, each of strictly smaller weight
    for mu in _proper_sub_multisets(lam):
        if not _is_leading_of_b0(mu):
            continue
        rest = Counter(lam) - Counter(mu)
        remainder = tuple(sorted(rest.elements(), reverse=True))
        if _decomposable(remainder):
            return True
    return False


def generator_candidates(n_max: int) -> list[Composition]:
    """B(0) labels whose leading monomial admits no product decomposition."""
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    out: list[Composition] = []
    for n in range(1, n_max + 1):
        for ell in range(1, n + 1):
            for beta in enumerate_compositions(n, ell, first=0):
                if not _splits_properly(leading_partition(beta)):
                    out.append(beta)
    out.sort(key=composition_sort_key)
    return out


Monomial = tuple[Composition, ...]  # sorted multiset of generator labels
Relation = dict[Monomial, int]


def _monomials_of_weight(
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
        if idx == len(gens):
            return
        w = weights[idx]
        max_copies = remaining // w
        for copies in range(max_copies, -1, -1):
            rec(idx + 1, remaining - copies * w, acc + [gens[idx]] * copies)

    rec(0, target, [])
    return out


def evaluate_monomial(monomial: Monomial) -> invariants.JCombination:
    """Fold the abstract product over the factors of a generator monomial."""
    comb: invariants.JCombination = {(): 1}
    for beta in monomial:
        comb = invariants.j_product(comb, {beta: 1})
    return comb


def find_relations(
    degree: int, generators: Sequence[Composition]
) -> list[Relation]:
    """Integer basis of the linear relations among degree-n generator monomials.

    Each relation maps a monomial (sorted tuple of generator labels) to an
    integer coefficient; the corresponding combination of products of basis
    polynomials is zero.
    """
    monomials = _monomials_of_weight(generators, degree)
    if not monomials:
        return []
    basis = [
        beta
        for ell in range(1, degree + 1)
        for beta in enumerate_compositions(degree, ell, first=0)
    ]
    pos = {beta: i for i, beta in enumerate(basis)}
    # rows of the system are indexed by basis labels, columns by monomials
    rows = [[0] * len(monomials) for _ in basis]
    for j, mono in enumerate(monomials):
        for beta, c in evaluate_monomial(mono).items():
            rows[pos[beta]][j] = c
    kernel, _ = rref(nullspace(rows, len(monomials)))
    return [{m: c for m, c in zip(monomials, v) if c != 0} for v in kernel]


def relation_vector(
    relation: Relation, monomials: Sequence[Monomial]
) -> Row:
    return [relation.get(m, 0) for m in monomials]


def relation_in_span(relation: Relation, relations: Sequence[Relation]) -> bool:
    """Membership of a relation in the span of a computed relation basis."""
    monomials = sorted(
        {m for r in list(relations) + [relation] for m in r}
    )
    basis = [relation_vector(r, monomials) for r in relations]
    return in_span(relation_vector(relation, monomials), basis)
