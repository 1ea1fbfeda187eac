"""Independent verification and exploration of the invariant ring.

Re-derives the kernel of the lowering derivation by exact, sparse,
fraction-free integer elimination, tabulates dimensions two independent ways
(counting labels, and columns minus a rank of d that a unitriangular
certificate proves), expands the closed-form Poincare series, and searches
for algebra generators and their relations.
"""

from __future__ import annotations

from math import gcd, lcm
from operator import sub
from typing import Mapping, Optional, Sequence

from . import combinatorics, invariants, xring
from .combinatorics import (
    Composition,
    Partition,
    enumerate_partitions,
    from_leading_partition,
    composition_sort_key,
    weight,
)
from .xring import XPolynomial


# ---------------------------------------------------------------------------
# Exact integer linear algebra

SparseRow = dict[int, int]  # column -> nonzero entry


def _primitive(row: SparseRow) -> SparseRow:
    # divide by the content, making the entry in the first column positive
    g = gcd(*row.values())
    if row[min(row)] < 0:
        g = -g
    return row if g == 1 else {c: x // g for c, x in row.items()}


def _cancel(row: SparseRow, pivot_row: SparseRow, c: int) -> None:
    # row <- p*row - q*pivot_row, with p > 0 and q coprime, so that column c
    # cancels; entries that cancel are deleted
    g = gcd(pivot_row[c], row[c])
    p, q = pivot_row[c] // g, row[c] // g
    if p != 1:
        for k in row:
            row[k] *= p
    for k, x in pivot_row.items():
        y = row.get(k, 0) - q * x
        if y:
            row[k] = y
        else:
            del row[k]


def rref(rows: Sequence[Mapping]) -> tuple[list[dict], list]:
    """Reduced row echelon form over Z; returns (rows, pivot columns).

    Sparse, fraction-free Gauss-Jordan elimination over {column: entry}
    rows; zero entries are allowed.  Column keys need only be orderable, and
    columns are taken in their sorted order.  Each input row, sparsest
    first, is cancelled against the pivot rows at its first column (a row is
    only ever replaced by an integer combination of itself and a pivot row)
    until it starts a new pivot, which is made primitive; one back-reduction
    at the end clears the other pivot columns.  Each returned row is
    primitive, with a positive pivot and zeros in the other pivot columns:
    the primitive integer multiple of the reduced row over Q, which is
    unique, so the order in which the rows are taken does not matter.
    """
    work = [{c: x for c, x in r.items() if x} for r in rows]
    by_pivot: dict = {}
    for row in sorted(work, key=len):
        while row:
            c = min(row)
            pivot_row = by_pivot.get(c)
            if pivot_row is None:
                by_pivot[c] = _primitive(row)
                break
            _cancel(row, pivot_row, c)
    pivots = sorted(by_pivot)
    # back-reduction from the last pivot up: the rows cancelled against are
    # already reduced, so they bring no new entries into pivot columns
    for pc in reversed(pivots):
        row = by_pivot[pc]
        hits = [c for c in row if c != pc and c in by_pivot]
        for c in hits:
            _cancel(row, by_pivot[c], c)
        if hits:
            by_pivot[pc] = _primitive(row)
    return [by_pivot[pc] for pc in pivots], pivots


def nullspace(rows: Sequence[Mapping], ncols: int) -> list[SparseRow]:
    """Integer basis of {v : A v = 0}, one primitive vector per free column.

    The rows of A and the returned vectors are sparse {column: entry} dicts
    whose columns are 0..ncols-1.
    """
    red, pivots = rref(rows)
    pivot_set = set(pivots)
    # for each free column, the (pivot column, entry, pivot) of each reduced
    # row that has an entry there
    meets: dict[int, list[tuple[int, int, int]]] = {
        fc: [] for fc in range(ncols) if fc not in pivot_set
    }
    for row, pc in zip(red, pivots):
        for c, x in row.items():
            if c != pc:
                meets[c].append((pc, x, row[pc]))
    basis: list[SparseRow] = []
    for fc, entries in meets.items():
        scale = lcm(*(piv for _, _, piv in entries))
        v = {fc: scale}
        for pc, x, piv in entries:
            v[pc] = -x * scale // piv
        basis.append(_primitive(v))
    return basis


def _kernel(columns: Sequence[Mapping]) -> list[SparseRow]:
    # the kernel of the matrix with these sparse columns, in canonical form:
    # the rref of its integer nullspace basis.  Rows are keyed as in the
    # columns, and zero rows are left out; neither changes the row space
    rows: dict = {}
    for j, column in enumerate(columns):
        for i, x in column.items():
            rows.setdefault(i, {})[j] = x
    return rref(nullspace(list(rows.values()), len(columns)))[0]


# ---------------------------------------------------------------------------
# Kernel of the derivation


def _derivation_columns(
    domain: Sequence[Partition], codomain: Sequence[Partition]
) -> list[SparseRow]:
    # column j of the matrix of d from the (n, ell) monomials in domain to
    # the (n - 1, ell) ones in codomain, read off xring's lowering rule
    cod_pos = {mu: i for i, mu in enumerate(codomain)}
    try:
        return [
            {cod_pos[mu]: k for mu, k in xring.lowered(lam)} for lam in domain
        ]
    except KeyError as exc:
        (mu,) = exc.args
        lam = next(lam for lam in domain if mu in dict(xring.lowered(lam)))
        raise RuntimeError(
            f"d x_{lam} has the term x_{mu}, outside the slice "
            f"(n={sum(lam) - 1}, ell={len(lam)}) of its codomain"
        ) from None


def kernel_basis(n: int, ell: int) -> list[XPolynomial]:
    """Exact basis of the degree-n, length-ell slice of the kernel of d."""
    if n < 1 or ell < 1:
        raise ValueError("need n >= 1 and ell >= 1")
    domain = enumerate_partitions(n, ell)
    columns = _derivation_columns(domain, enumerate_partitions(n - 1, ell))
    return [
        XPolynomial({domain[j]: c for j, c in sorted(v.items())})
        for v in _kernel(columns)
    ]


def dimension_table(n_max: int) -> dict[int, list[int]]:
    """{n: [dim of slice (n, l) for l = 1..n]}, two ways and cross-checked.

    Counting method: |B_n^(l)(0)|.  Rank method: columns minus rank of the
    matrix of d on the (n, l) monomial slice, where the rank is the number
    of (n - 1, l) monomials: d is onto, which a unitriangular certificate
    proves without elimination.  For mu at codomain index i, the column of
    lam = (mu_1 + 1, mu_2, ...) has entry 1 at i, since lam_1 is a block of
    its own, and its other entries lower a later block, so they sit at
    lexicographically larger partitions, which the codomain lists first.
    The (n, l) monomials come from the previous degree's lists, through
    combinatorics.partitions_of_next_degree; the counting route counts the
    labels separately, by the recurrence of combinatorics.b0_counts.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    counts = combinatorics.b0_counts(n_max)
    dims: dict[int, list[int]] = {}
    # the partition lists of the previous degree at index ell, which are the
    # codomains of d; each degree's lists are built from the previous ones
    below: list[list[Partition]] = [[()]]
    for n in range(1, n_max + 1):
        row = []
        current = combinatorics.partitions_of_next_degree(below)
        for ell in range(1, n + 1):
            codomain = below[ell] if ell < n else []
            lifts = [(mu[0] + 1,) + mu[1:] for mu in codomain]
            for i, column in enumerate(_derivation_columns(lifts, codomain)):
                # an empty column fails the first test, so max never sees it
                if column.get(i) != 1 or max(column) > i:
                    raise RuntimeError(f"d is not onto at (n={n}, ell={ell})")
            by_count = counts[n][ell]
            by_rank = len(current[ell]) - len(codomain)
            if by_count != by_rank:
                raise RuntimeError(
                    f"dimension mismatch at (n={n}, ell={ell}): "
                    f"counting {by_count} vs kernel rank {by_rank}"
                )
            row.append(by_count)
        dims[n] = row
        below = current
    return dims


# ---------------------------------------------------------------------------
# Poincare series


def _divide_by_one_minus(series: list[int], step: int) -> None:
    # series <- series / (1 - t^step), truncated, in place: ascending m
    # reads the already divided coefficient at m - step
    for m in range(step, len(series)):
        series[m] += series[m - step]


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
        out = [0] * (order + 1)
        if ell <= order:
            out[ell] = 1
        for i in range(2, ell + 1):
            _divide_by_one_minus(out, i)
        return out
    out = [1] + [0] * order
    for i in range(2, order + 1):
        _divide_by_one_minus(out, i)
    out[1] += 1
    return out


def poincare_series_bivariate(order: int) -> list[dict[int, int]]:
    """Coefficient of t^n as {length: dim}; the auxiliary u-grading.

    The series is (1 - t) / prod_{i >= 1} (1 - u t^i) + t.  In the product
    u^l t^n has coefficient p(n, l), the number of partitions of n into
    exactly l parts, so row n >= 1 is {l: p(n, l) - p(n - 1, l)} (the + t
    cancels row 1 at l = 0) and row 0 is {0: 1}.  A partition has a part 1
    to drop or loses 1 from each part: p(n, l) = p(n-1, l-1) + p(n-l, l).
    """
    if order < 1:
        raise ValueError("need order >= 1")
    p = [[1] + [0] * order]  # p[n][l], zero for l > n
    out: list[dict[int, int]] = [{0: 1}]
    for n in range(1, order + 1):
        row = [0] + [p[n - 1][l - 1] + p[n - l][l] for l in range(1, n + 1)]
        p.append(row + [0] * (order - n))
        diffs = enumerate(map(sub, p[n], p[n - 1]))
        out.append({l: c for l, c in diffs if l and c})
    return out


# ---------------------------------------------------------------------------
# Generators and relations


def generator_candidates(n_max: int) -> list[Composition]:
    """B(0) labels whose leading monomial admits no product decomposition.

    A B(0) leading partition is (1) or has lam_1 = lam_2.  Such a lam is a
    union of two or more of them exactly when a second (lam_1, lam_1), a
    part 1, or a pair (v, v) of a smaller part v splits off.  So the
    candidates are (1) and the labels of lam = (v^j) + t with j in {2, 3} and
    t strictly decreasing with parts in [2, v - 1]; they are generated
    directly, in canonical order.
    """
    if n_max < 1:
        raise ValueError("need n_max >= 1")
    out: list[Composition] = [(1,)]
    for v in range(2, n_max // 2 + 1):
        # the tails of weight at most n_max - 2v, built by appending parts
        # in decreasing order, with their weights
        budget = n_max - 2 * v
        tails: list[tuple[Partition, int]] = [((), 0)]
        for p in range(min(v - 1, budget), 1, -1):
            tails += [(t + (p,), w + p) for t, w in tails if w + p <= budget]
        for j in (2, 3):
            out.extend(
                from_leading_partition((v,) * j + t)
                for t, w in tails
                if j * v + w <= n_max
            )
    out.sort(key=composition_sort_key)
    return out


Monomial = tuple[Composition, ...]  # sorted multiset of generator labels
Relation = dict[Monomial, int]


def _monomials_of_weight(
    generators: Sequence[Composition], target: int
) -> list[Monomial]:
    """The monomials of weight target in the generators, as sorted tuples.

    They come in depth-first order: over the generators in canonical order,
    the most copies of each first.  That order fixes the columns of
    find_relations, and with them the canonical rows of its kernel.  Bit w
    of reach[k] is set iff gens[k:] make weight w exactly; the search takes
    only branches whose remaining weight is reachable, so each ends in a
    monomial.
    """
    gens = sorted(generators, key=composition_sort_key)
    weights = [weight(g) for g in gens]
    if min(weights, default=1) < 1:
        raise ValueError("generators need positive weight")
    if target < 1:
        return []
    mask = (1 << (target + 1)) - 1
    reach = [1] * (len(gens) + 1)
    for k in range(len(gens) - 1, -1, -1):
        made = shifted = reach[k + 1]
        while shifted:
            shifted = (shifted << weights[k]) & mask
            made |= shifted
        reach[k] = made
    out: list[Monomial] = []

    def rec(idx: int, remaining: int, acc: Monomial) -> None:
        # extend acc by each monomial of weight remaining > 0 in gens[idx:],
        # taking gens[k] next for k = idx, idx + 1, ... in turn
        for k in range(idx, len(gens)):
            if not reach[k] >> remaining & 1:
                return  # reach[k] holds every later reach[k']
            g, w, later = gens[k], weights[k], reach[k + 1]
            for copies in range(remaining // w, 0, -1):
                left = remaining - copies * w
                if not left:
                    out.append(acc + (g,) * copies)
                elif later >> left & 1:
                    rec(k + 1, left, acc + (g,) * copies)

    rec(0, target, ())
    return out


def _monomial_products(
    monomials: Sequence[Monomial],
) -> list[invariants.JCombination]:
    # the abstract product of each generator monomial, folded over its
    # factors in order, with one j_product per distinct prefix: a monomial's
    # product is that of its prefix without the last factor, times that factor
    products: dict[Monomial, invariants.JCombination] = {(): {(): 1}}

    def product(mono: Monomial) -> invariants.JCombination:
        comb = products.get(mono)
        if comb is None:
            comb = invariants.j_product(product(mono[:-1]), {mono[-1]: 1})
            products[mono] = comb
        return comb

    return [product(mono) for mono in monomials]


def find_relations(
    degree: int, generators: Sequence[Composition]
) -> list[Relation]:
    """Integer basis of the linear relations among degree-n generator monomials.

    Each relation maps a monomial (sorted tuple of generator labels) to an
    integer coefficient; the corresponding combination of products of basis
    polynomials is zero.
    """
    monomials = _monomials_of_weight(generators, degree)
    # one column per monomial: its product over the B(0) labels
    kernel = _kernel(_monomial_products(monomials))
    return [{monomials[j]: c for j, c in sorted(v.items())} for v in kernel]
