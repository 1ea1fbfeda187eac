"""Symmetric polynomials in k_1, ..., k_l and the e -> m transition matrix.

For fixed degree n and length l the transition matrix M is defined by
m_lambda = sum_beta M[lambda][beta] e^beta, with lambda running over the
partitions of n with exactly l parts and e^beta = e_1^{beta_1} ... e_l^{beta_l}.
Its columns are the coefficient vectors of the invariant basis polynomials.

A symmetric polynomial is kept as {mu: coefficient of m_mu}, mu a weakly
decreasing l-tuple with zeros allowed.  Multiplying by e_j raises j parts of
mu by one: choose t_v copies of each distinct part v with sum t_v = j, giving
nu with coefficient prod_v C(mult_nu(v + 1), t_v), the number of ways to pick
which parts of nu came from raising (Macdonald, Symmetric Functions and Hall
Polynomials, I.6).  Raising the j largest parts gives the dominance-largest
term, with coefficient 1.  For j = 1 this is the one-box rule: nu is mu with
the first part of one block of equal parts v raised, with coefficient
mult_nu(v + 1), so the terms are read off in one scan of mu's blocks; most
Pieri steps of a build are by e_1, and the general expansion, which builds
a tuple per partial, would build O(b^2) tuples for the b terms.

A slice's rows are solved from the dominance-smallest lambda upwards, each
row in one of three ways: as an e_l shift, as a Pieri step, or, in a stable
slice, as a shared row.  The one partition with lambda_1 = 1 is (1^l), and
m_{1^l} = e_l.

An e_l shift.  In l variables e_l = k_1 ... k_l, so e_l m_mu = m_{mu + (1^l)}
for every mu with at most l parts (Macdonald, I.2 and I.6).  If lambda has
no part 1, mu = lambda - (1^l) lies in slice (n - l, l), and the row of
lambda is the row of mu relabelled by e_l e^beta = e^{beta + u_l}, with no
subtraction.

A Pieri step.  If lambda ends in a part 1, let j be the number of parts
equal to lambda_1 and mu be lambda with those j parts lowered by one; mu
lies in slice (n - j, l) and

    m_lambda = e_j m_mu - sum_{nu != lambda} c_nu m_nu.

The row of mu becomes a row of slice (n, l) by e_j e^beta = e^{beta + u_j},
and every other nu is dominance-smaller than lambda in the same slice, so
its row is already solved.  (The shift is the case j = l, which has no
other nu.)  A build therefore reads the rows of the earlier slices of its
length from the memo, and transition_matrix fills those in increasing n
first.  expand_elementary_product multiplies out e^beta for every label
of a slice with the same rule; the build does not need it.

A shared row.  A slice with 2l > n is stable: it holds the rows of slice
(n - 1, l - 1) entry for entry.  Each lambda in it ends in a part 1, and
m_lambda = e_l m_mu with mu = lambda - (1^l) of weight n - l < l, while
kappa, lambda without its last part, has m_kappa = e_{l-1} m_mu in l - 1
variables.  A symmetric function of degree d has one e-expansion in any
number >= d of variables (Macdonald, I.2), so m_mu = sum c_gamma e^gamma
in both, and the two rows differ only in their labels, gamma + u_l
against gamma + u_{l-1}.  These lead with kappa + (1) and kappa, and
kappa -> kappa + (1) maps the partitions of (n - 1, l - 1) onto those of
(n, l) in order, so the k-th label of one slice stands for the k-th of the
other.  When (n - 1, l - 1) is stored, a stable slice is built by
appending the part 1 to its partitions and keeping its list of rows, with
no Pieri step; an ascending sweep, which asks for (n - 1, l - 1) first,
builds every stable slice so.  Otherwise, as in a cold chain of one
length, the Pieri steps run.

A slice is stored once, as its partitions and its rows in index form: row
i belongs to the i-th partition and maps k to the entry at the k-th label,
the composition whose leading partition is the k-th partition.  On leading
partitions beta + u_j adds 1 to the first j parts, and that raise maps the
partitions of slice (n - j, l), in order, onto those lambda of slice (n, l)
with lambda_j > lambda_(j+1) (with lambda_l >= 2 for j = l).  So the
relabel from slice (n - j, l) is one list of positions per (slice, j), read
off the slice's own partitions by that test, and a build forms no raised
partition and no label.  The labels compositions and the keyed form
entries are views, built on first read.
"""

from __future__ import annotations

import functools
import math
from bisect import bisect_left
from typing import Optional

from .combinatorics import (
    Composition,
    Partition,
    enumerate_compositions,
    enumerate_partitions,
    from_leading_partition,
    is_composition,
    weight,
)


def _raise_terms(mu: Partition, j: int) -> list[tuple[Partition, int]]:
    # the terms (nu, coefficient) of m_mu * e_j (mu weakly decreasing, zeros
    # allowed), in increasing order of nu
    if j == 1:
        # e_1's one-box rule, first since most Pieri steps of a build take
        # it: raise the first part v of each block; the coefficient, nu's
        # count of parts v + 1, adds the block before when its parts are v + 1
        terms = []
        prev = None
        last = 0
        for i, v in enumerate(mu):
            if v != prev:
                coeff = i - last + 1 if prev == v + 1 else 1
                terms.append((mu[:i] + (v + 1,) + mu[i + 1:], coeff))
                last = i
                prev = v
        terms.reverse()
        return terms
    # each partial is (parts of nu so far, coefficient, raises left,
    # unraised copies of the previous value), extended one block of equal
    # parts at a time, left to right
    partial = [((), 1, j, 0)]
    size = len(mu)
    prev = None
    start = 0
    while start < size:
        v = mu[start]
        end = start + 1
        while end < size and mu[end] == v:
            end += 1
        m, room = end - start, size - end
        step = []
        for parts, coeff, left, kept in partial:
            if prev != v + 1:
                kept = 0
            for t in range(max(0, left - room), min(m, left) + 1):
                step.append((
                    parts + (v + 1,) * t + (v,) * (m - t),
                    coeff * math.comb(kept + t, t),
                    left - t,
                    m - t,
                ))
        partial = step
        prev = v
        start = end
    return [(nu, coeff) for nu, coeff, _, _ in partial]


def expand_elementary_product(n: int, ell: int) -> list[dict[Partition, int]]:
    """The coefficients over the m_lambda basis, in l variables, of e^beta
    for every label beta of slice (n, l), n >= l >= 1 required.

    The labels come in the order of transition_matrix(n, ell).compositions.
    Each e^beta is multiplied out by e_1, ..., e_{l-1} in turn in partition
    space.  The e_l^{beta_l} factor comes first, as the start state
    m_{(beta_l^l)}: multiplying by e_l^s adds s to every part, and the
    Pieri coefficients depend only on the multiplicities of equal parts,
    which that shift keeps.  So every lambda that appears has exactly l
    parts.  The terms of each m_mu * e_j are generated once for the slice.
    """
    if not n >= ell >= 1:
        raise ValueError("expand_elementary_product requires n >= ell >= 1")
    # raises[j][mu] holds the terms of m_mu * e_j
    raises: dict[int, dict] = {j: {} for j in range(1, ell)}
    expansions = []
    for beta in enumerate_compositions(n, ell):
        state: dict[Partition, int] = {(beta[-1],) * ell: 1}
        for j in range(1, ell):
            table = raises[j]
            for _ in range(beta[j - 1]):
                out: dict[Partition, int] = {}
                for mu, c in state.items():
                    terms = table.get(mu)
                    if terms is None:
                        terms = table[mu] = _raise_terms(mu, j)
                    for nu, k in terms:
                        out[nu] = out.get(nu, 0) + c * k
                state = out
        expansions.append(state)
    return expansions


class TransitionMatrix:
    """Integer matrix M with m_lambda = sum_beta M[lambda][beta] e^beta.

    A slice stores partitions and index_rows: index_rows[i][k] is
    M[partitions[i]][compositions[k]], zero entries omitted.  A stable slice
    (n, l), 2l > n, may hold the very list of slice (n - 1, l - 1), so
    index_rows is read-only.  The labels compositions, the k-th leading with
    the k-th partition, and entries, keyed by (partition, composition), are
    views, built on first read.
    """

    def __init__(self, n: int, ell: int, partitions: list[Partition], rows: list[dict[int, int]]):
        self.n = n
        self.ell = ell
        self.partitions = partitions
        self.index_rows = rows

    @functools.cached_property
    def compositions(self) -> list[Composition]:
        return [from_leading_partition(lam) for lam in self.partitions]

    @functools.cached_property
    def entries(self) -> dict[tuple[Partition, Composition], int]:
        """{(lambda, beta): entry}, zero entries omitted."""
        comps = self.compositions
        return {
            (lam, comps[k]): c
            for lam, row in zip(self.partitions, self.index_rows)
            for k, c in row.items()
        }

    def entry(self, lam: Partition, beta: Composition) -> int:
        return self.entries.get((lam, beta), 0)

    def g_column(self, beta: Composition) -> dict[Partition, int]:
        """Coefficients of the invariant polynomial labelled by beta."""
        k = self.compositions.index(beta)
        return {
            lam: row[k] for lam, row in zip(self.partitions, self.index_rows) if k in row
        }


_memo: dict[tuple[int, int], TransitionMatrix] = {}


def _build_transition_matrix(n: int, ell: int) -> TransitionMatrix:
    # a stable slice shares the rows of (n - 1, ell - 1) when that is stored;
    # otherwise reads the rows of the slices (n - j, ell), 1 <= j <= ell
    if 2 * ell > n and (n - 1, ell - 1) in _memo:
        below = _memo[(n - 1, ell - 1)]
        partitions = [kappa + (1,) for kappa in below.partitions]
        return TransitionMatrix(n, ell, partitions, below.index_rows)
    partitions = enumerate_partitions(n, ell)
    position = {lam: i for i, lam in enumerate(partitions)}
    # shifts[j][k] is the position of the k-th partition of slice (n - j, ell)
    # with its first j parts raised by one: e_j * e^beta = e^(beta + u_j)
    shifts: dict[int, list[int]] = {}
    rows: list[Optional[dict[int, int]]] = [None] * len(partitions)
    # one row per partition, from the dominance-smallest upwards
    for i in range(len(partitions) - 1, -1, -1):
        lam = partitions[i]
        top = lam[0]
        if top == 1:
            # m_(1^l) = e_l, whose label (0, ..., 0, 1) leads with (1^l)
            rows[i] = {i: 1}
            continue
        # an e_l shift when lambda has no part 1, else a Pieri step by e_j
        j = ell if lam[-1] > 1 else lam.count(top)
        below = _memo[(n - j, ell)]
        shift = shifts.get(j)
        if shift is None:
            shift = shifts[j] = _raised_positions(partitions, j)
        # the row of lambda with its first j parts lowered, relabelled by u_j
        expr = {shift[k]: c for k, c in below.index_rows[bisect_left(shift, i)].items()}
        if j == ell:
            # e_l m_(lambda - (1^l)) = m_lambda: the shifted row alone
            rows[i] = expr
            continue
        mu = (top - 1,) * j + lam[j:]
        for nu, c in _raise_terms(mu, j):
            if nu == lam:
                if c != 1:
                    raise RuntimeError(f"e_{j} * m_{mu} has no unit term at {lam}")
                continue
            lower = rows[position[nu]]
            if lower is None:
                raise RuntimeError(f"e_{j} * m_{mu} is not triangular at {nu}")
            for k, d in lower.items():
                expr[k] = expr.get(k, 0) - c * d
        # most steps cancel no entry, and their row is stored as it stands
        rows[i] = expr if 0 not in expr.values() else _drop_zeros(expr)
    return TransitionMatrix(n, ell, partitions, rows)


def _raised_positions(partitions: list[Partition], j: int) -> list[int]:
    # raising the first j parts maps the partitions of slice (n - j, l), in
    # order, onto those lambda of slice (n, l) with lambda_j > lambda_(j+1),
    # or lambda_l >= 2 when j = l; this lists their positions in partitions
    if j == len(partitions[0]):
        return [k for k, lam in enumerate(partitions) if lam[-1] > 1]
    return [k for k, lam in enumerate(partitions) if lam[j - 1] > lam[j]]


def _drop_zeros(expr: dict[int, int]) -> dict[int, int]:
    # a Pieri row without the entries its subtractions cancelled
    return {k: c for k, c in expr.items() if c}


def _fill_memo(n: int, ell: int) -> None:
    # build the missing slices (m, ell), m <= n, in increasing m: a loop and
    # not a recursion, so the depth does not grow with n.  A Pieri build
    # reads the ell slices below it, so each slice this loop adds is dropped
    # again once no later build reads it; otherwise a cold (n, 2) would keep
    # O(n^3) entries where the slice itself has O(n^2).  A stable slice that
    # shares the rows of a stored (m - 1, ell - 1) reads nothing of its chain
    added: list[int] = []
    for m in range(ell, n + 1):
        if (m, ell) not in _memo:
            _memo[(m, ell)] = _build_transition_matrix(m, ell)
            added.append(m)
        while added and added[0] <= m - ell:
            del _memo[(added.pop(0), ell)]


def transition_matrix(n: int, ell: int) -> TransitionMatrix:
    """Memoized transition matrix for (n, ell); n >= ell >= 1 required."""
    if not n >= ell >= 1:
        raise ValueError("transition_matrix requires n >= ell >= 1")
    if (n, ell) not in _memo:
        _fill_memo(n, ell)
    return _memo[(n, ell)]


def waring_coefficient(beta: Composition) -> int:
    """Closed form for the coefficient of x_omega in g_beta.

    omega = (n - l + 1, 1, ..., 1) is the dominance-largest partition; the
    coefficient never vanishes, and equals 1 exactly when n = l.
    """
    if not is_composition(beta) or len(beta) < 1:
        raise ValueError(f"{beta} is not a valid index")
    ell = len(beta)
    n = weight(beta)
    if n == ell:
        return 1
    s = sum(beta)
    even_sum = sum(beta[i] for i in range(1, ell, 2))
    sign = (-1) ** (ell + 1 + even_sum)
    # (n - l) / (s - 1) * (s - 1)! is (n - l) (s - 2)!, and s >= 2 since n != l
    value, rest = divmod(
        (n - ell) * math.factorial(s - 2) * beta[-1],
        math.prod(math.factorial(b) for b in beta),
    )
    if rest:
        raise RuntimeError(f"Waring coefficient for {beta} is not an integer")
    return sign * value
