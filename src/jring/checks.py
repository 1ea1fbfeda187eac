"""Cross-checks between jring's independent computation routes.

Each identity is written once, over one (n, l) slice or one weight bound;
``jring verify`` and the tests both call it.  jring functions are reached
through their modules, so a wrapped or patched function is the one checked.
"""

import math
from typing import Callable, Optional

from . import analysis, combinatorics, invariants, symfun, xring
from .combinatorics import Composition


def b0_labels(max_weight: int) -> list[Composition]:
    """The B(0) labels of weight 1..max_weight, in canonical order."""
    return [
        beta
        for n in range(1, max_weight + 1)
        for ell in range(1, n + 1)
        for beta in combinatorics.enumerate_compositions(n, ell, first=0)
    ]


def table_routes_agree(max_n: int) -> bool:
    """The table's counting and kernel-rank routes agree (it raises if not)."""
    return bool(analysis.dimension_table(max_n))


def series_matches_table(max_n: int) -> bool:
    """The Poincare series is the table's row sums."""
    dims = analysis.dimension_table(max_n)
    series = analysis.poincare_series(max_n)
    return all(series[n] == sum(dims[n]) for n in range(1, max_n + 1))


def bivariate_matches_table(max_n: int) -> bool:
    """The bivariate Poincare series is the table, row by row."""
    dims = analysis.dimension_table(max_n)
    rows = analysis.poincare_series_bivariate(max_n)
    return all(
        rows[n] == {ell: d for ell, d in enumerate(dims[n], 1) if d}
        for n in range(1, max_n + 1)
    )


def expansion_inverts_matrix(n: int, ell: int) -> bool:
    """E M = I on slice (n, l), summed over the nonzero terms of each e^beta."""
    tm = symfun.transition_matrix(n, ell)
    position = {lam: i for i, lam in enumerate(tm.partitions)}
    for k, expansion in enumerate(symfun.expand_elementary_product(n, ell)):
        row: dict[int, int] = {}
        for lam, c in expansion.items():
            for k2, m in tm.index_rows[position[lam]].items():
                row[k2] = row.get(k2, 0) + c * m
        if {k2: x for k2, x in row.items() if x} != {k: 1}:
            return False
    return True


def waring_matches_matrix(n: int, ell: int) -> bool:
    """The nonzero closed form equals each entry at (n - l + 1, 1, ..., 1)."""
    tm = symfun.transition_matrix(n, ell)
    omega = tm.index_rows[tm.partitions.index((n - ell + 1,) + (1,) * (ell - 1))]
    values = (
        (symfun.waring_coefficient(b), omega.get(k, 0)) for k, b in enumerate(tm.compositions)
    )
    return all(0 != closed == entry for closed, entry in values)


def transpose_symmetric(max_n: int) -> bool:
    """M is symmetric under conjugation, on the slices of weight n <= max_n.

    e_lambda = sum_mu a_(lambda mu) m_mu, where a_(lambda mu) counts the 0-1
    matrices with row sums lambda and column sums mu (Macdonald, I.6).  That
    matrix is symmetric, so its inverse is too, and e^beta = e_(conj lead
    beta).  So at row lambda and label beta of slice (n, l), with b the sum
    of beta (the first part of lead beta):
    - if lambda_1 < b, the entry is 0;
    - if lambda_1 = b, it is the entry of slice (n, b) at row conj(lead beta)
      and label from_leading_partition(conj lambda).
    The pairs with lambda_1 > b meet slices of weight up to 2n and are not
    read.  Only stored rows are read, so the check does not rest on the
    Pieri steps or on the e^beta expansion.
    """
    for n in range(1, max_n + 1):
        slices = [symfun.transition_matrix(n, ell) for ell in range(1, n + 1)]
        position = {lam: i for tm in slices for i, lam in enumerate(tm.partitions)}
        # the position of each partition's conjugate, in the slice of its length
        flip = {
            lam: position[tuple(sum(p > i for p in lam) for i in range(lam[0]))]
            for lam in position
        }
        for tm in slices:
            firsts = [mu[0] for mu in tm.partitions]
            for lam, row in zip(tm.partitions, tm.index_rows):
                # the labels with b = lambda_1 form one run in lexicographic
                # order; the run before it has b > lambda_1
                top = lam[0]
                lo = firsts.index(top)
                if row and min(row) < lo:
                    return False
                other = slices[top - 1].index_rows
                col = flip[lam]
                for k in range(lo, lo + firsts.count(top)):
                    if row.get(k, 0) != other[flip[tm.partitions[k]]].get(col, 0):
                        return False
    return True


def derivation_lowers_first_index(n: int, ell: int) -> bool:
    """d g_beta is zero on B(0), else g_(beta_1 - 1, beta_2, ...) and nonzero."""
    for beta in combinatorics.enumerate_compositions(n, ell):
        image = xring.derivation_d(invariants.g_poly(beta))
        if combinatorics.in_b0(beta):
            ok = image.is_zero()
        else:
            lowered = invariants.g_poly((beta[0] - 1,) + beta[1:])
            ok = not image.is_zero() and image == lowered
        if not ok:
            return False
    return True


def kernel_matches_basis(n: int, ell: int) -> bool:
    """The kernel of d on slice (n, l) is the span of g_beta, beta in B_n^(l)(0).

    The kernel comes from elimination.  Both sides are rows keyed by
    partition, and their reduced echelon forms are canonical, so the spans
    are equal exactly when the forms are.
    """
    kernel = [p.terms for p in analysis.kernel_basis(n, ell)]
    basis = [
        invariants.g_poly(beta).terms
        for beta in combinatorics.enumerate_compositions(n, ell, first=0)
    ]
    return analysis.rref(kernel)[0] == analysis.rref(basis)[0]


def products_realize(max_weight: int) -> bool:
    """realize(g_b g_b') = g_b * g_b' for B(0) labels b, b' up to max_weight."""
    labels = b0_labels(max_weight)
    return all(
        invariants.realize(invariants.j_product({b1: 1}, {b2: 1}))
        == invariants.g_poly(b1) * invariants.g_poly(b2)
        for b1 in labels
        for b2 in labels
    )


def lift_law(beta: Composition, max_degree: int) -> bool:
    """Both lifts F of g_beta to degree N = max_degree satisfy the lift law.

    The degree-weight(beta) part of F is g_beta, and d F = F truncated to
    degree N - 1.
    """
    n = combinatorics.weight(beta)
    f = invariants.g_poly(beta)
    return all(
        xring.project(F, n) == f and xring.derivation_d(F) == xring.truncate(F, max_degree - 1)
        for F in (invariants.lift_tilde(beta, max_degree), invariants.lift_exp(f, max_degree))
    )


def lift_laws(max_weight: int) -> bool:
    """The lift law to degree weight(b) + 3 for every B(0) label b up to max_weight."""
    return all(lift_law(b, combinatorics.weight(b) + 3) for b in b0_labels(max_weight))


def closed_products(m: int) -> bool:
    """The closed product formulas and the degree-one rule match j_product.

    g_(0,a) g_(0,b) and g_(0,a) g_(0,b,c) for a, b, c <= m, and
    g_(1) g_beta = g_(beta_1, ..., beta_l - 1, 1) for every B(0) label beta
    up to weight 2m.
    """
    indices = range(1, m + 1)
    rests = [(b,) for b in indices] + [(b, c) for b in indices for c in indices]
    closed = all(
        invariants.product_closed_form(a, *rest)
        == invariants.j_product({(0, a): 1}, {(0, *rest): 1})
        for a in indices
        for rest in rests
    )
    degree_one = all(
        invariants.j_product({(1,): 1}, {beta: 1}) == {beta[:-1] + (beta[-1] - 1, 1): 1}
        for beta in b0_labels(2 * m)
    )
    return closed and degree_one


def closing_identity(max_degree: int) -> bool:
    """The numeric Chern series is the lifted basis sum, to degree N = max_degree.

    For k = (2, -1) and (3, -1, -1), the sum of e^beta(k) lift_tilde(beta, N)
    over the B(0) labels beta of length len(k) is ch_numeric(k, N).
    """
    for ks in ((2, -1), (3, -1, -1)):
        lifts = (
            invariants.lift_tilde(beta, max_degree).scale(invariants.e_power_value(beta, ks))
            for n in range(len(ks), max_degree + 1)
            for beta in combinatorics.enumerate_compositions(n, len(ks), first=0)
        )
        if sum(lifts, xring.XPolynomial()) != invariants.ch_numeric(ks, max_degree):
            return False
    return True


def relation_vanishes(rel: analysis.Relation, products: dict) -> bool:
    """The relation holds in Q[x], with no structure constant on the way.

    Each monomial is multiplied out as a product of basis polynomials, and
    the weighted sum of the products is 0.  products maps a monomial to its
    product and is filled as needed; a caller that checks many relations
    passes one dict, so each distinct monomial is multiplied out once.
    """
    total: dict = {}
    for mono, c in rel.items():
        product = products.get(mono)
        if product is None:
            product = products[mono] = math.prod(
                map(invariants.g_poly, mono), start=xring.XPolynomial.one()
            )
        for lam, v in product.terms.items():
            total[lam] = total.get(lam, 0) + c * v
    return not any(total.values())


def relations_vanish(d: int) -> bool:
    """Every relation among the generator monomials of degree d vanishes.

    There are monomials - dim J_d of them, which says that the candidates
    span J_d; dim J_d is the number of B(0) labels of weight d.
    """
    gens = analysis.generator_candidates(d)
    relations = analysis.find_relations(d, gens)
    monomials = analysis._monomials_of_weight(gens, d)
    dim = sum(len(combinatorics.enumerate_compositions(d, ell, first=0)) for ell in range(d + 1))
    products: dict = {}
    return len(relations) == len(monomials) - dim and all(
        relation_vanishes(rel, products) for rel in relations
    )


def _verdict(
    check: Callable[..., bool], calls: list[tuple]
) -> tuple[bool, Optional[Exception]]:
    """Whether check holds at every argument tuple of calls, and what it raised.

    A check that raises has met a fault on the route it checks, and fails
    with that exception.  RecursionError is let through: it says that the
    input is too deep for the interpreter, not that a route is wrong.
    """
    try:
        return all(check(*args) for args in calls), None
    except RecursionError:
        raise
    except Exception as exc:
        return False, exc


def run(max_n: int) -> list[tuple[str, bool, Optional[Exception]]]:
    """Every check up to weight max_n as (name, holds, what it raised or None).

    Each is judged by _verdict.  Products and lifts reach weight
    max_n // 2, closed products index max_n // 4.
    """
    whole = [(max_n,)]
    slices = [(n, ell) for n in range(1, max_n + 1) for ell in range(1, n + 1)]
    degrees = [(d,) for d in range(1, max_n + 1)]
    named = [
        ("dimension table: counting vs kernel rank", table_routes_agree, whole),
        ("Poincare series matches dimension totals", series_matches_table, whole),
        (
            "dimension table matches bivariate Poincare series row by row",
            bivariate_matches_table,
            whole,
        ),
        ("expansion times transition matrix is identity", expansion_inverts_matrix, slices),
        ("Waring closed form matches matrix entries", waring_matches_matrix, slices),
        ("derivation acts by lowering the first index", derivation_lowers_first_index, slices),
        ("kernel of d matches the span of the B(0) basis", kernel_matches_basis, slices),
        ("transition matrices are symmetric under conjugation", transpose_symmetric, whole),
        ("structure constants realize polynomial products", products_realize, [(max_n // 2,)]),
        ("lifts project to g_beta and satisfy d F = F", lift_laws, [(max_n // 2,)]),
        ("closed product formulas match structure constants", closed_products, [(max_n // 4,)]),
        ("closing identity: numeric Chern series is lifted basis sum", closing_identity, whole),
        ("relations vanish in Q[x] and number monomials minus dim J_d", relations_vanish, degrees),
    ]
    return [(name, *_verdict(check, calls)) for name, check, calls in named]
