"""End-to-end acceptance suite.

Each test covers one published claim and prints a single PASS/FAIL line
(visible with ``pytest -s`` or in the failure report).  Run the whole suite
with::

    pytest tests/test_acceptance.py -v
"""

from fractions import Fraction

from jring import checks
from jring.analysis import (
    dimension_table,
    find_relations,
    generator_candidates,
    poincare_series,
    poincare_series_bivariate,
)
from jring.invariants import chern_coefficients, g_poly, lift_exp, lift_tilde
from jring.xring import XPolynomial

from appendix_data import (
    ALL_BASIS_TABLES,
    DIMENSION_ROWS,
    LENGTH_SERIES_PREFIXES,
    RELATION_A,
    RELATION_B,
    TOTAL_SERIES_24,
)
from rational_rref_oracle import sparse_in_span


def report(num: int, name: str, ok: bool) -> None:
    print(f"{'PASS' if ok else 'FAIL'}  criterion {num:2d}: {name}")
    assert ok, f"criterion {num} ({name}) failed"


def test_criterion_01_basis_tables():
    ok = len(ALL_BASIS_TABLES) == 63 and all(
        dict(g_poly(beta).terms) == table
        for beta, table in ALL_BASIS_TABLES.items()
    )
    report(1, "published basis tables (lengths 1-7)", ok)


def test_criterion_02_dimension_table():
    # dimension_table cross-checks counting vs kernel rank internally and
    # raises on any mismatch
    dims = dimension_table(16)
    ok = all(
        dims[n] == row and sum(dims[n]) == total
        for n, (row, total) in DIMENSION_ROWS.items()
    )
    report(2, "dimension table rows 1-16, two methods agreeing", ok)


def test_criterion_03_poincare_series():
    ok = poincare_series(24) == TOTAL_SERIES_24
    bivariate = poincare_series_bivariate(24)
    ok = ok and all(
        sum(bivariate[n].values()) == TOTAL_SERIES_24[n] for n in range(25)
    )
    for ell, prefix in LENGTH_SERIES_PREFIXES.items():
        ok = ok and poincare_series(len(prefix) - 1, ell) == prefix
    report(3, "Poincare series: total, bivariate at u=1, single-length", ok)


def test_criterion_04_products_realize():
    ok = checks.products_realize(6)
    report(4, "structure constants realize products (weight <= 12)", ok)


def test_criterion_05_closed_product_formulas():
    # a, b, c <= 5, and g_(1) g_beta for every B(0) label up to weight 10
    ok = checks.closed_products(5)
    report(5, "closed product formulas and degree-one rules", ok)


def test_criterion_06_derivation_lemma():
    ok = all(
        checks.derivation_lowers_first_index(n, ell)
        for n in range(1, 15)
        for ell in range(1, n + 1)
    )
    report(6, "derivation lemma and kernel characterization (weight <= 14)", ok)


def test_criterion_07_waring():
    ok = all(
        checks.waring_matches_matrix(n, ell)
        for n in range(1, 19)
        for ell in range(1, n + 1)
    )
    report(7, "Waring closed form vs matrix entries (weight <= 18)", ok)


def test_criterion_08_lift_laws():
    ok = all(checks.lift_law(beta, 10) for beta in checks.b0_labels(6))
    displayed = XPolynomial(
        {
            (1, 1): Fraction(1),
            (2, 1): Fraction(1),
            (2, 2): Fraction(1, 4),
            (3, 1): Fraction(1, 2),
            (3, 2): Fraction(1, 4),
            (4, 1): Fraction(1, 4),
        }
    )
    ok = ok and lift_exp(XPolynomial({(1, 1): 1}), 5) == displayed
    diff = lift_exp(g_poly((0, 1)), 4) - lift_tilde((0, 1), 4)
    ok = ok and diff == g_poly((0, 2)).scale(Fraction(1, 4))
    report(8, "lift laws dF = F and the displayed exponential series", ok)


def test_criterion_09_chern_coefficient_tables():
    # compare every tabulated coefficient against the transcribed published
    # polynomial for its label
    ok = True
    checked = 0
    for ell, max_degree in ((2, 10), (3, 9)):
        table = chern_coefficients(ell, max_degree)
        for exps, poly in table.items():
            golden = ALL_BASIS_TABLES.get((0,) + exps)
            if golden is not None:
                ok = ok and dict(poly.terms) == golden
                checked += 1
    ok = ok and checked >= 10
    # the displayed e_2 e_3^2 and e_3^3 coefficients in particular
    ok = ok and dict(chern_coefficients(3, 9)[(1, 2)].terms) == (
        ALL_BASIS_TABLES[(0, 1, 2)]
    )
    ok = ok and dict(chern_coefficients(3, 9)[(0, 3)].terms) == (
        ALL_BASIS_TABLES[(0, 0, 3)]
    )
    report(9, "Chern character coefficient tables (lengths 2 and 3)", ok)


def test_criterion_10_closing_identity():
    # k = (2, -1) and (3, -1, -1), to degree 8
    ok = checks.closing_identity(8)
    report(10, "closing identity: numeric series vs lifted basis sum", ok)


def test_criterion_11_relations():
    ok = all(
        find_relations(d, generator_candidates(d)) == []
        for d in range(4, 12)
    )
    relations = find_relations(12, generator_candidates(12))
    ok = ok and len(relations) == 2
    ok = ok and all(checks.relations_vanish(d) for d in range(4, 13))
    products: dict = {}
    for rel in (RELATION_A, RELATION_B):
        ok = ok and sparse_in_span(rel, relations) and checks.relation_vanishes(rel, products)
    report(11, "no relations below degree 12; both degree-12 relations", ok)
