from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jring import checks
from jring.checks import b0_labels
from jring.combinatorics import EMPTY, enumerate_compositions, weight
from jring.invariants import (
    ch_numeric,
    chern_coefficients,
    e_power_value,
    elementary_symmetric_values,
    g_poly,
    j_product,
    lift_exp,
    lift_tilde,
    product_closed_form,
    realize,
    structure_constants,
)
from jring.xring import XPolynomial, project

import chern_oracle
from appendix_data import ALL_BASIS_TABLES
from pair_table_oracle import pair_table_constants
from split_table_oracle import split_table_constants


def b0_labels_of_weight(n):
    return [
        beta
        for ell in range(1, n + 1)
        for beta in enumerate_compositions(n, ell, first=0)
    ]


@st.composite
def b0_pairs(draw, max_total):
    n1 = draw(st.integers(1, max_total - 1))
    n2 = draw(st.integers(1, max_total - n1))
    return tuple(
        draw(st.sampled_from(b0_labels_of_weight(n))) for n in (n1, n2)
    )


@st.composite
def label_pairs(draw, max_total):
    # two admissible labels of any first entry, so that the split tables
    # have nonzero first rows and columns too
    n1 = draw(st.integers(1, max_total - 1))
    n2 = draw(st.integers(1, max_total - n1))
    return tuple(
        draw(st.sampled_from(enumerate_compositions(n, draw(st.integers(1, n)))))
        for n in (n1, n2)
    )


# ---------------------------------------------------------------------------
# basis polynomials


def test_g_poly_unit_and_examples():
    assert g_poly(EMPTY) == XPolynomial.one()
    assert g_poly((1,)) == XPolynomial({(1,): 1})
    assert g_poly((0, 2)) == XPolynomial({(2, 2): 1, (3, 1): -2})


@pytest.mark.parametrize("beta", sorted(ALL_BASIS_TABLES), ids=str)
def test_g_poly_matches_published_tables(beta):
    assert dict(g_poly(beta).terms) == ALL_BASIS_TABLES[beta]


@st.composite
def slices(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    return n, draw(st.integers(1, n))


@settings(max_examples=15, deadline=None, database=None)
@given(slices(15, 22))
def test_g_poly_lowers_first_index(slice_):
    # beyond criterion 6, which covers every slice with n <= 14
    assert checks.derivation_lowers_first_index(*slice_)


def test_realize_linearity():
    comb = {(1,): 2, (0, 2): -3, EMPTY: 5}
    expected = (
        g_poly((1,)).scale(2)
        + g_poly((0, 2)).scale(-3)
        + XPolynomial.one().scale(5)
    )
    assert realize(comb) == expected


# ---------------------------------------------------------------------------
# structure constants and products


def test_structure_constant_examples():
    assert structure_constants((1,), (1,)) == {(0, 1): 1}
    assert structure_constants((0, 2), (0, 2)) == {
        (0, 2, 0, 1): 2,
        (0, 0, 0, 2): 1,
    }
    assert structure_constants(EMPTY, (0, 2)) == {(0, 2): 1}
    assert structure_constants((0, 2), EMPTY) == {(0, 2): 1}
    assert structure_constants(EMPTY, EMPTY) == {EMPTY: 1}


def test_structure_constants_realize_products():
    # beyond criterion 4, which stops at weight 6
    assert checks.products_realize(8)


def test_structure_constants_nonnegative_and_graded():
    labels = b0_labels(5)
    for b1 in labels:
        for b2 in labels:
            for b3, c in structure_constants(b1, b2).items():
                assert c > 0
                assert weight(b3) == weight(b1) + weight(b2)
                assert len(b3) == len(b1) + len(b2)


def test_structure_constants_match_pair_table_oracle():
    labels = [
        beta
        for n in range(1, 12)
        for ell in range(1, n + 1)
        for beta in enumerate_compositions(n, ell)
    ]
    for b1 in labels:
        for b2 in labels:
            if weight(b1) + weight(b2) <= 12:
                assert structure_constants(b1, b2) == pair_table_constants(
                    b1, b2
                )


@settings(max_examples=25, deadline=None, database=None)
@given(b0_pairs(max_total=20))
def test_structure_constants_match_pair_table_oracle_on_drawn_pairs(pair):
    assert structure_constants(*pair) == pair_table_constants(*pair)


def test_structure_constants_match_split_table_oracle():
    labels = b0_labels(13)
    for b1 in labels:
        for b2 in labels:
            if weight(b1) + weight(b2) <= 14:
                assert structure_constants(b1, b2) == split_table_constants(b1, b2)


@settings(max_examples=40, deadline=None, database=None)
@given(b0_pairs(max_total=28))
def test_structure_constants_match_split_table_oracle_on_drawn_pairs(pair):
    # past the weights the pair-table oracle can reach
    assert structure_constants(*pair) == split_table_constants(*pair)


@settings(max_examples=60, deadline=None, database=None)
@given(label_pairs(max_total=24))
def test_structure_constants_of_drawn_labels_match_oracle_and_commute(pair):
    # general labels, which the product command accepts; the swapped call
    # fills the tables by the other operand's rows, in another order
    b1, b2 = pair
    got = structure_constants(b1, b2)
    assert got == split_table_constants(b1, b2)
    assert got == structure_constants(b2, b1)


@settings(max_examples=25, deadline=None, database=None)
@given(b0_pairs(max_total=16))
def test_drawn_products_are_graded_positive_and_realized(pair):
    b1, b2 = pair
    for b3, c in structure_constants(b1, b2).items():
        assert c > 0
        assert weight(b3) == weight(b1) + weight(b2)
        assert len(b3) == len(b1) + len(b2)
    got = realize(j_product({b1: 1}, {b2: 1}))
    assert got == g_poly(b1) * g_poly(b2)


def test_j_product_bilinear():
    left = {(0, 2): 2, (1,): -1}
    right = {(0, 3): 1, (1,): 3}
    got = realize(j_product(left, right))
    assert got == realize(left) * realize(right)


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.sampled_from(b0_labels(10)), min_size=3, max_size=3))
def test_j_product_is_commutative_and_associative(triple):
    # the structure constants of a commutative ring, on drawn B(0) labels
    # of weight at most 10
    a, b, c = ({beta: 1} for beta in triple)
    assert j_product(a, b) == j_product(b, a)
    assert j_product(j_product(a, b), c) == j_product(a, j_product(b, c))


def test_j_product_rejects_labels_outside_kernel_support():
    with pytest.raises(ValueError):
        j_product({(2, 1): 1}, {(1,): 1})
    # in_b0 passes this inadmissible label, so j_product refuses it later
    for c1, c2 in [({(0, -1, 2): 1}, {(0, 1): 1}), ({(0, 1): 1}, {(0, -1, 2): 1})]:
        with pytest.raises(ValueError):
            j_product(c1, c2)


def test_closed_form_two_row_products():
    for a in range(1, 13):
        for b in range(1, 13):
            assert product_closed_form(a, b) == j_product(
                {(0, a): 1}, {(0, b): 1}
            )


def test_closed_form_three_row_products():
    for a in range(1, 13):
        for b in range(1, 13):
            for c in range(1, 9):
                assert product_closed_form(a, b, c) == j_product(
                    {(0, a): 1}, {(0, b, c): 1}
                )


# ---------------------------------------------------------------------------
# Chern character series


def test_elementary_symmetric_values():
    assert elementary_symmetric_values((2, -1)) == [1, 1, -2]
    assert elementary_symmetric_values((1, 1, 1)) == [1, 3, 3, 1]
    assert e_power_value((0, 2), (2, -1)) == 4


def test_ch_series_specialization_matches_numeric_product():
    # the identity that defines g_beta: sum over beta in B_n^(l) of
    # e^beta(k) g_beta is the (n, l) part of the numeric product
    for ks in ((2, -1), (3, -1, -1), (1, 1)):
        ell = len(ks)
        numeric = ch_numeric(ks, 8)
        for n in range(ell, 9):
            total = XPolynomial()
            for beta in enumerate_compositions(n, ell):
                total = total + g_poly(beta).scale(e_power_value(beta, ks))
            assert total == XPolynomial(
                {lam: c for lam, c in numeric.terms.items() if sum(lam) == n and len(lam) == ell}
            )


def test_ch_numeric_rank_one():
    got = ch_numeric((2,), 4)
    assert got == XPolynomial({(1,): 2, (2,): 4, (3,): 8, (4,): 16})


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.lists(st.integers(-3, 3), min_size=1, max_size=4),
    st.integers(1, 12),
)
def test_ch_numeric_matches_the_full_product_truncated(ks, max_degree):
    # below len(ks) no term survives: each factor starts at degree 1
    got = ch_numeric(ks, max_degree)
    assert got == chern_oracle.ch_numeric(ks, max_degree)
    if max_degree < len(ks):
        assert got.is_zero()


def test_chern_coefficients_are_zero_first_basis_polynomials():
    table = chern_coefficients(2, 10)
    for m in range(1, 5):
        assert table[(m,)] == g_poly((0, m))
    table3 = chern_coefficients(3, 9)
    assert table3[(0, 2)] == g_poly((0, 0, 2))
    assert table3[(1, 1)] == g_poly((0, 1, 1))


# ---------------------------------------------------------------------------
# lifts


def test_lift_tilde_examples():
    assert lift_tilde((0, 1), 4) == XPolynomial(
        {(1, 1): 1, (2, 1): 1, (3, 1): 1}
    )
    # truncation degree bound is respected exactly
    assert lift_tilde((0, 1), 5).max_degree() == 5


def test_lift_tilde_refuses_labels_outside_b0():
    # (0, -1, 2) passes in_b0, which assumes an admissible label
    for beta in [EMPTY, (2, 1), (0, -1, 2)]:
        with pytest.raises(ValueError):
            lift_tilde(beta, 6)


@settings(max_examples=40, deadline=None, database=None)
@given(st.sampled_from(b0_labels(12)), st.integers(0, 4))
def test_lift_laws_on_drawn_labels(beta, extra):
    # beyond criterion 8, which lifts the labels of weight <= 6 to degree 10
    assert checks.lift_law(beta, weight(beta) + extra)


def test_lift_exp_of_x1_squared():
    F = lift_exp(XPolynomial({(1, 1): 1}), 5)
    assert F == XPolynomial(
        {
            (1, 1): Fraction(1),
            (2, 1): Fraction(1),
            (2, 2): Fraction(1, 4),
            (3, 1): Fraction(1, 2),
            (3, 2): Fraction(1, 4),
            (4, 1): Fraction(1, 4),
        }
    )


def test_lift_exp_differs_from_lift_tilde_at_degree_four():
    diff = lift_exp(g_poly((0, 1)), 6) - lift_tilde((0, 1), 6)
    assert project(diff, 2).is_zero()
    assert project(diff, 3).is_zero()
    assert not project(diff, 4).is_zero()


def test_lift_exp_rejects_non_invariants():
    with pytest.raises(ValueError):
        lift_exp(XPolynomial({(2,): 1}), 5)
    with pytest.raises(ValueError):
        lift_exp(XPolynomial(), 5)
