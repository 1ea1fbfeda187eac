import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jring.checks import b0_labels
from jring.combinatorics import enumerate_compositions, weight
from jring.invariants import g_poly, lift_exp, lift_tilde, realize
from jring.xring import (
    XPolynomial,
    derivation_d,
    derivation_delta,
    project,
    truncate,
)

import lift_oracle


def x(i):
    return XPolynomial({(i,): 1})


def random_poly(rng, max_degree=10, n_terms=5):
    terms = {}
    for _ in range(n_terms):
        length = rng.randint(1, 4)
        lam = []
        budget = max_degree
        for _ in range(length):
            if budget < 1:
                break
            p = rng.randint(1, max(1, budget // 2) + 1)
            lam.append(p)
            budget -= p
        terms[tuple(sorted(lam, reverse=True))] = rng.randint(-9, 9)
    return XPolynomial(terms)


def test_multiply_examples():
    p = x(1) * x(1)
    assert p * p == XPolynomial({(1, 1, 1, 1): 1})
    q = XPolynomial({(2, 2): 1, (3, 1): -2})  # x2^2 - 2 x1 x3
    sq = q * q
    assert sq == XPolynomial(
        {(2, 2, 2, 2): 1, (3, 2, 2, 1): -4, (3, 3, 1, 1): 4}
    )
    assert XPolynomial.one() * q == q


def test_addition_cancels():
    q = XPolynomial({(2, 2): 1, (3, 1): -2})
    assert (q - q).is_zero()
    assert q + (-q) == XPolynomial()


def test_zero_coefficients_never_stored():
    p = XPolynomial({(2,): 1, (1, 1): 0})
    assert (1, 1) not in p.terms
    assert all(c != 0 for c in (p * p - p * p).terms.values())


def test_monomial_keys_are_canonical():
    assert XPolynomial({(1, 3): 2}) == XPolynomial({(3, 1): 2})
    with pytest.raises(ValueError):
        XPolynomial({(0, 1): 1})


def test_derivation_d_examples():
    assert derivation_d(x(2)) == x(1)
    invariant = XPolynomial({(2, 2): 1, (3, 1): -2})
    assert derivation_d(invariant).is_zero()
    p = XPolynomial({(3, 2): 1, (4, 1): -3})  # x2 x3 - 3 x1 x4
    assert derivation_d(p) == XPolynomial({(2, 2): 1, (3, 1): -2})


def test_derivation_delta_examples():
    assert derivation_delta(x(1)) == x(2)
    assert derivation_delta(x(1) * x(1)) == XPolynomial({(2, 1): 2})
    assert derivation_delta(XPolynomial.one()).is_zero()
    assert derivation_d(XPolynomial.one()).is_zero()


@pytest.mark.parametrize("op", [derivation_d, derivation_delta])
def test_leibniz_rule(op):
    rng = random.Random(20240817)
    for _ in range(25):
        p = random_poly(rng)
        q = random_poly(rng)
        assert op(p * q) == op(p) * q + p * op(q)


def test_grading_shifts():
    rng = random.Random(7)
    for _ in range(20):
        p = random_poly(rng)
        for lam in derivation_d(p).terms:
            assert any(
                sum(mu) == sum(lam) + 1 and len(mu) == len(lam)
                for mu in p.terms
            )
        for lam in derivation_delta(p).terms:
            assert any(
                sum(mu) == sum(lam) - 1 and len(mu) == len(lam)
                for mu in p.terms
            )


def test_commutator_is_length_times_identity():
    # d(delta m) - delta(d m) = (number of factors of m) * m
    for n in range(1, 13):
        for lam in _partitions_up_to(n):
            m = XPolynomial({lam: 1})
            comm = derivation_d(derivation_delta(m)) - derivation_delta(
                derivation_d(m)
            )
            assert comm == m.scale(len(lam))


def _partitions_up_to(n):
    from jring.combinatorics import enumerate_partitions

    for ell in range(1, n + 1):
        yield from enumerate_partitions(n, ell)


def test_multiplication_commutative_associative():
    rng = random.Random(99)
    for _ in range(10):
        p, q, r = (random_poly(rng, 6, 4) for _ in range(3))
        assert p * q == q * p
        assert p * (q * r) == (p * q) * r


def test_project_examples():
    p = x(1) + x(2) + x(3)
    assert project(p, 2) == x(2)


def test_truncate():
    p = XPolynomial({(1,): 1, (2, 2): 1, (5, 1): 1})
    assert truncate(p, 4) == XPolynomial({(1,): 1, (2, 2): 1})


def test_rational_coefficients_round_trip():
    p = XPolynomial({(2, 2): Fraction(1, 4), (3, 1): Fraction(1, 2)})
    assert p.terms == {(2, 2): Fraction(1, 4), (3, 1): Fraction(1, 2)}
    assert p.scale(4).terms == {(2, 2): 1, (3, 1): 2}


# ---------------------------------------------------------------------------
# canonical coefficient type: int when integral, Fraction otherwise

INTS = st.integers(-6, 6)
RATIONALS = st.fractions(min_value=-3, max_value=3, max_denominator=4)
# unsorted tuples on purpose: the constructor sorts and merges equal keys
MONOMIALS = st.lists(st.integers(1, 5), max_size=4).map(tuple)


def polys(coeffs):
    return st.dictionaries(MONOMIALS, coeffs, max_size=5).map(XPolynomial)


ANY_POLYS = st.one_of(polys(INTS), polys(RATIONALS))
B0_LABELS = [
    beta
    for n in range(2, 7)
    for ell in range(2, n + 1)
    for beta in enumerate_compositions(n, ell, first=0)
]


def assert_canonical(p):
    # what XPolynomial._canonical relies on: partition keys, no zeros, and
    # int or non-integral Fraction coefficients
    for lam, c in p.terms.items():
        assert type(lam) is tuple and all(type(v) is int and v >= 1 for v in lam), lam
        assert list(lam) == sorted(lam, reverse=True), lam
        assert c != 0, lam
        assert type(c) is int or c.denominator > 1, (c, type(c))


def test_integral_fractions_are_stored_as_int():
    half = XPolynomial({(1,): Fraction(1, 2), (2,): Fraction(4, 2)})
    assert half.terms == {(1,): Fraction(1, 2), (2,): 2}
    assert type(half.terms[(2,)]) is int
    assert type((half + half).terms[(1,)]) is int
    assert type(half.scale(Fraction(2)).terms[(1,)]) is int


@settings(max_examples=60, deadline=None, database=None)
@given(ANY_POLYS, ANY_POLYS, RATIONALS, st.integers(0, 12))
def test_ring_operations_keep_coefficients_canonical(p, q, s, n):
    assert_canonical(p)
    for r in (
        p + q,
        p - q,
        -p,
        p * q,
        p.scale(s),
        derivation_d(p),
        derivation_delta(q),
        project(p, n),
        truncate(p, n),
    ):
        assert_canonical(r)


@settings(max_examples=20, deadline=None, database=None)
@given(
    st.sampled_from(B0_LABELS),
    RATIONALS.filter(lambda s: s != 0),
    st.integers(0, 3),
    st.dictionaries(st.sampled_from(B0_LABELS), INTS, max_size=4),
)
def test_lift_exp_keeps_coefficients_canonical(beta, s, extra, comb):
    # and the other results built from the basis without the public constructor
    n = weight(beta)
    assert_canonical(lift_exp(g_poly(beta).scale(s), n + extra))
    assert_canonical(lift_tilde(beta, n + extra))
    assert_canonical(g_poly(beta))
    assert_canonical(realize(comb))


# ---------------------------------------------------------------------------
# the block-scan delta and the one-dict exponential lift against the old ones


@settings(max_examples=80, deadline=None, database=None)
@given(ANY_POLYS)
def test_derivation_delta_matches_part_by_part_oracle(p):
    assert derivation_delta(p) == lift_oracle.derivation_delta(p)


@settings(max_examples=40, deadline=None, database=None)
@given(
    st.sampled_from(b0_labels(10)),
    RATIONALS.filter(lambda s: s != 0),
    st.integers(0, 4),
)
def test_lift_exp_matches_summing_oracle(beta, s, extra):
    f = g_poly(beta).scale(s)
    N = weight(beta) + extra
    assert lift_exp(f, N) == lift_oracle.lift_exp(f, N)


@settings(max_examples=60, deadline=None, database=None)
@given(st.dictionaries(MONOMIALS, RATIONALS, max_size=5))
def test_equality_and_hash_ignore_int_or_fraction_input(terms):
    as_given = XPolynomial(terms)
    as_int = XPolynomial(
        {lam: int(c) if c.denominator == 1 else c for lam, c in terms.items()}
    )
    assert as_given == as_int
    assert hash(as_given) == hash(as_int)
    assert_canonical(as_given)
