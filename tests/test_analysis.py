from fractions import Fraction
from math import gcd

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from jring import analysis, checks, invariants, xring
from jring.analysis import (
    _monomial_products,
    _monomials_of_weight,
    dimension_table,
    find_relations,
    generator_candidates,
    kernel_basis,
    nullspace,
    poincare_series,
    poincare_series_bivariate,
    rref,
)
from jring.combinatorics import (
    enumerate_compositions,
    enumerate_partitions,
    leading_partition,
    weight,
)
from jring.invariants import g_poly, realize
from jring.xring import XPolynomial, derivation_d

from appendix_data import RELATION_A
import candidate_oracle
import monomial_oracle
import rational_rref_oracle
from rational_rref_oracle import sparse_in_span


# ---------------------------------------------------------------------------
# exact linear algebra


def _sparse(row):
    return {c: x for c, x in enumerate(row) if x}


def _dense(v, ncols):
    return [v.get(c, 0) for c in range(ncols)]


def test_rref_examples():
    red, pivots = rref([{0: 2, 1: 4}, {0: 1, 1: 2}])
    assert red == [{0: 1, 1: 2}]
    assert pivots == [0]
    red, pivots = rref([{1: 1}, {0: 1, 1: 0}])
    assert red == [{0: 1}, {1: 1}]
    assert pivots == [0, 1]
    # any orderable column keys
    red, pivots = rref([{"b": 2, "a": -4}, {"a": 1}])
    assert red == [{"a": 1}, {"b": 1}]
    assert pivots == ["a", "b"]


def test_nullspace_solves():
    rows = [[1, 2, 3], [2, 4, 6]]
    basis = nullspace([_sparse(r) for r in rows], 3)
    assert len(basis) == 2
    for v in basis:
        for row in rows:
            assert sum(a * b for a, b in zip(row, _dense(v, 3))) == 0


@st.composite
def integer_system(draw):
    # rows plus scaled copies (zero and repeated rows among them), and a
    # vector that is either arbitrary or an integer combination of the rows
    ncols = draw(st.integers(1, 10))
    entries = st.lists(st.integers(-5, 5), min_size=ncols, max_size=ncols)
    rows = draw(st.lists(entries, min_size=1, max_size=6))
    copies = draw(
        st.lists(
            st.tuples(st.sampled_from(rows), st.integers(-2, 2)), max_size=2
        )
    )
    rows = draw(st.permutations(rows + [[k * x for x in r] for r, k in copies]))
    weights = st.lists(st.integers(-3, 3), min_size=len(rows), max_size=len(rows))
    combination = weights.map(
        lambda ws: [sum(w * x for w, x in zip(ws, col)) for col in zip(*rows)]
    )
    return rows, draw(st.one_of(entries, combination))


def _rational(rows):
    return [[Fraction(x) for x in row] for row in rows]


@settings(max_examples=200, deadline=None, database=None)
@given(integer_system())
def test_integer_elimination_matches_rational_oracle(system):
    rows, vector = system
    ncols = len(rows[0])
    sparse_rows = [_sparse(r) for r in rows]
    red, pivots = rref(sparse_rows)
    q_red, q_pivots = rational_rref_oracle.rref(_rational(rows))
    assert pivots == q_pivots
    assert len(red) == len(q_red)
    # each row is the primitive, positive-pivot multiple of the oracle row,
    # whose pivot entry is 1
    for row, q_row, pc in zip(red, q_red, pivots):
        row = _dense(row, ncols)
        assert all(type(x) is int for x in row)
        assert row[pc] > 0 and gcd(*row) == 1
        assert [Fraction(x) for x in row] == [row[pc] * y for y in q_row]
    kernel = [_dense(v, ncols) for v in nullspace(sparse_rows, ncols)]
    assert len(kernel) == ncols - len(pivots)
    for v in kernel:
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    assert len(rational_rref_oracle.rref(_rational(kernel))[1]) == len(kernel)
    # in the span iff appending the vector leaves the rank unchanged
    in_span = len(rref(sparse_rows + [_sparse(vector)])[1]) == len(pivots)
    assert in_span == rational_rref_oracle.in_span(
        [Fraction(x) for x in vector], _rational(rows)
    )


@st.composite
def sparse_system(draw):
    # up to 25 x 30 with about 15% nonzero entries, so that entries cancel
    # and are deleted during elimination; zero columns, zero rows, repeated
    # and scaled rows, and the empty matrix are all drawn
    rng = draw(st.randoms(use_true_random=False))
    ncols = draw(st.integers(1, 30))
    zero_cols = draw(st.sets(st.integers(0, ncols - 1), max_size=4))
    rows = [
        [
            rng.choice([-1, 1]) * rng.randint(1, 9)
            if c not in zero_cols and rng.random() < 0.15
            else 0
            for c in range(ncols)
        ]
        for _ in range(draw(st.integers(0, 20)))
    ]
    if rows:
        copies = draw(
            st.lists(
                st.tuples(st.sampled_from(rows), st.integers(-3, 3)),
                max_size=5,
            )
        )
        rows += [[k * x for x in r] for r, k in copies]
    rows += [[0] * ncols for _ in range(draw(st.integers(0, 2)))]
    rng.shuffle(rows)
    weights = [rng.randint(-2, 2) for _ in rows]
    combination = [
        sum(w * r[c] for w, r in zip(weights, rows)) for c in range(ncols)
    ]
    arbitrary = [
        rng.randint(-3, 3) if rng.random() < 0.15 else 0 for _ in range(ncols)
    ]
    return rows, ncols, draw(st.sampled_from([combination, arbitrary]))


@settings(max_examples=60, deadline=None, database=None)
@given(sparse_system())
def test_sparse_elimination_matches_rational_oracle(system):
    rows, ncols, vector = system
    sparse_rows = [_sparse(r) for r in rows]
    q_red, q_pivots = rational_rref_oracle.rref(_rational(rows))
    red, pivots = rref(sparse_rows)
    assert pivots == q_pivots
    assert len(red) == len(q_red)
    for row, q_row, pc in zip(red, q_red, pivots):
        row = _dense(row, ncols)
        assert all(type(x) is int for x in row)
        assert row[pc] > 0 and gcd(*row) == 1
        assert [Fraction(x) for x in row] == [row[pc] * y for y in q_row]
    kernel = [_dense(v, ncols) for v in nullspace(sparse_rows, ncols)]
    free = [c for c in range(ncols) if c not in pivots]
    assert len(kernel) == len(free)
    for fc, v in zip(free, kernel):
        assert gcd(*v) == 1
        # independent: on the free columns the vectors are diagonal
        assert [c for c in free if v[c]] == [fc]
        for row in rows:
            assert sum(a * b for a, b in zip(row, v)) == 0
    want = rational_rref_oracle.in_span(
        [Fraction(x) for x in vector], _rational(rows)
    )
    in_span = len(rref(sparse_rows + [_sparse(vector)])[1]) == len(pivots)
    assert in_span == want


def test_empty_system():
    assert rref([]) == ([], [])
    assert [_dense(v, 3) for v in nullspace([], 3)] == [
        [1, 0, 0],
        [0, 1, 0],
        [0, 0, 1],
    ]
    assert rref([{}, {1: 0}]) == ([], [])


# ---------------------------------------------------------------------------
# kernel of the derivation


def test_kernel_basis_examples():
    basis = kernel_basis(4, 2)
    assert len(basis) == 1
    # proportional to x_2^2 - 2 x_1 x_3 (the normalization is the echelon
    # form's, not the basis polynomial's)
    p = basis[0]
    ratio = Fraction(p.terms[(2, 2)])
    assert p == XPolynomial({(2, 2): 1, (3, 1): -2}).scale(ratio)
    assert kernel_basis(2, 1) == []
    assert kernel_basis(1, 1) == [XPolynomial({(1,): 1})]


def test_kernel_basis_is_in_the_kernel():
    for n in range(1, 11):
        for ell in range(1, n + 1):
            for p in kernel_basis(n, ell):
                assert derivation_d(p).is_zero()
                assert all(type(c) is int for c in p.terms.values())


def test_kernel_basis_spans_the_invariant_slice():
    # the kernel from elimination equals the span of the B(0) g_beta
    for n in range(1, 17):
        for ell in range(1, n + 1):
            assert checks.kernel_matches_basis(n, ell)


# ---------------------------------------------------------------------------
# dimensions and series


def test_total_series_matches_dimension_totals():
    # the rank route of dimension_table against the total series and, row
    # by row, the bivariate series, well past the published rows
    assert checks.table_routes_agree(30)
    assert checks.series_matches_table(30)
    assert checks.bivariate_matches_table(30)


def test_dimension_table_eliminates_nothing(monkeypatch):
    # the rank route checks its certificate instead of reducing
    def refuse(*args):
        raise AssertionError("dimension_table eliminated")

    monkeypatch.setattr(analysis, "rref", refuse)
    totals = {n: sum(row) for n, row in dimension_table(12).items()}
    assert totals == {n: poincare_series(12)[n] for n in range(1, 13)}


def test_dimension_table_refuses_a_column_that_breaks_the_certificate(monkeypatch):
    # the column of (2) is empty when d x_2 = 0; it fails as d not onto
    lowered = xring.lowered
    monkeypatch.setattr(xring, "lowered", lambda lam: [] if lam == (2,) else lowered(lam))
    with pytest.raises(RuntimeError, match=r"d is not onto at \(n=2, ell=1\)"):
        dimension_table(3)


def test_single_length_series_matches_cell_dimensions():
    dims = dimension_table(12)
    for ell in range(1, 8):
        coeffs = poincare_series(12, ell)
        for n in range(1, 13):
            assert coeffs[n] == (dims[n][ell - 1] if ell <= n else 0)


def test_bivariate_series():
    # setting the length variable to 1 recovers the total series
    rows = poincare_series_bivariate(24)
    total = poincare_series(24)
    for n in range(1, 25):
        assert sum(rows[n].values()) == total[n]
    # row n counts B_n^(l)(0) by enumeration, past the rows that the
    # dimension table reaches in the other tests
    rows = poincare_series_bivariate(40)
    for n in range(1, 41):
        counts = {
            ell: len(enumerate_compositions(n, ell, first=0))
            for ell in range(1, n + 1)
        }
        assert rows[n] == {ell: k for ell, k in counts.items() if k}


# ---------------------------------------------------------------------------
# generators and relations


def test_generator_candidates_through_degree_12():
    assert generator_candidates(12) == [
        (1,),
        (0, 2),
        (0, 3),
        (0, 0, 2),
        (0, 4),
        (0, 1, 2),
        (0, 0, 3),
        (0, 5),
        (0, 2, 2),
        (0, 1, 3),
        (0, 0, 1, 2),
        (0, 6),
        (0, 3, 2),
        (0, 0, 4),
    ]


def test_split_rule_matches_sub_multiset_search():
    # every partition with n <= 20, and the leading partition of every B(0)
    # label with n <= 26
    for n in range(1, 21):
        for ell in range(1, n + 1):
            for lam in enumerate_partitions(n, ell):
                rule = candidate_oracle.split_rule(lam)
                assert rule == candidate_oracle.splits_properly(lam)
    for n in range(1, 27):
        for ell in range(1, n + 1):
            for beta in enumerate_compositions(n, ell, first=0):
                lam = leading_partition(beta)
                rule = candidate_oracle.split_rule(lam)
                assert rule == candidate_oracle.splits_properly(lam)


def test_generator_candidates_match_the_search():
    want = [
        beta
        for n in range(1, 19)
        for ell in range(1, n + 1)
        for beta in enumerate_compositions(n, ell, first=0)
        if not candidate_oracle.splits_properly(leading_partition(beta))
    ]
    assert sorted(generator_candidates(18)) == sorted(want)


def test_generator_candidates_match_the_split_rule():
    # generated directly, in order, against the rule filtering every B(0)
    # label, itself in canonical order
    want = [
        beta
        for beta in checks.b0_labels(30)
        if not candidate_oracle.split_rule(leading_partition(beta))
    ]
    for d in range(1, 31):
        assert generator_candidates(d) == [b for b in want if weight(b) <= d]


def test_non_candidates_are_products():
    # (0,1,1) is dropped: its leading monomial is x_1 x_2^2 = lead of
    # g_(1) g_(0,2)
    assert (0, 1, 1) not in generator_candidates(5)


def test_monomial_products():
    square, fourth = _monomial_products([((1,), (1,)), ((0, 2), (0, 2))])
    assert square == {(0, 1): 1}
    assert realize(fourth) == g_poly((0, 2)) * g_poly((0, 2))


@pytest.mark.parametrize("degree", [12, 18, 22])
def test_monomials_of_weight_lists_each_product_once_in_order(degree):
    gens = generator_candidates(degree)
    monomials = _monomials_of_weight(gens, degree)
    # as many as the coefficient of t^degree in prod 1/(1 - t^weight)
    series = [1] + [0] * degree
    for g in gens:
        for m in range(weight(g), degree + 1):
            series[m] += series[m - weight(g)]
    assert len(monomials) == series[degree]
    # each a sorted multiset of the right weight, listed with the copy
    # counts in strictly decreasing lexicographic order
    copies = [tuple(m.count(g) for g in gens) for m in monomials]
    for m, counts in zip(monomials, copies):
        assert m == tuple(g for g, k in zip(gens, counts) for _ in range(k))
        assert sum(weight(g) for g in m) == degree
    assert copies == sorted(set(copies), reverse=True)


def test_monomials_of_weight_match_the_unpruned_search():
    # monomials and order: the order fixes the relations' canonical rows
    for degree in range(1, 27):
        gens = generator_candidates(degree)
        assert _monomials_of_weight(gens, degree) == (
            monomial_oracle.monomials_of_weight(gens, degree)
        )


@settings(max_examples=150, deadline=None, database=None)
@given(
    st.lists(st.sampled_from(generator_candidates(20)), unique=True, max_size=10),
    st.integers(-1, 30),
)
@example([(0, 2), (0, 0, 2)], 7)  # weights 4 and 6 never make 7
@example([(0, 3)], 0)
def test_monomials_of_weight_match_the_unpruned_search_on_drawn_generators(
    gens, target
):
    assert _monomials_of_weight(gens, target) == (
        monomial_oracle.monomials_of_weight(gens, target)
    )


def test_monomials_of_weight_refuse_the_unit_as_a_generator():
    with pytest.raises(ValueError):
        _monomials_of_weight([(1,), ()], 3)


def test_relation_columns_fold_one_product_per_prefix(monkeypatch):
    # each column find_relations builds is the product of its monomial
    # folded on its own, made with one j_product per distinct nonempty prefix
    j_product = invariants.j_product
    calls = []

    def counted(c1, c2):
        calls.append(1)
        return j_product(c1, c2)

    for degree in range(2, 19):
        monomials = _monomials_of_weight(generator_candidates(degree), degree)
        want = [_monomial_products([mono])[0] for mono in monomials]
        calls.clear()
        with monkeypatch.context() as patch:
            patch.setattr(invariants, "j_product", counted)
            assert _monomial_products(monomials) == want
        prefixes = {mono[:k] for mono in monomials for k in range(1, len(mono) + 1)}
        assert len(calls) == len(prefixes)


# Relation counts in degrees 1..24.  No published table goes this far; the
# two routes below check each other.
RELATION_COUNTS = [0] * 11 + [2, 2, 4, 5, 11, 15, 26, 34, 55, 74, 111, 150, 220]


@pytest.mark.parametrize("degree", range(1, 25))
def test_relation_counts(degree):
    gens = generator_candidates(degree)
    count = RELATION_COUNTS[degree - 1]
    assert len(find_relations(degree, gens)) == count
    # the leading monomials of the generator products cover every B(0)
    # lead, so the products span J_degree: relations = monomials - dim
    monomials = _monomials_of_weight(gens, degree)
    assert count == len(monomials) - poincare_series(degree)[degree]


def test_relation_in_span():
    # criterion 11 checks two relations inside the span; these are outside
    # it, or inside it in a form find_relations never returns
    relations = find_relations(12, generator_candidates(12))
    changed = dict(RELATION_A)
    changed[((0, 3), (0, 0, 2))] = 1
    assert not sparse_in_span(changed, relations)
    stranger = ((1,),) * 12
    assert all(stranger not in r for r in relations)
    assert not sparse_in_span({**RELATION_A, stranger: 1}, relations)
    scaled = {m: -3 * c for m, c in RELATION_A.items()}
    assert sparse_in_span({**scaled, stranger: 0}, relations)
