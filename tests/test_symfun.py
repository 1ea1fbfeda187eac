import inspect
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import raise_oracle
import shift_oracle
from backsub_oracle import build_transition_matrix
from dense_oracle import dense_expansion
from jring import checks, invariants, symfun
from jring.combinatorics import (
    enumerate_compositions,
    enumerate_partitions,
    leading_partition,
    weight,
)
from jring.symfun import (
    expand_elementary_product,
    transition_matrix,
    waring_coefficient,
)
from partition_oracle import dominance_leq


def test_expand_examples():
    # slice (4, 2) has the labels (2, 1) and (0, 2), in that order
    assert expand_elementary_product(4, 2) == [{(3, 1): 1, (2, 2): 2}, {(2, 2): 1}]
    assert expand_elementary_product(1, 1) == [{(1,): 1}]
    for n, ell in ((2, 3), (0, 0), (3, 0)):
        with pytest.raises(ValueError, match="requires n >= ell >= 1"):
            expand_elementary_product(n, ell)


def test_expansion_matches_dense_oracle():
    for n in range(1, 13):
        for ell in range(1, n + 1):
            expansions = expand_elementary_product(n, ell)
            for beta, exp in zip(enumerate_compositions(n, ell), expansions, strict=True):
                assert exp == dense_expansion(beta, ell)


@st.composite
def labels(draw, max_n=16, max_ell=8):
    n = draw(st.integers(1, max_n))
    ell = draw(st.integers(1, min(n, max_ell)))
    return draw(st.sampled_from(enumerate_compositions(n, ell)))


@settings(max_examples=30, deadline=None, database=None)
@given(labels())
def test_expansion_matches_dense_oracle_on_drawn_labels(beta):
    n, ell = weight(beta), len(beta)
    exp = expand_elementary_product(n, ell)[enumerate_compositions(n, ell).index(beta)]
    assert exp == dense_expansion(beta, ell)


def test_expansion_is_unitriangular():
    # e^beta = m_{lead(beta)} + terms strictly below in dominance
    for n in range(1, 13):
        for ell in range(1, n + 1):
            expansions = expand_elementary_product(n, ell)
            for beta, exp in zip(enumerate_compositions(n, ell), expansions, strict=True):
                lead = leading_partition(beta)
                assert exp[lead] == 1
                for lam, c in exp.items():
                    assert c > 0
                    assert dominance_leq(lam, lead)


def test_expansion_coefficients_positive_and_graded():
    for exp in expand_elementary_product(9, 3):
        for lam in exp:
            assert sum(lam) == 9 and len(lam) == 3


def test_transition_matrix_shape_and_unitriangular():
    for n in range(1, 19):
        for ell in range(1, n + 1):
            tm = transition_matrix(n, ell)
            assert len(tm.partitions) == len(tm.compositions)
            for beta in tm.compositions:
                assert tm.entry(leading_partition(beta), beta) == 1


def test_transition_matrix_inverts_expansion():
    for n in range(1, 21):
        for ell in range(1, n + 1):
            assert checks.expansion_inverts_matrix(n, ell)


@st.composite
def slices(draw, min_n, max_n):
    n = draw(st.integers(min_n, max_n))
    return n, draw(st.integers(1, n))


@settings(max_examples=10, deadline=None, database=None)
@given(slices(21, 24))
def test_expansion_times_matrix_is_identity_on_drawn_slices(slice_):
    # beyond the slices test_transition_matrix_inverts_expansion covers
    assert checks.expansion_inverts_matrix(*slice_)


def test_pieri_build_matches_backsub_oracle():
    for n in range(1, 19):
        for ell in range(1, n + 1):
            tm = transition_matrix(n, ell)
            want = build_transition_matrix(n, ell)
            assert tm.partitions == want.partitions
            assert tm.compositions == want.compositions
            assert tm.index_rows == want.index_rows
            assert tm.entries == want.entries


@settings(max_examples=20, deadline=None, database=None)
@given(slices(1, 22))
def test_cold_build_matches_backsub_oracle_on_drawn_slices(slice_):
    # a fresh memo: the build fills the earlier slices of its length itself
    n, ell = slice_
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symfun, "_memo", {})
        tm = transition_matrix(n, ell)
        # of the chain, only the ell slices a build of (n + 1, ell) reads stay
        low = max(ell, n - ell + 1)
        assert sorted(symfun._memo) == [(m, ell) for m in range(low, n + 1)]
    assert tm.entries == build_transition_matrix(n, ell).entries


def test_slice_is_stored_once(monkeypatch):
    # a cold build, every column read by g_poly and both matrix checks use
    # the stored index rows; the keyed view is not built until it is read
    monkeypatch.setattr(symfun, "_memo", {})
    tm = transition_matrix(20, 6)
    for beta in tm.compositions:
        invariants.g_poly(beta)
    assert checks.expansion_inverts_matrix(20, 6)
    assert checks.waring_matches_matrix(20, 6)
    assert "entries" not in tm.__dict__
    want = build_transition_matrix(20, 6)
    assert (tm.partitions, tm.compositions, tm.index_rows) == (
        want.partitions, want.compositions, want.index_rows
    )


def _cold(n, ell):
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symfun, "_memo", {})
        return transition_matrix(n, ell)


def test_stable_slice_holds_the_rows_of_the_slice_below():
    # both slices built cold, so neither shares its rows: for 2l > n,
    # m_(kappa + (1)) in l variables has the e-expansion of m_kappa in l - 1
    stable = [(n, ell) for n in range(2, 25) for ell in range(n // 2 + 1, n + 1)]
    assert len(stable) == 155
    for n, ell in stable:
        tm, below = _cold(n, ell), _cold(n - 1, ell - 1)
        assert tm.index_rows == below.index_rows
        assert tm.partitions == [kappa + (1,) for kappa in below.partitions]


def test_ascending_sweep_shares_the_rows_of_stable_slices(monkeypatch):
    # exactly the slices with 2l > n share: not those at 2l = n, such as
    # (4, 2) and (6, 3)
    monkeypatch.setattr(symfun, "_memo", {})
    for n in range(1, 17):
        for ell in range(1, n + 1):
            tm = transition_matrix(n, ell)
            assert tm.partitions == enumerate_partitions(n, ell)
            if ell > 1:
                below = transition_matrix(n - 1, ell - 1)
                assert (tm.index_rows is below.index_rows) == (2 * ell > n)


def test_shift_row_is_the_row_of_lambda_minus_the_ones(monkeypatch):
    # an ascending sweep: for lambda_l >= 2, m_lambda = e_l m_mu in l
    # variables with mu = lambda - (1^l), so the row of lambda is the row of
    # mu in slice (n - l, l) with each label beta raised to beta + u_l
    monkeypatch.setattr(symfun, "_memo", {})
    shifted = 0
    for n in range(1, 21):
        for ell in range(1, n + 1):
            tm = transition_matrix(n, ell)
            if 2 * ell > n:
                continue
            below = transition_matrix(n - ell, ell)
            for lam, row in zip(tm.partitions, tm.index_rows):
                if lam[-1] < 2:
                    continue
                mu_row = below.index_rows[below.partitions.index(tuple(p - 1 for p in lam))]
                assert {tm.compositions[k]: c for k, c in row.items()} == {
                    below.compositions[k][:-1] + (below.compositions[k][-1] + 1,): c
                    for k, c in mu_row.items()
                }
                shifted += 1
    assert shifted == 626


def test_pieri_step_runs_once_per_row_that_ends_in_a_part_1(monkeypatch):
    # an ascending sweep: each lambda != (1^l) that ends in a part 1 takes
    # one _raise_terms call, except in a stable slice that shares its rows
    raise_terms = symfun._raise_terms
    stepped = []

    def counted(mu, j):
        stepped.append(tuple(p + 1 for p in mu[:j]) + mu[j:])
        return raise_terms(mu, j)

    monkeypatch.setattr(symfun, "_memo", {})
    monkeypatch.setattr(symfun, "_raise_terms", counted)
    want = []
    for n in range(1, 17):
        for ell in range(1, n + 1):
            tm = transition_matrix(n, ell)
            if ell > 1 and tm.index_rows is transition_matrix(n - 1, ell - 1).index_rows:
                continue
            want += [lam for lam in tm.partitions if lam[0] > 1 and lam[-1] == 1]
    assert sorted(stepped) == sorted(want)
    assert len(stepped) == 444


def test_raised_positions_match_the_raise_and_lookup_oracle():
    # raising the first j parts of slice (n - j, l) reaches, in order, the
    # lambda of slice (n, l) with lambda_j > lambda_(j+1), or lambda_l >= 2
    # for j = l
    for n in range(2, 25):
        for ell in range(1, n // 2 + 1):
            partitions = enumerate_partitions(n, ell)
            for j in range(1, ell + 1):
                below = enumerate_partitions(n - j, ell)
                assert symfun._raised_positions(partitions, j) == shift_oracle.raised_positions(
                    partitions, below, j
                )


def _assert_no_zero_entry(rows):
    assert all(0 not in row.values() for row in rows)


def test_no_stored_row_holds_a_zero_and_cancelling_rows_are_filtered(monkeypatch):
    # an ascending sweep: a Pieri row is stored as it stands unless its
    # subtractions cancelled an entry, and only then filtered
    drop_zeros = symfun._drop_zeros
    filtered = []

    def counted(expr):
        assert 0 in expr.values()
        filtered.append(expr)
        return drop_zeros(expr)

    monkeypatch.setattr(symfun, "_memo", {})
    monkeypatch.setattr(symfun, "_drop_zeros", counted)
    for n in range(1, 25):
        for ell in range(1, n + 1):
            _assert_no_zero_entry(transition_matrix(n, ell).index_rows)
        if n == 16:
            assert len(filtered) == 75
    assert len(filtered) == 1949


@settings(max_examples=20, deadline=None, database=None)
@given(slices(1, 24))
def test_no_row_of_a_cold_chain_holds_a_zero(slice_):
    # every slice the chain builds, including those it drops again
    build = symfun._build_transition_matrix
    built = []

    def kept(n, ell):
        built.append(build(n, ell))
        return built[-1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symfun, "_memo", {})
        mp.setattr(symfun, "_build_transition_matrix", kept)
        transition_matrix(*slice_)
    assert len(built) == slice_[0] - slice_[1] + 1
    for tm in built:
        _assert_no_zero_entry(tm.index_rows)


@st.composite
def stable_slices(draw, max_n):
    n = draw(st.integers(2, max_n))
    return n, draw(st.integers(n // 2 + 1, n))


@settings(max_examples=30, deadline=None, database=None)
@given(stable_slices(30))
def test_shared_stable_slice_matches_cold_build_on_drawn_slices(slice_):
    n, ell = slice_
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(symfun, "_memo", {})
        below = transition_matrix(n - 1, ell - 1)
        tm = transition_matrix(n, ell)
        assert tm.index_rows is below.index_rows
        assert checks.expansion_inverts_matrix(n, ell)
    cold = _cold(n, ell)
    assert (tm.partitions, tm.compositions, tm.index_rows) == (
        cold.partitions, cold.compositions, cold.index_rows
    )


def _padded_partitions(max_length, max_weight):
    # every weakly decreasing tuple of length <= max_length, zeros allowed,
    # of weight <= max_weight
    for size in range(1, max_length + 1):
        for w in range(max_weight + 1):
            for parts in range(1 if w else 0, min(size, w) + 1):
                for lam in enumerate_partitions(w, parts):
                    yield lam + (0,) * (size - parts)


def _raise_dict(terms):
    out = {}
    for nu, c in terms:
        assert nu not in out
        out[nu] = c
    return out


def test_raise_terms_match_value_by_value_oracle():
    for mu in _padded_partitions(8, 14):
        for j in range(1, len(mu) + 1):
            assert _raise_dict(symfun._raise_terms(mu, j)) == _raise_dict(
                raise_oracle.raise_terms(mu, j)
            )


@settings(max_examples=200, deadline=None, database=None)
@given(st.lists(st.integers(0, 9), min_size=1, max_size=12), st.data())
def test_raise_terms_match_oracle_on_drawn_partitions(parts, data):
    # beyond the exhaustive range: longer mu, larger parts and weights.  About
    # half the draws take j = 1, the one-box rule, so long mu with many blocks
    # reach it
    mu = tuple(sorted(parts, reverse=True))
    j = data.draw(st.one_of(st.just(1), st.integers(1, len(mu))))
    assert _raise_dict(symfun._raise_terms(mu, j)) == _raise_dict(
        raise_oracle.raise_terms(mu, j)
    )


def test_build_checks_the_pieri_step(monkeypatch):
    # a wrong coefficient at lambda, or a term above lambda in dominance,
    # makes the build fail instead of returning a wrong matrix
    raise_terms = symfun._raise_terms

    def wrong_lead(mu, j):
        terms = raise_terms(mu, j)
        lead = max(nu for nu, _ in terms)
        return [(nu, 2 * c if nu == lead else c) for nu, c in terms]

    def above(mu, j):
        terms = raise_terms(mu, j)
        top = (sum(mu) + j - len(mu) + 1,) + (1,) * (len(mu) - 1)
        return terms + [(top, 1)]

    # in the chain of (7, 3), wrong_lead fails at (2, 1, 1) in slice (4, 3),
    # and above at the Pieri step of (2, 2, 1) in slice (5, 3), whose planted
    # term (3, 1, 1) is not solved yet.  (The chain of (6, 2) would not do:
    # its only Pieri steps are at the rows (m - 1, 1), where the planted
    # term is lambda itself)
    for patched, message in (
        (wrong_lead, r"no unit term at \(2, 1, 1\)"),
        (above, r"not triangular at \(3, 1, 1\)"),
    ):
        monkeypatch.setattr(symfun, "_memo", {})
        monkeypatch.setattr(symfun, "_raise_terms", patched)
        with pytest.raises(RuntimeError, match=message):
            transition_matrix(7, 3)


def test_cold_chain_needs_no_recursion(monkeypatch):
    # (300, 1) and (150, 2) chain through every earlier slice of their
    # length; the fill loops, so a stack barely deeper than the caller's
    # is enough
    monkeypatch.setattr(symfun, "_memo", {})
    early = transition_matrix(10, 2)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(len(inspect.stack(0)) + 50)
    try:
        one = transition_matrix(300, 1)
        two = transition_matrix(150, 2)
    finally:
        sys.setrecursionlimit(limit)
    assert (one.partitions, one.compositions, one.index_rows) == ([(300,)], [(300,)], [{0: 1}])
    assert two.entries == build_transition_matrix(150, 2).entries
    # a slice asked for stays; a chain keeps only the slices the next build
    # of its length reads
    assert sorted(symfun._memo) == [(9, 2), (10, 2), (149, 2), (150, 2), (300, 1)]
    assert symfun._memo[(10, 2)] is early


def test_g_column_example():
    tm = transition_matrix(4, 2)
    assert tm.g_column((0, 2)) == {(2, 2): 1, (3, 1): -2}
    assert tm.g_column((2, 1)) == {(3, 1): 1}


@pytest.mark.parametrize(
    "beta,value",
    [
        ((0, 2), -2),
        ((1, 2), -3),
        ((1,), 1),
        ((0, 0, 1), 1),
        ((2,), 1),
    ],
)
def test_waring_examples(beta, value):
    assert waring_coefficient(beta) == value


@settings(max_examples=15, deadline=None, database=None)
@given(slices(19, 26))
def test_waring_matches_matrix_entry(slice_):
    # beyond criterion 7, which covers every slice with n <= 18
    assert checks.waring_matches_matrix(*slice_)


def test_waring_unit_iff_square_weight():
    for n in range(1, 13):
        for ell in range(1, n + 1):
            for beta in enumerate_compositions(n, ell):
                if weight(beta) == len(beta):
                    assert waring_coefficient(beta) == 1
