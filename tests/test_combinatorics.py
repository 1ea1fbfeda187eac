import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from jring.combinatorics import (
    EMPTY,
    b0_counts,
    enumerate_compositions,
    enumerate_partitions,
    is_composition,
    leading_partition,
    partitions_of_next_degree,
    weight,
)

import enumeration_oracle
from partition_oracle import conjugate, dominance_leq, to_partition


def test_enumerate_basic_examples():
    assert enumerate_compositions(4, 2) == [(2, 1), (0, 2)]
    assert enumerate_compositions(0, 0) == [EMPTY]
    assert enumerate_compositions(12, 2, first=0) == [(0, 6)]


def test_enumerate_degenerate_lengths():
    assert enumerate_compositions(3, 0) == []
    assert enumerate_compositions(0, 0, first=0) == [EMPTY]
    assert enumerate_compositions(0, 0, first=1) == []
    # length 1: B_n^(1)(i) = {(i+1)} exactly when n = i + 1
    assert enumerate_compositions(5, 1, first=4) == [(5,)]
    assert enumerate_compositions(5, 1, first=3) == []
    assert enumerate_compositions(5, 1) == [(5,)]


def test_enumerate_membership_and_weight():
    for n in range(0, 12):
        for ell in range(0, n + 1):
            for beta in enumerate_compositions(n, ell):
                assert is_composition(beta)
                assert len(beta) == ell
                assert weight(beta) == n


def test_is_composition_refuses_a_negative_entry_or_a_zero_last_entry():
    for beta in [EMPTY, (1,), (0, 0, 1), (3, 0, 2)]:
        assert is_composition(beta)
    for beta in [(0,), (1, 0), (-1,), (-1, 2), (2, -1, 3), (0, 0, -2, 1)]:
        assert not is_composition(beta)


def test_b0_counts_match_the_enumeration():
    # the dims counting route, for every slice it counts through n = 30
    rows = b0_counts(30)
    assert len(rows) == 31
    for n, row in enumerate(rows):
        assert row == [len(enumerate_compositions(n, ell, first=0)) for ell in range(n + 1)]


def test_b0_counts_edge_rows():
    assert b0_counts(0) == [[1]]
    rows = b0_counts(12)
    assert rows[1] == [0, 1]
    # length 1: B_n^(1)(0) = {(1,)} exactly when n = 1; length 2: lam = (k, k)
    assert [row[1] for row in rows[1:]] == [1] + [0] * 11
    assert [row[2] for row in rows[2:]] == [1, 0] * 5 + [1]


def test_first_slices_partition_the_index_set():
    for n in range(0, 14):
        for ell in range(0, n + 1):
            whole = enumerate_compositions(n, ell)
            pieces = []
            for i in range(0, n + 1):
                pieces.extend(enumerate_compositions(n, ell, first=i))
            assert sorted(pieces) == sorted(whole)
            assert len(set(pieces)) == len(pieces)


def test_enumerators_match_the_search_and_sort_oracle():
    # in order, for every slice n <= 24 (and the empty ones ell > n) and,
    # from length 2 on (lengths 0 and 1 have their own conventions), every
    # first slice, with first = -1 and n + 1 empty
    for n in range(0, 25):
        for ell in range(0, n + 3):
            assert enumerate_partitions(n, ell) == enumeration_oracle.partitions(n, ell)
            assert enumerate_compositions(n, ell) == enumeration_oracle.compositions(
                n, ell
            )
            if ell < 2:
                continue
            for first in range(-1, n + 2):
                assert enumerate_compositions(
                    n, ell, first
                ) == enumeration_oracle.compositions(n, ell, first)


def test_enumerate_partitions_counts_and_degenerate_sizes():
    # p(n, k) = p(n - 1, k - 1) + p(n - k, k): a part 1, or all parts >= 2
    count = {(0, 0): 1}
    for n in range(1, 31):
        for k in range(1, n + 1):
            count[n, k] = count.get((n - 1, k - 1), 0) + count.get((n - k, k), 0)
            lams = enumerate_partitions(n, k)
            assert len(lams) == count[n, k] == len(set(lams))
            assert all(
                len(lam) == k and sum(lam) == n and lam[-1] >= 1
                and list(lam) == sorted(lam, reverse=True)
                for lam in lams
            )
    assert enumerate_partitions(0, 0) == [()]
    for n, k in [(0, 1), (3, 0), (2, 3), (3, -1), (0, -2)]:
        assert enumerate_partitions(n, k) == []


def test_partitions_of_next_degree_match_the_search():
    # every list, in order, built degree by degree from P(0, 0) = [()]
    lists = [[()]]
    for n in range(1, 33):
        lists = partitions_of_next_degree(lists)
        assert len(lists) == n + 1 and lists[0] == []
        for ell in range(1, n + 1):
            assert lists[ell] == enumerate_partitions(n, ell)


@pytest.mark.parametrize(
    "beta,lam",
    [
        ((0, 2), (2, 2)),
        ((1, 0, 1), (3, 1)),
        ((0, 1, 2), (3, 3, 2)),
        (EMPTY, ()),
    ],
)
def test_to_partition_examples(beta, lam):
    assert to_partition(beta) == lam


def test_to_partition_bijection():
    # to_partition maps the length-ell index set onto partitions with
    # largest part ell; the conjugates are the partitions with ell parts
    for n in range(1, 14):
        for ell in range(1, n + 1):
            betas = enumerate_compositions(n, ell)
            lams = enumerate_partitions(n, ell)
            images = [conjugate(to_partition(b)) for b in betas]
            assert sorted(images) == sorted(lams)
            assert len(set(images)) == len(images)


@pytest.mark.parametrize(
    "lam,expected",
    [
        ((5,), (1, 1, 1, 1, 1)),
        ((2, 2), (2, 2)),
        ((3, 1), (2, 1, 1)),
    ],
)
def test_conjugate_examples(lam, expected):
    assert conjugate(lam) == expected


def test_conjugate_is_involutive():
    for n in range(0, 21):
        for ell in range(0, n + 1):
            for lam in enumerate_partitions(n, ell):
                assert conjugate(conjugate(lam)) == lam


def test_dominance_examples():
    assert dominance_leq((2, 2), (3, 1))
    assert not dominance_leq((3, 1), (2, 2))
    with pytest.raises(ValueError):
        dominance_leq((2, 1), (2, 2))


def test_dominance_partial_order_axioms():
    for n in (5, 6, 7):
        lams = [
            lam
            for ell in range(1, n + 1)
            for lam in enumerate_partitions(n, ell)
        ]
        for a in lams:
            assert dominance_leq(a, a)
            for b in lams:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
                for c in lams:
                    if dominance_leq(a, b) and dominance_leq(b, c):
                        assert dominance_leq(a, c)


def test_top_partition_dominates_everything():
    for n in range(1, 13):
        for ell in range(1, n + 1):
            omega = (n - ell + 1,) + (1,) * (ell - 1)
            for lam in enumerate_partitions(n, ell):
                assert dominance_leq(lam, omega)


def test_canonical_order_extends_dominance():
    # the enumeration lists dominance-larger leading partitions first
    for n in range(2, 12):
        for ell in range(1, n + 1):
            betas = enumerate_compositions(n, ell)
            leads = [leading_partition(b) for b in betas]
            for i, a in enumerate(leads):
                for b in leads[i + 1:]:
                    assert not dominance_leq(a, b) or a == b


def test_leading_partition_is_the_conjugate_on_every_label():
    for n in range(1, 19):
        for ell in range(1, n + 1):
            for beta in enumerate_compositions(n, ell):
                assert leading_partition(beta) == conjugate(to_partition(beta))
    # trailing zeros add no part, as in (0,) + EMPTY
    for beta in (EMPTY, (0,), (0, 0), (2, 1, 0)):
        assert leading_partition(beta) == conjugate(to_partition(beta))


@settings(max_examples=200, deadline=None, database=None)
@given(
    st.lists(st.integers(0, 6), max_size=14).map(tuple),
    st.integers(1, 6),
)
def test_leading_partition_is_the_conjugate_on_drawn_labels(head, last):
    # drawn labels, admissible and with trailing zeros
    for beta in (head + (last,), head):
        assert leading_partition(beta) == conjugate(to_partition(beta))
