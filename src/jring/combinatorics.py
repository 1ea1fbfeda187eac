"""Index sets and partition combinatorics.

Compositions here are exponent vectors beta = (beta_1, ..., beta_l) labelling
products of elementary symmetric polynomials e_1^{beta_1} ... e_l^{beta_l}.
The admissible ones have beta_1, ..., beta_{l-1} >= 0 and beta_l >= 1; the
empty tuple () is the label of the unit.  Partitions are weakly decreasing
tuples of positive integers.  Both are plain tuples of ints throughout.

leading_partition (lam_j = beta_j + ... + beta_l) is a bijection from the
admissible labels of weight n and length l onto the partitions of n with
exactly l parts, with inverse beta_j = lam_j - lam_{j+1}.  It carries the
canonical order of labels to the lexicographic order of partitions, largest
first, so one depth-first search over partitions enumerates both index sets
in order, and fixing lam_1 = lam_2 + i selects the slice B_n^(l)(i).
"""

from __future__ import annotations

from itertools import accumulate
from operator import sub
from typing import Optional, Sequence

Composition = tuple[int, ...]
Partition = tuple[int, ...]

EMPTY: Composition = ()


def is_composition(beta: Composition) -> bool:
    """True iff beta is an admissible exponent vector (member of B^(l))."""
    if len(beta) == 0:
        return True
    return beta[-1] >= 1 and min(beta) >= 0


def in_b0(beta: Composition) -> bool:
    """True iff the admissible label beta lies in B(0).

    B(0) labels index the kernel basis elements.  beta must pass
    is_composition, which this test does not repeat: in_b0((0, -1, 1)) is
    True.
    """
    if beta == EMPTY or beta == (1,):
        return True
    return len(beta) >= 2 and beta[0] == 0 and beta[-1] >= 1


def weight(beta: Composition) -> int:
    """Graded weight sum(i * beta_i); the degree of the polynomial g_beta."""
    return sum(i * b for i, b in enumerate(beta, start=1))


def leading_partition(beta: Composition) -> Partition:
    """The index of the leading monomial of g_beta.

    Its parts are the nonzero suffix sums lam_j = beta_j + ... + beta_l: the
    conjugate of the partition with beta_j copies of the part j.
    """
    parts = list(accumulate(reversed(beta)))
    parts.reverse()
    while parts and not parts[-1]:
        parts.pop()
    return tuple(parts)


def from_leading_partition(lam: Partition) -> Composition:
    """Inverse of leading_partition: beta_j = lam_j - lam_{j+1}, lam_{l+1} = 0.

    Maps the partitions of n with exactly l parts onto B_n^(l), and their
    lexicographic order, largest first, onto canonical order.
    """
    return tuple(map(sub, lam, lam[1:] + (0,)))


def composition_sort_key(beta: Composition):
    """Canonical order: by weight, length, then leading partition, largest first.

    Within fixed (n, l) this is a linear extension of dominance on the leading
    partitions, which is what makes the e->m expansion triangular.
    """
    lead = leading_partition(beta)
    return (weight(beta), len(beta), tuple(-p for p in lead))


def _search(
    out: list[Partition],
    remaining: int,
    parts_left: int,
    max_part: int,
    head: Partition,
) -> None:
    # append head + mu for each partition mu of remaining into exactly
    # parts_left parts of at most max_part, lexicographically largest first.
    # Every caller passes a feasible state, so each branch ends in a partition.
    if parts_left <= 1:
        out.append(head + (remaining,) if parts_left else head)
        return
    # the next part leaves at least 1 for each part after it, and is at
    # least their average
    top = min(max_part, remaining - parts_left + 1)
    low = -(-remaining // parts_left)
    for p in range(top, low - 1, -1):
        _search(out, remaining - p, parts_left - 1, p, head + (p,))


def enumerate_partitions(n: int, ell: int) -> list[Partition]:
    """Partitions of n with exactly ell parts, dominance-largest first.

    The order is lexicographic, largest first, which is a linear extension
    of dominance.
    """
    if ell <= 0 or n < ell:
        return [()] if n == ell == 0 else []
    out: list[Partition] = []
    _search(out, n, ell, n, ())
    return out


def partitions_of_next_degree(
    below: Sequence[Sequence[Partition]],
) -> list[list[Partition]]:
    """The lists enumerate_partitions(n, l) for l = 0..n, at index l.

    below holds the lists of degree n - 1 = len(below) - 1 the same way.
    A partition lam of n with l parts either ends in a part 1, and is kappa
    + (1) for one kappa of n - 1 with l - 1 parts, or has lam_l >= 2, and is
    kappa with its last part raised for one kappa of n - 1 with l parts and
    kappa_l < kappa_(l-1) (any kappa when l = 1).  Both maps keep the
    lexicographic order, so each list is a merge of two sorted runs.
    """
    n = len(below)
    out: list[list[Partition]] = [[]]
    for ell in range(1, n + 1):
        ones = [kappa + (1,) for kappa in below[ell - 1]]
        raised = [
            kappa[:-1] + (kappa[-1] + 1,)
            for kappa in (below[ell] if ell < n else ())
            if ell == 1 or kappa[-1] < kappa[-2]
        ]
        out.append(sorted(ones + raised, reverse=True))
    return out


def enumerate_compositions(
    n: int, ell: int, first: Optional[int] = None
) -> list[Composition]:
    """The index set B_n^(l), or its slice B_n^(l)(first) when first is given.

    The slices for l = 0 and l = 1 follow the degenerate conventions:
    B_n^(0)(i) is nonempty only for n = i = 0, and B_n^(1)(i) = {(i+1)}
    exactly when n = i + 1.  Output is in the canonical order of
    composition_sort_key.
    """
    if n < 0 or ell < 0:
        return []
    if first is not None and first < 0:
        return []
    if ell == 0:
        if n == 0 and (first is None or first == 0):
            return [EMPTY]
        return []
    if ell == 1:
        if first is None:
            return [(n,)] if n >= 1 else []
        return [(first + 1,)] if n == first + 1 else []
    lams: list[Partition] = []
    if first is None:
        _search(lams, n, ell, n, ())
    else:
        # beta_1 = lam_1 - lam_2 = first: choose lam_2, largest first, so
        # that lam_1 + lam_2 leaves 1 for each later part and no later part
        # exceeds lam_2
        rest = n - first
        low = max(1, -(-rest // ell))
        for second in range((rest - ell + 2) // 2, low - 1, -1):
            _search(
                lams, rest - 2 * second, ell - 2, second, (second + first, second)
            )
    return [from_leading_partition(lam) for lam in lams]


def b0_counts(n_max: int) -> list[list[int]]:
    """|B_n^(l)(0)| at rows[n][l], for 0 <= l <= n <= n_max, counted.

    For l >= 2, leading_partition maps B_n^(l)(0) onto the partitions of n
    with exactly l parts and lam_1 = lam_2.  A label with lam_l = 1 drops
    its last part, and any other lowers every part by 1; both keep
    lam_1 = lam_2, and for l = 2 the first sends (1, 1) to (1), the one
    label of B_1^(1)(0).  That bijection, the one behind
    p(n, k) = p(n - 1, k - 1) + p(n - k, k), gives

        rows[n][l] = rows[n - 1][l - 1] + rows[n - l][l]   (2 <= l <= n),

    with rows[m][l] = 0 for m < l.  The entries with l <= 1 follow the
    conventions of enumerate_compositions: rows[0][0] = rows[1][1] = 1, and
    the others are 0.
    """
    rows = [[1]]
    for n in range(1, n_max + 1):
        row = [0, int(n == 1)]
        for ell in range(2, n + 1):
            lowered = rows[n - ell][ell] if 2 * ell <= n else 0
            row.append(rows[n - 1][ell - 1] + lowered)
        rows.append(row)
    return rows
