"""Reference tests for generator candidates: a search and a closed-form rule.

splits_properly is the search jring.analysis used first: it tries every
proper sub-multiset of the partition that is itself a leading partition of a
B(0) label and recurses on the rest.  split_rule is the closed form that
replaced it, and that jring.analysis then used to filter all B(0) labels
before it generated the candidates directly.  The three share no code, which
is what makes each an oracle for the others.
"""

from __future__ import annotations

from collections import Counter
from functools import lru_cache
from itertools import product as iproduct


def is_leading_of_b0(lam: tuple[int, ...]) -> bool:
    # leading partitions of nontrivial B(0) labels: (1), or lam_1 == lam_2
    if lam == (1,):
        return True
    return len(lam) >= 2 and lam[0] == lam[1]


def proper_sub_multisets(lam: tuple[int, ...]) -> list[tuple[int, ...]]:
    parts = sorted(set(lam), reverse=True)
    mults = [lam.count(p) for p in parts]
    subs = []
    for choice in iproduct(*(range(m + 1) for m in mults)):
        sub = tuple(p for p, c in zip(parts, choice) for _ in range(c))
        if sub and sub != lam:
            subs.append(sub)
    return subs


@lru_cache(maxsize=None)
def decomposable(lam: tuple[int, ...]) -> bool:
    # can lam be written as a multiset union of >= 1 B(0) leading partitions?
    if is_leading_of_b0(lam):
        return True
    return splits_properly(lam)


@lru_cache(maxsize=None)
def splits_properly(lam: tuple[int, ...]) -> bool:
    # union of >= 2 leading partitions, each of strictly smaller weight
    for mu in proper_sub_multisets(lam):
        if not is_leading_of_b0(mu):
            continue
        rest = Counter(lam) - Counter(mu)
        remainder = tuple(sorted(rest.elements(), reverse=True))
        if decomposable(remainder):
            return True
    return False


def split_rule(lam: tuple[int, ...]) -> bool:
    # lam is a union of >= 2 B(0) leading partitions (each (1) or with equal
    # top two parts) iff lam_1 = lam_2 and one of these splits off, leaving a
    # leading partition: a second (lam_1, lam_1), a part 1, or (v, v) for a
    # smaller part v.  On a B(0) label with first nonzero index k this reads
    # k >= 4, beta_l = 1, or beta_i = 0 for some k < i < l.
    if len(lam) < 2 or lam[0] != lam[1]:
        return False
    j = lam.count(lam[0])
    rest = lam[j:]
    return j >= 4 or lam[-1] == 1 or len(set(rest)) < len(rest)
