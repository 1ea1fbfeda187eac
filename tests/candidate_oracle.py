"""Reference test for generator candidates by sub-multiset search.

This is the search jring.analysis used before it switched to a closed-form
rule on the leading partition: it tries every proper sub-multiset of the
partition that is itself a leading partition of a B(0) label and recurses on
the rest.  It shares no code with the rule, which is what makes it a useful
oracle.
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
