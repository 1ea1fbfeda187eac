"""Reference Pieri terms of m_mu * e_j, as jring computed them.

Before it scanned mu's blocks of equal parts left to right, the Pieri step
visited the distinct values of mu in decreasing order and counted each
value's copies over the whole of mu.  It relies on nothing the block scan
assumes about where a block ends.
"""

from __future__ import annotations

import math

from jring.combinatorics import Partition


def raise_terms(mu: Partition, j: int) -> list[tuple[Partition, int]]:
    # the terms (nu, coefficient) of m_mu * e_j (mu weakly decreasing, zeros
    # allowed); each partial is (parts of nu so far, coefficient, raises
    # left, unraised copies of the previous value), extended one block of
    # equal parts at a time
    partial = [((), 1, j, 0)]
    room = len(mu)
    prev = None
    for v in sorted(set(mu), reverse=True):
        m = mu.count(v)
        room -= m
        step = []
        for parts, coeff, left, kept in partial:
            if prev != v + 1:
                kept = 0
            for t in range(max(0, left - room), min(m, left) + 1):
                step.append((
                    parts + (v + 1,) * t + (v,) * (m - t),
                    coeff * math.comb(kept + t, t),
                    left - t,
                    m - t,
                ))
        partial = step
        prev = v
    return [(nu, coeff) for nu, coeff, _, _ in partial]
