"""Reference enumeration of the index sets: search every label, then sort.

This is how jring.combinatorics enumerated before it read labels off one
ordered search over partitions: a nested generator search over the exponent
vectors, followed by a sort by the canonical key.  It shares no code with
the package, which is what makes it a useful oracle.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Optional


def _raw_compositions(
    n: int, ell: int, first: Optional[int] = None
) -> Iterator[list[int]]:
    # all (b_1, ..., b_ell) with b_i >= 0, b_ell >= 1 and sum i*b_i = n;
    # when first is given (needs ell >= 2), only those with b_1 = first
    if ell == 0:
        if n == 0:
            yield []
        return

    def rec(pos: int, remaining: int, acc: list[int]) -> Iterator[list[int]]:
        if pos == ell:
            if remaining % pos == 0 and remaining // pos >= 1:
                yield acc + [remaining // pos]
            return
        # leave at least ell for b_ell >= 1
        for b in range((remaining - ell) // pos + 1):
            yield from rec(pos + 1, remaining - pos * b, acc + [b])

    if first is None:
        yield from rec(1, n, [])
    elif 0 <= first <= n:
        yield from rec(2, n - first, [first])


def leading(beta: tuple[int, ...]) -> tuple[int, ...]:
    # suffix sums beta_j + ... + beta_l, all positive on admissible labels
    return tuple(reversed(list(accumulate(reversed(beta)))))


def compositions(
    n: int, ell: int, first: Optional[int] = None
) -> list[tuple[int, ...]]:
    """B_n^(l), or for ell >= 2 the slice B_n^(l)(first), in canonical order."""
    betas = [tuple(b) for b in _raw_compositions(n, ell, first)]
    # weight and length are fixed, so the canonical key is the leading
    # partition, largest first
    betas.sort(key=lambda b: tuple(-p for p in leading(b)))
    return betas


def partitions(n: int, ell: int) -> list[tuple[int, ...]]:
    """Partitions of n with exactly ell parts, lexicographically largest first."""
    return sorted((leading(b) for b in _raw_compositions(n, ell)), reverse=True)
