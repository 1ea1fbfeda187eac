"""Index sets and partition combinatorics.

Compositions here are exponent vectors beta = (beta_1, ..., beta_l) labelling
products of elementary symmetric polynomials e_1^{beta_1} ... e_l^{beta_l}.
The admissible ones have beta_1, ..., beta_{l-1} >= 0 and beta_l >= 1; the
empty tuple () is the label of the unit.  Partitions are weakly decreasing
tuples of positive integers.  Both are plain tuples of ints throughout.
"""

from __future__ import annotations

from itertools import accumulate
from typing import Iterator, Optional

Composition = tuple[int, ...]
Partition = tuple[int, ...]

EMPTY: Composition = ()


def is_composition(beta: Composition) -> bool:
    """True iff beta is an admissible exponent vector (member of B^(l))."""
    if len(beta) == 0:
        return True
    if beta[-1] < 1:
        return False
    return all(b >= 0 for b in beta[:-1])


def weight(beta: Composition) -> int:
    """Graded weight sum(i * beta_i); the degree of the polynomial g_beta."""
    return sum(i * b for i, b in enumerate(beta, start=1))


def to_partition(beta: Composition) -> Partition:
    """The partition with beta_j copies of the part j, largest parts first.

    Bijection from the exponent vectors of weight n and length l onto the
    partitions of n with exactly l parts (l = len of result = sum(beta)).
    """
    parts: list[int] = []
    for j in range(len(beta), 0, -1):
        parts.extend([j] * beta[j - 1])
    return tuple(parts)


def from_partition(lam: Partition) -> Composition:
    """Inverse of to_partition: multiplicity vector of parts 1..max(lam)."""
    if not lam:
        return EMPTY
    beta = [0] * lam[0]
    for part in lam:
        beta[part - 1] += 1
    return tuple(beta)


def conjugate(lam: Partition) -> Partition:
    """Transpose of the Young diagram: lam'_j = #{i : lam_i >= j}."""
    if not lam:
        return ()
    return tuple(sum(1 for p in lam if p >= j) for j in range(1, lam[0] + 1))


def dominance_leq(lam: Partition, mu: Partition) -> bool:
    """Natural (dominance) partial order on partitions of equal weight."""
    if sum(lam) != sum(mu):
        raise ValueError("dominance is only defined for equal weights")
    total_l = total_m = 0
    for k in range(max(len(lam), len(mu))):
        total_l += lam[k] if k < len(lam) else 0
        total_m += mu[k] if k < len(mu) else 0
        if total_l > total_m:
            return False
    return True


def leading_partition(beta: Composition) -> Partition:
    """Conjugate of to_partition(beta): index of the leading monomial of g_beta.

    Its parts are the nonzero suffix sums lam'_j = beta_j + ... + beta_l.
    """
    parts = list(accumulate(reversed(beta)))
    parts.reverse()
    while parts and not parts[-1]:
        parts.pop()
    return tuple(parts)


def composition_sort_key(beta: Composition):
    """Canonical order: by weight, length, then leading partition, largest first.

    Within fixed (n, l) this is a linear extension of dominance on the leading
    partitions, which is what makes the e->m expansion triangular.
    """
    lead = leading_partition(beta)
    return (weight(beta), len(beta), tuple(-p for p in lead))


def partition_sort_key(lam: Partition):
    """Order partitions of fixed (n, l) from dominance-largest downwards."""
    return (sum(lam), len(lam), tuple(-p for p in lam))


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


def enumerate_partitions(n: int, ell: int) -> list[Partition]:
    """Partitions of n with exactly ell parts, dominance-largest first."""
    results: list[Partition] = []

    def rec(remaining: int, parts_left: int, max_part: int, acc: list[int]):
        if parts_left == 0:
            if remaining == 0:
                results.append(tuple(acc))
            return
        # the next part is at most max_part, leaves at least 1 for each part
        # after it, and is at least their average
        top = min(max_part, remaining - (parts_left - 1))
        low = max(1, -(-remaining // parts_left))
        for p in range(top, low - 1, -1):
            rec(remaining - p, parts_left - 1, p, acc + [p])

    if ell <= 0:
        return [()] if n == ell == 0 else []
    rec(n, ell, n, [])
    results.sort(key=partition_sort_key)
    return results


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
    betas = [tuple(b) for b in _raw_compositions(n, ell, first)]
    betas.sort(key=composition_sort_key)
    return betas
