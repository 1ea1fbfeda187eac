"""Reference partition combinatorics: exponent vectors as partitions,
conjugation and the dominance order.

jring itself reads leading partitions off suffix sums and never conjugates
or compares by dominance; the tests use these to check that the leading
partition is the conjugate of the exponent vector's partition and that the
canonical order extends dominance.
"""

from __future__ import annotations

Partition = tuple[int, ...]


def to_partition(beta: tuple[int, ...]) -> Partition:
    """The partition with beta_j copies of the part j, largest parts first.

    Bijection from the exponent vectors of weight n and length l onto the
    partitions of n with largest part l (l = len(beta) when beta_l >= 1).
    """
    parts: list[int] = []
    for j in range(len(beta), 0, -1):
        parts.extend([j] * beta[j - 1])
    return tuple(parts)


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
