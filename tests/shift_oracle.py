"""Reference relabel lists of a Pieri build, as jring computed them.

Before it read them off the slice's own partitions, the build raised the
first j parts of every partition of slice (n - j, l) and looked the result
up in slice (n, l).  It relies on nothing the filter assumes about which
partitions a raise reaches.
"""

from __future__ import annotations

from jring.combinatorics import Partition


def raised_positions(
    partitions: list[Partition], below: list[Partition], j: int
) -> list[int]:
    # the position in partitions of each partition of below, in order, with
    # its first j parts raised by one
    position = {lam: i for i, lam in enumerate(partitions)}
    return [position[tuple([p + 1 for p in kappa[:j]]) + kappa[j:]] for kappa in below]
