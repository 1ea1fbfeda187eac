"""The numeric Chern series as it was computed before it stopped at the truncation degree.

jring.invariants.ch_numeric once multiplied the whole product so far by
each factor sum_{i=1}^{N} k^i x_i with XPolynomial.__mul__ and then
dropped every term above degree N.  That is kept here as an oracle for the
product that never forms those terms.
"""

from __future__ import annotations

from typing import Sequence

from jring.xring import XPolynomial, truncate


def ch_numeric(ks: Sequence[int], max_degree: int) -> XPolynomial:
    """Truncated product of the numeric power series sum_i k_j^i x_i."""
    if not ks or max_degree < 1:
        raise ValueError("need a nonempty k tuple and max_degree >= 1")
    out = XPolynomial.one()
    for k in ks:
        factor = XPolynomial(
            {(i,): k**i for i in range(1, max_degree + 1)}
        )
        out = truncate(out * factor, max_degree)
    return out
