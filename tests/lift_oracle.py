"""Reference derivation delta and exponential lift, as jring computed them.

Before delta scanned blocks, it raised each distinct part on its own: it
counted the part's multiplicity over the whole partition and re-sorted the
raised key.  Before the exponential lift filled one dict, it summed the
scaled terms delta^i(f_l) / (i! l^i) one polynomial at a time.  Both go
through the public XPolynomial constructor, which sorts and merges every key,
so they rely on nothing that the fast paths assume.
"""

from __future__ import annotations

import math
from fractions import Fraction

from jring.xring import XPolynomial


def derivation_delta(p: XPolynomial) -> XPolynomial:
    """Leibniz extension of delta x_i = i x_{i+1}, part by part."""
    out = {}
    for lam, c in p.terms.items():
        for idx in range(len(lam)):
            if idx == 0 or lam[idx - 1] != lam[idx]:
                mult = sum(1 for q in lam if q == lam[idx])
                key = tuple(
                    sorted(lam[:idx] + (lam[idx] + 1,) + lam[idx + 1:], reverse=True)
                )
                out[key] = out.get(key, 0) + mult * lam[idx] * c
    return XPolynomial(out)


def lift_exp(f: XPolynomial, max_degree: int) -> XPolynomial:
    """exp(delta / l) on each length-l component of f, summed term by term."""
    n = f.max_degree()
    out = XPolynomial()
    for ell in {len(lam) for lam in f.terms}:
        term = XPolynomial({lam: c for lam, c in f.terms.items() if len(lam) == ell})
        for i in range(0, max_degree - n + 1):
            if i > 0:
                term = derivation_delta(term)
            out = out + term.scale(Fraction(1, math.factorial(i) * ell**i))
    return out
