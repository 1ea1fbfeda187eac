"""The ambient ring Q[x_1, x_2, ...] with exact sparse arithmetic.

A monomial x_{l_1} x_{l_2} ... is keyed by its partition (l_1 >= l_2 >= ...),
so commutativity is built into the representation.  deg(x_i) = i; the degree
of a term is the weight of its partition, the length is its number of parts.
Coefficients are exact: an integral coefficient is stored as an int, any
other as a Fraction with denominator > 1.  The integral basis polynomials
therefore do plain int arithmetic, and only the exp-style lifts carry
denominators.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Mapping, Optional, Union

from .combinatorics import Partition

Coeff = Union[int, Fraction]


class XPolynomial:
    """Sparse polynomial: map from monomial partition to nonzero rational.

    The public constructor is where outside input enters: it sorts and merges
    keys, rejects parts < 1 and coerces coefficients.  Ring operations keep
    keys canonical themselves and build their results with ``_canonical``.
    """

    __slots__ = ("terms",)

    def __init__(self, terms: Optional[Mapping[Partition, Coeff]] = None):
        clean: dict[Partition, Coeff] = {}
        if terms:
            for lam, c in terms.items():
                if not isinstance(c, (int, Fraction)):
                    c = Fraction(c)
                if c != 0:
                    key = tuple(sorted(lam, reverse=True))
                    if any(p < 1 for p in key):
                        raise ValueError(f"bad monomial index {lam}")
                    clean[key] = clean.get(key, 0) + c
        self.terms = XPolynomial._canonical(clean).terms

    # -- constructors ------------------------------------------------------

    @classmethod
    def _canonical(cls, terms: Mapping[Partition, Coeff]) -> "XPolynomial":
        """The polynomial of terms whose keys are already partitions.

        Every key must be a weakly decreasing tuple of parts >= 1 and every
        coefficient an int or a Fraction; zeros are dropped and integral
        Fractions stored as int.
        """
        p = object.__new__(cls)
        p.terms = {
            k: v if type(v) is int or v.denominator > 1 else v.numerator
            for k, v in terms.items()
            if v
        }
        return p

    @classmethod
    def one(cls) -> "XPolynomial":
        return cls({(): 1})

    # -- ring structure ----------------------------------------------------

    def __add__(self, other: "XPolynomial") -> "XPolynomial":
        out = dict(self.terms)
        for lam, c in other.terms.items():
            out[lam] = out.get(lam, 0) + c
        return XPolynomial._canonical(out)

    def __sub__(self, other: "XPolynomial") -> "XPolynomial":
        return self + (-other)

    def __neg__(self) -> "XPolynomial":
        return XPolynomial._canonical({lam: -c for lam, c in self.terms.items()})

    def __mul__(self, other: "XPolynomial") -> "XPolynomial":
        out: dict[Partition, Coeff] = {}
        for lam1, c1 in self.terms.items():
            for lam2, c2 in other.terms.items():
                key = tuple(sorted(lam1 + lam2, reverse=True))
                out[key] = out.get(key, 0) + c1 * c2
        return XPolynomial._canonical(out)

    def scale(self, c: Coeff) -> "XPolynomial":
        return XPolynomial({lam: c * v for lam, v in self.terms.items()})

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, XPolynomial):
            return NotImplemented
        return self.terms == other.terms

    def __hash__(self) -> int:
        return hash(frozenset(self.terms.items()))

    # -- queries -----------------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degrees(self) -> set[int]:
        return {sum(lam) for lam in self.terms}

    def max_degree(self) -> int:
        return max((sum(lam) for lam in self.terms), default=0)

    def is_homogeneous(self) -> bool:
        return len(self.degrees()) <= 1

    def sorted_terms(self) -> list[tuple[Partition, Coeff]]:
        """Terms by increasing degree then increasing lex on the partition."""
        return sorted(self.terms.items(), key=lambda kv: (sum(kv[0]), kv[0]))

    def __repr__(self) -> str:
        if self.is_zero():
            return "XPolynomial(0)"
        bits = []
        for lam, c in self.sorted_terms():
            mono = "*".join(f"x{p}" for p in reversed(lam)) or "1"
            bits.append(f"{c}*{mono}")
        return "XPolynomial(" + " + ".join(bits) + ")"


def lowered(lam: Partition) -> list[tuple[Partition, int]]:
    """The terms (mu, k) of d x_lam, one for each block of equal parts v >= 2.

    By the Leibniz rule d lowers one part at a time.  Lowering any part of a
    block of k equal parts v gives the same monomial, so each block gives one
    term with coefficient k; lowering the block's last part keeps mu weakly
    decreasing.  Parts are weakly decreasing, so the scan stops at the first
    part below 2.  Distinct blocks give distinct mu.
    """
    out = []
    start = 0
    while start < len(lam) and lam[start] >= 2:
        v = lam[start]
        end = start + 1
        while end < len(lam) and lam[end] == v:
            end += 1
        out.append((lam[:end - 1] + (v - 1,) + lam[end:], end - start))
        start = end
    return out


def derivation_d(p: XPolynomial) -> XPolynomial:
    """Leibniz extension of d x_1 = 0, d x_i = x_{i-1}; lowers degree by 1."""
    out: dict[Partition, Coeff] = {}
    for lam, c in p.terms.items():
        for mu, k in lowered(lam):
            out[mu] = out.get(mu, 0) + k * c
    return XPolynomial._canonical(out)


def derivation_delta(p: XPolynomial) -> XPolynomial:
    """Leibniz extension of delta x_i = i x_{i+1}; raises degree by 1.

    Raising any part of a block of k equal parts v gives the same monomial,
    so each block gives one term with coefficient k v; raising the block's
    first part keeps the key weakly decreasing.
    """
    out: dict[Partition, Coeff] = {}
    for lam, c in p.terms.items():
        start = 0
        while start < len(lam):
            v = lam[start]
            end = start + 1
            while end < len(lam) and lam[end] == v:
                end += 1
            key = lam[:start] + (v + 1,) + lam[start + 1:]
            out[key] = out.get(key, 0) + (end - start) * v * c
            start = end
    return XPolynomial._canonical(out)


def project(p: XPolynomial, n: int) -> XPolynomial:
    """Sum of the terms of degree exactly n."""
    return XPolynomial._canonical({lam: c for lam, c in p.terms.items() if sum(lam) == n})


def truncate(p: XPolynomial, n: int) -> XPolynomial:
    """Drop all terms of degree > n."""
    return XPolynomial._canonical(
        {lam: c for lam, c in p.terms.items() if sum(lam) <= n}
    )
