"""Reference e -> m expansion by dense exponent-vector multiplication.

Expands e^beta monomial by monomial over every exponent vector in ell
variables.  It is far slower than jring.symfun's partition-space engine and
shares none of its code, which is what makes it a useful oracle.
"""

from __future__ import annotations


def elementary_poly(j: int, ell: int) -> dict[tuple[int, ...], int]:
    # e_j in ell variables as {exponent vector: coefficient}
    out: dict[tuple[int, ...], int] = {}

    def rec(start: int, left: int, acc: list[int]):
        if left == 0:
            vec = [0] * ell
            for i in acc:
                vec[i] = 1
            out[tuple(vec)] = 1
            return
        for i in range(start, ell - left + 1):
            rec(i + 1, left - 1, acc + [i])

    rec(0, j, [])
    return out


def poly_mul(
    a: dict[tuple[int, ...], int], b: dict[tuple[int, ...], int]
) -> dict[tuple[int, ...], int]:
    out: dict[tuple[int, ...], int] = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = tuple(x + y for x, y in zip(ka, kb))
            out[key] = out.get(key, 0) + va * vb
    return out


def dense_expansion(beta: tuple[int, ...], ell: int) -> dict[tuple[int, ...], int]:
    """Coefficients of e^beta over m_lambda, read off the sorted monomials.

    e^beta is symmetric, so the coefficient of m_lambda is that of the single
    monomial k^lambda.  The e_l^{beta_l} factor only shifts every exponent.
    """
    shift = beta[-1]
    prod: dict[tuple[int, ...], int] = {(0,) * ell: 1}
    for j in range(1, ell):
        ej = elementary_poly(j, ell)
        for _ in range(beta[j - 1]):
            prod = poly_mul(prod, ej)
    out: dict[tuple[int, ...], int] = {}
    for vec, c in prod.items():
        shifted = tuple(e + shift for e in vec)
        if all(shifted[i] >= shifted[i + 1] for i in range(ell - 1)):
            out[shifted] = c
    return out
