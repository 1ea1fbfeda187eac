"""The term renderer as it was before it read coefficients without arithmetic.

jring.cli._render_terms once took each coefficient's abs(), compared it with
0 and 1 and called str() on it, which for a Fraction is Fraction arithmetic
on every term, and scanned a monomial's runs with a generator.  The functions
below are that renderer, kept as an oracle for the one-pass renderer: the
output must be the same to the byte.
"""

from __future__ import annotations

import json

from jring.cli import basis_label
from jring.combinatorics import composition_sort_key


def _runs(lam):
    """(part, multiplicity) for each run of equal parts of a partition, smallest part first."""
    end = len(lam)
    while end:
        v = lam[end - 1]
        start = end - 1
        while start and lam[start - 1] == v:
            start -= 1
        yield v, end - start
        end = start


def _monomial_text(lam) -> str:
    if not lam:
        return "1"
    return "*".join([f"x{v}^{e}" if e > 1 else f"x{v}" for v, e in _runs(lam)])


def _monomial_latex(lam) -> str:
    if not lam:
        return "1"
    pieces = []
    for v, e in _runs(lam):
        pieces.append(f"x_{{{v}}}" if v >= 10 else f"x_{v}")
        if e > 1:
            pieces[-1] += f"^{{{e}}}" if e >= 10 else f"^{e}"
    return "".join(pieces)


def _render_terms(terms, mono_fn, joiner: str = " ") -> str:
    if not terms:
        return "0"
    out = ""
    for i, (lam, c) in enumerate(terms):
        mono = mono_fn(lam)
        mag = abs(c)
        if mono == "1":
            body = str(mag)
        elif mag == 1:
            body = mono
        else:
            body = f"{mag}{joiner}{mono}"
        if i == 0:
            out = body if c > 0 else f"-{body}"
        else:
            out += f" + {body}" if c > 0 else f" - {body}"
    return out


def render_polynomial(p, fmt: str) -> str:
    """A polynomial in text, LaTeX or JSON, as the command line printed it."""
    if fmt == "json":
        return json.dumps(
            [{"partition": list(lam), "coeff": str(c)} for lam, c in p.sorted_terms()]
        )
    if fmt == "latex":
        return _render_terms(p.sorted_terms(), _monomial_latex)
    return _render_terms(p.sorted_terms(), _monomial_text, joiner="*")


def render_combination_latex(comb) -> str:
    items = sorted(comb.items(), key=lambda kv: composition_sort_key(kv[0]))
    return _render_terms(items, lambda b: basis_label(b, "latex"), joiner="")


def series_latex(coeffs) -> str:
    """What series --format latex printed for these coefficients."""
    terms = [(n, c) for n, c in enumerate(coeffs) if c]
    power = lambda n: "1" if n == 0 else "t" if n == 1 else f"t^{{{n}}}"
    return _render_terms(terms, power, joiner="") + " + \\cdots"
