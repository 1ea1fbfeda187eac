"""Reference transition-matrix build: expand every e^beta, then back-substitute.

This is the build jring.symfun used before it switched to one Pieri step per
partition.  It expands each e^beta over the m_lambda basis (in one call for
the whole slice), checks that the expansion is unitriangular, and solves
the rows of M from the dominance-smallest partition upwards.  It reads no
other slice, so its matrices check the chained build slice by slice.
"""

from __future__ import annotations

from jring.combinatorics import (
    enumerate_compositions,
    enumerate_partitions,
    leading_partition,
)
from jring.symfun import TransitionMatrix, expand_elementary_product


def build_transition_matrix(n: int, ell: int) -> TransitionMatrix:
    partitions = enumerate_partitions(n, ell)
    compositions = enumerate_compositions(n, ell)
    if len(partitions) != len(compositions):
        raise RuntimeError(f"index sets out of sync at (n={n}, ell={ell})")
    expansions = dict(zip(compositions, expand_elementary_product(n, ell), strict=True))
    pos = {lam: i for i, lam in enumerate(partitions)}
    lead_of = {beta: leading_partition(beta) for beta in compositions}

    # unitriangularity check: e^beta = m_{lead} + lower-dominance terms
    for beta, exp in expansions.items():
        lead = lead_of[beta]
        if exp.get(lead) != 1:
            raise RuntimeError(f"expansion of {beta} has no unit leading term")
        for lam in exp:
            if pos[lam] < pos[lead]:
                raise RuntimeError(
                    f"expansion of {beta} is not triangular at {lam}"
                )

    beta_of = {lead_of[beta]: beta for beta in compositions}
    # back-substitute from the dominance-smallest partition upwards
    m_expr: dict = {}
    for lam in reversed(partitions):
        beta = beta_of[lam]
        expr = {beta: 1}
        for mu, c in expansions[beta].items():
            if mu == lam:
                continue
            for b2, c2 in m_expr[mu].items():
                expr[b2] = expr.get(b2, 0) - c * c2
        m_expr[lam] = {b: c for b, c in expr.items() if c != 0}
    index = {beta: k for k, beta in enumerate(compositions)}
    tm = TransitionMatrix(
        n, ell, partitions, [{index[b]: c for b, c in m_expr[lam].items()} for lam in partitions]
    )
    # the rows are indexed by the enumerated labels, which the matrix's own
    # labels, read off its partitions, must list in the same order
    if tm.compositions != compositions:
        raise RuntimeError(f"labels out of order at (n={n}, ell={ell})")
    return tm
