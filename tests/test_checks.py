"""Every check in jring.checks fails on a fault planted in the route it checks.

The tests call the checks instead of re-implementing them, so a check that
always passed would pass the tests too; each case here shows that its check
can fail.
"""

import pytest

from jring import analysis, checks, invariants, symfun, xring


def rank_off_by_one(mp):
    rank = analysis.rank
    mp.setattr(analysis, "rank", lambda rows: rank(rows) + (len(rows) == 3))


def series_shifted(mp):
    series = analysis.poincare_series

    def shifted(order, ell=None):
        coeffs = series(order, ell)
        coeffs[5] += 1
        return coeffs

    mp.setattr(analysis, "poincare_series", shifted)


def bivariate_row_shifted(mp):
    series = analysis.poincare_series_bivariate

    def shifted(order):
        rows = series(order)
        rows[3][2] = rows[3].get(2, 0) + 1
        return rows

    mp.setattr(analysis, "poincare_series_bivariate", shifted)


def matrix_entry_bumped(mp):
    mp.setattr(symfun, "_memo", {})
    row = symfun.transition_matrix(6, 2).rows[(3, 3)]
    row[next(iter(row))] += 1


def waring_bumped(mp):
    waring = symfun.waring_coefficient
    mp.setattr(symfun, "waring_coefficient", lambda b: waring(b) + (b == (0, 3)))


def derivation_doubled(mp):
    derivation_d = xring.derivation_d
    mp.setattr(xring, "derivation_d", lambda p: derivation_d(p).scale(2))


def structure_constant_bumped(mp):
    constants = invariants.structure_constants

    def bumped(b1, b2):
        out = dict(constants(b1, b2))
        if (b1, b2) == ((1,), (1,)):
            out[(0, 1)] += 1
        return out

    mp.setattr(invariants, "structure_constants", bumped)


FAULTS = [
    ("dimension table: counting vs kernel rank", rank_off_by_one),
    ("Poincare series matches dimension totals", series_shifted),
    ("dimension table matches bivariate Poincare series row by row", bivariate_row_shifted),
    ("expansion times transition matrix is identity", matrix_entry_bumped),
    ("Waring closed form matches matrix entries", waring_bumped),
    ("derivation acts by lowering the first index", derivation_doubled),
    ("structure constants realize polynomial products", structure_constant_bumped),
]


@pytest.mark.parametrize("name, plant", FAULTS, ids=[p.__name__ for _, p in FAULTS])
def test_each_check_fails_on_its_planted_fault(monkeypatch, name, plant):
    plant(monkeypatch)
    assert dict(checks.run(8))[name] is False
