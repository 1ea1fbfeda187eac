"""Every check in jring.checks fails on a fault planted in the route it checks.

The tests call the checks instead of re-implementing them, so a check that
always passed would pass the tests too; each case here shows that its check
can fail.
"""

import pytest

from jring import analysis, checks, combinatorics, invariants, symfun, xring


def twos_unlowered(mp):
    # lowering a part 2 makes a part 1; drop those terms
    lowered = xring.lowered
    mp.setattr(
        xring,
        "lowered",
        lambda lam: [(mu, k) for mu, k in lowered(lam) if mu.count(1) == lam.count(1)],
    )


def block_size_dropped(mp):
    # every pivot entry of the certificate comes from a block of size 1, so
    # the dimension check cannot see this
    lowered = xring.lowered
    mp.setattr(xring, "lowered", lambda lam: [(mu, 1) for mu, _ in lowered(lam)])


def lowering_leaves_the_slice(mp):
    # d x_(2, 1) becomes x_(1), a part short, which no codomain of d lists
    lowered = xring.lowered
    mp.setattr(
        xring,
        "lowered",
        lambda lam: [(mu[:-1] if len(mu) > 1 else mu, k) for mu, k in lowered(lam)],
    )


def last_part_guard_dropped(mp):
    # kappa_l < kappa_(l-1) dropped: raising the last of equal parts, as in
    # (1, 1) -> (1, 2), adds tuples that are not partitions
    def unguarded(below):
        n = len(below)
        out = [[]]
        for ell in range(1, n + 1):
            ones = [kappa + (1,) for kappa in below[ell - 1]]
            raised = [kappa[:-1] + (kappa[-1] + 1,) for kappa in (below[ell] if ell < n else ())]
            out.append(sorted(ones + raised, reverse=True))
        return out

    mp.setattr(combinatorics, "partitions_of_next_degree", unguarded)


def b0_count_bumped(mp):
    # the counting route alone: |B_6^(3)(0)| = 1, from (2, 2, 2)
    counts = combinatorics.b0_counts

    def bumped(n_max):
        rows = counts(n_max)
        if n_max >= 6:
            rows[6][3] += 1
        return rows

    mp.setattr(combinatorics, "b0_counts", bumped)


# dimension_table raises where its two routes differ, and kernel_basis where
# d leaves its slice
twos_unlowered.raises = RuntimeError
lowering_leaves_the_slice.raises = RuntimeError
last_part_guard_dropped.raises = RuntimeError
b0_count_bumped.raises = RuntimeError


def series_shifted(mp):
    series = analysis.poincare_series

    def shifted(order, ell=None):
        coeffs = series(order, ell)
        if order >= 5:
            coeffs[5] += 1
        return coeffs

    mp.setattr(analysis, "poincare_series", shifted)


def bivariate_row_shifted(mp):
    series = analysis.poincare_series_bivariate

    def shifted(order):
        rows = series(order)
        if order >= 3:
            rows[3][2] = rows[3].get(2, 0) + 1
        return rows

    mp.setattr(analysis, "poincare_series_bivariate", shifted)


def matrix_entry_bumped(mp):
    # in the stored row, so g_poly and the later builds read the fault too
    mp.setattr(symfun, "_memo", {})
    tm = symfun.transition_matrix(6, 2)
    row = tm.index_rows[tm.partitions.index((3, 3))]
    row[next(iter(row))] += 1


def _filled(mp):
    # every slice up to weight 8 built in ascending order, so each stable
    # slice shares the rows below it, and a bump made afterwards reaches no
    # later build
    mp.setattr(symfun, "_memo", {})
    for n in range(1, 9):
        for ell in range(1, n + 1):
            symfun.transition_matrix(n, ell)


def shared_diagonal_bumped(mp):
    # row (2) of slice (2, 1) is stored once for (3, 2), (4, 3), ...; at its
    # label (2) it is read against the entry of (2, 2) at (1, 1), in (3, 2)
    # against itself, since (2, 1) is self-conjugate, and in (4, 3) against
    # the entry of (4, 2) at (3, 1)
    _filled(mp)
    symfun.transition_matrix(3, 2).index_rows[0][0] += 1


def entry_above_first_part(mp):
    # row (2, 2) of slice (4, 2) gets a term at the label that leads with
    # (3, 1), whose entries sum to 3 > 2
    _filled(mp)
    tm = symfun.transition_matrix(4, 2)
    tm.index_rows[tm.partitions.index((2, 2))][0] = 1


def waring_bumped(mp):
    waring = symfun.waring_coefficient
    mp.setattr(symfun, "waring_coefficient", lambda b: waring(b) + (b == (0, 3)))


def derivation_doubled(mp):
    derivation_d = xring.derivation_d
    mp.setattr(xring, "derivation_d", lambda p: derivation_d(p).scale(2))


def kernel_vector_dropped(mp):
    kernel_basis = analysis.kernel_basis
    mp.setattr(analysis, "kernel_basis", lambda n, ell: kernel_basis(n, ell)[:-1])


def structure_constant_bumped(mp):
    constants = invariants.structure_constants

    def bumped(b1, b2):
        out = dict(constants(b1, b2))
        if (b1, b2) == ((1,), (1,)):
            out[(0, 1)] += 1
        return out

    mp.setattr(invariants, "structure_constants", bumped)


def delta_part_factor_dropped(mp):
    # delta x_i = x_(i+1) instead of i x_(i+1): a block of k parts v raises
    # with coefficient k, not k v
    def delta(p):
        out = {}
        for lam, c in p.terms.items():
            for v in set(lam):
                i = lam.index(v)
                key = lam[:i] + (v + 1,) + lam[i + 1:]
                out[key] = out.get(key, 0) + lam.count(v) * c
        return xring.XPolynomial(out)

    mp.setattr(invariants, "derivation_delta", delta)


def closed_form_bumped(mp):
    # g_(0,1) g_(0,1) = g_(0,0,0,1), coefficient 1
    closed = invariants.product_closed_form

    def bumped(a, b, c=None):
        out = closed(a, b, c)
        if (a, b, c) == (1, 1, None):
            out[(0, 0, 0, 1)] += 1
        return out

    mp.setattr(invariants, "product_closed_form", bumped)


def e_power_off_by_one(mp):
    value = invariants.e_power_value
    mp.setattr(invariants, "e_power_value", lambda b, ks: value(b, ks) + (b == (0, 2)))


def generator_dropped(mp):
    # without g_(0,3), the monomials of degree 6 no longer span J_6
    candidates = analysis.generator_candidates
    mp.setattr(
        analysis, "generator_candidates", lambda n: [g for g in candidates(n) if g != (0, 3)]
    )


def relation_coefficient_flipped(mp):
    find_relations = analysis.find_relations

    def flipped(degree, generators):
        relations = find_relations(degree, generators)
        if relations:
            mono = next(iter(relations[0]))
            relations[0][mono] = -relations[0][mono]
        return relations

    mp.setattr(analysis, "find_relations", flipped)


# the first relations are in degree 12
relation_coefficient_flipped.max_n = 12


# Three faults that make a check raise instead of return False, which
# checks._verdict turns into FAIL.  Each plant that shows by raising names
# the exception it raises


def one_box_coefficient_bumped(mp):
    # the smallest term of m_mu * e_1 gains one, so the rebuilt slices give
    # some B(0) label a g_beta with d g_beta != 0, which lift_exp refuses
    raise_terms = symfun._raise_terms

    def bumped(mu, j):
        terms = raise_terms(mu, j)
        if j == 1 and len(terms) > 1:
            nu, c = terms[0]
            terms[0] = (nu, c + 1)
        return terms

    mp.setattr(symfun, "_memo", {})
    mp.setattr(symfun, "_raise_terms", bumped)


def product_leaves_b0(mp):
    # g_(0,2) g_(0,2) gains the label (1, 0, 0, 1), which is not in B(0)
    constants = invariants.structure_constants

    def leaked(b1, b2):
        out = dict(constants(b1, b2))
        if (b1, b2) == ((0, 2), (0, 2)):
            out[(1, 0, 0, 1)] = 1
        return out

    mp.setattr(invariants, "structure_constants", leaked)


def expansion_leaves_the_slice(mp):
    # e^(1, 1), the one label of slice (3, 2), gains m_(2, 2) of weight 4
    expand = symfun.expand_elementary_product

    def leaked(n, ell):
        expansions = expand(n, ell)
        if (n, ell) == (3, 2):
            expansions[0][(2, 2)] = 1
        return expansions

    mp.setattr(symfun, "expand_elementary_product", leaked)


one_box_coefficient_bumped.raises = ValueError
product_leaves_b0.raises = RuntimeError
expansion_leaves_the_slice.raises = KeyError


FAULTS = [
    ("dimension table: counting vs kernel rank", twos_unlowered),
    ("dimension table: counting vs kernel rank", last_part_guard_dropped),
    ("dimension table: counting vs kernel rank", b0_count_bumped),
    ("Poincare series matches dimension totals", series_shifted),
    ("dimension table matches bivariate Poincare series row by row", bivariate_row_shifted),
    ("expansion times transition matrix is identity", matrix_entry_bumped),
    ("Waring closed form matches matrix entries", waring_bumped),
    ("transition matrices are symmetric under conjugation", shared_diagonal_bumped),
    ("transition matrices are symmetric under conjugation", entry_above_first_part),
    ("derivation acts by lowering the first index", derivation_doubled),
    ("derivation acts by lowering the first index", block_size_dropped),
    ("kernel of d matches the span of the B(0) basis", kernel_vector_dropped),
    ("kernel of d matches the span of the B(0) basis", lowering_leaves_the_slice),
    ("structure constants realize polynomial products", structure_constant_bumped),
    ("lifts project to g_beta and satisfy d F = F", delta_part_factor_dropped),
    ("closed product formulas match structure constants", closed_form_bumped),
    ("closing identity: numeric Chern series is lifted basis sum", e_power_off_by_one),
    ("relations vanish in Q[x] and number monomials minus dim J_d", generator_dropped),
    ("relations vanish in Q[x] and number monomials minus dim J_d", relation_coefficient_flipped),
    ("lifts project to g_beta and satisfy d F = F", one_box_coefficient_bumped),
    ("structure constants realize polynomial products", product_leaves_b0),
    ("expansion times transition matrix is identity", expansion_leaves_the_slice),
]


def planted(mp, plant):
    # checks._verdict catches only the exception the plant names, so a plant
    # shows only by the failure it is written to cause, and a plant that
    # raises anything else stops the run
    plant(mp)
    expected = getattr(plant, "raises", ())

    def verdict(check, calls):
        try:
            return all(check(*args) for args in calls), None
        except expected as exc:
            return False, exc

    mp.setattr(checks, "_verdict", verdict)


@pytest.mark.parametrize("name, plant", FAULTS, ids=[p.__name__ for _, p in FAULTS])
def test_each_check_fails_on_its_planted_fault(name, plant):
    # a plant that needs a larger weight than 8 to show carries its own
    max_n = getattr(plant, "max_n", 8)
    with pytest.MonkeyPatch.context() as mp:
        planted(mp, plant)
        results = checks.run(max_n)
    assert {check: ok for check, ok, _ in results}[name] is False
    # a fault hides no check: the names are those of a run without it
    assert [check for check, *_ in results] == [check for check, *_ in checks.run(max_n)]


PLANTS = sorted({plant for _, plant in FAULTS}, key=lambda plant: plant.__name__)


@pytest.mark.parametrize("plant", PLANTS, ids=[plant.__name__ for plant in PLANTS])
def test_each_plant_runs_below_the_weight_it_shows_at(plant):
    # a plant bumps only where its position exists, so a check that calls
    # the patched function with a small argument sees no error
    with pytest.MonkeyPatch.context() as mp:
        planted(mp, plant)
        for max_n in range(1, 6):
            assert len(checks.run(max_n)) == 13


def test_every_check_has_a_planted_fault():
    assert {name for name, *_ in checks.run(2)} <= {name for name, _ in FAULTS}


def test_a_bump_in_shared_rows_trips_the_conjugation_check_in_each_weight():
    # the bumped entry shows in every slice that holds its row list; where
    # it is read against itself it hides, and the check fails on the others
    with pytest.MonkeyPatch.context() as mp:
        shared_diagonal_bumped(mp)
        rows = symfun.transition_matrix(2, 1).index_rows
        assert all(symfun.transition_matrix(n, n - 1).index_rows is rows for n in (3, 4))
        assert checks.transpose_symmetric(1)
        for max_n in (2, 3, 4):
            assert not checks.transpose_symmetric(max_n)
