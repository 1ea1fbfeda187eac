"""Exact arithmetic in the ring of Atiyah-Segal invariant polynomials."""

from .combinatorics import (
    Composition,
    Partition,
    conjugate,
    dominance_leq,
    enumerate_compositions,
    enumerate_partitions,
    to_partition,
    weight,
)
from .xring import (
    XPolynomial,
    derivation_d,
    derivation_delta,
    project,
    truncate,
)
from .symfun import expand_elementary_product, transition_matrix, waring_coefficient
from .invariants import (
    ch_numeric,
    chern_coefficients,
    g_poly,
    j_product,
    lift_exp,
    lift_tilde,
    product_closed_form,
    realize,
    structure_constants,
)
from .analysis import (
    dimension_table,
    find_relations,
    generator_candidates,
    kernel_basis,
    poincare_series,
    poincare_series_bivariate,
)

__version__ = "0.1.0"
