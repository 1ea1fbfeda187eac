"""Exact arithmetic in the ring of Atiyah-Segal invariant polynomials."""
