"""Parabolic quantum double Schubert polynomials and their quantization.

A composition (n_1, ..., n_k) of n fixes the block structure: D is the n x n
matrix with x_i diagonal, -1 superdiagonal and one q_j entry per inner block
boundary, D_j its upper-left N_j x N_j corner, and G_i^j the coefficients of
det(D_j - t*Id), which `schubert` finds by a recursion over the rows of D
without building the matrix.  The member attached to w in W^P is the signed
divided difference chain for w(w_0^P)^{-1} applied to the product of
det(D_j - a_i*Id) over the staircase of index windows; `schubert` builds it,
by the same construction as the full-flag members.  Appending singleton
blocks (with fixed points of w to match) never changes the member, which is
what makes the infinite-composition limit and the basis expansion over it
well defined.

The parabolic quantization map theta_P rewrites a W_P-invariant of the x
variables over the basis g_lam = prod_j prod_i e_{lam^(j)_i}(x_1..x_{N_j}),
indexed by tuples of partitions lam^(j) inside the n_{j+1} x N_j box, and
replaces each g factor by the matching G.  The basis, its slices and the
quantization loop live in `quantization`, which runs the full-flag `theta`
as the composition (1, ..., 1); this module re-exports the basis.
"""

from __future__ import annotations

from .poly import Polynomial, sum_of_products
from .quantization import (
    G_polynomial,
    G_tuple,
    _quantized_pairs,
    g_tuple,
    partition_tuples,
)
from .schubert import (
    _cauchy_sum,
    _chain_member,
    _dd_from_top,
    _expand_by_leads,
    divided_difference,  # noqa: F401  (perfbench's tracer test reads it here)
)
from .weyl import ParabolicContext, perm_from_code

__all__ = [
    "G_polynomial",
    "parabolic_q_double_schubert",
    "partition_tuples",
    "g_tuple",
    "G_tuple",
    "theta_P",
    "parabolic_cauchy_rhs",
    "expand_in_parabolic_basis",
]


# perfbench reads the shared chain's cache_info() under this name.
_p_dd = _dd_from_top


def parabolic_q_double_schubert(ctx: ParabolicContext, w) -> Polynomial:
    """The member attached to w in W^P for the given composition.

    >>> ctx = ParabolicContext((2, 1))
    >>> print(parabolic_q_double_schubert(ctx, ()))
    1
    """
    return _chain_member(ctx.composition, "", ctx.check_rep(w))


def theta_P(ctx: ParabolicContext, f: Polynomial) -> Polynomial:
    """The parabolic quantization map: g_lam -> G_lam, Z[a, q]-linearly.

    The x part of the input must be W_P-invariant; this is checked on the
    generators of W_P.
    """
    for i in ctx.wp_generators():
        if f.swap_indices("x", i, i + 1) != f:
            raise ValueError(f"input is not invariant under the x swap at {i}")
    return sum_of_products(_quantized_pairs(f, ctx.composition))


# -- Cauchy formula --------------------------------------------------------------


def parabolic_cauchy_rhs(ctx: ParabolicContext, w) -> Polynomial:
    """Sum of Schub_{v w^{-1}}(-a) times the a -> 0 member of v, over the left
    weak order ideal of w; equals the member attached to w."""
    return _cauchy_sum(ctx.composition, True, ctx.check_rep(w))


# -- basis expansion --------------------------------------------------------------


def expand_in_parabolic_basis(f: Polynomial, ctx: ParabolicContext) -> dict:
    """Expand f over the members of ctx, read with singleton blocks past n.

    Returns {w: coefficient Polynomial in a, q}.  Every extracted leading
    code must belong to a minimal coset representative; anything else means
    f was not in the span and raises.
    """

    def member(vec, coeff):
        w = perm_from_code(vec)
        if not ctx.is_min_rep(w):
            raise ValueError(
                f"leading code {list(vec)} is not the code of a minimal "
                f"representative; input outside the parabolic span"
            )
        return w, _chain_member(ctx.composition, "", w)

    return _expand_by_leads(f, member)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
