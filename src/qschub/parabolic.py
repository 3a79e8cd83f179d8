"""Parabolic quantum double Schubert polynomials and their quantization.

A composition (n_1, ..., n_k) of n fixes the block structure: D is the n x n
matrix with x_i diagonal, -1 superdiagonal and one q_j entry per inner block
boundary, D_j its upper-left N_j x N_j corner, and G_i^j the coefficients of
det(D_j - t*Id).  The member attached to w in W^P is the signed divided
difference chain for w(w_0^P)^{-1} applied to the product of det(D_j - a_i*Id)
over the staircase of index windows; `schubert` builds it, by the same
construction as the full-flag members.  Appending singleton blocks (with
fixed points of w to match) never changes the member, which is what makes the
infinite-composition limit and the basis expansion over it well defined.

The parabolic quantization map theta_P rewrites a W_P-invariant of the x
variables over the basis g_lam = prod_j prod_i e_{lam^(j)_i}(x_1..x_{N_j}),
indexed by tuples of partitions lam^(j) inside the n_{j+1} x N_j box, and
replaces each g factor by the matching G.
"""

from __future__ import annotations

from functools import cache

from .poly import Polynomial, x_order_key
from .quantization import EchelonSlice, _check_slice_width, _strip, e_level
from .schubert import (
    _cauchy_sum,
    _chain_member,
    _d_char_coeffs,
    _dd_from_top,
    _expand_by_leads,
    d_matrix,
    divided_difference,  # noqa: F401  (perfbench's tracer test reads it here)
)
from .weyl import ParabolicContext, Permutation, extend, perm_from_code, trim

__all__ = [
    "d_matrix",
    "G_polynomial",
    "parabolic_q_double_schubert",
    "partition_tuples",
    "g_tuple",
    "G_tuple",
    "theta_P",
    "parabolic_cauchy_rhs",
    "expand_in_parabolic_basis",
]


def G_polynomial(ctx: ParabolicContext, i: int, j: int) -> Polynomial:
    """G_i^j, with det(D_j - t*Id) = sum_i (-t)^(N_j - i) G_i^j.

    >>> print(G_polynomial(ParabolicContext((2, 1, 3)), 3, 2))
    x1*x2*x3 + q1
    """
    if not 1 <= j <= ctx.k:
        raise ValueError(f"level out of range: j={j} for k={ctx.k}")
    if not 0 <= i <= ctx.partial_sums[j - 1]:
        raise ValueError(f"degree out of range: i={i} for N_j={ctx.partial_sums[j-1]}")
    return _d_char_coeffs(ctx.composition[:j])[i]


# perfbench reads the shared chain's cache_info() under this name.
_p_dd = _dd_from_top


def parabolic_q_double_schubert(ctx: ParabolicContext, w) -> Polynomial:
    """The member attached to w in W^P for the given composition.

    >>> ctx = ParabolicContext((2, 1))
    >>> print(parabolic_q_double_schubert(ctx, ()))
    1
    """
    w = trim(w)
    if not ctx.is_min_rep(w):
        raise ValueError(f"{list(extend(w, ctx.n))} is not minimal in its coset")
    return _chain_member(ctx, True, w)


# -- partition tuples and the g / G bases ---------------------------------------


def _partitions_in_box(total: int, rows: int, cols: int):
    """Partitions of `total` with at most `rows` parts, each at most `cols`."""
    out = []

    def go(remaining, limit, slots, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if slots == 0:
            return
        for part in range(min(limit, remaining), 0, -1):
            prefix.append(part)
            go(remaining - part, part, slots - 1, prefix)
            prefix.pop()

    go(total, cols, rows, [])
    return out


def partition_tuples(ctx: ParabolicContext, degree: int, levels: int):
    """All tuples (lam^(1), ..., lam^(levels)) with total size `degree` where
    lam^(j) fits in the n_{j+1} x N_j box; trailing empty partitions trimmed.

    `ctx` must already be extended to cover `levels` + 1 blocks.
    """
    if levels + 1 > ctx.k:
        raise ValueError(f"need {levels + 1} blocks, context has {ctx.k}")
    out = []

    def go(j, remaining, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if j > levels:
            return
        rows = ctx.composition[j]
        cols = ctx.partial_sums[j - 1]
        for size in range(0, remaining + 1):
            for lam in _partitions_in_box(size, rows, cols) if size else [()]:
                prefix.append(lam)
                go(j + 1, remaining - size, prefix)
                prefix.pop()

    go(1, degree, [])
    return [_strip(t) for t in out]


def _validated_tuple(ctx: ParabolicContext, tup) -> tuple:
    tup = _strip(tuple(tuple(lam) for lam in tup))
    if len(tup) + 1 > ctx.k:
        raise ValueError(f"tuple has {len(tup)} levels, context only {ctx.k - 1}")
    for j, lam in enumerate(tup, start=1):
        if any(lam[t] < lam[t + 1] for t in range(len(lam) - 1)) or (
            lam and lam[-1] < 1
        ):
            raise ValueError(f"level {j} entry is not a partition: {lam}")
        if len(lam) > ctx.composition[j] or (lam and lam[0] > ctx.partial_sums[j - 1]):
            raise ValueError(f"level {j} partition {lam} exceeds its box")
    return tup


def g_tuple(ctx: ParabolicContext, tup) -> Polynomial:
    """g_lam = prod_j prod_i e_{lam^(j)_i}(x_1, ..., x_{N_j})."""
    total = Polynomial.const(1)
    for j, lam in enumerate(_validated_tuple(ctx, tup), start=1):
        for part in lam:
            total = total * e_level(part, ctx.partial_sums[j - 1])
    return total


def G_tuple(ctx: ParabolicContext, tup) -> Polynomial:
    """G_lam, the same product with each factor quantized to G_{part}^j."""
    total = Polynomial.const(1)
    for j, lam in enumerate(_validated_tuple(ctx, tup), start=1):
        for part in lam:
            total = total * G_polynomial(ctx, part, j)
    return total


def _tuple_lead_key(ctx: ParabolicContext, tup, width: int) -> int:
    vec = [0] * width
    for j, lam in enumerate(tup, start=1):
        nj = ctx.partial_sums[j - 1]
        for part in lam:
            for t in range(nj - part, nj):
                vec[t] += 1
    return x_order_key(vec)


# Unbounded, but held on purpose like quantization._slice: one slice per
# (composition, degree) whose extended width passes _check_slice_width, so
# N_k + degree <= 16.
@cache
def _g_slice(composition: tuple, degree: int) -> EchelonSlice:
    base = ParabolicContext(composition)
    ctx = base.extend(degree + 1)
    levels = base.k + degree
    width = ctx.partial_sums[levels - 1]
    _check_slice_width(width)
    pending = sorted(
        (_tuple_lead_key(ctx, tup, width), tup)
        for tup in partition_tuples(ctx, degree, levels)
    )
    return EchelonSlice(pending, lambda tup: g_tuple(ctx, tup))


def _invariant_decompose(ctx: ParabolicContext, f: Polynomial) -> dict:
    out: dict = {}
    for d, part in f.homogeneous_parts().items():
        if d == 0:
            out[()] = out.get((), 0) + part.constant_value()
            continue
        coords = _g_slice(ctx.composition, d).decompose(part)
        for tup, c in coords.items():
            out[tup] = out.get(tup, 0) + c
    return {tup: c for tup, c in out.items() if c}


def theta_P(ctx: ParabolicContext, f: Polynomial) -> Polynomial:
    """The parabolic quantization map: g_lam -> G_lam, Z[a, q]-linearly.

    The x part of the input must be W_P-invariant; this is checked on the
    generators of W_P.
    """
    for i in ctx.wp_generators():
        if f.swap_indices("x", i, i + 1) != f:
            raise ValueError(f"input is not invariant under the x swap at {i}")
    total = Polynomial.zero()
    for aq_mono, x_part in f.split("aq").items():
        carrier = Polynomial({aq_mono: 1})
        for tup, c in _invariant_decompose(ctx, x_part).items():
            degree = sum(sum(lam) for lam in tup)
            big = ctx.extend(degree + 1)
            total = total + carrier * (G_tuple(big, tup) * c)
    return total


# -- Cauchy formula --------------------------------------------------------------


def parabolic_cauchy_rhs(ctx: ParabolicContext, w) -> Polynomial:
    """Sum of Schub_{v w^{-1}}(-a) times the a -> 0 member of v, over the left
    weak order ideal of w; equals the member attached to w."""
    w = trim(w)
    if not ctx.is_min_rep(w):
        raise ValueError(f"{list(extend(w, ctx.n))} is not minimal in its coset")
    return _cauchy_sum(w, lambda v: parabolic_q_double_schubert(ctx, v).zero_out("a"))


# -- basis expansion over the extended contexts ----------------------------------


def _context_for(ctx: ParabolicContext, w: Permutation) -> ParabolicContext:
    return ctx if len(w) <= ctx.n else ctx.extend(len(w) - ctx.n)


def expand_in_parabolic_basis(f: Polynomial, ctx: ParabolicContext) -> dict:
    """Expand f over the members of ctx and its singleton-block extensions.

    Returns {w: coefficient Polynomial in a, q}.  Every extracted leading
    code must belong to a minimal coset representative; anything else means
    f was not in the span and raises.
    """

    def member(vec, coeff):
        w = perm_from_code(vec)
        sub = _context_for(ctx, w)
        if not sub.is_min_rep(w):
            raise ValueError(
                f"leading code {list(vec)} is not the code of a minimal "
                f"representative; input outside the parabolic span"
            )
        return w, parabolic_q_double_schubert(sub, w)

    return _expand_by_leads(f, member)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
