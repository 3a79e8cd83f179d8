"""Root and Bruhat combinatorics that the program reads off one-line values.

`quantum_ring._moves` finds covers and length drops from the one-line values
of w, and the table solver finds the support of q-free products from its
reach masks.  The tests check both against the definitions below: Bruhat
order by the rank-matrix criterion, covers as Bruhat covers, and length drops
through the pairings with 2 rho and 2 rho_P.  A parabolic context is a
`weyl.ParabolicContext`.
"""

import math

from qschub.poly import Polynomial, q
from qschub.weyl import apply_to, extend


def is_cover(w, alpha) -> bool:
    """True iff w*s_alpha covers w in Bruhat order (length goes up by 1)."""
    r, s = alpha
    wr, ws = apply_to(w, r), apply_to(w, s)
    if wr > ws:
        return False
    return not any(wr < apply_to(w, t) < ws for t in range(r + 1, s))


# Bruhat order is the paper's order on Schubert classes.  The tests check
# Bruhat covers against it, and the support of q-free products, which the
# table builder reads off the reach masks of `quantum_ring._Solver`.
def bruhat_leq(u, w) -> bool:
    """Bruhat order by the rank-matrix (sorted prefix) criterion."""
    n = max(len(u), len(w))
    uu, ww = extend(u, n), extend(w, n)
    for i in range(1, n):
        for us, vs in zip(sorted(uu[:i]), sorted(ww[:i])):
            if us > vs:
                return False
    return True


def pair_two_rho(alpha) -> int:
    """<alpha_{rs}^vee, 2 rho> = 2(s - r) for rho = (0, -1, -2, ...)."""
    r, s = alpha
    return 2 * (s - r)


def q_coroot(alpha) -> Polynomial:
    """q_{alpha^vee} = q_r q_{r+1} ... q_{s-1}, as alpha_{rs}^vee is the sum
    of the simple coroots alpha_t^vee over r <= t < s."""
    r, s = alpha
    return math.prod((q(t) for t in range(r, s)), start=Polynomial.const(1))


def block_of(ctx, t: int) -> int:
    """1-based block index of position t <= n."""
    for j, nj in enumerate(ctx.partial_sums, start=1):
        if t <= nj:
            return j
    raise ValueError(f"position {t} beyond n={ctx.n}")


def two_rho_p(ctx, t: int) -> int:
    """Coordinate t of 2 rho_P, the half sum of Levi positive roots doubled.

    Within a block of size m the coordinates are (m-1, m-3, ..., 1-m);
    positions past n sit in appended singleton blocks and give 0.  The
    per-block centering matters: it makes <alpha^vee, 2(rho - rho_P)>
    equal the q-degree sum over the nodes alpha crosses, so the length
    condition selecting B roots matches the grading of the quantum ring.
    """
    if t > ctx.n:
        return 0
    j = block_of(ctx, t)
    start = 0 if j == 1 else ctx.partial_sums[j - 2]
    return ctx.composition[j - 1] - 1 - 2 * (t - 1 - start)


def pair_two_rho_p(ctx, alpha) -> int:
    """<alpha_{rs}^vee, 2 rho_P>."""
    r, s = alpha
    return two_rho_p(ctx, r) - two_rho_p(ctx, s)


def is_p_root(ctx, alpha) -> bool:
    """True iff alpha lies in Phi^+_P (both ends in one block)."""
    r, s = alpha
    return s <= ctx.n and block_of(ctx, r) == block_of(ctx, s)
