"""Root and Bruhat combinatorics that the program reads off one-line values.

`quantum_ring._moves` finds covers and length drops from the one-line values
of w, and the table solver finds the support of q-free products from its
reach masks.  The tests check both against the definitions below: Bruhat
order by the rank-matrix criterion, covers as Bruhat covers, and length drops
through the pairings with 2 rho and 2 rho_P.  The table solver finds the
q-free structure constants c_{u,v}^u from the Chevalley rule alone; the
tests check them against the members of the ring at fixed points.
`schubert._d_char_coeffs` finds det(D - t Id) by a recursion over the rows
of D; the tests check it against the matrix D below and the Leibniz
formula.  The chain takes each step as one fused divided difference and
keeps the pending factors of a reading apart; the tests check it against
the unfused chain below, which multiplies every factor in.  Parabolic
members are homogeneous under the weights deg q_j = n_j + n_{j+1}, which
`poly.graded_degree` (deg q_j = 2) does not take; the tests read them by
`weighted_degree` below.  A parabolic context is a `weyl.ParabolicContext`.
"""

import itertools
import math

from qschub.poly import Polynomial, a, q, x
from qschub.schubert import _chain_member, _top_factors
from qschub.weyl import apply_to, extend, length


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


def d_matrix(ctx) -> dict:
    """The n x n matrix D as {(row, col): entry}, a missing entry being 0:
    x_i diagonal, -1 superdiagonal, and entry (N_{j+1}, N_{j-1}+1) equal to
    -(-1)^(n_{j+1}) q_j for each inner node."""
    n = ctx.n
    entries = {}
    for i in range(1, n + 1):
        entries[(i, i)] = x(i)
    for i in range(1, n):
        entries[(i, i + 1)] = Polynomial.const(-1)
    for j in range(1, ctx.k):
        row = ctx.partial_sums[j]
        col = (ctx.partial_sums[j - 2] if j >= 2 else 0) + 1
        sign = 1 if ctx.composition[j] % 2 else -1
        entries[(row, col)] = q(j) * sign
    return entries


def leibniz_det(size, entry) -> Polynomial:
    """sum over permutations of sign * product, straight from the definition."""
    total = Polynomial.zero()
    for sigma in itertools.permutations(range(1, size + 1)):
        inversions = sum(
            1 for i in range(size) for j in range(i + 1, size) if sigma[i] > sigma[j]
        )
        term = Polynomial.const(-1 if inversions % 2 else 1)
        for r, c in enumerate(sigma, start=1):
            term = term * entry(r, c)
        total = total + term
    return total


def localization(ctx, u, v) -> Polynomial:
    """The q = 0 member of v at the fixed point u, x_j -> a_{u(j)}: sigma_v
    restricted to u, which is c_{u,v}^u at q = 0."""
    point = {("x", j): a(apply_to(u, j)) for j in range(1, ctx.n + 1)}
    return _chain_member(ctx.composition, "q", v).specialize(point)


def unfused_chain_state(composition, word, memo: dict) -> tuple:
    """The chain state (partial, pending) after the divided differences of
    `word` applied from its end to the top product of the composition, by
    the unfused step: the pending factors i and i + 1 are multiplied into
    `partial` one at a time, then the plain d_i is taken.  `memo` maps the
    words already run, as tuples, to their states."""
    word = tuple(word)
    if word not in memo:
        factors = _top_factors(composition)
        if not word:
            memo[word] = (Polynomial.const(1), frozenset(factors))
        else:
            partial, pending = unfused_chain_state(composition, word[1:], memo)
            i = word[0]
            for t in (i, i + 1):
                if t in pending:
                    partial = partial * factors[t]
            memo[word] = (partial.divided_difference("a", i), pending - {i, i + 1})
    return memo[word]


def unfused_reading(composition, zero: str, v, state) -> Polynomial:
    """The chain state of v multiplied out, with the family `zero` set to 0
    in `partial` and in every pending factor, times (-1)^l(v)."""
    partial, pending = state
    reading = partial.zero_out(zero)
    for t in sorted(pending):
        reading = reading * _top_factors(composition)[t].zero_out(zero)
    return -reading if length(v) % 2 else reading


def weighted_degree(f: Polynomial, q_degrees: dict):
    """Degree of f under deg x_i = deg a_i = 1 and deg q_j = q_degrees[j]:
    the common degree of its terms, None when they differ, and 0 for f = 0."""
    degrees = {
        d + sum(e * q_degrees[j] for (_, j), e in q_part)
        for q_part, rest in f.split("q").items()
        for d in rest.homogeneous_parts()
    }
    if len(degrees) > 1:
        return None
    return degrees.pop() if degrees else 0
