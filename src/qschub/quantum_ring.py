"""Chevalley-Monk root sets, identity checks, and structure-constant tables.

For a node i only the roots alpha_{rs} with r <= i < s can contribute.  The
covers and length drops of w in W^P are read off its one-line values
(`_moves`): covers lie below s = max(n, i) + 1 and drops below s = n, bounds
that the tests re-derive against wider windows by the projection test.
Structure constants come from the Chevalley rule alone, by the recursion of
Mihalcea (Equivariant quantum Schubert calculus, Adv. Math. 203 (2006); for
G/P, Duke Math. J. 140 (2007)): associativity of sigma_{s_i} sigma_u sigma_v
fixes every coefficient but c_{u,u}^u at q = 0, which is the product of the
tangent weights at the fixed point u (see `_Solver`).  No member is built,
multiplied or expanded.  The Chevalley row of w in the finite ring is the
rule's terms on the minimal coset representatives; no row carries q_k,
q_{k+1}, ... or a_{n+1}, ..., which the tests check.  The full-flag ring of
S_n is the ring of the composition (1, ..., 1), so an integer domain n means
that composition and every table is built by the one parabolic route.  The
rule itself treats the full flag the same way: root sets, rule rows and the
bijection check take it as the composition (1,), whose context, like every
context, reads each position past its n as a singleton block; the
classical, quantum and double flavors are the one row with a, q or both set
to 0.
"""

from __future__ import annotations

import itertools
import json
import math
from collections import deque
from functools import cache, lru_cache
from operator import add, le, mul, sub
from types import MappingProxyType

from .poly import (
    Polynomial,
    _describe,
    _format,
    a,
    parse_polynomial,
    sum_of_products,
    x_order_key,
)
from .schubert import _ZEROED as _FAMILY_ZEROED, _chain_member, schubert_polynomial
from .weyl import (
    ParabolicContext,
    Permutation,
    _weak_order_ideal,
    apply_to,
    code,
    compose,
    eta_p,
    extend,
    format_permutation,
    inverse,
    length,
    parse_permutation,
    reflect,
    simple,
    trim,
)

__all__ = [
    "weight_term",
    "chevalley_rhs",
    "verify_chevalley",
    "bijection_check",
    "structure_constants",
    "StructureTable",
]

CHEVALLEY_FLAVORS = ("classical", "quantum", "double", "quantum_double", "parabolic")

# The full flag is the composition (1, ..., 1): this one-block start, read
# with a singleton block at every later position.
_FULL_FLAG = ParabolicContext((1,))
_ZERO = Polynomial.zero()
_ONE = Polynomial.const(1)
_MINUS_ONE = Polynomial.const(-1)
# The families each flavor sets to 0 in the one rule row of `_chevalley_terms`:
# those of its Schubert family, and none for the parabolic flavor.
_ZEROED = _FAMILY_ZEROED | {"parabolic": ""}


def _check_node(i: int, ctx: ParabolicContext | None):
    if i < 1:
        raise ValueError("node must be >= 1")
    if ctx is not None and i not in ctx.nodes:
        raise ValueError(f"{i} is not a node of the composition {ctx.composition}")


def _reading(ctx: ParabolicContext | None) -> ParabolicContext:
    """The context whose move table serves ctx: the full flag for None and
    for every (1, ..., 1), which has no block of size > 1 and so, past its
    n as before it, the same moves, drops and eta_P as the full flag."""
    return _FULL_FLAG if ctx is None or ctx.k == ctx.n else ctx


def _root_sets(w: Permutation, ctx: ParabolicContext, i: int) -> tuple:
    """The maps of `_moves` on the roots with r <= i < s, for a node i of
    ctx; past len(w) the one cover crossing i is (i, i + 1)."""
    covers, drops = (
        {alpha: move for alpha, move in moves.items() if alpha[0] <= i < alpha[1]}
        for moves in _moves(w, ctx)
    )
    if i > len(w):
        covers[i, i + 1] = reflect(w, (i, i + 1))
    return covers, drops


# Bounded like the member caches: two small mappings per (trimmed w, ctx),
# each drop with its coset, and the bijection checks of S_5 and every
# composition of 5 ask for 540.
@lru_cache(maxsize=2048)
def _moves(w: Permutation, ctx: ParabolicContext) -> tuple:
    """({alpha: w s_alpha} over the covers of w, {alpha: (z, z^{-1} w)} with
    z = pi_P(w s_alpha) over its length drops) for w in W^P, in root order,
    read-only since the cache shares them.  For alpha = (r, s), A = w(r) and
    B = w(s):
    - a cover has A < B, no w(t) between them for r < t < s, and r, s in
      different blocks; both blocks of w s_alpha then stay sorted;
    - a drop, l(pi_P(w s_alpha)) = l(w) + 1 - <alpha^vee, 2 rho - 2 rho_P>
      for alpha no P-root, has B < w(t) < A for r < t < s, the first entry
      of r's block > B and the last entry of s's block < A.  On the full
      flag the block conditions are empty: the type-A criterion.

    Proof.  Write l(pi_P y) = l(y) - inv_P(y), inv_P counting inversions
    inside blocks, and R-, R+ (S-, S+) for the positions of r's (s's) block
    before and after r (s), so <alpha^vee, 2 rho_P> = |R+| - |R-| - |S+|
    + |S-|.  If A > B (the blocks differ, as w increases on each), let d
    count the r < t < s with w(t) outside (B, A); then l(w s_alpha) = l(w)
    + 1 - 2(s - r) + 2d, so alpha is a drop iff inv_P(w s_alpha)
    + <alpha^vee, 2 rho_P> = 2d.  The left side is |R+| + |S-| - e1 - e2,
    with e1 the t in R- with w(t) < B and e2 the t in S+ with w(t) > A, and
    R+ and S- lie between r and s outside (B, A), so it is <= d - e1 - e2:
    it is 2d iff d = e1 = e2 = 0.  If A < B, w s_alpha has block inversions
    in R+ and S- only, so the left side is <= 2(|R+| + |S-|) < 2(s - r),
    short of the 2(s - r) + 2 #{t : A < w(t) < B} a drop needs.  Outside
    W^P the criterion fails, so the public entry points admit W^P only.
    """
    m = len(w)
    line = extend(w, max(m + 1, ctx.n))
    block = [(t, t) for t in range(len(line) + 1)]  # (first, last) position
    for lo, hi in ctx.blocks():
        block[lo : hi + 1] = [(lo, hi)] * (hi - lo + 1)
    covers, drops = {}, {}
    for r, wr in enumerate(line[:m], 1):
        # The least value above w(r) between r and s, and the least below
        # it there or at the start of r's block.
        above, below = m + 2, line[block[r][0] - 1]
        for s in range(r + 1, m + 2):
            ws = line[s - 1]
            if wr < ws < above:
                if block[r][1] < s:
                    covers[r, s] = reflect(w, (r, s))
                above = ws
            elif ws < below:
                if above > m + 1 and line[block[s][1] - 1] < wr:
                    z = ctx.min_rep(reflect(w, (r, s)))
                    drops[r, s] = z, compose(inverse(z), w)
                below = ws
    return MappingProxyType(covers), MappingProxyType(drops)


def weight_term(w, i: int) -> Polynomial:
    """-omega_i(a) + w.omega_i(a) = sum_{j<=i} (a_{w(j)} - a_j)."""
    w = trim(w)
    return Polynomial.from_terms(
        (((("a", t), 1),), sign)
        for j in range(1, i + 1)
        for t, sign in ((apply_to(w, j), 1), (j, -1))
    )


def _members(flavor: str, w: Permutation, ctx):
    """The member map of the identities of w.  The parabolic flavor reads
    the chain of ctx.  The quantum double flavor reads the chain of
    (1, ..., 1) of len(w), the full flag of the least S_n holding w, so at
    a node i < len(w) its identity is the parabolic one of that composition,
    member for member.  The other flavors read `schubert_polynomial`."""
    if flavor == "parabolic":
        blocks = ctx.composition
    elif flavor == "quantum_double":
        blocks = (1,) * max(len(w), 1)
    else:
        return lambda z: schubert_polynomial(z, flavor)
    return lambda z: _chain_member(blocks, "", z)


def _chevalley_terms(i: int, w, flavor: str, ctx: ParabolicContext) -> dict:
    """The node-i Chevalley-Monk rule as {basis element: coefficient}.

    One row serves every flavor: the weight term sits on w itself, each
    cover contributes 1, and each length drop alpha contributes eta_P of
    its coroot on pi_P(w s_alpha).  The full flag is the composition
    (1, ..., 1), as for the tables, where pi_P is the identity and eta_P
    the q-monomial of the coroot.  The classical, quantum and double
    flavors are that row with {a, q}, {a} and {q} set to 0.
    """
    covers, drops = _root_sets(w, ctx, i)
    # Cover targets are distinct, and none is w or a drop target.
    terms = {w: weight_term(w, i)} | dict.fromkeys(covers.values(), _ONE)
    for alpha, (z, _) in drops.items():
        terms[z] = terms.get(z, _ZERO) + eta_p(alpha, ctx)
    for family in _ZEROED[flavor]:
        terms = {z: c.zero_out(family) for z, c in terms.items()}
    return {z: c for z, c in terms.items() if c}


def _chevalley_identity(i: int, w, flavor: str, ctx: ParabolicContext | None) -> tuple:
    """(w, rule row, member map) of the node-i identity of w, after the
    checks of the flavor, the context and the node."""
    if flavor not in CHEVALLEY_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor != "parabolic":
        ctx = None
    elif ctx is None:
        raise ValueError("parabolic flavor needs a composition context")
    _check_node(i, ctx)
    # `_moves` holds on W^P only, so a context admits W^P only.
    w = trim(w) if ctx is None else ctx.check_rep(w)
    terms = _chevalley_terms(i, w, flavor, _reading(ctx))
    return w, terms, _members(flavor, w, ctx)


def chevalley_rhs(
    i: int, w, flavor: str, ctx: ParabolicContext | None = None
) -> Polynomial:
    """The right-hand side of the node-i Chevalley-Monk rule for the flavor.

    classical:       sum over covers.
    quantum:         covers plus q-weighted length drops.
    double:          weight term plus covers.
    quantum_double:  weight term, covers, and q-weighted length drops.
    parabolic:       the quantum_double shape with minimal representatives,
                     q-monomials through the coroot projection, and ctx nodes.
    """
    _, terms, member = _chevalley_identity(i, w, flavor, ctx)
    return sum_of_products((coeff, member(z)) for z, coeff in terms.items())


def verify_chevalley(i: int, w, flavor: str, ctx: ParabolicContext | None = None):
    """Check the node-i rule for w; returns (holds, difference polynomial).

    The difference, member of s_i times member of w minus the rule, is one
    sum of products: the rule's term on w folds into the divisor, as
    (member of s_i - that term) times the member of w, and every other term
    enters with its coefficient negated.
    """
    w, terms, member = _chevalley_identity(i, w, flavor, ctx)
    divisor = member(simple(i)) - terms.pop(w, _ZERO)
    diff = sum_of_products(
        [(divisor, member(w))] + [(-coeff, member(z)) for z, coeff in terms.items()]
    )
    return (not diff.terms, diff)


def bijection_check(w, ctx: ParabolicContext | None = None) -> bool:
    """Confirm the pair bijection behind the quantum Chevalley correction sums.

    The first set collects (v, alpha) with v weak-below w and alpha a length
    drop of v; the map sends it to (pi_P(v s_alpha), alpha), which must land
    bijectively in the set of (u, alpha) with alpha a length drop of w and u
    weak-below pi_P(w s_alpha).  The projection forgets the Levi part, so the
    inverse is not re-reflection; the check is bijectivity plus the index
    identity the Cauchy coefficients rely on:
    v w^{-1} = pi_P(v s_alpha) pi_P(w s_alpha)^{-1}, checked in the
    equivalent form u^{-1} v = z^{-1} w for u = pi_P(v s_alpha) and
    z = pi_P(w s_alpha).  No ctx means the full flag, as does every
    (1, ..., 1) (`_reading`): there pi_P is the identity, so the map is its
    own inverse and the index identity holds for every pair.
    """
    w, ctx = trim(w), _reading(ctx)
    if not ctx.is_min_rep(w):
        return False
    # Every v weak-below w is then in W^P too: a right descent s_j of v in
    # W_P would be one of w, so v's move table may be read.
    moved = _moves(w, ctx)[1]
    second = {
        (u, alpha) for alpha, (z, _) in moved.items() for u in _weak_order_ideal(z)
    }
    image, pairs = set(), 0
    for v in _weak_order_ideal(w):
        for alpha, (u, coset) in _moves(v, ctx)[1].items():
            # a drop of v that is none of w has no pair in the second set
            if alpha not in moved or coset != moved[alpha][1]:
                return False
            image.add((u, alpha))
            pairs += 1
    return image == second and len(image) == pairs


# -- structure constants ---------------------------------------------------------


def _basis_row(i: int, w, ring: ParabolicContext, reps) -> dict:
    """The node-i Chevalley row of w in the finite ring: its terms on `reps`."""
    return {
        z: c for z, c in _chevalley_terms(i, w, "parabolic", ring).items() if z in reps
    }


def _ring(domain) -> ParabolicContext:
    """The composition of a table domain; an integer n is (1, ..., 1)."""
    if isinstance(domain, ParabolicContext):
        return domain
    return ParabolicContext((1,) * int(domain))


def _q_parts(c: Polynomial, k: int) -> list:
    """[(e, m)] with c = sum m * q^e, for c an integer polynomial in
    q_1, ..., q_{k-1}; e is an exponent vector of length k - 1."""
    parts = []
    for mono, rest in c.split("q").items():
        e = [0] * (k - 1)
        for (_, j), power in mono:
            e[j - 1] = power
        parts.append((tuple(e), rest.constant_value()))
    return parts


class _Solver:
    """Structure constants of one ring from its Chevalley rule alone.

    F(u, v, w, d) is the coefficient of q^d in c_{u,v}^w, a polynomial in
    the a variables of degree l(u) + l(v) - l(w) - deg q^d.  Writing
    C^i_{z,z'} for the coefficient of sigma_z' in sigma_{s_i} sigma_z,
    associativity sigma_{s_i} (sigma_u sigma_v) = (sigma_{s_i} sigma_u)
    sigma_v read at sigma_w and q^d is

        D * F(u,v,w,d) = sum_{u' != u} C^i_{u,u'} F(u',v,w,.)
                         - sum_{w' != w} F(u,v,w',.) C^i_{w',w},

    each q-monomial of a C taken off d, with D = C^i_{w,w} - C^i_{u,u} =
    sum_{j <= i} (a_{w(j)} - a_{u(j)}).  For u != w in W^P some node i
    makes D nonzero, and D is a linear form with coefficients +-1, so F is
    its exact quotient.  Every term on the right lowers deg q^d, or keeps
    it and lowers l(w) - l(u) - l(v), so the recursion ends in the base
    cases of `_settled`: F = 0 below degree 0; F(id, v, w, d) = 1 for
    v = w and d = 0, else 0; F = 0 off the support below; and F(u, u, u, 0)
    is the product of (a_{u(i)} - a_{u(j)}) over i < j with u(i) > u(j).

    The q-free diagonal.  F(v, u, u, 0) for v != u comes from its own
    equation, like every other key.  Some node has D != 0, since v != u.
    Each up term is a cover z of v, giving F(z, u, u, 0) with z longer
    than v (a term with a q takes d below 0).  Each down term is
    F(v, u, z, 0) with z covered by u, which is 0 by the Bruhat test, as u
    is not <= z.  So the recursion climbs the covers z <= u of v and ends at
    F(u, u, u, 0).  At q = 0 the ring is the equivariant cohomology of G/P,
    and F(u, v, u, 0) is sigma_v restricted to the fixed point u: restricting
    sigma_u sigma_v = sum_w c_{u,v}^w sigma_w to u keeps w = u alone, as
    sigma_w vanishes at u unless w <= u and c_{u,v}^w unless u <= w.  So
    F(u, u, u, 0) is sigma_u at u, the product of the weights of the tangent
    space at u of the Schubert variety of dimension l(u), one for each
    inversion of u (Billey, Duke Math. J. 96 (1999)); in W^P each inversion
    pairs two blocks.  Its sign is the members': on S_2, x_1 - a_1 at x_1 -> a_2.

    Support.  Let G be the graph on W^P with an edge z -> z' of weight e
    for every term m q^e of an off-diagonal C^i_{z,z'}, over all nodes i:
    the quantum Bruhat graph of the ring, whose q-free edges are the
    Bruhat covers.  If F(u, v, w, d) != 0, some path u ~> w in G has
    weight <= d, and since F is symmetric, so has some path v ~> w.  By
    induction on (deg q^d, l(w) - l(u) - l(v)): for u = w the empty path
    will do.  For u != w take the equation above with D != 0; a nonzero
    term on its right is an edge u -> u' of weight e with
    F(u', v, w, d - e) != 0, or F(u, v, w', d - e) != 0 with an edge
    w' -> w of weight e.  Either key is smaller (an edge of weight 0 is a
    cover, so it lowers l(w) - l(u) - l(v)), and its path extends by the
    edge to a path u ~> w of weight <= d.  The induction is over the true
    F, which satisfy every equation, so it does not depend on the order in
    which the recursion, the alias below or the probe reach a key.
    `reach[u][w]` keeps, as a bit mask over `self.degrees`, the d at or
    above the least degree and the least exponent of each q_j over the
    paths u ~> w; a key outside `reach[u][w] & reach[v][w]` is 0 with no
    equation opened.  Only q-free paths have weight 0, so at d = 0 the
    test is the Bruhat base case u <= w and v <= w.

    Basis elements are indices into `self.basis`, which is sorted by
    length, so the identity is 0.  F is symmetric in u and v, so a key is
    (u, v, w, d) with the longer of u and v first, unless that one is w;
    d is an index into `self.degrees`.  The diagonal F(u, v, u, d) for
    v != u is then F(v, u, u, d).

    F(u, u, u, d) for d != 0 appears in none of these equations with a
    nonzero D, and it need not vanish (it is 1 at u = [2,4,5,1,3] of the
    composition (3, 2), d = q_1).  It is fixed by F(id, u, u, d) = 0.  With
    xi = F(u, u, u, 0) and xi(x) = F(x, u, u, 0), the probe
    H(x) = xi * F(x, u, u, d) - xi(x) * F(u, u, u, d) satisfies the
    equations of the keys (x, u, u, d), since both parts do (the d = 0
    ones are classical and vanish off x <= u), and H(u) = 0.  So H follows
    from values already known: H(x') for the covers x' <= u of x, and xi
    times F for every other term.  Then F(u, u, u, d) = -H(id).  A probe
    key is (x, u, d), three entries against the four of an F key.
    """

    def __init__(self, ring: ParabolicContext):
        self.basis = ring.minimal_reps()
        self.index = {w: t for t, w in enumerate(self.basis)}
        self.length = [length(w) for w in self.basis]
        # F(u, u, u, 0), over the inversions of u.
        self.diagonal = [
            math.prod(
                (a(s) - a(t) for s, t in itertools.combinations(w, 2) if s > t),
                start=_ONE,
            )
            for w in self.basis
        ]
        self.by_code = sorted(
            range(len(self.basis)),
            key=lambda t: x_order_key(code(self.basis[t])),
            reverse=True,
        )
        q_degrees = [ring.q_degree(j) for j in range(1, ring.k)]
        # Every exponent vector d of degree up to the top 2 l(w_0^P), by
        # degree; the zero vector comes first.
        top = 2 * max(self.length)
        vectors = itertools.product(*(range(top // deg + 1) for deg in q_degrees))
        self.degrees = sorted(
            (deg, d) for d in vectors if (deg := sum(map(mul, d, q_degrees))) <= top
        )
        self.degree = [deg for deg, _ in self.degrees]
        self.q_monomials = [_q_monomial(d) for _, d in self.degrees]
        # within[b] is the mask of the d of degree <= b.
        self.within = [
            (1 << sum(deg <= b for deg in self.degree)) - 1 for b in range(top + 1)
        ]
        at_degree = {d: t for t, (_, d) in enumerate(self.degrees)}
        # Per node i (by position) and basis element w: the diagonal
        # C^i_{w,w}, and the off-diagonal C^i_{w,z} ("up") and -C^i_{z,w}
        # ("down") as (z, e, m) for each term m q^e, e an index into
        # `self.degrees`.
        reps = set(self.basis)
        self.weight, self.up, self.down = [], [], []
        for i in ring.nodes:
            weight, up, down = [], [], [[] for _ in self.basis]
            for w in self.basis:
                row = _basis_row(i, w, ring, reps)
                weight.append(row.pop(w, _ZERO))
                up.append(
                    [
                        (self.index[z], at_degree[e], Polynomial.const(m))
                        for z, c in row.items()
                        for e, m in _q_parts(c, ring.k)
                    ]
                )
            for w, terms in enumerate(up):
                for z, e, m in terms:
                    down[z].append((w, e, -m))
            self.weight.append(weight)
            self.up.append(up)
            self.down.append(down)
        # minus[d][e] is the index of d - e, or None when it is negative.
        used = {e for up in self.up for terms in up for _, e, _ in terms}
        self.minus = [
            {e: at_degree.get(tuple(map(sub, d, self.degrees[e][1]))) for e in used}
            for _, d in self.degrees
        ]
        self.reach = self._support_masks()
        self.values = {}  # the nonzero F and H found by the recursion
        self.zeros = set()  # the keys where it found 0
        self._divisors = {}  # (u, w) -> (node position, D)

    def _support_masks(self) -> list:
        """reach[u][w] for the support test: the mask of the d that bound
        the least degree and the least exponent of each q_j over the paths
        u ~> w of G, by one label-correcting pass from each u; 0 when w is
        out of reach."""
        # A weight is (deg q^e, e_1, ..., e_{k-1}), so the zero vector is 0.
        weights = [(deg,) + d for deg, d in self.degrees]
        edges = [set() for _ in self.basis]
        for up in self.up:
            for z, terms in enumerate(up):
                edges[z].update((y, e) for y, e, _ in terms)
        edges = [[(y, weights[e]) for y, e in sorted(out)] for out in edges]
        masks = {}

        def mask(least) -> int:
            if least is None:
                return 0
            found = masks.get(least)
            if found is None:
                found = masks[least] = sum(
                    1 << t
                    for t, bound in enumerate(weights)
                    if all(map(le, least, bound))
                )
            return found

        reach = []
        for source in range(len(self.basis)):
            least = [None] * len(self.basis)
            least[source] = weights[0]
            pending, queued = deque([source]), {source}
            while pending:
                z = pending.popleft()
                queued.discard(z)
                for y, weight in edges[z]:
                    step = tuple(map(add, least[z], weight))
                    if least[y] is not None:
                        step = tuple(map(min, least[y], step))
                    if step != least[y]:
                        least[y] = step
                        if y not in queued:
                            queued.add(y)
                            pending.append(y)
            reach.append([mask(found) for found in least])
        return reach

    def product(self, u: Permutation, v: Permutation) -> dict:
        """{w: c_{u,v}^w} over the basis, zero coefficients left out, in the
        x-leading order of the codes of w, highest first (the order in which
        a leading-term expansion meets them)."""
        u, v = self.index[u], self.index[v]
        length, reach_u, reach_v = self.length, self.reach[u], self.reach[v]
        out = {}
        for w in self.by_code:
            budget = length[u] + length[v] - length[w]
            if budget < 0:
                continue
            mask = reach_u[w] & reach_v[w] & self.within[budget]
            pairs = []
            while mask:
                low = mask & -mask
                mask ^= low
                t = low.bit_length() - 1
                if value := self.coefficient(u, v, w, t):
                    pairs.append((self.q_monomials[t], value))
            if pairs:
                out[self.basis[w]] = sum_of_products(pairs)
        return out

    def coefficient(self, u: int, v: int, w: int, d: int) -> Polynomial:
        """F(u, v, w, d), solving every unknown it needs on one explicit
        stack, so the depth of the recursion costs no Python frames."""
        found = self._settled(u, v, w, d)
        if not isinstance(found, tuple):
            return found
        stack, equations = [found], {}
        values, zeros = self.values, self.zeros
        while stack:
            key = stack[-1]
            if key in values or key in zeros:
                stack.pop()
                continue
            divisor, terms = equations.get(key) or self._equation(key)
            known, missing = [], []
            for m, dep in terms:
                found = self._settled(*dep) if len(dep) == 4 else self._solved(dep)
                if isinstance(found, tuple):
                    missing.append(found)
                elif found:
                    known.append((m, found))
            if missing:
                equations[key] = divisor, terms
                stack.extend(missing)
                continue
            stack.pop()
            equations.pop(key, None)
            found = known and sum_of_products(known)
            if found and divisor is not None:
                found = found.divide_linear(divisor)
            if found:
                values[key] = found
            else:
                zeros.add(key)
        return self._settled(u, v, w, d)

    def _settled(self, u, v, w, d):
        """F(u, v, w, d) when a base case or an earlier solution gives it;
        else the key whose equation gives it.  d is an index, None when the
        exponent vector is negative somewhere."""
        length = self.length
        if d is None or length[u] + length[v] - length[w] < self.degree[d]:
            return _ZERO
        if not u or not v:
            return _ONE if d == 0 and (u or v) == w else _ZERO
        reach = self.reach
        if not (reach[u][w] & reach[v][w]) >> d & 1:
            return _ZERO
        if d == 0 and u == v == w:
            return self.diagonal[u]
        if u == w or (v != w and (length[u], u) < (length[v], v)):
            u, v = v, u
        return self._solved((u, v, w, d))

    def _solved(self, key: tuple):
        """The value found for key, or key itself while unsolved."""
        found = self.values.get(key)
        if found is not None:
            return found
        return _ZERO if key in self.zeros else key

    def _equation(self, key: tuple) -> tuple:
        """(D, [(m, key')]) with D * value(key) = sum m * value(key'); D is
        None for no division."""
        if len(key) == 3:
            return self._probe_equation(*key)
        u, v, w, d = key
        if u == v == w:
            return self._self_equation(u, d)
        node, divisor = self._divisor(u, w)
        minus = self.minus[d]
        terms = [(m, (z, v, w, minus[e])) for z, e, m in self.up[node][u]]
        terms += [(m, (u, v, z, minus[e])) for z, e, m in self.down[node][w]]
        return divisor, terms

    def _self_equation(self, u: int, d: int) -> tuple:
        """F(u, u, u, d) = -H(id) for d != 0."""
        return None, [(_MINUS_ONE, (0, u, d))]

    def _probe_equation(self, x: int, u: int, d: int) -> tuple:
        """The equation of H(x) for the probe of F(u, u, u, d), x != u."""
        node, divisor = self._divisor(x, u)
        xi, minus, reach = self.diagonal[u], self.minus[d], self.reach
        terms = []
        for z, e, m in self.up[node][x]:
            if e == 0 and reach[z][u] & 1:  # z <= u
                if z != u:  # H(u) = 0
                    terms.append((m, (z, u, d)))
            else:
                terms.append((m * xi, (z, u, u, minus[e])))
        terms += [(m * xi, (x, u, z, minus[e])) for z, e, m in self.down[node][u]]
        return divisor, terms

    def _divisor(self, u: int, w: int) -> tuple:
        found = self._divisors.get((u, w))
        if found is None:
            found = next(
                (node, diff)
                for node, weight in enumerate(self.weight)
                if (diff := weight[w] - weight[u])
            )
            self._divisors[u, w] = found
        return found


def _q_monomial(d: tuple) -> Polynomial:
    return Polynomial.from_terms([(tuple((("q", j), e) for j, e in enumerate(d, 1)), 1)])


# Bounded: one solver per composition asked for, each holding every
# coefficient it has solved (2.1 MB for the whole S_4 table, 3.2 MB for
# (2,2,1), by tracemalloc across `_solver.cache_clear()`).
@lru_cache(maxsize=8)
def _solver(composition: tuple) -> _Solver:
    return _Solver(ParabolicContext(composition))


def structure_constants(domain, u, v) -> dict:
    """Coefficients of the basis expansion of sigma_u . sigma_v in the
    finite ring; keys are basis permutations, values polynomials in the
    q and a variables of the ring.  `domain` is a composition context or an
    integer n, the full flag of S_n.  They come from the Chevalley rule by
    the recursion of `_Solver`.

    >>> res = structure_constants(2, (2, 1), (2, 1))
    >>> sorted((w, str(c)) for w, c in res.items())
    [((), 'q1'), ((2, 1), '-a1 + a2')]
    """
    ctx = _ring(domain)
    return _solver(ctx.composition).product(ctx.check_rep(u), ctx.check_rep(v))


class StructureTable:
    """All pairwise products of the basis in the finite (parabolic) ring.

    `ring` is the composition the table lives on; `ctx` is the domain as
    given, None for a full-flag table built from an integer n, and only
    the JSON label tells the two apart.
    """

    def __init__(self, domain, entries):
        self.ring = _ring(domain)
        self.ctx = domain if isinstance(domain, ParabolicContext) else None
        self.n = self.ring.n
        self.basis = self.ring.minimal_reps()
        self.entries = entries

    @classmethod
    def build(cls, domain) -> "StructureTable":
        solver = _solver(_ring(domain).composition)
        basis = solver.basis
        # The solver keys F by the longer of u and v, so the rows (u, v) and
        # (v, u) are equal: each unordered pair is assembled once and its
        # row stored under both keys.
        entries = {}
        for t, u in enumerate(basis):
            for v in basis[t:]:
                entries[(u, v)] = entries[(v, u)] = solver.product(u, v)
        return cls(domain, entries)

    def product(self, u, v) -> dict:
        return self.entries[(trim(u), trim(v))]

    def _expand_product(self, expansion: dict, row) -> dict:
        """sum_w c_w * row(w) for a row lookup w -> {z: coefficient}."""
        pairs: dict = {}
        for w, cw in expansion.items():
            for z, cz in row(w).items():
                pairs.setdefault(z, []).append((cw, cz))
        return {z: c for z, zs in pairs.items() if (c := sum_of_products(zs))}

    def check_commutative(self) -> bool:
        """True iff the rows (u, v) and (v, u) are equal for every pair.
        `build` stores one row object under both keys, so on a built table
        this cannot fail; it has force on a table read by `from_json`."""
        return all(
            self.entries[(u, v)] == self.entries[(v, u)]
            for u in self.basis
            for v in self.basis
        )

    def check_associative(self) -> bool:
        return all(
            self.associative_at(u, v, t)
            for u in self.basis
            for v in self.basis
            for t in self.basis
        )

    def associative_at(self, u, v, t) -> bool:
        """(sigma_u sigma_v) sigma_t = sigma_u (sigma_v sigma_t) in the table."""
        entries = self.entries
        left = self._expand_product(entries[(u, v)], lambda w: entries[(w, t)])
        right = self._expand_product(entries[(v, t)], lambda w: entries[(u, w)])
        return left == right

    def check_divisor_rows(self) -> bool:
        """Rows at a simple reflection match the Chevalley-Monk rule exactly.
        Their a -> 0 and q -> 0 forms then match too, and w is never left in
        its own row at a -> 0: the rule's term on w is the weight term, linear
        in a, since every cover or drop target has another length."""
        reps = set(self.basis)
        return all(
            self.entries[(simple(i), w)] == _basis_row(i, w, self.ring, reps)
            for i in self.ring.nodes
            for w in self.basis
        )

    def _format_perm(self, w) -> str:
        return format_permutation(extend(w, self.n))

    def _sorted_rows(self):
        """(u, v, terms) over the basis pairs, the terms in the order of
        (length, one-line form), read through one cached key per element."""
        order = cache(lambda w: (length(w), w))
        for u in self.basis:
            for v in self.basis:
                terms = self.entries[(u, v)].items()
                yield u, v, sorted(terms, key=lambda item: order(item[0]))

    def to_text(self) -> str:
        """One line `u * v = (c)*w + ...` per basis pair, in the order of
        `to_json`.  Each monomial and each permutation is formatted once per
        call."""
        describe = cache(_describe)
        label = cache(self._format_perm)
        return "\n".join(
            f"{label(u)} * {label(v)} = "
            + (" + ".join(f"({_format(c, describe)})*{label(z)}" for z, c in terms) or "0")
            for u, v, terms in self._sorted_rows()
        )

    def to_json(self) -> str:
        """The text `json.dumps(blob, indent=2)` gives for the blob of n,
        the parabolic label and the entries, written directly: with an
        indent the json module encodes in pure Python.  Each monomial and
        each permutation is formatted once per call."""
        describe = cache(_describe)
        label = cache(lambda w: json.dumps(self._format_perm(w)))
        entries = []
        for u, v, terms in self._sorted_rows():
            terms = ",\n".join(
                '        {\n          "w": %s,\n          "coeff": %s\n        }'
                % (label(z), json.dumps(_format(c, describe)))
                for z, c in terms
            )
            entries.append(
                '    {\n      "u": %s,\n      "v": %s,\n      "terms": %s\n    }'
                % (label(u), label(v), f"[\n{terms}\n      ]" if terms else "[]")
            )
        parabolic = (
            ",".join(str(b) for b in self.ctx.composition) if self.ctx is not None else None
        )
        return '{\n  "n": %s,\n  "parabolic": %s,\n  "entries": [\n%s\n  ]\n}' % (
            json.dumps(self.n),
            json.dumps(parabolic),
            ",\n".join(entries),
        )

    @classmethod
    def from_json(cls, text: str) -> "StructureTable":
        blob = json.loads(text)
        label = blob["parabolic"]
        domain = (
            ParabolicContext(tuple(int(b) for b in label.split(",")))
            if label
            else blob["n"]
        )
        entries = {}
        for item in blob["entries"]:
            u = trim(parse_permutation(item["u"]))
            v = trim(parse_permutation(item["v"]))
            entries[(u, v)] = {
                trim(parse_permutation(term["w"])): parse_polynomial(term["coeff"])
                for term in item["terms"]
            }
        return cls(domain, entries)

    def __eq__(self, other) -> bool:
        if not isinstance(other, StructureTable):
            return NotImplemented
        return (self.ctx, self.ring, self.entries) == (
            other.ctx,
            other.ring,
            other.entries,
        )


if __name__ == "__main__":
    import doctest

    doctest.testmod()
