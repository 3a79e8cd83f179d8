"""Chevalley-Monk root sets, identity checks, and structure-constant tables.

For a node i only the roots alpha_{rs} with r <= i < s can contribute, so the
stored root sets are finite: covers live below s = max(n, i) + 1 and length
drops below s = n, bounds that the tests re-derive against wider windows.
Structure constants come from multiplying two basis members, expanding the
product over the stable basis, and then truncating to the finite ring: q_i and
a_i beyond their ranges are set to zero and basis terms outside the minimal
coset representatives are dropped.  The full-flag ring of S_n is the ring of
the composition (1, ..., 1), so an integer domain n means that composition
and every table is built by the one parabolic route.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import lru_cache

from .poly import Polynomial, a, format_polynomial, parse_polynomial, sum_of_products
from .parabolic import (
    _context_for,
    expand_in_parabolic_basis,
    parabolic_q_double_schubert,
)
from .schubert import schubert_polynomial
from .weyl import (
    ParabolicContext,
    Permutation,
    apply_to,
    compose,
    eta_p,
    extend,
    format_permutation,
    inverse,
    is_cover,
    length,
    pair_two_rho,
    parse_permutation,
    q_coroot,
    reflect,
    simple,
    trim,
    weak_order_ideal,
)

__all__ = [
    "ChevalleyRootSets",
    "chevalley_root_sets",
    "b_root_set",
    "weight_term",
    "chevalley_rhs",
    "verify_chevalley",
    "bijection_check",
    "structure_constants",
    "StructureTable",
]

CHEVALLEY_FLAVORS = ("classical", "quantum", "double", "quantum_double", "parabolic")


@dataclass(frozen=True)
class ChevalleyRootSets:
    """The roots alpha_{rs} with r <= i < s feeding the node-i Chevalley rule."""

    dynkin_node: int
    A: frozenset
    B: frozenset


def _pi_p(ctx: ParabolicContext, w: Permutation) -> Permutation:
    return _context_for(ctx, w).min_rep(w)


def _in_a_set(w, alpha, ctx) -> bool:
    if not is_cover(w, alpha):
        return False
    if ctx is None:
        return True
    if ctx.is_p_root(alpha):
        return False
    moved = reflect(w, alpha)
    return _context_for(ctx, moved).is_min_rep(moved)


def _in_b_set(w, alpha, ctx) -> bool:
    if ctx is None:
        drop = pair_two_rho(alpha)
        return length(reflect(w, alpha)) == length(w) + 1 - drop
    if ctx.is_p_root(alpha):
        return False
    drop = pair_two_rho(alpha) - ctx.pair_two_rho_p(alpha)
    return length(_pi_p(ctx, reflect(w, alpha))) == length(w) + 1 - drop


def chevalley_root_sets(
    w, i: int, ctx: ParabolicContext | None = None, window: int = 0
) -> ChevalleyRootSets:
    """The A (cover) and B (length drop) roots at node i, exactly enumerated.

    `window` widens the search bound; the defaults are provably complete and
    the tests confirm this by comparing against widened windows.

    >>> sets = chevalley_root_sets((2, 1), 1)
    >>> sorted(sets.A), sorted(sets.B)
    ([(1, 3)], [(1, 2)])
    """
    w = trim(w)
    if i < 1:
        raise ValueError("node must be >= 1")
    if ctx is not None and i not in ctx.nodes:
        raise ValueError(f"{i} is not a node of the composition {ctx.composition}")
    a_max = max(len(w), i) + 1 + window
    b_max = len(w) + window
    A = frozenset(
        (r, s)
        for r in range(1, i + 1)
        for s in range(i + 1, a_max + 1)
        if _in_a_set(w, (r, s), ctx)
    )
    B = frozenset(
        (r, s)
        for r in range(1, i + 1)
        for s in range(i + 1, b_max + 1)
        if _in_b_set(w, (r, s), ctx)
    )
    return ChevalleyRootSets(i, A, B)


def b_root_set(w, ctx: ParabolicContext | None = None, window: int = 0) -> frozenset:
    """All length-drop roots of w (no node filter); drives the bijection checks.
    w may be any one-line sequence.

    >>> sorted(b_root_set([2, 1]))
    [(1, 2)]
    """
    return _b_root_set(trim(w), ctx, window)


# Bounded like the member caches: one small frozenset per (trimmed w, ctx,
# window), and the bijection checks of S_5 ask for 660 of them.
@lru_cache(maxsize=2048)
def _b_root_set(w: Permutation, ctx: ParabolicContext | None, window: int) -> frozenset:
    bound = len(w) + window
    return frozenset(
        (r, s)
        for r in range(1, bound)
        for s in range(r + 1, bound + 1)
        if _in_b_set(w, (r, s), ctx)
    )


def weight_term(w, i: int) -> Polynomial:
    """-omega_i(a) + w.omega_i(a) = sum_{j<=i} (a_{w(j)} - a_j)."""
    total = Polynomial.zero()
    for j in range(1, i + 1):
        total = total + a(apply_to(trim(w), j)) - a(j)
    return total


def _member(flavor: str, w, ctx) -> Polynomial:
    if flavor == "parabolic":
        return parabolic_q_double_schubert(_context_for(ctx, w), w)
    return schubert_polynomial(w, flavor)


def _chevalley_terms(i: int, w, flavor: str, ctx) -> dict:
    """The node-i Chevalley-Monk rule as {basis element: coefficient}.

    The weight term sits on w itself (double, quantum_double, parabolic),
    each cover contributes 1, and each length drop contributes its q-monomial
    (q_coroot for the full flag, eta_P on pi_P(w s_alpha) for parabolic).
    """
    sets = chevalley_root_sets(w, i, ctx if flavor == "parabolic" else None)
    terms: dict = {}

    def add(z, coeff):
        terms[z] = terms.get(z, Polynomial.zero()) + coeff

    if flavor in ("double", "quantum_double", "parabolic"):
        add(w, weight_term(w, i))
    for alpha in sorted(sets.A):
        add(reflect(w, alpha), Polynomial.const(1))
    if flavor in ("quantum", "quantum_double"):
        for alpha in sorted(sets.B):
            add(reflect(w, alpha), q_coroot(alpha))
    elif flavor == "parabolic":
        for alpha in sorted(sets.B):
            add(_pi_p(ctx, reflect(w, alpha)), eta_p(alpha, ctx))
    return {z: c for z, c in terms.items() if c}


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
    if flavor not in CHEVALLEY_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    if flavor == "parabolic":
        if ctx is None:
            raise ValueError("parabolic flavor needs a composition context")
        if not ctx.is_min_rep(w):
            raise ValueError(f"{list(w)} is not minimal in its coset")
    terms = _chevalley_terms(i, trim(w), flavor, ctx)
    return sum_of_products((coeff, _member(flavor, z, ctx)) for z, coeff in terms.items())


def verify_chevalley(i: int, w, flavor: str, ctx: ParabolicContext | None = None):
    """Check the node-i rule for w; returns (holds, difference polynomial)."""
    w = trim(w)
    lhs = _member(flavor, simple(i), ctx) * _member(flavor, w, ctx)
    diff = lhs - chevalley_rhs(i, w, flavor, ctx)
    return (not diff.terms, diff)


def bijection_check(w, ctx: ParabolicContext | None = None) -> bool:
    """Confirm the pair bijection behind the quantum Chevalley correction sums.

    The first set collects (v, alpha) with v weak-below w and alpha a length
    drop of v; the map sends it to (v s_alpha, alpha) (minimal representative
    taken, parabolic case), which must land bijectively in the set of
    (u, alpha) with alpha a length drop of w and u weak-below the image of
    w s_alpha.  In the full flag case the same map carries the second set
    back, composing to the identity both ways; the parabolic projection
    forgets the Levi part, so there the inverse is not re-reflection and the
    check is bijectivity plus the index identity the Cauchy coefficients rely
    on: v w^{-1} = pi_P(v s_alpha) pi_P(w s_alpha)^{-1}.
    """
    w = trim(w)

    def move(v, alpha):
        moved = reflect(v, alpha)
        return _pi_p(ctx, moved) if ctx is not None else moved

    first = set()
    for v in weak_order_ideal(w):
        if ctx is not None and not _context_for(ctx, v).is_min_rep(v):
            return False
        for alpha in b_root_set(v, ctx):
            first.add((v, alpha))
    second = set()
    for alpha in b_root_set(w, ctx):
        for u in weak_order_ideal(move(w, alpha)):
            second.add((u, alpha))

    w_inverse = inverse(w)
    moved_inverse = {}  # alpha -> inverse(move(w, alpha))
    image = set()
    for v, alpha in first:
        u = move(v, alpha)
        if ctx is not None:
            if alpha not in moved_inverse:
                moved_inverse[alpha] = inverse(move(w, alpha))
            if compose(v, w_inverse) != compose(u, moved_inverse[alpha]):
                return False
        else:
            if move(u, alpha) != v:
                return False
        image.add((u, alpha))
    return image == second and len(image) == len(first)


# -- structure constants ---------------------------------------------------------


def _truncate(expansion: dict, ctx: ParabolicContext, reps) -> dict:
    """The terms on `reps`, with q_k, q_{k+1}, ... and a_{n+1}, ... set to 0."""
    return {
        w: c2
        for w, c in expansion.items()
        if w in reps and (c2 := c.zero_out("q", ctx.k).zero_out("a", ctx.n + 1))
    }


def _zero_out(row: dict, family: str) -> dict:
    return {z: c2 for z, c in row.items() if (c2 := c.zero_out(family))}


def _ring(domain) -> ParabolicContext:
    """The composition of a table domain; an integer n is (1, ..., 1)."""
    if isinstance(domain, ParabolicContext):
        return domain
    return ParabolicContext((1,) * int(domain))


def structure_constants(domain, u, v) -> dict:
    """Coefficients of the basis expansion of sigma_u . sigma_v after passing
    to the finite ring; keys are basis permutations, values polynomials in
    the surviving q and a variables.  `domain` is a composition context or
    an integer n, the full flag of S_n.

    >>> res = structure_constants(2, (2, 1), (2, 1))
    >>> sorted((w, str(c)) for w, c in res.items())
    [((), 'q1'), ((2, 1), '-a1 + a2')]
    """
    ctx = _ring(domain)
    for z in (u, v):
        if not ctx.is_min_rep(z):
            raise ValueError(f"{list(z)} is not minimal in its coset")
    product = parabolic_q_double_schubert(ctx, u) * parabolic_q_double_schubert(ctx, v)
    expansion = expand_in_parabolic_basis(product, ctx)
    return _truncate(expansion, ctx, set(ctx.minimal_reps()))


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
        ring = _ring(domain)
        basis = ring.minimal_reps()
        entries = {
            (u, v): structure_constants(ring, u, v) for u in basis for v in basis
        }
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
        return all(
            self.entries[(u, v)] == self.entries[(v, u)]
            for u in self.basis
            for v in self.basis
        )

    def check_associative(self) -> bool:
        for u in self.basis:
            for v in self.basis:
                uv = self.entries[(u, v)]
                for t in self.basis:
                    vt = self.entries[(v, t)]
                    left = self._expand_product(uv, lambda w: self.entries[(w, t)])
                    right = self._expand_product(vt, lambda w: self.entries[(u, w)])
                    if left != right:
                        return False
        return True

    def _divisor_expected(self, i: int, w) -> dict:
        terms = _chevalley_terms(i, w, "parabolic", self.ring)
        return _truncate(terms, self.ring, set(self.basis))

    def divisor_nodes(self) -> list:
        return list(self.ring.nodes)

    def check_divisor_rows(self) -> bool:
        """Rows at a simple reflection match the Chevalley-Monk rule exactly."""
        for i in self.divisor_nodes():
            si = simple(i)
            for w in self.basis:
                if self.entries[(si, w)] != self._divisor_expected(i, w):
                    return False
        return True

    def _specialized_rows(self, family: str):
        """(w, table row, rule row) at every divisor row, `family` set to 0."""
        for i in self.divisor_nodes():
            si = simple(i)
            for w in self.basis:
                got = _zero_out(self.entries[(si, w)], family)
                yield w, got, _zero_out(self._divisor_expected(i, w), family)

    def check_quantum_specialization(self) -> bool:
        """a -> 0 on divisor rows: covers plus q-corrections, no weight term."""
        return all(
            got == expected and w not in got
            for w, got, expected in self._specialized_rows("a")
        )

    def check_classical_specialization(self) -> bool:
        """q -> 0 on divisor rows: weight term plus covers only."""
        return all(got == expected for _, got, expected in self._specialized_rows("q"))

    def _format_perm(self, w) -> str:
        return format_permutation(extend(w, self.n))

    def to_json(self) -> str:
        entries = []
        for u in self.basis:
            for v in self.basis:
                terms = [
                    {"w": self._format_perm(z), "coeff": format_polynomial(c)}
                    for z, c in sorted(
                        self.entries[(u, v)].items(),
                        key=lambda item: (length(item[0]), item[0]),
                    )
                ]
                entries.append(
                    {"u": self._format_perm(u), "v": self._format_perm(v), "terms": terms}
                )
        blob = {
            "n": self.n,
            "parabolic": ",".join(str(b) for b in self.ctx.composition)
            if self.ctx is not None
            else None,
            "entries": entries,
        }
        return json.dumps(blob, indent=2)

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
