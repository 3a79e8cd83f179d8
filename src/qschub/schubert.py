"""Divided differences in the a-variables and the construction of every member.

A composition (n_1, ..., n_k) of n fixes the block matrix D: x_i diagonal, -1
superdiagonal and one q_j entry per inner block boundary; D_j is its
upper-left N_j x N_j corner.  The coefficients of det(D_j - t Id) come from a
recursion over the rows of D (`_d_char_coeffs`); no matrix is built.  The top
product is the product of det(D_j - a_i Id) over the staircase of index
windows, and the member attached to w is the signed divided-difference chain
for w (w_0^P)^{-1} applied to it.
The full flag is the composition (1, ..., 1): D is the tridiagonal C_n, the
top product is prod_{i=1}^{n-1} det(C_i - a_{n-i} Id), and the chain gives the
quantum double member.

The top product is never multiplied out.  Each a_i occurs in exactly one of
its factors, and d_i commutes with multiplication by anything free of a_i and
a_{i+1}.  So the chain keeps a partial result and the set of factors not yet
used.  Its step d_i multiplies factors i and i+1 together, those still
unused, and takes one fused d_i of the partial result times their product,
which is never formed (`Polynomial.divided_difference` with `times`); the
factors left over, free of a_i and a_{i+1}, pass through d_i untouched.  A
member is its partial result times the product of the factors left over; a
reader that needs it once takes those two as a last product (f, g) and
keeps nothing, and a reader of every member of a composition walks the
chain states depth first (`_chain_walk`), holding only those on its path.

There is one chain per composition, and every a-side member is a reading of
its state: the quantum double member as it is, the double member with q set
to 0 and the quantum member with a set to 0, each applied to the partial
result and to every factor left over.  The readings are the members:

- q -> 0 and a -> 0 are ring maps, so the partial result times the factors
  left over, each read at 0, is the member read at 0;
- the q's are constants for every d_i, which acts on the a's alone, so d_i
  commutes with q -> 0.  The chain read at q = 0 is therefore the chain on
  the top product at q = 0, whose factors are prod_{t <= N_j} (x_t - a_i):
  the double top product, from which the double member is defined.

The quantum member is the quantum double one at a = 0 by definition.  The
classical family is computed by the equivalent x-side chain up from the
staircase monomial, whose intermediates stay small.  All members are stable
under adding fixed points, so each permutation is computed inside the
smallest symmetric group that contains it.
"""

from __future__ import annotations

from functools import cache, lru_cache, partial
from itertools import accumulate
from types import MappingProxyType

from .poly import (
    Polynomial,
    a,
    q,
    sum_of_products,
    x,
    x_order_key,
)
from .weyl import (
    ParabolicContext,
    Permutation,
    _ideal_cosets,
    _left_descents,
    compose,
    extend,
    first_left_descent,
    identity,
    inverse,
    length,
    perm_from_code,
    reduced_word,
    simple,
    trim,
)

__all__ = [
    "FAMILY_KINDS",
    "divided_difference",
    "schubert_polynomial",
    "expand_in_schubert_basis",
    "cauchy_rhs",
    "quantum_elementary",
    "x_to_minus_a",
    "x_lead_vector",
]

FAMILY_KINDS = ("classical", "double", "quantum", "quantum_double")
# The variable families that each family's members are free of: the a-side
# members set them to 0 on the chain, and expansions reject them.
_ZEROED = {"classical": "aq", "double": "q", "quantum": "a", "quantum_double": ""}
_ONE = Polynomial.const(1)


def divided_difference(i: int, f: Polynomial) -> Polynomial:
    """The operator (f - s_i^a f) / (a_i - a_{i+1}); see
    `Polynomial.divided_difference`."""
    return _divided_difference_in("a", i, f)


# perfbench's tracer times and counts the divided differences here
# (`schubert.dd_calls`, `dd_terms_in`, the terms of f alone).
def _divided_difference_in(
    fam: str, i: int, f: Polynomial, times: Polynomial | None = None
) -> Polynomial:
    """d_i of f, or of f * times when given, in the variables `fam`."""
    if i < 1:
        raise ValueError("divided difference index must be >= 1")
    return f.divided_difference(fam, i, times)


# Unbounded, but small: one short coefficient tuple per composition asked
# for, and compositions are capped by the 16-slot layout.
@cache
def _d_char_coeffs(blocks: tuple) -> tuple:
    """Coefficients (E_0, ..., E_n) of det(D - t*Id) = sum_j (-t)^(n-j) E_j
    for the composition `blocks`, by a recursion over the rows of D; no
    matrix is built.  With D_k the upper-left k x k corner of D and
    p_k = det(D_k - t*Id),

        p_0 = 1,
        p_k = (x_k - t) p_{k-1} + sigma_j q_j p_{N_{j-1}}   if k = N_{j+1},
        p_k = (x_k - t) p_{k-1}                              otherwise,

    where sigma_j q_j is the entry of D at (N_{j+1}, N_{j-1} + 1): sigma_j is
    +1 for n_{j+1} odd and -1 otherwise.  Proof: expand det(D_k - t*Id)
    along row k.  D is lower Hessenberg with -1 on the superdiagonal, so the
    minor at (k, i) is p_{i-1} times a triangular block whose diagonal is
    -1s, that is p_{i-1} (-1)^(k-i), and the cofactor sign (-1)^(k+i)
    cancels that factor.  Row k has one entry off the diagonal: the q_j
    entry, when k = N_{j+1}.

    The upper-left N_j x N_j corner D_j of a longer composition's D is the D
    of its first j blocks, so D_j's coefficients are _d_char_coeffs(comp[:j]).
    """
    ends = list(accumulate(blocks, initial=0))  # N_0 = 0, N_1, ..., N_k
    # p[k] as its coefficients in s = -t, lowest first.
    p = [[_ONE]]
    for j, size in enumerate(blocks):
        for k in range(ends[j] + 1, ends[j + 1] + 1):
            pk = [Polynomial.zero(), *p[k - 1]]
            for d, c in enumerate(p[k - 1]):
                pk[d] = pk[d] + x(k) * c
            p.append(pk)
        if j:  # the q_j entry sits in row N_{j+1}, the last of block j + 1
            entry, last = (q(j) if size % 2 else -q(j)), p[-1]
            for d, c in enumerate(p[ends[j - 1]]):
                last[d] = last[d] + entry * c
    return tuple(reversed(p[-1]))


def quantum_elementary(j: int, n: int) -> Polynomial:
    """E_j^n, the coefficient with det(C_n - t*Id) = sum_j (-t)^(n-j) E_j^n."""
    if n < 0:
        raise ValueError("matrix size must be >= 0")
    if j < 0 or j > n:
        return Polynomial.zero()
    if j == 0:  # the leading coefficient, also of the empty determinant
        return Polynomial.const(1)
    return _d_char_coeffs((1,) * n)[j]


# Bounded like the chain: one entry per composition asked for, each holding
# one factor per a-variable.
@lru_cache(maxsize=2048)
def _top_factors(composition: tuple) -> MappingProxyType:
    """{i: det(D_j - a_i*Id)} over the inner levels j and the staircase window
    n - N_{j+1} < i <= n - N_j, read-only since the cache shares it; the top
    product is the product of the values."""
    ctx = ParabolicContext(composition)
    n = ctx.n
    factors = {}
    for j in range(1, ctx.k):
        coeffs = _d_char_coeffs(composition[:j])
        for i in range(n - ctx.partial_sums[j] + 1, n - ctx.partial_sums[j - 1] + 1):
            value = Polynomial.zero()  # det(D_j - a_i*Id), by Horner's rule in -a_i
            for c in coeffs:
                value = value * -a(i) + c
            factors[i] = value
    return MappingProxyType(factors)


def _top_state(composition: tuple) -> tuple:
    """The chain state of the identity: the top product, all factors pending."""
    return Polynomial.const(1), frozenset(_top_factors(composition))


def _chain_step(composition: tuple, i: int, state: tuple) -> tuple:
    """The chain state of s_i v from the state (partial, pending) of v, for
    l(s_i v) = l(v) + 1: factors i and i + 1, those still pending, are
    multiplied together, and one fused d_i of `partial` times their product
    (`Polynomial.divided_difference` with `times`) gives the new partial, so
    `partial` times those factors is never formed.  Every factor left
    pending is free of a_i and a_{i+1}, so it passes through d_i."""
    partial, pending = state
    factors = _top_factors(composition)
    times = None
    for t in (i, i + 1):
        if t in pending:
            times = factors[t] if times is None else times * factors[t]
    return _divided_difference_in("a", i, partial, times), pending - {i, i + 1}


# Bounded: a long-running process must not pin every chain it ever ran.
# 2048 entries hold the S_6 chains, which serve every a-side family, with
# room to spare.  Measured state sizes: the largest `partial` over all 720
# S_6 chains has 46,026 terms (the S_6 top product has 113,416), and the
# longest S_7 chain, v = w0, peaks at 279,654.  The full flag is the
# composition (1, ..., 1), so its members share entries with the parabolic
# ones.  Filled by the readers of single members; the suites that read every
# member of a composition once (`verify cauchy`, `verify quantization`,
# `verify stability`) take their states from `_chain_walk` and leave it
# untouched.
@lru_cache(maxsize=2048)
def _dd_from_top(composition: tuple, v: Permutation) -> tuple:
    """The chain for v as a state (partial, pending): the divided differences
    applied to the top product equal partial times the product of the
    `_top_factors` indexed by the frozenset `pending`, and `partial` has no
    a_t for t in `pending`.  The state of v is built from that of s_i v, i
    the first left descent of v."""
    if v == identity:
        return _top_state(composition)
    i = first_left_descent(v)
    return _chain_step(composition, i, _dd_from_top(composition, compose(simple(i), v)))


def _chain_walk(composition: tuple, top: Permutation | None = None):
    """(w, v, state) for every w in the left weak order ideal of `top`, an
    element of W^P of the composition that defaults to w_0^P, with
    v = w (w_0^P)^{-1} and `state` the chain state of v that
    `_dd_from_top` gives, in the post-order of a depth-first search of the
    left weak order down from `top`.  The first state, that of
    v_0 = top (w_0^P)^{-1}, is built by `_chain_step` along
    `reduced_word(v_0)` from the top product; for top = w_0^P, v_0 is the
    identity and its state the top product.  The search steps from w to s_i w
    for each left descent i of w not yet reached, that is from v to s_i v
    one longer, and builds that state from the state of v by `_chain_step`.
    It holds only the states on its path and reads or fills no member or
    chain cache.  The order of the w depends on `top` and the left descents
    alone, not on the composition.

    The search reaches the ideal of `top`, which lies in W^P, and for
    top = w_0^P all of W^P.  W^P is an order ideal of the left weak order:
    a right descent s_j of s_i w inside W_P would be one of w.  For w in
    W^P, l(w w_{0,P}) = l(w) + l(w_{0,P}), so
    l(w_0^P w^{-1}) = l(w_0 (w w_{0,P})^{-1}) = l(w_0^P) - l(w): every w lies
    below w_0^P in the left weak order, and peeling a reduced word of
    w_0^P w^{-1} off the left of w_0^P reaches w by left descents.  So
    w_0^P = y w with lengths adding and v = y^{-1}, of length
    l(w_0^P) - l(w): each step lengthens v by one.

    1. A state can come from any left descent, so the state of v does not
       depend on which parent the search built it from, nor on the word
       that built the first state.  Along any reduced word of v the steps
       keep partial times the pending factors equal to the divided
       differences of the word applied to the top product, since factor t
       is the only one holding a_t; by the braid relations that value
       depends on v alone.  `pending` is the top factors less the union of
       {i, i + 1} over the letters of the word, and every reduced word of v
       has the same letters, since any two are joined by braid moves
       (Matsumoto, Tits), which keep them.  So `pending` is the same for
       every word, and `partial` is the value divided by the pending
       factors, which is unique in a ring with no zero divisors.  The state
       is therefore the one `_dd_from_top` builds along its first left
       descents.
    2. Each ideal comes before its w.  The post-order of a depth-first
       search of a directed acyclic graph finishes every vertex reachable
       from u before u: along an edge u -> t, t is finished already or is
       reached from u and finished first, and it is never on the path, which
       would close a cycle.  The vertices reachable from w are its left weak
       order ideal {u <=_L w}.  If w = y u with lengths adding, then
       u (w_0^P)^{-1} = y^{-1} v with l(y^{-1} v) = l(v) + l(y), so the
       ideal of w maps to {v' >=_L v}, and every right factor a Cauchy sum
       of w reads (`_cauchy_pairs`) was yielded before w.
    """
    w0_p = ParabolicContext(composition).w0_p()
    top = w0_p if top is None else top
    v = compose(top, inverse(w0_p))
    state = _top_state(composition)
    for i in reversed(reduced_word(v)):
        state = _chain_step(composition, i, state)
    reached = {top}
    path = [(top, v, state, iter(_left_descents(top)))]
    while path:
        w, v, state, descents = path[-1]
        for i in descents:
            below = compose(simple(i), w)
            if below not in reached:
                reached.add(below)
                step = _chain_step(composition, i, state)
                descents_below = iter(_left_descents(below))
                path.append((below, compose(simple(i), v), step, descents_below))
                break
        else:
            path.pop()
            yield w, v, state


def _last_product(composition: tuple, zero: str, v: Permutation, state: tuple) -> tuple:
    """The chain state `state` of v as a last product, read with the
    variable family `zero` ("q" or "a", or "" for none) set to 0: (f, g)
    with f * g that reading of the chain for v times (-1)^l(v).  `partial`
    and every pending factor of the state are read at 0; f is `partial`,
    and g is the product of the factors, multiplied smallest first, with
    the sign on it, so `partial` is never multiplied by a factor here.  With
    no factor pending, f is the signed `partial` and g is 1."""
    partial, pending = state
    partial = partial.zero_out(zero)
    factors = sorted(
        (_top_factors(composition)[t].zero_out(zero) for t in pending),
        key=lambda factor: len(factor.terms),
    )
    odd = length(v) % 2
    if not factors:
        return (-partial if odd else partial), _ONE
    g, *rest = factors
    for factor in rest:
        g = g * factor
    return partial, (-g if odd else g)


def _reading(composition: tuple, zero: str, v: Permutation, state: tuple) -> Polynomial:
    """`_last_product` multiplied out: the signed chain for v with the
    family `zero` set to 0."""
    f, g = _last_product(composition, zero, v, state)
    # With no factor pending, f is the signed `partial` of the chain state,
    # sharing its keys when nothing is set to 0; f * 1 would copy every key
    # (70 MB more at `verify chevalley --max-n 5`).
    return f if g is _ONE else f * g


# Bounded like the chain, so a long-running process does not pin every
# member it was ever asked for.  Filled by the readers that read a member
# more than once: the Chevalley rule members, `expand`, the public member
# functions and the public Cauchy sums (`cauchy_rhs`,
# `parabolic_cauchy_rhs`), whose right factors are a = 0 readings.  The
# suites that read each member once (`verify cauchy`, `verify
# quantization`, `verify stability`) read the walk and leave it untouched.
# The three readings of a chain share its state, so a double member read
# alone pays for the quantum double chain.
@lru_cache(maxsize=2048)
def _signed_chain(composition: tuple, zero: str, v: Permutation) -> Polynomial:
    """The chain for v applied to the top product, times (-1)^l(v), read
    with the variable family `zero` set to 0 (`_last_product`)."""
    return _reading(composition, zero, v, _dd_from_top(composition, v))


# Bounded like the chain: one short permutation per composition asked for.
@lru_cache(maxsize=2048)
def _w0_p_inverse(composition: tuple) -> Permutation:
    return inverse(ParabolicContext(composition).w0_p())


def _chain_member(composition: tuple, zero: str, w: Permutation) -> Polynomial:
    """The signed chain for v = w (w_0^P)^{-1}, with the variable family
    `zero` set to 0: "" gives the member on the composition, "q" its double
    and "a" its quantum member.  The composition is first followed by as
    many singleton blocks as w needs past its n."""
    composition += (1,) * (len(w) - sum(composition))
    return _signed_chain(composition, zero, compose(w, _w0_p_inverse(composition)))


@lru_cache(maxsize=2048)
def _x_chain_member(w: Permutation, n: int) -> Polynomial:
    """Classical member by the x-side chain up from the staircase monomial.

    Equal to the a -> 0 form of the double member, but every intermediate
    polynomial is a-free and therefore far smaller, which matters once the
    support reaches S_6 and beyond."""
    if length(w) == n * (n - 1) // 2:
        total = Polynomial.const(1)
        for i in range(1, n):
            for j in range(1, i + 1):
                total = total * x(j)
        return total
    line = list(extend(w, n))
    i = next(t for t in range(1, n) if line[t - 1] < line[t])
    line[i - 1], line[i] = line[i], line[i - 1]
    return _divided_difference_in("x", i, _x_chain_member(trim(tuple(line)), n))


def schubert_polynomial(w, family: str, n: int | None = None) -> Polynomial:
    """The family member attached to w.

    n defaults to the smallest symmetric group containing w; any larger n
    gives the same polynomial (stability), which the tests check directly.

    >>> print(schubert_polynomial((3, 1, 2), "classical"))
    x1^2
    >>> print(schubert_polynomial((3, 1, 2), "quantum"))
    x1^2 - q1
    """
    w = trim(w)
    if family not in FAMILY_KINDS:
        raise ValueError(f"unknown family {family!r}")
    if n is None:
        n = len(w)
    elif len(w) > n:
        raise ValueError(f"{list(w)} does not lie in S_{n}")
    n = max(n, 1)
    if family == "classical":
        return _x_chain_member(w, n)
    return _chain_member((1,) * n, _ZEROED[family], w)


def x_to_minus_a(f: Polynomial) -> Polynomial:
    """Substitute x_i -> -a_i; used for the Cauchy coefficients Schub_v(-a)."""
    return f.specialize(
        {("x", i): -a(i) for i in range(1, f.max_index("x") + 1)}
    )


# Bounded like the member caches; S_5's Cauchy sums need one entry per
# permutation of S_5.
@lru_cache(maxsize=2048)
def _cauchy_left(u: Permutation) -> Polynomial:
    """Schub_u(-a), from the x-side classical chain, so the Cauchy sums stay
    independent of the a-side chain they are checked against."""
    return x_to_minus_a(schubert_polynomial(u, "classical"))


def _cauchy_pairs(w: Permutation, right):
    """(Schub_{v w^{-1}}(-a), right(v)) over the left weak order ideal of w,
    whose products sum to the Cauchy sum of w.  `right(v)` is the member of
    v the sum runs over: for the quantum double sum on a composition, the
    a -> 0 member of v there; for the double sum, the classical member."""
    return ((_cauchy_left(u), right(v)) for v, u in _ideal_cosets(w))


def _classical_member(v: Permutation) -> Polynomial:
    """The right factor of the double Cauchy sum."""
    return schubert_polynomial(v, "classical")


def _cauchy_sum(composition: tuple, quantum: bool, w: Permutation) -> Polynomial:
    """The Cauchy sum of w (`_cauchy_pairs`) over the cached a -> 0 members
    on the composition, or for the double sum (quantum False) over the
    classical members."""
    right = partial(_chain_member, composition, "a") if quantum else _classical_member
    return sum_of_products(_cauchy_pairs(w, right))


def cauchy_rhs(w, quantum: bool) -> Polynomial:
    """Sum of Schub_{v w^{-1}}(-a) times the (quantum) Schubert of v over v below w.

    The sum runs over the left weak order ideal of w and reproduces the
    double (or quantum double) member for w.  The quantum sum reads every
    v from the chain of S_len(w): it is `parabolic_cauchy_rhs` of the full
    flag (1, ..., 1) of len(w), term for term.
    """
    w = trim(w)
    return _cauchy_sum((1,) * max(len(w), 1), quantum, w)


# -- expansion in a Schubert family -------------------------------------------


# perfbench's tracer counts one expansion round per call of this name
# (`schubert.expand_rounds`, `parabolic.expand_rounds`).
def x_lead_vector(f: Polynomial) -> tuple | None:
    """Exponent vector of the x-leading monomial of f, or None for f = 0.

    Leading means maximal total x-degree, ties broken reverse-lex: at the
    largest index where two vectors differ, the larger exponent wins.
    """
    return f.x_lead()


def _check_ring(f: Polynomial, family: str, what: str):
    for fam in _ZEROED[family]:
        if f.max_index(fam):
            raise ValueError(
                f"{what} contains {fam}-variables, not allowed for the "
                f"{family} family"
            )


def _expand_by_leads(f: Polynomial, member) -> dict:
    """Strip x-leading terms off f until nothing is left.

    `member(vec, coeff)` takes the leading exponent vector and its full
    coefficient (a polynomial in the non-x variables), and returns the basis
    element w whose code is vec together with its member; it raises
    ValueError when either lies outside the basis' span.

    Every member read lies in S_m, m the staircase of f (`staircase`), or
    the n of a composition if that is larger.  Let H_m be the span over
    Z[a, q] of the x^b with b_i <= m - i.  The members of S_m lie in H_m
    (Fomin, Gelfand and Postnikov, J. Amer. Math. Soc. 10 (1997), sect. 3;
    the top product of a composition of m does too, since x_t occurs in the
    factors of its N_j >= t, at most m - t of them, and divided differences
    in the a's keep x-degrees), and lead at x^code(w).  So f - coeff * member
    stays in H_m, and each lead, under the staircase, is the code of a w in
    S_m.
    """
    result: dict = {}
    previous = None
    # Lead keys are nonnegative ints and must strictly decrease, so the loop
    # ends without a round bound.
    while f.terms:
        vec = x_lead_vector(f)
        lead = x_order_key(vec)
        if previous is not None and not lead < previous:
            raise RuntimeError(
                "expansion leading term did not decrease; order assumption violated"
            )
        previous = lead
        coeff = f.x_coefficient(vec)
        w, g = member(vec, coeff)
        result[w] = result.get(w, Polynomial.zero()) + coeff
        f = f - coeff * g
    return {w: c for w, c in result.items() if c}


def expand_in_schubert_basis(f: Polynomial, family: str) -> dict:
    """Expand f over the chosen family; returns {w: coefficient Polynomial}.

    Repeatedly strips the x-leading term: its exponent vector is the Lehmer
    code of the next basis element, and its full coefficient (a polynomial in
    the non-x variables) is subtracted off with that member.

    >>> from .poly import x
    >>> expansion = expand_in_schubert_basis(x(1) ** 2, "quantum")
    >>> sorted((w, str(c)) for w, c in expansion.items())
    [((), 'q1'), ((3, 1, 2), '1')]
    """
    if family not in FAMILY_KINDS:
        raise ValueError(f"unknown family {family!r}")
    _check_ring(f, family, "input")

    def member(vec, coeff):
        _check_ring(coeff, family, "coefficient")
        w = perm_from_code(vec)
        return w, schubert_polynomial(w, family)

    return _expand_by_leads(f, member)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
