"""The block bases g_lam / G_lam and the quantization maps theta and theta_P.

A composition (n_1, ..., n_k) with partial sums N_j labels its basis by
partition tuples lam = (lam^(1), lam^(2), ...) with lam^(j) inside the
n_{j+1} x N_j box: g_lam = prod_j prod_i e_{lam^(j)_i}(x_1..x_{N_j}), and
G_lam replaces each factor by G^j_{lam^(j)_i}, a coefficient of
det(D_j - t*Id).  The quantization map sends g_lam to G_lam, extended over
the a and q variables: one loop, `_quantize`, serves the full flag (`theta`)
and the parabolic case (`parabolic.theta_P`).

On the composition (1, ..., 1) every box is 1 x r, so level r holds (i_r),
or () when i_r = 0.  The standard index I = (i_1, i_2, ...), 0 <= i_r <= r,
then labels e_I = prod_r e_{i_r}(x_1..x_r) and E_I = prod_r E_{i_r}^r, the
quantum elementary monomials of Fomin-Gelfand-Postnikov.

The level bound is the staircase.  For f in x alone let n(f) be the largest
i + b_i over the monomials x^b of f and their exponents b_i > 0, or 1 when
no x appears (`Polynomial.staircase`); f lies in H_n = span{x^b : b_i <=
n - i} for n = n(f).  On a composition of n, a factor e_p(x_1..x_{N_j}) of
g_lam can hold x_i only if N_j >= i, and with levels j <= k - 1 at most
n - i factors do, so these g_lam lie in H_n too.  H_n maps isomorphically
onto the coinvariant ring Z[x_1..x_n]/(e_1, ..., e_n) (Artin's basis), and
the e_I with r <= n - 1 map onto a Z-basis of it (Lascoux-Schutzenberger;
Fomin-Gelfand-Postnikov, JAMS 1997, section 3), so they are a Z-basis of
H_n.  Hence `theta` decomposes each x part on the composition (1, ..., 1)
of length n(f), with levels up to k - 1 and no further block.  `theta_P`
pads its composition with singleton blocks up to max(n, n(f)) and uses
levels up to k - 1 as well: there the g_lam are W_P-invariant, lie in H_n
and map onto a basis of the W_P-invariant coinvariants over Q, so they span
the W_P-invariants of H_n over Q.  That they span them over Z is checked,
not proven: theta_P returns every parabolic member from its q = 0 part for
every minimal representative of every composition of n <= 6 (n <= 5 in the
tests).  A bound that is too small can only raise "level bound
too small", never return a wrong answer: a decomposition that completes is
exact.

Decomposition over {g_lam} runs by integer triangular elimination (see
`EchelonSlice`): candidate tuples are processed from the largest plain
leading monomial downward, each new row is reduced against the rows already
placed, and the surviving lead becomes its pivot.  Rows are built lazily and
cached per (composition, degree) slice.

The loop works per basis element, not per term: `_quantize` gathers the
coordinates of all the x parts into one a/q coefficient per G_lam and makes
one `sum_of_products` call, each G_lam built once in a bounded cache.  On
the full flag a slice decomposes each x-monomial once and keeps its
coordinates; `_invariant_decompose` says why a parabolic slice cannot.
"""

from __future__ import annotations

from functools import cache, lru_cache

from .poly import (
    SLOTS,
    Polynomial,
    _poly,
    elementary_symmetric,
    q,
    sum_of_products,
    x_order_key,
)
from .schubert import _d_char_coeffs, quantum_elementary
from .weyl import ParabolicContext

__all__ = [
    "e_level",
    "e_monomial",
    "E_monomial",
    "G_polynomial",
    "partition_tuples",
    "g_tuple",
    "G_tuple",
    "standard_decompose",
    "theta",
    "decompose_in_E",
    "e_relation_residual",
    "E_relation_residual",
]


# Unbounded, but small: r <= 16 (the packed layout), and the callers ask for
# i between -1 and r + 1 only.
@cache
def e_level(i: int, r: int) -> Polynomial:
    """e_i(x_1, ..., x_r); zero outside 0 <= i <= r."""
    return elementary_symmetric(i, [("x", t) for t in range(1, r + 1)])


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


def _strip(index) -> tuple:
    """Drop trailing empty entries: zeros of a standard index, empty
    partitions of a partition tuple."""
    index = list(index)
    while index and not index[-1]:
        index.pop()
    return tuple(index)


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


def _validated_index(index) -> tuple:
    """The partition tuple of a standard index under (1, ..., 1)."""
    trimmed = _strip(index)
    if not all(0 <= i <= r for r, i in enumerate(trimmed, start=1)):
        raise ValueError(f"not a standard index: {tuple(index)}")
    return tuple((i,) if i else () for i in trimmed)


def _g_factor(part: int, blocks: tuple) -> Polynomial:
    return e_level(part, sum(blocks))


def _G_factor(part: int, blocks: tuple) -> Polynomial:
    return _d_char_coeffs(blocks)[part]


def _product(composition: tuple, tup, factor) -> Polynomial:
    """prod_j prod_i factor(lam^(j)_i, first j blocks) over a partition tuple
    that fits `composition` extended by singleton blocks."""
    blocks = composition + (1,) * len(tup)
    total = Polynomial.const(1)
    for j, lam in enumerate(tup, start=1):
        for part in lam:
            total = total * factor(part, blocks[:j])
    return total


def g_tuple(ctx: ParabolicContext, tup) -> Polynomial:
    """g_lam = prod_j prod_i e_{lam^(j)_i}(x_1, ..., x_{N_j})."""
    return _product(ctx.composition, _validated_tuple(ctx, tup), _g_factor)


def G_tuple(ctx: ParabolicContext, tup) -> Polynomial:
    """G_lam, the same product with each factor quantized to G_{part}^j."""
    tup = _validated_tuple(ctx, tup)
    return _G_lam(ctx.composition[: len(tup)], tup)


# G_lam over the first len(tup) blocks of a composition, the only blocks the
# product reads, so every composition with those blocks shares the entry.
@lru_cache(maxsize=2048)
def _G_lam(blocks: tuple, tup: tuple) -> Polynomial:
    return _product(blocks, tup, _G_factor)


def e_monomial(index) -> Polynomial:
    """e_I = prod_r e_{i_r}(x_1..x_r), the g_lam of (1, ..., 1).

    >>> print(e_monomial((0, 2)))
    x1*x2
    """
    return _product((), _validated_index(index), _g_factor)


def E_monomial(index) -> Polynomial:
    """E_I = prod_r E_{i_r}^r, the G_lam of (1, ..., 1).

    >>> print(E_monomial((0, 2)))
    x1*x2 + q1
    """
    tup = _validated_index(index)
    return _G_lam((1,) * len(tup), tup)


# -- triangular elimination over the g_lam table --------------------------------


def _tuple_lead_key(ctx: ParabolicContext, tup) -> int:
    # Plain leading monomial of g_lam: each part p at level j contributes ones
    # at the window of the top p positions among 1..N_j.
    vec = [0] * ctx.n
    for j, lam in enumerate(tup, start=1):
        nj = ctx.partial_sums[j - 1]
        for part in lam:
            for t in range(nj - part, nj):
                vec[t] += 1
    return x_order_key(vec)


def _xgcd(a: int, b: int) -> tuple:
    """(g, u, v) with g = gcd(a, b) = u*a + v*b and g > 0; a, b not both 0."""
    u0, v0, u1, v1 = 1, 0, 0, 1
    while b:
        t, r = divmod(a, b)
        a, b = b, r
        u0, u1 = u1, u0 - t * u1
        v0, v1 = v1, v0 - t * v1
    return (a, u0, v0) if a > 0 else (-a, -u0, -v0)


def _add_multiple(target: dict, t: int, source: dict):
    """target += t*source for sparse {key: int} dicts, zeros dropped."""
    for k, c in source.items():
        v = target.get(k, 0) + t * c
        if v:
            target[k] = v
        elif k in target:
            del target[k]


def _combine(s: int, left: dict, t: int, right: dict) -> dict:
    """s*left + t*right for sparse {key: int} dicts."""
    out: dict = {}
    _add_multiple(out, s, left)
    _add_multiple(out, t, right)
    return out


class EchelonSlice:
    """Integer echelon rows for one homogeneous slice of a triangular basis
    table.

    `pending` holds (plain-lead key, label) pairs sorted ascending, the keys
    from `x_order_key`; rows are built on demand from the back (largest lead
    first), each reduced against the rows already placed, and the surviving
    lead becomes its pivot.  When a row's lead coefficient is not a multiple
    of the pivot already there, a Hermite step (Cohen, A Course in
    Computational Algebraic Number Theory, 2.4) replaces the pivot row by the
    extended-gcd combination of the two rows and reduces the leftover on, so
    the placed rows always span the same lattice as the rows built and
    decompositions stay exact over Z.  Monomials are compared as the keys of
    `Polynomial.terms`, whose integer order is the x-leading order.
    """

    def __init__(self, pending: list, row_fn):
        self.pending = pending
        self.row_fn = row_fn
        self.rows: dict = {}  # pivot monomial -> (pivot coeff, row dict, coords)
        self.monomials: dict = {}  # monomial -> coords, see decompose_monomial

    def _place_next_row(self):
        _, label = self.pending.pop()
        work = dict(self.row_fn(label).terms)
        coords = {label: 1}
        while work:
            mono = max(work)
            placed = self.rows.get(mono)
            if placed is None:
                self.rows[mono] = (work[mono], work, coords)
                return
            pivot_c, row, row_coords = placed
            c = work[mono]
            if c % pivot_c == 0:
                self._eliminate(work, coords, mono, placed)
                continue
            # (row, work) -> (u*row + v*work, s*row + t*work) is unimodular;
            # the first has lead gcd(pivot_c, c), the second none at mono.
            g, u, v = _xgcd(pivot_c, c)
            s, t = -c // g, pivot_c // g
            self.rows[mono] = (
                g, _combine(u, row, v, work), _combine(u, row_coords, v, coords)
            )
            work, coords = _combine(s, row, t, work), _combine(s, row_coords, t, coords)
        raise RuntimeError(f"basis row {label} reduced to zero; table is dependent")

    @staticmethod
    def _eliminate(work, coords, mono, placed):
        # Subtract the multiple of the placed row that clears work at mono;
        # the caller has checked that its coefficient divides.
        pivot_c, row, row_coords = placed
        t = work[mono] // pivot_c
        _add_multiple(work, -t, row)
        _add_multiple(coords, -t, row_coords)

    def _pivot_for(self, mono):
        # A row reduces to a lead at or below its plain lead, so every pending
        # row whose plain lead is >= mono may still refine the pivot at mono;
        # once they are placed that pivot is final, and None means no row of
        # the slice leads at mono.
        while self.pending and self.pending[-1][0] >= mono:
            self._place_next_row()
        return self.rows.get(mono)

    def decompose(self, f: Polynomial) -> dict:
        # Eliminating rows from -f drives the work dict to zero while the
        # accumulated coordinates converge to the expansion of +f.
        coords: dict = {}
        work = {m: -c for m, c in f.terms.items()}
        while work:
            mono = max(work)
            placed = self._pivot_for(mono)
            if placed is None or work[mono] % placed[0]:
                raise RuntimeError(
                    "the slice's rows do not cover the leading term over Z; "
                    "level bound too small"
                )
            self._eliminate(work, coords, mono, placed)
        return coords

    def decompose_monomial(self, mono: int) -> dict:
        """The coordinates of one monomial, a key of `Polynomial.terms`,
        computed once; only for a slice that spans every monomial."""
        coords = self.monomials.get(mono)
        if coords is None:
            coords = self.monomials[mono] = self.decompose(_poly({mono: 1}))
        return coords


# The one slice cache, unbounded but held on purpose: a slice keeps the rows
# it has built, and on the full flag the coordinates of each monomial it has
# decomposed, for the next decomposition of its (composition, degree).  A
# composition past the packed layout is refused, so it sums to n <= 16, and a
# full-flag slice, shared by `theta` and `theta_P` on (1, ..., 1), has degree
# d <= n(n - 1)/2, the top degree of H_n: at most C(17, 3) = 680 of them.
# The others are bounded by the compositions theta_P is asked about.
@cache
def _g_slice(composition: tuple, degree: int) -> EchelonSlice:
    ctx = ParabolicContext(composition)
    if ctx.n > SLOTS:
        raise ValueError(
            f"this decomposition needs the staircase of x1..x{ctx.n}, beyond the "
            f"packed layout (x{SLOTS})"
        )
    pending = sorted(
        (_tuple_lead_key(ctx, tup), tup)
        for tup in partition_tuples(ctx, degree, ctx.k - 1)
    )
    return EchelonSlice(pending, lambda tup: _product(composition, tup, _g_factor))


def _invariant_decompose(composition: tuple, f: Polynomial) -> dict:
    """{partition tuple: coefficient} of f, in x alone, over the g_lam.

    On the full flag (1, ..., 1) the g_lam are the e_I, a Z-basis of all of
    H_n, so each x-monomial of f has coordinates of its own: the slice
    decomposes it once and keeps them, and f's coordinates are their linear
    combination.  On a coarser composition the g_lam span only the
    W_P-invariants of H_n, and a single monomial is in general not one, so
    each homogeneous part of f is decomposed whole.
    """
    full_flag = composition.count(1) == len(composition)
    out: dict = {}
    for d, part in f.homogeneous_parts().items():
        if d == 0:
            out[()] = part.constant_value()
        elif full_flag:
            piece = _g_slice(composition, d)
            for mono, c in part.terms.items():
                _add_multiple(out, c, piece.decompose_monomial(mono))
        else:
            out.update(_g_slice(composition, d).decompose(part))
    return out


def _padded(composition: tuple, f: Polynomial) -> tuple:
    """`composition` with singleton blocks appended up to f's staircase."""
    return composition + (1,) * max(0, f.staircase() - sum(composition))


def _quantize(f: Polynomial, composition: tuple) -> Polynomial:
    """g_lam -> G_lam, Z[a, q]-linearly.

    Each a/q monomial's x part is decomposed over the g_lam of `composition`
    padded to that part's staircase, and the coordinates are gathered per
    tuple into one a/q coefficient, so each G_lam is multiplied once.
    Padding only appends singleton blocks, so all x parts agree on the
    blocks a G_lam reads.
    """
    coefficients: dict = {}  # tup -> {a/q monomial: coefficient}
    for aq_mono, x_part in f.split("aq").items():
        (aq_key,) = Polynomial({aq_mono: 1}).terms
        padded = _padded(composition, x_part)
        for tup, c in _invariant_decompose(padded, x_part).items():
            coefficients.setdefault(tup, {})[aq_key] = c
    blocks = composition + (1,) * max(map(len, coefficients), default=0)
    return sum_of_products(
        (_G_lam(blocks[: len(tup)], tup), _poly(c)) for tup, c in coefficients.items()
    )


def standard_decompose(f: Polynomial) -> dict:
    """Write a polynomial in x alone as an integer combination of the e_I.

    Returns {standard index: coefficient}.  Only levels below the staircase
    of f (`Polynomial.staircase`) are needed.

    >>> from .poly import variable
    >>> x1 = variable("x", 1)
    >>> sorted(standard_decompose(x1 * x1).items())
    [((0, 2), -1), ((1, 1), 1)]
    """
    if f.max_index("a") or f.max_index("q"):
        raise ValueError("standard_decompose expects a polynomial in x alone")
    coords = _invariant_decompose(_padded((), f), f)
    return {tuple(lam[0] if lam else 0 for lam in tup): c for tup, c in coords.items()}


def theta(f: Polynomial) -> Polynomial:
    """The quantization map: e_I -> E_I on the x part, Z[a, q]-linearly.

    Each x part is quantized on the (1, ..., 1) composition of its own
    staircase; a longer one gives the same answer, since the decomposition
    is unique, but builds far more rows.

    >>> from .poly import variable
    >>> x1 = variable("x", 1)
    >>> print(theta(x1 * x1))
    x1^2 - q1
    """
    return _quantize(f, ())


def decompose_in_E(f: Polynomial) -> dict:
    """Write a polynomial in x, q as a Z[q]-combination of the E_I.

    Returns {standard index: Polynomial in q}.  Inverts theta on its image:
    the q-free part of f determines the constant coefficients, and peeling
    E_I multiples raises the minimum q-degree of the remainder each round.
    """
    if f.max_index("a"):
        raise ValueError("decompose_in_E expects a polynomial in x and q alone")
    out: dict = {}
    rest = f
    # Each E_I - e_I is divisible by some q, so a round cancels the lowest
    # q-monomial exactly and adds only q-monomials of higher degree; none of
    # those can bring a processed one back, and the q-degree is bounded by
    # the graded degree of f, so the loop ends.
    strata = rest.split("q")
    while strata:
        lowest = min(strata, key=lambda m: Polynomial({m: 1}).total_degree())
        terms = {
            ix: Polynomial({lowest: c})
            for ix, c in standard_decompose(strata[lowest]).items()
        }
        for ix, term in terms.items():
            out[ix] = out.get(ix, Polynomial.zero()) + term
        rest = rest - sum_of_products((E_monomial(ix), t) for ix, t in terms.items())
        strata = rest.split("q")
        if lowest in strata:
            raise RuntimeError(
                "decompose_in_E made no progress: the lowest q-monomial "
                "survived its round"
            )
    return {ix: c for ix, c in out.items() if c}


def e_relation_residual(i: int, j: int, p: int) -> Polynomial:
    """LHS - RHS of the classical straightening relation

        e_i^p e_j^p = e_{i-1}^p e_{j+1}^p + e_j^p e_i^{p+1} - e_{i-1}^p e_{j+1}^{p+1}

    with e_k^r = e_k(x_1..x_r) and out-of-range factors equal to zero.
    """
    lhs = e_level(i, p) * e_level(j, p)
    rhs = (
        e_level(i - 1, p) * e_level(j + 1, p)
        + e_level(j, p) * e_level(i, p + 1)
        - e_level(i - 1, p) * e_level(j + 1, p + 1)
    )
    return lhs - rhs


def E_relation_residual(i: int, j: int, p: int) -> Polynomial:
    """LHS - RHS of the quantum straightening relation: the classical shape
    plus the correction q_p * (E_{j-1}^{p-1} E_{i-1}^p - E_{i-2}^{p-1} E_j^p)."""
    E = quantum_elementary
    lhs = E(i, p) * E(j, p)
    rhs = (
        E(i - 1, p) * E(j + 1, p)
        + E(j, p) * E(i, p + 1)
        - E(i - 1, p) * E(j + 1, p + 1)
    )
    if p >= 1:
        rhs = rhs + q(p) * (
            E(j - 1, p - 1) * E(i - 1, p) - E(i - 2, p - 1) * E(j, p)
        )
    return lhs - rhs
