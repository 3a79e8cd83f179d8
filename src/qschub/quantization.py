"""Standard monomial bases e_I / E_I and the stable quantization map.

A standard index is a trimmed tuple I = (i_1, i_2, ...) with 0 <= i_r <= r;
it labels the products e_I = prod_r e_{i_r}(x_1..x_r) and E_I = prod_r E_{i_r}^r,
where E_i^r comes from the characteristic polynomial of the tridiagonal
matrix C_r.  Both families are Z-bases (of Z[x] and of Z[x,q] over Z[q]), and
the quantization map sends e_I to E_I, extended coefficient-wise over the a
and q variables.

Decomposition over {e_I} runs by triangular elimination: candidate indices
are processed from the largest plain leading monomial downward, each new
e_I row is reduced against the rows already placed, and the surviving lead
becomes its pivot.  Rows are built lazily and cached per degree slice.
"""

from __future__ import annotations

from functools import cache

from .poly import SLOTS, Polynomial, elementary_symmetric, x_order_key
from .schubert import quantum_elementary

__all__ = [
    "is_standard",
    "e_level",
    "E_level",
    "e_monomial",
    "E_monomial",
    "standard_indices",
    "standard_decompose",
    "theta",
    "decompose_in_E",
    "e_relation_residual",
    "E_relation_residual",
]


def is_standard(index) -> bool:
    index = tuple(index)
    if index and index[-1] == 0:
        return False
    return all(0 <= entry <= r for r, entry in enumerate(index, start=1))


def _validated(index) -> tuple:
    trimmed = _strip(index)
    if not is_standard(trimmed):
        raise ValueError(f"not a standard index: {tuple(index)}")
    return trimmed


# Unbounded, but small: r <= 16 (the packed layout), and the callers ask for
# i between -1 and r + 1 only.
@cache
def e_level(i: int, r: int) -> Polynomial:
    """e_i(x_1, ..., x_r); zero outside 0 <= i <= r."""
    return elementary_symmetric(i, [("x", t) for t in range(1, r + 1)])


def E_level(i: int, r: int) -> Polynomial:
    """E_i^r, the quantum deformation of e_i(x_1, ..., x_r)."""
    return quantum_elementary(i, r)


def e_monomial(index) -> Polynomial:
    """e_I = prod_r e_{i_r}(x_1..x_r).

    >>> print(e_monomial((0, 2)))
    x1*x2
    """
    total = Polynomial.const(1)
    for r, i in enumerate(_validated(index), start=1):
        if i:
            total = total * e_level(i, r)
    return total


def E_monomial(index) -> Polynomial:
    """E_I = prod_r E_{i_r}^r.

    >>> print(E_monomial((0, 2)))
    x1*x2 + q1
    """
    total = Polynomial.const(1)
    for r, i in enumerate(_validated(index), start=1):
        if i:
            total = total * E_level(i, r)
    return total


def standard_indices(degree: int, max_level: int):
    """All standard indices of weight `degree` supported on levels <= max_level."""
    out = []

    def go(level, remaining, prefix):
        if remaining == 0:
            out.append(tuple(prefix))
            return
        if level > max_level:
            return
        cap = min(level, remaining)
        for i in range(cap + 1):
            prefix.append(i)
            go(level + 1, remaining - i, prefix)
            prefix.pop()

    go(1, degree, [])
    return [_strip(ix) for ix in out]


def _strip(index) -> tuple:
    """Drop trailing empty entries: zeros of a standard index, empty
    partitions of a partition tuple."""
    index = list(index)
    while index and not index[-1]:
        index.pop()
    return tuple(index)


# -- triangular elimination over the e_I table --------------------------------


def _naive_lead_key(index, width: int) -> int:
    # Plain leading monomial of e_I: each nonzero level r contributes ones at
    # the window of the top i_r positions among 1..r.
    vec = [0] * width
    for r, i in enumerate(index, start=1):
        for t in range(r - i, r):
            vec[t] += 1
    return x_order_key(vec)


class EchelonSlice:
    """Echelon rows for one homogeneous slice of a triangular basis table.

    `pending` holds (plain-lead key, label) pairs sorted ascending, the keys
    from `x_order_key`; rows are built on demand from the back (largest lead
    first), each reduced against the rows already placed, so pivots and
    decompositions stay exact.  Monomials are compared as the keys of
    `Polynomial.terms`, whose integer order is the x-leading order.
    """

    def __init__(self, pending: list, row_fn):
        self.pending = pending
        self.row_fn = row_fn
        self.rows: dict = {}  # pivot monomial -> (pivot coeff, row dict, coords)

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
            self._eliminate(work, coords, mono, placed)
        raise RuntimeError(f"basis row {label} reduced to zero; table is dependent")

    @staticmethod
    def _eliminate(work, coords, mono, placed):
        pivot_c, row, row_coords = placed
        c = work[mono]
        if c % pivot_c:
            raise RuntimeError("non-unit pivot in standard-monomial elimination")
        t = c // pivot_c
        for m2, c2 in row.items():
            s = work.get(m2, 0) - t * c2
            if s:
                work[m2] = s
            elif m2 in work:
                del work[m2]
        for ix, ci in row_coords.items():
            s = coords.get(ix, 0) - t * ci
            if s:
                coords[ix] = s
            elif ix in coords:
                del coords[ix]

    def _pivot_for(self, mono):
        while mono not in self.rows:
            if not self.pending or self.pending[-1][0] < mono:
                return None
            self._place_next_row()
        return self.rows[mono]

    def decompose(self, f: Polynomial) -> dict:
        # Eliminating rows from -f drives the work dict to zero while the
        # accumulated coordinates converge to the expansion of +f.
        coords: dict = {}
        work = {m: -c for m, c in f.terms.items()}
        while work:
            mono = max(work)
            placed = self._pivot_for(mono)
            if placed is None:
                raise RuntimeError(
                    "no standard monomial covers the leading term; level bound too small"
                )
            self._eliminate(work, coords, mono, placed)
        return coords


def _check_slice_width(width: int):
    """Reject a slice that needs x variables beyond the packed layout.

    Every slice of positive degree has a row whose lead uses x_width, so this
    fails at once instead of after enumerating the rows.
    """
    if width > SLOTS:
        raise ValueError(
            f"this decomposition needs x1..x{width}, beyond the packed layout "
            f"(x{SLOTS})"
        )


# Unbounded, but held on purpose: a slice keeps the rows it has built for the
# next decomposition of its degree.  _check_slice_width caps max_level, hence
# the degree, at 16, so there are at most 136 slices.
@cache
def _slice(degree: int, max_level: int) -> EchelonSlice:
    _check_slice_width(max_level)
    pending = sorted(
        (_naive_lead_key(index, max_level), index)
        for index in standard_indices(degree, max_level)
    )
    return EchelonSlice(pending, e_monomial)


def standard_decompose(f: Polynomial) -> dict:
    """Write a polynomial in x alone as an integer combination of the e_I.

    Returns {standard index: coefficient}.  A polynomial of degree d in
    x_1..x_m only needs levels up to m + d.

    >>> from .poly import variable
    >>> x1 = variable("x", 1)
    >>> sorted(standard_decompose(x1 * x1).items())
    [((0, 2), -1), ((1, 1), 1)]
    """
    if f.max_index("a") or f.max_index("q"):
        raise ValueError("standard_decompose expects a polynomial in x alone")
    out: dict = {}
    width = f.max_index("x")
    for d, part in f.homogeneous_parts().items():
        if d == 0:
            out[()] = out.get((), 0) + part.constant_value()
            continue
        coords = _slice(d, width + d).decompose(part)
        for ix, c in coords.items():
            out[ix] = out.get(ix, 0) + c
    return {ix: c for ix, c in out.items() if c}


def theta(f: Polynomial) -> Polynomial:
    """The quantization map: e_I -> E_I on the x part, Z[a, q]-linearly.

    >>> from .poly import variable
    >>> x1 = variable("x", 1)
    >>> print(theta(x1 * x1))
    x1^2 - q1
    """
    total = Polynomial.zero()
    for aq_mono, x_part in f.split("aq").items():
        carrier = Polynomial({aq_mono: 1})
        for ix, c in standard_decompose(x_part).items():
            total = total + carrier * (E_monomial(ix) * c)
    return total


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
        coords = standard_decompose(strata[lowest])
        carrier = Polynomial({lowest: 1})
        for ix, c in coords.items():
            out[ix] = out.get(ix, Polynomial.zero()) + carrier * c
            rest = rest - carrier * (E_monomial(ix) * c)
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
    from .poly import variable

    lhs = E_level(i, p) * E_level(j, p)
    rhs = (
        E_level(i - 1, p) * E_level(j + 1, p)
        + E_level(j, p) * E_level(i, p + 1)
        - E_level(i - 1, p) * E_level(j + 1, p + 1)
    )
    if p >= 1:
        rhs = rhs + variable("q", p) * (
            E_level(j - 1, p - 1) * E_level(i - 1, p)
            - E_level(i - 2, p - 1) * E_level(j, p)
        )
    return lhs - rhs

