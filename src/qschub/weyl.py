"""Permutation and root combinatorics for the symmetric groups S_n inside S_oo.

A permutation is a trimmed one-line tuple: trailing fixed points are removed,
so every element of S_oo = union of the S_n has exactly one representative
and the identity is the empty tuple.  Products compose as functions,
(u*v)(i) = u(v(i)).

>>> compose(simple(2), simple(1))
(3, 1, 2)
>>> length((3, 1, 2))
2
>>> code((3, 1, 2))
(2,)
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from functools import lru_cache

from .poly import Polynomial

__all__ = [
    "Permutation",
    "Root",
    "ParabolicContext",
    "perm",
    "identity",
    "apply_to",
    "extend",
    "compose",
    "inverse",
    "length",
    "code",
    "perm_from_code",
    "simple",
    "longest_element",
    "reduced_word",
    "first_left_descent",
    "perm_from_word",
    "reflect",
    "weak_order_ideal",
    "all_perms",
    "cycle",
    "eta_p",
    "parse_permutation",
    "format_permutation",
]

Permutation = tuple[int, ...]
Root = tuple[int, int]

identity: Permutation = ()


def trim(seq) -> Permutation:
    """Drop trailing fixed points to reach the canonical form."""
    w = tuple(seq)
    n = len(w)
    while n and w[n - 1] == n:
        n -= 1
    return w[:n]


def perm(seq) -> Permutation:
    """Validate a one-line sequence and return its canonical trimmed form.

    >>> perm([1, 2, 3])
    ()
    >>> perm([2, 1, 3])
    (2, 1)
    """
    w = tuple(seq)
    if sorted(w) != list(range(1, len(w) + 1)):
        raise ValueError(f"not a permutation of 1..{len(w)}: {list(w)}")
    return trim(w)


def apply_to(w: Permutation, i: int) -> int:
    """w(i), with every index beyond the support fixed."""
    return w[i - 1] if i <= len(w) else i


def extend(w: Permutation, n: int) -> tuple:
    """One-line form of length at least n, padding with fixed points."""
    return w + tuple(range(len(w) + 1, n + 1))


def compose(u: Permutation, v: Permutation) -> Permutation:
    """(u comp v)(i) = u(v(i)).

    Past the end of v, v(i) = i and the values are u's own."""
    m = len(u)
    return trim([u[j - 1] if j <= m else j for j in v] + list(u[len(v) :]))


def inverse(w: Permutation) -> Permutation:
    out = [0] * len(w)
    for i, wi in enumerate(w, start=1):
        out[wi - 1] = i
    return tuple(out)


def length(w: Permutation) -> int:
    """Coxeter length = inversion count.

    >>> length((3, 2, 1))
    3
    """
    return sum(1 for i in range(len(w)) for j in range(i + 1, len(w)) if w[i] > w[j])


def code(w: Permutation) -> tuple:
    """Lehmer code c_i = #{j > i : w(j) < w(i)}, trailing zeros trimmed.

    >>> code((1, 3, 2))
    (0, 1)
    """
    c = [sum(1 for j in range(i + 1, len(w)) if w[j] < w[i]) for i in range(len(w))]
    while c and c[-1] == 0:
        c.pop()
    return tuple(c)


def perm_from_code(c) -> Permutation:
    """The unique w with code(w) = c.

    >>> perm_from_code((2,))
    (3, 1, 2)
    >>> code(perm_from_code((0, 3, 1)))
    (0, 3, 1)
    """
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    if any(ci < 0 for ci in c):
        raise ValueError("code entries must be nonnegative")
    if not c:
        return identity
    pool = list(range(1, len(c) + max(c) + 1))
    out = []
    for ci in c:
        out.append(pool.pop(ci))
    return trim(out + pool)


def simple(i: int) -> Permutation:
    """The simple transposition s_i."""
    if i < 1:
        raise ValueError("simple reflection index must be >= 1")
    return tuple(range(1, i)) + (i + 1, i)


def longest_element(n: int) -> Permutation:
    """w_0 of S_n, the order-reversing permutation."""
    return trim(range(n, 0, -1))


def reduced_word(w: Permutation) -> tuple:
    """Lexicographically smallest reduced word; multiplies back to w.

    >>> reduced_word((3, 1, 2))
    (2, 1)
    """
    word = []
    w = trim(w)
    while w:
        i = first_left_descent(w)
        word.append(i)
        w = compose(simple(i), w)
    return tuple(word)


def first_left_descent(w: Permutation) -> int:
    """The least i with l(s_i w) < l(w), i.e. i+1 to the left of i in the
    one-line form of a nonidentity trimmed w; the first letter of
    `reduced_word(w)`.

    >>> first_left_descent((3, 1, 2))
    2
    """
    where = inverse(w)
    return next(i for i in range(1, len(w)) if where[i - 1] > where[i])


def perm_from_word(word) -> Permutation:
    out = identity
    for i in word:
        out = compose(out, simple(i))
    return out


def reflect(w: Permutation, alpha: Root) -> Permutation:
    """w*s_alpha for alpha = alpha_{rs}; swaps the values at positions r, s."""
    r, s = alpha
    if not 1 <= r < s:
        raise ValueError(f"not a positive root: {alpha}")
    line = list(extend(w, s))
    line[r - 1], line[s - 1] = line[s - 1], line[r - 1]
    return trim(line)


# The program reads `_weak_order_ideal`; perfbench counts calls of this
# public form (`weyl.weak_order_ideal_calls`).
def weak_order_ideal(w) -> list:
    """All v with v left-weak-below w (l(w v^-1) + l(v) = l(w)), sorted by
    (length, one-line form).  w may be any one-line sequence; the list
    returned is the caller's own.

    >>> weak_order_ideal((3, 1, 2))
    [(), (2, 1), (3, 1, 2)]
    """
    return list(_weak_order_ideal(trim(w)))


# Bounded like the member caches: one tuple per trimmed w asked for.  The
# bijection checks of S_5 and every composition of 5 read 120 of them, the
# targets pi_P(w s_alpha) among them, and `_ideal_cosets` reads the same.
@lru_cache(maxsize=2048)
def _weak_order_ideal(w: Permutation) -> tuple:
    """The ideal of a trimmed w, as a tuple since the cache shares it.

    The walk is complete: v <=_L w means w = u v with lengths adding, and
    peeling a reduced word of u off the left of w one letter at a time
    removes one left descent per step, so every v is reached.  A left
    descent of u is an i with i+1 to the left of i, and s_i u swaps those
    two values; each step drops the length by one, so no length is computed.
    """
    level = {w}
    levels = []
    while level:
        levels.append(sorted(level))
        below = set()
        for u in level:
            where = inverse(u)
            for i in range(1, len(u)):
                left, right = where[i], where[i - 1]  # positions of i+1 and i
                if left < right:
                    line = list(u)
                    line[left - 1], line[right - 1] = i, i + 1
                    below.add(trim(line))
        level = below
    return tuple(v for same_length in reversed(levels) for v in same_length)


# Bounded like the ideals: the Cauchy sums of S_5 and of every composition
# of 5 ask for 120 entries, one per w, against 781 sums.
@lru_cache(maxsize=2048)
def _ideal_cosets(w: Permutation) -> tuple:
    """((v, v w^{-1}), ...) over the ideal of a trimmed w, in its order."""
    w_inverse = inverse(w)
    return tuple((v, compose(v, w_inverse)) for v in _weak_order_ideal(w))


def all_perms(n: int) -> list:
    """Canonical (trimmed) forms of every element of S_n."""
    return [trim(p) for p in itertools.permutations(range(1, n + 1))]


def cycle(i: int, p: int) -> Permutation:
    """The cycle c_{i,p} = s_{p+1-i} ... s_{p-1} s_p, with 1 <= i <= p."""
    if not 1 <= i <= p:
        raise ValueError(f"cycle needs 1 <= i <= p, got i={i}, p={p}")
    return perm_from_word(range(p + 1 - i, p + 1))


# -- parabolic contexts -------------------------------------------------------


@dataclass(frozen=True)
class ParabolicContext:
    """Block data for a composition (n_1, ..., n_k) of n, followed by
    singleton blocks forever.

    Positions 1..n are split into consecutive blocks of sizes n_j; W_P is
    generated by the simple reflections inside blocks, and the Dynkin nodes
    {N_1, ..., N_{k-1}} at the block boundaries index the q variables.
    Every position past n is a block of its own, so a permutation of any
    length has a coset: `min_rep`, `is_min_rep` and `eta_p` read it in S_oo,
    which is the reading under which members are stable.  `nodes`,
    `blocks`, `minimal_reps` and the grading describe the finite part in
    S_n, and `check_rep` admits only W^P inside S_n.

    >>> ctx = ParabolicContext((2, 1, 3))
    >>> ctx.n, ctx.partial_sums, sorted(ctx.nodes)
    (6, (2, 3, 6), [2, 3])
    >>> ctx.q_degree(1)
    3
    """

    composition: tuple
    partial_sums: tuple = field(init=False, repr=False)
    # The blocks of size > 1 as 0-based slices of a one-line form, the only
    # ones `min_rep` sorts; derived from the composition, so left out of
    # repr, equality and hashing.
    _slices: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        comp = tuple(int(b) for b in self.composition)
        if not comp or any(b < 1 for b in comp):
            raise ValueError(f"composition must be nonempty positive: {comp}")
        object.__setattr__(self, "composition", comp)
        object.__setattr__(self, "partial_sums", tuple(itertools.accumulate(comp)))
        slices = tuple(slice(lo - 1, hi) for lo, hi in self.blocks() if hi > lo)
        object.__setattr__(self, "_slices", slices)

    @property
    def n(self) -> int:
        return self.partial_sums[-1]

    @property
    def k(self) -> int:
        return len(self.composition)

    @property
    def nodes(self) -> tuple:
        """Dynkin nodes N_1, ..., N_{k-1} indexing the q variables."""
        return self.partial_sums[:-1]

    def q_degree(self, j: int) -> int:
        """Grading deg q_j = n_j + n_{j+1}."""
        if not 1 <= j <= self.k - 1:
            raise ValueError(f"q index out of range: {j}")
        return self.composition[j - 1] + self.composition[j]

    def blocks(self) -> list:
        """Position ranges [(lo, hi), ...] of the blocks, inclusive."""
        starts = (0,) + self.partial_sums[:-1]
        return [(lo + 1, hi) for lo, hi in zip(starts, self.partial_sums)]

    def wp_generators(self) -> list:
        """Simple reflection indices generating W_P."""
        return [i for i in range(1, self.n) if i not in set(self.nodes)]

    def min_rep(self, w: Permutation) -> Permutation:
        """pi_P(w) = w^P: sort w's values ascending within each position
        block; the singleton blocks sort nothing."""
        if not self._slices:
            return trim(w)
        line = list(w)
        line.extend(range(len(line) + 1, self.n + 1))
        for block in self._slices:
            line[block] = sorted(line[block])
        return trim(line)

    def is_min_rep(self, w: Permutation) -> bool:
        return self.min_rep(w) == trim(w)

    def check_rep(self, w) -> Permutation:
        """trim(w) if it lies in W^P inside S_n; else ValueError.  The entry
        check of the functions that take a basis element of the finite ring."""
        w = trim(w)
        if len(w) > self.n:
            raise ValueError(f"permutation {list(w)} has support beyond n={self.n}")
        if not self.is_min_rep(w):
            raise ValueError(f"{list(extend(w, self.n))} is not minimal in its coset")
        return w

    def minimal_reps(self) -> list:
        """All of W^P = W^P intersected with S_n, sorted by (length, one-line)."""
        reps = []
        values = list(range(1, self.n + 1))
        for split in _block_splits(values, list(self.composition)):
            reps.append(trim([v for blk in split for v in blk]))
        reps.sort(key=lambda w: (length(w), w))
        return reps

    def w0_p(self) -> Permutation:
        """Minimal coset representative of the longest element of S_n."""
        return self.min_rep(longest_element(self.n))


def _block_splits(values, sizes):
    if not sizes:
        yield []
        return
    head = sizes[0]
    for combo in itertools.combinations(values, head):
        rest = [v for v in values if v not in combo]
        for tail in _block_splits(rest, sizes[1:]):
            yield [sorted(combo)] + tail


def eta_p(alpha: Root, ctx: ParabolicContext) -> Polynomial:
    """q_{eta_P(alpha^vee)} = prod of q_i over the nodes N_i in [r, s).

    Past n the singleton blocks continue the nodes as n, n+1, ... with q
    indices k, k+1, ....
    """
    r, s = alpha
    nodes = enumerate(ctx.nodes + tuple(range(ctx.n, s)), start=1)
    mono = tuple((("q", i), 1) for i, node in nodes if r <= node < s)
    return Polynomial.from_terms([(mono, 1)])


# -- text forms ---------------------------------------------------------------


def format_permutation(w: Permutation) -> str:
    return "[" + ",".join(str(v) for v in w) + "]"


def parse_permutation(text: str) -> Permutation:
    body = text.strip()
    if not (body.startswith("[") and body.endswith("]")):
        raise ValueError(f"permutation must look like [3,1,2], got {text!r}")
    inner = body[1:-1].strip()
    if not inner:
        return identity
    try:
        values = [int(piece) for piece in inner.split(",")]
    except ValueError:
        raise ValueError(f"bad one-line notation: {text!r}") from None
    return perm(values)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
