"""Exact sparse polynomials over the indexed variable families x, a, q.

Everything in this package lives in the ring Z[x1,x2,...; a1,a2,...;
q1,q2,...].  Coefficients are Python ints, so arithmetic is exact at every
step; no floats appear anywhere.  A polynomial is a dict from monomials to
nonzero integer coefficients, and polynomial values are treated as immutable
once constructed.

Packed monomials.  Inside `Polynomial.terms` a monomial is one Python int
made of 8-bit fields, each a 7-bit exponent topped by a guard bit.  From the
most significant field down the layout is

    deg_x | x16 ... x1 | q16 ... q1 | a16 ... a1

where deg_x is the total x-degree.  Comparing two such ints therefore
compares the monomials in the x-leading order (x-degree first, then the x
exponents from the largest index down), so a leading term is a plain `max`.
Multiplying monomials is adding their ints: an exponent sum above 127 sets
a guard bit and never reaches a neighbouring field, and the product raises
ValueError when it sees one.  Divided differences and substitutions edit
fields with shifts and masks.

The layout bounds what can be written down: indices 1..16 in every family,
and exponents (and x-degrees) up to 127.  `Polynomial.var`,
`Polynomial.from_terms`, the constructor, `parse_polynomial` and
`polynomial_from_json` raise ValueError for anything beyond that, before any
computation starts.  Only this module knows the packed form; everywhere else
a monomial is a tuple of ((family, index), exponent) pairs, as accepted by
the constructor, `from_terms` and `coefficient` and returned by `split`.

>>> f = (x(1) - a(1)) * (x(1) - a(2)) - q(1)
>>> print(f)
x1^2 - x1*a1 - x1*a2 + a1*a2 - q1
>>> parse_polynomial(str(f)) == f
True
"""

from __future__ import annotations

import itertools
import json
import re
from functools import reduce
from operator import or_

__all__ = [
    "Polynomial",
    "Variable",
    "Monomial",
    "x",
    "a",
    "q",
    "variable",
    "elementary_symmetric",
    "graded_degree",
    "parse_polynomial",
    "format_polynomial",
    "polynomial_to_json",
    "polynomial_from_json",
    "x_order_key",
    "sum_of_products",
    "MAX_EXPONENT",
    "SLOTS",
]

FAMILIES = ("x", "a", "q")

# A variable is a (family, index) pair with family in FAMILIES and index >= 1.
Variable = tuple[str, int]
Monomial = tuple[tuple[Variable, int], ...]

# -- the packed layout ---------------------------------------------------------

EXP_BITS = 7
MAX_EXPONENT = (1 << EXP_BITS) - 1
SLOTS = 16  # largest index in every family

_W = EXP_BITS + 1  # field width: exponent bits plus the guard bit
_EXP = MAX_EXPONENT  # mask of one exponent, shifted down to bit 0
# First field of each family block, lowest first; the x-degree field tops it.
_FIRST = {"a": 0, "q": SLOTS, "x": 2 * SLOTS}
_DEG_SHIFT = 3 * SLOTS * _W
_GUARD = sum(1 << (f * _W + EXP_BITS) for f in range(3 * SLOTS + 1))


def _shift(family: str, index: int) -> int:
    return (_FIRST[family] + index - 1) * _W


# The exponent bits of each family's variables.
_BLOCK_MASK = {
    fam: sum(_EXP << _shift(fam, t) for t in range(1, SLOTS + 1)) for fam in FAMILIES
}


# The key added per unit exponent of each variable; an x unit also bumps the
# x-degree field, so int addition keeps that field right.
_UNITS = {
    (fam, t): (1 << _shift(fam, t)) + ((1 << _DEG_SHIFT) if fam == "x" else 0)
    for fam in FAMILIES
    for t in range(1, SLOTS + 1)
}
_VARIABLE_AT = {_shift(fam, t) // _W: (fam, t) for fam, t in _UNITS}
_UNIT_SHIFT = {unit: _shift(*v) for v, unit in _UNITS.items()}
# Whole-family masks for split(); the x mask includes the x-degree field.
_FAMILY_MASK = {
    "a": _BLOCK_MASK["a"],
    "q": _BLOCK_MASK["q"],
    "x": _BLOCK_MASK["x"] | (_EXP << _DEG_SHIFT),
}
_AQ_MASK = _FAMILY_MASK["a"] | _FAMILY_MASK["q"]
_VARS_MASK = _AQ_MASK | _BLOCK_MASK["x"]
# Every other exponent field of the a and q blocks: with 16 bits between
# them, such a value is congruent to its field sum modulo 2^16 - 1, and that
# sum (at most 16 * 127) is below the modulus.
_ALTERNATE = sum(_EXP << (2 * f * _W) for f in range(SLOTS))


def _aq_degree(m: int) -> int:
    m &= _AQ_MASK
    return (m & _ALTERNATE) % 0xFFFF + ((m >> _W) & _ALTERNATE) % 0xFFFF


def _degree(m: int) -> int:
    return (m >> _DEG_SHIFT) + _aq_degree(m)


def _unit(v) -> int:
    unit = _UNITS.get(v)
    if unit is None:
        fam, index = v
        if fam not in FAMILIES:
            raise ValueError(f"unknown variable family {fam!r}")
        if index < 1:
            raise ValueError(f"variable index must be >= 1, got {index}")
        raise ValueError(
            f"{fam}{index} is beyond the packed layout: indices go up to {SLOTS}"
        )
    return unit


def _check_guard(key: int, what: str):
    if key & _GUARD:
        raise ValueError(
            f"{what} has an exponent or x-degree above {MAX_EXPONENT}, beyond "
            f"the packed layout"
        )


def _pack(mono) -> int:
    """Key of a monomial given as ((family, index), exponent) pairs."""
    key = 0
    for v, e in mono:
        if e:
            if not 0 < e <= MAX_EXPONENT:
                raise ValueError(
                    f"exponent {e} is outside 1..{MAX_EXPONENT} (packed layout)"
                )
            key += e * _unit(v)
    _check_guard(key, "monomial")
    return key


def _pairs(m: int) -> list:
    """The ((family, index), exponent) pairs of a key, in sorted order."""
    out = []
    m &= _VARS_MASK
    while m:
        field = ((m & -m).bit_length() - 1) // _W
        shift = field * _W
        e = (m >> shift) & _EXP
        out.append((_VARIABLE_AT[field], e))
        m -= e << shift
    return out


def _exponents(m: int, family: str, width: int) -> list:
    base = _FIRST[family] * _W
    return [(m >> (base + t * _W)) & _EXP for t in range(width)]


def x_order_key(vec) -> int:
    """Key of the monomial x^vec, as stored in `Polynomial.terms`.

    Keys of x-monomials compare in the x-leading order: larger total degree
    first, ties broken at the largest index where the exponents differ.

    >>> x_order_key((0, 1)) > x_order_key((1,))
    True
    """
    return _pack([(("x", t), e) for t, e in enumerate(vec, start=1)])


def _poly(terms: dict) -> "Polynomial":
    p = object.__new__(Polynomial)
    p.terms = terms
    return p


def _packed(items) -> dict:
    acc: dict = {}
    for mono, coeff in items:
        if coeff:
            key = _pack(mono)
            acc[key] = acc.get(key, 0) + coeff
    return {m: c for m, c in acc.items() if c}


class Polynomial:
    """Immutable sparse polynomial with exact integer coefficients."""

    __slots__ = ("terms",)

    def __init__(self, terms: dict):
        # `terms` maps monomials, as ((family, index), exponent) pairs, to
        # integer coefficients; they are validated and packed here.
        self.terms = _packed(terms.items())

    @classmethod
    def from_terms(cls, items) -> "Polynomial":
        return _poly(_packed(items))

    @classmethod
    def zero(cls) -> "Polynomial":
        return _poly({})

    @classmethod
    def const(cls, c: int) -> "Polynomial":
        return _poly({0: c} if c else {})

    @classmethod
    def var(cls, family: str, index: int) -> "Polynomial":
        return _poly({_unit((family, index)): 1})

    # -- ring operations ---------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if isinstance(other, int):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self.terms == other.terms

    __hash__ = None

    def __neg__(self) -> "Polynomial":
        return _poly({m: -c for m, c in self.terms.items()})

    def __add__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        big, small = self.terms, other.terms
        if len(big) < len(small):
            big, small = small, big
        acc = dict(big)
        for m, c in small.items():
            s = acc.get(m, 0) + c
            if s:
                acc[m] = s
            else:
                del acc[m]
        return _poly(acc)

    __radd__ = __add__

    def __sub__(self, other) -> "Polynomial":
        if isinstance(other, int):
            other = Polynomial.const(other)
        if not isinstance(other, Polynomial):
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other) -> "Polynomial":
        return (-self) + other

    def __mul__(self, other) -> "Polynomial":
        if isinstance(other, int):
            if not other:
                return _poly({})
            return _poly({m: c * other for m, c in self.terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        return sum_of_products(((self, other),))

    __rmul__ = __mul__

    def __pow__(self, n: int) -> "Polynomial":
        if n < 0:
            raise ValueError("negative powers are not defined here")
        result = Polynomial.const(1)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base if n > 1 else base
            n >>= 1
        return result

    # -- queries -----------------------------------------------------------

    def is_constant(self) -> bool:
        return all(not m for m in self.terms)

    def constant_value(self) -> int:
        if not self.is_constant():
            raise ValueError("polynomial is not constant")
        return self.terms.get(0, 0)

    def total_degree(self) -> int:
        """Plain total degree (every variable weighted 1); 0 for the zero polynomial."""
        return max(map(_degree, self.terms), default=0)

    def max_index(self, family: str) -> int:
        """Largest index of the given family appearing, or 0."""
        block = reduce(or_, self.terms, 0) & _BLOCK_MASK[family]
        return (block.bit_length() - _FIRST[family] * _W + _W - 1) // _W if block else 0

    def staircase(self) -> int:
        """The least n >= 1 such that every x-monomial x^b of f lies under the
        staircase b_i <= n - i: the largest i + b_i over exponents b_i > 0, or
        1 when no x appears.  The a and q variables are ignored.

        >>> (x(1) ** 3 * x(2) ** 2 * x(3) + a(5)).staircase(), x(3).staircase()
        (4, 4)
        >>> Polynomial.const(7).staircase()
        1
        """
        top, base, mask = 1, _FIRST["x"] * _W, _BLOCK_MASK["x"]
        for m in self.terms:
            m = (m & mask) >> base
            i = 1
            while m:
                e = m & _EXP
                if e and i + e > top:
                    top = i + e
                m >>= _W
                i += 1
        return top

    def coefficient(self, mono: Monomial) -> int:
        return self.terms.get(_pack(mono), 0)

    def homogeneous_parts(self) -> dict:
        """{total degree: the terms of that degree}, every variable weighted 1."""
        acc: dict = {}
        for m, c in self.terms.items():
            acc.setdefault(_degree(m), {})[m] = c
        return {d: _poly(t) for d, t in acc.items()}

    def split(self, families: str) -> dict:
        """Group terms by their sub-monomial over `families`.

        Returns a dict mapping each sub-monomial, as ((family, index),
        exponent) pairs, to the polynomial of everything else that
        multiplies it.

        >>> f = x(1) * a(1) + 2 * x(1) - q(1)
        >>> parts = f.split("x")
        >>> print(parts[((("x", 1), 1),)])
        a1 + 2
        """
        mask = 0
        for fam in families:
            mask |= _FAMILY_MASK[fam]
        acc: dict = {}
        for m, c in self.terms.items():
            inside = m & mask
            acc.setdefault(inside, {})[m - inside] = c
        return {tuple(_pairs(k)): _poly(v) for k, v in acc.items()}

    # -- x-leading terms ---------------------------------------------------

    def x_lead(self) -> tuple | None:
        """Exponent vector of the x-leading monomial, trailing zeros dropped;
        None for the zero polynomial.

        >>> (x(1) * x(2) + x(2) ** 2 * a(1)).x_lead()
        (0, 2)
        """
        if not self.terms:
            return None
        vec = _exponents(max(self.terms), "x", SLOTS)
        while vec and not vec[-1]:
            vec.pop()
        return tuple(vec)

    def x_coefficient(self, vec) -> "Polynomial":
        """The polynomial in a and q multiplying x^vec."""
        key, mask = x_order_key(vec), _FAMILY_MASK["x"]
        return _poly({m - key: c for m, c in self.terms.items() if m & mask == key})

    # -- substitutions -----------------------------------------------------

    def specialize(self, assignment: dict) -> "Polynomial":
        """Substitute variables; `assignment` maps Variable to Polynomial or int.

        One simultaneous pass over the terms: every substituted exponent is
        taken off a term's key first.  Each power p^e of a value is formed
        once per call by the guarded product.  A power of one term d*k then
        moves the key by k and scales the coefficient by d, a zero power
        scales it by 0, and only powers of several terms are multiplied in.
        Two valid keys add without a carry, so checking the guard bits after
        each move is the whole overflow rule.

        >>> f = (x(1) - a(1)) ** 2
        >>> print(f.specialize({("a", 1): 0}))
        x1^2
        >>> print((x(1) - a(1)).specialize({("x", 1): a(1), ("a", 1): 1 + x(1)}))
        -x1 + a1 - 1
        """
        # Each value with its unit, its field, and its powers formed so far;
        # a power of at most one term is kept as its move, (key, coefficient).
        values = []
        for v, p in assignment.items():
            p = p if isinstance(p, Polynomial) else Polynomial.const(p)
            values.append((_unit(v), _shift(*v), p, {}))
        acc: dict = {}
        get = acc.get
        for m, c in self.terms.items():
            moves, factors = [], []
            for unit, shift, p, formed in values:
                e = (m >> shift) & _EXP
                if e:
                    m -= e * unit
                    power = formed.get(e)
                    if power is None:
                        power = p**e
                        if len(power.terms) < 2:
                            power = next(iter(power.terms.items()), (0, 0))
                        formed[e] = power
                    (factors if isinstance(power, Polynomial) else moves).append(power)
            for key, coeff in moves:
                m += key
                _check_guard(m, "substitution")
                c *= coeff
            if factors:
                term = _poly({m: c})
                for p in factors:
                    term = term * p
                for k, v in term.terms.items():
                    acc[k] = get(k, 0) + v
            else:
                acc[m] = get(m, 0) + c
        return _poly({m: c for m, c in acc.items() if c})

    def zero_out(self, families: str) -> "Polynomial":
        """Set every variable of the given families, such as "aq", to zero;
        f itself for no family."""
        mask = 0
        for fam in families:
            mask |= _BLOCK_MASK[fam]
        if not mask:
            return self
        return _poly({m: c for m, c in self.terms.items() if not m & mask})

    def swap_indices(self, family: str, i: int, j: int) -> "Polynomial":
        """Exchange the variables (family, i) and (family, j)."""
        ui, uj = _unit((family, i)), _unit((family, j))
        si, sj = _shift(family, i), _shift(family, j)
        acc: dict = {}
        for m, c in self.terms.items():
            d = ((m >> sj) & _EXP) - ((m >> si) & _EXP)
            acc[m + d * (ui - uj)] = c
        return _poly(acc)

    def divided_difference(self, family: str, i: int) -> "Polynomial":
        """(f - s_i f) / (v_i - v_{i+1}) for the variables v of `family`.

        For a single monomial rest*v_i^p*v_{i+1}^r the quotient is the finite
        geometric sum rest * sum v_i^e v_{i+1}^{p+r-1-e}, so the division is
        exact by construction and no generic polynomial division is needed.

        >>> print((a(1) ** 2).divided_difference("a", 1))
        a1 + a2
        """
        ui, uj = _unit((family, i)), _unit((family, i + 1))
        si, sj = _shift(family, i), _shift(family, i + 1)
        mi, mj = _EXP << si, _EXP << sj
        step = ui - uj
        acc: dict = {}
        get = acc.get
        for m, c in self.terms.items():
            p = (m & mi) >> si
            r = (m & mj) >> sj
            # The exponent of v_i runs up from min(p, r) while that of
            # v_{i+1} runs down from max(p, r) - 1, d terms in all.
            if p > r:
                d = p - r
                key = m - d * ui + (d - 1) * uj
            elif p < r:
                c = -c
                d = r - p
                key = m - uj
            else:
                continue
            acc[key] = get(key, 0) + c
            for _ in range(d - 1):
                key += step
                acc[key] = get(key, 0) + c
        return _poly({m: c for m, c in acc.items() if c})

    def divide_linear(self, divisor: "Polynomial") -> "Polynomial":
        """The exact quotient f / divisor for a linear form divisor (no
        constant term) in which some variable has coefficient 1 or -1.

        Synthetic division on that variable v: with divisor = e*v + r and
        e = +-1, the terms of f are taken from the highest power of v down,
        each giving the quotient term e*t/v and leaving -(e*t/v)*r one power
        of v lower.  Whatever is left free of v must cancel; otherwise the
        division is inexact and ArithmeticError is raised.

        >>> print((a(1) ** 2 - a(2) ** 2).divide_linear(a(1) - a(2)))
        a1 + a2
        """
        terms = divisor.terms
        if not terms or any(m not in _UNIT_SHIFT for m in terms):
            raise ValueError(f"{format_polynomial(divisor)} is not a linear form")
        pivot = next((m for m, c in terms.items() if c in (1, -1)), None)
        if pivot is None:
            raise ValueError(f"{format_polynomial(divisor)} has no coefficient +-1")
        sign, shift = terms[pivot], _UNIT_SHIFT[pivot]
        rest = [(m, c) for m, c in terms.items() if m != pivot]
        levels: dict = {}  # power of the pivot -> the terms of f left at it
        for m, c in self.terms.items():
            levels.setdefault((m >> shift) & _EXP, {})[m] = c
        quotient: dict = {}
        for power in range(max(levels, default=0), 0, -1):
            lower = levels.setdefault(power - 1, {})
            get = lower.get
            for m, c in levels.pop(power, {}).items():
                if c:
                    key, c = m - pivot, c * sign
                    quotient[key] = c
                    for r, rc in rest:
                        lower[key + r] = get(key + r, 0) - c * rc
        if any(levels.get(0, {}).values()):
            raise ArithmeticError(
                f"{format_polynomial(divisor)} does not divide the polynomial"
            )
        _check_guard(reduce(or_, quotient, 0), "quotient")
        return _poly(quotient)

    # -- presentation --------------------------------------------------------

    def __str__(self) -> str:
        return format_polynomial(self)

    def __repr__(self) -> str:
        return f"<Polynomial {format_polynomial(self)}>"


def sum_of_products(pairs) -> Polynomial:
    """The sum of f*g over the (f, g) pairs, every product added into one
    dict; the zero polynomial for no pairs.

    A monomial product is the sum of two keys.  An exponent that overflows
    sets a guard bit, and its key stays in the dict even if its coefficient
    cancels, so one check of all keys at the end catches every overflow.
    The cancelled keys are then deleted from the dict in place, which
    becomes the result without a copy.

    >>> print(sum_of_products([(x(1), x(2)), (x(1) + 1, -x(2))]))
    -x2
    """
    acc: dict = {}
    get = acc.get
    for f, g in pairs:
        fa, fb = f.terms, g.terms
        if len(fa) >= len(fb):  # the shorter operand on the outside
            fa, fb = fb, fa
        items = fb.items()
        for m1, c1 in fa.items():
            for m2, c2 in items:
                key = m1 + m2
                acc[key] = get(key, 0) + c1 * c2
    _check_guard(reduce(or_, acc, 0), "product")
    for m in [m for m, c in acc.items() if not c]:
        del acc[m]
    return _poly(acc)


def variable(family: str, index: int) -> Polynomial:
    return Polynomial.var(family, index)


def x(i: int) -> Polynomial:
    return Polynomial.var("x", i)


def a(i: int) -> Polynomial:
    return Polynomial.var("a", i)


def q(i: int) -> Polynomial:
    return Polynomial.var("q", i)


def elementary_symmetric(k: int, variables: list) -> Polynomial:
    """Elementary symmetric polynomial e_k in the given variables.

    >>> print(elementary_symmetric(2, [("x", 1), ("x", 2), ("x", 3)]))
    x2*x3 + x1*x3 + x1*x2
    """
    if k < 0 or k > len(variables):
        return Polynomial.zero()
    if k == 0:
        return Polynomial.const(1)
    units = [_unit(v) for v in variables]
    return _poly({sum(combo): 1 for combo in itertools.combinations(units, k)})


def graded_degree(f: Polynomial, q_degrees=None):
    """Degree of f under deg x_i = deg a_i = 1 and deg q_j = q_degrees[j].

    With q_degrees None every q_j has degree 2.  Returns the common degree of
    all terms, or None when f is not homogeneous.  The zero polynomial reports
    degree 0.

    >>> graded_degree(q(1))
    2
    >>> graded_degree(x(1) + q(1)) is None
    True
    """
    degs = set()
    width = f.max_index("q")
    for m in f.terms:
        d = _degree(m)
        for t, e in enumerate(_exponents(m, "q", width), start=1):
            if e:
                d += e * ((2 if q_degrees is None else q_degrees[t]) - 1)
        degs.add(d)
    if not degs:
        return 0
    if len(degs) > 1:
        return None
    return degs.pop()


# -- canonical text form ------------------------------------------------------


def _describe(m: int) -> tuple:
    """(sort key, text) of a packed monomial; the text of 1 is ''.

    Terms sort by descending total degree; then by the x parts in
    reverse-lex order, where at the largest differing index the larger
    exponent comes first; then by the a and then the q exponents
    lexicographically from the low indices, the larger first.  One field is
    one byte, so that last order is the big-endian reading of the a and q
    blocks' little-endian bytes.
    """
    aq = int.from_bytes((m & _AQ_MASK).to_bytes(2 * SLOTS, "little"), "big")
    factors = [
        f"{fam}{idx}^{e}" if e > 1 else f"{fam}{idx}"
        for (fam, idx), e in _pairs(m & _BLOCK_MASK["x"]) + _pairs(m & _AQ_MASK)
    ]
    return (-_degree(m), -(m & _BLOCK_MASK["x"]), -aq), "*".join(factors)


def _sorted_terms(f: Polynomial, describe=_describe) -> list:
    """((sort key, text), monomial, coefficient) for the terms of f, in the
    canonical order."""
    return sorted((describe(m), m, c) for m, c in f.terms.items())


def _format(f: Polynomial, describe=_describe) -> str:
    """`format_polynomial`, reading each monomial through `describe`."""
    pieces = []
    for (_, text), _, c in _sorted_terms(f, describe):
        mag = abs(c)
        body = (text if mag == 1 else f"{mag}*{text}") if text else str(mag)
        if pieces:
            pieces.append(f"+ {body}" if c > 0 else f"- {body}")
        else:
            pieces.append(body if c > 0 else f"-{body}")
    return " ".join(pieces) or "0"


def format_polynomial(f: Polynomial) -> str:
    """Canonical text form, e.g. 'x1^2 - 2*x1*a1 + a1^2 - q1'."""
    return _format(f)


_TOKEN = re.compile(r"\s*(?:(\d+)|([xaq])(\d+)|(\^)|(\*)|(\+)|(-)|(.))")


class PolynomialParseError(ValueError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} at position {position}")
        self.position = position


def _tokenize(text: str):
    tokens = []
    for match in _TOKEN.finditer(text):
        pos = min(match.start(g) for g in range(1, 9) if match.group(g) is not None)
        if match.group(1):
            tokens.append(("int", int(match.group(1)), pos))
        elif match.group(2):
            tokens.append(("var", (match.group(2), int(match.group(3))), pos))
        elif match.group(4):
            tokens.append(("pow", None, pos))
        elif match.group(5):
            tokens.append(("mul", None, pos))
        elif match.group(6):
            tokens.append(("plus", None, pos))
        elif match.group(7):
            tokens.append(("minus", None, pos))
        elif match.group(8) and match.group(8).strip():
            raise PolynomialParseError(f"unexpected character {match.group(8)!r}", pos)
    return tokens


def parse_polynomial(text: str) -> Polynomial:
    """Parse the canonical text form back into a Polynomial.

    Raises PolynomialParseError (a ValueError) with the offending position on
    malformed input, and on variables or exponents beyond the packed layout.

    >>> print(parse_polynomial("x1^2 - 2*x1*a1 + a1^2 - q1") + q(1))
    x1^2 - 2*x1*a1 + a1^2
    """
    tokens = _tokenize(text)
    if not tokens:
        raise PolynomialParseError("empty polynomial text", 0)
    n = len(tokens)
    i = 0
    total = Polynomial.zero()

    def parse_factor(i):
        kind, val, pos = tokens[i]
        if kind == "var":
            try:
                factor = Polynomial.var(*val)
            except ValueError as exc:
                raise PolynomialParseError(str(exc), pos) from None
            i += 1
            exp = 1
            if i < n and tokens[i][0] == "pow":
                i += 1
                if i >= n or tokens[i][0] != "int":
                    raise PolynomialParseError("expected integer exponent", tokens[i - 1][2])
                exp = tokens[i][1]
                if exp > MAX_EXPONENT:
                    raise PolynomialParseError(
                        f"exponent {exp} is above {MAX_EXPONENT} (packed layout)",
                        tokens[i][2],
                    )
                i += 1
            return factor**exp, i
        if kind == "int":
            return Polynomial.const(val), i + 1
        raise PolynomialParseError("expected a variable or integer", pos)

    while i < n:
        sign = 1
        kind, _, pos = tokens[i]
        if kind == "plus":
            if not total.terms and i == 0:
                raise PolynomialParseError("leading '+' is not allowed", pos)
            i += 1
        elif kind == "minus":
            sign = -1
            i += 1
        elif i > 0:
            raise PolynomialParseError("expected '+' or '-' between terms", pos)
        if i >= n:
            raise PolynomialParseError("dangling sign", tokens[-1][2])
        term, i = parse_factor(i)
        while i < n and tokens[i][0] == "mul":
            i += 1
            if i >= n:
                raise PolynomialParseError("dangling '*'", tokens[i - 1][2])
            pos = tokens[i][2]
            factor, i = parse_factor(i)
            try:
                term = term * factor
            except ValueError as exc:
                raise PolynomialParseError(str(exc), pos) from None
        total = total + term * sign
    return total


# -- canonical JSON form ------------------------------------------------------


def polynomial_to_json(f: Polynomial) -> list:
    """JSON-ready list of term objects; round-trips bit-exactly."""
    out = []
    for _, m, c in _sorted_terms(f):
        entry = {"c": str(c), **{fam: [] for fam in FAMILIES}}
        for (fam, idx), e in _pairs(m):
            entry[fam].append([idx, e])
        out.append(entry)
    return out


def polynomial_from_json(data) -> Polynomial:
    if isinstance(data, str):
        data = json.loads(data)
    if not isinstance(data, list):
        raise ValueError("polynomial JSON must be a list of term objects")
    items = []
    for entry in data:
        coeff = int(entry["c"])
        mono = []
        for fam in FAMILIES:
            for idx, e in entry.get(fam, []):
                if idx < 1 or e < 1:
                    raise ValueError(f"bad exponent pair [{idx}, {e}]")
                mono.append(((fam, idx), e))
        items.append((tuple(mono), coeff))
    return Polynomial.from_terms(items)


if __name__ == "__main__":
    import doctest

    doctest.testmod()
