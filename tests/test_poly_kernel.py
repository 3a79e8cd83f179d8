"""The packed-monomial kernel against a tuple-monomial reference.

The reference below keeps a polynomial as a dict from sorted tuples of
((family, index), exponent) pairs to nonzero ints, the form `Polynomial`
accepts at its boundary, and implements each operation the slow, obvious
way.  Hypothesis draws random polynomials and checks that both agree.
"""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qschub.poly import (
    MAX_EXPONENT,
    SLOTS,
    Polynomial,
    PolynomialParseError,
    a,
    format_polynomial,
    parse_polynomial,
    polynomial_from_json,
    polynomial_to_json,
    q,
    sum_of_products,
    x,
)

SETTINGS = settings(max_examples=150, derandomize=True, database=None, deadline=None)

# -- the reference ----------------------------------------------------------------


def ref_clean(acc):
    return {m: c for m, c in acc.items() if c}


def ref_mono_mul(m1, m2):
    d = dict(m1)
    for v, e in m2:
        d[v] = d.get(v, 0) + e
    return tuple(sorted(d.items()))


def ref_add(f, g):
    acc = dict(f)
    for m, c in g.items():
        acc[m] = acc.get(m, 0) + c
    return ref_clean(acc)


def ref_mul(f, g):
    acc = {}
    for m1, c1 in f.items():
        for m2, c2 in g.items():
            key = ref_mono_mul(m1, m2)
            acc[key] = acc.get(key, 0) + c1 * c2
    return ref_clean(acc)


def ref_pow(f, n):
    out = {(): 1}
    for _ in range(n):
        out = ref_mul(out, f)
    return out


def ref_divided_difference(fam, i, f):
    vi, vj = (fam, i), (fam, i + 1)
    acc = {}
    for m, c in f.items():
        d = dict(m)
        p, r = d.pop(vi, 0), d.pop(vj, 0)
        if p == r:
            continue
        lo, hi = min(p, r), max(p, r)
        for e1 in range(lo, hi):
            e2 = p + r - 1 - e1
            mono = dict(d)
            if e1:
                mono[vi] = e1
            if e2:
                mono[vj] = e2
            key = tuple(sorted(mono.items()))
            acc[key] = acc.get(key, 0) + (c if p > r else -c)
    return ref_clean(acc)


def ref_zero_out(f, fam, min_index):
    return {
        m: c for m, c in f.items() if not any(v[0] == fam and v[1] >= min_index for v, _ in m)
    }


def ref_swap(f, fam, i, j):
    acc = {}
    for m, c in f.items():
        d = dict(m)
        ei, ej = d.pop((fam, i), 0), d.pop((fam, j), 0)
        if ei:
            d[(fam, j)] = ei
        if ej:
            d[(fam, i)] = ej
        acc[tuple(sorted(d.items()))] = c
    return acc


def ref_specialize(f, assignment):
    total = {}
    for m, c in f.items():
        term = {(): c}
        for v, e in m:
            factor = assignment[v] if v in assignment else {((v, 1),): 1}
            term = ref_mul(term, ref_pow(factor, e))
        total = ref_add(total, term)
    return total


def ref_split(f, families):
    acc = {}
    for m, c in f.items():
        inside = tuple(p for p in m if p[0][0] in families)
        outside = tuple(p for p in m if p[0][0] not in families)
        acc.setdefault(inside, {})[outside] = c
    return acc


def ref_format(f):
    """The canonical text form, computed on tuple monomials."""

    def vector(m, fam, width):
        vec = [0] * width
        for (vf, idx), e in m:
            if vf == fam:
                vec[idx - 1] = e
        return vec

    widths = {
        fam: max([1] + [idx for m in f for (vf, idx), _ in m if vf == fam]) for fam in "xaq"
    }

    def key(item):
        m = item[0]
        return (
            -sum(e for _, e in m),
            [-e for e in reversed(vector(m, "x", widths["x"]))],
            [-e for e in vector(m, "a", widths["a"])],
            [-e for e in vector(m, "q", widths["q"])],
        )

    pieces = []
    for m, c in sorted(f.items(), key=key):
        factors = [
            f"{fam}{idx}" + (f"^{e}" if e > 1 else "")
            for fam in "xaq"
            for (vf, idx), e in m
            if vf == fam
        ]
        body = "*".join(([str(abs(c))] if abs(c) != 1 or not factors else []) + factors)
        sign = ("" if c > 0 else "-") if not pieces else ("+ " if c > 0 else "- ")
        pieces.append(sign + body)
    return " ".join(pieces) or "0"


def to_ref(f: Polynomial) -> dict:
    """Read a Polynomial back through its public JSON form."""
    out = {}
    for term in polynomial_to_json(f):
        mono = tuple(
            sorted(((fam, idx), e) for fam in "xaq" for idx, e in term[fam])
        )
        out[mono] = int(term["c"])
    return out


# -- strategies -------------------------------------------------------------------

variables = st.tuples(st.sampled_from("xaq"), st.integers(1, 5))
monomials = st.dictionaries(variables, st.integers(1, 4), max_size=4).map(
    lambda d: tuple(sorted(d.items()))
)
refs = st.dictionaries(monomials, st.integers(-9, 9).filter(bool), max_size=6)
# Substituted values stay small, so powers of them stay inside the layout.
small_monomials = st.dictionaries(variables, st.integers(1, 2), max_size=2).map(
    lambda d: tuple(sorted(d.items()))
)
small_refs = st.dictionaries(small_monomials, st.integers(-3, 3).filter(bool), max_size=3)


# -- differential tests -----------------------------------------------------------


@SETTINGS
@given(refs, refs)
def test_ring_operations_match_reference(f, g):
    pf, pg = Polynomial(f), Polynomial(g)
    assert to_ref(pf) == f
    assert to_ref(pf + pg) == ref_add(f, g)
    assert to_ref(pf - pg) == ref_add(f, {m: -c for m, c in g.items()})
    assert to_ref(pf * pg) == ref_mul(f, g)
    assert to_ref(pf * 3) == {m: 3 * c for m, c in f.items()}


@SETTINGS
@given(refs, st.integers(0, 3))
def test_powers_match_reference(f, n):
    assert to_ref(Polynomial(f) ** n) == ref_pow(f, n)


@SETTINGS
@given(refs, st.sampled_from("xa"), st.integers(1, 5))
def test_divided_differences_match_reference(f, fam, i):
    got = Polynomial(f).divided_difference(fam, i)
    assert to_ref(got) == ref_divided_difference(fam, i, f)


def pair_refs(fam, i):
    """Polynomials whose exponents in (fam, i) and (fam, i + 1) run over 0..6,
    so that products of two of them meet p > r, p < r, |p - r| >= 2 and
    full cancellation in those two fields."""

    def mono(t):
        base, p, r = t
        d = {v: e for v, e in base if v not in ((fam, i), (fam, i + 1))}
        d.update({v: e for v, e in (((fam, i), p), ((fam, i + 1), r)) if e})
        return tuple(sorted(d.items()))

    pair_monomials = st.tuples(monomials, st.integers(0, 6), st.integers(0, 6)).map(mono)
    return st.dictionaries(pair_monomials, st.integers(-9, 9).filter(bool), max_size=6)


@st.composite
def fused_cases(draw):
    """(fam, i, f, times): `times` is a polynomial, a constant, zero or None."""
    fam, i = draw(st.sampled_from("xaq")), draw(st.integers(1, 4))
    f = draw(pair_refs(fam, i))
    times = draw(
        st.one_of(
            pair_refs(fam, i),
            st.integers(-3, 3).map(lambda c: {(): c} if c else {}),
            st.none(),
        )
    )
    return fam, i, f, times


@SETTINGS
@given(fused_cases())
def test_fused_divided_difference_matches_reference(case):
    fam, i, f, times = case
    if times is None:
        got = Polynomial(f).divided_difference(fam, i)
        expected = ref_divided_difference(fam, i, f)
    else:
        got = Polynomial(f).divided_difference(fam, i, Polynomial(times))
        expected = ref_divided_difference(fam, i, ref_mul(f, times))
    assert to_ref(got) == expected
    assert all(got.terms.values())


def test_fused_divided_difference_of_nothing_is_zero():
    f = a(1) ** 2 - a(2) * x(1)
    for fam in "xaq":
        assert not f.divided_difference(fam, 1, Polynomial.zero()).terms
        assert not Polynomial.zero().divided_difference(fam, 1, f).terms


# Each case overflows in the product: f * g raises, and so must the fused
# d_i of f times g, whether the key at fault emits terms or not.
FUSED_OVERFLOWS = {
    # p = r = 128: the key emits nothing, and only the check of the
    # symmetric keys sees it.
    "field i, symmetric": (a(1) ** 100 * a(2) ** 100, a(1) ** 28 * a(2) ** 28, "a"),
    # p = 100 + 28 reads as 0 against r = 3: the emitted keys carry the
    # guard bit of field i.
    "field i": (a(1) ** 100, a(1) ** 28 * a(2) ** 3, "a"),
    "field i + 1": (a(2) ** 100 * q(1), a(1) ** 3 * a(2) ** 28, "a"),
    "another field": (q(1) * q(3) ** 100, q(3) ** 28, "q"),
    # Each x exponent fits, but the x-degree is 128: the emitted keys lower
    # it to 127, so it is checked before any key is emitted.
    "x-degree": (x(1) ** 100, x(2) ** 28, "x"),
}


@pytest.mark.parametrize("case", FUSED_OVERFLOWS)
def test_fused_divided_difference_rejects_a_carry_like_the_product(case):
    f, g, fam = FUSED_OVERFLOWS[case]
    with pytest.raises(ValueError, match="packed layout"):
        (f * g).divided_difference(fam, 1)
    with pytest.raises(ValueError, match="packed layout"):
        f.divided_difference(fam, 1, g)
    with pytest.raises(ValueError, match="packed layout"):
        f.divided_difference(fam, 1, g + x(4))  # among valid terms


@SETTINGS
@given(refs, st.sampled_from("xaq"), st.integers(1, 5), st.integers(1, 5))
def test_substitutions_match_reference(f, fam, i, j):
    p = Polynomial(f)
    assert to_ref(p.zero_out(fam)) == ref_zero_out(f, fam, 1)
    assert to_ref(p.swap_indices(fam, i, j)) == ref_swap(f, fam, i, j)


# Values of one term, applied by moving keys: ints (0 among them), signed
# variables, and c*m; each drawn as (reference, value passed to specialize).
single_values = st.one_of(
    st.integers(-3, 3).map(lambda c: ({(): c} if c else {}, c)),
    st.tuples(st.sampled_from([1, -1]), variables).map(
        lambda t: ({((t[1], 1),): t[0]}, t[0] * Polynomial.var(*t[1]))
    ),
    st.tuples(st.integers(-3, 3).filter(bool), small_monomials).map(
        lambda t: ({t[1]: t[0]}, Polynomial({t[1]: t[0]}))
    ),
)
# Several variables at once, single-term values mixed with multi-term ones.
mixed_values = st.one_of(single_values, small_refs.map(lambda f: (f, Polynomial(f))))


@SETTINGS
@given(refs, st.dictionaries(variables, small_refs, max_size=2))
def test_specialize_matches_reference(f, assignment):
    got = Polynomial(f).specialize({v: Polynomial(g) for v, g in assignment.items()})
    assert to_ref(got) == ref_specialize(f, assignment)


@SETTINGS
@given(refs, st.dictionaries(variables, mixed_values, max_size=5))
def test_specialize_by_moved_keys_matches_reference(f, assignment):
    got = Polynomial(f).specialize({v: value for v, (_, value) in assignment.items()})
    assert to_ref(got) == ref_specialize(f, {v: r for v, (r, _) in assignment.items()})


def test_specialize_is_simultaneous():
    # The a1 that x1 moves to is not substituted again, and the x1 of the
    # multi-term value of a1 is not moved to a1.
    f = x(1) ** 2 * a(1)
    got = f.specialize({("x", 1): a(1), ("a", 1): 1 + x(1)})
    assert got == a(1) ** 2 * (1 + x(1))
    # A swap at the largest exponent never holds two exponents in one field.
    top = MAX_EXPONENT - 1
    swap = x(1) ** top * a(1) ** top * (x(1) - 2 * a(1))
    got = swap.specialize({("x", 1): a(1), ("a", 1): x(1)})
    assert got == x(1) ** top * a(1) ** top * (a(1) - 2 * x(1))


def test_specialize_overflow_is_caught_before_it_carries():
    # Three moves onto q1 sum to 381 = 256 + 125: one check at the end would
    # see q1^125*q2 and no guard bit.
    f = a(1) ** MAX_EXPONENT * a(2) ** MAX_EXPONENT * a(3) ** MAX_EXPONENT
    with pytest.raises(ValueError, match="packed layout"):
        f.specialize({("a", 1): q(1), ("a", 2): q(1), ("a", 3): q(1)})
    # e times a value's exponent must fit in one field, too: 3 * 100 and
    # 4 * 64 carry out of their fields with the guard bit clear.
    with pytest.raises(ValueError, match="packed layout"):
        (x(1) ** 3).specialize({("x", 1): 3 * a(1) ** 100})
    with pytest.raises(ValueError, match="packed layout"):
        (a(1) ** 4).specialize({("a", 1): x(1) * x(2) ** 64})


@SETTINGS
@given(refs, st.sampled_from(["x", "q", "aq", "xaq"]))
def test_split_matches_reference(f, families):
    got = {k: to_ref(v) for k, v in Polynomial(f).split(families).items()}
    assert got == ref_split(f, families)


@SETTINGS
@given(refs)
def test_text_and_json_round_trips(f):
    p = Polynomial(f)
    text = format_polynomial(p)
    assert text == ref_format(f)
    assert parse_polynomial(text) == p
    assert polynomial_from_json(json.loads(json.dumps(polynomial_to_json(p)))) == p


@SETTINGS
@given(refs)
def test_x_lead_is_the_largest_x_part(f):
    p = Polynomial(f)
    if not f:
        assert p.x_lead() is None
        return

    def x_vector(m):
        vec = [0] * 5
        for (fam, idx), e in m:
            if fam == "x":
                vec[idx - 1] = e
        return vec

    lead = max((x_vector(m) for m in f), key=lambda v: (sum(v), v[::-1]))
    trimmed = list(lead)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert p.x_lead() == tuple(trimmed)
    expected = {
        tuple(pair for pair in m if pair[0][0] != "x"): c
        for m, c in f.items()
        if x_vector(m) == lead
    }
    assert to_ref(p.x_coefficient(trimmed)) == expected


# x monomials over every slot, with x-degree at most 3 * 40 <= MAX_EXPONENT.
wide_x_monomials = st.dictionaries(
    st.tuples(st.just("x"), st.integers(1, SLOTS)), st.integers(1, 40), max_size=3
).map(lambda d: tuple(sorted(d.items())))
wide_x_refs = st.dictionaries(wide_x_monomials, st.integers(-9, 9).filter(bool), max_size=4)


@SETTINGS
@given(st.one_of(refs, wide_x_refs))
def test_staircase_matches_exponent_vectors(f):
    expected = 1
    for m in f:
        vec = [0] * SLOTS
        for (fam, idx), e in m:
            if fam == "x":
                vec[idx - 1] = e
        for i, e in enumerate(vec, start=1):
            if e:
                expected = max(expected, i + e)
    assert Polynomial(f).staircase() == expected


# -- the fused sum of products -----------------------------------------------------


@SETTINGS
@given(st.lists(st.tuples(refs, refs), max_size=3))
def test_sum_of_products_matches_reference(pairs):
    expected: dict = {}
    for f, g in pairs:
        expected = ref_add(expected, ref_mul(f, g))
    polys = [(Polynomial(f), Polynomial(g)) for f, g in pairs]
    got = sum_of_products(polys)
    assert to_ref(got) == expected
    assert got == sum((f * g for f, g in polys), Polynomial.zero())
    assert all(got.terms.values())


def test_sum_of_products_of_nothing_is_zero():
    assert sum_of_products([]) == Polynomial.zero()
    assert not sum_of_products(iter(())).terms


def test_sum_of_products_drops_cancelled_terms():
    got = sum_of_products([(x(1) + a(1), q(1)), (-x(1), q(1)), (x(2), a(2))])
    assert got == a(1) * q(1) + x(2) * a(2)
    assert all(got.terms.values())
    gone = sum_of_products([(x(1), a(1)), (a(1), -x(1))])
    assert gone == Polynomial.zero() and not gone.terms


def test_sum_of_products_rejects_a_carry_like_the_product():
    top = a(1) ** MAX_EXPONENT
    with pytest.raises(ValueError, match="packed layout"):
        top * a(1)
    with pytest.raises(ValueError, match="packed layout"):
        sum_of_products([(x(2), x(3)), (top, a(1))])
    # The overflowing key is caught even when its coefficient cancels.
    with pytest.raises(ValueError, match="packed layout"):
        sum_of_products([(top, a(1)), (-top, a(1))])
    assert sum_of_products([(top, a(2))]) == top * a(2)


# -- the layout's limits -----------------------------------------------------------


def test_product_that_would_carry_raises():
    top = a(1) ** MAX_EXPONENT
    assert top.coefficient(((("a", 1), MAX_EXPONENT),)) == 1
    assert top * a(2) == Polynomial({((("a", 1), MAX_EXPONENT), (("a", 2), 1)): 1})
    with pytest.raises(ValueError, match="packed layout"):
        top * a(1)
    with pytest.raises(ValueError, match="packed layout"):
        x(1) ** 100 * x(1) ** 100
    # Each exponent fits, but the x-degree field would carry.
    with pytest.raises(ValueError, match="packed layout"):
        x(1) ** 64 * x(2) ** 64


def test_index_limit_is_rejected_up_front():
    top = SLOTS
    for fam in "xaq":
        assert Polynomial.var(fam, top).max_index(fam) == top
        with pytest.raises(ValueError, match="packed layout"):
            Polynomial.var(fam, top + 1)
        with pytest.raises(ValueError, match="packed layout"):
            Polynomial.from_terms([((((fam, top + 1), 1),), 1)])
        with pytest.raises(ValueError, match="packed layout"):
            polynomial_from_json([{"c": "1", "x": [], "a": [], "q": [], fam: [[top + 1, 1]]}])
    with pytest.raises(PolynomialParseError):
        parse_polynomial("x200^2")


def test_exponent_limit_is_rejected_up_front():
    limit = MAX_EXPONENT
    assert parse_polynomial(f"a1^{limit}") == a(1) ** limit
    with pytest.raises(PolynomialParseError):
        parse_polynomial(f"a1^{limit + 1}")
    with pytest.raises(PolynomialParseError):
        parse_polynomial("q1^100*q1^100")
    with pytest.raises(ValueError, match="packed layout"):
        Polynomial.from_terms([(((("q", 1), limit + 1),), 1)])
    with pytest.raises(ValueError, match="packed layout"):
        polynomial_from_json([{"c": "1", "x": [], "a": [], "q": [[1, limit + 1]]}])
    with pytest.raises(ValueError, match="packed layout"):
        Polynomial({((("x", 1), 100), (("x", 2), 100)): 1})
    assert q(1) ** limit == Polynomial({((("q", 1), limit),): 1})
