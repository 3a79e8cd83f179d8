"""The packed-monomial kernel against sympy, an independent polynomial library.

Every solved table coefficient goes through `Polynomial.divide_linear`, and
every member through `Polynomial.divided_difference`, alone or fused with a
product, and `sum_of_products`.
Hypothesis draws random polynomials and linear forms; sympy divides, expands
and cancels the same ones.  sympy is a test-only dependency.
"""

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qschub.poly import Polynomial, polynomial_to_json, sum_of_products

sympy = pytest.importorskip("sympy")

SETTINGS = settings(max_examples=60, derandomize=True, database=None, deadline=None)

INDICES = range(1, 5)
SYMBOLS = {(fam, t): sympy.Symbol(f"{fam}{t}") for fam in "xaq" for t in INDICES}
GENS = list(SYMBOLS.values())


def to_sympy(f: Polynomial):
    """f as a sympy expression, read through its public JSON form."""
    return sympy.Add(
        *(
            int(term["c"])
            * sympy.Mul(*(SYMBOLS[fam, t] ** e for fam in "xaq" for t, e in term[fam]))
            for term in polynomial_to_json(f)
        )
    )


def same(f: Polynomial, expr) -> bool:
    return sympy.Poly(to_sympy(f), *GENS) == sympy.Poly(expr, *GENS)


# -- strategies -------------------------------------------------------------------

variables = st.tuples(st.sampled_from("xaq"), st.sampled_from(INDICES))
monomials = st.dictionaries(variables, st.integers(1, 3), max_size=3).map(
    lambda d: tuple(sorted(d.items()))
)
term_dicts = st.dictionaries(monomials, st.integers(-9, 9).filter(bool), max_size=5)
polys = term_dicts.map(Polynomial)


@st.composite
def unit_linear_forms(draw):
    """(divisor, pivot): a linear form with no constant term in which the
    pivot variable has coefficient 1 or -1, as `divide_linear` requires."""
    pivot = draw(variables)
    others = draw(
        st.dictionaries(
            variables.filter(lambda v: v != pivot), st.integers(-3, 3).filter(bool),
            max_size=3,
        )
    )
    terms = {((pivot, 1),): draw(st.sampled_from((1, -1)))}
    terms.update({((v, 1),): c for v, c in others.items()})
    return Polynomial(terms), pivot


# -- differential tests -----------------------------------------------------------


@SETTINGS
@given(polys, unit_linear_forms())
def test_exact_division_returns_the_cofactor(f, linear):
    divisor, _ = linear
    product = f * divisor
    assert product.divide_linear(divisor) == f
    quotient, remainder = sympy.div(to_sympy(product), to_sympy(divisor), *GENS)
    assert remainder == 0
    assert same(f, quotient)


@SETTINGS
@given(polys, unit_linear_forms(), term_dicts)
def test_a_remainder_free_of_the_pivot_is_refused(f, linear, terms):
    divisor, pivot = linear
    rest = Polynomial({m: c for m, c in terms.items() if all(v != pivot for v, _ in m)})
    assume(rest)
    with pytest.raises(ArithmeticError):
        (f * divisor + rest).divide_linear(divisor)
    _, remainder = sympy.div(to_sympy(f * divisor + rest), to_sympy(divisor), *GENS)
    assert remainder != 0


@SETTINGS
@given(st.lists(st.tuples(polys, polys), max_size=4))
def test_sum_of_products_matches_expand(pairs):
    expected = sympy.expand(sum((to_sympy(f) * to_sympy(g) for f, g in pairs), 0))
    assert same(sum_of_products(pairs), expected)


@SETTINGS
@given(polys, st.sampled_from("xaq"), st.sampled_from(INDICES[:-1]))
def test_divided_difference_matches_cancel(f, fam, i):
    vi, vj = SYMBOLS[fam, i], SYMBOLS[fam, i + 1]
    g = to_sympy(f)
    swapped = g.subs({vi: vj, vj: vi}, simultaneous=True)
    expected = sympy.cancel((g - swapped) / (vi - vj))
    assert same(f.divided_difference(fam, i), expected)


@SETTINGS
@given(polys, polys, st.sampled_from("xaq"), st.sampled_from(INDICES[:-1]))
def test_fused_divided_difference_matches_cancel(f, g, fam, i):
    vi, vj = SYMBOLS[fam, i], SYMBOLS[fam, i + 1]
    h = sympy.expand(to_sympy(f) * to_sympy(g))
    swapped = h.subs({vi: vj, vj: vi}, simultaneous=True)
    expected = sympy.cancel((h - swapped) / (vi - vj))
    assert same(f.divided_difference(fam, i, g), expected)
