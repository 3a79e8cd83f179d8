"""Divided differences, the four Schubert families, expansion and Cauchy sums."""

import random

import pytest

from oracles import bruhat_leq
from qschub import schubert
from qschub.poly import Polynomial, a, elementary_symmetric, graded_degree, q, x
from qschub.schubert import (
    FAMILY_KINDS,
    cauchy_rhs,
    divided_difference,
    expand_in_schubert_basis,
    quantum_elementary,
    schubert_polynomial,
    x_lead_vector,
    x_to_minus_a,
)
from qschub.selftest import check_reflection_formulas, compositions
from qschub.weyl import (
    ParabolicContext,
    all_perms,
    code,
    compose,
    cycle,
    identity,
    inverse,
    length,
    perm_from_word,
    reduced_word,
    simple,
)


def random_polynomial(rng, families="xaq", max_vars=3, max_exp=3, terms=5, degree=6):
    f = Polynomial.zero()
    for _ in range(rng.randint(1, terms)):
        term = Polynomial.const(rng.randint(-6, 6))
        total = 0
        for _ in range(rng.randint(0, 4)):
            fam = rng.choice(families)
            e = rng.randint(1, max_exp)
            if total + e > degree:
                break
            total += e
            term = term * Polynomial.var(fam, rng.randint(1, max_vars)) ** e
        f = f + term
    return f


def divided_difference_w(w, f):
    """The composite of divided differences along a reduced word for w."""
    return _apply_word(reduced_word(w), f)


def omega(i, fam="x"):
    """The fundamental-weight linear form, e.g. omega(2) = x1 + x2."""
    return sum((Polynomial.var(fam, t) for t in range(1, i + 1)), Polynomial.zero())


def reconstruct(expansion, family):
    """Sum coeff_w * member_w back into a single polynomial."""
    total = Polynomial.zero()
    for w, coeff in expansion.items():
        total = total + coeff * schubert_polynomial(w, family)
    return total


def all_reduced_words(w):
    from qschub.weyl import inverse as inv

    if w == identity:
        yield ()
        return
    winv = inv(w)
    for i in range(1, len(w)):
        if winv[i - 1] > winv[i]:
            for rest in all_reduced_words(compose(simple(i), w)):
                yield (i,) + rest


def test_divided_difference_examples():
    assert divided_difference(1, a(1)) == 1
    assert divided_difference(1, a(1) * a(2)) == 0
    assert divided_difference(1, a(1) ** 2) == a(1) + a(2)
    assert divided_difference(2, x(1) * q(1)) == 0


def test_divided_difference_defining_quotient():
    # (a_i - a_{i+1}) * (divided difference of f) must equal f - s_i f.
    rng = random.Random(101)
    for _ in range(100)[:100]:
        f = random_polynomial(rng)
        for i in (1, 2):
            lhs = (a(i) - a(i + 1)) * divided_difference(i, f)
            assert lhs == f - f.swap_indices("a", i, i + 1)


def test_divided_difference_word_examples():
    f = a(1) * a(3)
    assert divided_difference_w(identity, f) == f
    # (a1*a3 - a1*a2) / (a2 - a3) = -a1, then d_1(-a1) = -1.
    assert divided_difference(2, f) == -a(1)
    assert divided_difference_w(perm_from_word((1, 2)), f) == -1
    assert divided_difference_w((2, 1), a(1)) == 1


def test_divided_difference_squares_to_zero():
    rng = random.Random(102)
    for _ in range(200):
        f = random_polynomial(rng)
        i = rng.randint(1, 3)
        assert divided_difference(i, divided_difference(i, f)) == 0


def test_braid_relations():
    rng = random.Random(103)
    for _ in range(60):
        f = random_polynomial(rng)
        d1 = lambda g: divided_difference(1, g)
        d2 = lambda g: divided_difference(2, g)
        d4 = lambda g: divided_difference(4, g)
        assert d1(d2(d1(f))) == d2(d1(d2(f)))
        assert d1(d4(f)) == d4(d1(f))


def test_divided_difference_word_independence():
    rng = random.Random(104)
    for w in all_perms(4):
        f = random_polynomial(rng, terms=3, degree=4)
        values = {
            str(_apply_word(word, f)) for word in all_reduced_words(w)
        }
        assert len(values) == 1


def _apply_word(word, f):
    for i in reversed(word):
        f = divided_difference(i, f)
    return f


def test_family_basics():
    for family in FAMILY_KINDS:
        assert schubert_polynomial(identity, family) == 1
    assert schubert_polynomial((2, 1), "classical") == x(1)
    assert schubert_polynomial((2, 1), "double") == x(1) - a(1)
    assert schubert_polynomial((2, 1), "quantum_double") == x(1) - a(1)
    with pytest.raises(ValueError):
        schubert_polynomial((2, 1), "nope")


def test_reflection_formulas():
    # Simple reflections: the quantum double member is omega_i(x) - omega_i(a)
    # and the quantum member collapses to the classical one.
    for i in range(1, 6):
        w = simple(i)
        assert schubert_polynomial(w, "quantum_double") == omega(i) - omega(i, "a")
        assert schubert_polynomial(w, "quantum") == schubert_polynomial(w, "classical")
        assert schubert_polynomial(w, "classical") == omega(i)


def test_reflection_formula_of_s6():
    # The quantum double member of s_6 lives in S_7.
    assert check_reflection_formulas(6) == (True, "i <= 6")


def _plain_chain(composition, quantum, v):
    """The signed chain for v on the multiplied-out top product."""
    top = Polynomial.const(1)
    for factor in schubert._top_factors(composition, quantum).values():
        top = top * factor
    chain = _apply_word(reduced_word(v), top)
    return chain if length(v) % 2 == 0 else -chain


def _chain_cases():
    """v = w (w_0^P)^{-1} for every minimal representative w of every
    composition of n <= 4; (1, 1, 1, 1) gives every v in S_4."""
    cases = []
    for n in range(1, 5):
        for comp in compositions(n):
            ctx = ParabolicContext(comp)
            w0_inverse = inverse(ctx.w0_p())
            cases += [(comp, compose(w, w0_inverse)) for w in ctx.minimal_reps()]
    return cases


@pytest.mark.parametrize("quantum", [True, False])
def test_factored_chain_matches_plain_chain(quantum):
    for comp, v in _chain_cases():
        assert schubert._signed_chain(comp, quantum, v) == _plain_chain(
            comp, quantum, v
        ), (comp, v)
        # Every state the chain for v caches keeps its pending factors'
        # variables out of the partial result.
        u = v
        while True:
            partial, pending = schubert._dd_from_top(comp, quantum, u)
            for t in pending:
                assert partial.specialize({("a", t): 0}) == partial, (comp, u, t)
            if u == identity:
                break
            u = compose(simple(reduced_word(u)[0]), u)


def test_a_free_members_read_off_the_chain_state_are_the_full_ones_at_a_zero():
    # The full member, then a -> 0: how `_a_free_member` read it before it
    # was read off the chain state.  The member pair multiplies to the full
    # member too.
    cases = 0
    for n in range(1, 6):
        for comp in compositions(n):
            for w in ParabolicContext(comp).minimal_reps():
                full = schubert._chain_member(comp, True, w)
                assert schubert._a_free_member(comp, w) == full.zero_out("a"), (comp, w)
                f, g = schubert._member_pair(comp, True, w)
                assert f * g == full, (comp, w)
                cases += 1
    assert cases == 1 + 3 + 13 + 75 + 541


def test_worked_examples():
    assert schubert_polynomial((3, 1, 2), "classical") == x(1) ** 2
    expected = (x(1) - a(1)) * (x(1) - a(2)) - q(1)
    assert schubert_polynomial((3, 1, 2), "quantum_double") == expected
    assert schubert_polynomial((3, 1, 2), "quantum") == x(1) ** 2 - q(1)
    assert schubert_polynomial((2, 3, 1), "classical") == x(1) * x(2)


def test_homogeneity():
    for w in all_perms(4):
        for family in FAMILY_KINDS:
            f = schubert_polynomial(w, family)
            assert graded_degree(f) == length(w)


def test_stability():
    for w in all_perms(4):
        n = max(len(w), 1)
        for family in FAMILY_KINDS:
            small = schubert_polynomial(w, family, n)
            large = schubert_polynomial(w, family, n + 1)
            assert small == large


def test_specialization_square():
    for w in all_perms(4):
        qd = schubert_polynomial(w, "quantum_double")
        via_double = qd.zero_out("q").zero_out("a")
        via_quantum = qd.zero_out("a").zero_out("q")
        assert via_double == via_quantum == schubert_polynomial(w, "classical")
        assert qd.zero_out("q") == schubert_polynomial(w, "double")
        assert qd.zero_out("a") == schubert_polynomial(w, "quantum")


def test_leading_term_is_code_monomial():
    # S_5 is exercised by the acceptance gate; S_4 keeps the unit suite quick.
    for w in all_perms(4):
        expected = code(w)
        for family in FAMILY_KINDS:
            f = schubert_polynomial(w, family)
            vec = x_lead_vector(f)
            assert vec == expected
            mono = tuple((("x", i), e) for i, e in enumerate(vec, start=1) if e)
            assert f.coefficient(mono) == 1


def test_expand_basis_elements():
    for w in all_perms(4):
        expansion = expand_in_schubert_basis(
            schubert_polynomial(w, "quantum_double"), "quantum_double"
        )
        assert expansion == {w: Polynomial.const(1)}


def test_expand_worked_examples():
    expansion = expand_in_schubert_basis(x(1) ** 2, "quantum")
    assert expansion == {(3, 1, 2): Polynomial.const(1), identity: q(1)}
    expansion = expand_in_schubert_basis((x(1) - a(1)) ** 2, "quantum_double")
    assert expansion == {
        (3, 1, 2): Polynomial.const(1),
        (2, 1): a(2) - a(1),
        identity: q(1),
    }
    assert expand_in_schubert_basis(Polynomial.zero(), "classical") == {}


def test_expand_rejects_wrong_ring():
    with pytest.raises(ValueError):
        expand_in_schubert_basis(a(1) * x(1), "quantum")
    with pytest.raises(ValueError):
        expand_in_schubert_basis(q(1) * x(1), "classical")


def test_expand_round_trip():
    # Degree 4 for the a/q-carrying families: their expansions can walk out
    # to basis elements of larger support than the input degree suggests,
    # and the quantum-side top products grow too fast past S_6 to expand.
    vars_by_family = {
        "classical": ("x", 5),
        "double": ("xa", 4),
        "quantum": ("xq", 4),
        "quantum_double": ("xaq", 4),
    }
    for family, (fams, degree) in vars_by_family.items():
        rng = random.Random(105)
        for trial in range(100):
            if trial % 2 == 0:
                f = random_polynomial(rng, fams, max_vars=2, max_exp=3, degree=degree)
            else:
                f = random_polynomial(rng, fams, max_vars=3, max_exp=2, degree=degree)
            expansion = expand_in_schubert_basis(f, family)
            assert reconstruct(expansion, family) == f
            assert all(c for c in expansion.values())


def test_cauchy_examples():
    assert cauchy_rhs(identity, quantum=True) == 1
    assert cauchy_rhs((2, 1), quantum=True) == x(1) - a(1)
    expected = (x(1) - a(1)) * (x(1) - a(2)) - q(1)
    assert cauchy_rhs((3, 1, 2), quantum=True) == expected


def test_cauchy_all_s4():
    for w in all_perms(4):
        assert cauchy_rhs(w, quantum=False) == schubert_polynomial(w, "double")
        assert cauchy_rhs(w, quantum=True) == schubert_polynomial(w, "quantum_double")


def test_unitriangular_elementary_differences():
    # e_i^p(x) - e_i^p(a) expands over the cycles c_{j,p} with unit diagonal.
    for p in range(1, 5):
        for i in range(1, p + 1):
            f = elementary_symmetric(i, [("x", t) for t in range(1, p + 1)])
            g = elementary_symmetric(i, [("a", t) for t in range(1, p + 1)])
            expansion = expand_in_schubert_basis(f - g, "double")
            cycles = {cycle(j, p) for j in range(1, p + 1)}
            assert set(expansion) <= cycles
            assert expansion[cycle(i, p)] == 1


def test_bruhat_support_of_products():
    for u in all_perms(3):
        for v in all_perms(3):
            product = schubert_polynomial(u, "double") * schubert_polynomial(
                v, "double"
            )
            for w in expand_in_schubert_basis(product, "double"):
                assert bruhat_leq(u, w)
                assert bruhat_leq(v, w)


def test_quantum_elementary():
    assert quantum_elementary(2, 2) == x(1) * x(2) + q(1)
    assert quantum_elementary(0, 3) == 1
    assert quantum_elementary(4, 3) == 0
    assert quantum_elementary(-1, 3) == 0


def test_x_to_minus_a():
    f = x(1) * x(2) + x(1)
    assert x_to_minus_a(f) == a(1) * a(2) - a(1)
