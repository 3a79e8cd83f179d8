"""Divided differences, the four Schubert families, expansion and Cauchy sums."""

import random

import pytest

from oracles import (
    bruhat_leq,
    d_matrix,
    leibniz_det,
    unfused_chain_state,
    unfused_reading,
)
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
from qschub.selftest import (
    check_cauchy,
    check_quantization,
    check_reflection_formulas,
    check_stability,
    compositions,
)
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
    weak_order_ideal,
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


def _plain_chain(composition, zero, v):
    """The signed chain for v on the multiplied-out top product, with the
    variable family `zero` set to 0 in each factor before the chain."""
    top = Polynomial.const(1)
    for factor in schubert._top_factors(composition).values():
        top = top * (factor.zero_out(zero) if zero else factor)
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


@pytest.mark.parametrize("zero", ["", "q"])
def test_factored_chain_matches_plain_chain(zero):
    # At q = 0 the plain chain runs on the double top product, the q-free
    # factors prod (x_t - a_i): the route the q = 0 reading replaced.
    for comp, v in _chain_cases():
        assert schubert._signed_chain(comp, zero, v) == _plain_chain(
            comp, zero, v
        ), (comp, v)
        # Every state the chain for v caches keeps its pending factors'
        # variables out of the partial result.
        u = v
        while True:
            partial, pending = schubert._dd_from_top(comp, u)
            for t in pending:
                assert partial.specialize({("a", t): 0}) == partial, (comp, u, t)
            if u == identity:
                break
            u = compose(simple(reduced_word(u)[0]), u)


def test_readings_of_the_chain_state_are_the_full_member_at_zero():
    # The full member, then q -> 0 or a -> 0: each reading of the chain state
    # sets the family to 0 in its partial result and pending factors instead.
    # Each last product of the state multiplies to its reading too.
    cases = 0
    for n in range(1, 6):
        for comp in compositions(n):
            ctx = ParabolicContext(comp)
            w0_inverse = inverse(ctx.w0_p())
            for w in ctx.minimal_reps():
                v = compose(w, w0_inverse)
                state = schubert._dd_from_top(comp, v)
                full = schubert._chain_member(comp, "", w)
                f, g = schubert._last_product(comp, "", v, state)
                assert f * g == full, (comp, w)
                for zero in "qa":
                    reading = schubert._chain_member(comp, zero, w)
                    assert reading == full.zero_out(zero), (comp, w, zero)
                    f, g = schubert._last_product(comp, zero, v, state)
                    assert f * g == reading, (comp, w, zero)
                cases += 1
    assert cases == 1 + 3 + 13 + 75 + 541


def _walks():
    """(composition, its minimal representatives, the walk's yields as a
    list) for every composition of n <= 5."""
    for n in range(1, 6):
        for comp in compositions(n):
            reps = ParabolicContext(comp).minimal_reps()
            yield comp, reps, list(schubert._chain_walk(comp))


def test_chain_walk_yields_each_v_of_the_quotient_once():
    for comp, reps, walk in _walks():
        w0_inverse = inverse(ParabolicContext(comp).w0_p())
        vs = [v for _, v, _ in walk]
        assert len(vs) == len(set(vs)) == len(reps), comp
        assert sorted(w for w, _, _ in walk) == sorted(reps), comp
        assert all(v == compose(w, w0_inverse) for w, v, _ in walk), comp


def test_chain_walk_states_are_the_cached_chain_states():
    for comp, _, walk in _walks():
        for w, v, (partial, pending) in walk:
            cached_partial, cached_pending = schubert._dd_from_top(comp, v)
            assert partial == cached_partial, (comp, w)
            assert pending == cached_pending, (comp, w)


def test_chain_walk_from_a_top_steps_with_the_narrower_walk():
    # The walk of c + (1,) from w_0^P of c yields the w of the walk of c in
    # its order, each with the chain state of w (w_0^{P'})^{-1} on c + (1,).
    for comp, _, walk in _walks():
        wider = comp + (1,)
        top = ParabolicContext(comp).w0_p()
        w0_inverse = inverse(ParabolicContext(wider).w0_p())
        wide_walk = list(schubert._chain_walk(wider, top))
        assert [w for w, _, _ in wide_walk] == [w for w, _, _ in walk], comp
        for w, v, state in wide_walk:
            assert v == compose(w, w0_inverse), (comp, w)
            assert state == schubert._dd_from_top(wider, v), (comp, w)


def test_chain_walk_yields_each_ideal_before_its_w():
    for comp, _, walk in _walks():
        yielded = set()
        for w, _, _ in walk:
            assert set(weak_order_ideal(w)) - {w} <= yielded, (comp, w)
            yielded.add(w)


def test_fused_chain_matches_the_unfused_oracle():
    # The oracle multiplies each pending factor into the partial result and
    # then takes the plain d_i, along a reduced word of its own; a reading
    # multiplies every factor in.  So it shares no step with the fused one.
    for comp, _, walk in _walks():
        memo: dict = {}
        for w, v, state in walk:
            expected = unfused_chain_state(comp, reduced_word(v), memo)
            assert state == expected == schubert._dd_from_top(comp, v), (comp, w)
            # With no factor pending, the sign is on f and g is 1.
            sign = -1 if not state[1] and length(v) % 2 else 1
            for zero in ("", "q", "a"):
                f, g = schubert._last_product(comp, zero, v, state)
                assert f == sign * expected[0].zero_out(zero), (comp, w, zero)
                assert f * g == unfused_reading(comp, zero, v, expected), (comp, w, zero)


def test_walked_suites_fill_no_chain_cache():
    schubert._dd_from_top.cache_clear()
    schubert._signed_chain.cache_clear()
    assert check_cauchy(4)[0] and check_quantization(4)[0] and check_stability(4)[0]
    assert schubert._dd_from_top.cache_info().misses == 0
    assert schubert._signed_chain.cache_info().misses == 0


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


def test_quantum_elementary_c1():
    assert [quantum_elementary(j, 1) for j in range(2)] == [1, x(1)]


def test_quantum_elementary_c2():
    assert quantum_elementary(0, 2) == 1
    assert quantum_elementary(1, 2) == x(1) + x(2)
    assert quantum_elementary(2, 2) == x(1) * x(2) + q(1)


def test_quantum_elementary_reduces_to_elementary_at_q_zero():
    for n in range(1, 7):
        vs = [("x", i) for i in range(1, n + 1)]
        for j in range(n + 1):
            e = quantum_elementary(j, n)
            assert e.zero_out("q") == elementary_symmetric(j, vs)
            # Each coefficient is homogeneous for deg q_i = 2.
            assert graded_degree(e) == j


def test_d_coefficients_match_the_leibniz_determinant():
    # a9 occurs in no entry of D, so det(D - a9*Id) pins every coefficient.
    t = a(9)
    for n in range(1, 6):
        for comp in compositions(n):
            entries = d_matrix(ParabolicContext(comp))
            coeffs = schubert._d_char_coeffs(comp)
            assert len(coeffs) == n + 1 and coeffs[0] == 1
            value = Polynomial.zero()
            for c in coeffs:
                value = value * -t + c
            expected = leibniz_det(
                n,
                lambda r, c: entries.get((r, c), Polynomial.zero())
                - (t if r == c else 0),
            )
            assert value == expected, comp


def test_d_coefficients_of_two_block_compositions_by_hand():
    # D for (2, 1) and (1, 2) is [[x1, -1, 0], [0, x2, -1], [s q1, 0, x3]],
    # with s = +1 for n_2 = 1 odd and s = -1 for n_2 = 2 even; expanding
    # along the last row, det D = x1 x2 x3 + s q1.
    e1 = x(1) + x(2) + x(3)
    e2 = x(1) * x(2) + x(1) * x(3) + x(2) * x(3)
    e3 = x(1) * x(2) * x(3)
    assert schubert._d_char_coeffs((2, 1)) == (1, e1, e2, e3 + q(1))
    assert schubert._d_char_coeffs((1, 2)) == (1, e1, e2, e3 - q(1))


def test_x_to_minus_a():
    f = x(1) * x(2) + x(1)
    assert x_to_minus_a(f) == a(1) * a(2) - a(1)
