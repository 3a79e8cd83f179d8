"""Standard monomial bases and the quantization map."""

import itertools
import math
import random

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from qschub import quantization
from qschub.poly import Polynomial, variable, x_order_key
from qschub.parabolic import theta_P
from qschub.quantization import (
    E_monomial,
    E_relation_residual,
    EchelonSlice,
    _xgcd,
    decompose_in_E,
    e_monomial,
    e_relation_residual,
    partition_tuples,
    standard_decompose,
    theta,
)
from qschub.schubert import schubert_polynomial
from qschub.weyl import ParabolicContext, all_perms

x1 = variable("x", 1)
x2 = variable("x", 2)
x3 = variable("x", 3)


def is_standard(index) -> bool:
    index = tuple(index)
    if index and index[-1] == 0:
        return False
    return all(0 <= entry <= r for r, entry in enumerate(index, start=1))


def standard_indices(degree: int, max_level: int):
    """All standard indices of weight `degree` supported on levels <= max_level,
    by direct recursion over the levels."""
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
    return out


def rebuild(decomposition, monomial_fn):
    total = Polynomial.zero()
    for index, c in decomposition.items():
        total = total + monomial_fn(index) * c
    return total


class TestStandardMonomials:
    def test_singleton(self):
        assert e_monomial((1,)) == x1
        assert E_monomial((1,)) == x1

    def test_level_two(self):
        assert e_monomial((0, 2)) == x1 * x2
        assert E_monomial((0, 2)) == x1 * x2 + variable("q", 1)

    def test_empty(self):
        assert e_monomial(()) == 1
        assert E_monomial(()) == 1

    def test_rejects_nonstandard(self):
        with pytest.raises(ValueError):
            e_monomial((2,))
        with pytest.raises(ValueError):
            E_monomial((0, 3))
        assert not is_standard((2,))
        assert is_standard((1, 2, 3))
        assert not is_standard((1, 0))  # trailing zero not trimmed

    def test_e_specializes_E(self):
        for index in standard_indices(4, 4):
            assert E_monomial(index).zero_out("q") == e_monomial(index)

    def test_standard_indices_enumeration(self):
        found = set(standard_indices(2, 3))
        assert found == {(0, 2), (1, 1), (0, 1, 1), (1, 0, 1), (0, 0, 2), (2,)} - {
            (2,)
        }  # i_1 <= 1 rules out (2,)
        for d in range(5):
            for index in standard_indices(d, d + 2):
                assert is_standard(index)
                assert sum(index) == d

    def test_full_flag_partition_tuples_are_standard_indices(self):
        # Under (1,...,1) level r holds (i_r), or () when i_r = 0.
        for levels in range(1, 7):
            ctx = ParabolicContext((1,) * (levels + 1))
            for d in range(6):
                relabelled = [
                    tuple(lam[0] if lam else 0 for lam in tup)
                    for tup in partition_tuples(ctx, d, levels)
                ]
                assert relabelled == standard_indices(d, levels), (d, levels)


class TestStandardDecompose:
    def test_x1(self):
        assert standard_decompose(x1) == {(1,): 1}

    def test_x1_squared(self):
        assert standard_decompose(x1 * x1) == {(1, 1): 1, (0, 2): -1}

    def test_e12(self):
        assert standard_decompose(x1 + x2) == {(0, 1): 1}

    def test_constant_and_zero(self):
        assert standard_decompose(Polynomial.const(5)) == {(): 5}
        assert standard_decompose(Polynomial.zero()) == {}

    def test_rejects_mixed_input(self):
        with pytest.raises(ValueError):
            standard_decompose(x1 + variable("a", 1))

    def test_round_trip_random(self):
        rng = random.Random(20260815)
        for _ in range(60):
            f = Polynomial.zero()
            for _ in range(rng.randrange(1, 6)):
                mono = []
                for idx in rng.sample(range(1, 5), rng.randrange(0, 3)):
                    mono.append((("x", idx), rng.randrange(1, 4)))
                term = Polynomial({tuple(sorted(mono)): rng.randrange(-9, 10) or 1})
                f = f + term
            decomposition = standard_decompose(f)
            assert rebuild(decomposition, e_monomial) == f

    def test_decomposition_unique(self):
        # Two routes to the same polynomial agree coefficient by coefficient.
        f = (x1 + x2) * (x1 + x2) * x1
        g = x1 * x1 * x1 + x1 * x1 * x2 * 2 + x1 * x2 * x2
        assert standard_decompose(f) == standard_decompose(g)


class TestStraighteningRelations:
    def test_classical_relation(self):
        for p in range(5):
            for i in range(p + 1):
                for j in range(i + 1):
                    assert not e_relation_residual(i, j, p), (i, j, p)

    def test_quantum_relation(self):
        for p in range(5):
            for i in range(p + 1):
                for j in range(i + 1):
                    assert not E_relation_residual(i, j, p), (i, j, p)


class TestTheta:
    def test_fixes_linear(self):
        assert theta(x1) == x1

    def test_x1_squared(self):
        assert theta(x1 * x1) == x1 * x1 - variable("q", 1)

    def test_fixes_a_and_q(self):
        a1 = variable("a", 1)
        q1 = variable("q", 1)
        f = a1 * a1 * q1 + a1 * 3 - q1 * q1
        assert theta(f) == f

    def test_linear_over_aq_strata(self):
        a2 = variable("a", 2)
        q2 = variable("q", 2)
        f = x1 * x1
        assert theta(a2 * q2 * f) == a2 * q2 * theta(f)

    def test_matches_quantum_family(self):
        for w in all_perms(4):
            assert theta(schubert_polynomial(w, "classical")) == schubert_polynomial(
                w, "quantum"
            ), w

    def test_matches_quantum_double_family(self):
        for w in all_perms(4):
            assert theta(schubert_polynomial(w, "double")) == schubert_polynomial(
                w, "quantum_double"
            ), w


class TestEDecomposition:
    def test_inverts_theta_on_q_free(self):
        rng = random.Random(97)
        for _ in range(25):
            f = Polynomial.zero()
            for _ in range(rng.randrange(1, 5)):
                mono = []
                for idx in rng.sample(range(1, 4), rng.randrange(0, 3)):
                    mono.append((("x", idx), rng.randrange(1, 3)))
                f = f + Polynomial({tuple(sorted(mono)): rng.randrange(-5, 6) or 2})
            image = theta(f)
            coords = decompose_in_E(image)
            assert rebuild(coords, E_monomial) == image
            recovered = Polynomial.zero()
            for index, c in coords.items():
                assert c.is_constant()
                recovered = recovered + e_monomial(index) * c.constant_value()
            assert recovered == f

    def test_recovers_planted_combination(self):
        q1 = variable("q", 1)
        q2 = variable("q", 2)
        combo = {
            (1, 2): Polynomial.const(3),
            (0, 0, 3): q1 * q1 - q2,
            (): q2 * 7,
        }
        f = Polynomial.zero()
        for index, c in combo.items():
            f = f + c * E_monomial(index)
        assert decompose_in_E(f) == combo

    def test_rejects_a_variables(self):
        with pytest.raises(ValueError):
            decompose_in_E(variable("a", 1) * x1)

    def test_stops_when_a_round_makes_no_progress(self, monkeypatch):
        # With E_I = 2 e_I a round flips the sign of the lowest q-stratum
        # instead of removing it, so the loop would never end.
        monkeypatch.setattr(quantization, "E_monomial", lambda ix: 2 * e_monomial(ix))
        with pytest.raises(RuntimeError, match="no progress"):
            decompose_in_E(x1 * x2)


def test_theta_P_on_the_full_flag_reuses_the_standard_slice():
    quantization._g_slice.cache_clear()
    f = x1 * x1 * variable("x", 3) + x1 * x2 * variable("x", 3) * 2 - x2**3
    standard_decompose(f)
    misses = quantization._g_slice.cache_info().misses
    assert misses == 1
    theta_P(ParabolicContext((1, 1, 1)), f)
    assert quantization._g_slice.cache_info().misses == misses


def test_slice_beyond_the_layout_fails_at_once():
    # The staircase of x5^12 is 5 + 12 = 17, past x16.
    with pytest.raises(ValueError, match="packed layout"):
        theta(variable("x", 5) ** 12)


def test_slice_is_sized_by_the_staircase():
    # x1^3*x2^2*x3 has staircase 4, so its one slice is ((1, 1, 1, 1), 6),
    # levels 1..3, and the only standard index of weight 6 there is (1, 2, 3).
    quantization._g_slice.cache_clear()
    assert standard_decompose(x1**3 * x2**2 * x3) == {(1, 2, 3): 1}
    assert quantization._g_slice.cache_info().currsize == 1
    built = quantization._g_slice((1, 1, 1, 1), 6)
    assert quantization._g_slice.cache_info().misses == 1
    assert len(built.rows) == 1 and not built.pending


class TestIntegerEchelon:
    def test_hermite_step_on_coinciding_leads(self):
        # Both rows lead at x2^2, with coefficients 2 and 3; neither divides
        # the other, so placing the second row takes a Hermite step, and the
        # pivot at x2^2 becomes their gcd.
        rows = {"A": 2 * x2 * x2 + x1 * x2, "B": 3 * x2 * x2 + x1 * x1}
        lead = x_order_key((0, 2))
        table = EchelonSlice([(lead, "A"), (lead, "B")], rows.__getitem__)
        assert table.decompose(rows["B"] - rows["A"]) == {"A": -1, "B": 1}
        assert table.rows[lead][0] == 1
        assert len(table.rows) == 2 and not table.pending
        assert table.decompose(rows["A"] * 5 + rows["B"] * -7) == {"A": 5, "B": -7}

    def test_outside_the_integer_span_raises(self):
        table = EchelonSlice([(x_order_key((1,)), "A")], lambda _: 2 * x1)
        with pytest.raises(RuntimeError, match="level bound too small"):
            table.decompose(x1)

    @pytest.mark.parametrize("a, b", [(3, 2), (2, 3), (-4, 6), (6, -4), (5, 0), (-7, -21)])
    def test_xgcd(self, a, b):
        g, u, v = _xgcd(a, b)
        assert g == math.gcd(a, b) and u * a + v * b == g


class TestWideCorrectness:
    def test_monomial_round_trip(self):
        # Every monomial in x1..x3 up to degree 6, and x1^2*x2^5, the first
        # whose slice needs a Hermite step.
        monomials = [
            x1**e1 * x2**e2 * x3**e3
            for e1, e2, e3 in itertools.product(range(7), repeat=3)
            if e1 + e2 + e3 <= 6
        ]
        for mono in monomials + [x1**2 * x2**5]:
            assert rebuild(standard_decompose(mono), e_monomial) == mono, mono

    def test_theta_matches_quantum_members_on_s5_and_beyond(self):
        for w in [*all_perms(5), (3, 6, 2, 1, 4, 5)]:
            for family, quantum in (("classical", "quantum"), ("double", "quantum_double")):
                image = theta(schubert_polynomial(w, family))
                assert image == schubert_polynomial(w, quantum), (w, family)


# -- Z[a, q]-linearity ---------------------------------------------------------------

LINEARITY = settings(max_examples=40, derandomize=True, database=None, deadline=None)


def _aq_monomial(exponents) -> Polynomial:
    # Exponents of a1, a2, a3, then q1, q2, q3.
    out = Polynomial.const(1)
    for slot, e in enumerate(exponents):
        out = out * variable("aq"[slot // 3], slot % 3 + 1) ** e
    return out


AQ_MONOMIALS = st.tuples(*[st.integers(0, 2)] * 6).map(_aq_monomial)
FAMILIES = st.sampled_from(("classical", "double"))


@LINEARITY
@given(
    p=AQ_MONOMIALS,
    r=AQ_MONOMIALS,
    f_key=st.tuples(st.sampled_from(all_perms(4)), FAMILIES),
    g_key=st.tuples(st.sampled_from(all_perms(4)), FAMILIES),
)
def test_theta_is_linear_over_aq(p, r, f_key, g_key):
    f, g = schubert_polynomial(*f_key), schubert_polynomial(*g_key)
    assume(f.staircase() != g.staircase())
    assert theta(p * f + r * g) == p * theta(f) + r * theta(g)


@LINEARITY
@given(
    composition=st.sampled_from(((1, 2, 1), (2, 1, 1))),
    p=AQ_MONOMIALS,
    r=AQ_MONOMIALS,
    picks=st.tuples(st.integers(0, 11), st.integers(0, 11), FAMILIES, FAMILIES),
)
def test_theta_P_is_linear_over_aq(composition, p, r, picks):
    ctx = ParabolicContext(composition)
    reps = ctx.minimal_reps()
    i, j, f_family, g_family = picks
    assume(i % len(reps) != j % len(reps))
    f = schubert_polynomial(reps[i % len(reps)], f_family, ctx.n)
    g = schubert_polynomial(reps[j % len(reps)], g_family, ctx.n)
    assert theta_P(ctx, p * f + r * g) == p * theta_P(ctx, f) + r * theta_P(ctx, g)


def test_a_second_theta_places_no_row_and_decomposes_no_monomial_twice(monkeypatch):
    calls = {"rows": 0, "decomposed": []}
    place, decompose = EchelonSlice._place_next_row, EchelonSlice.decompose

    def counting_place(self):
        calls["rows"] += 1
        place(self)

    def recording_decompose(self, f):
        calls["decomposed"].append((self, tuple(f.terms)))
        return decompose(self, f)

    monkeypatch.setattr(EchelonSlice, "_place_next_row", counting_place)
    monkeypatch.setattr(EchelonSlice, "decompose", recording_decompose)
    quantization._g_slice.cache_clear()
    # The a-strata of a double member share x-monomials.
    f = schubert_polynomial((2, 4, 1, 5, 3), "double")
    first = theta(f)
    rows, decomposed = calls["rows"], list(calls["decomposed"])
    assert rows and len(set(decomposed)) == len(decomposed)
    assert len(decomposed) < sum(len(part.terms) for part in f.split("aq").values())
    assert theta(f) == first
    assert calls["rows"] == rows and calls["decomposed"] == decomposed
