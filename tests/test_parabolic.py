"""Parabolic members, quantization, Cauchy and stability."""

import importlib
import itertools
import pkgutil

import pytest

import qschub
from qschub.poly import Polynomial, a, graded_degree, q, x
from qschub.parabolic import (
    G_polynomial,
    G_tuple,
    expand_in_parabolic_basis,
    g_tuple,
    parabolic_cauchy_rhs,
    parabolic_q_double_schubert,
    partition_tuples,
    theta_P,
)
from qschub.quantization import theta
from qschub.schubert import (
    divided_difference,
    schubert_polynomial,
    x_to_minus_a,
)
from qschub.weyl import ParabolicContext, all_perms, extend, length, simple, trim

CTX213 = ParabolicContext((2, 1, 3))


def compositions(n):
    out = []
    for cuts in range(1 << (n - 1)):
        comp = []
        run = 1
        for pos in range(n - 1):
            if cuts >> pos & 1:
                comp.append(run)
                run = 1
            else:
                run += 1
        comp.append(run)
        out.append(tuple(comp))
    return out


def det_d(ctx, j, value):
    size = ctx.partial_sums[j - 1]
    total = Polynomial.zero()
    for i in range(size + 1):
        total = total + G_polynomial(ctx, i, j) * ((-value) ** (size - i))
    return total


class TestDMatrix:
    def test_d1_determinant(self):
        assert det_d(CTX213, 1, a(4)) == (x(1) - a(4)) * (x(2) - a(4))

    def test_d2_determinant(self):
        expect = (x(1) - a(4)) * (x(2) - a(4)) * (x(3) - a(4)) + q(1)
        assert det_d(CTX213, 2, a(4)) == expect

    def test_g_constant_term(self):
        for j in (1, 2, 3):
            assert G_polynomial(CTX213, 0, j) == 1

    def test_g_worked_value(self):
        assert G_polynomial(CTX213, 3, 2) == x(1) * x(2) * x(3) + q(1)

    def test_g_specializes_to_elementary(self):
        from qschub.poly import elementary_symmetric

        for ctx in (CTX213, ParabolicContext((2, 2)), ParabolicContext((3, 1))):
            for j in range(1, ctx.k + 1):
                nj = ctx.partial_sums[j - 1]
                for i in range(nj + 1):
                    e = elementary_symmetric(i, [("x", t) for t in range(1, nj + 1)])
                    assert G_polynomial(ctx, i, j).zero_out("q") == e

    def test_g_homogeneous(self):
        degrees = {j: CTX213.q_degree(j) for j in range(1, CTX213.k)}
        for j in range(1, 4):
            for i in range(CTX213.partial_sums[j - 1] + 1):
                g = G_polynomial(CTX213, i, j)
                if g:
                    assert graded_degree(g, degrees) == i

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            G_polynomial(CTX213, 1, 4)
        with pytest.raises(ValueError):
            G_polynomial(CTX213, 3, 1)

    def test_bridge_straightening_at_extension_levels(self):
        # Quadratic relation tying the G families at levels p-1, p, p+1.  It
        # holds at the singleton-extension levels p >= k (the ones the
        # stability of the basis under appending blocks rests on); for p < k
        # with unequal adjacent block sizes it is false, so the range below
        # is the honest scope.
        def G(ctx, m, lvl):
            if lvl == 0:
                return Polynomial.const(1 if m == 0 else 0)
            size = ctx.partial_sums[lvl - 1]
            if m < 0 or m > size:
                return Polynomial.zero()
            return G_polynomial(ctx, m, lvl)

        for base in ((2, 1), (1, 2), (2, 2), (3, 1), (2, 1, 3)):
            k = len(base)
            ctx = ParabolicContext(base + (1,) * 3)
            for p in range(k, k + 3):
                drop = ctx.composition[p - 1] + ctx.composition[p]
                top = ctx.partial_sums[p - 1] + 1
                for i in range(top + 1):
                    # i == j is an identity by inspection; check i < j.
                    for j in range(i + 1, top + 1):
                        lhs = (
                            G(ctx, i, p) * G(ctx, j + 1, p + 1)
                            + G(ctx, i + 1, p) * G(ctx, j, p)
                            + q(p) * G(ctx, i + 1 - drop, p - 1) * G(ctx, j, p)
                        )
                        rhs = (
                            G(ctx, j, p) * G(ctx, i + 1, p + 1)
                            + G(ctx, j + 1, p) * G(ctx, i, p)
                            + q(p) * G(ctx, j + 1 - drop, p - 1) * G(ctx, i, p)
                        )
                        assert lhs == rhs, (base, p, i, j)


class TestMembers:
    def test_top_member_closed_product(self):
        top = parabolic_q_double_schubert(CTX213, CTX213.w0_p())
        expect = (x(1) - a(4)) * (x(2) - a(4))
        for i in (1, 2, 3):
            expect = expect * (
                (x(1) - a(i)) * (x(2) - a(i)) * (x(3) - a(i)) + q(1)
            )
        assert top == expect

    def test_identity_member(self):
        assert parabolic_q_double_schubert(ParabolicContext((2, 1)), ()) == 1
        assert parabolic_q_double_schubert(ParabolicContext((4,)), ()) == 1

    def test_all_ones_reduces_to_full_flag(self):
        ones = ParabolicContext((1, 1, 1, 1))
        for w in all_perms(4):
            assert parabolic_q_double_schubert(ones, w) == schubert_polynomial(
                w, "quantum_double", 4
            ), w

    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            parabolic_q_double_schubert(ParabolicContext((2, 2)), (2, 1))

    def test_homogeneous_of_length_degree(self):
        for comp in compositions(4):
            ctx = ParabolicContext(comp)
            degrees = {j: ctx.q_degree(j) for j in range(1, ctx.k)}
            for w in ctx.minimal_reps():
                member = parabolic_q_double_schubert(ctx, w)
                assert graded_degree(member, degrees) == length(w), (comp, w)

    def test_specializations(self):
        for comp in compositions(4):
            ctx = ParabolicContext(comp)
            for w in ctx.minimal_reps():
                member = parabolic_q_double_schubert(ctx, w)
                assert member.zero_out("q") == schubert_polynomial(w, "double", 4)
                assert member.zero_out("q").zero_out("a") == schubert_polynomial(
                    w, "classical", 4
                )


class TestThetaP:
    def test_basis_element(self):
        ctx = ParabolicContext((2, 2))
        big = ParabolicContext(ctx.composition + (1,) * 3)
        for tup in partition_tuples(big, 3, ctx.k + 2):
            assert theta_P(ctx, g_tuple(big, tup)) == G_tuple(big, tup), tup

    def test_all_ones_agrees_with_theta(self):
        ones = ParabolicContext((1, 1, 1, 1))
        for w in all_perms(4):
            f = schubert_polynomial(w, "classical")
            assert theta_P(ones, f) == theta(f), w

    def test_classical_image_matches_quantum_member(self):
        ctx = ParabolicContext((2, 2))
        for w in ctx.minimal_reps():
            lhs = theta_P(ctx, schubert_polynomial(w, "classical", 4))
            rhs = parabolic_q_double_schubert(ctx, w).zero_out("a")
            assert lhs == rhs, w

    def test_double_image_matches_member(self):
        for comp in compositions(4):
            ctx = ParabolicContext(comp)
            for w in ctx.minimal_reps():
                lhs = theta_P(ctx, schubert_polynomial(w, "double", 4))
                rhs = parabolic_q_double_schubert(ctx, w)
                assert lhs == rhs, (comp, w)

    def test_every_member_up_to_n5(self):
        # The q = 0 member is the double Schubert polynomial, W_P-invariant;
        # theta_P sends it back to the member.
        pairs = 0
        for n in range(2, 6):
            for comp in compositions(n)[1:]:  # all but (n,)
                ctx = ParabolicContext(comp)
                for w in ctx.minimal_reps():
                    member = parabolic_q_double_schubert(ctx, w)
                    assert theta_P(ctx, member.zero_out("q")) == member, (comp, w)
                    pairs += 1
        assert pairs == 628

    def test_monomial_that_needs_a_hermite_step(self):
        # The classical member of [4,5,1,2,3] on (2,2,1).
        got = theta_P(ParabolicContext((2, 2, 1)), x(1) ** 3 * x(2) ** 3)
        assert got == x(1) ** 3 * x(2) ** 3 - q(1) * (x(1) ** 2 + x(1) * x(2) + x(2) ** 2)

    def test_rejects_non_invariant(self):
        with pytest.raises(ValueError):
            theta_P(ParabolicContext((2, 1)), x(1))

    def test_fixes_a_and_q(self):
        ctx = ParabolicContext((2, 1))
        f = a(1) * q(1) - a(2) * 3
        assert theta_P(ctx, f) == f


class TestParabolicCauchy:
    def test_identity(self):
        assert parabolic_cauchy_rhs(ParabolicContext((2, 1)), ()) == 1

    def test_s2_worked(self):
        ctx = ParabolicContext((2, 2))
        s2 = simple(2)
        expect = parabolic_q_double_schubert(ctx, s2).zero_out("a") + x_to_minus_a(
            schubert_polynomial(s2, "classical")
        )
        assert parabolic_cauchy_rhs(ctx, s2) == expect

    def test_matches_member_everywhere(self):
        for comp in compositions(4):
            ctx = ParabolicContext(comp)
            for w in ctx.minimal_reps():
                assert parabolic_cauchy_rhs(ctx, w) == parabolic_q_double_schubert(
                    ctx, w
                ), (comp, w)

    def test_rejects_non_minimal(self):
        with pytest.raises(ValueError):
            parabolic_cauchy_rhs(ParabolicContext((2, 2)), (2, 1))


def stability_trim(ctx, w):
    """Drop the last block from ctx, given that w fixes all of its positions.

    Trimming the only block yields the empty context, reported as None; the
    member attached to it is the constant 1.
    """
    w = trim(w)
    boundary = ctx.partial_sums[-2] if ctx.k > 1 else 0
    line = extend(w, ctx.n)
    moved = [r for r in range(boundary + 1, ctx.n + 1) if line[r - 1] != r]
    if moved:
        raise ValueError(f"w moves positions {moved} in the last block")
    if ctx.k == 1:
        return None, w
    return ParabolicContext(ctx.composition[:-1]), w


class TestStability:
    def test_trim_keeps_polynomial(self):
        w = (2, 3, 1)
        small, w2 = stability_trim(CTX213, extend(w, 6))
        assert small.composition == (2, 1) and w2 == w
        assert parabolic_q_double_schubert(CTX213, w) == parabolic_q_double_schubert(
            small, w2
        )

    def test_single_block_edge(self):
        ctx, w = stability_trim(ParabolicContext((4,)), ())
        assert ctx is None and w == ()
        assert parabolic_q_double_schubert(ParabolicContext((4,)), ()) == 1

    def test_append_then_trim_round_trip(self):
        ctx = ParabolicContext((2, 1))
        grown = ParabolicContext(ctx.composition + (1,))
        for w in ctx.minimal_reps():
            back, w2 = stability_trim(grown, w)
            assert back.composition == ctx.composition and w2 == w
            assert parabolic_q_double_schubert(
                grown, w
            ) == parabolic_q_double_schubert(ctx, w)

    def test_rejects_moved_block(self):
        with pytest.raises(ValueError):
            stability_trim(CTX213, (1, 2, 3, 5, 4, 6))

    def test_divided_difference_descending_chain(self):
        # The full descending chain kills a^beta unless beta_1 = n-1, in which
        # case it shifts the exponents down one slot.
        for n in range(2, 5):
            betas = itertools.product(
                *[range(n - i + 1) if i > 1 else range(n) for i in range(1, n + 1)]
            )
            for beta in betas:
                f = Polynomial({tuple((("a", i), e) for i, e in enumerate(beta, 1) if e): 1})
                for i in range(1, n):
                    f = divided_difference(i, f)
                if beta[0] < n - 1:
                    assert not f, (n, beta)
                else:
                    mono = tuple(
                        (("a", i), e) for i, e in enumerate(beta[1:], start=1) if e
                    )
                    assert f == Polynomial({mono: 1}), (n, beta)


class TestExpansion:
    def test_product_round_trip(self):
        ctx = ParabolicContext((2, 1))
        reps = ctx.minimal_reps()
        for u in reps:
            for v in reps:
                f = parabolic_q_double_schubert(ctx, u) * parabolic_q_double_schubert(
                    ctx, v
                )
                expansion = expand_in_parabolic_basis(f, ctx)
                back = Polynomial.zero()
                for w, c in expansion.items():
                    extra = (1,) * max(len(w) - ctx.n, 0)
                    sub = ParabolicContext(ctx.composition + extra)
                    back = back + c * parabolic_q_double_schubert(sub, w)
                assert back == f, (u, v)

    def test_basis_element_expansion(self):
        ctx = ParabolicContext((2, 2))
        for w in ctx.minimal_reps():
            member = parabolic_q_double_schubert(ctx, w)
            assert expand_in_parabolic_basis(member, ctx) == {w: Polynomial.const(1)}

    def test_rejects_outside_span(self):
        with pytest.raises(ValueError):
            expand_in_parabolic_basis(x(1), ParabolicContext((2, 1)))


def package_caches() -> dict:
    """{"module.name": cache} over the objects with `cache_info` in every
    qschub module, each under the module that defines it."""
    found = {}
    for info in pkgutil.iter_modules(qschub.__path__):
        module = importlib.import_module(f"qschub.{info.name}")
        for name, obj in vars(module).items():
            if hasattr(obj, "cache_info") and obj.__module__ == module.__name__:
                found[f"{info.name}.{name}"] = obj
    return found


# The caches with a policy of their own, by maxsize: the solvers hold whole
# tables; the rest are unbounded on purpose, as their comments say.
OWN_POLICY = {
    "quantum_ring._solver": 8,
    "quantization.e_level": None,
    "quantization._g_slice": None,
    "schubert._d_char_coeffs": None,
    "cli._parser": None,
}


class TestChainCache:
    def test_chain_caches_share_one_bounded_policy(self):
        from qschub import quantization, selftest

        for comp in compositions(4):
            ctx = ParabolicContext(comp)
            for w in ctx.minimal_reps():
                parabolic_q_double_schubert(ctx, w)
        schubert_polynomial((2, 4, 1, 3), "quantum_double")
        schubert_polynomial((2, 4, 1, 3), "classical")
        assert selftest.check_bijections(4)[0] and selftest.check_cauchy(4)[0]
        assert selftest.check_chevalley(3, "parabolic")[0]
        quantization.theta(schubert_polynomial((2, 4, 1, 3), "double"))
        caches = package_caches()
        for name, maxsize in OWN_POLICY.items():
            assert caches.pop(name).cache_info().maxsize == maxsize, name
        assert len(caches) == 11
        for name, chain in caches.items():
            info = chain.cache_info()
            assert info.maxsize == 2048, name
            assert 0 < info.currsize <= info.maxsize, name

    def test_full_flag_members_reuse_the_parabolic_chain(self):
        from qschub import schubert

        schubert._a_free_member.cache_clear()
        schubert._dd_from_top.cache_clear()
        ones = ParabolicContext((1, 1, 1, 1))
        for w in ones.minimal_reps():
            parabolic_q_double_schubert(ones, w)
        misses = schubert._dd_from_top.cache_info().misses
        for w in all_perms(4):
            schubert_polynomial(w, "quantum_double", 4)
        assert schubert._dd_from_top.cache_info().misses == misses
