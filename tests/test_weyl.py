"""Permutation combinatorics: codes, words, orders, roots, parabolic blocks."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bruhat_leq,
    is_cover,
    is_p_root,
    pair_two_rho,
    pair_two_rho_p,
    q_coroot,
    two_rho_p,
)
from qschub.poly import q
from qschub.weyl import (
    ParabolicContext,
    _ideal_cosets,
    all_perms,
    apply_to,
    code,
    compose,
    cycle,
    eta_p,
    first_left_descent,
    format_permutation,
    identity,
    inverse,
    length,
    longest_element,
    parse_permutation,
    perm,
    perm_from_code,
    perm_from_word,
    reduced_word,
    reflect,
    simple,
    trim,
    weak_order_ideal,
)

SETTINGS = settings(max_examples=200, derandomize=True, database=None, deadline=None)


def left_weak_leq(v, w):
    """The definition of the left weak order: l(w v^-1) + l(v) = l(w)."""
    return length(compose(w, inverse(v))) + length(v) == length(w)


def pair_omega(alpha, i):
    """<alpha_{rs}^vee, omega_i>: 1 if r <= i < s else 0."""
    r, s = alpha
    return 1 if r <= i < s else 0


def compositions(n):
    """All compositions of n, e.g. compositions(3) = [(3,), (2,1), (1,2), (1,1,1)]."""
    if n == 0:
        return [()]
    return [(head,) + tail for head in range(n, 0, -1) for tail in compositions(n - head)]


def test_canonical_form():
    assert perm([1, 2, 3]) == identity
    assert perm([2, 1, 3]) == (2, 1)
    assert perm([3, 1, 2]) == (3, 1, 2)
    with pytest.raises(ValueError):
        perm([1, 1, 2])
    with pytest.raises(ValueError):
        perm([2, 3])


def test_length_examples():
    assert length(identity) == 0
    assert length((3, 1, 2)) == 2
    assert length((3, 2, 1)) == 3


def test_code_examples():
    assert code(identity) == ()
    assert code((1, 3, 2)) == (0, 1)
    assert code((3, 1, 2)) == (2,)


def test_perm_from_code_examples():
    assert perm_from_code(()) == identity
    assert perm_from_code((1,)) == (2, 1)
    assert perm_from_code((2,)) == (3, 1, 2)


def test_code_round_trip():
    for w in all_perms(5):
        assert perm_from_code(code(w)) == w
        assert sum(code(w)) == length(w)
    rng = random.Random(7)
    for _ in range(1000):
        c = tuple(rng.randint(0, 4) for _ in range(rng.randint(0, 6)))
        assert code(perm_from_code(c)) == tuple(
            reversed(tuple(itertools.dropwhile(lambda v: v == 0, reversed(c))))
        )


def test_code_characterizes_s_n():
    for n in range(1, 6):
        members = set(all_perms(n))
        for w in all_perms(6):
            staircase = all(c <= n - i for i, c in enumerate(code(w), start=1))
            assert (w in members) == staircase


def test_compose_and_inverse():
    assert compose(simple(2), simple(1)) == (3, 1, 2)
    for w in all_perms(4):
        assert compose(w, inverse(w)) == identity
        assert compose(inverse(w), w) == identity
    assert apply_to((3, 1, 2), 5) == 5


def test_reduced_word_examples():
    assert reduced_word(identity) == ()
    assert reduced_word((2, 1)) == (1,)
    assert reduced_word((3, 1, 2)) == (2, 1)


def test_first_left_descent_is_the_first_letter():
    for w in filter(None, all_perms(5)):
        assert first_left_descent(w) == reduced_word(w)[0], w


def test_reduced_words_multiply_back():
    for w in all_perms(5):
        word = reduced_word(w)
        assert len(word) == length(w)
        assert perm_from_word(word) == w


def test_longest_element():
    assert longest_element(1) == identity
    assert longest_element(3) == (3, 2, 1)
    assert length(longest_element(5)) == 10


def test_left_weak_order_examples():
    assert left_weak_leq(identity, (3, 1, 2))
    assert left_weak_leq((2, 1), (3, 1, 2))
    assert not left_weak_leq((1, 3, 2), (3, 1, 2))
    assert weak_order_ideal((3, 1, 2)) == [identity, (2, 1), (3, 1, 2)]


@pytest.mark.parametrize("n", [1, 2, 3, 4, 5])
def test_weak_order_ideal_matches_brute_force_scan(n):
    # The walk down left descents against the definition, checked on every
    # element of S_n (the identity included), in the same order.
    perms = all_perms(n)
    for w in perms:
        scan = sorted(
            (v for v in perms if left_weak_leq(v, w)), key=lambda v: (length(v), v)
        )
        assert weak_order_ideal(w) == scan, w


def test_bruhat_examples():
    assert bruhat_leq(identity, (3, 1, 2))
    assert bruhat_leq((2, 1), (3, 1, 2))
    assert not bruhat_leq((2, 1), (1, 3, 2))
    assert bruhat_leq((2, 1), (2, 1))


def test_bruhat_is_a_partial_order_on_s4():
    perms = all_perms(4)
    for u in perms:
        for w in perms:
            if bruhat_leq(u, w) and bruhat_leq(w, u):
                assert u == w


def test_cover_detection_matches_brute_force():
    perms = all_perms(5)
    by_length = {}
    for w in perms:
        by_length.setdefault(length(w), set()).add(w)
    for w in perms:
        # Covers inside S_5: one length step up and Bruhat comparable.
        brute = {
            v for v in by_length.get(length(w) + 1, ()) if bruhat_leq(w, v)
        }
        detected = set()
        for r in range(1, 6):
            for s in range(r + 1, 6):
                if is_cover(w, (r, s)):
                    v = reflect(w, (r, s))
                    assert length(v) == length(w) + 1
                    detected.add(v)
        assert {v for v in detected if len(v) <= 5} == brute


def test_reflect_swaps_positions():
    assert reflect((3, 1, 2), (1, 2)) == (1, 3, 2)
    assert reflect(identity, (2, 4)) == (1, 4, 3, 2)


def test_pairings():
    assert pair_omega((1, 3), 1) == 1
    assert pair_omega((1, 3), 3) == 0
    assert pair_two_rho((1, 2)) == 2
    assert pair_two_rho((2, 5)) == 6
    assert q_coroot((1, 3)) == q(1) * q(2)
    assert q_coroot((2, 3)) == q(2)
    # q_{alpha^vee} and eta_P multiply the q's of the nodes alpha crosses.
    ctx = ParabolicContext((2, 1, 3))
    wide = ParabolicContext(ctx.composition + (1,))
    for r in range(1, 7):
        for s in range(r + 1, 8):
            crossed = [t for t in range(1, s) if pair_omega((r, s), t)]
            assert q_coroot((r, s)) == math.prod((q(t) for t in crossed), start=1)
            # s = 7 crosses position 6 = n, the node of the first singleton
            # block past n
            nodes = (ctx if s <= ctx.n else wide).nodes
            at_nodes = [j for j, node in enumerate(nodes, 1) if node in crossed]
            assert eta_p((r, s), ctx) == math.prod((q(j) for j in at_nodes), start=1)


def test_cycles():
    assert cycle(1, 3) == simple(3)
    assert cycle(2, 2) == perm_from_word((1, 2))
    assert length(cycle(3, 4)) == 3
    with pytest.raises(ValueError):
        cycle(3, 2)


def test_parabolic_context_basics():
    ctx = ParabolicContext((2, 1, 3))
    assert ctx.n == 6
    assert ctx.partial_sums == (2, 3, 6)
    assert ctx.nodes == (2, 3)
    assert ctx.q_degree(1) == 3
    assert ctx.q_degree(2) == 4
    assert ctx.wp_generators() == [1, 4, 5]
    assert ctx.blocks() == [(1, 2), (3, 3), (4, 6)]
    with pytest.raises(ValueError):
        ParabolicContext(())
    with pytest.raises(ValueError):
        ParabolicContext((2, 0))


def test_min_rep_worked_example():
    ctx = ParabolicContext((2, 1, 3))
    w0 = longest_element(6)
    wp = ctx.min_rep(w0)
    w_p = compose(inverse(wp), w0)
    assert wp == (5, 6, 4, 1, 2, 3)
    assert w_p == (2, 1, 3, 6, 5, 4)
    assert compose(wp, w_p) == w0
    assert length(wp) + length(w_p) == length(w0)


def test_min_rep_trivial_cases():
    ctx = ParabolicContext((2, 1, 3))
    for w in ctx.minimal_reps():
        assert ctx.min_rep(w) == w
    assert ctx.min_rep(simple(1)) == identity
    # positions past n are singleton blocks, as in the extended context
    past_n = perm_from_code((6,))
    assert ctx.min_rep(past_n) == ParabolicContext(ctx.composition + (1,)).min_rep(past_n)


def test_min_rep_splits_off_a_levi_factor_with_lengths_adding():
    # w = w^P (w^P)^{-1} w with the right factor in W_P, which sorts to the
    # identity block by block.
    for comp in compositions(5):
        ctx = ParabolicContext(comp)
        for w in all_perms(5):
            wp = ctx.min_rep(w)
            w_p = compose(inverse(wp), w)
            assert compose(wp, w_p) == w
            assert length(wp) + length(w_p) == length(w)
            assert ctx.is_min_rep(wp)
            assert ctx.min_rep(w_p) == identity


def test_minimal_reps_enumeration():
    ctx = ParabolicContext((2, 2))
    reps = ctx.minimal_reps()
    assert len(reps) == 6
    assert reps[0] == identity
    assert all(ctx.is_min_rep(w) for w in reps)
    assert ctx.w0_p() == (3, 4, 1, 2)
    full = ParabolicContext((1, 1, 1, 1))
    assert len(full.minimal_reps()) == 24


def test_rho_p():
    ctx = ParabolicContext((2, 1, 3))
    assert [two_rho_p(ctx, t) for t in range(1, 7)] == [1, -1, 0, 2, 0, -2]
    assert two_rho_p(ctx, 9) == 0
    assert pair_two_rho_p(ctx, (1, 2)) == 2
    assert pair_two_rho_p(ctx, (2, 3)) == -1


def test_rho_p_pairing_matches_q_grading():
    # for a root crossing blocks, <alpha^vee, 2(rho - rho_P)> must equal the
    # total grading degree of the q-monomial eta_P assigns to it
    for comp in [(2, 1, 3), (1, 3), (3, 1, 2), (1, 1, 2, 2)]:
        ctx = ParabolicContext(comp)
        for r in range(1, ctx.n):
            for s in range(r + 1, ctx.n + 1):
                if is_p_root(ctx, (r, s)):
                    continue
                drop = pair_two_rho((r, s)) - pair_two_rho_p(ctx, (r, s))
                expected = sum(
                    ctx.q_degree(j)
                    for j, node in enumerate(ctx.nodes, start=1)
                    if r <= node < s
                )
                assert drop == expected


def test_eta_p():
    ctx = ParabolicContext((2, 2))
    assert eta_p((1, 4), ctx) == q(1)
    assert eta_p((1, 2), ctx) == 1
    assert is_p_root(ctx, (1, 2))
    assert not is_p_root(ctx, (2, 3))
    ones = ParabolicContext((1, 1, 1))
    assert eta_p((1, 3), ones) == q_coroot((1, 3))
    for r in range(1, 3):
        for s in range(r + 1, 4):
            assert eta_p((r, s), ones) == q_coroot((r, s))


def test_text_forms():
    assert format_permutation((3, 1, 2)) == "[3,1,2]"
    assert parse_permutation("[3,1,2]") == (3, 1, 2)
    assert parse_permutation("[]") == identity
    assert parse_permutation("[1]") == identity
    with pytest.raises(ValueError):
        parse_permutation("3,1,2")
    with pytest.raises(ValueError):
        parse_permutation("[3,1]")


# -- the tuple-native permutation layer against the plain forms it replaced ------


def plain_trim(seq):
    w = list(seq)
    while w and w[-1] == len(w):
        w.pop()
    return tuple(w)


def plain_apply(w, i):
    return w[i - 1] if i <= len(w) else i


def plain_compose(u, v):
    n = max(len(u), len(v))
    return plain_trim(tuple(plain_apply(u, plain_apply(v, i)) for i in range(1, n + 1)))


def plain_min_rep(composition, w):
    n = sum(composition)
    line = list(tuple(w) + tuple(range(len(w) + 1, n + 1)))
    out = []
    lo = 1
    for size in composition:
        out.extend(sorted(line[lo - 1 : lo - 1 + size]))
        lo += size
    return plain_trim(out)


# Untrimmed one-line lists of every length up to 7; trailing fixed points
# are common at these sizes.
perm_lists = st.integers(0, 7).flatmap(lambda n: st.permutations(list(range(1, n + 1))))
composition_cases = (
    st.lists(st.integers(1, 3), min_size=1, max_size=4)
    .map(tuple)
    .flatmap(
        lambda comp: st.tuples(
            st.just(comp),
            st.integers(0, sum(comp)).flatmap(
                lambda m: st.permutations(list(range(1, m + 1)))
            ),
        )
    )
)


@SETTINGS
@given(perm_lists, perm_lists)
def test_trim_and_compose_match_the_plain_forms(u, v):
    assert trim(u) == trim(tuple(u)) == plain_trim(u)
    assert type(trim(u)) is tuple
    for left, right in ((u, v), (tuple(u), tuple(v)), (trim(u), trim(v)), (u, trim(v))):
        got = compose(left, right)
        assert type(got) is tuple
        assert got == plain_compose(left, right)


@SETTINGS
@given(composition_cases)
def test_min_rep_matches_the_plain_form(case):
    comp, w = case
    ctx = ParabolicContext(comp)
    expected = plain_min_rep(comp, w)
    assert ctx.min_rep(w) == ctx.min_rep(tuple(w)) == ctx.min_rep(trim(w)) == expected
    assert ctx.is_min_rep(w) == ctx.is_min_rep(tuple(w)) == (expected == plain_trim(w))


def composition_from_cuts(cuts):
    """The composition of len(cuts) + 1 with a block boundary after each
    True."""
    comp, size = [], 1
    for cut in cuts:
        if cut:
            comp.append(size)
            size = 0
        size += 1
    return tuple(comp + [size])


# Compositions of at most 6, with untrimmed one-line lists up to 3 past n.
past_n_cases = (
    st.lists(st.booleans(), max_size=5)
    .map(composition_from_cuts)
    .flatmap(
        lambda comp: st.tuples(
            st.just(comp),
            st.integers(0, sum(comp) + 3).flatmap(
                lambda m: st.permutations(list(range(1, m + 1)))
            ),
        )
    )
)


@SETTINGS
@given(past_n_cases)
def test_positions_past_n_are_singleton_blocks(case):
    comp, w = case
    ctx = ParabolicContext(comp)
    wide = ParabolicContext(comp + (1,) * max(len(w) - ctx.n, 0))
    assert ctx.min_rep(w) == wide.min_rep(w)
    assert ctx.is_min_rep(w) == wide.is_min_rep(w)
    top = max(len(w), ctx.n)
    for r in range(1, top):
        for s in range(r + 1, top + 1):
            assert eta_p((r, s), ctx) == eta_p((r, s), wide), (r, s)


def test_check_rep_admits_w_p_inside_s_n_only():
    ctx = ParabolicContext((2, 1))
    assert ctx.check_rep([1, 3, 2]) == (1, 3, 2)
    assert ctx.check_rep([1, 2, 3, 4]) == identity
    with pytest.raises(ValueError, match=r"^permutation \[1, 2, 4, 3\] has support beyond n=3$"):
        ctx.check_rep((1, 2, 4, 3))
    with pytest.raises(ValueError, match=r"^\[2, 1, 3\] is not minimal in its coset$"):
        ctx.check_rep((2, 1))


def test_block_slices_stay_out_of_repr_equality_and_hash():
    ctx = ParabolicContext((2, 1, 3))
    assert repr(ctx) == "ParabolicContext(composition=(2, 1, 3))"
    twin = ParabolicContext([2, 1, 3])
    assert twin == ctx and hash(twin) == hash(ctx)
    assert ctx != ParabolicContext((2, 1, 2))


def test_ideal_cosets_pair_each_v_with_v_w_inverse():
    for w in all_perms(4):
        cosets = _ideal_cosets(w)
        assert [v for v, _ in cosets] == weak_order_ideal(w)
        for v, u in cosets:
            assert u == compose(v, inverse(w)), (w, v)


def test_weak_order_ideal_hands_out_fresh_lists():
    first = weak_order_ideal((3, 1, 2))
    first.append((9,))
    first.pop(0)
    assert weak_order_ideal((3, 1, 2)) == [identity, (2, 1), (3, 1, 2)]
    assert weak_order_ideal([3, 1, 2, 4]) == [identity, (2, 1), (3, 1, 2)]
    assert weak_order_ideal((3, 1, 2)) is not weak_order_ideal((3, 1, 2))
