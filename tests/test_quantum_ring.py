"""Chevalley-Monk rules, correction-sum bijection, and structure tables."""

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    bruhat_leq,
    is_cover,
    is_p_root,
    localization,
    pair_two_rho,
    pair_two_rho_p,
    q_coroot,
)
from qschub import parabolic, quantum_ring, schubert
from qschub.cli import main
from qschub.parabolic import expand_in_parabolic_basis, parabolic_q_double_schubert
from qschub.poly import SLOTS, Polynomial, a, format_polynomial, parse_polynomial, q, x
from qschub.quantum_ring import (
    StructureTable,
    bijection_check,
    chevalley_rhs,
    structure_constants,
    verify_chevalley,
    weight_term,
)
from qschub.schubert import (
    FAMILY_KINDS,
    expand_in_schubert_basis,
    schubert_polynomial,
)
from qschub.weyl import (
    ParabolicContext,
    all_perms,
    apply_to,
    compose,
    inverse,
    length,
    longest_element,
    reflect,
    simple,
)


def compositions(n):
    out = []
    for mask in range(1 << (n - 1)):
        parts, last = [], 0
        for pos in range(1, n):
            if mask >> (pos - 1) & 1:
                parts.append(pos - last)
                last = pos
        parts.append(n - last)
        out.append(tuple(parts))
    return out


def proper_contexts(n):
    return [ParabolicContext(c) for c in compositions(n) if len(c) >= 2]


FULL_FLAG = quantum_ring._FULL_FLAG


def root_sets(w, i, ctx):
    """(A, B) at node i of `quantum_ring._root_sets`, as sets of roots."""
    return tuple(set(roots) for roots in quantum_ring._root_sets(w, ctx, i))


class TestRootSets:
    def test_simple_reflection_node_one(self):
        assert root_sets((2, 1), 1, FULL_FLAG) == ({(1, 3)}, {(1, 2)})

    def test_identity_node_two(self):
        assert root_sets((), 2, FULL_FLAG) == ({(2, 3)}, set())

    def test_node_filter_against_unfiltered_drops(self):
        for w in all_perms(4):
            drops = quantum_ring._moves(w, FULL_FLAG)[1]
            for i in range(1, 5):
                _, node_drops = root_sets(w, i, FULL_FLAG)
                assert node_drops == {(r, s) for r, s in drops if r <= i < s}

    def test_rule_takes_lists_and_shares_trimmed_entries(self):
        quantum_ring._moves.cache_clear()
        rhs = chevalley_rhs(1, (2, 1), "quantum")
        for w in ([2, 1], (2, 1, 3), [2, 1, 3, 4]):
            assert chevalley_rhs(1, w, "quantum") == rhs
        assert quantum_ring._moves.cache_info().currsize == 1
        assert set(quantum_ring._moves((2, 1), FULL_FLAG)[1]) == {(1, 2)}
        ctx = ParabolicContext((1, 2))
        as_list = chevalley_rhs(1, [3, 1, 2], "parabolic", ctx)
        assert as_list == chevalley_rhs(1, (3, 1, 2), "parabolic", ctx)

    def test_enumeration_bounds_are_complete(self):
        for w in all_perms(4):
            for i in range(1, 5):
                assert root_sets(w, i, FULL_FLAG) == wide_root_sets(w, i, None, 4)

    def test_parabolic_bounds_are_complete(self):
        for ctx in proper_contexts(4):
            for w in ctx.minimal_reps():
                for i in ctx.nodes:
                    assert root_sets(w, i, ctx) == wide_root_sets(w, i, ctx, 4)

    def test_parabolic_drops_satisfy_plain_length_identity(self):
        # every parabolic length-drop root also drops the plain length by
        # <alpha^vee, 2 rho> - 1, with no projection involved
        for n in (3, 4):
            for ctx in proper_contexts(n):
                for w in ctx.minimal_reps():
                    for alpha in quantum_ring._moves(w, ctx)[1]:
                        drop = pair_two_rho(alpha)
                        assert length(reflect(w, alpha)) == length(w) + 1 - drop

    def test_rejects_non_node(self):
        ctx = ParabolicContext((2, 2))
        with pytest.raises(ValueError, match="not a node"):
            verify_chevalley(1, (1, 2, 4, 3), "parabolic", ctx)

    def test_rejects_bad_node(self):
        with pytest.raises(ValueError, match="node must be >= 1"):
            verify_chevalley(0, (2, 1), "quantum_double")

    def test_a_context_admits_minimal_representatives_only(self):
        # The one-line criterion of `_moves` holds on W^P only.
        ctx = ParabolicContext((1, 2))
        for w in ([2, 3, 1], [1, 3, 2], [1, 2, 4, 3]):
            with pytest.raises(ValueError):
                chevalley_rhs(1, w, "parabolic", ctx)
            with pytest.raises(ValueError):
                verify_chevalley(1, w, "parabolic", ctx)
        assert not bijection_check([2, 3, 1], ctx)
        assert not bijection_check([1, 3, 2], ctx)
        assert bijection_check([3, 1, 2], ctx)


class TestWeightTerm:
    def test_identity_weight_vanishes(self):
        assert weight_term((), 2) == Polynomial.zero()

    def test_simple_reflection_weight(self):
        assert weight_term((2, 1), 1) == parse_polynomial("a2 - a1")

    def test_longest_element_weight(self):
        assert weight_term((3, 2, 1), 2) == parse_polynomial("a3 + a2 - a1 - a2")


class TestChevalleyRule:
    def test_classical_example(self):
        assert format_polynomial(chevalley_rhs(1, (2, 1), "classical")) == "x1^2"

    def test_quantum_double_example(self):
        rhs = chevalley_rhs(1, (2, 1), "quantum_double")
        assert rhs == parse_polynomial("x1^2 - 2*x1*a1 + a1^2")

    @pytest.mark.parametrize("flavor", FAMILY_KINDS)
    def test_stable_flavors_hold_on_s4(self, flavor):
        for w in all_perms(4):
            for i in range(1, 5):
                ok, diff = verify_chevalley(i, w, flavor)
                assert ok, (flavor, w, i, format_polynomial(diff))

    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_parabolic_flavor_holds(self, n):
        for ctx in proper_contexts(n):
            for w in ctx.minimal_reps():
                for i in ctx.nodes:
                    ok, diff = verify_chevalley(i, w, "parabolic", ctx)
                    assert ok, (ctx.composition, w, i, format_polynomial(diff))

    def test_parabolic_requires_context(self):
        with pytest.raises(ValueError):
            chevalley_rhs(1, (2, 1), "parabolic")

    def test_parabolic_rejects_non_minimal(self):
        ctx = ParabolicContext((2, 2))
        with pytest.raises(ValueError):
            chevalley_rhs(2, (2, 1), "parabolic", ctx)

    def test_unknown_flavor(self):
        with pytest.raises(ValueError):
            chevalley_rhs(1, (2, 1), "equivariant")

    def test_rejects_bad_nodes(self):
        with pytest.raises(ValueError, match="node must be >= 1"):
            chevalley_rhs(0, (2, 1), "classical")
        with pytest.raises(ValueError, match="not a node"):
            chevalley_rhs(1, (1, 3, 2), "parabolic", ParabolicContext((2, 2)))


class TestBijection:
    def test_full_flag_s4(self):
        for w in all_perms(4):
            assert bijection_check(w), w

    def test_parabolic_compositions_of_four(self):
        for ctx in proper_contexts(4):
            for w in ctx.minimal_reps():
                assert bijection_check(w, ctx), (ctx.composition, w)

    def test_warm_root_set_cache_gives_the_same_answers(self):
        cases = [(w, None) for w in all_perms(4)] + [
            (w, ctx)
            for ctx in (ParabolicContext((2, 1, 1)), ParabolicContext((1, 2, 1)))
            for w in ctx.minimal_reps()
        ]
        quantum_ring._moves.cache_clear()
        cold = [bijection_check(w, ctx) for w, ctx in cases]
        assert quantum_ring._moves.cache_info().currsize > 0
        warm = [bijection_check(w, ctx) for w, ctx in cases]
        assert cold == warm == [True] * len(cases)
        for w, ctx in cases:
            drops = quantum_ring._moves(w, ctx or FULL_FLAG)[1]
            assert set(drops) == wide_b_roots(w, ctx, 2), (w, ctx)

    def test_drop_targets_are_the_projections(self):
        cases = [(None, all_perms(4))]
        cases += [(ctx, ctx.minimal_reps()) for ctx in proper_contexts(4)]
        for given, reps in cases:
            ctx = given or FULL_FLAG
            for w in reps:
                covers, targets = quantum_ring._moves(w, ctx)
                assert set(targets) == wide_b_roots(w, given, 2)
                for alpha, (z, coset) in targets.items():
                    assert z == ctx.min_rep(reflect(w, alpha)), (ctx, w, alpha)
                    assert coset == compose(inverse(z), w), (ctx, w, alpha)
                top = len(w) + 1
                roots = [(r, s) for r in range(1, top) for s in range(r + 1, top + 1)]
                assert set(covers) == {
                    alpha for alpha in roots if former_in_a_set(w, alpha, given)
                }
                for alpha, z in covers.items():
                    assert z == reflect(w, alpha), (ctx, w, alpha)

    @pytest.mark.parametrize("slot", [0, 1], ids=["wrong u", "wrong coset"])
    def test_a_corrupted_row_is_rejected(self, capsys, monkeypatch, slot):
        real = quantum_ring._moves

        def corrupted(v, ctx):
            covers, drops = real(v, ctx)
            if v == (2, 1) and ctx == quantum_ring._FULL_FLAG:
                entry = list(drops[1, 2])
                entry[slot] = compose(entry[slot], simple(2))
                drops = {(1, 2): tuple(entry)}
            return covers, drops

        assert bijection_check((2, 1)) and bijection_check((3, 2, 1))
        monkeypatch.setattr(quantum_ring, "_moves", corrupted)
        # At v = w both sides of the index identity read the one stored
        # coset, so there only a wrong u shows.
        assert bijection_check((2, 1)) == (slot == 1)
        assert not bijection_check((3, 2, 1))
        assert main(["verify", "bijection", "--max-n", "3"]) == 1
        assert "FALSIFIED" in capsys.readouterr().out


def wide_b_roots(w, ctx, window):
    """The length drops of w up to s = len(w) + window, `window` past the
    bound `_moves` enumerates, found by the projection test of the
    former rule."""
    top = len(w) + window
    return {
        (r, s)
        for r in range(1, top)
        for s in range(r + 1, top + 1)
        if former_in_b_set(w, (r, s), ctx)
    }


def wide_root_sets(w, i, ctx, window):
    """(A, B) at node i, each `window` past the bounds `_root_sets`
    enumerates, found by the membership tests of the former rule."""
    top = max(len(w), i) + 1 + window
    A = {
        (r, s)
        for r in range(1, i + 1)
        for s in range(i + 1, top + 1)
        if former_in_a_set(w, (r, s), ctx)
    }
    B = {(r, s) for r, s in wide_b_roots(w, ctx, window) if r <= i < s}
    return A, B


# The former two-armed Chevalley rule, kept here as an independent oracle:
# the full flag (ctx None) has its own arm in each membership test, a cover
# is a Bruhat cover tested for W^P, a drop is found by projecting w s_alpha
# and comparing lengths rather than read off the one-line values, B is
# enumerated per node rather than filtered from the unfiltered drops, and
# each stable flavor builds its own row.


def wide_context(ctx, w):
    """ctx with singleton blocks appended up to the length of w."""
    return ParabolicContext(ctx.composition + (1,) * max(len(w) - ctx.n, 0))


def former_in_a_set(w, alpha, ctx):
    if not is_cover(w, alpha):
        return False
    if ctx is None:
        return True
    if is_p_root(ctx, alpha):
        return False
    moved = reflect(w, alpha)
    return wide_context(ctx, moved).is_min_rep(moved)


def former_in_b_set(w, alpha, ctx):
    if ctx is None:
        return length(reflect(w, alpha)) == length(w) + 1 - pair_two_rho(alpha)
    if is_p_root(ctx, alpha):
        return False
    moved = reflect(w, alpha)
    drop = pair_two_rho(alpha) - pair_two_rho_p(ctx, alpha)
    return length(wide_context(ctx, moved).min_rep(moved)) == length(w) + 1 - drop


def former_root_sets(w, i, ctx=None):
    def roots(s_max):
        return [(r, s) for r in range(1, i + 1) for s in range(i + 1, s_max + 1)]

    covers = roots(max(len(w), i) + 1)
    A = {alpha for alpha in covers if former_in_a_set(w, alpha, ctx)}
    B = {alpha for alpha in roots(len(w)) if former_in_b_set(w, alpha, ctx)}
    return A, B


def former_b_root_set(w, ctx=None):
    n = len(w)
    roots = [(r, s) for r in range(1, n) for s in range(r + 1, n + 1)]
    return {alpha for alpha in roots if former_in_b_set(w, alpha, ctx)}


def flavor_ladder_terms(i, w, flavor):
    """The full-flag row by the former flavor ladder: a weight term for the
    double flavors, covers always, q_coroot drops for the quantum ones."""
    A, B = former_root_sets(w, i)
    terms = {}

    def add(z, coeff):
        terms[z] = terms.get(z, Polynomial.zero()) + coeff

    if flavor in ("double", "quantum_double"):
        for j in range(1, i + 1):
            add(w, a(apply_to(w, j)) - a(j))
    for alpha in A:
        add(reflect(w, alpha), Polynomial.const(1))
    if flavor in ("quantum", "quantum_double"):
        for alpha in B:
            add(reflect(w, alpha), q_coroot(alpha))
    return {z: c for z, c in terms.items() if c}


class TestOneRuleAgainstTheFlavorLadder:
    """The one (1, ..., 1) rule row, zeroed per flavor, against the former
    full-flag arms."""

    def test_rows_and_root_sets_on_s4(self):
        full_flag = ParabolicContext((1,))
        for w in all_perms(4):
            for i in range(1, 6):
                assert root_sets(w, i, full_flag) == former_root_sets(w, i), (w, i)
                for flavor in FAMILY_KINDS:
                    got = quantum_ring._chevalley_terms(i, w, flavor, full_flag)
                    assert got == flavor_ladder_terms(i, w, flavor), (flavor, w, i)

    def test_drops_on_s5(self):
        for w in all_perms(5):
            drops = quantum_ring._moves(w, FULL_FLAG)[1]
            assert set(drops) == former_b_root_set(w), w

    @pytest.mark.parametrize("n", [4, 5])
    def test_parabolic_root_sets_on_compositions(self, n):
        for ctx in proper_contexts(n):
            for w in ctx.minimal_reps():
                drops = quantum_ring._moves(w, ctx)[1]
                assert set(drops) == former_b_root_set(w, ctx), w
                for i in ctx.nodes:
                    assert root_sets(w, i, ctx) == former_root_sets(w, i, ctx), (w, i)


class TestStructureConstants:
    def test_two_strands(self):
        res = structure_constants(2, (2, 1), (2, 1))
        assert {w: format_polynomial(c) for w, c in res.items()} == {
            (2, 1): "-a1 + a2",
            (): "q1",
        }

    def test_three_strands_mixed_simples(self):
        res = structure_constants(3, (2, 1), (1, 3, 2))
        assert res == {(3, 1, 2): Polynomial.const(1), (2, 3, 1): Polynomial.const(1)}

    def test_unit_row(self):
        for v in all_perms(3):
            assert structure_constants(3, (), v) == {v: Polynomial.const(1)}

    def test_rejects_outside_group(self):
        with pytest.raises(ValueError):
            structure_constants(2, (3, 1, 2), (2, 1))

    def test_parabolic_rejects_non_minimal(self):
        ctx = ParabolicContext((2, 1))
        with pytest.raises(ValueError):
            structure_constants(ctx, (2, 1), ())

    def test_variable_ranges_respect_truncation(self):
        res = structure_constants(3, (3, 1, 2), (3, 1, 2))
        for coeff in res.values():
            assert coeff.max_index("x") == 0
            assert coeff.max_index("a") <= 3 and coeff.max_index("q") <= 2


def product_expand_truncate(domain, u, v):
    """The former table route, kept here as an independent oracle: the
    product of two members of the ring, expanded over the stable parabolic
    basis, then cut to the finite ring (q_k, q_{k+1}, ... and a_{n+1}, ...
    set to 0, terms off the minimal representatives dropped)."""
    ctx = quantum_ring._ring(domain)
    product = parabolic_q_double_schubert(ctx, u) * parabolic_q_double_schubert(ctx, v)
    reps = set(ctx.minimal_reps())
    return {
        w: c2
        for w, c in expand_in_parabolic_basis(product, ctx).items()
        if w in reps and (c2 := zero_from(c, ctx.k, ctx.n + 1))
    }


def zero_from(c, q_from, a_from):
    """c with q_{q_from}, q_{q_from + 1}, ... and a_{a_from}, ... set to 0."""
    return c.specialize(
        {("q", j): 0 for j in range(q_from, SLOTS + 1)}
        | {("a", j): 0 for j in range(a_from, SLOTS + 1)}
    )


ORACLE_DOMAINS = [2, 3] + [
    ParabolicContext(c) for c in [(2, 1), (1, 2), (2, 2), (1, 3), (3, 1), (2, 1, 1), (1, 2, 1)]
]


class TestProductOracle:
    """The Chevalley recursion against the product-and-expand route."""

    @pytest.mark.parametrize("domain", ORACLE_DOMAINS, ids=str)
    def test_whole_table(self, domain):
        table = StructureTable.build(domain)
        for u in table.basis:
            for v in table.basis:
                expected = product_expand_truncate(domain, u, v)
                assert table.entries[(u, v)] == expected, (u, v)
                # the same order too: callers may read the first term
                assert list(table.entries[(u, v)]) == list(expected), (u, v)

    def test_self_diagonal_carries_q(self):
        # F(u, u, u, q1) = 1 here, so the q-part of c_{u,u}^u does not vanish
        # in general; the recursion gets it from F(id, u, u, q1) = 0.
        ctx, u = ParabolicContext((3, 2)), (2, 4, 5, 1, 3)
        got = structure_constants(ctx, u, u)
        assert got == product_expand_truncate(ctx, u, u)
        assert got[u].split("q")[((("q", 1), 1),)] == Polynomial.const(1)


@pytest.fixture
def fresh_solvers():
    quantum_ring._solver.cache_clear()
    yield
    quantum_ring._solver.cache_clear()


class TestLocalization:
    """The q-free diagonal c_{u,v}^u, solved from the Chevalley rule alone,
    against the q-free members of the ring at fixed points."""

    @pytest.mark.parametrize(
        "composition", [c for n in range(1, 5) for c in compositions(n)], ids=str
    )
    def test_solved_diagonal(self, composition):
        ctx = ParabolicContext(composition)
        solver = quantum_ring._Solver(ctx)
        for t, u in enumerate(solver.basis):
            for s, v in enumerate(solver.basis):
                assert solver.coefficient(t, s, t, 0) == localization(ctx, u, v), (u, v)

    def test_product_of_tangent_weights(self):
        checked = 0
        for composition in [c for n in range(1, 6) for c in compositions(n)]:
            ctx = ParabolicContext(composition)
            solver = quantum_ring._Solver(ctx)
            for u, product in zip(solver.basis, solver.diagonal):
                assert product == localization(ctx, u, u), (composition, u)
                checked += 1
        assert checked == 633


def test_a_planted_member_moves_the_oracle_and_not_the_table(
    monkeypatch, fresh_solvers
):
    # Every reading of the member of [1,3,2] on (1, 1, 1), plus a1: the
    # table, solved from the rule rows alone, keeps every entry, while the
    # product of members expanded over the basis moves.
    basis = all_perms(3)
    table = {(u, v): structure_constants(3, u, v) for u in basis for v in basis}
    real = schubert._chain_member

    def planted(composition, zero, w):
        member = real(composition, zero, w)
        if (composition, w) == ((1, 1, 1), (1, 3, 2)):
            return member + a(1)
        return member

    for module in (schubert, parabolic, quantum_ring):
        monkeypatch.setattr(module, "_chain_member", planted)
    quantum_ring._solver.cache_clear()
    assert {(u, v): structure_constants(3, u, v) for u, v in table} == table
    assert any(product_expand_truncate(3, u, v) != c for (u, v), c in table.items())


def test_build_assembles_each_unordered_pair_once(monkeypatch, fresh_solvers):
    pairs = []
    real = quantum_ring._Solver.product

    def counted(self, u, v):
        pairs.append(frozenset((u, v)))
        return real(self, u, v)

    monkeypatch.setattr(quantum_ring._Solver, "product", counted)
    table = StructureTable.build(ParabolicContext((2, 1, 1)))
    size = len(table.basis)
    assert len(pairs) == len(set(pairs)) == size * (size + 1) // 2
    assert set(table.entries) == {(u, v) for u in table.basis for v in table.basis}


class TestSelfDiagonal:
    """A wrong q-part of c_{u,u}^u does not pass unnoticed."""

    def plant(self, monkeypatch, value):
        # F(u, u, u, d) := value * F(id, u, u, 0) = value, for every d != 0;
        # the solver keys basis elements by index, the identity being 0
        monkeypatch.setattr(
            quantum_ring._Solver,
            "_self_equation",
            lambda self, u, d: (None, [(Polynomial.const(value), (0, u, u, 0))]),
        )

    def test_planted_nonzero_entry_breaks_s3(self, monkeypatch, fresh_solvers):
        self.plant(monkeypatch, 1)
        with pytest.raises(ArithmeticError):
            StructureTable.build(3)

    def test_zero_rule_breaks_grassmannian(self, monkeypatch, fresh_solvers):
        # Taking every such entry to be 0 matches S_2..S_4 and every
        # composition of 3 and 4, but not (3, 2).
        self.plant(monkeypatch, 0)
        table = StructureTable.build(ParabolicContext((3, 2)))
        assert not table.check_associative()


def unprune(monkeypatch):
    """Solvers built from here on open the equation of every key that the
    length count allows: the support masks of `_Solver` admit every d,
    at d = 0 too, so neither the path test nor the Bruhat test prunes."""
    monkeypatch.setattr(
        quantum_ring._Solver,
        "_support_masks",
        lambda self: [[(1 << len(self.degrees)) - 1] * len(self.basis)]
        * len(self.basis),
    )


def exponents(mono, k) -> tuple:
    """The exponent vector of a q-monomial of `Polynomial.split("q")`."""
    e = [0] * (k - 1)
    for (_, j), power in mono:
        e[j - 1] = power
    return tuple(e)


class TestSupport:
    """The path test of `_Solver` against solves that do not use it."""

    @pytest.mark.parametrize(
        "domain",
        [3, 4] + [ParabolicContext(c) for c in [(2, 2), (1, 2, 1), (2, 1, 1), (3, 2)]],
        ids=str,
    )
    def test_every_nonzero_coefficient_has_both_paths(
        self, domain, monkeypatch, fresh_solvers
    ):
        # (3, 2) has F(u, u, u, q1) = 1 at u = [2,4,5,1,3].
        ring = quantum_ring._ring(domain)
        solver = quantum_ring._Solver(ring)
        degree = {d: t for t, (_, d) in enumerate(solver.degrees)}
        unprune(monkeypatch)
        table = StructureTable.build(domain)
        checked = 0
        for (u, v), row in table.entries.items():
            for w, coeff in row.items():
                for mono in coeff.split("q"):
                    t = degree[exponents(mono, ring.k)]
                    for x in (u, v):
                        reach = solver.reach[solver.index[x]][solver.index[w]]
                        assert reach >> t & 1, (x, w, mono)
                    checked += 1
        assert checked

    @pytest.mark.parametrize("domain", ORACLE_DOMAINS, ids=str)
    def test_pruning_changes_no_table(self, domain, monkeypatch, fresh_solvers):
        pruned = StructureTable.build(domain)
        quantum_ring._solver.cache_clear()
        unprune(monkeypatch)
        unpruned = StructureTable.build(domain)
        assert unpruned.entries == pruned.entries
        assert unpruned.to_json() == pruned.to_json()
        for key, row in pruned.entries.items():
            assert list(unpruned.entries[key]) == list(row), key

    @pytest.mark.parametrize(
        "domain", [4] + [ParabolicContext(c) for c in [(2, 2, 1), (1, 3, 1)]], ids=str
    )
    def test_weight_zero_is_bruhat_order(self, domain):
        solver = quantum_ring._Solver(quantum_ring._ring(domain))
        for u, x in enumerate(solver.basis):
            for w, y in enumerate(solver.basis):
                assert bool(solver.reach[u][w] & 1) == bruhat_leq(x, y), (x, y)

    def test_prunes_most_zero_keys_of_s4(self, fresh_solvers):
        # The Bruhat base case alone left 49,952 zero keys.
        StructureTable.build(4)
        solver = quantum_ring._solver((1, 1, 1, 1))
        # The q-free diagonal F(v, u, u, 0), v != u, is solved like any key.
        diagonal = [
            key
            for key in solver.values
            if len(key) == 4 and key[0] != key[1] == key[2] and key[3] == 0
        ]
        assert len(diagonal) == 166
        assert len(solver.values) - len(diagonal) == 1696
        assert len(solver.zeros) == 5498


class TestExactDivision:
    def test_exact_quotient(self):
        cofactor = a(1) ** 2 * a(3) - 5 * a(2) + q(1)
        f = (a(1) + a(2) - a(3)) * cofactor
        assert f.divide_linear(a(1) + a(2) - a(3)) == cofactor
        assert f.divide_linear(a(3) - a(1) - a(2)) == -cofactor
        assert Polynomial.zero().divide_linear(a(1)) == Polynomial.zero()

    def test_inexact_division_raises(self):
        with pytest.raises(ArithmeticError):
            (a(1) * a(2) + 1).divide_linear(a(1) - a(2))
        with pytest.raises(ArithmeticError):
            (a(1) ** 2 + a(2) ** 2).divide_linear(a(1) - a(2))

    @pytest.mark.parametrize("divisor", ["2*a1", "a1*a2", "a1 + 1", "0"])
    def test_divisor_must_be_a_unit_linear_form(self, divisor):
        with pytest.raises(ValueError):
            a(1).divide_linear(parse_polynomial(divisor))


@pytest.mark.parametrize(
    "domain", [2, 3, 4] + [c for n in (2, 3, 4) for c in proper_contexts(n)], ids=str
)
def test_chevalley_rows_stay_in_the_finite_ring(domain):
    # No row carries q_k, q_{k+1}, ... or a_{n+1}, ..., so the finite ring
    # needs only the terms off the minimal representatives dropped.
    ring = quantum_ring._ring(domain)
    for i in ring.nodes:
        for w in ring.minimal_reps():
            for coeff in quantum_ring._chevalley_terms(i, w, "parabolic", ring).values():
                assert coeff.max_index("q") < ring.k, (i, w)
                assert coeff.max_index("a") <= ring.n, (i, w)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_no_rule_row_keeps_w_at_a_zero(n):
    # Why the table checks end at `check_divisor_rows`: the term of a rule
    # row on w itself is the weight term, linear in a, so at a -> 0 the row
    # has no term on w.
    for comp in compositions(n):
        ring = ParabolicContext(comp)
        reps = set(ring.minimal_reps())
        for i in ring.nodes:
            for w in reps:
                row = quantum_ring._basis_row(i, w, ring, reps)
                on_w = row.get(w, Polynomial.zero())
                assert on_w == weight_term(w, i), (comp, i, w)
                assert not on_w.zero_out("a"), (comp, i, w)


def test_solver_cache_is_bounded(fresh_solvers):
    for domain in (2, 3, ParabolicContext((2, 1))):
        structure_constants(domain, (), ())
    info = quantum_ring._solver.cache_info()
    assert info.maxsize is not None and info.currsize == 3


def stable_expand_and_truncate(n, u, v):
    """The product expanded over the stable basis (each member in its smallest
    S_m), then cut to S_n with q_n, q_{n+1}, ... and a_{n+1}, ... set to 0."""
    product = schubert_polynomial(u, "quantum_double") * schubert_polynomial(
        v, "quantum_double"
    )
    out = {}
    for w, coeff in expand_in_schubert_basis(product, "quantum_double").items():
        if len(w) <= n and (c := zero_from(coeff, n, n + 1)):
            out[w] = c
    return out


class TestStableOracle:
    """The (1, ..., 1) table route against the stable expand-and-truncate one."""

    @pytest.mark.parametrize("n, max_len", [(3, 6), (4, 3), (4, 5)])
    def test_full_flag_pairs(self, n, max_len):
        # length sum <= 3 keeps every S_4 expansion inside S_5; <= 5 reaches
        # S_6, e.g. [1,4,2,3] * [1,4,2,3]
        pairs = [
            (u, v)
            for u in all_perms(n)
            for v in all_perms(n)
            if length(u) + length(v) <= max_len
        ]
        for u, v in pairs:
            assert structure_constants(n, u, v) == stable_expand_and_truncate(
                n, u, v
            ), (u, v)


@pytest.fixture(scope="module")
def table():
    return StructureTable.build(3)


@pytest.fixture(scope="module", params=[(2, 2), (2, 1)])
def parabolic_table(request):
    return StructureTable.build(ParabolicContext(request.param))


class TestFullFlagTable:
    def test_basis_is_whole_group(self, table):
        assert len(table.basis) == 6
        assert set(table.basis) == set(all_perms(3))

    def test_commutative(self, table):
        assert table.check_commutative()

    def test_commutativity_check_catches_a_planted_asymmetric_row(self, table):
        # A built table shares one row object between (u, v) and (v, u); a
        # table read from JSON holds the two rows apart.
        assert StructureTable.from_json(table.to_json()).check_commutative()
        blob = json.loads(table.to_json())
        item = next(e for e in blob["entries"] if e["u"] != e["v"] and e["terms"])
        item["terms"][0]["coeff"] += " + q1"
        assert not StructureTable.from_json(json.dumps(blob)).check_commutative()

    def test_associative(self, table):
        assert table.check_associative()

    def test_divisor_rows(self, table):
        assert table.check_divisor_rows()

    def test_embedded_two_strand_example(self):
        table = StructureTable.build(2)
        assert table.product((2, 1), (2, 1)) == {
            (2, 1): parse_polynomial("a2 - a1"),
            (): parse_polynomial("q1"),
        }

    def test_json_round_trip(self, table):
        assert StructureTable.from_json(table.to_json()) == table


class TestParabolicTables:
    def test_rank_matches_coset_count(self, parabolic_table):
        import math

        expected = math.factorial(parabolic_table.n)
        for block in parabolic_table.ctx.composition:
            expected //= math.factorial(block)
        assert len(parabolic_table.basis) == expected

    def test_commutative(self, parabolic_table):
        assert parabolic_table.check_commutative()

    def test_associative(self, parabolic_table):
        assert parabolic_table.check_associative()

    def test_divisor_rows(self, parabolic_table):
        assert parabolic_table.check_divisor_rows()

    def test_json_round_trip(self, parabolic_table):
        assert StructureTable.from_json(parabolic_table.to_json()) == parabolic_table


def former_to_json(table):
    """The table JSON as `json.dumps` writes it with an indent of 2: the
    construction `StructureTable.to_json` must reproduce byte for byte."""
    entries = []
    for u in table.basis:
        for v in table.basis:
            terms = [
                {"w": table._format_perm(z), "coeff": format_polynomial(c)}
                for z, c in sorted(
                    table.entries[(u, v)].items(),
                    key=lambda item: (length(item[0]), item[0]),
                )
            ]
            entries.append(
                {"u": table._format_perm(u), "v": table._format_perm(v), "terms": terms}
            )
    blob = {
        "n": table.n,
        "parabolic": ",".join(str(b) for b in table.ctx.composition)
        if table.ctx is not None
        else None,
        "entries": entries,
    }
    return json.dumps(blob, indent=2)


class TestJsonText:
    @pytest.mark.parametrize(
        "domain",
        [1, 3, ParabolicContext((2, 1)), ParabolicContext((2, 2))],
        ids=["n=1", "n=3", "(2,1)", "(2,2)"],
    )
    def test_matches_the_json_module(self, domain):
        table = StructureTable.build(domain)
        assert table.to_json() == former_to_json(table)

    def test_an_empty_product_is_an_empty_list(self):
        one, s1 = (), (2, 1)
        entries = {
            (one, one): {one: Polynomial.const(1)},
            (one, s1): {s1: Polynomial.const(1)},
            (s1, one): {s1: Polynomial.const(1)},
            (s1, s1): {},
        }
        table = StructureTable(2, entries)
        text = table.to_json()
        assert '"terms": []' in text
        assert text == former_to_json(table)
        assert StructureTable.from_json(text) == table


BASIS_221 = ParabolicContext((2, 2, 1)).minimal_reps()


@pytest.fixture(scope="module")
def table_221():
    return StructureTable.build(ParabolicContext((2, 2, 1)))


@settings(max_examples=60, derandomize=True, database=None, deadline=None)
@given(uvt=st.tuples(*[st.sampled_from(BASIS_221)] * 3))
def test_ring_axioms_on_sampled_entries(table_221, uvt):
    # 30 basis elements: 27,000 triples, too many to check them all here.
    u, v, t = uvt
    assert table_221.entries[(u, v)] == table_221.entries[(v, u)]
    assert table_221.associative_at(u, v, t)


# Two theorems about the built tables that no step of the solver assumes.


def not_positive_in_b(table) -> list:
    """The (u, v, w) whose coefficient, after a_k -> b_1 + ... + b_{k-1}
    with b_i = a_{i+1} - a_i written as x_i, is not a polynomial in the b's
    with nonnegative integer coefficients."""
    n = table.n
    to_b = {
        ("a", k): sum((x(i) for i in range(1, k)), Polynomial.zero())
        for k in range(1, n + 1)
    }
    back = {("x", i): a(i + 1) - a(i) for i in range(1, n)}
    failed = []
    for (u, v), row in table.entries.items():
        for w, coeff in row.items():
            in_b = coeff.specialize(to_b)
            # Mapping each b_i back to a_{i+1} - a_i gives coeff again exactly
            # when coeff lies in Z[b, q].
            if in_b.specialize(back) != coeff or any(c < 0 for c in in_b.terms.values()):
                failed.append((u, v, w))
    return failed


def not_dual_at_a_zero(table) -> list:
    """The full-flag (u, v, w) with c_{u,v}^{w,d} != c_{u, w0 w}^{w0 v, d}
    at a = 0."""
    w0 = longest_element(table.n)

    def at_a_zero(u, v, w):
        return table.product(u, v).get(w, Polynomial.zero()).zero_out("a")

    return [
        (u, v, w)
        for u in table.basis
        for v in table.basis
        for w in table.basis
        if at_a_zero(u, v, w) != at_a_zero(u, compose(w0, w), compose(w0, v))
    ]


def flip_one_sign(table):
    """A copy of the table with its first coefficient that is nonzero at
    a = 0 negated."""
    entries = {key: dict(row) for key, row in table.entries.items()}
    key, w = next(
        (key, w)
        for key, row in entries.items()
        for w, coeff in row.items()
        if coeff.zero_out("a")
    )
    entries[key][w] = -entries[key][w]
    return StructureTable(table.ctx or table.n, entries)


class TestIndependentTableChecks:
    @pytest.mark.parametrize(
        "domain", [4] + [ParabolicContext(c) for c in [(2, 2, 1), (1, 3, 1)]], ids=str
    )
    def test_graham_positivity(self, domain):
        # Mihalcea (Amer. J. Math. 2006), after Graham (Duke 2001): every
        # c_{u,v}^{w,d} is a polynomial in the b_i with nonnegative
        # coefficients.
        table = StructureTable.build(domain)
        assert not_positive_in_b(table) == []
        assert len(not_positive_in_b(flip_one_sign(table))) == 1

    @pytest.mark.parametrize("n", [3, 4])
    def test_duality_at_a_zero(self, n):
        # At a = 0 the constants are 3-point Gromov-Witten invariants,
        # symmetric under u, v and the dual of w, which is w0 w on the full
        # flag.
        table = StructureTable.build(n)
        assert not_dual_at_a_zero(table) == []
        # A sign flip at a = 0 breaks the symmetry of its triples.
        assert not_dual_at_a_zero(flip_one_sign(table))
