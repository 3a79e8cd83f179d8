"""Each identity of a `verify` suite is computed once.

The full flag is the composition (1, ..., 1).  Where a composition loop
would compute a full-flag identity again, on the same row and the same
cached members, it counts the case without computing it.  These tests spy on
the calls each suite makes and key every call by what it reads.  No key may
repeat, every case a message counts must have its key among the calls made,
and planted faults must still fail each suite, whichever side it runs.
"""

import pytest

from qschub import parabolic, quantum_ring, schubert, selftest
from qschub.poly import a, q, sum_of_products
from qschub.quantum_ring import CHEVALLEY_FLAVORS
from qschub.schubert import schubert_polynomial
from qschub.weyl import ParabolicContext, all_perms, compose, simple, trim

# Small enough for every suite to run in well under a second.
MAX_N = 3
# w(3) != 3: the full flag of S_3 reads it on the chain of (1, 1, 1), and the
# composition (1, 1, 1) reads it there too.
FULL_LENGTH = (1, 3, 2)


class Reads:
    """Per spied call, the set of contexts that the calls under it read."""

    def __init__(self):
        self.open = []
        self.keys = []

    def reader(self, real, pick):
        """`real`, adding pick(args) to the spied call that is running."""

        def read(*args):
            if self.open:
                self.open[-1].add(pick(args))
            return real(*args)

        return read

    def spy(self, real, key):
        """`real`, recording key(args, contexts read) for every call."""

        def spied(*args):
            self.open.append(set())
            try:
                return real(*args)
            finally:
                self.keys.append(key(args, frozenset(self.open.pop())))

        return spied


@pytest.fixture
def cauchy_reads(monkeypatch):
    """Keys of each identity `check_cauchy` computes (`_differs` over
    `_cauchy_pairs`): (w, (composition, family set to 0) of each right
    factor the sum read, (composition, family set to 0) of the member it is
    checked against), and keys (w, right factors read) of each sum the
    public functions compute (`_cauchy_sum`).  Each reading and each sum's
    pairs are tagged by id when they are made and looked up while they are
    alive, so an id never names an object made earlier."""
    reads = Reads()
    made = {}  # id of a reading -> (composition, family set to 0)

    def tagged(real):
        def read(composition, zero, v, state):
            out = real(composition, zero, v, state)
            made[id(out)] = composition, zero
            return out

        return read

    real_pairs, real_differs = schubert._cauchy_pairs, selftest._differs
    sums = {}  # id of a sum's pairs -> (w, right factors read)

    def pairs(w, right):
        read = set()

        def tracked(v):
            out = right(v)
            if right is not schubert._classical_member:
                read.add(made[id(out)])
            return out

        out = real_pairs(w, tracked)
        sums[id(out)] = w, read
        return out

    def differs(pairs, member):
        try:
            return real_differs(pairs, member)
        finally:
            w, read = sums[id(pairs)]
            reads.keys.append((w, frozenset(read), made[id(member)]))

    monkeypatch.setattr(selftest, "_last_product", tagged(schubert._last_product))
    monkeypatch.setattr(selftest, "_reading", tagged(schubert._reading))
    monkeypatch.setattr(selftest, "_cauchy_pairs", pairs)
    monkeypatch.setattr(selftest, "_differs", differs)
    monkeypatch.setattr(
        schubert, "_chain_member", reads.reader(schubert._chain_member, lambda args: args[:2])
    )
    total = reads.spy(schubert._cauchy_sum, lambda args, read: (args[2], read))
    for module in (schubert, parabolic):
        monkeypatch.setattr(module, "_cauchy_sum", total)
    return reads


@pytest.fixture
def chevalley_reads(monkeypatch):
    """Keys (rule, chains read, w, i); the parabolic rule is the quantum
    double rule read on a composition."""
    reads = Reads()
    chain = reads.reader(quantum_ring._chain_member, lambda args: args[0])
    monkeypatch.setattr(quantum_ring, "_chain_member", chain)

    def key(args, read):
        i, w, kind, _ = args
        return ("quantum_double" if kind == "parabolic" else kind), read, trim(w), i

    spied = reads.spy(quantum_ring.verify_chevalley, key)
    monkeypatch.setattr(selftest, "verify_chevalley", spied)
    return reads


@pytest.fixture
def bijection_reads(monkeypatch):
    """Keys (w, contexts whose move tables the check read)."""
    reads = Reads()
    moves = reads.reader(quantum_ring._moves, lambda args: args[1])
    monkeypatch.setattr(quantum_ring, "_moves", moves)
    spied = reads.spy(quantum_ring.bijection_check, lambda args, read: (trim(args[0]), read))
    monkeypatch.setattr(selftest, "bijection_check", spied)
    return reads


def chevalley_cases(max_n, kind):
    """The (i, w, flavor, ctx) that `check_chevalley` counts for a flavor."""
    if kind == "parabolic":
        return [
            (i, w, kind, ctx)
            for n in range(2, max_n + 1)
            for ctx in selftest.proper_contexts(n)
            for w in ctx.minimal_reps()
            for i in ctx.nodes
        ]
    return [(i, w, kind, None) for w in all_perms(max_n) for i in range(1, max_n + 1)]


def keys_of(reads, calls):
    """The keys that the spied calls give, each made on its own."""
    start = len(reads.keys)
    for call in calls:
        call()
    return reads.keys[start:]


def assert_once(computed, counted, count):
    """No key computed twice, and the counted cases are the computed ones."""
    assert len(set(computed)) == len(computed)
    assert set(counted) == set(computed)
    assert len(counted) == count


class TestEachIdentityOnce:
    def test_cauchy(self, cauchy_reads):
        ok, detail = selftest.check_cauchy(MAX_N)
        computed = list(cauchy_reads.keys)
        perms = all_perms(MAX_N)
        cases = [
            (ctx, w)
            for ctx in map(ParabolicContext, selftest.compositions(MAX_N))
            for w in ctx.minimal_reps()
        ]
        assert ok and detail == f"S_{MAX_N} plus {len(cases)} parabolic cases"
        # The double sum of each w of S_MAX_N reads classical right factors
        # and the member at q = 0 on the full flag; the quantum double sum of
        # each case reads the a = 0 members of its composition and the member.
        full_flag = (1,) * MAX_N
        expected = [(w, frozenset(), (full_flag, "q")) for w in perms] + [
            (w, frozenset({(ctx.composition, "a")}), (ctx.composition, ""))
            for ctx, w in cases
        ]
        assert_once(computed, expected, len(perms) + len(cases))
        # The public sums read the same right factors, from the cached chain.
        counted = keys_of(
            cauchy_reads,
            [lambda w=w: schubert.cauchy_rhs(w, quantum=False) for w in perms]
            + [lambda c=c: parabolic.parabolic_cauchy_rhs(*c) for c in cases],
        )
        assert_once([key[:2] for key in computed], counted, len(perms) + len(cases))

    @pytest.mark.parametrize("flavor", [None, "parabolic", "quantum_double"])
    def test_chevalley(self, chevalley_reads, flavor):
        ok, detail = selftest.check_chevalley(MAX_N, flavor)
        computed = list(chevalley_reads.keys)
        kinds = CHEVALLEY_FLAVORS if flavor is None else (flavor,)
        cases = [case for kind in kinds for case in chevalley_cases(MAX_N, kind)]
        assert ok and detail == f"{len(cases)} identities"
        counted = keys_of(
            chevalley_reads,
            [lambda c=c: selftest.verify_chevalley(*c) for c in cases],
        )
        assert_once(computed, counted, len(cases))
        if flavor is not None:
            # One flavor alone computes every case it counts.
            assert len(computed) == len(cases)
        else:
            # The quantum double flavor computed the full-length w of each
            # (1, ..., 1) at its nodes.
            shared = [
                (i, w, kind, ctx)
                for i, w, kind, ctx in chevalley_cases(MAX_N, "parabolic")
                if ctx.k == ctx.n == len(w)
            ]
            assert len(computed) == len(cases) - len(shared) > 0

    def test_bijection(self, bijection_reads):
        ok, detail = selftest.check_bijections(MAX_N)
        computed = list(bijection_reads.keys)
        cases = [(w, None) for w in all_perms(MAX_N)] + [
            (w, ctx) for ctx in selftest.proper_contexts(MAX_N) for w in ctx.minimal_reps()
        ]
        assert ok and detail == f"{len(cases)} base permutations"
        counted = keys_of(
            bijection_reads, [lambda c=c: selftest.bijection_check(*c) for c in cases]
        )
        assert_once(computed, counted, len(cases))
        # (1, ..., 1) reads as the full flag, so all its cases are counted.
        assert len(computed) == len(cases) - len(all_perms(MAX_N))


@pytest.fixture
def corrupted_member(monkeypatch):
    """The quantum double member of FULL_LENGTH on the chain of (1, 1, 1),
    made wrong: plus a1 where `_chain_member` reads it for the Chevalley
    rule, and plus a1 times g where the Cauchy, quantization and stability
    suites read it off the walk as the pair (f, g) of `_last_product` (g is
    never 0).  Its readings at q = 0 and at a = 0, the double members and
    the right factors of the Cauchy sums, stay correct."""
    real_member, real_last = schubert._chain_member, schubert._last_product

    def planted(composition, zero, w):
        padded = composition + (1,) * (len(trim(w)) - sum(composition))
        return not zero and trim(w) == FULL_LENGTH and padded == (1, 1, 1)

    def corrupted_member(composition, zero, w):
        member = real_member(composition, zero, w)
        return member + a(1) if planted(composition, zero, w) else member

    def corrupted_last(composition, zero, v, state):
        f, g = real_last(composition, zero, v, state)
        w = compose(v, ParabolicContext(composition).w0_p())
        return (f + a(1), g) if planted(composition, zero, w) else (f, g)

    for module in (schubert, parabolic, quantum_ring):
        monkeypatch.setattr(module, "_chain_member", corrupted_member)
    monkeypatch.setattr(selftest, "_last_product", corrupted_last)


@pytest.fixture
def corrupted_row(monkeypatch):
    """The full-flag node-1 row of FULL_LENGTH, with q1 added on itself."""
    real = quantum_ring._chevalley_terms

    def corrupted(i, w, flavor, ctx):
        terms = real(i, w, flavor, ctx)
        if i == 1 and w == FULL_LENGTH and ctx.k == ctx.n:
            terms[w] = terms.get(w, 0) + q(1)
        return terms

    monkeypatch.setattr(quantum_ring, "_chevalley_terms", corrupted)


SUITES = [
    (selftest.check_chevalley, {}),
    (selftest.check_chevalley, {"flavor": "parabolic"}),
    (selftest.check_chevalley, {"flavor": "quantum_double"}),
]
SUITE_IDS = ["chevalley", "chevalley-parabolic", "chevalley-quantum-double"]


class TestPlantedFaultsStillFail:
    @pytest.mark.parametrize(
        "check, options",
        SUITES
        + [
            (selftest.check_cauchy, {}),
            (selftest.check_quantization, {}),
            (selftest.check_stability, {}),
        ],
        ids=SUITE_IDS + ["cauchy", "quantization", "stability"],
    )
    def test_corrupted_member(self, corrupted_member, check, options):
        ok, _ = check(max_n=MAX_N, **options)
        assert not ok

    @pytest.mark.parametrize("check, options", SUITES, ids=SUITE_IDS)
    def test_corrupted_rule_row(self, corrupted_row, check, options):
        ok, detail = check(max_n=MAX_N, **options)
        assert not ok and "i=1" in detail

    def test_corrupted_full_flag_drop(self, monkeypatch):
        # (1, 3, 2) loses its drops on the full flag, which (1, ..., 1) also
        # reads; only the full-flag loop computes them.
        real = quantum_ring._moves

        def corrupted(w, ctx):
            covers, drops = real(w, ctx)
            if w == FULL_LENGTH and ctx.k == ctx.n:
                drops = {}
            return covers, drops

        monkeypatch.setattr(quantum_ring, "_moves", corrupted)
        ok, detail = selftest.check_bijections(MAX_N)
        assert not ok and detail.startswith("full flag pairing fails")


def former_difference(i, w, flavor, ctx=None):
    """`verify_chevalley` before the fold, kept as the oracle: the member of
    s_i times the member of w, minus the rule's sum over its row."""
    w = trim(w)

    def member(z):
        if flavor == "parabolic":
            return schubert._chain_member(ctx.composition, "", z)
        return schubert_polynomial(z, flavor)

    ring = ctx if flavor == "parabolic" else quantum_ring._FULL_FLAG
    terms = quantum_ring._chevalley_terms(i, w, flavor, ring)
    rhs = sum_of_products((coeff, member(z)) for z, coeff in terms.items())
    return member(simple(i)) * member(w) - rhs


def test_folded_difference_matches_the_former_one_on_a_wrong_row(monkeypatch):
    real = quantum_ring._chevalley_terms

    def planted(i, w, flavor, ctx):
        # q1 more on w itself, and the first other term dropped.
        terms = real(i, w, flavor, ctx)
        terms[w] = terms.get(w, 0) + q(1)
        others = [z for z in terms if z != w]
        if others:
            del terms[others[0]]
        return terms

    monkeypatch.setattr(quantum_ring, "_chevalley_terms", planted)
    cases = [case for kind in CHEVALLEY_FLAVORS for case in chevalley_cases(MAX_N, kind)]
    for i, w, flavor, ctx in cases:
        ok, diff = quantum_ring.verify_chevalley(i, w, flavor, ctx)
        assert diff == former_difference(i, w, flavor, ctx), (flavor, ctx, w, i)
        assert not ok
