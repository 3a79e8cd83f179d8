"""Acceptance checks shared by the command line driver and the test suite.

Each check returns (ok, detail) and is exact: every comparison is integer
polynomial equality.  run_all prints one PASS/FAIL line per criterion.
"""

from __future__ import annotations

import itertools
import math
import random
import time

from .parabolic import parabolic_q_double_schubert
from .poly import (
    Polynomial,
    a,
    elementary_symmetric,
    format_polynomial,
    q,
    sum_of_products,
    x,
)
from .quantization import (
    E_relation_residual,
    _quantized_pairs,
    e_relation_residual,
)
from .quantum_ring import (
    CHEVALLEY_FLAVORS,
    StructureTable,
    bijection_check,
    verify_chevalley,
)
from .schubert import (
    FAMILY_KINDS,
    _cauchy_difference,
    _member_pair,
    divided_difference,
    expand_in_schubert_basis,
    schubert_polynomial,
)
from .weyl import (
    ParabolicContext,
    all_perms,
    code,
    compose,
    cycle,
    inverse,
    length,
    perm_from_word,
    reduced_word,
    simple,
    trim,
)

__all__ = ["CRITERIA", "run_all", "compositions"]


def compositions(n: int) -> list:
    """All compositions of n in the order given by cut positions."""
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


def proper_contexts(n: int) -> list:
    return [ParabolicContext(c) for c in compositions(n) if len(c) >= 2]


def check_parabolic_example() -> tuple:
    """The composition (2,1,3) member of [5,6,4,1,2,3], against the closed product."""
    ctx = ParabolicContext((2, 1, 3))
    w = (5, 6, 4, 1, 2, 3)
    expected = (x(1) - a(4)) * (x(2) - a(4))
    for i in range(1, 4):
        expected = expected * (
            (x(1) - a(i)) * (x(2) - a(i)) * (x(3) - a(i)) + q(1)
        )
    got = parabolic_q_double_schubert(ctx, w)
    if got != expected:
        return False, "member differs from the closed product"
    return True, "bit-exact"


def check_reflection_formulas(max_i: int = 5) -> tuple:
    """Members of simple reflections are the fundamental-weight differences."""
    for i in range(1, max_i + 1):
        expected = Polynomial.zero()
        for j in range(1, i + 1):
            expected = expected + x(j) - a(j)
        if schubert_polynomial(simple(i), "quantum_double") != expected:
            return False, f"quantum double member of s_{i} is not omega_{i}(x) - omega_{i}(a)"
        quantum = schubert_polynomial(simple(i), "quantum")
        if quantum != schubert_polynomial(simple(i), "classical"):
            return False, f"quantum member of s_{i} differs from the classical one"
    return True, f"i <= {max_i}"


def _theta_misses(f: Polynomial, w, zero: str) -> bool:
    """True iff theta(f) differs from the member of w read with the family
    `zero` set to 0, found as one sum of products: the pairs of theta(f)
    (`_quantized_pairs`) and the member's `_member_pair`, negated, so
    neither side is kept."""
    pairs = _quantized_pairs(f, ())
    g, h = _member_pair((1,) * max(len(w), 1), zero, w)
    return bool(sum_of_products([*pairs, (g, -h)]).terms)


def check_quantization(max_n: int = 4) -> tuple:
    """theta carries both classical families onto their quantum versions.

    Every member is read once, as its `_member_pair`: the double member
    theta maps is built from its pair and dropped, and the quantum members
    enter `_theta_misses`, so no member is kept.
    """
    count = 0
    for w in all_perms(max_n):
        if _theta_misses(schubert_polynomial(w, "classical"), w, "a"):
            return False, f"theta misses the quantum member of {list(w)}"
        f, g = _member_pair((1,) * max(len(w), 1), "q", w)
        if _theta_misses(f * g, w, ""):
            return False, f"theta misses the quantum double member of {list(w)}"
        count += 1
    return True, f"{count} permutations"


def check_cauchy(max_n: int = 4) -> tuple:
    """Interpolation sums over weak order ideals reproduce the members.

    Each identity is one sum of products, the sum minus the member
    (`_cauchy_difference`), so no member is kept.  The quantum sum of a w of
    length max_n is the parabolic sum of the composition (1, ..., 1) of
    max_n on the same members, so that composition counts it without
    computing it again.
    """
    for w in all_perms(max_n):
        full_flag = (1,) * max(len(w), 1)
        if _cauchy_difference(full_flag, False, w).terms:
            return False, f"double sum fails at {list(w)}"
        if _cauchy_difference(full_flag, True, w).terms:
            return False, f"quantum double sum fails at {list(w)}"
    cosets = 0
    for comp in compositions(max_n):
        for w in ParabolicContext(comp).minimal_reps():
            cosets += 1
            if len(comp) == len(w) == max_n:  # checked on the full flag above
                continue
            if _cauchy_difference(comp, True, w).terms:
                return False, f"parabolic sum fails at {comp}, {list(w)}"
    return True, f"S_{max_n} plus {cosets} parabolic cases"


def check_stability(max_n: int) -> tuple:
    """Members are unchanged by appending a trailing singleton block.

    Each identity is one sum of products, the wider member's pair minus the
    member's own (`_member_pair`), so no member is kept.
    """
    count = 0
    for n in range(2, max_n + 1):
        for comp in compositions(n):
            for w in ParabolicContext(comp).minimal_reps():
                f, g = _member_pair(comp + (1,), "", w)
                h, k = _member_pair(comp, "", w)
                if sum_of_products([(f, g), (h, -k)]).terms:
                    return False, f"extension changes the member at {comp}, {list(w)}"
                count += 1
    return True, f"{count} members stable under extension"


def check_chevalley(max_n: int = 4, flavor: str | None = None) -> tuple:
    """Divisor multiplication rule, all flavors, including every composition.

    The quantum double identity of w at a node i < len(w) is the parabolic
    one of the composition (1, ..., 1) of len(w), on the same row and
    members (`verify_chevalley`), so when both flavors run the parabolic
    loop counts it without computing it again.  An unknown flavor raises
    ValueError: it is the caller's error, not a falsified identity.
    """
    if flavor is not None and flavor not in CHEVALLEY_FLAVORS:
        raise ValueError(f"unknown flavor {flavor!r}")
    checks = 0
    for kind in CHEVALLEY_FLAVORS:
        if flavor not in (None, kind):
            continue
        if kind == "parabolic":
            cases = [
                (ctx, w, i)
                for n in range(2, max_n + 1)
                for ctx in proper_contexts(n)
                for w in ctx.minimal_reps()
                for i in ctx.nodes
            ]
        else:
            cases = [
                (None, w, i) for w in all_perms(max_n) for i in range(1, max_n + 1)
            ]
        for ctx, w, i in cases:
            if kind == "parabolic" and flavor is None and ctx.k == ctx.n == len(w):
                checks += 1
                continue
            ok, diff = verify_chevalley(i, w, kind, ctx)
            if not ok:
                where = "" if ctx is None else f"{ctx.composition}, "
                return False, (
                    f"{kind} rule fails at {where}{list(w)}, i={i}; "
                    f"difference {format_polynomial(diff)}"
                )
            checks += 1
    return True, f"{checks} identities"


def check_leading_terms(max_n: int = 5) -> tuple:
    """The x-leading term of every family member is the code monomial."""
    count = 0
    for w in all_perms(max_n):
        for kind in FAMILY_KINDS:
            f = schubert_polynomial(w, kind)
            lead = f.x_lead()
            if lead != code(w):
                return False, f"{kind} member of {list(w)} leads at {lead}"
            if f.x_coefficient(lead) != Polynomial.const(1):
                return False, f"{kind} member of {list(w)} has a non-unit lead"
            count += 1
    return True, f"{count} members"


def _failed_table_check(table: StructureTable) -> str | None:
    """The first ring-axiom or divisor-row check that fails, shared by every
    table.  Commutativity is not among them: `build` stores one row under
    (u, v) and (v, u), so only a table read by `from_json` can break it."""
    checks = (
        (table.check_associative, "an associativity triple fails"),
        (table.check_divisor_rows, "a divisor row disagrees with the rule"),
    )
    return next((message for check, message in checks if not check()), None)


def check_full_flag_table(n: int = 3) -> tuple:
    """Three-strand structure table: ring axioms and divisor rows."""
    table = StructureTable.build(n)
    failed = _failed_table_check(table)
    if failed:
        return False, failed
    two = StructureTable.build(2)
    if two.product((2, 1), (2, 1)) != {(2, 1): a(2) - a(1), (): q(1)}:
        return False, "the two-strand square is wrong"
    size = len(table.basis)
    return True, f"{size}x{size} table, {size ** 3} triples"


def check_parabolic_tables(comps=((2, 2), (2, 1))) -> tuple:
    """Partial-flag structure tables: ring axioms, divisor rows and basis rank."""
    details = []
    for comp in comps:
        table = StructureTable.build(ParabolicContext(comp))
        rank = math.factorial(table.n)
        for block in comp:
            rank //= math.factorial(block)
        if len(table.basis) != rank:
            return False, f"{comp}: basis rank {len(table.basis)} != {rank}"
        failed = _failed_table_check(table)
        if failed:
            return False, f"{comp}: {failed}"
        details.append(f"{comp} rank {rank}")
    return True, "; ".join(details)


def _random_polynomial(rng: random.Random) -> Polynomial:
    factories = {"a": a, "x": x, "q": q}
    bounds = {"a": 5, "x": 3, "q": 2}
    total = Polynomial.zero()
    for _ in range(rng.randint(2, 6)):
        term = Polynomial.const(rng.randint(-9, 9))
        for _ in range(rng.randint(0, 4)):
            family = rng.choice("aaxq")
            term = term * factories[family](rng.randint(1, bounds[family]))
        total = total + term
    return total


def _random_reduced_word(w, rng: random.Random) -> tuple:
    word = []
    w = trim(w)
    while w:
        winv = inverse(w)
        descents = [i for i in range(1, len(w)) if winv[i - 1] > winv[i]]
        i = rng.choice(descents)
        word.append(i)
        w = compose(simple(i), w)
    return tuple(word)


def _apply_word(word, f: Polynomial) -> Polynomial:
    for i in reversed(word):
        f = divided_difference(i, f)
    return f


def _a_monomial(exponents) -> Polynomial:
    factors = (a(i) ** e for i, e in enumerate(exponents, start=1))
    return math.prod(factors, start=Polynomial.const(1))


def check_operator_algebra(samples: int = 200, seed: int = 20260815) -> tuple:
    """Divided differences: relations, word independence, and the two ladders."""
    rng = random.Random(seed)
    for _ in range(20):
        f = _random_polynomial(rng)
        for i in range(1, 5):
            if divided_difference(i, divided_difference(i, f)):
                return False, f"square of the operator at {i} is nonzero"
        for i in range(1, 4):
            lhs = divided_difference(
                i, divided_difference(i + 1, divided_difference(i, f))
            )
            rhs = divided_difference(
                i + 1, divided_difference(i, divided_difference(i + 1, f))
            )
            if lhs != rhs:
                return False, f"braid relation fails at {i}"
        if divided_difference(1, divided_difference(3, f)) != divided_difference(
            3, divided_difference(1, f)
        ):
            return False, "distant operators do not commute"
    perms = [w for w in all_perms(5) if length(w) >= 1]
    for _ in range(samples):
        w = rng.choice(perms)
        f = _random_polynomial(rng)
        word = _random_reduced_word(w, rng)
        if perm_from_word(word) != w:
            return False, "random reduced word does not rebuild its permutation"
        if _apply_word(word, f) != _apply_word(reduced_word(w), f):
            return False, f"two reduced words of {list(w)} disagree"
    # descending chains: a^beta with beta_i <= n-i dies unless beta_1 = n-1,
    # in which case the exponents shift down one slot
    for n in range(2, 5):
        betas = itertools.product(
            *[range(n - i + 1) if i > 1 else range(n) for i in range(1, n + 1)]
        )
        for beta in betas:
            f = _a_monomial(beta)
            for i in range(1, n):
                f = divided_difference(i, f)
            if beta[0] < n - 1:
                if f:
                    return False, f"chain on a^{beta} should vanish"
            else:
                if f != _a_monomial(beta[1:]):
                    return False, f"chain on a^{beta} should shift the exponents"
    # difference of elementary symmetrics is unitriangular with cycle members
    for p in range(1, 5):
        for i in range(1, p + 1):
            diff = elementary_symmetric(
                i, [("x", t) for t in range(1, p + 1)]
            ) - elementary_symmetric(i, [("a", t) for t in range(1, p + 1)])
            expansion = expand_in_schubert_basis(diff, "double")
            cycles = {cycle(j, p): j for j in range(1, i + 1)}
            if any(w not in cycles for w in expansion):
                return False, f"e_{i}^{p} difference leaves the cycle span"
            if expansion.get(cycle(i, p)) != Polynomial.const(1):
                return False, f"e_{i}^{p} difference is not unitriangular"
    # straightening relations among (quantum) elementary symmetrics
    for p in range(5):
        for i in range(p + 1):
            for j in range(i + 1):
                if e_relation_residual(i, j, p):
                    return False, f"classical straightening fails at {(i, j, p)}"
                if E_relation_residual(i, j, p):
                    return False, f"quantum straightening fails at {(i, j, p)}"
    return True, f"{samples} word-independence samples plus ladders"


def check_bijections(max_n: int = 4) -> tuple:
    """Pair bijections behind the quantum correction sums.

    The composition (1, ..., 1) reads as the full flag (`bijection_check`),
    so its cases are counted, not computed again.
    """
    count = 0
    for w in all_perms(max_n):
        if not bijection_check(w):
            return False, f"full flag pairing fails at {list(w)}"
        count += 1
    for ctx in proper_contexts(max_n):
        for w in ctx.minimal_reps():
            if ctx.k < ctx.n and not bijection_check(w, ctx):
                return False, f"parabolic pairing fails at {ctx.composition}, {list(w)}"
            count += 1
    return True, f"{count} base permutations"


CRITERIA = (
    ("parabolic member worked product", check_parabolic_example),
    ("simple reflection members", check_reflection_formulas),
    ("quantization map on both families", check_quantization),
    ("interpolation sums", check_cauchy),
    ("divisor multiplication rule, all flavors", check_chevalley),
    ("leading term law", check_leading_terms),
    ("three-strand structure table", check_full_flag_table),
    ("partial-flag structure tables", check_parabolic_tables),
    ("divided difference operator algebra", check_operator_algebra),
    ("correction sum bijections", check_bijections),
)


def run_all(write=print) -> bool:
    ok_all = True
    for index, (name, fn) in enumerate(CRITERIA, start=1):
        start = time.perf_counter()
        ok, detail = fn()
        elapsed = time.perf_counter() - start
        status = "PASS" if ok else "FAIL"
        write(f"{status} criterion {index}: {name} [{detail}] ({elapsed:.2f}s)")
        ok_all = ok_all and ok
    return ok_all
