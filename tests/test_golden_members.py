"""Golden members: SHA-256 of the text of fixed sets of members.

The digests pin every S_5 member of the three a- or q-carrying families,
every parabolic member for compositions of n <= 5, six long S_6 members,
and the coefficients of det(D - t Id) for every composition of n <= 8.  Any change to how members are built must leave these texts
byte-identical.  Re-record only for a change that is meant to alter output,
and say so where the change is described.
"""

import hashlib

import pytest

from qschub.parabolic import parabolic_q_double_schubert
from qschub.poly import format_polynomial
from qschub.schubert import _d_char_coeffs, schubert_polynomial
from qschub.selftest import compositions
from qschub.weyl import ParabolicContext, all_perms

# Long S_6 permutations: the first is near the top of the chain, the last
# needs most of its divided differences.
S6_MEMBERS = ((6, 5, 4, 1, 2, 3), (4, 3, 2, 5, 6, 1), (1, 3, 2, 6, 5, 4))


def _family(family: str, n: int = 5) -> str:
    return "\n".join(
        f"{list(w)}: {format_polynomial(schubert_polynomial(w, family, n))}"
        for w in all_perms(n)
    )


def _parabolic() -> str:
    lines = []
    for n in range(1, 6):
        for comp in compositions(n):
            ctx = ParabolicContext(comp)
            for w in ctx.minimal_reps():
                member = format_polynomial(parabolic_q_double_schubert(ctx, w))
                lines.append(f"{list(comp)} {list(w)}: {member}")
    return "\n".join(lines)


def _s6_members() -> str:
    return "\n".join(
        f"{family} {list(w)}: {format_polynomial(schubert_polynomial(w, family, 6))}"
        for w in S6_MEMBERS
        for family in ("quantum_double", "double")
    )


def _d_coefficients() -> str:
    return "\n".join(
        f"{list(comp)}: " + " | ".join(map(format_polynomial, _d_char_coeffs(comp)))
        for n in range(1, 9)
        for comp in compositions(n)
    )


GOLDEN = [
    (
        "quantum_double-S5",
        lambda: _family("quantum_double"),
        "a2cf2acc7c7985f883a064cd281f635285bb23f37236065f5446bb2b7a39deac",
    ),
    (
        "double-S5",
        lambda: _family("double"),
        "10b62b241b18e84ddae86c02459d2aa2bdb014a284f844aa6d58ccdb643c0f51",
    ),
    (
        "quantum-S5",
        lambda: _family("quantum"),
        "f529ee86e006bcce68187dadf8318280f70fde6170fb00a4453a7d2e6dfab10b",
    ),
    (
        "parabolic-n<=5",
        _parabolic,
        "54cdb2d671311f1e910f244b6fa2ff872a9e72b3ca762553eb7b9ef14dbfad39",
    ),
    (
        "S6-long",
        _s6_members,
        "ef22351277b29985512b926d11411be17e5f620e70d58e6cc31392302a8ca266",
    ),
    (
        "D-coefficients-n<=8",
        _d_coefficients,
        "3016fb3443cb1a6d22262e13fa0e2ecee4f3582304c814aab529468895d90690",
    ),
]


@pytest.mark.parametrize(
    "build, expected", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
)
def test_golden_members(build, expected):
    assert hashlib.sha256(build().encode()).hexdigest() == expected


@pytest.mark.slow
def test_every_s6_double_member():
    # All 720 double members of S_6, read alone.  About 10 s on a shared
    # 2-vCPU VM: run with `python -m pytest -m slow`.
    text = _family("double", 6)
    assert (
        hashlib.sha256(text.encode()).hexdigest()
        == "c83db7bb344ee2f1dfd7e856c257c96711090cd8bb034b357605af9c1e759e88"
    )
