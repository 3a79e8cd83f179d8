"""Golden quantization output: SHA-256 of the text of fixed decompositions.

The CLI reaches `theta` only through `verify quantization`, which prints a
count, so `test_golden_cli.py` pins none of its output.  These digests pin the standard decomposition, `theta`, `decompose_in_E` and
`theta_P` on fixed inputs.  Re-record only for a change that is meant to
alter output, and say so where the change is described.
"""

import hashlib
import itertools

import pytest

from qschub.parabolic import theta_P
from qschub.poly import Polynomial, format_polynomial, variable, x
from qschub.quantization import decompose_in_E, standard_decompose, theta
from qschub.schubert import schubert_polynomial
from qschub.weyl import ParabolicContext, all_perms


def _standard_decompositions() -> str:
    lines = []
    for d in range(5):
        for exps in itertools.product(range(d + 1), repeat=3):
            if sum(exps) != d:
                continue
            mono = Polynomial.const(1)
            for i, e in enumerate(exps, start=1):
                mono = mono * x(i) ** e
            items = sorted(standard_decompose(mono).items())
            lines.append(f"{format_polynomial(mono)}: {items}")
    return "\n".join(lines)


def _theta_of_members(n: int) -> str:
    return "\n".join(
        f"{list(w)} {family}: {format_polynomial(theta(schubert_polynomial(w, family)))}"
        for w in all_perms(n)
        for family in ("classical", "double")
    )


def _theta_of_mixed_staircases() -> str:
    # Its a/q strata have x parts of staircase 5, 5 and 3.
    a1, q1 = variable("a", 1), variable("q", 1)
    return format_polynomial(theta(a1 * x(3) ** 2 + q1 * x(1) ** 3 * x(2) ** 3 + x(2)))


def _theta_of_double_members() -> str:
    return "\n".join(
        f"{list(w)}: {format_polynomial(theta(schubert_polynomial(w, 'double')))}"
        for w in all_perms(4)
    )


def _decompose_quantum_members(n: int = 4) -> str:
    lines = []
    for w in all_perms(n):
        coords = decompose_in_E(schubert_polynomial(w, "quantum"))
        for index, c in sorted(coords.items()):
            lines.append(f"{list(w)} {list(index)}: {format_polynomial(c)}")
    return "\n".join(lines)


def _theta_P_of_double_members(composition) -> str:
    ctx = ParabolicContext(composition)
    return "\n".join(
        f"{list(w)}: "
        f"{format_polynomial(theta_P(ctx, schubert_polynomial(w, 'double', ctx.n)))}"
        for w in ctx.minimal_reps()
    )


GOLDEN = [
    (
        "standard_decompose",
        _standard_decompositions,
        "82cde23f3017b82bb46783006237a6cc9c632516b72cbdd50638bf2639968f7e",
    ),
    (
        "theta",
        _theta_of_double_members,
        "a0ea403ced2fede03662db9ce307822e3c3bd56a3579134db0d116b5128907e6",
    ),
    (
        "decompose_in_E",
        _decompose_quantum_members,
        "9d1eaee8d52013fdeddd50b06bbccb441874d17ce7f774cad27df18450e5eddc",
    ),
    (
        "theta_P-2,2",
        lambda: _theta_P_of_double_members((2, 2)),
        "d5590bacb313bf64d321c445a1e9bc6b33fac6ce50243df2567469cec699638a",
    ),
    (
        "theta_P-1,2,1",
        lambda: _theta_P_of_double_members((1, 2, 1)),
        "aa51259f951ea36fbf33430526a1872d181dd60d4dbfb6329e8ec7fe24c94b0e",
    ),
    (
        "theta-S5",
        lambda: _theta_of_members(5),
        "5020c0def3c9acfc9afb999f5da6e038c0d519f418b0e081c436fc6d658954c3",
    ),
    (
        "theta-mixed-staircases",
        _theta_of_mixed_staircases,
        "555ad62265e76e21985c3c9599b8c8e3348f41d992595fd3aab9bafc6a036a92",
    ),
    (
        "decompose_in_E-S5",
        lambda: _decompose_quantum_members(5),
        "aca6e9b669bf0516a381db86442e5c2234c65b5c4752a9a1d583ddbb3ee0d9ab",
    ),
    (
        "theta_P-2,2,1",
        lambda: _theta_P_of_double_members((2, 2, 1)),
        "91f1c42a6547d914b074932ab2aa28f7d3be37dd813f884e5d6c22f175206f66",
    ),
    (
        "theta_P-1,1,3",
        lambda: _theta_P_of_double_members((1, 1, 3)),
        "e9334f8d8b851217ff166184732040c9bfb62e4dab8b3fa5cf21dcc3d8306727",
    ),
]


@pytest.mark.parametrize(
    "build, expected", [g[1:] for g in GOLDEN], ids=[g[0] for g in GOLDEN]
)
def test_golden_quantization(build, expected):
    assert hashlib.sha256(build().encode()).hexdigest() == expected
