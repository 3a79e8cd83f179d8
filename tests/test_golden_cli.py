"""Golden CLI output: SHA-256 of stdout and the exit code, byte for byte.

Any change to a member, an expansion, a verification report or a structure
table changes a digest, so refactors are checked against these.  Re-record
only for a change that is meant to alter output, and say so where the
change is described.
"""

import hashlib

import pytest

from qschub.cli import main

GOLDEN = [
    (
        ["poly", "--w", "[3,1,2]", "--family", "quantum-double"],
        0,
        "03a2ba2d7b0a659046dbca52ca3d956609d2cc351bf8a66cdaac2f7228207123",
    ),
    (
        ["poly", "--w", "[4,2,5,1,3]", "--family", "double", "--format", "json"],
        0,
        "e408163ae4d98158b2bc7a894352c54f02292c039711ef88d7bd0241f9003fb8",
    ),
    (
        ["poly", "--w", "[3,4,1,2]", "--parabolic", "2,2", "--format", "json"],
        0,
        "a07f54ab7f8572c0d39c598f5ef8cbf15fd6069c909b36ba96dcb390cc83d736",
    ),
    (
        ["poly", "--w", "[5,6,4,1,2,3]", "--parabolic", "2,1,3"],
        0,
        "0d9556e61f6c45fd21c27de6853881fd576331e6f89712dc4c3260c59252d2c1",
    ),
    (
        ["expand", "--poly", "x1^3*x2-a1*x1^2+q1*x2", "--family", "quantum-double"],
        0,
        "a00eee7305b2f29b6e95b8f12d41b0086ecb1fe964a5cef01cf885d8a76b79eb",
    ),
    (
        ["expand", "--poly", "x1*x2+q1", "--parabolic", "2,2"],
        0,
        "07c7c9f43cba1a2fde29acfdc654849d5e7189ea8ba68a4013effa3cd61553ef",
    ),
    (
        ["verify", "chevalley", "--max-n", "3"],
        0,
        "826becfacf2f5042a0ac5d721eac76d57074e7bcefc85036f570f9c172e4de86",
    ),
    (
        ["verify", "chevalley", "--max-n", "3", "--flavor", "classical"],
        0,
        "56718999241e56263b77af3c9070466d244dcda2a3cde63d79119d3968e08dbf",
    ),
    (
        ["verify", "chevalley", "--max-n", "3", "--flavor", "quantum"],
        0,
        "56718999241e56263b77af3c9070466d244dcda2a3cde63d79119d3968e08dbf",
    ),
    (
        ["verify", "chevalley", "--max-n", "3", "--flavor", "double"],
        0,
        "56718999241e56263b77af3c9070466d244dcda2a3cde63d79119d3968e08dbf",
    ),
    (
        ["verify", "chevalley", "--max-n", "3", "--flavor", "quantum-double"],
        0,
        "56718999241e56263b77af3c9070466d244dcda2a3cde63d79119d3968e08dbf",
    ),
    (
        ["verify", "chevalley", "--max-n", "3", "--flavor", "parabolic"],
        0,
        "79f79c1dd41b136d1467074c95f299f8e848acc24cbb450432527a12353cbd5f",
    ),
    (
        ["verify", "bijection", "--max-n", "4"],
        0,
        "c2e6151d768b8ea5a3cd89db06eeff5ecc234b1e2ea2074dcb7ac7de2f50174e",
    ),
    (
        ["verify", "bijection", "--max-n", "5"],
        0,
        "50932f9f85a267399c4cfd1b3a80b2a178bd712d4d36abd466a5ac9c6ae73086",
    ),
    (
        ["verify", "cauchy", "--max-n", "4"],
        0,
        "5a64ea641da745148b13b24a3907404be9184cbb8eaacbe68220f2c85ec4c790",
    ),
    (
        ["table", "--n", "3"],
        0,
        "fa11e2224536f682978cb4338c4674bce8c5676f198a212ae2af4c36784faa8c",
    ),
    (
        ["table", "--parabolic", "2,2"],
        0,
        "03d73187ac5bf392f3f64c31dd1ec8a431e5c144fd5f39ed3c8807d59badb586",
    ),
    (
        ["table", "--parabolic", "2,1", "--format", "text"],
        0,
        "22e172440219dbb40c7dd172822ab6d515e29d461ed109517515916e018a8cee",
    ),
    (
        ["table", "--parabolic", "1,3"],
        0,
        "fdd646ff3f1426bb5656190dc3aeec14773912628f106d6ef6b2a80dde78e912",
    ),
    (
        ["table", "--n", "2", "--format", "text"],
        0,
        "1bdef84037417818f3b82145db442c01ba9a850b1cbe3429496b74654966bb02",
    ),
    (
        ["table", "--parabolic", "1,1,1"],
        0,
        "33d1aca083107690852f175885d5f4d717b1dd27df6157faccf12ca2e1f5f0e0",
    ),
    (
        ["table", "--n", "4"],
        0,
        "70431f0cc3589dd4722f9b5f7489b357352e77433d592f01d4b6ac3fc1c7f727",
    ),
    (
        ["table", "--parabolic", "1,2,1"],
        0,
        "08d96da5da6872708a3f458510c0462cbe732e27305a6f4151e6f7e897134ea5",
    ),
    (
        ["table", "--parabolic", "2,1,1"],
        0,
        "077d1a6a4ed89ed4732ad8d3f4f65d300750629119c20974aa68431f42851f5a",
    ),
    (
        ["expand", "--poly", "x1^3", "--parabolic", "1,1"],
        0,
        "ea019653b677bda53ef870329a6c871d3336c2c494da1fee5396aadad1e23595",
    ),
    (
        ["verify", "stability", "--max-n", "5"],
        0,
        "e39d26e1b342d1ca6bca2b2300253f6e736596e7c05afb95da96c8f092ff2ddd",
    ),
    (
        ["verify", "chevalley", "--max-n", "4", "--flavor", "parabolic"],
        0,
        "e6e560a48431c43c1ab0804ae590f0bec27d7f328605232d4b577a4a63efca33",
    ),
    (
        ["verify", "cauchy", "--max-n", "5"],
        0,
        "8985dfcbd41f1211509ecc5458a34734f8d0d5e40f9a7f5cdf3a86a0db15ab16",
    ),
    (
        ["verify", "chevalley", "--max-n", "4"],
        0,
        "8413ba11a376c53c4fa62660751fc2b4c46a872c4ba52e3bebb97e2acb20e60d",
    ),
    (
        ["verify", "quantization", "--max-n", "5"],
        0,
        "65a3ce991b7cc471a38227e9f5123e5ff2e8cfdde56ff9507523a4c94a64c8e5",
    ),
    (
        ["poly", "--w", "[1,2,4,3]", "--parabolic", "2,1"],
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
    (
        ["poly", "--w", "[2,1,3]", "--parabolic", "2,1"],
        2,
        "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855",
    ),
]


@pytest.mark.parametrize(
    "argv, exit_code, digest", GOLDEN, ids=[" ".join(g[0]) for g in GOLDEN]
)
def test_output_is_byte_identical(capsys, argv, exit_code, digest):
    got = main(list(argv))
    out = capsys.readouterr().out
    assert got == exit_code
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest
