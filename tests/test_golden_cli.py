"""Golden CLI output: SHA-256 of stdout and the exit code, byte for byte.

Any change to a member, an expansion, a verification report or a structure
table changes a digest, so refactors are checked against these.  Re-record
only for a change that is meant to alter output, and say so where the
change is described.  The one table past the `table` bound that is
pinned, (2,2,2), is pinned on its builder.
"""

import hashlib

import pytest

from qschub import quantum_ring, schubert
from qschub.cli import main
from qschub.quantum_ring import StructureTable
from qschub.weyl import ParabolicContext

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
        ["verify", "bijection", "--max-n", "6"],
        0,
        "d269798a5c2f10e5883f2166f07d474514603e25f164db89535c3899882bc251",
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
        ["table", "--parabolic", "2,2,1"],
        0,
        "52977c6fbd4eae13669277115a60a6588e933801d4f7c40beffa00c95cb3bfa1",
    ),
    (
        ["table", "--n", "3", "--format", "text"],
        0,
        "fe8763d56f4fcca2cac2a807f5f006ccefc6661d16fcb430c1b75db68b70a641",
    ),
    (
        ["table", "--parabolic", "2,2,1", "--format", "text"],
        0,
        "99679d80c7c550ded664b843e40592941913605b43f0589341b50f87002738c7",
    ),
    (
        ["table", "--parabolic", "3,2"],
        0,
        "3aee6e583f9170116c17bb68377e8e67e3c77925b263216cdf7dd43ea30561b2",
    ),
    (
        ["table", "--parabolic", "2,3"],
        0,
        "b6f9842af9d408c6a4ee996bde61c3e784fb5b9a5a2f5521b058c89d2a104013",
    ),
    (
        ["table", "--parabolic", "1,3,1"],
        0,
        "e48a64722941aa5c77839d825fcc5581934823228461b0fc296ea9c0f9d956a8",
    ),
    (
        ["table", "--parabolic", "3,1,1"],
        0,
        "e05ba6157837ef3899a9ca645a38c4ec513b48156ed5872de753f42f2b759c9d",
    ),
    (
        ["expand", "--poly", "x1^4*x2^3*x3^2*x4", "--family", "double"],
        0,
        "ad788ee0ac047785decb7002fdd08a4d215ed46ce7e2d6f6f563fcf36061a5d5",
    ),
    (
        ["verify", "chevalley", "--max-n", "4", "--flavor", "double"],
        0,
        "572b84804c348230f2144ea0022344300f566ba7b3e99224ee40c1dc8b32db86",
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


@pytest.mark.parametrize(
    "argv",
    [
        ["table", "--n", "4"],
        ["table", "--parabolic", "2,2,1"],
        ["table", "--parabolic", "3,2"],
    ],
    ids=" ".join,
)
def test_tables_build_no_member(capsys, monkeypatch, argv):
    # Tables come from the Chevalley rule alone: with every member chain
    # refused, and no member left cached, they keep their digests.
    def refused(*args):
        raise AssertionError("a table built a member")

    monkeypatch.setattr(schubert, "_dd_from_top", refused)
    schubert._signed_chain.cache_clear()
    quantum_ring._solver.cache_clear()
    digest = {tuple(g[0]): g[2] for g in GOLDEN}[tuple(argv)]
    test_output_is_byte_identical(capsys, argv, 0, digest)


def test_out_file_holds_the_stdout_bytes(tmp_path, capsys):
    target = tmp_path / "table.json"
    assert main(["table", "--parabolic", "2,2,1", "--out", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert (
        hashlib.sha256(target.read_bytes()).hexdigest()
        == "52977c6fbd4eae13669277115a60a6588e933801d4f7c40beffa00c95cb3bfa1"
    )


@pytest.mark.slow
def test_sixty_element_table_is_byte_identical(capsys):
    # About 4 s on a shared 2-vCPU VM: run with `python -m pytest -m slow`.
    test_output_is_byte_identical(
        capsys,
        ["table", "--parabolic", "1,1,1,2"],
        0,
        "626cfe3693d53af1075057f2c8df1a9885661868330c702e46d0a4d76efbddc7",
    )


@pytest.mark.slow
def test_chevalley_at_five_is_byte_identical(capsys):
    # About 3 s on a shared 2-vCPU VM: run with `python -m pytest -m slow`.
    test_output_is_byte_identical(
        capsys,
        ["verify", "chevalley", "--max-n", "5"],
        0,
        "deb14f1a0fead3480eb5828d4bc6fe11c43c170db66bd7ca3aa1528549f7555b",
    )


@pytest.mark.slow
def test_double_chevalley_at_five_is_byte_identical(capsys):
    # About 1 s on a shared 2-vCPU VM: run with `python -m pytest -m slow`.
    test_output_is_byte_identical(
        capsys,
        ["verify", "chevalley", "--max-n", "5", "--flavor", "double"],
        0,
        "41168cbafd6411b5f877d46f89716e0adfbe027c25291703176210d5d16375b6",
    )


@pytest.mark.slow
def test_ninety_element_table_is_byte_identical():
    # Past the `table` bound, so pinned on the builder: three q's, and the
    # probe of F(u, u, u, d) runs at every degree.  About 13-16 s and 474 MB
    # on a shared 2-vCPU VM: run with `python -m pytest -m slow`.
    text = StructureTable.build(ParabolicContext((2, 2, 2))).to_json()
    assert (
        hashlib.sha256(text.encode("utf-8")).hexdigest()
        == "fa4b431a816845a8163dd357f2c2a2cefbbfe37aab9d70bc0f56bcfad18901ae"
    )
