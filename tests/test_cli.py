"""Command line driver: worked examples, formats, and exit codes."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import qschub
from qschub import cli, schubert, selftest
from qschub.cli import VERIFY_SUITES, main
from qschub.poly import polynomial_from_json
from qschub.quantum_ring import StructureTable
from qschub.schubert import schubert_polynomial


def subprocess_env() -> dict:
    """The environment with this checkout's `src` first on PYTHONPATH."""
    src = str(Path(qschub.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def run(capsys, *argv):
    exit_code = main(list(argv))
    captured = capsys.readouterr()
    return exit_code, captured.out.rstrip("\n"), captured.err


class TestPoly:
    def test_quantum_double_example(self, capsys):
        exit_code, out, _ = run(
            capsys, "poly", "--w", "[3,1,2]", "--family", "quantum-double"
        )
        assert exit_code == 0
        assert out == "x1^2 - x1*a1 - x1*a2 + a1*a2 - q1"

    def test_classical_identity(self, capsys):
        exit_code, out, _ = run(capsys, "poly", "--w", "[1]", "--family", "classical")
        assert exit_code == 0
        assert out == "1"

    def test_default_family_is_quantum_double(self, capsys):
        exit_code, out, _ = run(capsys, "poly", "--w", "[3,1,2]")
        assert exit_code == 0
        assert out == "x1^2 - x1*a1 - x1*a2 + a1*a2 - q1"

    def test_parabolic_member(self, capsys):
        from qschub.parabolic import parabolic_q_double_schubert
        from qschub.poly import format_polynomial
        from qschub.weyl import ParabolicContext

        exit_code, out, _ = run(
            capsys, "poly", "--parabolic", "2,1,3", "--w", "[5,6,4,1,2,3]"
        )
        assert exit_code == 0
        expected = parabolic_q_double_schubert(
            ParabolicContext((2, 1, 3)), (5, 6, 4, 1, 2, 3)
        )
        assert out == format_polynomial(expected)

    def test_json_round_trip(self, capsys):
        exit_code, out, _ = run(
            capsys, "poly", "--w", "[3,1,2]", "--format", "json"
        )
        assert exit_code == 0
        assert polynomial_from_json(json.loads(out)) == schubert_polynomial(
            (3, 1, 2), "quantum_double"
        )

    def test_malformed_permutation(self, capsys):
        exit_code, _, err = run(capsys, "poly", "--w", "[3,1,2")
        assert exit_code == 2
        assert "permutation" in err

    def test_family_conflicts_with_parabolic(self, capsys):
        exit_code, _, err = run(
            capsys,
            "poly", "--w", "[2,1]", "--family", "classical", "--parabolic", "1,1",
        )
        assert exit_code == 2
        assert "does not combine" in err

    def test_unknown_family_is_refused_by_the_parser(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["poly", "--w", "[2,1]", "--family", "nope"])
        assert info.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "invalid choice: 'nope'" in captured.err

    def test_non_minimal_parabolic_input(self, capsys):
        exit_code, _, err = run(capsys, "poly", "--parabolic", "2,1", "--w", "[2,1,3]")
        assert exit_code == 2
        assert "minimal" in err

    @pytest.mark.parametrize(
        "w, message",
        [
            ("[1,2,4,3]", "permutation [1, 2, 4, 3] has support beyond n=3"),
            ("[2,1,3]", "[2, 1, 3] is not minimal in its coset"),
        ],
    )
    def test_parabolic_input_outside_the_coset_basis(self, capsys, w, message):
        exit_code, out, err = run(capsys, "poly", "--w", w, "--parabolic", "2,1")
        assert (exit_code, out) == (2, "")
        assert err == f"error: {message}\n"

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "member.txt"
        exit_code, out, _ = run(
            capsys, "poly", "--w", "[2,1]", "--out", str(target)
        )
        assert exit_code == 0
        assert out == ""
        assert target.read_text().strip() == "x1 - a1"


class TestExpand:
    def test_quantum_basis(self, capsys):
        exit_code, out, _ = run(
            capsys, "expand", "--poly", "x1*x2 + q1", "--family", "quantum"
        )
        assert exit_code == 0
        assert out == "[2,3,1]: 1"

    def test_zero_polynomial(self, capsys):
        exit_code, out, _ = run(capsys, "expand", "--poly", "0", "--family", "classical")
        assert exit_code == 0
        assert out == "0"

    def test_json_format(self, capsys):
        exit_code, out, _ = run(
            capsys,
            "expand", "--poly", "x1^2", "--family", "classical", "--format", "json",
        )
        assert exit_code == 0
        payload = json.loads(out)
        assert [item["w"] for item in payload] == ["[3,1,2]"]

    def test_parabolic_expansion_round_trips_members(self, capsys):
        exit_code, member_text, _ = run(
            capsys, "poly", "--parabolic", "2,2", "--w", "[3,4,1,2]"
        )
        assert exit_code == 0
        exit_code, out, _ = run(
            capsys, "expand", "--poly", member_text, "--parabolic", "2,2"
        )
        assert exit_code == 0
        assert out == "[3,4,1,2]: 1"

    def test_parse_error(self, capsys):
        exit_code, _, err = run(capsys, "expand", "--poly", "x1 +* q1")
        assert exit_code == 2
        assert err

    def test_index_beyond_layout_fails_at_once(self, capsys):
        exit_code, _, err = run(capsys, "expand", "--poly", "x200^2", "--family", "quantum")
        assert exit_code == 2
        assert err.startswith("error:") and "packed layout" in err

    def test_outside_span(self, capsys):
        exit_code, _, err = run(
            capsys, "expand", "--poly", "x1", "--parabolic", "2,1"
        )
        assert exit_code == 2
        assert "span" in err


class TestVerify:
    @pytest.mark.parametrize(
        "suite", ["chevalley", "cauchy", "quantization", "stability", "bijection"]
    )
    def test_suites_verify(self, capsys, suite):
        exit_code, out, _ = run(capsys, "verify", suite, "--max-n", "3")
        assert exit_code == 0
        assert "verified" in out

    # Each cap is set from the peak address space (VmPeak) of the suite in its
    # own process, shared 2-vCPU VM, Python 3.11: cauchy 84-86 MB under 100
    # (1.16-1.18x), quantization 87 MB under 95, and stability 135 MB under
    # 158, cauchy's headroom.  Before each suite read its members off one walk
    # of each chain, keeping only its path, cauchy and quantization peaked at
    # 321 and 298 MB and stability at 1,096 MB, over their caps.
    @staticmethod
    def run_capped(suite, cap_mb):
        capped = (
            "import resource, sys\n"
            f"resource.setrlimit(resource.RLIMIT_AS, ({cap_mb << 20}, {cap_mb << 20}))\n"
            "from qschub.cli import main\n"
            "sys.exit(main(sys.argv[1:]))\n"
        )
        proc = subprocess.run(
            [sys.executable, "-c", capped, "verify", suite, "--max-n", "6"],
            capture_output=True,
            text=True,
            env=subprocess_env(),
        )
        return proc.returncode, proc.stdout, proc.stderr

    @pytest.mark.slow
    def test_quantization_at_n6(self):
        # The n = 6 target, about 16 s: run with `python -m pytest -m slow`.
        expected = "quantization verified: 720 permutations\n"
        assert self.run_capped("quantization", 95) == (0, expected, "")

    @pytest.mark.slow
    @pytest.mark.parametrize(
        "suite, cap_mb, expected",
        [
            ("cauchy", 100, "cauchy verified: S_6 plus 4683 parabolic cases"),
            ("stability", 158, "stability verified: 5315 members stable under extension"),
        ],
    )
    def test_n6_under_an_address_space_cap(self, suite, cap_mb, expected):
        # About 15-25 s each: run with `python -m pytest -m slow`.
        assert self.run_capped(suite, cap_mb) == (0, expected + "\n", "")

    def test_flavor_flag(self, capsys):
        exit_code, out, _ = run(
            capsys,
            "verify", "chevalley", "--flavor", "quantum-double", "--max-n", "3",
        )
        assert exit_code == 0

    def test_falsified_suite_exits_one(self, capsys, monkeypatch):
        monkeypatch.setattr(
            selftest, "check_cauchy", lambda max_n=4: (False, "planted difference q1")
        )
        exit_code, out, _ = run(capsys, "verify", "cauchy")
        assert exit_code == 1
        assert "FALSIFIED" in out and "q1" in out


class TestTable:
    def test_json_matches_in_memory(self, capsys):
        exit_code, out, _ = run(capsys, "table", "--n", "3")
        assert exit_code == 0
        assert StructureTable.from_json(out) == StructureTable.build(3)

    def test_parabolic_text(self, capsys):
        exit_code, out, _ = run(
            capsys, "table", "--parabolic", "2,1", "--format", "text"
        )
        assert exit_code == 0
        assert "[1,2,3] * [1,2,3] = (1)*[1,2,3]" in out

    def test_requires_exactly_one_domain(self, capsys):
        exit_code, _, err = run(capsys, "table")
        assert exit_code == 2
        exit_code, _, err = run(capsys, "table", "--n", "2", "--parabolic", "1,1")
        assert exit_code == 2

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "table.json"
        exit_code, out, _ = run(capsys, "table", "--n", "2", "--out", str(target))
        assert exit_code == 0
        assert StructureTable.from_json(target.read_text()) == StructureTable.build(2)


def test_successive_calls_share_one_parser_and_no_options(
    capsys, monkeypatch, tmp_path
):
    flavors = []
    monkeypatch.setattr(
        selftest,
        "check_chevalley",
        lambda max_n, flavor: flavors.append(flavor) or (True, "planted"),
    )
    assert main(["verify", "chevalley", "--flavor", "quantum"]) == 0
    assert main(["verify", "chevalley"]) == 0
    assert flavors == ["quantum", None]
    assert capsys.readouterr().out == "chevalley verified: planted\n" * 2
    target = tmp_path / "table.json"
    assert main(["table", "--n", "2", "--out", str(target)]) == 0
    assert main(["table", "--n", "2"]) == 0
    assert capsys.readouterr().out == target.read_text(encoding="utf-8")
    assert cli._parser() is cli._parser()


def test_usage_error_on_unknown_subcommand(capsys):
    with pytest.raises(SystemExit) as info:
        main(["frobnicate"])
    assert info.value.code == 2


class TestExitCodes:
    """Usage errors exit 2 with one `error:` line; crashes never exit 1."""

    def assert_usage_error(self, capsys, *argv):
        exit_code, out, err = run(capsys, *argv)
        assert exit_code == 2
        assert out == ""
        assert err.startswith("error:") and err.count("\n") == 1
        return err

    @pytest.mark.parametrize("suite", ["cauchy", "bijection"])
    def test_verify_max_n_zero(self, capsys, suite):
        err = self.assert_usage_error(capsys, "verify", suite, "--max-n", "0")
        assert "--max-n" in err

    def test_verify_chevalley_max_n_zero_is_not_vacuous(self, capsys):
        self.assert_usage_error(capsys, "verify", "chevalley", "--max-n", "0")

    @pytest.mark.parametrize("flavor", ["bogus", "quantum-double"])
    def test_check_chevalley_refuses_an_unknown_flavor(self, flavor):
        # A caller's bad argument, never a falsified identity.
        with pytest.raises(ValueError, match="unknown flavor"):
            selftest.check_chevalley(2, flavor)

    def test_verify_unknown_flavor(self, capsys):
        err = self.assert_usage_error(capsys, "verify", "chevalley", "--flavor", "bogus")
        assert "bogus" in err

    @pytest.mark.parametrize(
        "argv",
        [["stability"], ["chevalley", "--flavor", "parabolic"]],
        ids=["stability", "chevalley-parabolic"],
    )
    def test_verify_max_n_one_is_not_vacuous(self, capsys, argv):
        err = self.assert_usage_error(capsys, "verify", *argv, "--max-n", "1")
        assert "--max-n >= 2" in err

    @pytest.mark.parametrize(
        "suite", ["cauchy", "bijection", "quantization", "stability"]
    )
    def test_verify_flavor_outside_chevalley(self, capsys, suite):
        err = self.assert_usage_error(
            capsys, "verify", suite, "--max-n", "2", "--flavor", "quantum"
        )
        assert "--flavor" in err

    def test_table_negative_n(self, capsys):
        self.assert_usage_error(capsys, "table", "--n", "-2")

    def test_table_zero_n(self, capsys):
        err = self.assert_usage_error(capsys, "table", "--n", "0")
        assert "--n must be >= 1" in err

    def test_table_n_beyond_the_layout(self, capsys):
        err = self.assert_usage_error(capsys, "table", "--n", "17")
        assert "<= 16" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table"],
            ["poly", "--w", "[2,1]"],
            ["expand", "--poly", "x1"],
        ],
        ids=["table", "poly", "expand"],
    )
    def test_composition_beyond_the_layout(self, capsys, monkeypatch, argv):
        # Rejected before any work: building anything here is a crash (exit 3).
        def build(*args, **kwargs):
            raise AssertionError("built a domain past the layout")

        monkeypatch.setattr(cli.StructureTable, "build", build)
        monkeypatch.setattr(cli, "parabolic_q_double_schubert", build)
        monkeypatch.setattr(cli, "expand_in_parabolic_basis", build)
        err = self.assert_usage_error(capsys, *argv, "--parabolic", "9,8")
        assert "sums to 17" in err and "<= 16" in err

    @pytest.mark.parametrize(
        "argv, size",
        [(["--parabolic", "8,8"], 12870), (["--n", "8"], 40320)],
        ids=["parabolic-8,8", "n-8"],
    )
    def test_table_beyond_the_work_bound(self, capsys, monkeypatch, argv, size):
        # Inside the layout, but too large to build: rejected before any work.
        def build(*args, **kwargs):
            raise AssertionError("built a table past the work bound")

        monkeypatch.setattr(cli.StructureTable, "build", build)
        monkeypatch.setattr(cli.ParabolicContext, "minimal_reps", build)
        err = self.assert_usage_error(capsys, "table", *argv)
        assert f"{size} basis elements" in err and str(cli.MAX_TABLE_BASIS) in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["table", "--parabolic", "2,2,1"],
            ["poly", "--w", "[2,1]"],
            ["expand", "--poly", "x1"],
        ],
        ids=["table", "poly", "expand"],
    )
    @pytest.mark.parametrize("where", ["missing-dir", "dir"])
    def test_unwritable_out_is_refused_up_front(
        self, capsys, monkeypatch, tmp_path, argv, where
    ):
        def build(*args, **kwargs):
            raise AssertionError("worked before checking --out")

        monkeypatch.setattr(cli.StructureTable, "build", build)
        monkeypatch.setattr(cli, "schubert_polynomial", build)
        monkeypatch.setattr(cli, "expand_in_schubert_basis", build)
        out = tmp_path / "no" / "such" / "t.json" if where == "missing-dir" else tmp_path
        err = self.assert_usage_error(capsys, *argv, "--out", str(out))
        assert "--out" in err
        assert list(tmp_path.iterdir()) == []

    def test_table_at_the_work_bound_is_accepted(self, capsys, monkeypatch):
        # (3,2,1) has 6!/(3!2!1!) = 60 elements, the bound itself.
        asked, small = [], StructureTable.build(2)
        monkeypatch.setattr(cli, "MAX_TABLE_BASIS", 60)
        monkeypatch.setattr(
            cli.StructureTable, "build", lambda domain: asked.append(domain) or small
        )
        exit_code, _, _ = run(capsys, "table", "--parabolic", "3,2,1")
        assert exit_code == 0 and asked[0].composition == (3, 2, 1)

    @pytest.mark.parametrize(
        "argv, m",
        [
            (["--poly", "x1^6", "--family", "quantum-double"], 7),
            (["--poly", "x1^6*x2^5*x3^4*x4^3*x5^2*x6", "--family", "classical"], 7),
            (["--poly", "x1*x3^7 + a1", "--family", "double"], 10),
            (["--poly", "1", "--parabolic", "1,1,1,1,1,1,1"], 7),
            (["--poly", "x1^2*x2^2*x3^2*x4^2*x5^4", "--parabolic", "1,1,3"], 9),
        ],
        ids=["quantum-double", "classical", "double", "composition", "parabolic"],
    )
    def test_expand_beyond_the_work_bound(self, capsys, monkeypatch, argv, m):
        # Refused before the first round: expanding here is a crash (exit 3).
        def expand(*args, **kwargs):
            raise AssertionError("expanded past the work bound")

        monkeypatch.setattr(cli, "expand_in_schubert_basis", expand)
        monkeypatch.setattr(cli, "expand_in_parabolic_basis", expand)
        err = self.assert_usage_error(capsys, "expand", *argv)
        assert f"members of S_{m};" in err
        assert f"at most S_{cli.MAX_EXPAND_STAIRCASE}" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["--poly", "x1^5", "--family", "quantum-double"],
            ["--poly", "x1^2*x4^2 + q1", "--parabolic", "2,2,2"],
        ],
        ids=["family", "parabolic"],
    )
    def test_expand_at_the_work_bound_is_accepted(self, capsys, monkeypatch, argv):
        asked = []
        planted = lambda f, basis: asked.append(f) or {}  # noqa: E731
        monkeypatch.setattr(cli, "expand_in_schubert_basis", planted)
        monkeypatch.setattr(cli, "expand_in_parabolic_basis", planted)
        assert cli.MAX_EXPAND_STAIRCASE == 6
        assert run(capsys, "expand", *argv) == (0, "0", "")
        assert len(asked) == 1

    @pytest.mark.parametrize(
        "argv, n",
        [
            (["--w", "[7,6,5,4,3,2,1]"], 7),
            (["--w", "[2,1,3,4,5,6,7,9,8]", "--family", "double"], 9),
            (["--w", "[1,2,3,4,5,7,6]", "--family", "quantum"], 7),
            (["--w", "[]", "--parabolic", "15,1"], 16),
            (["--w", "[2,1]", "--parabolic", "5,5,1"], 11),
            (["--w", "[1,2,3,4,5,6,8,7]", "--parabolic", "2,1"], 8),
        ],
        ids=["quantum-double", "double", "quantum", "member-1", "parabolic", "long-w"],
    )
    def test_poly_beyond_the_work_bound(self, capsys, monkeypatch, argv, n):
        # Refused before the chain, which crashes (exit 3) if reached here;
        # unrefused, members this large take minutes or run out of memory.
        def refused(*args):
            raise AssertionError("built a member past the work bound")

        monkeypatch.setattr(schubert, "_dd_from_top", refused)
        schubert._signed_chain.cache_clear()
        err = self.assert_usage_error(capsys, "poly", *argv)
        assert f"lies in S_{n};" in err
        assert f"at most S_{cli.MAX_EXPAND_STAIRCASE}" in err

    def test_classical_poly_has_no_work_bound(self, capsys):
        exit_code, out, _ = run(
            capsys, "poly", "--w", "[7,6,5,4,3,2,1]", "--family", "classical"
        )
        assert (exit_code, out) == (0, "x1^6*x2^5*x3^4*x4^3*x5^2*x6")

    def test_poly_at_the_work_bound_is_accepted(self, capsys):
        exit_code, out, _ = run(
            capsys, "poly", "--w", "[2,1,3,4,5,6]", "--parabolic", "1,1,1,1,1,1"
        )
        assert (exit_code, out) == (0, "x1 - a1")

    @pytest.mark.parametrize("suite", sorted(VERIFY_SUITES))
    def test_verify_max_n_beyond_the_layout(self, capsys, suite):
        err = self.assert_usage_error(capsys, "verify", suite, "--max-n", "17")
        assert "--max-n" in err and "<= 16" in err

    @pytest.mark.parametrize("suite", sorted(VERIFY_SUITES))
    def test_verify_beyond_the_work_bound(self, capsys, monkeypatch, suite):
        # Inside the layout, but too large to run: rejected before any work.
        def check(**kwargs):
            raise AssertionError("ran a suite past its work bound")

        monkeypatch.setattr(selftest, VERIFY_SUITES[suite], check)
        bound = cli.VERIFY_MAX_N[suite]
        err = self.assert_usage_error(
            capsys, "verify", suite, "--max-n", str(bound + 1)
        )
        assert f"{suite} suite runs up to --max-n {bound}" in err

    @pytest.mark.parametrize("suite", sorted(VERIFY_SUITES))
    def test_verify_at_the_work_bound_is_accepted(self, capsys, monkeypatch, suite):
        asked = []
        monkeypatch.setattr(
            selftest,
            VERIFY_SUITES[suite],
            lambda max_n, **kwargs: asked.append(max_n) or (True, "planted"),
        )
        bound = cli.VERIFY_MAX_N[suite]
        exit_code, out, _ = run(capsys, "verify", suite, "--max-n", str(bound))
        assert exit_code == 0 and asked == [bound]
        assert out == f"{suite} verified: planted"

    def test_internal_error_has_its_own_code(self, capsys, monkeypatch):
        def crash(max_n=4):
            raise KeyError("planted\ncrash")

        monkeypatch.setattr(selftest, "check_cauchy", crash)
        exit_code, out, err = run(capsys, "verify", "cauchy")
        assert exit_code == 3
        assert out == ""
        assert err.startswith("internal error: KeyError") and err.count("\n") == 1

    def test_closed_pipe_is_not_a_crash(self):
        # The JSON form of this member is about 200 KB, more than a pipe
        # holds, so the writer is still blocked when the reader goes away.
        argv = ["poly", "--w", "[5,4,3,2,1]", "--format", "json"]
        proc = subprocess.Popen(
            [sys.executable, "-m", "qschub.cli", *argv],
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            env=subprocess_env(),
        )
        assert proc.stdout.read(64).startswith(b"[{")
        proc.stdout.close()
        assert proc.stderr.read() == b""
        assert proc.wait(timeout=60) == 141
