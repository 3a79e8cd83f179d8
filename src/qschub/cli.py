"""Command line driver: compute members, expand, verify, and emit tables.

Exit codes: 0 on success and on verified identities, 1 when a verification
suite finds a falsified identity, 2 on usage errors, 3 on an internal error
(an unexpected exception, reported in one line), 141 (128 + SIGPIPE) when
the reader closed standard output early, as `| head` does, with nothing on
stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys

from . import selftest
from .parabolic import expand_in_parabolic_basis, parabolic_q_double_schubert
from .poly import (
    SLOTS,
    PolynomialParseError,
    format_polynomial,
    parse_polynomial,
    polynomial_to_json,
)
from .quantum_ring import CHEVALLEY_FLAVORS, StructureTable
from .schubert import FAMILY_KINDS, expand_in_schubert_basis, schubert_polynomial
from .weyl import ParabolicContext, format_permutation, length, parse_permutation

FAMILY_FLAGS = tuple(kind.replace("_", "-") for kind in FAMILY_KINDS)
FLAVOR_FLAGS = tuple(kind.replace("_", "-") for kind in CHEVALLEY_FLAVORS)
EXIT_INTERNAL = 3
EXIT_CLOSED_PIPE = 141
# The largest table basis `table` builds.  Measured in one process writing
# the JSON to a file, on one core of a shared 2-vCPU VM (Python 3.11): S_4
# (24 elements) in 0.2 s and 22 MB, (2,2,1) (30) in 0.5 s and 28 MB,
# (1,1,1,2) (60) in 3.0-3.4 s and 92 MB, (2,2,2) (90) in 13-16 s and
# 474 MB, S_5 (120) in 40 s and 646 MB, and (3,1,1,1), also 120, in 54 s
# and 1,048 MB, which is why the bound stays below 90.
MAX_TABLE_BASIS = 60

# The largest S_m whose members `expand` reads, and whose members `poly`
# builds outside the classical family.  An expansion of f over a basis reads
# members of S_m alone, m the larger of f's staircase and the composition's n
# (`schubert._expand_by_leads`).  Measured like MAX_TABLE_BASIS, under a 2 GB
# address-space cap, on the input whose lead is the code of w_0: the quantum
# double basis at m = 5 in 0.2 s and 21 MB, at m = 6 in 174 s and 598 MB (the
# double basis: 10.5-13.7 s and 315 MB, as its members are the quantum double
# chain read at q = 0), and at m = 7 MemoryError after 23 s, while the square
# of the (1,1,3) member of [5,3,1,2,4], m = 9, passed 5 GB.  Some inputs at
# m = 7 are cheap (the square of the (3,2) member of [2,4,5,1,3] took 0.25 s),
# but nothing short of running one tells them apart.  `poly` pays for the
# chain of its whole composition: w_0 of S_6 took 1.9 s and 93 MB, the member
# 1 on (15,1) 23 s and 1,741 MB, and w_0 of S_7 met MemoryError under 2 GB.
# Classical members stay cheap (all 5,040 of S_7 in 0.22 s): no bound.
MAX_EXPAND_STAIRCASE = 6

# The `selftest` check each suite runs, looked up by name when the suite runs.
VERIFY_SUITES = {
    "chevalley": "check_chevalley",
    "cauchy": "check_cauchy",
    "quantization": "check_quantization",
    "stability": "check_stability",
    "bijection": "check_bijections",
}
# The largest --max-n each suite runs, measured like MAX_TABLE_BASIS, in one
# process under a 3 GB address-space cap: chevalley at n = 5 in 2.6-3.0 s
# and 125 MB (--flavor double alone 0.7-1.0 s and 65 MB, as its members are
# the quantum double chain read at q = 0), at n = 6 MemoryError after 47 s;
# bijection at n = 7 in 27 s and 74 MB; at n = 6, cauchy in 22-26 s and
# 315 MB, quantization in 14-17 s and 293 MB, and stability in 36-42 s and
# 1,022 MB (the three keep no member they read once), while a quantum double
# member of S_7 (w_0) alone reaches MemoryError.
VERIFY_MAX_N = {
    "chevalley": 5,
    "cauchy": 6,
    "quantization": 6,
    "stability": 6,
    "bijection": 7,
}


class UsageError(Exception):
    pass


def _parse_composition(text: str) -> ParabolicContext:
    try:
        ctx = ParabolicContext(tuple(int(piece) for piece in text.split(",")))
    except ValueError as exc:
        raise UsageError(f"bad composition {text!r}: {exc}") from None
    if ctx.n > SLOTS:
        raise UsageError(f"composition {text!r} sums to {ctx.n}; it must be <= {SLOTS}")
    return ctx


def _parse_perm(text: str):
    try:
        return parse_permutation(text)
    except ValueError as exc:
        raise UsageError(str(exc)) from None


def _check_out(path: str):
    """Refuse an --out path that is a directory or in no writable one."""
    if os.path.isdir(path) or not os.access(os.path.dirname(path) or ".", os.W_OK):
        raise UsageError(f"--out {path!r} is not a file in a writable directory")


def _emit(args, payload_text: str):
    if getattr(args, "out", None):
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(payload_text)
            handle.write("\n")
    else:
        print(payload_text)


def _basis_flags(args) -> tuple:
    """(composition context, None) for --parabolic, else (None, family)."""
    if args.parabolic:
        if args.family is not None:
            raise UsageError("--family does not combine with --parabolic")
        return _parse_composition(args.parabolic), None
    return None, (args.family or "quantum-double").replace("-", "_")


def _cmd_poly(args) -> int:
    w = _parse_perm(args.w)
    ctx, family = _basis_flags(args)
    n = max(ctx.n if ctx is not None else 1, len(w))
    if family != "classical" and n > MAX_EXPAND_STAIRCASE:
        raise UsageError(
            f"the member lies in S_{n}; members of at most S_{MAX_EXPAND_STAIRCASE} "
            f"are built, except in the classical family"
        )
    try:
        if ctx is not None:
            f = parabolic_q_double_schubert(ctx, w)
        else:
            f = schubert_polynomial(w, family)
    except ValueError as exc:
        raise UsageError(str(exc)) from None
    if args.format == "json":
        _emit(args, json.dumps(polynomial_to_json(f)))
    else:
        _emit(args, format_polynomial(f))
    return 0


def _cmd_expand(args) -> int:
    try:
        f = parse_polynomial(args.poly)
    except PolynomialParseError as exc:
        raise UsageError(str(exc)) from None
    ctx, family = _basis_flags(args)
    staircase = max(f.staircase(), ctx.n if ctx is not None else 1)
    if staircase > MAX_EXPAND_STAIRCASE:
        raise UsageError(
            f"the expansion reads members of S_{staircase}; "
            f"at most S_{MAX_EXPAND_STAIRCASE} is expanded over"
        )
    try:
        if ctx is not None:
            expansion = expand_in_parabolic_basis(f, ctx)
        else:
            expansion = expand_in_schubert_basis(f, family)
    except (ValueError, RuntimeError) as exc:
        raise UsageError(str(exc)) from None
    items = sorted(expansion.items(), key=lambda kv: (length(kv[0]), kv[0]))
    if args.format == "json":
        payload = [
            {"w": format_permutation(w), "coeff": polynomial_to_json(c)}
            for w, c in items
        ]
        _emit(args, json.dumps(payload))
    else:
        lines = [f"{format_permutation(w)}: {format_polynomial(c)}" for w, c in items]
        _emit(args, "\n".join(lines) if lines else "0")
    return 0


def _cmd_verify(args) -> int:
    max_n = args.max_n
    if not 1 <= max_n <= SLOTS:
        raise UsageError(f"--max-n must be >= 1 and <= {SLOTS}, got {max_n}")
    bound = VERIFY_MAX_N[args.suite]
    if max_n > bound:
        raise UsageError(
            f"the {args.suite} suite runs up to --max-n {bound}, got {max_n}"
        )
    flavor = args.flavor.replace("-", "_") if args.flavor else None
    if flavor is not None and args.suite != "chevalley":
        raise UsageError("--flavor applies to the chevalley suite only")
    if flavor is not None and flavor not in CHEVALLEY_FLAVORS:
        raise UsageError(
            f"unknown --flavor {args.flavor!r}; choose one of {', '.join(FLAVOR_FLAGS)}"
        )
    # Both run over compositions of n >= 2 only; --max-n 1 would check nothing.
    if max_n < 2 and (args.suite == "stability" or flavor == "parabolic"):
        raise UsageError(
            f"the stability suite and the parabolic flavor need --max-n >= 2, got {max_n}"
        )
    check = getattr(selftest, VERIFY_SUITES[args.suite])
    options = {"flavor": flavor} if args.suite == "chevalley" else {}
    ok, detail = check(max_n=max_n, **options)
    status = "verified" if ok else "FALSIFIED"
    print(f"{args.suite} {status}: {detail}")
    return 0 if ok else 1


def _cmd_table(args) -> int:
    if (args.n is None) == (args.parabolic is None):
        raise UsageError("pass exactly one of --n or --parabolic")
    if args.n is not None and not 1 <= args.n <= SLOTS:
        raise UsageError(f"--n must be >= 1 and <= {SLOTS}, got {args.n}")
    domain = _parse_composition(args.parabolic) if args.parabolic is not None else args.n
    blocks = domain.composition if args.n is None else (1,) * args.n
    # |W^P| = n! / (n_1! ... n_k!), counted without listing W^P.
    size = math.factorial(sum(blocks)) // math.prod(map(math.factorial, blocks))
    if size > MAX_TABLE_BASIS:
        raise UsageError(
            f"the table has {size} basis elements; at most {MAX_TABLE_BASIS} are built"
        )
    table = StructureTable.build(domain)
    if args.format == "json":
        _emit(args, table.to_json())
    else:
        _emit(args, table.to_text())
    return 0


def _cmd_selftest(args) -> int:
    return 0 if selftest.run_all() else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="qschub",
        description="Exact quantum double Schubert calculus for flag and partial flag varieties.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    poly = sub.add_parser("poly", help="print one basis member")
    poly.add_argument("--w", required=True, help='permutation, e.g. "[3,1,2]"')
    poly.add_argument("--family", choices=FAMILY_FLAGS, default=None)
    poly.add_argument("--parabolic", help='composition, e.g. "2,1,3"')
    poly.add_argument("--format", choices=("text", "json"), default="text")
    poly.add_argument("--out")
    poly.set_defaults(func=_cmd_poly)

    expand = sub.add_parser("expand", help="expand a polynomial over a basis")
    expand.add_argument("--poly", required=True, help="polynomial text")
    expand.add_argument("--family", choices=FAMILY_FLAGS, default=None)
    expand.add_argument("--parabolic", help='composition, e.g. "2,1,3"')
    expand.add_argument("--format", choices=("text", "json"), default="text")
    expand.add_argument("--out")
    expand.set_defaults(func=_cmd_expand)

    verify = sub.add_parser("verify", help="run a named identity suite")
    verify.add_argument("suite", choices=sorted(VERIFY_SUITES))
    verify.add_argument("--flavor", help="restrict chevalley to one flavor")
    verify.add_argument("--max-n", type=int, default=4, dest="max_n")
    verify.set_defaults(func=_cmd_verify)

    table = sub.add_parser("table", help="structure constants of the finite ring")
    table.add_argument("--n", type=int)
    table.add_argument("--parabolic", help='composition, e.g. "2,1,3"')
    table.add_argument("--format", choices=("text", "json"), default="json")
    table.add_argument("--out")
    table.set_defaults(func=_cmd_table)

    selftest_cmd = sub.add_parser("selftest", help="run every acceptance criterion")
    selftest_cmd.set_defaults(func=_cmd_selftest)
    return parser


# One parser per process: `parse_args` fills a fresh namespace on every
# call, so nothing carries over from one `main` call to the next.
_parser = functools.cache(build_parser)


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        if getattr(args, "out", None):
            _check_out(args.out)
        code = args.func(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # The reader is gone; point stdout at devnull so the flush at exit
        # does not raise again.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CLOSED_PIPE
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # an internal crash must never read as "falsified"
        detail = " ".join(str(exc).split())
        print(f"internal error: {type(exc).__name__}: {detail}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
