"""Ring arithmetic and the canonical text/JSON forms."""

import json
import random

import pytest

from oracles import weighted_degree
from qschub.poly import (
    Polynomial,
    PolynomialParseError,
    a,
    elementary_symmetric,
    format_polynomial,
    graded_degree,
    parse_polynomial,
    polynomial_from_json,
    polynomial_to_json,
    q,
    x,
)


def random_polynomial(rng, max_terms=6, max_vars=3, max_exp=3, max_coeff=9):
    f = Polynomial.zero()
    for _ in range(rng.randint(0, max_terms)):
        term = Polynomial.const(rng.randint(-max_coeff, max_coeff))
        for _ in range(rng.randint(0, 3)):
            fam = rng.choice("xaq")
            term = term * Polynomial.var(fam, rng.randint(1, max_vars)) ** rng.randint(
                1, max_exp
            )
        f = f + term
    return f


def test_constants_and_zero():
    assert Polynomial.const(0) == Polynomial.zero()
    assert Polynomial.const(5).constant_value() == 5
    assert not Polynomial.zero()
    assert (x(1) - x(1)) == 0
    assert x(1) != 0


def test_ring_axioms_on_random_samples():
    rng = random.Random(20260815)
    for _ in range(120):
        f = random_polynomial(rng)
        g = random_polynomial(rng)
        h = random_polynomial(rng)
        assert f + g == g + f
        assert f * g == g * f
        assert (f + g) + h == f + (g + h)
        assert (f * g) * h == f * (g * h)
        assert f * (g + h) == f * g + f * h
        assert f + 0 == f
        assert f * 1 == f
        assert f - f == 0


def test_powers():
    f = x(1) - a(1)
    assert f**0 == 1
    assert f**1 == f
    assert f**3 == f * f * f


def test_split_groups_by_family():
    f = (x(1) - a(1)) * (x(1) - a(2)) - q(1)
    parts = f.split("x")
    assert parts[()] == a(1) * a(2) - q(1)
    assert parts[((("x", 1), 2),)] == 1
    rebuilt = sum(
        (Polynomial({m: 1}) * g for m, g in parts.items()), Polynomial.zero()
    )
    assert rebuilt == f


def test_specialize_examples():
    f = (x(1) - a(1)) * (x(1) - a(2)) - q(1)
    assert f.specialize({("a", 1): 0, ("a", 2): 0}) == x(1) ** 2 - q(1)
    assert f.zero_out("a") == x(1) ** 2 - q(1)
    assert f.zero_out("a").zero_out("q") == x(1) ** 2
    assert f.zero_out("aq") == f.zero_out("a").zero_out("q")
    g = x(1).specialize({("x", 1): -a(1)})
    assert g == -a(1)


def test_swap_indices():
    f = a(1) ** 2 * x(1) + a(2)
    assert f.swap_indices("a", 1, 2) == a(2) ** 2 * x(1) + a(1)
    sym = a(1) * a(2)
    assert sym.swap_indices("a", 1, 2) == sym


def test_max_index_and_degree():
    f = x(2) * a(3) ** 2 + q(1)
    assert f.max_index("x") == 2
    assert f.max_index("a") == 3
    assert f.max_index("q") == 1
    assert f.total_degree() == 3
    assert Polynomial.zero().total_degree() == 0


def test_graded_degree():
    assert graded_degree(q(1)) == 2
    assert graded_degree(x(1) + q(1)) is None
    assert graded_degree(x(1) ** 2 - q(1)) == 2
    assert graded_degree(Polynomial.zero()) == 0
    # Parabolic weights, deg q_j = n_j + n_{j+1}, are read by the oracle.
    assert weighted_degree(q(1), {1: 4}) == 4
    assert weighted_degree(x(1) * x(2) * x(3) * x(4) - q(1), {1: 4}) == 4
    assert weighted_degree(x(1) + q(1), {1: 4}) is None
    assert weighted_degree(Polynomial.zero(), {}) == 0


def test_elementary_symmetric():
    vs = [("x", i) for i in range(1, 4)]
    assert elementary_symmetric(0, vs) == 1
    assert elementary_symmetric(1, vs) == x(1) + x(2) + x(3)
    assert elementary_symmetric(3, vs) == x(1) * x(2) * x(3)
    assert elementary_symmetric(4, vs) == 0
    assert elementary_symmetric(-1, vs) == 0


def test_format_examples():
    f = (x(1) - a(1)) ** 2 - q(1)
    assert format_polynomial(f) == "x1^2 - 2*x1*a1 + a1^2 - q1"
    assert format_polynomial(Polynomial.zero()) == "0"
    assert format_polynomial(Polynomial.const(1)) == "1"
    assert format_polynomial(Polynomial.const(-7)) == "-7"
    g = (x(1) - a(1)) * (x(1) - a(2)) - q(1)
    assert format_polynomial(g) == "x1^2 - x1*a1 - x1*a2 + a1*a2 - q1"


def test_parse_examples():
    f = parse_polynomial("x1^2 - 2*x1*a1 + a1^2 - q1")
    assert f == (x(1) - a(1)) ** 2 - q(1)
    assert parse_polynomial("0") == 0
    assert parse_polynomial("-3") == -3
    assert parse_polynomial("2*x1 + x1") == 3 * x(1)
    assert parse_polynomial("x10^2") == x(10) ** 2


def test_parse_rejects_malformed_input():
    for bad in ["", "x", "x1^", "x1 +", "* x1", "x1 x2", "x1^x2", "y1", "x0"]:
        with pytest.raises(ValueError):
            parse_polynomial(bad)
    try:
        parse_polynomial("x1 + ?")
    except PolynomialParseError as err:
        assert err.position == 5


def test_text_round_trip_random():
    rng = random.Random(11)
    for _ in range(500):
        f = random_polynomial(rng)
        assert parse_polynomial(format_polynomial(f)) == f


def test_json_round_trip():
    rng = random.Random(12)
    for _ in range(200):
        f = random_polynomial(rng)
        blob = json.dumps(polynomial_to_json(f))
        assert polynomial_from_json(json.loads(blob)) == f
    obj = polynomial_to_json(x(1) ** 2 - q(1))
    assert obj == [
        {"c": "1", "x": [[1, 2]], "a": [], "q": []},
        {"c": "-1", "x": [], "a": [], "q": [1, 1]},
    ] or obj == [
        {"c": "1", "x": [[1, 2]], "a": [], "q": []},
        {"c": "-1", "x": [], "a": [], "q": [[1, 1]]},
    ]


def test_format_is_deterministic():
    f = x(2) + x(1) + a(1) * x(1) + q(1) ** 2
    assert format_polynomial(f) == format_polynomial(
        parse_polynomial(format_polynomial(f))
    )
