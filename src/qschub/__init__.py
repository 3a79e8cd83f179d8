"""Exact Schubert calculus in classical, double, quantum and parabolic flavors."""

from .poly import (
    Polynomial,
    a,
    elementary_symmetric,
    format_polynomial,
    graded_degree,
    parse_polynomial,
    polynomial_from_json,
    polynomial_to_json,
    q,
    variable,
    x,
)

__all__ = [
    "Polynomial",
    "a",
    "elementary_symmetric",
    "format_polynomial",
    "graded_degree",
    "parse_polynomial",
    "polynomial_from_json",
    "polynomial_to_json",
    "q",
    "variable",
    "x",
]
