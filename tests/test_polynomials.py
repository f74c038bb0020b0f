"""Exact polynomial arithmetic, parsing, and the weighted term order."""

from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from kstab.polynomials import (
    Chart,
    Polynomial,
    TermOrder,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomial_weight,
    monomials_of_degree,
    parse_polynomial,
)

from oracles import _rank, evaluate_batch

XYZ = ("x", "y", "z")


def poly(text: str, variables=XYZ) -> Polynomial:
    return parse_polynomial(text, variables)


def grevlex_cmp(p, q) -> int:
    """Classical graded-reverse-lex: return -1 if p > q (p precedes), +1 if q > p."""
    dp, dq = sum(p), sum(q)
    if dp != dq:
        return -1 if dp > dq else 1
    for a, b in zip(reversed(p), reversed(q)):
        if a != b:
            # larger monomial has the *smaller* trailing exponent
            return -1 if a < b else 1
    return 0


def compare(order: TermOrder, p, q) -> int:
    """Reference comparator: -1 if p precedes q, 0 if equal, +1 if q precedes p."""
    if p == q:
        return 0
    wp = monomial_weight(p, order.weights)
    wq = monomial_weight(q, order.weights)
    if wp != wq:
        return -1 if wp < wq else 1
    return grevlex_cmp(p, q)


# -- parsing -------------------------------------------------------------------


def test_parse_basic_terms():
    f = poly("x*z - y^2")
    assert f.terms == {(1, 0, 1): Fraction(1), (0, 2, 0): Fraction(-1)}


def test_parse_zero_and_constants():
    assert poly("0").terms == {}
    assert poly("3").terms == {(0, 0, 0): Fraction(3)}
    assert poly("-3/2").terms == {(0, 0, 0): Fraction(-3, 2)}


def test_parse_collects_like_terms():
    assert poly("2/3*x^2 + 1/3*x^2") == poly("x^2")
    assert poly("x - x").terms == {}


def test_parse_rational_coefficients_are_exact():
    f = poly("10000000000000000000000000001/3*x")
    assert f.terms[(1, 0, 0)] == Fraction(10**28 + 1, 3)


def test_parse_repeated_variables_multiply():
    assert poly("x*x*y") == poly("x^2*y")


def test_parse_whitespace_and_signs():
    assert poly("  - x  +  2 * y ") == poly("2*y - x")


def test_parse_rejects_unknown_variable():
    with pytest.raises(ValueError, match="unknown variable"):
        poly("x + w")


def test_parse_rejects_stray_characters():
    with pytest.raises(ValueError):
        poly("x + (y)")
    with pytest.raises(ValueError):
        poly("x**2")


@pytest.mark.parametrize(
    "text",
    ["x*2", "2 x", "x^", "x^2^3", "2/0", "+", "x +", "- - x", "x**2", "(x)",
     "x*-y", "3/x", "x^-1", "", "  "],
)
def test_parse_rejections_name_a_position(text):
    with pytest.raises(ValueError, match="position"):
        poly(text)


# the parser's tokens plus some it rejects; "\u0663" is a non-ASCII digit that int() reads
PARSE_ALPHABET = ["x", "y", "z", "w", "2", "0", "13", "/", "*", "^", "+", "-", "(", ".",
                  "\u0663", "x1", " "]


@settings(max_examples=400, deadline=None)
@given(st.lists(st.sampled_from(PARSE_ALPHABET), max_size=12))
def test_parse_fails_only_with_value_error(tokens):
    # any string over the alphabet parses, and then round-trips, or raises ValueError
    try:
        f = poly("".join(tokens))
    except ValueError:
        return
    assert poly(f.to_string(XYZ)) == f


def test_print_parse_round_trip():
    samples = ["0", "x*z - y^2", "-x + 2*y - 3*z", "1/2*x^3 - 7/5*y*z^2", "42"]
    for text in samples:
        f = poly(text)
        assert poly(f.to_string(XYZ)) == f


# -- arithmetic ----------------------------------------------------------------


def test_addition_and_multiplication_small():
    f, g = poly("x + y"), poly("x - y")
    assert f * g == poly("x^2 - y^2")
    assert f + g == poly("2*x")


def test_evaluate_exact_matches_batch():
    f = poly("1/2*x^2*z - y^2 + 3*z^3")
    point = (Fraction(2), Fraction(-1), Fraction(1, 3))
    exact = f.evaluate_exact(point)
    batch = evaluate_batch(f, np.array([[2.0, -1.0, 1.0 / 3.0]]))
    assert batch.shape == (1,)
    assert abs(batch[0] - float(exact)) < 1e-12


def test_differentiate_power_rule():
    f = poly("x^2*z")
    assert f.differentiate(0) == poly("2*x*z")
    assert f.differentiate(1) == poly("0")
    assert f.differentiate(2) == poly("x^2")


def test_homogeneous_degree():
    assert poly("x*z - y^2").homogeneous_degree() == 2
    assert poly("x + y^2").homogeneous_degree() is None
    # the zero polynomial carries no degree information
    assert poly("0").homogeneous_degree() is None


coeffs = st.fractions(
    min_value=-4, max_value=4, max_denominator=6
)
exponents = st.tuples(
    st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)
)


@st.composite
def polynomials(draw) -> Polynomial:
    terms = draw(st.dictionaries(exponents, coeffs, max_size=4))
    out = Polynomial.zero(3)
    for expo, coeff in terms.items():
        out = out + Polynomial.monomial(3, expo, coeff)
    return out


@settings(max_examples=1000, deadline=None)
@given(polynomials(), polynomials(), polynomials())
def test_ring_axioms(f, g, h):
    assert f + g == g + f
    assert (f + g) + h == f + (g + h)
    assert f * g == g * f
    assert (f * g) * h == f * (g * h)
    assert f * (g + h) == f * g + f * h
    assert f + Polynomial.zero(3) == f
    assert f + (-f) == Polynomial.zero(3)
    assert f * Polynomial.constant(3, 1) == f


@settings(max_examples=200, deadline=None)
@given(polynomials())
def test_print_parse_fixed_point(f):
    assert parse_polynomial(f.to_string(XYZ), XYZ) == f


def test_compose_substitutes_components():
    u = ("u",)
    on_conic = [poly(c, u) for c in ("1", "u", "u^2")]
    assert poly("x*z - y^2").compose(on_conic) == Polynomial.zero(1)
    off_conic = [poly(c, u) for c in ("1", "u", "u^3")]
    assert poly("x*z - y^2").compose(off_conic) == poly("u^3 - u^2", u)
    assert poly("1/2*x^2 + 3").compose(on_conic) == poly("7/2", u)
    with pytest.raises(ValueError, match="2 components for 3 variables"):
        poly("x*z - y^2").compose(on_conic[:2])


@pytest.mark.parametrize(
    "params, components, point, rank",
    [
        (("u",), ("1", "u", "u^2"), (0,), 2),
        (("u",), ("u", "u^2"), (0,), 1),  # the cusp: F = 0 at u = 0
        (("u",), ("u", "u^2"), (Fraction(2, 3),), 2),
        (("u",), ("1", "0", "u"), (5,), 2),
        (("u", "v"), ("1", "u + v", "0"), (Fraction(2, 3), Fraction(-1, 3)), 2),
        (("u", "v"), ("1", "u", "v", "u*v"), (Fraction(2, 3), Fraction(-1, 3)), 3),
        (("u", "v"), ("u", "u*v", "u^2"), (0, 1), 1),
    ],
)
def test_jet_rank_is_the_rank_of_the_exact_jet(params, components, point, rank):
    chart = Chart(params=params, components=tuple(poly(c, params) for c in components))
    assert chart.jet_rank(point) == rank
    jet = [chart.components]
    jet += [[c.differentiate(i) for c in chart.components] for i in range(len(params))]
    assert _rank([[c.evaluate_exact(point) for c in row] for row in jet]) == rank


@settings(max_examples=100, deadline=None)
@given(polynomials(), st.lists(polynomials(), min_size=3, max_size=3))
def test_compose_commutes_with_evaluation(f, components):
    point = (Fraction(2), Fraction(-1, 3), Fraction(1, 2))
    inner = [c.evaluate_exact(point) for c in components]
    assert f.compose(components).evaluate_exact(point) == f.evaluate_exact(inner)


# -- term order ----------------------------------------------------------------


def test_minimal_weight_leads():
    order = TermOrder((0, 0, 1))
    f = poly("x*z - y^2")
    # xz has weight 1, y^2 has weight 0; the minimal weight term leads.
    assert f.leading_exponents(order) == (0, 2, 0)
    assert f.leading_coefficient(order) == Fraction(-1)
    assert f.initial_form(order) == poly("-y^2")


def test_monic_normalizes_lead_to_one():
    order = TermOrder((0, 0, 1))
    g = poly("x*z - y^2").monic(order)
    assert g.leading_coefficient(order) == Fraction(1)


@settings(max_examples=500, deadline=None)
@given(exponents, exponents, exponents, st.tuples(st.integers(-3, 3), st.integers(-3, 3), st.integers(-3, 3)))
def test_order_is_total_and_transitive(p, q, r, weights):
    order = TermOrder(weights)
    assert compare(order, p, q) == -compare(order, q, p)
    assert (compare(order, p, q) == 0) == (p == q)
    if compare(order, p, q) <= 0 and compare(order, q, r) <= 0:
        assert compare(order, p, r) <= 0
    assert (order.sort_key(p) < order.sort_key(q)) == (compare(order, p, q) < 0)


def test_uniform_weight_shift_keeps_equal_degree_comparisons():
    base = TermOrder((0, 0, 1))
    shifted = TermOrder((5, 5, 6))
    for p in monomials_of_degree(3, 3):
        for q in monomials_of_degree(3, 3):
            assert (base.sort_key(p) < base.sort_key(q)) == (
                shifted.sort_key(p) < shifted.sort_key(q)
            )


# -- monomial helpers ------------------------------------------------------------


def test_monomial_helpers():
    assert monomial_mul((1, 0, 2), (0, 1, 1)) == (1, 1, 3)
    assert monomial_div((1, 1, 3), (0, 1, 1)) == (1, 0, 2)
    assert monomial_lcm((2, 0, 1), (1, 1, 1)) == (2, 1, 1)
    assert monomial_divides((0, 1, 0), (1, 1, 1))
    assert not monomial_divides((2, 0, 0), (1, 1, 1))
    assert monomial_degree((1, 2, 3)) == 6
    assert monomial_weight((1, 2, 3), (0, 0, 1)) == 3


def test_monomials_of_degree_enumeration():
    from math import comb

    for nvars, degree in ((2, 5), (3, 4), (4, 3)):
        mons = list(monomials_of_degree(nvars, degree))
        assert len(mons) == comb(nvars + degree - 1, nvars - 1)
        assert len(set(mons)) == len(mons)
        assert all(sum(m) == degree for m in mons)
