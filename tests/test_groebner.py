"""Weighted Groebner bases, normal forms, initial ideals, standard monomials.

The flatness checks compare standard-monomial counts against a dense
rational rank computation on the original generators (tests/oracles.py),
which never touches the Groebner machinery.
"""

import random
from fractions import Fraction
from math import comb

from kstab.groebner import (
    buchberger,
    initial_ideal,
    leading_exponent_set,
    normal_form,
    s_polynomial,
    standard_monomials,
)
from kstab.polynomials import Polynomial, TermOrder, parse_polynomial

import oracles
from oracles import is_groebner_basis

XYZ = ("x", "y", "z")


def poly(text: str, variables=XYZ) -> Polynomial:
    return parse_polynomial(text, variables)


def conic_basis(weights):
    order = TermOrder(weights)
    return buchberger([poly("x*z - y^2")], order), order


# -- buchberger ------------------------------------------------------------------


def test_principal_ideal_is_its_own_basis():
    basis, order = conic_basis((0, 0, 1))
    assert len(basis) == 1
    assert basis[0].monic(order) == basis[0]
    assert basis[0] in (poly("x*z - y^2"), poly("y^2 - x*z"))


def test_monomial_ideal_passes_through():
    order = TermOrder((0, 0, 0))
    gens = [poly("x^2"), poly("x*y"), poly("y^2")]
    assert sorted(buchberger(gens, order), key=str) == sorted(gens, key=str)


def test_zero_generators_dropped_and_zero_ideal_empty():
    order = TermOrder((0, 0, 0))
    assert buchberger([], order) == []
    assert buchberger([poly("0")], order) == []
    assert buchberger([poly("0"), poly("x*z - y^2")], order) == buchberger(
        [poly("x*z - y^2")], order
    )


def test_buchberger_completes_non_basis():
    order = TermOrder((0, 0))
    gens = [poly("x^2 + y^2", ("x", "y")), poly("x*y", ("x", "y"))]
    basis = buchberger(gens, order)
    assert is_groebner_basis(basis, order)
    assert not is_groebner_basis(gens, order)
    leads = leading_exponent_set(basis, order)
    # S(x^2 + y^2, xy) = y^3 joins the basis
    assert (0, 3) in leads


def test_buchberger_deterministic():
    order = TermOrder((1, -2, 3))
    gens = [poly("x*z - y^2"), poly("x^2*y - z^3 + y^3")]
    first = buchberger(gens, order)
    second = buchberger(list(gens), order)
    assert first == second


def _random_homogeneous(rng, nvars, degree):
    mons = oracles.monomials(nvars, degree)
    picks = rng.sample(mons, k=min(len(mons), rng.randint(1, 3)))
    terms = {m: Fraction(rng.randint(-3, 3)) for m in picks}
    return Polynomial(nvars, terms)


def test_buchberger_output_is_groebner_on_random_ideals():
    rng = random.Random(7)
    for trial in range(30):
        weights = tuple(rng.randint(-2, 2) for _ in range(3))
        order = TermOrder(weights)
        gens = [
            _random_homogeneous(rng, 3, rng.randint(1, 3)) for _ in range(rng.randint(1, 3))
        ]
        basis = buchberger(gens, order)
        assert is_groebner_basis(basis, order)
        for g in basis:
            assert g.leading_coefficient(order) == 1


# -- normal form -----------------------------------------------------------------


def test_normal_form_single_reduction():
    # with eta = (0,0,-1) the minimal-weight term of xz - y^2 is xz
    basis, order = conic_basis((0, 0, -1))
    assert normal_form(poly("x*z"), basis, order) == poly("y^2")
    assert normal_form(poly("y^2"), basis, order) == poly("y^2")
    assert normal_form(poly("x*z - y^2"), basis, order) == poly("0")


def test_normal_form_other_degeneration():
    # with eta = (0,0,1) the roles flip: y^2 reduces to xz
    basis, order = conic_basis((0, 0, 1))
    assert normal_form(poly("y^2"), basis, order) == poly("x*z")
    assert normal_form(poly("x*z"), basis, order) == poly("x*z")


def test_normal_form_idempotent_and_linear():
    rng = random.Random(3)
    basis, order = conic_basis((0, 0, 1))
    for _ in range(40):
        f = _random_homogeneous(rng, 3, rng.randint(1, 4))
        g = _random_homogeneous(rng, 3, f.homogeneous_degree() if f.terms else 2)
        nf_f = normal_form(f, basis, order)
        assert normal_form(nf_f, basis, order) == nf_f
        # full reduction is the linear projection onto standard monomials
        assert normal_form(f + g, basis, order) == nf_f + normal_form(g, basis, order)


def test_normal_form_kills_ideal_members():
    basis, order = conic_basis((0, 0, 1))
    conic = poly("x*z - y^2")
    for factor in (poly("x"), poly("z^2"), poly("x*y - 2*z^2")):
        assert normal_form(conic * factor, basis, order) == poly("0")


def test_reduce_to_standard_basis_coordinates():
    basis, order = conic_basis((0, 0, 1))
    coords = dict(normal_form(poly("y^2 + x*z"), basis, order).terms)
    assert coords == {(1, 0, 1): Fraction(2)}


def test_s_polynomial_cancels_leads():
    order = TermOrder((0, 0))
    f, g = poly("x^2 + y^2", ("x", "y")), poly("x*y", ("x", "y"))
    s = s_polynomial(f, g, order)
    assert s == poly("y^3", ("x", "y"))


# -- initial ideals ----------------------------------------------------------------


def test_initial_ideal_double_line():
    order = TermOrder((0, 0, 1))
    init = initial_ideal(buchberger([poly("x*z - y^2")], order), order)
    assert [p.monic(order) for p in init] == [poly("y^2")]


def test_initial_ideal_two_lines():
    order = TermOrder((0, 0, -1))
    init = initial_ideal(buchberger([poly("x*z - y^2")], order), order)
    assert [p.monic(order) for p in init] == [poly("x*z")]


def test_initial_ideal_zero_weight_tiebreak():
    order = TermOrder((0, 0, 0))
    init = initial_ideal(buchberger([poly("x*z - y^2")], order), order)
    leads = [p.leading_exponents(order) for p in init]
    assert len(leads) == 1
    # grevlex tiebreak keeps the Hilbert function of the conic
    for k in range(7):
        assert len(standard_monomials(leads, 3, k)) == max(1, 2 * k + 1)


def test_initial_ideal_uniform_shift_invariance():
    gens = [poly("x*z - y^2"), poly("x^3 - y^2*z + z^3")]
    for base in ((0, 0, 1), (1, -1, 2)):
        shifted_weights = tuple(w + 5 for w in base)
        b0 = buchberger(gens, TermOrder(base))
        b1 = buchberger(gens, TermOrder(shifted_weights))
        i0 = initial_ideal(b0, TermOrder(base))
        i1 = initial_ideal(b1, TermOrder(shifted_weights))
        assert i0 == i1


# -- standard monomials and flatness --------------------------------------------


def test_standard_monomials_double_line_slice():
    mons = standard_monomials([(0, 2, 0)], 3, 2)
    assert sorted(mons) == sorted(
        [(2, 0, 0), (1, 1, 0), (1, 0, 1), (0, 1, 1), (0, 0, 2)]
    )


def test_standard_monomials_free_ring():
    assert len(standard_monomials([], 2, 3)) == 4
    assert len(standard_monomials([], 3, 4)) == comb(6, 2)


def test_hilbert_function_preserved_on_fixtures():
    fixtures = [
        ([poly("x*z - y^2")], (0, 0, 1)),
        ([poly("x*z - y^2")], (0, 0, -1)),
        ([poly("x*z - y^2")], (0, 0, 0)),
        ([poly("x*z - y^2"), poly("x^2*y - z^3")], (1, 0, -1)),
        ([], (1, 0, 0)),
    ]
    for gens, weights in fixtures:
        order = TermOrder(weights)
        leads = leading_exponent_set(buchberger(gens, order), order)
        dicts = [g.terms for g in gens]
        for k in range(1, 11):
            expected = oracles.quotient_dimension(dicts, 3, k)
            assert len(standard_monomials(leads, 3, k)) == expected


def test_hilbert_function_preserved_on_random_ideals():
    rng = random.Random(11)
    for trial in range(15):
        order = TermOrder(tuple(rng.randint(-2, 2) for _ in range(3)))
        gens = [_random_homogeneous(rng, 3, rng.randint(1, 3)) for _ in range(2)]
        gens = [g for g in gens if g.terms]
        leads = leading_exponent_set(buchberger(gens, order), order)
        if any(lead == (0, 0, 0) for lead in leads):
            continue  # unit ideal: flatness holds trivially, nothing to compare
        for k in range(1, 6):
            expected = oracles.quotient_dimension([g.terms for g in gens], 3, k)
            assert len(standard_monomials(leads, 3, k)) == expected
