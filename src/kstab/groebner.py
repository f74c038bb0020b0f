"""Groebner bases for weighted orders and flat-limit initial ideals.

Given homogeneous generators and an integer weight vector, the one-parameter
degeneration scales coordinates by t^(-eta_i); its flat limit is cut out by
the initial forms (minimal-weight parts) of a Groebner basis taken with
respect to the weighted order.  The central degree-k facts used downstream,
dimension counts and weight sums, are read off from the standard monomials,
the monomials outside the initial ideal.
"""

from __future__ import annotations

from typing import Sequence

from .polynomials import (
    Exponents,
    Polynomial,
    TermOrder,
    monomial_degree,
    monomial_div,
    monomial_divides,
    monomial_lcm,
    monomial_mul,
    monomials_of_degree,
)


def normal_form(poly: Polynomial, basis: Sequence[Polynomial], order: TermOrder) -> Polynomial:
    """Remainder of full multivariate division of poly by the basis.

    Every monomial of the result lies outside the ideal generated by the
    basis leading monomials.  With a Groebner basis this is the unique
    canonical representative modulo the ideal.
    """
    reducers = [(g.leading_exponents(order), g.leading_coefficient(order), g) for g in basis if g]
    remainder = Polynomial.zero(poly.nvars)
    work = poly
    while work:
        lead = work.leading_exponents(order)
        coeff = work.terms[lead]
        for lex, lco, g in reducers:
            if monomial_divides(lex, lead):
                factor = monomial_div(lead, lex)
                work = work - g.term_mul(factor, coeff / lco)
                break
        else:
            remainder = remainder + Polynomial.monomial(poly.nvars, lead, coeff)
            work = work - Polynomial.monomial(poly.nvars, lead, coeff)
    return remainder


def s_polynomial(f: Polynomial, g: Polynomial, order: TermOrder) -> Polynomial:
    lf = f.leading_exponents(order)
    lg = g.leading_exponents(order)
    lcm = monomial_lcm(lf, lg)
    sf = f.term_mul(monomial_div(lcm, lf), 1 / f.leading_coefficient(order))
    sg = g.term_mul(monomial_div(lcm, lg), 1 / g.leading_coefficient(order))
    return sf - sg


def buchberger(generators: Sequence[Polynomial], order: TermOrder) -> list[Polynomial]:
    """Reduced Groebner basis of the ideal generated by the inputs.

    Plain Buchberger with the coprime-leading-monomial criterion; adequate
    for the small homogeneous ideals this package works with.  Zero
    generators are dropped; the zero ideal yields the empty basis.  Unit
    ideals are legal output here (leading exponent (0,...,0)); rejecting
    them is the caller's policy decision.
    """
    basis = [g for g in generators if g]
    if not basis:
        return []
    basis = [g.monic(order) for g in basis]
    pairs = [(i, j) for i in range(len(basis)) for j in range(i + 1, len(basis))]
    while pairs:
        i, j = pairs.pop(0)
        li = basis[i].leading_exponents(order)
        lj = basis[j].leading_exponents(order)
        if monomial_lcm(li, lj) == monomial_mul(li, lj):
            continue  # coprime leading monomials reduce to zero
        remainder = normal_form(s_polynomial(basis[i], basis[j], order), basis, order)
        if remainder:
            basis.append(remainder.monic(order))
            pairs.extend((k, len(basis) - 1) for k in range(len(basis) - 1))
    # minimalize: drop members whose leading monomial is divisible by another's
    leads = [g.leading_exponents(order) for g in basis]
    keep: list[int] = []
    for i, lead in enumerate(leads):
        if any(
            j != i and monomial_divides(leads[j], lead) and (leads[j] != lead or j < i)
            for j in range(len(basis))
        ):
            continue
        keep.append(i)
    minimal = [basis[i] for i in keep]
    # interreduce: replace each member by its normal form against the others
    reduced: list[Polynomial] = []
    for i, g in enumerate(minimal):
        others = [h for j, h in enumerate(minimal) if j != i]
        nf = normal_form(g, others, order) if others else g
        reduced.append(nf.monic(order))
    # degree-first so the ordering survives eta -> eta + c*(1,...,1)
    reduced.sort(
        key=lambda g: (
            monomial_degree(g.leading_exponents(order)),
            order.sort_key(g.leading_exponents(order)),
        )
    )
    return reduced


def initial_ideal(basis: Sequence[Polynomial], order: TermOrder) -> list[Polynomial]:
    """Initial forms (minimal-weight parts) of a Groebner basis.

    These cut out the flat limit of the associated one-parameter family.
    """
    return [g.initial_form(order) for g in basis]


def leading_exponent_set(basis: Sequence[Polynomial], order: TermOrder) -> list[Exponents]:
    return [g.leading_exponents(order) for g in basis]


def standard_monomials(
    leads: Sequence[Exponents], nvars: int, degree: int
) -> list[Exponents]:
    """Degree-k monomials outside the monomial ideal generated by `leads`.

    They form a vector-space basis of the degree-k slice of the quotient by
    any ideal with those leading monomials, so the count is the Hilbert
    function value at k.
    """
    out = []
    for expo in monomials_of_degree(nvars, degree):
        if not any(monomial_divides(lead, expo) for lead in leads):
            out.append(expo)
    return out
