"""Per-degree flat-limit spectra against the hand-derived enumeration oracle."""

from fractions import Fraction
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from kstab import Polynomial, TestConfiguration, graded_slice, parse_polynomial, spectrum_table
from kstab import spectra

import oracles

V3 = ("x", "y", "z")
V2 = ("x", "y")


def conic(weights, name="conic"):
    return TestConfiguration(
        name, V3, weights, (parse_polynomial("x*z - y^2", V3),)
    )


def p1(weights, name="p1"):
    return TestConfiguration(name, V2, weights, ())


# leads are hand-derived per fixture: the minimal-weight term of xz - y^2
FIXTURES = [
    (conic((0, 0, 1)), [(0, 2, 0)], 3, (0, 0, 1)),
    (conic((0, 0, -1)), [(1, 0, 1)], 3, (0, 0, -1)),
    (p1((1, 0)), [], 2, (1, 0)),
    (p1((1, 1)), [], 2, (1, 1)),
]


def test_double_line_degree_one_slice():
    s = graded_slice(conic((0, 0, 1)), 1)
    assert s.dim == 3
    assert s.total_weight == 1
    assert s.b_spectrum == (0, 0, 1)
    assert s.a_spectrum == (Fraction(-1, 3), Fraction(-1, 3), Fraction(2, 3))
    assert s.tr_a_sq == Fraction(2, 3)
    assert s.lambda_min == Fraction(-1, 3)
    assert s.lambda_next == Fraction(2, 3)
    assert sorted(s.monomials) == [(0, 0, 1), (0, 1, 0), (1, 0, 0)]


def test_two_lines_degree_one_slice():
    s = graded_slice(conic((0, 0, -1)), 1)
    assert s.b_spectrum == (-1, 0, 0)
    assert s.a_spectrum == (Fraction(-2, 3), Fraction(1, 3), Fraction(1, 3))
    assert s.lambda_min == Fraction(-2, 3)
    assert s.lambda_next == Fraction(1, 3)


def test_spectra_match_enumeration_oracle():
    for config, leads, nvars, weights in FIXTURES:
        for k in range(1, 13):
            s = graded_slice(config, k)
            expected = oracles.standard_weights(leads, nvars, weights, k)
            assert list(s.b_spectrum) == expected
            assert s.dim == len(expected)
            assert s.total_weight == sum(expected)


def test_closed_forms():
    for k in range(1, 13):
        dl = graded_slice(conic((0, 0, 1)), k)
        assert dl.dim == 2 * k + 1
        assert dl.total_weight == k * k
        assert sum(b * b for b in dl.b_spectrum) == Fraction(2 * k**3 + k, 3)
        assert dl.lambda_min == Fraction(-(k * k), 2 * k + 1)

        tl = graded_slice(conic((0, 0, -1)), k)
        assert tl.dim == 2 * k + 1
        assert tl.total_weight == -k * (k + 1) // 2
        assert sum(b * b for b in tl.b_spectrum) == k * (k + 1) * (2 * k + 1) // 6

        pr = graded_slice(p1((1, 0)), k)
        assert pr.dim == k + 1
        assert pr.total_weight == k * (k + 1) // 2

        tv = graded_slice(p1((1, 1)), k)
        assert tv.total_weight == k * (k + 1)
        assert set(tv.a_spectrum) == {Fraction(0)}


def test_a_spectrum_traceless_and_consistent():
    for config, _, _, _ in FIXTURES:
        for k in range(1, 11):
            s = graded_slice(config, k)
            assert sum(s.a_spectrum) == 0
            assert sum(a * a for a in s.a_spectrum) == s.tr_a_sq
            w, d = s.total_weight, s.dim
            assert s.tr_a_sq == sum(b * b for b in s.b_spectrum) - Fraction(w * w, d)
            assert s.b_spectrum == tuple(sorted(s.b_spectrum))


def test_monomials_are_standard_and_carry_the_weights():
    config = conic((0, 0, 1))
    for k in (1, 2, 3, 7):
        s = graded_slice(config, k)
        for m in s.monomials:
            assert sum(m) == k
            assert not (m[1] >= 2)  # y^2 never divides a standard monomial
        weights = sorted(m[2] for m in s.monomials)  # eta = (0,0,1) pairs to z-exponent
        assert weights == list(s.b_spectrum)


def test_uniform_shift_moves_b_not_a():
    base = conic((0, 0, 1))
    shifted = conic((3, 3, 4), name="conic-shifted")
    for k in range(1, 9):
        s0, s1 = graded_slice(base, k), graded_slice(shifted, k)
        assert s1.a_spectrum == s0.a_spectrum
        assert s1.tr_a_sq == s0.tr_a_sq
        assert [b1 - b0 for b0, b1 in zip(s0.b_spectrum, s1.b_spectrum)] == [3 * k] * s0.dim


def test_spectrum_table_matches_slices():
    config = conic((0, 0, -1))
    table = spectrum_table(config, [1, 2, 5])
    assert [s.k for s in table] == [1, 2, 5]
    for s in table:
        assert s == graded_slice(config, s.k)


def test_lambda_next_exceeds_lambda_min():
    for config, _, _, _ in FIXTURES[:3]:
        for k in (1, 2, 3, 6):
            s = graded_slice(config, k)
            assert s.lambda_next > s.lambda_min


def test_validation_rejects_degenerate_inputs():
    unit = (parse_polynomial("1", V3),)
    with pytest.raises(ValueError, match="unit ideal"):
        TestConfiguration("bad", V3, (0, 0, 1), unit)

    points = tuple(parse_polynomial(t, V3) for t in ("x", "y", "z"))
    with pytest.raises(ValueError, match="empty scheme"):
        TestConfiguration("bad", V3, (0, 0, 1), points)

    mixed = (parse_polynomial("x + y^2", V3),)
    with pytest.raises(ValueError, match="homogeneous"):
        TestConfiguration("bad", V3, (0, 0, 1), mixed)

    with pytest.raises(ValueError, match="weights"):
        TestConfiguration("bad", V3, (0, 1), (parse_polynomial("x*z - y^2", V3),))


def test_zero_generators_are_dropped():
    config = TestConfiguration(
        "c", V3, (0, 0, 1),
        (parse_polynomial("0", V3), parse_polynomial("x*z - y^2", V3)),
    )
    assert len(config.generators) == 1
    assert config.initial_leads == ((0, 2, 0),)


def test_free_ring_has_no_leads():
    config = p1((1, 0))
    assert config.initial_leads == ()
    assert graded_slice(config, 4).dim == 5


def test_degree_must_be_positive():
    with pytest.raises(ValueError, match="positive"):
        graded_slice(p1((1, 0)), 0)


def test_high_level_is_built_without_recursion(monkeypatch):
    # every level below 1500 is built first, in a loop: no RecursionError.
    # Level 1500 of a conic lies above MAX_MONOMIALS, so the limit is lifted here.
    monkeypatch.setattr(spectra, "MAX_MONOMIALS", 10**9)
    try:
        s = graded_slice(conic((0, 0, 1), name="conic-high"), 1500)
        assert (s.dim, s.total_weight) == (2 * 1500 + 1, 1500**2)
        # an exponent field too narrow for 1500 would carry into its neighbour
        assert all(sum(m) == 1500 for m in s.monomials)
        assert s.monomials[0] == (1499, 1, 0)  # weight 0, y^2 is the lead
        assert s.monomials[-1] == (0, 0, 1500)
        assert [m[2] for m in s.monomials] == list(s.b_spectrum)
    finally:
        spectra._levels.cache_clear()  # release the 1500 levels


def test_level_above_the_exponent_field_is_refused(monkeypatch):
    monkeypatch.setattr(spectra, "MAX_MONOMIALS", 10**12)
    config = p1((0, 1), name="p1-field")
    with pytest.raises(ValueError, match="a slice key holds exponents up to"):
        graded_slice(config, spectra.MAX_EXPONENT + 1)
    assert spectra._levels(config) == []


def monomial_ideal(leads, weights, name="monomial-ideal"):
    nvars = len(weights)
    variables = tuple(f"x{i}" for i in range(nvars))
    generators = tuple(Polynomial(nvars, {lead: 1}) for lead in leads)
    return TestConfiguration(name, variables, weights, generators)


@st.composite
def monomial_ideals(draw):
    nvars = draw(st.integers(2, 5))
    # a lead of degree 1-3 is the product of 1-3 drawn variables
    factors = st.lists(st.integers(0, nvars - 1), min_size=1, max_size=3)
    lead = factors.map(lambda idx: tuple(idx.count(i) for i in range(nvars)))
    leads = draw(st.lists(lead, min_size=1, max_size=4))
    weights = tuple(draw(st.lists(st.integers(-5, 5), min_size=nvars, max_size=nvars)))
    return leads, weights


@settings(max_examples=100, deadline=None)
@given(monomial_ideals())
def test_slices_match_brute_force_on_monomial_ideals(drawn):
    leads, weights = drawn
    try:
        config = monomial_ideal(leads, weights)
    except ValueError as err:
        assert "empty scheme" in str(err)
        return
    for k in range(1, 8):
        s = graded_slice(config, k)
        pairs = oracles.standard_pairs(leads, len(weights), weights, k)
        assert (s.b_spectrum, s.monomials) == tuple(zip(*pairs)), k
        assert (s.dim, s.total_weight) == (len(s.b_spectrum), sum(s.b_spectrum))
        assert s.tr_b_sq == sum(b * b for b in s.b_spectrum)


@pytest.mark.parametrize(
    "leads, weights",
    [
        ([(0, 2, 0)], (10**6, -(10**6) + 3, 7)),
        ([(1, 1, 0, 0), (0, 0, 2, 1)], (-(10**6), 10**6 - 1, 999_983, -5)),
    ],
)
def test_slices_with_large_weights_match_brute_force(leads, weights):
    config = monomial_ideal(leads, weights, name="large-weights")
    for k in range(1, 8):
        s = graded_slice(config, k)
        pairs = oracles.standard_pairs(leads, len(weights), weights, k)
        assert (s.b_spectrum, s.monomials) == tuple(zip(*pairs)), k


def test_level_above_the_monomial_limit_is_refused():
    config = conic((0, 0, 1), name="conic-limit")
    top = max(k for k in range(1, 400) if comb(k + 3, 3) <= spectra.MAX_MONOMIALS)
    assert spectra.top_level(3) == top
    with pytest.raises(ValueError, match=f"level {top + 1} is too high.*limit of"):
        graded_slice(config, top + 1)
    assert spectra._levels(config) == []  # refused before any level was built
    assert graded_slice(config, 5).dim == 11
