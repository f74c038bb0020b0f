"""Exact large-k expansions: F_0, F_1, N_2^2, Chow weights, slope limits.

Expansion coefficients are cross-checked two independent ways: rational
series division on the closed-form w(k), d(k) pair, and Lagrange
interpolation of oracle-enumerated per-degree data.
"""

import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from kstab import (
    TestConfiguration,
    chow_sweep,
    chow_weight_algebraic,
    fit_asymptotics,
    graded_slice,
    operator_norm_check,
    parse_polynomial,
    spectrum_table,
)
from kstab import spectra
from kstab.asymptotics import newton_power_coefficients, regularity_start

import oracles
from oracles import eval_power, fit_eventually_polynomial, futaki_f

V5 = ("a", "b", "c", "d", "e")
V4 = ("x", "y", "z", "w")
V3 = ("x", "y", "z")
V2 = ("x", "y")


def conic(weights, name="conic"):
    return TestConfiguration(name, V3, weights, (parse_polynomial("x*z - y^2", V3),))


def p1(weights, name="p1"):
    return TestConfiguration(name, V2, weights, ())


DOUBLE_LINE = conic((0, 0, 1), "double-line")
TWO_LINES = conic((0, 0, -1), "two-lines")
PRODUCT = p1((1, 0), "product")
TRIVIAL = p1((1, 1), "trivial")


# -- frozen exact reports ---------------------------------------------------------


def test_product_report_exact():
    r = fit_asymptotics(PRODUCT)
    assert (r.F_0, r.F_1, r.n2_sq) == (Fraction(1, 2), Fraction(0), Fraction(1, 12))
    assert (r.Lambda, r.Gamma) == (Fraction(-1, 2), Fraction(-1, 2))
    assert r.n == 1 and not r.trivial_action


def test_double_line_report_exact():
    r = fit_asymptotics(DOUBLE_LINE)
    assert r.hilbert_coeffs == (Fraction(1), Fraction(2))
    assert r.weight_coeffs == (Fraction(0), Fraction(0), Fraction(1))
    assert r.tr_b_sq_coeffs == (Fraction(0), Fraction(1, 3), Fraction(0), Fraction(2, 3))
    assert (r.F_0, r.F_1, r.n2_sq) == (Fraction(1, 2), Fraction(-1, 4), Fraction(1, 6))
    assert (r.Lambda, r.Gamma) == (Fraction(-1, 2), Fraction(-1, 2))
    assert r.stability_window == (1, 5)
    assert r.degree_volume == 2


def test_two_lines_report_exact():
    r = fit_asymptotics(TWO_LINES)
    assert (r.F_0, r.F_1, r.n2_sq) == (Fraction(-1, 4), Fraction(-1, 8), Fraction(5, 24))
    assert (r.Lambda, r.Gamma) == (Fraction(-3, 4), Fraction(-3, 4))
    assert r.n2_sq > 0


def test_trivial_report_exact():
    r = fit_asymptotics(TRIVIAL)
    assert (r.F_0, r.F_1, r.n2_sq) == (Fraction(1), Fraction(0), Fraction(0))
    assert r.trivial_action
    assert r.Lambda == 0
    assert r.Gamma is None


def test_futaki_sign_for_the_conic_pair():
    assert fit_asymptotics(DOUBLE_LINE).F_1 < 0
    assert fit_asymptotics(TWO_LINES).F_1 < 0


# -- oracle cross-checks ----------------------------------------------------------

ORACLE_FIXTURES = [
    (DOUBLE_LINE, [(0, 2, 0)], 3, (0, 0, 1)),
    (TWO_LINES, [(1, 0, 1)], 3, (0, 0, -1)),
    (PRODUCT, [], 2, (1, 0)),
    (TRIVIAL, [], 2, (1, 1)),
]


def _oracle_fit(leads, nvars, weights, reducer, degree):
    xs = [Fraction(k) for k in range(1, degree + 2)]
    ys = [
        Fraction(reducer(oracles.standard_weights(leads, nvars, weights, int(k))))
        for k in xs
    ]
    return oracles.lagrange_power_coeffs(xs, ys)


def test_expansions_match_series_division_oracle():
    for config, leads, nvars, weights in ORACLE_FIXTURES:
        r = fit_asymptotics(config)
        f0, f1 = oracles.series_top_two(list(r.weight_coeffs), list(r.hilbert_coeffs))
        assert (f0, f1) == (r.F_0, r.F_1)


def test_expansions_match_lagrange_enumeration_oracle():
    for config, leads, nvars, weights in ORACLE_FIXTURES:
        r = fit_asymptotics(config)
        n = r.n
        dim_fit = _oracle_fit(leads, nvars, weights, len, n)
        weight_fit = _oracle_fit(leads, nvars, weights, sum, n + 1)
        trb_fit = _oracle_fit(
            leads, nvars, weights, lambda ws: sum(b * b for b in ws), n + 2
        )
        assert tuple(dim_fit) == r.hilbert_coeffs
        assert tuple(weight_fit) == r.weight_coeffs
        assert tuple(trb_fit) == r.tr_b_sq_coeffs
        # N_2^2 from the oracle fits alone
        n2 = trb_fit[n + 2] - weight_fit[n + 1] ** 2 / dim_fit[n]
        assert n2 == r.n2_sq


@settings(max_examples=300, deadline=None)
@given(
    st.integers(-30, 30),
    st.one_of(
        st.lists(st.integers(-(10**12), 10**12), min_size=1, max_size=10),
        st.lists(st.fractions(max_denominator=10**4), min_size=1, max_size=10),
    ),
)
def test_integer_interpolation_matches_the_rational_reference(start, values):
    nodes = range(start, start + len(values))
    expected = oracles.newton_rational([Fraction(x) for x in nodes], [Fraction(y) for y in values])
    got = newton_power_coefficients(nodes, values)
    assert got == expected
    assert all(type(c) is Fraction for c in got)


@pytest.mark.parametrize(
    "nodes",
    [[2, 2, 3], [1, 3, 4], [3, 2, 1], [Fraction(1, 2), Fraction(3, 2)]],
    ids=["repeated", "gap", "descending", "half-integers"],
)
def test_interpolation_refuses_nodes_that_are_not_consecutive_integers(nodes):
    with pytest.raises(ValueError, match="nodes must be consecutive integers"):
        newton_power_coefficients(nodes, [1] * len(nodes))


# -- Chow weights -----------------------------------------------------------------


def test_chow_weight_double_line():
    report = chow_weight_algebraic(DOUBLE_LINE, 1, fit_asymptotics(DOUBLE_LINE))
    assert report.mu == Fraction(2, 3)
    assert report.c_X_omega == Fraction(1, 4)
    assert report.futaki_residual == Fraction(1, 12)


def test_chow_weight_two_lines():
    report = chow_weight_algebraic(TWO_LINES, 1, fit_asymptotics(TWO_LINES))
    assert report.mu == Fraction(1, 3)
    assert report.futaki_residual == Fraction(1, 24)


def test_chow_residual_laws():
    laws = [
        (DOUBLE_LINE, lambda r: Fraction(1, 4 * (2 * r + 1))),
        (TWO_LINES, lambda r: Fraction(1, 8 * (2 * r + 1))),
        (PRODUCT, lambda r: 0),
        (TRIVIAL, lambda r: 0),
    ]
    for config, law in laws:
        report = fit_asymptotics(config)
        for r in range(1, 9):
            assert chow_weight_algebraic(config, r, report).futaki_residual == law(r)


CHOW_ORACLE_CONFIGS = [
    DOUBLE_LINE,
    TWO_LINES,
    PRODUCT,
    TRIVIAL,
    TestConfiguration.from_strings("p2", V3, (0, 1, 3), ()),
    TestConfiguration.from_strings("p3", V4, (0, 1, 1, 4), ()),
    TestConfiguration.from_strings("quadric", V4, (0, 0, 1, 1), ("x*w - y*z",)),
    TestConfiguration.from_strings("fermat", V3, (0, 1, 2), ("x^3 + y^3 + z^3",)),
    TestConfiguration.from_strings(
        "twisted-cubic", V4, (0, 1, 2, 3), ("x*z - y^2", "y*w - z^2", "x*w - y*z")
    ),
]


SLICE_ORACLE_CONFIGS = CHOW_ORACLE_CONFIGS + [
    TestConfiguration.from_strings("p4", V5, (0, 1, 1, 2, 3), ()),
    TestConfiguration.from_strings(
        "p4-complete-intersection", V5, (0, 1, 1, 2, 3), ("a*e - b*d", "a*c - b^2 + d*e")
    ),
]


@pytest.mark.parametrize("config", SLICE_ORACLE_CONFIGS, ids=lambda c: c.name)
def test_slices_match_the_scan_oracle(config):
    spectra._levels.cache_clear()
    cold = graded_slice(config, 9)  # built with the levels below it from an empty cache
    for k in range(1, 13):
        expected = oracles.scanned_slice(config, k)
        got = graded_slice(config, k)
        assert {name: getattr(got, name) for name in expected} == expected, k
    assert graded_slice(config, 9) is cold


TRACELESS = ("a_spectrum", "tr_a_sq", "lambda_min", "lambda_next")


@pytest.mark.parametrize("config", SLICE_ORACLE_CONFIGS, ids=lambda c: c.name)
def test_traceless_fields_read_after_the_exact_route_match_the_scan_oracle(config):
    spectra._levels.cache_clear()
    report = fit_asymptotics(config)
    chow_sweep(config, range(1, 6), report)
    spectrum_table(config, list(range(1, 9)))
    built = spectra._levels(config)
    assert len(built) >= 8
    for sl in built:
        assert not TRACELESS & vars(sl).keys(), sl.k  # the route computed none of them
        expected = oracles.scanned_slice(config, sl.k)
        assert {name: getattr(sl, name) for name in TRACELESS} == {
            name: expected[name] for name in TRACELESS
        }, sl.k
        # a copy of the integer fields alone equals the slice whose cache is filled
        bare = dataclasses.replace(sl)
        assert not TRACELESS & vars(bare).keys()
        assert bare == sl and hash(bare) == hash(sl)


@pytest.mark.parametrize("config", CHOW_ORACLE_CONFIGS, ids=lambda c: c.name)
def test_chow_closed_form_matches_ladder_oracle(config):
    report = fit_asymptotics(config)
    for r in range(1, 9):
        got = chow_weight_algebraic(config, r, report)
        assert (got.mu, got.futaki_residual) == oracles.chow_ladder(config, r, report), r


def record_built_levels(monkeypatch) -> list[int]:
    """Empty the slice cache and record the level of every slice built after."""
    levels = []
    real = spectra._next_level

    def counted(config, below):
        built = real(config, below)
        levels.append(built.k)
        return built

    spectra._levels.cache_clear()
    monkeypatch.setattr(spectra, "_next_level", counted)
    return levels


@pytest.mark.parametrize("config", CHOW_ORACLE_CONFIGS, ids=lambda c: c.name)
def test_chow_sweep_reads_no_slice_above_its_levels(config, monkeypatch):
    report = fit_asymptotics(config)
    levels = record_built_levels(monkeypatch)
    chow_sweep(config, range(1, 11), report)
    assert levels and max(levels) <= max(10, report.stability_window[1])


# -- the proven start -------------------------------------------------------------

FERMAT_10 = TestConfiguration.from_strings("fermat-10", V3, (0, 1, 2), ("x^10 + y^10 + z^10",))
LATE_MINIMUM = TestConfiguration.from_strings("late-minimum", V3, (0, -10, 1), ("y^2", "x*y"))

PROVEN_START_CONFIGS = [
    FERMAT_10,
    LATE_MINIMUM,
    TestConfiguration.from_strings("embedded-point", V3, (1, 0, 2), ("x^2", "x*y")),
    TestConfiguration.from_strings("two-leads-p3", V4, (0, 1, 2, 3), ("x*y", "z^3*w")),
    TestConfiguration.from_strings("nilpotent-y", V4, (2, -1, 0, 5), ("x^2*y", "y^3", "x*z^2")),
]


@pytest.mark.parametrize(
    "config", SLICE_ORACLE_CONFIGS + PROVEN_START_CONFIGS, ids=lambda c: c.name
)
def test_fit_holds_from_the_proven_start(config):
    report = fit_asymptotics(config)
    k0 = regularity_start(config)
    assert report.stability_window[0] == k0
    fitted = (report.hilbert_coeffs, report.weight_coeffs, report.tr_b_sq_coeffs)
    for k in range(k0, k0 + 11):
        sl = graded_slice(config, k)
        assert tuple(eval_power(c, k) for c in fitted) == (sl.dim, sl.total_weight, sl.tr_b_sq), k


def test_proven_start_is_sharp_for_the_degree_ten_curve():
    report = fit_asymptotics(FERMAT_10)
    k0 = regularity_start(FERMAT_10)
    assert k0 == 8
    # every degree-7 monomial is standard, one more than D(7) = 35
    assert graded_slice(FERMAT_10, k0 - 1).dim == 36
    assert eval_power(report.hilbert_coeffs, k0 - 1) == 35


def test_degree_ten_plane_curve_is_a_curve():
    report = fit_asymptotics(FERMAT_10)
    assert report.n == 1
    assert report.hilbert_coeffs == (Fraction(-35), Fraction(10))
    assert report.degree_volume == 10
    assert report.F_1 == Fraction(-27, 4)


def test_lambda_reads_the_free_variables_not_the_early_minimum():
    # the lowest weight is k - 11 (from y z^(k-1)) until k = 11, then 0 (x^k)
    lowest = [graded_slice(LATE_MINIMUM, k).b_spectrum[0] for k in (1, 10, 11, 12)]
    assert lowest == [-10, -1, 0, 0]
    assert fit_asymptotics(LATE_MINIMUM).Lambda == Fraction(-1, 2)


@pytest.mark.parametrize("config", SLICE_ORACLE_CONFIGS, ids=lambda c: c.name)
def test_fit_builds_no_level_above_its_window(config, monkeypatch):
    levels = record_built_levels(monkeypatch)
    report = fit_asymptotics(config)
    k_edge = regularity_start(config) + len(config.variables) + 1
    assert levels and max(levels) == report.stability_window[1] == k_edge


# -- the spectral-gap slope Gamma ---------------------------------------------------

GAMMA_CASES = [
    # b_next(k) = min(-2k, -3k + 6): the early slope -2 ends at k = 6
    (
        TestConfiguration.from_strings("two-lines-late-gap", V3, (3, -3, -2), ("y*z",)),
        Fraction(-13, 4),
    ),
    # w z^(k-1) has weight 2k - 32, so b_next(k) = k (from y^k) only from k = 32
    (
        TestConfiguration.from_strings(
            "p3-second-minimum", V4, (0, 1, 2, -30), ("x*y", "x*z", "x*w", "w^2", "y*w")
        ),
        Fraction(-1, 2),
    ),
    # the two points x = 0 and y = 0: Lambda = -1/2 and Gamma = Lambda + 1
    (TestConfiguration.from_strings("two-points", V2, (0, 1), ("x*y",)), Fraction(1, 2)),
    (TRIVIAL, None),
]


@pytest.mark.parametrize("config, gamma", GAMMA_CASES, ids=[c.name for c, _ in GAMMA_CASES])
def test_gamma_closed_form(config, gamma):
    report = fit_asymptotics(config)
    assert report.Gamma == gamma


def _monomial_lead_configs(count: int, seed: int = 0) -> list[TestConfiguration]:
    """Seeded configurations in P^1..P^3 whose generators are monomials."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        names = (V2, V3, V4)[rng.randrange(3)]
        weights = tuple(rng.randint(-3, 3) for _ in names)
        gens = set()
        for _ in range(rng.randint(1, 4)):
            expo = [0] * len(names)
            for _ in range(rng.randint(1, 3)):
                expo[rng.randrange(len(names))] += 1
            gens.add("*".join(f"{v}^{e}" for v, e in zip(names, expo) if e))
        try:
            config = TestConfiguration.from_strings(
                f"monomial-{len(out)}", names, weights, tuple(sorted(gens))
            )
        except ValueError:  # every variable nilpotent: the empty scheme
            continue
        out.append(config)
    return out


MONOMIAL_LEAD_CONFIGS = [c for c, _ in GAMMA_CASES] + _monomial_lead_configs(40)


@pytest.mark.parametrize(
    "config", SLICE_ORACLE_CONFIGS + MONOMIAL_LEAD_CONFIGS, ids=lambda c: c.name
)
def test_gamma_matches_the_high_level_slope_oracle(config):
    report = fit_asymptotics(config)
    assert report.Gamma == oracles.next_weight_slope(config, report)


def test_fit_past_the_level_limit_raises_before_building_a_level(monkeypatch):
    # the proven start k0 = 33 lies below the limit's top level 38, the last node 39 above it
    config = TestConfiguration.from_strings(
        "fermat-37", V5, (0, 1, 1, 2, 3), ("a^37 + b^37 + c^37 + d^37 + e^37",)
    )
    assert regularity_start(config) == 33 and spectra.top_level(5) == 38
    levels = record_built_levels(monkeypatch)
    with pytest.raises(ValueError, match="level 39 is too high"):
        fit_asymptotics(config)
    assert levels == []


def test_chow_sweep_monotone_envelope():
    sweep = chow_sweep(DOUBLE_LINE, range(1, 11), fit_asymptotics(DOUBLE_LINE))
    assert sweep.decay_ok
    assert sweep.fitted_C == Fraction(5, 42)
    assert len(sweep.reports) == 10
    for rep in sweep.reports:
        assert abs(rep.futaki_residual) <= sweep.fitted_C / rep.r

    two_lines = chow_sweep(TWO_LINES, range(1, 11), fit_asymptotics(TWO_LINES))
    assert two_lines.fitted_C == Fraction(5, 84)
    assert chow_sweep(PRODUCT, range(1, 11), fit_asymptotics(PRODUCT)).fitted_C == 0


def test_futaki_f_tracks_f1():
    r = fit_asymptotics(DOUBLE_LINE)
    assert futaki_f(DOUBLE_LINE, 1, r) == Fraction(-1, 6)
    for k in range(1, 11):
        # f(k) = -1/(2(2k+1)) exactly, so k f(k) -> F_1 at rate 1/k
        assert futaki_f(DOUBLE_LINE, k, r) == Fraction(-1, 2 * (2 * k + 1))
        assert abs(k * futaki_f(DOUBLE_LINE, k, r) - r.F_1) <= Fraction(1, 8) / k


# -- slope bound and window machinery ----------------------------------------------


def test_operator_norm_budget():
    for config in (DOUBLE_LINE, TWO_LINES, PRODUCT, TRIVIAL):
        out = operator_norm_check(config, 30, fit_asymptotics(config))
        assert out["pass"]
        assert out["C_star"] <= out["budget"]
    dl = operator_norm_check(DOUBLE_LINE, 12, fit_asymptotics(DOUBLE_LINE))
    assert dl["C_star"] == Fraction(2, 3)
    assert dl["budget"] == Fraction(5, 2)


def test_operator_norm_sweep_on_the_p5_quadric():
    # levels 1..26 of six variables, the highest below MAX_MONOMIALS
    config = TestConfiguration.from_strings(
        "p5-quadric", ("a", "b", "c", "d", "e", "f"), (0, 1, 1, 2, 3, 4), ("a*f - b*e + c*d",)
    )
    assert spectra.top_level(6) == 26
    try:
        out = operator_norm_check(config, 26, fit_asymptotics(config))
        assert out == {"C_star": Fraction(13, 6), "budget": Fraction(69, 10), "pass": True}
    finally:
        spectra._levels.cache_clear()  # release the 26 levels


def test_fit_eventually_polynomial_window():
    fit = fit_eventually_polynomial(
        lambda k: Fraction(k * k) if k >= 4 else Fraction(999), 2
    )
    assert fit.coeffs == (Fraction(0), Fraction(0), Fraction(1))
    assert fit.window[0] == 4


def test_fit_eventually_polynomial_cap_error():
    with pytest.raises(ValueError, match="saturated"):
        fit_eventually_polynomial(lambda k: Fraction(2) ** k, 3, cap=20)
