"""Bergman ray potentials, envelopes, and energy diagnostics on point grids."""

import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, strategies as st

from kstab import rays
from kstab.rays import PARAM_VALUES
from kstab import cli
from kstab import (
    TestConfiguration,
    build_ray_grid,
    chow_weight_algebraic,
    chow_weights_numeric,
    convexity_report,
    energy_derivative,
    fit_asymptotics,
    geometric_t_grid,
    graded_slice,
    grid_points,
    ma_mass,
    parse_polynomial,
    moment_matrix,
    section_frame,
    slope_report,
    sup_osc_report,
)
from kstab.polynomials import Chart

import oracles
from conftest import RAY_LEVELS, SAMPLES, SEED


# -- point grids -------------------------------------------------------------------


def test_grid_point_labels_and_dedupe(dl_points):
    assert dl_points.labels == (
        "0:u=-2",
        "0:u=-1",
        "0:u=-1/2",
        "0:u=0",
        "0:u=1/2",
        "0:u=1",
        "0:u=2",
        "e:z",
    )
    # rows are unit vectors, pairwise distinct projectively
    norms = np.linalg.norm(dl_points.zhat, axis=1)
    assert np.allclose(norms, 1.0)
    overlaps = np.abs(dl_points.zhat @ dl_points.zhat.conj().T)
    np.fill_diagonal(overlaps, 0.0)
    assert np.max(overlaps) < 1.0 - 1e-9


def test_grid_neighbors_include_self(dl_points):
    for i, nbrs in enumerate(dl_points.neighbors):
        assert i in nbrs
        assert all(0 <= j < len(dl_points.labels) for j in nbrs)


def test_param_values_are_symmetric_fractions():
    assert PARAM_VALUES == (
        Fraction(-2),
        Fraction(-1),
        Fraction(-1, 2),
        Fraction(0),
        Fraction(1, 2),
        Fraction(1),
        Fraction(2),
    )


# -- section frames ------------------------------------------------------------------


def test_section_frame_structure(dl_frames, double_line):
    config, _, _ = double_line
    frame = dl_frames[4]
    k = frame.k
    assert np.all(frame.exponents.sum(axis=1) == k)
    assert len(frame.lambdas) == 2 * k + 1
    assert np.all(np.diff(frame.lambdas) >= 0)
    # lambdas are the traceless shift of the b-weights
    assert np.allclose(np.sum(frame.lambdas), 0.0, atol=1e-9)
    assert frame.gram_mc.consistency_ratio <= 1.0
    assert frame.lambdas[0] == pytest.approx(-(k * k) / (2 * k + 1))


def _same_mc(got, want):
    assert np.array_equal(got.value, want.value)
    assert np.array_equal(got.stderr, want.stderr)
    assert (got.seed, got.consistency_ratio) == (want.seed, want.consistency_ratio)


def test_a_level_reads_the_same_alone_and_in_a_ladder(double_line, dl_report):
    # frames, masses and numeric Chow weights share their draws across a
    # ladder, on level-free substreams: a level's output is bit-identical
    config, fiber, cycle = double_line
    ks = (2, 8, 16)
    frames = rays.section_frames(config, fiber, ks, 8192, 4)
    energies = rays.ma_masses(config, fiber, frames, dl_report, 8192, 4)
    chow = chow_weights_numeric(config, cycle, ks, 8192, 4)
    assert [f.k for f in frames] == [e.k for e in energies] == list(ks)
    for frame, energy, numeric in zip(frames, energies, chow):
        alone = section_frame(config, fiber, frame.k, 8192, 4)
        assert frame.gram_mc.seed == (4, 0, rays.GRAM_TAG)
        assert np.array_equal(frame.gram, alone.gram)
        assert np.array_equal(frame.matrix, alone.matrix)
        _same_mc(frame.gram_mc, alone.gram_mc)
        energy_alone = ma_mass(config, fiber, alone, dl_report, 8192, 4)
        assert (energy.mass, energy.mass_stderr) == (energy_alone.mass, energy_alone.mass_stderr)
        _same_mc(energy.moment_mc, energy_alone.moment_mc)
        (numeric_alone,) = chow_weights_numeric(config, cycle, (frame.k,), 8192, 4)
        _same_mc(numeric, numeric_alone)


def test_phi_zero_matches_bergman_density(dl_frames, dl_points, dl_grid):
    frame = dl_frames[4]
    rho = oracles.bergman_density(frame.matrix, frame.exponents, dl_points.zhat)
    expected = (np.log(rho) - dl_grid.n * math.log(frame.k)) / frame.k
    assert dl_grid.k_set[0] == frame.k
    assert np.allclose(dl_grid.phi_zero[0], expected, atol=1e-12)


# -- grids and envelopes ----------------------------------------------------------------


def test_geometric_t_grid_shape():
    tg = geometric_t_grid()
    assert len(tg) == 25
    assert tg[0] == pytest.approx(-0.1)
    assert tg[-1] == pytest.approx(-40.0)
    assert all(tg[i] > tg[i + 1] for i in range(len(tg) - 1))
    with pytest.raises(ValueError):
        geometric_t_grid(t_near=-2.0, t_far=-1.0)
    with pytest.raises(ValueError):
        geometric_t_grid(steps=1)


def test_build_ray_grid_rejects_duplicate_levels(dl_frames, dl_points):
    with pytest.raises(ValueError, match="distinct"):
        build_ray_grid([dl_frames[4], dl_frames[4]], (-1.0,), dl_points, 1, 2.0)
    for t in (0.0, 0.5):
        with pytest.raises(ValueError, match="negative"):
            build_ray_grid([dl_frames[4]], (t,), dl_points, 1, 2.0)


def test_inverse_square_tail_is_the_trigamma_function():
    # c_k scales sum_{j>=k} j^(-2) = polygamma(1, k); SciPy serves as the oracle
    from scipy.special import polygamma

    for k in range(1, 1501):
        assert rays._inverse_square_tail(k) == pytest.approx(float(polygamma(1, k)), rel=1e-13)


def test_grid_shapes_and_envelope_dominates(dl_grid):
    nk, nt, npts = (
        len(dl_grid.k_set),
        len(dl_grid.t_grid),
        len(dl_grid.labels),
    )
    assert dl_grid.phi.shape == (nk, nt, npts)
    assert dl_grid.shifted.shape == (nk, nt, npts)
    assert dl_grid.envelope.shape == (nt, npts)
    # the envelope majorizes every shifted level at every grid point
    assert np.all(dl_grid.envelope >= np.max(dl_grid.shifted, axis=0) - 1e-12)
    assert set(np.unique(dl_grid.attaining)) <= set(RAY_LEVELS)


def test_shifts_are_strictly_decreasing_but_boundary_gap_is_large(dl_grid):
    # the replacement shifts decrease in k as designed; the measured boundary
    # gap of the three-level envelope sits near 0.5, far above the 0.05 goal
    assert dl_grid.strict_decrease
    assert 0.3 < dl_grid.boundary_continuity < 0.7


def test_slope_and_convexity_diagnostics(dl_grid):
    assert slope_report(dl_grid) <= 0
    assert convexity_report(dl_grid) >= -cli.CONVEXITY_TOL


@st.composite
def ray_terms(draw):
    """lambda, log-terms (some -inf, never a whole row) and a negative t grid."""
    width = draw(st.integers(1, 6))
    lambdas = draw(st.lists(st.floats(-5, 5), min_size=width, max_size=width))
    term = st.one_of(st.floats(-30, 30), st.just(-math.inf))
    row = st.lists(term, min_size=width, max_size=width).filter(lambda r: max(r) > -math.inf)
    rows = draw(st.lists(row, min_size=1, max_size=4))
    # spacing at least 0.01 keeps rounding in phi small in the divided differences
    ticks = draw(st.lists(st.integers(1, 4000), min_size=3, max_size=8, unique=True))
    return np.array(lambdas), np.array(rows), np.array(sorted(-tick / 100 for tick in ticks))


@given(ray_terms(), st.integers(1, 32), st.integers(1, 3))
def test_phi_from_terms_keeps_its_slope_bound_and_is_convex(terms, k, n):
    # phi(t;k) = (1/k)[log sum_a e^(2 t lambda_a) |s_a|^2 - n log k] is a
    # log-sum-exp of lines in t: d_t phi = (2/k) sum_a lambda_a p_a for softmax
    # weights p, so every finite-difference slope is at most 2 max|lambda|/k in
    # modulus, and d_t^2 phi = (4/k) Var_p(lambda) >= 0
    lambdas, log_terms, t = terms
    phi = np.array([rays._phi_from_terms(log_terms, lambdas, k, n, s) for s in t])
    # rounding allowance: a few ulps of the largest magnitude in the sum, per
    # reduced term, over k, then over the least spacing per difference quotient
    finite = np.abs(log_terms[np.isfinite(log_terms)])
    bound = 2 * np.abs(t).max() * np.abs(lambdas).max()
    size = 1 + finite.max() + bound + math.log(lambdas.size) + n * math.log(k)
    err = 8 * (lambdas.size + 2) * np.finfo(float).eps * size / k
    slack = 2 * err / np.diff(t).min()
    slopes = np.diff(phi, axis=0) / np.diff(t)[:, None]
    assert np.all(np.abs(slopes) <= 2 * np.abs(lambdas).max() / k + slack)
    assert np.all(np.diff(slopes, axis=0) >= -2 * slack)


def test_sup_stays_inside_the_two_sided_band(dl_grid):
    for row in sup_osc_report(dl_grid):
        if abs(row["t"]) < 10.0:
            continue
        assert row["band_low"] - 1e-9 <= row["sup_over_2t"] <= row["band_high"] + 1e-9


def test_sup_and_osc_at_t_minus_twenty(dl_grid):
    rows = sup_osc_report(dl_grid)
    row = next(r for r in rows if r["k"] == 16 and abs(r["t"] + 20.0) < 1e-12)
    lam = abs(dl_grid.lambda_min_per_k[-1]) / 16
    assert lam == pytest.approx(16 / 33)
    assert row["sup_over_2t"] == pytest.approx(0.48481, abs=5e-4)
    assert 1.5 <= row["osc"] / 20.0 <= 2.1


# -- the trivial configuration -----------------------------------------------------------


def test_trivial_rays_are_time_independent(trivial_p1):
    config, fiber, _ = trivial_p1
    points = grid_points(config, fiber)
    for k in (1, 3, 5):
        frame = section_frame(config, fiber, k, 20_000, 0)
        assert np.allclose(frame.lambdas, 0.0, atol=1e-15)
        grid = build_ray_grid([frame], (-0.5, -7.0, -40.0), points, 1, 1.0)
        assert np.max(np.abs(grid.phi[0] - grid.phi_zero[0])) <= 1e-12


# -- invariance under uniform weight shifts ------------------------------------------------


def test_phi_invariant_under_uniform_weight_shift(double_line):
    config, fiber, _ = double_line
    shifted_config = TestConfiguration(
        config.name,
        config.variables,
        tuple(w + 3 for w in config.weights),
        config.generators,
    )
    points = grid_points(config, fiber)
    for k in (2, 4):
        a = section_frame(config, fiber, k, 20_000, 0)
        b = section_frame(shifted_config, fiber, k, 20_000, 0)
        assert np.allclose(a.lambdas, b.lambdas, atol=1e-12)
        pa, pb = (build_ray_grid([f], (-1.0, -15.0), points, 1, 2.0).phi for f in (a, b))
        assert np.max(np.abs(pa - pb)) <= 1e-12


# -- comparison, mass, numeric Chow --------------------------------------------------------


def test_ray_comparison_double_line(dl_report, double_line, dl_grid):
    comp = oracles.level_comparison(dl_grid, double_line[0], dl_report, 4, 8)
    assert comp["ratio"] <= 1.2
    assert comp["f_k"] == Fraction(-1, 18)
    assert comp["f_l"] == Fraction(-1, 34)


def test_ma_mass_report(double_line, dl_frames, dl_report):
    config, fiber, _ = double_line
    rep = ma_mass(config, fiber, dl_frames[4], dl_report, 50_000, 0)
    assert rep.k == 4
    # the far-end energy slope is exactly minus the algebraic Chow weight
    assert rep.edot_minus_inf == -chow_weight_algebraic(config, 4, dl_report).mu
    assert rep.edot_minus_inf == Fraction(-32, 9)
    assert rep.mass >= -5 * rep.mass_stderr
    assert rep.mass_times_k == pytest.approx(4 * rep.mass)


@pytest.mark.parametrize("k", [1, 2])
def test_chow_slope_is_the_cycle_moment_trace(double_line, k):
    # on a curve the Chow reduction is half the energy_derivative of the
    # unflowed moment matrix of the cycle, from the same draws
    config, _, cycle = double_line
    sl = graded_slice(config, k)
    exponents = np.array(sl.monomials, dtype=int)
    lambdas = np.array([float(a) for a in sl.a_spectrum])
    seed = 3
    (numeric,) = chow_weights_numeric(config, cycle, (k,), 8192, seed)
    M, _ = moment_matrix(
        cycle, np.eye(len(lambdas)), exponents, 8192, (seed, 0, rays.CHOW_TAG)
    )
    want = energy_derivative(M, np.diag(lambdas), 1) / 2
    assert numeric.value == pytest.approx(want, rel=1e-12, abs=0)


@pytest.mark.parametrize("k", range(1, 9))
@pytest.mark.parametrize(
    "fixture", ["two_lines", "double_line", "product_p1", "trivial_p1"]
)
def test_chow_weight_numeric_reads_the_exact_weight(request, fixture, k):
    config, _, cycle = request.getfixturevalue(fixture)
    report = fit_asymptotics(config)
    (numeric,) = chow_weights_numeric(config, cycle, (k,), SAMPLES, SEED)
    exact = float(chow_weight_algebraic(config, k, report).mu)
    assert abs(numeric.value - exact) <= 4 * numeric.stderr
    assert numeric.consistency_ratio <= 1.0


def test_chow_weight_numeric_on_a_surface():
    # the quadric xw = yz degenerates to the planes y = 0 and z = 0; the
    # sampled measure is omega^2/2!, so this pins the (n+1)! of the reduction
    names = ("x", "y", "z", "w")
    config = TestConfiguration(
        name="quadric_two_planes",
        variables=names,
        weights=(0, 0, 0, 1),
        generators=(parse_polynomial("x*w - y*z", names),),
    )
    params = ("u", "v")
    cycle = [
        Chart(params=params, components=tuple(parse_polynomial(c, params) for c in comps))
        for comps in (("1", "0", "u", "v"), ("1", "u", "0", "v"))
    ]
    report = fit_asymptotics(config)
    assert report.n == 2
    for k in (1, 2):
        (numeric,) = chow_weights_numeric(config, cycle, (k,), SAMPLES, SEED)
        exact = float(chow_weight_algebraic(config, k, report).mu)
        assert abs(numeric.value - exact) <= 4 * numeric.stderr
