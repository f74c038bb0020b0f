"""Acceptance suite: one test per release criterion, tolerances pinned.

Each test is a single pass/fail line under pytest -v.  Monte Carlo criteria
run at 10^5 samples with seed 0 and are fully deterministic.  Criterion 13
asserts the envelope boundary-continuity goal of 0.05; the measured gap of
the three-level surrogate sits near 0.5, so that clause fails by design and
is reported honestly rather than loosened.
"""

import json
import time
from fractions import Fraction

import numpy as np
import pytest

from kstab import (
    TestConfiguration,
    build_ray_grid,
    chow_sweep,
    chow_weight_algebraic,
    chow_weights_numeric,
    fit_asymptotics,
    graded_slice,
    gram_matrix,
    equivariant_gram_schmidt,
    grid_points,
    ma_mass,
    moment_matrix,
    operator_norm_check,
    parse_polynomial,
    section_frame,
    sup_osc_report,
)
from kstab.cli import main
from kstab.geometry import hermitian_part
from kstab.polynomials import Chart

import oracles
from conftest import SAMPLES, SEED, config_path, t_grid_with

V3 = ("x", "y", "z")


def all_reports(double_line, two_lines, product_p1, trivial_p1):
    return [fit_asymptotics(cfg) for cfg, _, _ in (double_line, two_lines, product_p1, trivial_p1)]


def test_c01_product_configuration_exact(product_p1):
    start = time.perf_counter()
    report = fit_asymptotics(product_p1[0])
    elapsed = time.perf_counter() - start
    assert report.F_0 == Fraction(1, 2)
    assert report.F_1 == 0
    assert report.n2_sq == Fraction(1, 12)
    assert elapsed < 1.0


def test_c02_double_line_exact(double_line):
    config = double_line[0]
    report = fit_asymptotics(config)
    assert config.initial_leads == ((0, 2, 0),)
    lo, hi = report.stability_window
    for k in range(lo, hi + 4):
        s = graded_slice(config, k)
        assert s.dim == 2 * k + 1
        assert s.total_weight == k * k
    assert report.hilbert_coeffs == (Fraction(1), Fraction(2))
    assert report.weight_coeffs == (Fraction(0), Fraction(0), Fraction(1))
    assert report.F_1 == Fraction(-1, 4)
    assert report.n2_sq == Fraction(1, 6)


def test_c03_two_lines_exact(two_lines):
    config = two_lines[0]
    report = fit_asymptotics(config)
    assert config.initial_leads == ((1, 0, 1),)
    assert report.F_1 == Fraction(-1, 8)
    assert report.n2_sq == Fraction(5, 24)
    assert report.n2_sq > 0


def test_c04_futaki_negative_for_both_conic_degenerations(double_line, two_lines):
    assert fit_asymptotics(double_line[0]).F_1 < 0
    assert fit_asymptotics(two_lines[0]).F_1 < 0


def test_c05_trivial_configuration(trivial_p1):
    config, fiber, _ = trivial_p1
    report = fit_asymptotics(config)
    assert report.F_1 == 0
    assert report.n2_sq == 0
    assert report.trivial_action
    for k in range(1, 21):
        assert set(graded_slice(config, k).a_spectrum) == {Fraction(0)}

    points = grid_points(config, fiber)
    frame = section_frame(config, fiber, 3, 20_000, SEED)
    grid = build_ray_grid(
        [frame], (-1.0, -20.0, -40.0), points, report.n, float(report.degree_volume)
    )
    assert np.max(np.abs(grid.phi[0] - grid.phi_zero[0])) <= 1e-12


def test_c06_eigenvalue_slope_budget(double_line, two_lines, product_p1, trivial_p1):
    for config, _, _ in (double_line, two_lines, product_p1, trivial_p1):
        report = fit_asymptotics(config)
        budget = max(abs(w) for w in config.weights) + abs(report.F_0) + 1
        for k in range(1, 31):
            s = graded_slice(config, k)
            peak = max(abs(a) for a in s.a_spectrum)
            assert peak / k <= budget  # exact rational comparison
        assert operator_norm_check(config, report)["pass"]


def test_c07_chow_residual_decay(double_line, two_lines, product_p1, trivial_p1):
    for config, _, _ in (double_line, two_lines, product_p1, trivial_p1):
        sweep = chow_sweep(config, range(1, 11), fit_asymptotics(config))
        assert sweep.decay_ok
        for row in sweep.reports:
            assert abs(row.futaki_residual) <= sweep.fitted_C / row.r


def test_c08_n2_spectral_vs_monte_carlo(tmp_path):
    start = time.perf_counter()
    code = main(
        [
            "n2",
            str(config_path("conic_double_line")),
            "--samples",
            str(SAMPLES),
            "--seed",
            str(SEED),
            "--out",
            str(tmp_path),
        ]
    )
    elapsed = time.perf_counter() - start
    assert code == 0
    payload = json.loads((tmp_path / "conic_double_line_n2.json").read_text())
    assert payload["exact_n2_sq"] == "1/6"
    assert payload["rel_error"] <= 0.02
    assert payload["pass"] is True
    assert elapsed < 30.0


def test_c09_chow_weight_numeric_vs_exact(double_line, dl_report):
    config, _, cycle = double_line
    (numeric,) = chow_weights_numeric(config, cycle, (1,), SAMPLES, SEED)
    exact = float(chow_weight_algebraic(config, 1, dl_report).mu)
    assert abs(numeric.value - exact) <= 0.05 * abs(exact)
    assert numeric.consistency_ratio <= 1.0


def test_c10_monge_ampere_mass_budget(double_line, two_lines, dl_report, tl_report):
    for (config, fiber, _), report in (
        (double_line, dl_report),
        (two_lines, tl_report),
    ):
        scaled = []
        for k in range(2, 13):
            frame = section_frame(config, fiber, k, SAMPLES, SEED)
            energy = ma_mass(config, fiber, frame, report, SAMPLES, SEED)
            assert energy.mass >= -5 * energy.mass_stderr
            scaled.append(energy.mass_times_k)
        assert max(scaled) <= 2 * float(np.median(scaled))


def test_c11_sup_slope_and_oscillation(dl_grid):
    lam = abs(dl_grid.lambda_min_per_k[-1]) / 16
    assert lam == pytest.approx(16 / 33, abs=1e-12)
    row = next(
        r
        for r in sup_osc_report(dl_grid)
        if r["k"] == 16 and abs(r["t"] + 20.0) < 1e-12
    )
    assert 16 / 33 - 0.03 <= row["sup_over_2t"] <= 16 / 33 + 0.01
    assert 1.5 <= row["osc"] / 20.0 <= 2.1


def test_c12_ray_comparison_bounded(
    double_line, two_lines, dl_grid, tl_frames, tl_points, dl_report, tl_report
):
    tl_grid = build_ray_grid(
        [tl_frames[4], tl_frames[8]],
        t_grid_with(-20.0),
        tl_points,
        tl_report.n,
        float(tl_report.degree_volume),
    )
    for config, grid, report in (
        (double_line[0], dl_grid, dl_report),
        (two_lines[0], tl_grid, tl_report),
    ):
        assert oracles.level_comparison(grid, config, report, 4, 8)["ratio"] <= 1.2


def test_c13_envelope_strict_decrease_and_boundary(dl_grid):
    assert dl_grid.strict_decrease
    # goal: the envelope rejoins phi(0; k_max) at the boundary within 0.05;
    # the measured gap of the k={4,8,16} surrogate is ~0.5, a known failure
    assert dl_grid.boundary_continuity <= 0.05


def test_c14_round_p1_quadrature_sanity():
    U = ("u",)
    line = Chart(
        params=U,
        components=(parse_polynomial("1", U), parse_polynomial("u", U)),
    )
    pts = np.array(
        [[1.0 + 0j, 0j], [0.6 + 0j, 0.8j], [1 / np.sqrt(2) + 0j, 1j / np.sqrt(2)]]
    )
    for k in (1, 2, 4):
        exps = np.array([[k - a, a] for a in range(k + 1)])
        gram, gram_mc = gram_matrix([line], exps, k, SAMPLES, SEED)
        frame = equivariant_gram_schmidt([0] * (k + 1), hermitian_part(gram, tol=1.0))
        rho = oracles.bergman_density(frame, exps, pts)
        assert np.max(np.abs(rho - (k + 1))) / (k + 1) <= 0.01

        moment, moment_mc = moment_matrix([line], frame, exps, SAMPLES, SEED)
        trace_gate = 3 * float(
            np.sqrt(np.sum(np.asarray(moment_mc.stderr).diagonal() ** 2))
        )
        assert abs(np.trace(moment).real - k) <= trace_gate

        off = np.abs(gram - np.diag(np.diag(gram)))
        gate = 3 * np.asarray(gram_mc.stderr) + 1e-12
        assert np.all(off <= gate)


def test_c15_equivariant_gram_schmidt_suite():
    rng = np.random.default_rng(SEED)
    for trial in range(100):
        # random composition of 6 into at most three weight blocks
        cuts = sorted(rng.integers(1, 6, size=2).tolist())
        sizes = [s for s in (cuts[0], cuts[1] - cuts[0], 6 - cuts[1]) if s > 0]
        weights = sum(([w] * s for w, s in enumerate(sizes)), [])
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        G = A @ A.conj().T + 6 * np.eye(6)
        M = equivariant_gram_schmidt(weights, G)
        assert np.max(np.abs(M @ G @ M.conj().T - np.eye(6))) <= 1e-10
        assert np.all(M[np.triu_indices(6, k=1)] == 0)

        # uniqueness up to block unitary: scramble blocks, re-orthonormalize
        P = np.zeros((6, 6), dtype=complex)
        start = 0
        for s in sizes:
            Q, _ = np.linalg.qr(
                rng.normal(size=(s, s)) + 1j * rng.normal(size=(s, s))
            )
            P[start : start + s, start : start + s] = Q
            start += s
        M2 = equivariant_gram_schmidt(weights, P @ G @ P.conj().T)
        T = M2 @ P @ np.linalg.inv(M)
        assert np.max(np.abs(T @ T.conj().T - np.eye(6))) <= 1e-9
        mask = np.zeros((6, 6), dtype=bool)
        start = 0
        for s in sizes:
            mask[start : start + s, start : start + s] = True
            start += s
        assert np.max(np.abs(T[~mask])) <= 1e-9


def test_c16_uniform_weight_shift_invariance(double_line):
    config, fiber, _ = double_line
    shifted = TestConfiguration(
        config.name,
        config.variables,
        tuple(w + 4 for w in config.weights),
        config.generators,
    )
    base_report, shift_report = fit_asymptotics(config), fit_asymptotics(shifted)
    assert base_report.F_1 == shift_report.F_1
    assert base_report.n2_sq == shift_report.n2_sq
    assert base_report.Lambda == shift_report.Lambda
    for k in range(1, 13):
        assert graded_slice(config, k).a_spectrum == graded_slice(shifted, k).a_spectrum

    points = grid_points(config, fiber)
    for k in (2, 4):
        phi_a, phi_b = (
            build_ray_grid(
                [section_frame(cfg, fiber, k, 20_000, SEED)], (-0.7, -15.0), points, 1, 2.0
            ).phi
            for cfg in (config, shifted)
        )
        assert np.max(np.abs(phi_a - phi_b)) <= 1e-12
