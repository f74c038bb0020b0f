"""Fubini-Study sampling, Gram/moment matrices, equivariant orthonormalization.

Chart integrals are cross-checked against radial quadrature (tests/oracles.py)
and closed forms; Monte Carlo assertions use the estimator's own stderr with
wide (5 sigma) gates so the suite stays deterministic and quiet.
"""

import threading
from fractions import Fraction
from math import factorial, pi

import numpy as np
import pytest

from kstab import Chart, geometry, parse_polynomial
from kstab.geometry import (
    BATCH_SIZE,
    embedded_mc,
    energy_derivative,
    equivariant_gram_schmidt,
    fs_density_values,
    gram_matrix,
    hermitian_part,
    mc_charts,
    moment_matrix,
    monomial_values,
    n2_integral,
)

from oracles import (
    _base_weight,
    batch_scatter,
    bergman_density,
    chart_jacobian,
    chart_values,
    fs_mass,
    fs_volume_density,
    joint_jackknife,
    mc_integrate,
    monomials,
    stratified_jackknife,
)

U = ("u",)


def chart(*component_texts, multiplicity=1):
    comps = tuple(parse_polynomial(t, U) for t in component_texts)
    return Chart(params=U, components=comps, multiplicity=multiplicity)


LINE = chart("1", "u")
CONIC = chart("1", "u", "u^2")
CUSP = chart("u", "u^2")  # both components vanish at u = 0


# -- densities ---------------------------------------------------------------------


def test_line_density_closed_form():
    pts = np.array([[0.5 + 0.25j], [0.0 + 0.0j], [-2.0 + 1.0j]])
    got = fs_volume_density(LINE, pts)
    s = np.abs(pts[:, 0]) ** 2
    want = 1.0 / pi / (1.0 + s) ** 2
    assert np.allclose(got, want, rtol=1e-13, atol=0)


def test_conic_density_matches_quadrature_oracle_pointwise():
    # density depends only on s = |u|^2; compare with the oracle's S-form
    from oracles import radial_integral

    # total mass equals the curve degree by the radial formula
    assert abs(radial_integral([1, 1, 1]) - 2.0) < 1e-9
    pts = np.array([[0.7 - 0.4j]])
    s = float(np.abs(pts[0, 0]) ** 2)
    S = 1 + s + s * s
    Sp = 1 + 2 * s
    Spp = 2.0
    want = (Sp / S + s * (Spp / S - (Sp / S) ** 2)) / pi
    assert np.allclose(fs_volume_density(CONIC, pts), want, rtol=1e-12)


def test_indeterminate_point_raises():
    # point-last: z is (N, B), dz is (d, N, B)
    with pytest.raises(ValueError, match="indeterminate"):
        fs_density_values(
            np.zeros((2, 1), dtype=complex), np.array([[[1.0 + 0j], [0.0 + 0j]]]), np.zeros(1)
        )
    with pytest.raises(ValueError, match="indeterminate"):
        fs_volume_density(CUSP, np.array([[0.0 + 0.0j]]))


def test_engine_names_an_indeterminate_point(monkeypatch):
    # one draw of each batch lands on u = 0, where the cusp [u : u^2] is undefined
    draw = geometry._draw_batch

    def with_zero(rng, size, d):
        u, pdf = draw(rng, size, d)
        u[17] = 0.0
        return u, pdf

    monkeypatch.setattr(geometry, "_draw_batch", with_zero)
    exps = np.array([[2, 0], [1, 1], [0, 2]])
    runs = (
        lambda: gram_matrix([CUSP], exps, 2, 8192, 0),
        lambda: n2_integral([CUSP], np.eye(2, dtype=int), [0.5, -0.5], 8192, 0),
        lambda: moment_matrix([CUSP], np.eye(3), exps, 8192, 0),
    )
    for run in runs:
        with pytest.raises(ValueError, match="^indeterminate point: all components vanish$"):
            run()


def test_engine_names_a_vanished_embedded_point():
    # [1 : 0 : u] is defined everywhere, but its one section z_1 vanishes on it
    line = chart("1", "0", "u")
    with pytest.raises(ValueError, match="^embedded point vanished: sections do not span here$"):
        embedded_mc([line], np.eye(1), np.array([[0, 1, 0]]), lambda w, V: np.mean(w), 8192, 0)


# -- Monte Carlo engine --------------------------------------------------------------


def test_line_mass_is_exact_under_fs_sampling():
    out = fs_mass([LINE], 20_000, 0)
    assert out.value == pytest.approx(1.0, abs=1e-12)
    assert out.stderr < 1e-14
    assert out.consistency_ratio <= 1.0


def test_conic_mass_matches_degree_and_oracle():
    from oracles import radial_integral

    out = fs_mass([CONIC], 40_000, 1)
    assert abs(out.value - 2.0) <= 5 * out.stderr + 1e-9
    assert abs(out.value - radial_integral([1, 1, 1])) <= 5 * out.stderr + 1e-6


def test_multiplicity_scales_mass():
    double = chart("1", "u", multiplicity=2)
    out = fs_mass([double], 10_000, 3)
    assert out.value == pytest.approx(2.0, abs=1e-12)


def test_odd_integrand_averages_to_zero():
    # h = Re(z1 conj(z0)) on the unit sphere is bounded and phase-odd
    out = mc_integrate(
        [LINE], lambda z: np.real(z[:, 1] * np.conj(z[:, 0])), 40_000, 2
    )
    assert abs(out.value) <= 5 * out.stderr + 1e-12


def test_mc_results_are_bitwise_deterministic():
    a = fs_mass([CONIC], 20_000, 7)
    b = fs_mass([CONIC], 20_000, 7)
    assert (a.value, a.stderr, a.consistency_ratio) == (
        b.value,
        b.stderr,
        b.consistency_ratio,
    )
    assert a.seed == (7,)
    c = fs_mass([CONIC], 20_000, 8)
    assert c.value != a.value


def test_nonfinite_integrand_is_located():
    def bad(z):
        vals = np.zeros(len(z))
        vals[0] = np.nan
        return vals

    with pytest.raises(ValueError, match="chart"):
        mc_integrate([LINE], bad, 8192, 0)


# -- the batch loop ----------------------------------------------------------------


def _failing_at(charts, chart_index, batches, seed, fail):
    """batch_mean that calls fail(b) on the given batches of one chart.

    Batches are recognized by their first draw.
    """
    first = {}
    for b in batches:
        u, _ = geometry._draw_batch(geometry._batch_rng((seed,), chart_index, b), BATCH_SIZE, 1)
        first[complex(u[0, 0])] = b

    def mean(chart, u, pdf):
        b = first.get(complex(u[0, 0])) if chart is charts[chart_index] else None
        return np.mean(pdf) if b is None else fail(b)

    return mean


def test_first_nonfinite_batch_is_named():
    charts = [LINE, CONIC]
    mean = _failing_at(charts, 1, (3, 5), 0, lambda b: np.nan)
    with pytest.raises(ValueError, match=r"non-finite integrand in chart 1, batch 3 "):
        mc_charts(charts, mean, 8 * BATCH_SIZE, 0)


def test_first_raising_batch_is_the_one_raised():
    charts = [LINE, CONIC]

    def fail(b):
        raise ValueError(f"bad batch {b}")

    mean = _failing_at(charts, 1, (3, 5), 0, fail)
    with pytest.raises(ValueError, match=r"^bad batch 3$"):
        mc_charts(charts, mean, 8 * BATCH_SIZE, 0)


def test_batches_run_in_order_on_the_calling_thread_and_stop_at_a_failure(monkeypatch):
    # batch 2 of the second chart fails: no batch after it is drawn
    charts = [LINE, CONIC]
    job_of = {}
    for ci in range(2):
        for b in range(4):
            u, _ = geometry._draw_batch(geometry._batch_rng((0,), ci, b), BATCH_SIZE, 1)
            job_of[complex(u[0, 0])] = (ci, b)
    draw, draws, calls = geometry._draw_batch, [], []
    threads_before = threading.enumerate()

    def recorded_draw(rng, size, d):
        u, pdf = draw(rng, size, d)
        draws.append(job_of[complex(u[0, 0])])
        return u, pdf

    def mean(chart, u, pdf):
        calls.append((job_of[complex(u[0, 0])], threading.current_thread(), threading.enumerate()))
        if calls[-1][0] == (1, 2):
            raise ValueError("batch 2 of chart 1 fails")
        return np.mean(pdf)

    monkeypatch.setattr(geometry, "_draw_batch", recorded_draw)
    with pytest.raises(ValueError, match="^batch 2 of chart 1 fails$"):
        mc_charts(charts, mean, 4 * BATCH_SIZE, 0)
    order = [(0, 0), (0, 1), (0, 2), (0, 3), (1, 0), (1, 1), (1, 2)]
    assert draws == order
    assert [job for job, _, _ in calls] == order
    assert all(thread is threading.current_thread() for _, thread, _ in calls)
    assert all(threads == threads_before for _, _, threads in calls)


# -- monomial evaluation ---------------------------------------------------------------


MOBIUS = chart("1 + u", "1 - u")  # all of P^1 but [1:-1], through no monomial chart
UV = ("u", "v")
SURFACE = Chart(UV, tuple(parse_polynomial(c, UV) for c in ("1", "u + v", "u*v - v^2")))


def _direct_jet(fiber, exps, u):
    """Monomials at z = F(u) and their chain-rule u-derivatives, evaluated directly."""
    z, dz = chart_values(fiber, u), chart_jacobian(fiber, u)
    values = monomial_values(exps, z)
    by_z = []  # d m_a / d z_v = a_v z^(a - e_v)
    for v in range(exps.shape[1]):
        lowered = exps - np.eye(exps.shape[1], dtype=int)[v]
        by_z.append(exps[:, v] * monomial_values(np.maximum(lowered, 0), z))
    return values, np.einsum("biv,vba->bia", dz, np.array(by_z))


def test_monomial_values_and_jet_exact():
    exps = np.array([[2, 0], [1, 1], [0, 2]])
    zh = np.array([[0.6 + 0.0j, 0.8j], [1.0 + 0j, 0.0 + 0j]])
    vals = monomial_values(exps, zh)
    assert np.allclose(vals[0], [0.36, 0.6 * 0.8j, -0.64])
    assert np.allclose(vals[1], [1.0, 0.0, 0.0])

    # the exact pullbacks on a scaled power table, times rho^top, are the
    # monomials at F(u) and their chain-rule derivatives
    u = np.array([[0.0j], [0.3 - 0.2j], [-1.0 + 0j], [2.5 + 4j], [-40 + 15j]])
    uv_points = np.column_stack([u[:, 0], [1j, 0.0, 3 - 1j, -0.5, 70 + 2j]])
    for fiber, exps, u in (
        (CONIC, np.array(monomials(3, 4)), u),
        (MOBIUS, np.array(monomials(2, 5)), u),
        (SURFACE, np.array(monomials(3, 3)), uv_points),
    ):
        basis, coeffs = geometry._pullback(fiber, exps, jet=True)
        U, log_scale = geometry.monomial_jet(basis, np.eye(len(basis.exponents)), u)
        assert np.max(np.abs(U)) <= 1.0 + 1e-12
        got = np.einsum("jap,pb->bja", coeffs, U) * np.exp(log_scale)[:, None, None]
        values, derivs = _direct_jet(fiber, exps, u)
        scale = np.max(np.abs(values), axis=1)[:, None]
        assert np.max(np.abs(got[:, 0] - values) / scale) < 1e-13
        assert np.max(np.abs(got[:, 1:] - derivs) / scale[:, None]) < 1e-12
        # values only: the same first slice
        assert np.array_equal(geometry._pullback(fiber, exps, jet=False)[1], coeffs[:1])


def _conic_level(k):
    """Standard monomials of x*z - y^2 at degree k: y-degree at most one."""
    return np.array([[a, e, k - a - e] for e in (0, 1) for a in range(k + 1 - e)])


_DRAW = geometry._draw_batch


def _far_draw(rng, size, d):
    """The FS-law batch with its first 64 draws moved out to |u_i| = 1e8."""
    u, pdf = _DRAW(rng, size, d)
    u[:64] = 1e8 * np.exp(2j * pi * np.arange(64) / 64)[:, None]
    return u, pdf


def test_far_draws_at_high_pulled_back_degree_stay_finite(monkeypatch):
    # |u| = 1e8 at pulled-back degree 48: u^48 alone overflows a float
    monkeypatch.setattr(geometry, "_draw_batch", _far_draw)
    k = 24
    exps = _conic_level(k)
    assert geometry._pullback(CONIC, exps, jet=True)[0].top == 2 * k
    G, gram_mc = gram_matrix([CONIC], exps, k, 8192, 4)
    M, moment_mc = moment_matrix([CONIC], np.eye(len(exps)), exps, 8192, 4)
    for value in (G, gram_mc.stderr, M, moment_mc.stderr):
        assert np.all(np.isfinite(value))
    assert abs(np.trace(M).real - 2 * k) <= 5 * float(np.sum(np.diag(moment_mc.stderr))) + 1e-9


def _separate_tables_mean(fiber, exps, k):
    """A Gram batch mean with one power table for the chart's jet and another for the sections."""
    own = geometry._chart_jet(fiber)
    basis, C = geometry._pullback(fiber, exps, jet=False)

    def mean(chart, u, pdf):
        jet, log_own = geometry.monomial_jet(*own, u)
        w, _, S = geometry._embedded_points(chart, jet, u, pdf)
        V, log_scale = geometry.monomial_jet(basis, C[0], u)
        V *= np.exp(log_scale - k * (0.5 * np.log(S) + log_own))
        return geometry._weighted_outer_mean(w, V.T)

    return mean


@pytest.mark.parametrize("far", [False, True])
@pytest.mark.parametrize(
    "fiber, exps",
    [pytest.param(CONIC, _conic_level(k), id=f"conic-{k}") for k in (2, 8, 16)]
    + [
        pytest.param(MOBIUS, np.array([[k - a, a] for a in range(k + 1)]), id=f"mobius-{k}")
        for k in (2, 8, 16)
    ]
    + [pytest.param(SURFACE, np.array(monomials(3, k)), id=f"surface-{k}") for k in (2, 4)],
)
def test_shared_power_table_matches_separate_tables(fiber, exps, far, monkeypatch):
    # one table for the chart's jet and the sections, each block with its own
    # scale, against a table each; on a curve the jet's basis is a prefix of
    # the sections', so the products and every bit agree
    if far:
        monkeypatch.setattr(geometry, "_draw_batch", _far_draw)
    k = int(exps[0].sum())
    want = mc_charts([fiber], _separate_tables_mean(fiber, exps, k), 8192, 7)
    _, got = gram_matrix([fiber], exps, k, 8192, 7)
    if fiber.dim == 1:
        assert np.array_equal(got.value, want.value)
        assert np.array_equal(got.stderr, want.stderr)
    else:
        # the union has rows the jet lacks: zero columns move its product at rounding level
        scale = np.max(np.abs(want.value))
        assert np.max(np.abs(got.value - want.value)) <= 1e-13 * scale


def test_shared_power_table_at_pulled_back_degree_48(monkeypatch):
    monkeypatch.setattr(geometry, "_draw_batch", _far_draw)
    exps = _conic_level(24)
    want = mc_charts([CONIC], _separate_tables_mean(CONIC, exps, 24), 8192, 4)
    _, got = gram_matrix([CONIC], exps, 24, 8192, 4)
    assert np.all(np.isfinite(got.value))
    assert np.array_equal(got.value, want.value)


def test_real_pullbacks_take_the_real_product():
    rng = np.random.default_rng(8)
    cases = ((CONIC, LEVEL8_CONIC), (MOBIUS, LEVEL8_LINE), (SURFACE, monomials(3, 4)))
    for fiber, exps in cases:
        basis, C = geometry._pullback(fiber, np.array(exps), jet=True)
        assert C.dtype == np.float64
        K = np.concatenate(C)
        u, _ = _far_draw(rng, 512, fiber.dim)
        real, log_scale = geometry.monomial_jet(basis, K, u)
        as_complex, same_scale = geometry.monomial_jet(basis, K.astype(complex), u)
        assert np.array_equal(real, as_complex)
        assert np.array_equal(log_scale, same_scale)
        # a complex frame folded in stays a complex product on the same table
        G = len(K)
        Q = np.linalg.qr(rng.normal(size=(G, G)) + 1j * rng.normal(size=(G, G)))[0]
        U, _ = geometry.monomial_jet(basis, np.eye(len(basis.exponents)), u)
        assert np.array_equal(geometry.monomial_jet(basis, Q @ K, u)[0], (Q @ K) @ U)


def test_moment_matrix_in_a_complex_frame_is_the_rotated_identity_frame():
    # W' = Q W for a unitary Q leaves the FS measure alone, so M' = Q M Q*
    exps = np.array([[3 - a, a] for a in range(4)])
    rng = np.random.default_rng(3)
    Q = np.linalg.qr(rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4)))[0]
    M, _ = moment_matrix([LINE], np.eye(4), exps, 8192, 5)
    MQ, _ = moment_matrix([LINE], Q, exps, 8192, 5)
    assert np.max(np.abs(MQ - Q @ M @ Q.conj().T)) <= 1e-12 * np.max(np.abs(M))


# -- Gram and moment matrices ------------------------------------------------------------


def test_gram_diagonal_beta_law():
    from oracles import radial_integral

    k = 3
    exps = np.array([[k - a, a] for a in range(k + 1)])
    G, mc = gram_matrix([LINE], exps, k, 40_000, 0)
    for a in range(k + 1):
        exact = factorial(a) * factorial(k - a) / factorial(k + 1)
        quadrature = radial_integral(
            [1, 1], lambda s, a=a: s**a / (1 + s) ** k
        )
        assert abs(G[a, a].real - exact) <= 5 * mc.stderr[a, a] + 1e-9
        assert abs(exact - quadrature) < 1e-8


def test_gram_rejects_exponent_rows_that_do_not_fit():
    # a row longer than the chart had its extra columns dropped, and a row of
    # the wrong degree gave a wrong Gram matrix (0.5 on the diagonal)
    with pytest.raises(ValueError, match=r"exponent row \[1, 0, 5\]"):
        gram_matrix([LINE], [[1, 0, 5], [0, 1, 7]], 1, 8192, 0)
    with pytest.raises(ValueError, match=r"exponent row \[2, 0\] does not have degree k = 1"):
        gram_matrix([LINE], [[2, 0], [1, 1]], 1, 8192, 0)
    with pytest.raises(ValueError, match=r"exponent row \[1, 0, 0\] has 3 entries for 2 chart"):
        embedded_mc([LINE], np.eye(1), [[1, 0, 0]], lambda w, V: np.mean(w), 8192, 0)
    with pytest.raises(ValueError, match=r"^3 weights for 2 exponent rows$"):
        n2_integral([LINE], np.eye(2, dtype=int), [1.0, 0.0, -1.0], 8192, 0)
    with pytest.raises(ValueError, match=r"exponent row \[1, 0, 0\] has 3 entries for 2 chart"):
        n2_integral([LINE], np.eye(3, dtype=int), [1.0, 0.0, -1.0], 8192, 0)


def test_gram_reparametrized_line_matches_beta_law():
    # [1+u : 1-u] covers P^1 through a Mobius change of chart, so the Gram
    # matrix of the level-16 monomials is the diagonal Beta law
    from oracles import radial_integral

    k = 16
    exps = np.array([[k - a, a] for a in range(k + 1)])
    G, mc = gram_matrix([MOBIUS], exps, k, 100_000, 2)
    exact = np.diag(
        [radial_integral([1, 1], lambda s, a=a: s**a / (1 + s) ** k) for a in range(k + 1)]
    )
    assert np.all(np.abs(G - exact) <= 5 * np.asarray(mc.stderr) + 1e-9)


def test_gram_rotation_block_diagonal():
    k = 3
    exps = np.array([[k - a, a] for a in range(k + 1)])
    G, mc = gram_matrix([LINE], exps, k, 40_000, 0)
    off = np.abs(G - np.diag(np.diag(G)))
    gate = 5 * np.asarray(mc.stderr) + 1e-9
    assert np.all(off <= gate)


LEVEL8_LINE = np.array([[8 - a, a] for a in range(9)])
LEVEL8_CONIC = _conic_level(8)


@pytest.mark.parametrize(
    "fiber, exps",
    [
        (LINE, LEVEL8_LINE),
        (CONIC, LEVEL8_CONIC),
        (MOBIUS, LEVEL8_LINE),
        (SURFACE, np.array(monomials(3, 4))),
    ],
)
def test_gram_accumulation_matches_three_operand_einsum(fiber, exps):
    # the same draws through the direct evaluator (tests/oracles.py), the
    # weights and sections accumulated as sum_b w_b m_a(z_b) conj(m_c(z_b)) by einsum
    def einsum_mean(chart, u, pdf):
        w = fs_volume_density(chart, u) / pdf
        z = chart_values(chart, u)
        m = monomial_values(exps, z / np.linalg.norm(z, axis=1, keepdims=True))
        return np.einsum("b,ba,bc->ac", w, m, m.conj()) / len(w)

    want = mc_charts([fiber], einsum_mean, 8192, 11).value
    _, mc = gram_matrix([fiber], exps, int(exps[0].sum()), 8192, 11)
    assert mc.value.shape == (len(exps), len(exps))
    assert np.max(np.abs(mc.value - want)) <= 1e-12 * np.max(np.abs(want))
    hermitian_part(mc.value)  # asymmetry within the default HERMITIAN_TOL


def test_moment_matrix_balanced_limit():
    results = {}
    for k in (2, 4, 8):
        exps = np.array([[k - a, a] for a in range(k + 1)])
        G, _ = gram_matrix([LINE], exps, k, 30_000, 0)
        frame = equivariant_gram_schmidt([0] * (k + 1), hermitian_part(G, tol=1.0))
        M, mc = moment_matrix([LINE], frame, exps, 30_000, 0)
        dev = float(np.max(np.abs(M - (k / (k + 1)) * np.eye(k + 1))))
        results[k] = dev
        assert abs(np.trace(M).real - k) <= 5 * float(np.max(mc.stderr)) * (k + 1)
        assert dev <= 0.5 / k + 5 * float(np.max(np.asarray(mc.stderr)))
    # Lemma-9 style deviation shrinks as k grows
    assert results[8] <= results[2] + 0.05


def test_bergman_density_round_p1():
    for k in (1, 2, 4):
        exps = np.array([[k - a, a] for a in range(k + 1)])
        G, _ = gram_matrix([LINE], exps, k, 40_000, 0)
        frame = equivariant_gram_schmidt([0] * (k + 1), hermitian_part(G, tol=1.0))
        pts = np.array(
            [[1.0 + 0j, 0.0j], [0.6, 0.8j], [1 / np.sqrt(2) + 0j, 1j / np.sqrt(2)]]
        )
        rho = bergman_density(frame, exps, pts)
        assert np.max(np.abs(rho - (k + 1))) / (k + 1) < 0.01


def test_energy_derivative_is_a_trace():
    moment = np.diag([0.25, 0.75]).astype(complex)
    generator = np.diag([2.0, -1.0]).astype(complex)
    # (n+1) Tr((B + B*) M) with n = 1: 2 * 2 * (0.25*2 - 0.75) = -1
    assert energy_derivative(moment, generator, 1) == pytest.approx(-1.0)


# -- equivariant Gram-Schmidt -------------------------------------------------------------


def test_gram_schmidt_identity_and_triangularity():
    rng = np.random.default_rng(0)
    # 25 inputs of size 6, then one of 49, the conic's section count at level 24
    for D in [6] * 25 + [49]:
        weights = sorted(rng.integers(0, 3, size=D).tolist())
        A = rng.normal(size=(D, D)) + 1j * rng.normal(size=(D, D))
        G = A @ A.conj().T + D * np.eye(D)
        M = equivariant_gram_schmidt(weights, G)
        assert np.max(np.abs(M @ G @ M.conj().T - np.eye(D))) < 1e-10
        # strictly upper-triangular part is exactly zero
        assert np.all(M[np.triu_indices(D, k=1)] == 0)


def test_gram_schmidt_unique_up_to_block_unitary():
    rng = np.random.default_rng(1)
    for trial in range(20):
        weights = [0, 0, 0, 1, 1, 2]
        A = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
        G = A @ A.conj().T + 6 * np.eye(6)
        # scramble each weight block by a random unitary
        P = np.zeros((6, 6), dtype=complex)
        start = 0
        for size in (3, 2, 1):
            B = rng.normal(size=(size, size)) + 1j * rng.normal(size=(size, size))
            Q, _ = np.linalg.qr(B)
            P[start : start + size, start : start + size] = Q
            start += size
        M1 = equivariant_gram_schmidt(weights, G)
        M2 = equivariant_gram_schmidt(weights, P @ G @ P.conj().T)
        T = M2 @ P @ np.linalg.inv(M1)
        # T must be block-diagonal unitary
        assert np.max(np.abs(T @ T.conj().T - np.eye(6))) < 1e-9
        mask = np.zeros((6, 6), dtype=bool)
        for start, size in ((0, 3), (3, 2), (5, 1)):
            mask[start : start + size, start : start + size] = True
        assert np.max(np.abs(T[~mask])) < 1e-9


def test_gram_schmidt_rejects_bad_inputs():
    G = np.eye(3)
    with pytest.raises(ValueError, match="ascending"):
        equivariant_gram_schmidt([1, 0, 0], G)
    with pytest.raises(ValueError, match="positive definite"):
        equivariant_gram_schmidt([0, 0, 0], -np.eye(3))
    with pytest.raises(ValueError, match="shape"):
        equivariant_gram_schmidt([0, 0], G)
    # a genuinely dependent basis is singular however its vectors are scaled
    dependent = np.array([[1.0, 1.0, 0.0], [1.0, 1.0 + 1e-13, 0.0], [0.0, 0.0, 1.0]])
    for scale in ([1.0, 1.0, 1.0], [1e-3, 1e3, 1e5]):
        D = np.diag(scale)
        with pytest.raises(ValueError, match="singular"):
            equivariant_gram_schmidt([0, 0, 0], D @ dependent @ D)
    # a small but independent vector is the identity after rescaling
    M = equivariant_gram_schmidt([0, 0, 0], np.diag([1.0, 1.0, 1e-14]))
    assert np.allclose(np.diag(M), [1.0, 1.0, 1e7])


def test_hermitian_part_gates_skew():
    H = np.array([[1.0, 2.0 + 1j], [2.0 - 1j, 3.0]])
    assert np.allclose(hermitian_part(H + 1e-14j * np.eye(2)), H)
    with pytest.raises(ValueError, match="Hermitian"):
        hermitian_part(np.array([[0.0, 1.0], [-1.0, 0.0]]))


# -- the N_2 cycle integral ---------------------------------------------------------------


def test_n2_integral_double_line_cycle():
    from oracles import cycle_variance

    lambdas = [-1 / 3, -1 / 3, 2 / 3]
    cyc = [chart("1", "0", "u", multiplicity=2)]
    out = n2_integral(cyc, np.eye(3, dtype=int), lambdas, 30_000, 0)
    target = float(Fraction(1, 6))
    assert abs(out.value - target) <= max(5 * out.stderr, 0.02 * target)

    oracle = cycle_variance(
        [([1, 1], lambda s: (-1 / 3 + (2 / 3) * s) / (1 + s), 2)]
    )
    assert abs(oracle - target) < 1e-8


def test_n2_integral_two_lines_cycle():
    lambdas = [1 / 3, 1 / 3, -2 / 3]
    cyc = [chart("1", "u", "0"), chart("0", "1", "u")]
    out = n2_integral(cyc, np.eye(3, dtype=int), lambdas, 30_000, 0)
    target = float(Fraction(5, 24))
    assert abs(out.value - target) <= max(5 * out.stderr, 0.02 * target)


def test_n2_integral_matches_the_direct_evaluator_on_the_same_draws():
    # (mass, int h, int h^2) per batch from the term-by-term chart evaluator,
    # run on the cycle as the frame of exponents sees it
    two_charts = [CONIC, chart("0", "1 + u", "1 - u", multiplicity=2)]
    cases = [
        # the ambient frame; both charts vary, so each is a stratum of the jackknife
        (two_charts, np.eye(3, dtype=int), (0.5, 0.25, -0.75), two_charts),
        # a level-1 frame without x, as for x - y with x cut out in degree 1:
        # the line [1:1:u] is sampled as its projection [1:u]
        ([chart("1", "1", "u")], [[0, 1, 0], [0, 0, 1]], (-0.5, 0.5), [LINE]),
    ]
    for cyc, exponents, lam, projected in cases:
        lam = np.array(lam)

        def triple(chart, u, pdf):
            w, z = _base_weight(chart, u, pdf)
            sq = np.abs(z) ** 2
            h = (sq @ lam) / np.sum(sq, axis=1)
            return np.array([np.mean(w), np.mean(w * h), np.mean(w * h * h)])

        _, _, per_chart = geometry._batch_means(projected, triple, 20_000, 6)
        value, stderr, quarter = stratified_jackknife(projected, per_chart, _n2_statistic)
        out = n2_integral(cyc, exponents, lam, 20_000, 6)
        assert out.value == pytest.approx(value, rel=1e-12, abs=0)
        assert out.stderr == pytest.approx(stderr, rel=1e-12, abs=0)
        ratio = abs(quarter - value) / (5 * stderr)
        assert out.consistency_ratio == pytest.approx(ratio, rel=1e-12, abs=0)


def _n2_statistic(t):
    return t[2] - t[1] * t[1] / t[0]


def test_n2_stderr_on_one_chart_is_the_joint_jackknife():
    lam = [0.5, 0.25, -0.75]
    basis, K = geometry._chart_jet(CONIC)

    def triple(chart, u, pdf):
        w, W, S = geometry._embedded_points(chart, geometry.monomial_jet(basis, K, u)[0], u, pdf)
        h = (np.abs(W) ** 2).T @ lam / S
        return np.array([np.mean(w), np.mean(w * h), np.mean(w * h * h)])

    _, _, per_chart = geometry._batch_means([CONIC], triple, 40_000, 2)
    out = n2_integral([CONIC], np.eye(3, dtype=int), lam, 40_000, 2)
    assert out.stderr == pytest.approx(
        joint_jackknife([CONIC], per_chart, _n2_statistic), rel=1e-12, abs=0
    )


def test_identity_estimator_is_the_per_chart_batch_scatter():
    def mean(chart, u, pdf):
        w, z = _base_weight(chart, u, pdf)
        zhat = z[:, 1] / np.linalg.norm(z, axis=1)
        return np.array([np.mean(w), np.mean(w * zhat), np.mean(w * np.abs(zhat) ** 4)])

    charts = [LINE, chart("1", "u", "u^2", multiplicity=3)]
    _, _, per_chart = geometry._batch_means(charts, mean, 20_000, 5)
    value, stderr = batch_scatter(charts, per_chart)
    out = mc_charts(charts, mean, 20_000, 5)
    assert np.array_equal(out.value, value)
    np.testing.assert_allclose(out.stderr, stderr, rtol=1e-12, atol=0)


def test_n2_integral_shift_invariance():
    lambdas = np.array([-1 / 3, -1 / 3, 2 / 3])
    cyc = [chart("1", "0", "u", multiplicity=2)]
    a = n2_integral(cyc, np.eye(3, dtype=int), lambdas, 20_000, 4)
    b = n2_integral(cyc, np.eye(3, dtype=int), lambdas + 10.0, 20_000, 4)
    assert a.value == pytest.approx(b.value, rel=1e-9)
