"""Numeric Fubini-Study geometry on parametrized projective cycles.

A cycle component is a polynomial chart u -> [F_0(u):...:F_m(u)] with a
multiplicity.  The Fubini-Study form is normalized so a line in any P^N has
total mass 1 (the chart density carries 1/pi per parameter); with that
choice the mass of a curve equals its degree, moment-matrix traces equal
cycle degrees, and the Bergman density integrates to the section count.

Monte Carlo integration draws chart parameters from the Fubini-Study law
itself, which keeps importance weights bounded for polynomial charts.  Every
estimate runs through one batch loop, so it is a deterministic function of
(seed, sample count): fixed batch size, one generator substream per (chart,
batch), pairwise-tree reduction, and a quarter-vs-full consistency ratio.
The batches run in (chart, batch) order on the calling thread, and every
result is bit-identical whatever the BLAS thread count.

Sections are evaluated on a chart through their exact pullbacks: each
degree-k monomial m_a(F(u)) and its derivative in u are expanded once per
estimate, in exact arithmetic, over one basis of u-monomials.  A batch then
costs one power table x^alpha (x = u / rho, rho = max(1, |u|_inf)) and one
matrix product per coefficient block.  A block of top degree m takes the
rows of degree at most m scaled by rho^(|alpha| - m), so every entry is at
most 1.  The coefficients are real, so a block without a complex frame in
it multiplies the table's float view, half the flops of a complex product.
The chart's own measure takes the same route: its coordinates are the
level-1 sections.  A Gram batch lays the chart's jet [F; dF] and the
level-k sections over one basis and shares one table between them, each
block with its own scale, so F and the sections cost one table per draw.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .polynomials import Chart, Polynomial

BATCH_SIZE = 4096
HERMITIAN_TOL = 1e-12
PIVOT_FLOOR = 1e-10


# -- Fubini-Study density -----------------------------------------------------


def fs_density_values(z: np.ndarray, dz: np.ndarray, S: np.ndarray) -> np.ndarray:
    """Pullback FS volume density of a holomorphic map from its jet.

    z has shape (N, B) and dz shape (d, N, B), one column per point, and
    S = |z|^2 (B,) is passed in, as every caller has it already; the
    result (B,) is (1/pi^d) det(g) with g_ij = <dz_i,dz_j>/S -
    <dz_i,z><z,dz_j>/S^2.  Sums run over the short N axis, and S^2 is never
    formed.  Indeterminate points (S = 0) raise.
    """
    if np.any(S <= 0):
        raise ValueError("indeterminate point: all components vanish")
    mixed = np.einsum("iab,ab->ib", dz, z.conj()) / S
    g = np.einsum("iab,jab->ijb", dz, dz.conj()) / S - mixed[:, None] * mixed[None].conj()
    det = g[0, 0].real if len(dz) == 1 else np.linalg.det(np.moveaxis(g, -1, 0)).real
    return det / math.pi ** len(dz)


def _squared_norms(z: np.ndarray) -> np.ndarray:
    """|z_b|^2 of the columns of an (N, B) array."""
    return np.einsum("ab,ab->b", z.real, z.real) + np.einsum("ab,ab->b", z.imag, z.imag)


# -- the sampling law ---------------------------------------------------------


def _draw_batch(rng: np.random.Generator, size: int, d: int) -> tuple[np.ndarray, np.ndarray]:
    """FS-law parameters in C^d and their pdf."""
    v = rng.random((size, d))
    theta = rng.random((size, d))
    r = np.sqrt(v / (1.0 - v))
    u = r * np.exp(2j * math.pi * theta)
    return u, np.prod(1.0 / (math.pi * (1.0 + r**2) ** 2), axis=1)


# -- deterministic batched Monte Carlo ----------------------------------------


@dataclass(frozen=True)
class MCResult:
    """A seeded Monte Carlo estimate with its reproducibility contract.

    value/stderr are floats or arrays of the statistic's shape; stderr is
    mc_charts' jackknife over batches, chart by chart.  consistency_ratio
    compares the estimate from the first quarter of the batches against the
    full run: max |difference| / (5 stderr) over the entries.  The CLI's
    ledger of checks holds the threshold it must stay under.
    """

    value: object
    stderr: object
    n_samples: int
    batch_size: int
    seed: tuple[int, ...]
    consistency_ratio: float


def _tree_sum(arrays: list) -> object:
    work = list(arrays)
    while len(work) > 1:
        paired = []
        for i in range(0, len(work) - 1, 2):
            paired.append(work[i] + work[i + 1])
        if len(work) % 2:
            paired.append(work[-1])
        work = paired
    return work[0]


def _seed_tuple(seed) -> tuple[int, ...]:
    if isinstance(seed, (int, np.integer)):
        seed = (int(seed),)
    seed = tuple(int(s) for s in seed)
    if any(s < 0 for s in seed):
        raise ValueError("seed entries must be non-negative integers")
    return seed


def _batch_rng(seed: tuple[int, ...], chart_index: int, batch: int) -> np.random.Generator:
    ss = np.random.SeedSequence(entropy=seed + (chart_index,), spawn_key=(batch,))
    return np.random.default_rng(ss)


def _batch_means(
    charts: Sequence[Chart],
    batch_mean: Callable[[Chart, np.ndarray, np.ndarray], np.ndarray],
    n_samples: int,
    seed,
) -> tuple[tuple[int, ...], int, list[list[np.ndarray]]]:
    """The one batch loop: (seed tuple, batch count, per-chart lists of batch means).

    batch_mean is as in mc_charts.  Each (chart, batch) pair gets its own
    generator substream; sample counts are rounded up to full batches with
    a minimum of two batches so batch scatter is defined.  The batches run
    in (chart, batch) order on the calling thread, and the first batch that
    fails stops the loop.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    seed = _seed_tuple(seed)
    n_batches = max(2, -(-n_samples // BATCH_SIZE))
    per_chart = []
    for ci, chart in enumerate(charts):
        means = []
        for b in range(n_batches):
            u, pdf = _draw_batch(_batch_rng(seed, ci, b), BATCH_SIZE, chart.dim)
            m = np.asarray(batch_mean(chart, u, pdf))
            if not np.all(np.isfinite(np.atleast_1d(m).view(float))):
                raise ValueError(f"non-finite integrand in chart {ci}, batch {b} (seed {seed})")
            means.append(m)
        per_chart.append(means)
    return seed, n_batches, per_chart


def mc_charts(
    charts: Sequence[Chart],
    batch_mean: Callable[[Chart, np.ndarray, np.ndarray], np.ndarray],
    n_samples: int,
    seed,
    statistic: Callable = lambda total: total,
) -> MCResult:
    """A statistic of the multiplicity-weighted sum of per-chart Monte Carlo means.

    batch_mean(chart, u, pdf) must return the mean over the batch of the
    per-sample contribution (importance weight included).  The stderr is a
    jackknife that leaves out one batch x_cb of one chart at a time, which
    moves the total by m_c (mean_c - x_cb) / (n - 1); the charts draw
    independent substreams, so their variances add.  For the identity it
    is the per-chart batch scatter.  The quarter estimate is the statistic
    of the total over each chart's first quarter of batches.
    """
    seed, n, per_chart = _batch_means(charts, batch_mean, n_samples, seed)
    q = max(1, n // 4)
    means = [_tree_sum(xs) / n for xs in per_chart]
    total = _tree_sum([chart.multiplicity * mean for chart, mean in zip(charts, means)])
    firsts = [_tree_sum(xs[:q]) / q for xs in per_chart]
    quarter = _tree_sum([chart.multiplicity * first for chart, first in zip(charts, firsts)])
    variances = []
    for chart, mean, xs in zip(charts, means, per_chart):
        jack = [statistic(total + chart.multiplicity * (mean - x) / (n - 1)) for x in xs]
        centre = _tree_sum(jack) / n
        variances.append(_tree_sum([np.abs(t - centre) ** 2 for t in jack]) * ((n - 1) / n))
    value, stderr = statistic(total), np.sqrt(_tree_sum(variances))
    diff = np.abs(statistic(quarter) - value)
    with np.errstate(invalid="ignore"):
        ratio = np.where(diff > 0, diff / (5.0 * stderr + 1e-300), 0.0)
    scalar = np.ndim(value) == 0
    return MCResult(
        value=float(np.real(value)) if scalar else value,
        stderr=float(stderr) if scalar else stderr,
        n_samples=n * BATCH_SIZE,
        batch_size=BATCH_SIZE,
        seed=seed,
        consistency_ratio=float(np.max(ratio)),
    )


# -- monomial frames ----------------------------------------------------------


def monomial_values(exponents: np.ndarray, zhat: np.ndarray) -> np.ndarray:
    """Values of the monomial list (rows of exponents) at the points zhat: (B, D)."""
    out = np.ones((len(zhat), len(exponents)), dtype=complex)
    for v, exp_v in enumerate(exponents.T):
        powers = np.ones((len(zhat), int(exp_v.max(initial=0)) + 1), dtype=complex)
        for e in range(1, powers.shape[1]):
            powers[:, e] = powers[:, e - 1] * zhat[:, v]
        out *= powers[:, exp_v]
    return out


class _PowerBasis:
    """The u-monomials of some pullbacks, closed downward and sorted by degree.

    Every row after the first is an earlier row times one coordinate, so
    monomial_jet fills its power table by one multiplication per row.  The
    rows of degree at most m are a prefix, rows[:starts[m + 1]].
    """

    def __init__(self, support, d: int):
        rows = {(0,) * d}
        for alpha in support:
            rows.update(itertools.product(*(range(a + 1) for a in alpha)))
        self.exponents = sorted(rows, key=lambda alpha: (sum(alpha), alpha))
        self.index = {alpha: j for j, alpha in enumerate(self.exponents)}
        self.steps = []  # (row, earlier row, coordinate) for rows 1..P-1
        for j, alpha in enumerate(self.exponents[1:], start=1):
            i = next(i for i, a in enumerate(alpha) if a)
            self.steps.append((j, self.index[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]], i))
        self.top = max(map(sum, support), default=0)
        # rows of degree m are starts[m]:starts[m + 1]
        self.starts = np.searchsorted([sum(alpha) for alpha in self.exponents], range(self.top + 2))


def monomial_jet(basis: _PowerBasis, K: np.ndarray, u: np.ndarray, own=None) -> tuple:
    """K @ U at a (B, d) batch, one column per point, and log(rho^top) per point.

    The power table x^alpha, x = u / rho with rho = max(1, max_i |u_i|), is
    built once over the basis rows.  U (P, B) is that table scaled to
    u^alpha / rho^top, so its entries are at most 1 in modulus.  K (G, P)
    stacks pullback coefficients (_pullback), any frame folded in.
    own = (K_own, m) is a second block on the same table, over the rows of
    degree at most m, scaled by rho^-m instead: a chart's jet keeps its own
    scale, which the sections' rho^-top could underflow far out.  With it
    the result goes on with K_own @ U_own and log(rho^m).
    """
    rho = np.maximum(1.0, np.max(np.abs(u), axis=1))
    x = (u / rho[:, None]).T.copy()
    U = np.empty((len(basis.exponents), len(u)), dtype=complex)
    U[0] = 1.0
    for j, lower, i in basis.steps:
        np.multiply(U[lower], x[i], out=U[j])
    log_rho = np.log(rho)
    second = ()
    if own is not None:
        K_own, m = own
        rows = U[: basis.starts[m + 1]].copy()  # scaled apart, before U is scaled in place
        second = (_times(K_own, _scale_rows(rows, basis.starts, m, rho)), m * log_rho)
        del rows  # freed before the sections' product is formed
    U = _scale_rows(U, basis.starts, basis.top, rho)
    return (_times(K, U), basis.top * log_rho, *second)


def _scale_rows(U: np.ndarray, starts, m: int, rho: np.ndarray) -> np.ndarray:
    """The table rows x^alpha of degree at most m times rho^(|alpha| - m), in place."""
    scale = np.ones(len(rho))
    for degree in range(m - 1, -1, -1):
        scale /= rho
        U[starts[degree] : starts[degree + 1]] *= scale
    return U


def _times(K: np.ndarray, U: np.ndarray) -> np.ndarray:
    """K @ U for a complex table U; a real K multiplies U's float view, half the flops."""
    if np.iscomplexobj(K):
        return K @ U
    return (K @ U.view(float)).view(complex)


def _pullback(
    chart: Chart, exponents: np.ndarray, jet: bool, also=()
) -> tuple[_PowerBasis, np.ndarray]:
    """Exact pullbacks m_a(F(u)) of the monomial rows along a chart.

    Returns the basis of the u-monomials that occur, and of the exponents
    in also, and the float64 coeffs (1 + d, D, P): the coefficients, over
    the basis rows, of the pullbacks (index 0) and, when jet is set, of
    their partials by u_1..u_d (index i); otherwise coeffs has the first
    slice only.
    """
    d = chart.dim
    values = []
    for row in exponents:
        if len(row) != chart.ambient_count:
            raise ValueError(
                f"exponent row {row.tolist()} has {len(row)} entries for "
                f"{chart.ambient_count} chart components"
            )
        values.append(Polynomial.monomial(len(row), row).compose(chart.components))
    groups = [values] + ([[p.differentiate(i) for p in values] for i in range(d)] if jet else [])
    basis = _PowerBasis([alpha for p in values for alpha in p.terms] + list(also), d)
    coeffs = np.zeros((len(groups), len(exponents), len(basis.exponents)))
    for g, group in enumerate(groups):
        for a, p in enumerate(group):
            for alpha, c in p.terms.items():
                coeffs[g, a, basis.index[alpha]] = float(c)
    return basis, coeffs


def _chart_jet(chart: Chart) -> tuple[_PowerBasis, np.ndarray]:
    """The chart's own jet [F; dF], folded as embedded_mc folds a frame."""
    basis, C = _pullback(chart, np.eye(chart.ambient_count, dtype=int), jet=True)
    return basis, np.concatenate(C)


def _embedded_points(
    chart: Chart, jet: np.ndarray, u: np.ndarray, pdf: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Importance weights w (B,), sections W (D, B) and S = |W|^2 (B,) of a batch.

    jet is a folded jet K @ U from monomial_jet: sections W along the chart
    over their partials dW, and w weighs the FS volume of the chart's image
    under W.  With _chart_jet that is the chart's own measure and W =
    F(u) / rho^top.  The table's scale cancels in w; callers that need the
    unit points W / sqrt(S) or log|W| form them from W, S and the scale.
    """
    jet = jet.reshape(1 + chart.dim, -1, len(u))
    W = jet[0]
    S = _squared_norms(W)
    if np.any(S == 0):
        F = monomial_jet(*_chart_jet(chart), u[S == 0])[0][: chart.ambient_count]
        if np.all(np.any(F != 0, axis=0)):
            raise ValueError("embedded point vanished: sections do not span here")
    dens = fs_density_values(W, jet[1:], S)  # raises at an indeterminate point
    return dens / pdf, W, S


def _weighted_outer_mean(w: np.ndarray, V: np.ndarray) -> np.ndarray:
    """Batch mean of w_b v_b v_b*: the (D, D) matrix (1/B) sum_b w_b V_ba conj(V_bc).

    One complex matrix product, so the accumulation runs in BLAS.  V is
    conjugated in place; every caller hands over a batch-local array.
    """
    weighted = V * w[:, None]
    return (weighted.T @ np.conjugate(V, out=V)) / len(w)


def gram_matrix(
    charts: Sequence[Chart],
    exponents: np.ndarray,
    k: int,
    n_samples: int,
    seed,
) -> tuple[np.ndarray, MCResult]:
    """Section inner products <s_a, s_b> over the cycle, FS metric on O(k).

    The integrand m_a(z) conj(m_b(z)) / |z|^(2k) is evaluated as m(z/|z|),
    which is bounded, and the estimate is Hermitian by construction.  On a
    chart m(z/|z|) = (C_0 @ U) rho^top / |F(u)|^k with C_0 the pullbacks
    and U their scaled power table; the factor is formed in log space.  The
    weights and log|F(u)| come from the chart's own jet [F; dF], laid out
    over the same basis as C_0, so each draw builds one table for both
    (monomial_jet with own): the jet on its rows up to deg F scaled by
    rho^-deg F, the sections on all rows scaled by rho^-top.
    """
    exponents = np.asarray(exponents, dtype=int)
    for row in exponents:
        if row.sum() != k:
            raise ValueError(f"exponent row {row.tolist()} does not have degree k = {k}")
    tables = {chart: _shared_table(chart, exponents) for chart in charts}

    def mean(chart, u, pdf):
        basis, C, own = tables[chart]
        V, log_scale, jet, log_own = monomial_jet(basis, C, u, own)
        w, _, S = _embedded_points(chart, jet, u, pdf)
        del jet, _  # the outer mean's copy of V then fits where the table was
        V *= np.exp(log_scale - k * (0.5 * np.log(S) + log_own))
        return _weighted_outer_mean(w, V.T)

    result = mc_charts(charts, mean, n_samples, seed)
    return hermitian_part(result.value), result


def _shared_table(chart: Chart, exponents: np.ndarray) -> tuple[_PowerBasis, np.ndarray, tuple]:
    """One basis for the section pullbacks C_0 and the chart's jet [F; dF].

    The basis is the downward closure of both supports.  Returns it, C_0
    over all its rows, and own = ([F; dF] over the rows of degree at most
    deg F, deg F) for monomial_jet.
    """
    jet_basis, jet = _chart_jet(chart)
    basis, C = _pullback(chart, exponents, jet=False, also=jet_basis.exponents)
    own = np.zeros((len(jet), basis.starts[jet_basis.top + 1]))
    own[:, [basis.index[alpha] for alpha in jet_basis.exponents]] = jet
    return basis, C[0], (own, jet_basis.top)


def hermitian_part(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Symmetrized matrix; rejects asymmetry beyond tol (relative)."""
    residual = np.max(np.abs(matrix - matrix.conj().T))
    scale = max(1.0, float(np.max(np.abs(matrix))))
    if residual > tol * scale:
        raise ValueError(f"matrix is not Hermitian: residual {residual:.3e}")
    return (matrix + matrix.conj().T) / 2.0


# -- equivariant orthonormalization -------------------------------------------


def equivariant_gram_schmidt(weights: Sequence, gram: np.ndarray) -> np.ndarray:
    """Triangular orthonormalization M G M* = I respecting an ascending weight grouping.

    gram must be positive definite Hermitian with rows/columns ordered by
    ascending weight.  The Cholesky factor L of G gives M = L^(-1), which is
    the unique lower-triangular change of basis with positive diagonal
    taking G to the identity; so M is block lower triangular for the weight
    blocks, unique up to their block-unitary freedom.  A pivot L_ii^2 below
    PIVOT_FLOOR * G_ii means vector i is numerically dependent on the
    earlier ones; the test is unchanged by rescaling the basis vectors.
    """
    weights = list(weights)
    G = np.asarray(gram, dtype=complex)
    if G.shape[0] != G.shape[1] or G.shape[0] != len(weights):
        raise ValueError("gram matrix shape does not match the weight list")
    if any(weights[i] > weights[i + 1] for i in range(len(weights) - 1)):
        raise ValueError("weights must be ascending (group vectors by weight first)")
    G = hermitian_part(G, tol=1e-9)
    try:
        L = np.linalg.cholesky(G)
    except np.linalg.LinAlgError as exc:
        raise ValueError("gram matrix is not positive definite") from exc
    if np.any(np.real(np.diag(L)) ** 2 < PIVOT_FLOOR * np.real(np.diag(G))):
        raise ValueError(
            "gram matrix is numerically singular: basis dependent on cycle"
        )
    M = np.zeros_like(L)  # L^(-1) by forward substitution, exactly lower triangular
    for i in range(len(L)):
        M[i, i] = 1.0 / L[i, i]
        M[i, :i] = -(L[i, :i] @ M[:i, :i]) / L[i, i]
    return M


# -- embedded cycles (Bergman geometry) ---------------------------------------


def embedded_mc(
    charts: Sequence[Chart],
    gs_matrix: np.ndarray,
    exponents: np.ndarray,
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_samples: int,
    seed,
    statistic: Callable = lambda total: total,
) -> MCResult:
    """Monte Carlo integral over the cycle embedded by the sections gs_matrix @ m.

    reduce(w, V) gets the importance weights w (B,) of the FS volume of the
    embedded image and its unit points V (B, D), and returns the batch mean
    of the integrand; statistic is applied to the multiplicity-weighted
    total as in mc_charts.

    The frame is folded into the pullbacks once, K = [M C_0; M C_1; ...],
    so one monomial_jet product K @ U gives the sections W = M m(F(u)) and
    their partials dW by u_1..u_d.  The pullbacks are real, so K is real
    for a real frame (the identity of n2_integral and chow_weight_numeric)
    and takes the real product; a complex frame makes K complex.
    """
    exponents = np.asarray(exponents, dtype=int)
    pulled = {chart: _pullback(chart, exponents, jet=True) for chart in charts}
    folded = {chart: (basis, np.concatenate(gs_matrix @ C)) for chart, (basis, C) in pulled.items()}

    def mean(chart, u, pdf):
        basis, K = folded[chart]
        w, W, S = _embedded_points(chart, monomial_jet(basis, K, u)[0], u, pdf)
        W /= np.sqrt(S)
        return reduce(w, W.T)

    return mc_charts(charts, mean, n_samples, seed, statistic)


def moment_matrix(
    charts: Sequence[Chart],
    gs_matrix: np.ndarray,
    exponents: np.ndarray,
    n_samples: int,
    seed,
) -> tuple[np.ndarray, MCResult]:
    """Moment matrix int z_a conj(z_b)/|z|^2 over the embedded cycle image.

    The measure is the FS volume of the embedding by the orthonormal
    sections; the trace estimates the image degree.
    """
    result = embedded_mc(
        charts, gs_matrix, exponents, _weighted_outer_mean, n_samples, seed
    )
    return hermitian_part(result.value), result


def energy_derivative(moment: np.ndarray, generator: np.ndarray, n: int) -> float:
    """(n+1) Tr((B + B*) M): the energy slope at flow time zero.

    moment is a moment matrix of the n-dimensional cycle and generator the
    (diagonal, traceless) flow generator in the same section frame.
    """
    B = np.asarray(generator, dtype=complex)
    M = np.asarray(moment, dtype=complex)
    if B.shape != M.shape:
        raise ValueError("shape mismatch between generator and moment matrix")
    return float((n + 1) * np.trace((B + B.conj().T) @ M).real)


def n2_integral(
    charts: Sequence[Chart],
    exponents: np.ndarray,
    lambdas: Sequence[float],
    n_samples: int,
    seed,
) -> MCResult:
    """Centered second moment of the Hamiltonian over the embedded cycle.

    The cycle is embedded by the monomial rows of exponents, as in
    embedded_mc, and h = sum lambda_a |z_a|^2 / |z|^2 in that frame.  The
    mean h-hat is taken over the multiplicity-weighted cycle, so the result
    is invariant under lambda -> lambda + c.  Returns int (h - h_hat)^2 =
    m2 - m1^2 / mass, the statistic of the cycle's (mass, int h, int h^2).
    """
    lam = np.asarray(lambdas, dtype=float)
    if len(lam) != len(exponents):
        raise ValueError(f"{len(lam)} weights for {len(exponents)} exponent rows")

    def triple(w, V):
        # per-batch (mass, int h, int h^2)
        h = np.abs(V) ** 2 @ lam
        return np.array([np.mean(w), np.mean(w * h), np.mean(w * h * h)])

    statistic = lambda t: t[2] - t[1] * t[1] / t[0]
    return embedded_mc(charts, np.eye(len(lam)), exponents, triple, n_samples, seed, statistic)
