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
batch), pairwise-tree reduction, and a quarter-vs-full consistency check.
The batches run on up to two worker threads and are combined in (chart,
batch) order, so every result is bit-identical whatever the worker count.
Monomial tables are filled ROW_BLOCK points at a time; that work is per
point, so the blocking changes no bit and keeps two in-flight batches small.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .polynomials import Polynomial

BATCH_SIZE = 4096
ROW_BLOCK = 2048
HERMITIAN_TOL = 1e-12
PIVOT_FLOOR = 1e-10


@dataclass(frozen=True)
class Chart:
    """Polynomial parametrization of one cycle component.

    components map C^d -> C^(m+1) and must not vanish simultaneously away
    from a measure-zero set.
    """

    params: tuple[str, ...]
    components: tuple[Polynomial, ...]
    multiplicity: int = 1

    def __post_init__(self):
        if not self.params:
            raise ValueError("chart needs at least one parameter")
        if self.multiplicity < 1:
            raise ValueError("multiplicity must be a positive integer")
        if all(not c for c in self.components):
            raise ValueError("all chart components are zero")
        for c in self.components:
            if c.nvars != len(self.params):
                raise ValueError("component arity does not match chart parameters")
        derivs = tuple(
            tuple(c.differentiate(i) for c in self.components)
            for i in range(len(self.params))
        )
        object.__setattr__(self, "_derivs", derivs)

    @property
    def dim(self) -> int:
        return len(self.params)

    @property
    def ambient_count(self) -> int:
        return len(self.components)

    def values(self, u: np.ndarray) -> np.ndarray:
        """Component values at a (B, d) batch; returns (B, m+1)."""
        return np.stack([c.evaluate_batch(u) for c in self.components], axis=1)

    def jacobian(self, u: np.ndarray) -> np.ndarray:
        """Holomorphic derivatives at a (B, d) batch; returns (B, d, m+1)."""
        rows = []
        for i in range(self.dim):
            rows.append(np.stack([p.evaluate_batch(u) for p in self._derivs[i]], axis=1))
        return np.stack(rows, axis=1)


# -- Fubini-Study density -----------------------------------------------------


def fs_density_values(z: np.ndarray, dz: np.ndarray) -> np.ndarray:
    """Pullback FS volume density of a holomorphic map from its jet.

    z has shape (B, N), dz shape (B, d, N); the result is
    (1/pi^d) det(g) with g_ij = <dz_i,dz_j>/S - <dz_i,z><z,dz_j>/S^2 and
    S = |z|^2.  Indeterminate points (S = 0) raise.
    """
    S = np.einsum("ba,ba->b", z, z.conj()).real
    if np.any(S <= 0):
        raise ValueError("indeterminate point: all components vanish")
    inner = np.einsum("bia,bja->bij", dz, dz.conj())
    mixed = np.einsum("bia,ba->bi", dz, z.conj())
    g = inner / S[:, None, None] - np.einsum(
        "bi,bj->bij", mixed, mixed.conj()
    ) / (S**2)[:, None, None]
    d = dz.shape[1]
    if d == 1:
        det = g[:, 0, 0].real
    else:
        det = np.linalg.det(g).real
    return det / math.pi**d


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

    value/stderr are floats or arrays of the integrand shape.  consistency
    compares the first quarter of the batches against the full run; the
    ratio is max |difference| / (5 stderr) and must stay at most 1.
    """

    value: object
    stderr: object
    n_samples: int
    batch_size: int
    seed: tuple[int, ...]
    consistency_ok: bool
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


def _worker_count() -> int:
    """Worker threads for the batch loop: one per usable CPU, at most two."""
    if hasattr(os, "sched_getaffinity"):
        return min(2, len(os.sched_getaffinity(0)))
    return min(2, os.cpu_count() or 1)


def _batch_means(
    charts: Sequence[Chart],
    batch_mean: Callable[[Chart, np.ndarray, np.ndarray], np.ndarray],
    n_samples: int,
    seed,
) -> tuple[tuple[int, ...], int, list[list[np.ndarray]]]:
    """The one batch loop: (seed tuple, batch count, per-chart lists of batch means).

    batch_mean is as in mc_charts.  Each (chart, batch) pair gets its own
    generator substream; sample counts are rounded up to full batches with
    a minimum of two batches so batch scatter is defined.  The jobs run on
    up to _worker_count() threads and are collected in (chart, batch) order,
    so the means, and the first error raised, do not depend on the count.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    seed = _seed_tuple(seed)
    n_batches = max(2, -(-n_samples // BATCH_SIZE))
    jobs = [(ci, b) for ci in range(len(charts)) for b in range(n_batches)]

    def job(ci: int, b: int) -> np.ndarray:
        u, pdf = _draw_batch(_batch_rng(seed, ci, b), BATCH_SIZE, charts[ci].dim)
        m = np.asarray(batch_mean(charts[ci], u, pdf))
        if not np.all(np.isfinite(np.atleast_1d(m).view(float))):
            raise ValueError(f"non-finite integrand in chart {ci}, batch {b} (seed {seed})")
        return m

    workers = min(_worker_count(), len(jobs))
    if workers == 1:
        means = [job(ci, b) for ci, b in jobs]
    else:
        from concurrent.futures import ThreadPoolExecutor

        with ThreadPoolExecutor(workers) as pool:
            futures = [pool.submit(job, ci, b) for ci, b in jobs]
            try:
                means = [f.result() for f in futures]
            except BaseException:
                pool.shutdown(cancel_futures=True)
                raise
    per_chart = [means[ci * n_batches : (ci + 1) * n_batches] for ci in range(len(charts))]
    return seed, n_batches, per_chart


def _mc_result(value, stderr, quarter, seed: tuple[int, ...], n_batches: int) -> MCResult:
    """MCResult of an estimate, its stderr and its first-quarter estimate."""
    diff = np.abs(quarter - value)
    with np.errstate(invalid="ignore"):
        ratio = np.where(diff > 0, diff / (5.0 * stderr + 1e-300), 0.0)
    ratio = float(np.max(ratio))
    scalar = np.ndim(value) == 0
    return MCResult(
        value=float(np.real(value)) if scalar else value,
        stderr=float(stderr) if scalar else stderr,
        n_samples=n_batches * BATCH_SIZE,
        batch_size=BATCH_SIZE,
        seed=seed,
        consistency_ok=ratio <= 1.0,
        consistency_ratio=ratio,
    )


def mc_charts(
    charts: Sequence[Chart],
    batch_mean: Callable[[Chart, np.ndarray, np.ndarray], np.ndarray],
    n_samples: int,
    seed,
) -> MCResult:
    """Multiplicity-weighted sum of per-chart Monte Carlo means.

    batch_mean(chart, u, pdf) must return the mean over the batch of the
    per-sample contribution (importance weight included).  The stderr is
    the per-chart batch scatter, combined over charts.
    """
    seed, n_batches, per_chart = _batch_means(charts, batch_mean, n_samples, seed)
    n_quarter = max(1, n_batches // 4)
    totals = []
    variances = []
    quarters = []
    for chart, means in zip(charts, per_chart):
        mean_c = _tree_sum(means) / n_batches
        var_c = _tree_sum([np.abs(m - mean_c) ** 2 for m in means]) / (
            (n_batches - 1) * n_batches
        )
        totals.append(chart.multiplicity * mean_c)
        variances.append(chart.multiplicity**2 * var_c)
        quarters.append(chart.multiplicity * (_tree_sum(means[:n_quarter]) / n_quarter))
    return _mc_result(
        _tree_sum(totals), np.sqrt(_tree_sum(variances)), _tree_sum(quarters), seed, n_batches
    )


def _base_weight(chart: Chart, u: np.ndarray, pdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Importance weight of the chart's own FS measure, plus ambient points."""
    z = chart.values(u)
    dz = chart.jacobian(u)
    dens = fs_density_values(z, dz)
    return dens / pdf, z


# -- monomial frames ----------------------------------------------------------


def _powers(zhat_v: np.ndarray, top: int) -> np.ndarray:
    """Columns 1, z, ..., z^top of one variable, by repeated multiplication."""
    powers = np.ones((len(zhat_v), top + 1), dtype=complex)
    for e in range(1, top + 1):
        powers[:, e] = powers[:, e - 1] * zhat_v
    return powers


def monomial_values(exponents: np.ndarray, zhat: np.ndarray) -> np.ndarray:
    """Values of the degree-k monomial list at normalized points: (B, D).

    The gathers run ROW_BLOCK points at a time, through one small buffer.
    """
    out = np.ones((len(zhat), len(exponents)), dtype=complex)
    gathered = np.empty((min(len(zhat), ROW_BLOCK), len(exponents)), dtype=complex)
    for v, exp_v in enumerate(exponents.T):
        powers = _powers(zhat[:, v], int(exp_v.max(initial=0)))
        for lo in range(0, len(zhat), ROW_BLOCK):
            rows = slice(lo, lo + ROW_BLOCK)
            block = out[rows]
            block *= np.take(powers[rows], exp_v, axis=1, out=gathered[: len(block)], mode="clip")
        del powers  # before the next variable's table is built
    return out


def monomial_jet(exponents: np.ndarray, zhat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Monomial values and per-variable derivatives at normalized points.

    Returns (values (B, D), derivs (B, nv, D)) with derivs[b, v, a] the
    partial of monomial a by ambient variable v at zhat[b].  Both are
    left-to-right products over the variables, so the values after
    variable v-1 are the common prefix of derivs[:, v]; one power table
    and one gather buffer are live at a time.
    """
    values = np.ones((len(zhat), len(exponents)), dtype=complex)
    derivs = np.empty((len(zhat), zhat.shape[1], len(exponents)), dtype=complex)
    gathered = np.empty_like(values)
    for v, exp_v in enumerate(exponents.T):
        powers = _powers(zhat[:, v], int(exp_v.max(initial=0)))
        np.take(powers, np.where(exp_v > 0, exp_v - 1, 0), axis=1, out=gathered, mode="clip")
        np.multiply(values, gathered, out=derivs[:, v, :])
        np.take(powers, exp_v, axis=1, out=gathered, mode="clip")
        del powers  # before the next variable's table is built
        for w in range(v):
            derivs[:, w, :] *= gathered
        values *= gathered
    for v, exp_v in enumerate(exponents.T):
        np.multiply(exp_v[None, :], derivs[:, v, :], out=derivs[:, v, :])
        derivs[:, v, exp_v == 0] = 0.0
    return values, derivs


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

    The integrand m_a(z) conj(m_b(z)) / |z|^(2k) is evaluated on normalized
    points, so it is bounded and the estimate is Hermitian by construction.
    """
    exponents = np.asarray(exponents, dtype=int)

    def mean(chart, u, pdf):
        w, z = _base_weight(chart, u, pdf)
        zhat = z / np.linalg.norm(z, axis=1, keepdims=True)
        return _weighted_outer_mean(w, monomial_values(exponents, zhat))

    result = mc_charts(charts, mean, n_samples, seed)
    H = hermitian_part(result.value)
    return H, result


def hermitian_part(matrix: np.ndarray, tol: float = HERMITIAN_TOL) -> np.ndarray:
    """Symmetrized matrix; rejects asymmetry beyond tol (relative)."""
    residual = np.max(np.abs(matrix - matrix.conj().T))
    scale = max(1.0, float(np.max(np.abs(matrix))))
    if residual > tol * scale:
        raise ValueError(f"matrix is not Hermitian: residual {residual:.3e}")
    return (matrix + matrix.conj().T) / 2.0


# -- equivariant orthonormalization -------------------------------------------


@dataclass(frozen=True)
class GSResult:
    """Weight-compatible orthonormalization M with M G M* = I.

    blocks lists (weight, size) in ascending weight order; matrix is
    lower triangular (hence block-lower-triangular for any grouping) with
    positive real diagonal, which pins the result uniquely per block up to
    the residual block-unitary freedom of the problem itself.
    """

    blocks: tuple[tuple[int, int], ...]
    matrix: np.ndarray


def equivariant_gram_schmidt(weights: Sequence, gram: np.ndarray) -> GSResult:
    """Triangular orthonormalization respecting an ascending weight grouping.

    gram must be positive definite Hermitian with rows/columns ordered by
    ascending weight.  The Cholesky factor L of G gives M = L^(-1), which is
    the unique lower-triangular change of basis with positive diagonal
    taking G to the identity.  A pivot L_ii^2 below PIVOT_FLOOR * G_ii means
    vector i is numerically dependent on the earlier ones; the test is
    unchanged by rescaling the basis vectors.
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
    from scipy.linalg import solve_triangular

    M = solve_triangular(L, np.eye(len(weights), dtype=complex), lower=True)
    blocks = tuple((w, len(list(group))) for w, group in itertools.groupby(weights))
    return GSResult(blocks=blocks, matrix=M)


# -- embedded cycles (Bergman geometry) ---------------------------------------


def _embedded_jet(
    chart: Chart, u: np.ndarray, gs_matrix: np.ndarray, exponents: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Jet of the section embedding along the chart.

    Returns (W, dW, norm) where W = M m(zhat) (B, D) and dW (B, d, D) uses
    the exact relation dW_true = |F|^(k-1) * dW, W_true = |F|^k * W; the
    common |F| powers cancel in projective quantities, and the FS density of
    the true embedding equals fs_density_values(W, dW) / |F|^(2d).
    """
    z = chart.values(u)
    dz = chart.jacobian(u)
    nrm = np.linalg.norm(z, axis=1)
    if np.any(nrm == 0):
        raise ValueError("indeterminate point: all components vanish")
    zhat = z / nrm[:, None]
    # the jet is built ROW_BLOCK points at a time and contracted with dz at
    # once, so the (B, nv, D) derivative table never exists whole
    m = np.empty((len(u), len(exponents)), dtype=complex)
    dm = np.empty((len(u), chart.dim, len(exponents)), dtype=complex)
    for lo in range(0, len(u), ROW_BLOCK):
        rows = slice(lo, lo + ROW_BLOCK)
        m[rows], derivs = monomial_jet(exponents, zhat[rows])
        np.matmul(dz[rows], derivs, out=dm[rows])
        del derivs
    return m @ gs_matrix.T, dm @ gs_matrix.T, nrm


def embedded_mc(
    charts: Sequence[Chart],
    gs_matrix: np.ndarray,
    exponents: np.ndarray,
    reduce: Callable[[np.ndarray, np.ndarray], np.ndarray],
    n_samples: int,
    seed,
) -> MCResult:
    """Monte Carlo integral over the cycle embedded by the sections gs_matrix @ m.

    reduce(w, V) gets the importance weights w (B,) of the FS volume of the
    embedded image and its unit points V (B, D), and returns the batch mean
    of the integrand.
    """
    exponents = np.asarray(exponents, dtype=int)

    def mean(chart, u, pdf):
        W, dW, nrm = _embedded_jet(chart, u, gs_matrix, exponents)
        # common per-sample rescale: projectively immaterial, prevents overflow
        peak = np.max(np.abs(W), axis=1)
        if np.any(peak == 0):
            raise ValueError("embedded point vanished: sections do not span here")
        W /= peak[:, None]
        dW /= peak[:, None, None]
        dens = fs_density_values(W, dW) / nrm ** (2 * chart.dim)
        W /= np.linalg.norm(W, axis=1, keepdims=True)
        return reduce(dens / pdf, W)

    return mc_charts(charts, mean, n_samples, seed)


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
    lambdas: Sequence[float],
    n_samples: int,
    seed,
) -> MCResult:
    """Centered second moment of the Hamiltonian over the central cycle.

    h(z) = sum lambda_a |z_a|^2 / |z|^2; the mean reference h-hat is taken
    over the multiplicity-weighted cycle so the result is invariant under
    lambda -> lambda + c.  Returns int (h - h_hat)^2 with its jackknife
    stderr.
    """
    lam = np.asarray(lambdas, dtype=float)
    if any(chart.ambient_count != len(lam) for chart in charts):
        raise ValueError("diagonal length does not match ambient coordinates")

    def triple(chart, u, pdf):
        # per-batch (mass, int h, int h^2)
        w, z = _base_weight(chart, u, pdf)
        sq = np.abs(z) ** 2
        h = (sq @ lam) / np.sum(sq, axis=1)
        return np.array([np.mean(w), np.mean(w * h), np.mean(w * h * h)])

    seed, n_batches, per_chart = _batch_means(charts, triple, n_samples, seed)
    triples = np.array(
        [[chart.multiplicity * row for row in rows] for chart, rows in zip(charts, per_chart)]
    )

    def statistic(mask: np.ndarray) -> float:
        total = triples[:, mask, :].mean(axis=1).sum(axis=0)
        mass, m1, m2 = total
        return m2 - m1 * m1 / mass

    batches = np.arange(n_batches)
    jack = np.array([statistic(batches != b) for b in batches])
    stderr = math.sqrt(max(0.0, (n_batches - 1) / n_batches * np.sum((jack - np.mean(jack)) ** 2)))
    quarter = statistic(batches < max(1, n_batches // 4))
    full = statistic(np.ones(n_batches, dtype=bool))
    return _mc_result(full, stderr, quarter, seed, n_batches)
