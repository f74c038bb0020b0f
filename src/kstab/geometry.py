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
result is bit-identical whatever the BLAS thread count.  A ladder of levels
(mc_ladder) evaluates every level's integrand on each draw and keeps each
level's own result; a single estimate is the ladder of one.

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
sections of every level over one basis and shares one table between them,
each block on its own rows with its own scale, so F and the sections cost
one table per draw, whatever the number of levels.
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
    batch_means: Callable[[Chart, np.ndarray, np.ndarray], Sequence],
    levels: Sequence,
    n_samples: int,
    seed,
) -> tuple[tuple[int, ...], int, list[list[list[np.ndarray]]]]:
    """The one batch loop: (seed tuple, batch count, per-level, per-chart lists of batch means).

    batch_means is as in mc_ladder: one batch mean per entry of levels, each
    level's in the order of levels, all on one draw.  Each (chart, batch)
    pair gets its own generator substream; sample counts are rounded up to
    full batches with a minimum of two batches so batch scatter is defined.
    The batches run in (chart, batch) order on the calling thread, and the
    first batch that fails stops the loop; a non-finite mean is named by
    its level (unless that is None), chart and batch.
    """
    if n_samples < 1:
        raise ValueError("need at least one sample")
    seed = _seed_tuple(seed)
    n_batches = max(2, -(-n_samples // BATCH_SIZE))
    per_level = [[[] for _ in charts] for _ in levels]
    for ci, chart in enumerate(charts):
        for b in range(n_batches):
            u, pdf = _draw_batch(_batch_rng(seed, ci, b), BATCH_SIZE, chart.dim)
            for k, m, per_chart in zip(levels, batch_means(chart, u, pdf), per_level, strict=True):
                m = np.asarray(m)
                if not np.all(np.isfinite(np.atleast_1d(m).view(float))):
                    level = "" if k is None else f" at level k = {k}"
                    raise ValueError(
                        f"non-finite integrand{level} in chart {ci}, batch {b} (seed {seed})"
                    )
                per_chart[ci].append(m)
    return seed, n_batches, per_level


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
    of the total over each chart's first quarter of batches.  It is the
    ladder of one.
    """
    (result,) = mc_ladder(
        charts, lambda *draw: [batch_mean(*draw)], (None,), n_samples, seed, statistic
    )
    return result


def mc_ladder(
    charts: Sequence[Chart],
    batch_means: Callable[[Chart, np.ndarray, np.ndarray], Sequence],
    levels: Sequence,
    n_samples: int,
    seed,
    statistic: Callable = lambda total: total,
) -> list[MCResult]:
    """mc_charts at every level of a ladder, from one draw per (chart, batch).

    batch_means(chart, u, pdf) returns each level's batch mean on the one
    draw, in the order of levels, which label the levels in errors.  Each
    level keeps its own estimate, jackknife stderr and quarter ratio, the
    ones it would get alone on the same substreams.
    """
    seed, n, per_level = _batch_means(charts, batch_means, levels, n_samples, seed)
    return [_mc_result(charts, per_chart, n, seed, statistic) for per_chart in per_level]


def _mc_result(charts, per_chart, n: int, seed: tuple[int, ...], statistic) -> MCResult:
    """mc_charts' estimate, stderr and quarter ratio from n batch means per chart."""
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


def monomial_jet(basis: _PowerBasis, u: np.ndarray, blocks) -> list[tuple[np.ndarray, np.ndarray]]:
    """Products K @ U of coefficient blocks on one power table of a (B, d) batch.

    The power table x^alpha, x = u / rho with rho = max(1, max_i |u_i|), is
    built once over the basis rows.  A block (K, sub, rows) reads the rows
    of the sub-basis sub, at the basis indices rows (None when sub is the
    basis), scaled to U = u^alpha / rho^m with m = sub.top, so every entry
    is at most 1 in modulus; K (G, len(sub.exponents)) stacks pullback
    coefficients (_pullback), any frame folded in.  Each block keeps its
    own scale: a chart's jet keeps rho^-deg F, which the sections' rho^-top
    could underflow far out.  Returns (K @ U, log(rho^m)) per block.  The
    blocks run in order, each on a copy of its rows, except that a last
    block over the whole table scales the table in place.
    """
    return list(_block_products(basis, u, blocks))


def _block_products(basis: _PowerBasis, u: np.ndarray, blocks):
    """monomial_jet's products, each formed when it is reached.

    The generator drops each product once the caller takes the next, and
    the table with the last, so a caller done with one product before it
    takes the next holds one at a time.
    """
    rho = np.maximum(1.0, np.max(np.abs(u), axis=1))
    x = (u / rho[:, None]).T.copy()
    U = np.empty((len(basis.exponents), len(u)), dtype=complex)
    U[0] = 1.0
    for j, lower, i in basis.steps:
        np.multiply(U[lower], x[i], out=U[j])
    del x
    log_rho = np.log(rho)
    for b, (K, sub, rows) in enumerate(blocks):
        last = b == len(blocks) - 1
        if rows is not None:
            table = U[rows]
        else:
            table = U if last else U.copy()  # a later block reads U unscaled
        product = (_times(K, _scale_rows(table, sub.starts, sub.top, rho)), sub.top * log_rho)
        del table
        if last:
            del U, rho, log_rho
        yield product
        del product


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
        basis, K = _chart_jet(chart)
        F = monomial_jet(basis, u[S == 0], [(K, basis, None)])[0][0][: chart.ambient_count]
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
    over the same basis as C_0, so each draw builds one table for both: the
    jet on its own rows scaled by rho^-deg F, the sections on all rows
    scaled by rho^-top.  It is the ladder of one.
    """
    (result,) = gram_ladder(charts, [(k, exponents)], n_samples, seed)
    return result


def gram_ladder(
    charts: Sequence[Chart],
    levels: Sequence[tuple[int, np.ndarray]],
    n_samples: int,
    seed,
) -> list[tuple[np.ndarray, MCResult]]:
    """gram_matrix at each (k, exponents) of levels, from one draw per (chart, batch).

    A draw's power table, the chart's jet, its FS weights and log|F(u)|
    are formed once for every level.  The table runs over the union of the
    bases the levels would build alone, and each level multiplies its own
    rows of it at its own scale, so a level's matrix and MCResult are
    bit-identical whichever other levels share its draws.
    """
    levels = [(k, np.asarray(exponents, dtype=int)) for k, exponents in levels]
    for k, exponents in levels:
        for row in exponents:
            if row.sum() != k:
                raise ValueError(f"exponent row {row.tolist()} does not have degree k = {k}")
    tables = {chart: _shared_table(chart, [exponents for _, exponents in levels]) for chart in charts}

    def means(chart, u, pdf):
        basis, order, blocks = tables[chart]
        products = _block_products(basis, u, blocks)
        jet, log_own = next(products)
        # the first level is formed before the weights: alone, it frees the
        # table first and the weights take its place
        pending = [next(products)]
        w, _, S = _embedded_points(chart, jet, u, pdf)
        del jet, _
        log_norm = 0.5 * np.log(S) + log_own
        out = [None] * len(levels)
        for i in order:
            # popped, so no reference outlives the level's product
            V, log_scale = pending.pop() if pending else next(products)
            V *= np.exp(log_scale - levels[i][0] * log_norm)
            out[i] = _weighted_outer_mean(w, V.T)
            del V  # one level's product at a time
        return out

    results = mc_ladder(charts, means, [k for k, _ in levels], n_samples, seed)
    return [(hermitian_part(result.value), result) for result in results]


def _shared_table(chart: Chart, ladder: Sequence[np.ndarray]) -> tuple[_PowerBasis, list, list]:
    """One basis for the chart's jet [F; dF] and the section pullbacks of every level.

    A level alone would take the downward closure of its pullbacks' support
    and the jet's; the union of those bases is the table's.  Returns it,
    the order of the levels by ascending basis size, and monomial_jet's
    blocks: the jet on its own rows, then each level's pullbacks C_0 on the
    rows of its own basis, in that order.  A level over the whole table so
    comes last and scales it in place, where an earlier block would scale
    a copy.
    """
    jet_basis, jet = _chart_jet(chart)
    pulled = [_pullback(chart, exponents, jet=False, also=jet_basis.exponents) for exponents in ladder]
    basis = _PowerBasis([alpha for sub, _ in pulled for alpha in sub.exponents], chart.dim)
    order = _largest_first([sub for sub, _ in pulled])[::-1]

    def rows(sub):
        if len(sub.exponents) == len(basis.exponents):
            return None
        return np.array([basis.index[alpha] for alpha in sub.exponents])

    blocks = [(jet, jet_basis, rows(jet_basis))]
    for i in order:
        sub, C = pulled[i]
        blocks.append((C[0], sub, rows(sub)))
    return basis, order, blocks


def _largest_first(bases: Sequence[_PowerBasis]) -> list[int]:
    """Indices of the bases by descending size: an embedded ladder forms its
    levels in that order, so each level's arrays fit where a larger level's
    were freed, and the heap neither grows nor is trimmed from batch to batch.
    """
    return sorted(range(len(bases)), key=lambda i: -len(bases[i].exponents))


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
    and takes the real product; a complex frame makes K complex.  It is
    the ladder of one.
    """
    (result,) = embedded_ladder(
        charts, [(None, gs_matrix, exponents, reduce)], n_samples, seed, statistic
    )
    return result


def embedded_ladder(
    charts: Sequence[Chart],
    levels: Sequence[tuple],
    n_samples: int,
    seed,
    statistic: Callable = lambda total: total,
) -> list[MCResult]:
    """embedded_mc at each (k, gs_matrix, exponents, reduce) of levels, from one draw per batch.

    The levels share only the draw: each one's weights come from its own
    embedding, so each builds its own table, exactly as it would alone.
    """
    folded = {
        chart: [_folded(chart, gs_matrix, exponents) for _, gs_matrix, exponents, _ in levels]
        for chart in charts
    }

    order = {chart: _largest_first([basis for basis, _ in tables]) for chart, tables in folded.items()}

    def means(chart, u, pdf):
        out = [None] * len(levels)
        for i in order[chart]:
            basis, K = folded[chart][i]
            ((jet, _),) = monomial_jet(basis, u, [(K, basis, None)])
            w, W, S = _embedded_points(chart, jet, u, pdf)
            W /= np.sqrt(S)
            out[i] = levels[i][3](w, W.T)
        return out

    return mc_ladder(charts, means, [level[0] for level in levels], n_samples, seed, statistic)


def _folded(chart: Chart, gs_matrix: np.ndarray, exponents) -> tuple[_PowerBasis, np.ndarray]:
    """The basis of the monomial rows' pullbacks and their jet with the frame folded in."""
    basis, C = _pullback(chart, np.asarray(exponents, dtype=int), jet=True)
    return basis, np.concatenate(gs_matrix @ C)


def moment_matrix(
    charts: Sequence[Chart],
    gs_matrix: np.ndarray,
    exponents: np.ndarray,
    n_samples: int,
    seed,
) -> tuple[np.ndarray, MCResult]:
    """Moment matrix int z_a conj(z_b)/|z|^2 over the embedded cycle image.

    The measure is the FS volume of the embedding by the orthonormal
    sections; the trace estimates the image degree.  It is the ladder of
    one.
    """
    (result,) = moment_ladder(charts, [(None, gs_matrix, exponents)], n_samples, seed)
    return result


def moment_ladder(
    charts: Sequence[Chart],
    levels: Sequence[tuple],
    n_samples: int,
    seed,
) -> list[tuple[np.ndarray, MCResult]]:
    """moment_matrix at each (k, gs_matrix, exponents) of levels, from one draw per batch."""
    ladder = [(k, gs_matrix, exponents, _weighted_outer_mean) for k, gs_matrix, exponents in levels]
    results = embedded_ladder(charts, ladder, n_samples, seed)
    return [(hermitian_part(result.value), result) for result in results]


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
