"""Bergman geodesic rays, envelopes, and energy diagnostics.

A test configuration plus a level k give a frame of degree-k sections,
orthonormalized over the cycle compatibly with the torus weights.  Flowing
the frame by exp(t A_k) produces the ray of potentials

    phi(t;k)(x) = (1/k) [ log sum_a exp(2 t lambda_a) |s_a(x)|^2  -  n log k ]

evaluated here on finite point grids.  The module builds those grids,
assembles the shift-and-sup envelope over a ladder of levels, and computes
the energy diagnostics (Monge-Ampere mass budget, slope, convexity and
sup/osc growth) and the sampled Chow weight, an unflowed integral over the
flat-limit cycle.  build_ray_grid is the one evaluator of phi(t;k).  The
sampled quantities come in ladder forms (section_frames, ma_masses,
chow_weights_numeric) that run every level on the same draws; a single
level is the ladder of one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .asymptotics import AsymptoticReport, chow_weight_algebraic
from .geometry import (
    MCResult,
    embedded_ladder,
    energy_derivative,
    equivariant_gram_schmidt,
    gram_ladder,
    moment_ladder,
    monomial_values,
)
from .polynomials import Chart
from .spectra import TestConfiguration, graded_slice

PARAM_VALUES = (
    Fraction(-2),
    Fraction(-1),
    Fraction(-1, 2),
    Fraction(0),
    Fraction(1, 2),
    Fraction(1),
    Fraction(2),
)
# Each pass draws its substreams at (seed, 0, tag, chart, batch).  The level
# slot is 0 for every level, so the levels of a ladder share their draws and
# a level's estimate does not depend on which other levels ran; the tags keep
# the Gram, Chow and moment passes apart, so no frame meets the draws it was
# fitted to.
GRAM_TAG, CHOW_TAG, MOMENT_TAG = 1, 2, 5


# -- section frames ------------------------------------------------------------


@dataclass(frozen=True)
class SectionFrame:
    """Orthonormal degree-k section frame over the cycle, weight ordered.

    exponents lists the standard monomials of the configuration at level k
    in ascending weight order; matrix maps monomial coefficients to the
    orthonormal frame; lambdas is the traceless weight spectrum acting
    diagonally on that frame.
    """

    k: int
    exponents: np.ndarray
    lambdas: np.ndarray
    matrix: np.ndarray
    gram: np.ndarray
    gram_mc: MCResult


def section_frame(
    config: TestConfiguration,
    fiber: Sequence[Chart],
    k: int,
    n_samples: int,
    seed: int,
) -> SectionFrame:
    """Monte Carlo Gram matrix plus equivariant orthonormalization at level k."""
    (frame,) = section_frames(config, fiber, (k,), n_samples, seed)
    return frame


def section_frames(
    config: TestConfiguration,
    fiber: Sequence[Chart],
    ks: Sequence[int],
    n_samples: int,
    seed: int,
) -> list[SectionFrame]:
    """section_frame at each level of ks, from one Gram pass over shared draws."""
    slices = [graded_slice(config, k) for k in ks]
    exponents = [np.array(sl.monomials, dtype=int) for sl in slices]
    grams = gram_ladder(fiber, list(zip(ks, exponents)), n_samples, (seed, 0, GRAM_TAG))
    return [
        SectionFrame(
            k=k,
            exponents=exps,
            lambdas=np.array([float(a) for a in sl.a_spectrum]),
            matrix=equivariant_gram_schmidt(sl.b_spectrum, gram),
            gram=gram,
            gram_mc=mc,
        )
        for k, sl, exps, (gram, mc) in zip(ks, slices, exponents, grams)
    ]


# -- point grids ---------------------------------------------------------------


@dataclass(frozen=True)
class PointGrid:
    """Deduplicated evaluation points on X with a neighbor structure.

    zhat rows are unit representatives; neighbors[i] always contains i and
    the points adjacent in the originating chart lattice (coordinate points
    are isolated), which drives the grid surrogate of the upper
    semicontinuous regularization.
    """

    labels: tuple[str, ...]
    zhat: np.ndarray
    neighbors: tuple[tuple[int, ...], ...]

    def __len__(self) -> int:
        return len(self.labels)


def _point_key(z: np.ndarray) -> tuple:
    zh = z / np.linalg.norm(z)
    for comp in zh:
        if abs(comp) > 1e-9:
            zh = zh * (comp.conjugate() / abs(comp))
            break
    return tuple((round(c.real, 12), round(c.imag, 12)) for c in zh)


def grid_points(config: TestConfiguration, fiber: Sequence[Chart]) -> PointGrid:
    """Chart lattice points plus the coordinate points lying on X.

    The lattice takes every chart parameter through PARAM_VALUES; the
    torus-fixed coordinate points [0:...:1:...:0] are appended when every
    generator vanishes there, since extremal ray slopes occur at fixed
    points that charts may miss.
    """
    labels: list[str] = []
    reps: list[np.ndarray] = []
    adjacency: list[set[int]] = []
    index_of: dict[tuple, int] = {}

    def add(label: str, z: np.ndarray) -> int | None:
        nrm = np.linalg.norm(z)
        if nrm == 0:
            return None
        key = _point_key(z)
        if key in index_of:
            return index_of[key]
        index_of[key] = len(labels)
        labels.append(label)
        reps.append(z / nrm)
        adjacency.append(set())
        return index_of[key]

    for ci, chart in enumerate(fiber):
        d = chart.dim
        shape = (len(PARAM_VALUES),) * d
        slots = np.full(shape, -1, dtype=int)
        for multi in np.ndindex(shape):
            point = tuple(PARAM_VALUES[j] for j in multi)
            z = np.array(
                [complex(c.evaluate_exact(point)) for c in chart.components]
            )
            assign = ";".join(
                f"{p}={v}" for p, v in zip(chart.params, point)
            )
            idx = add(f"{ci}:{assign}", z)
            slots[multi] = -1 if idx is None else idx
        for multi in np.ndindex(shape):
            here = int(slots[multi])
            if here < 0:
                continue
            for axis in range(d):
                for step in (-1, 1):
                    probe = list(multi)
                    probe[axis] += step
                    if 0 <= probe[axis] < len(PARAM_VALUES):
                        other = int(slots[tuple(probe)])
                        if other >= 0 and other != here:
                            adjacency[here].add(other)
                            adjacency[other].add(here)

    nv = len(config.variables)
    for j, name in enumerate(config.variables):
        unit = tuple(Fraction(1 if i == j else 0) for i in range(nv))
        if all(g.evaluate_exact(unit) == 0 for g in config.generators):
            z = np.zeros(nv, dtype=complex)
            z[j] = 1.0
            add(f"e:{name}", z)

    neighbors = tuple(
        tuple(sorted(adjacency[i] | {i})) for i in range(len(labels))
    )
    return PointGrid(labels=tuple(labels), zhat=np.array(reps), neighbors=neighbors)


# -- ray potentials ------------------------------------------------------------


def ray_log_terms(frame: SectionFrame, zhat: np.ndarray) -> np.ndarray:
    """2 log |s_a(x)| per point and frame section, -inf where a section vanishes."""
    W = monomial_values(frame.exponents, np.asarray(zhat, dtype=complex)) @ frame.matrix.T
    sq = np.abs(W) ** 2
    if np.any(np.all(sq == 0, axis=1)):
        raise ValueError("indeterminate point: every section vanishes there")
    with np.errstate(divide="ignore"):
        return np.log(sq)


def _phi_from_terms(
    log_terms: np.ndarray, lambdas: np.ndarray, k: int, n: int, t: float
) -> np.ndarray:
    shifted = log_terms + 2.0 * t * lambdas[None, :]
    lse = np.logaddexp.reduce(shifted, axis=1)
    return (lse - n * math.log(k)) / k


# -- the ray grid and envelope -------------------------------------------------


@dataclass(frozen=True)
class RayGrid:
    """Ray potentials on a (level, time, point) grid with the envelope.

    phi is the raw potential, shifted adds c_k - eps_k t, envelope is the
    running grid max over levels followed by a neighbor local max (the grid
    surrogate of upper-semicontinuous regularization).  attaining holds the
    level index winning at each (t, x) before that local max.  least_step
    is the smallest drop of phi(0;k) + c_k from one level to the next (inf
    on a single level), and strict_decrease says it is positive.
    """

    n: int
    degree: float
    k_set: tuple[int, ...]
    t_grid: tuple[float, ...]
    labels: tuple[str, ...]
    phi: np.ndarray
    phi_zero: np.ndarray
    c_k: tuple[float, ...]
    eps_k: tuple[float, ...]
    shifted: np.ndarray
    envelope: np.ndarray
    attaining: np.ndarray
    lambda_min_per_k: tuple[float, ...]
    lambda_abs_per_k: tuple[float, ...]
    least_step: float
    strict_decrease: bool
    boundary_continuity: float


def _inverse_square_tail(k: int) -> float:
    """sum_{j>=k} j^(-2): sixteen terms, then the Euler-Maclaurin series of the rest."""
    n = k + 16  # the series' first omitted term, 5/(66 n^11), is below 4e-14 of the sum
    series = ((1, 1), (1 / 2, 2), (1 / 6, 3), (-1 / 30, 5), (1 / 42, 7), (-1 / 30, 9))
    return math.fsum([*(j**-2 for j in range(k, n)), *(c / n**p for c, p in series)])


def build_ray_grid(
    frames: Sequence[SectionFrame],
    t_grid: Sequence[float],
    points: PointGrid,
    n: int,
    degree: float,
) -> RayGrid:
    """Ray potentials, shifts, and the running-sup envelope on a grid.

    Shifts use eps_k = k^(-1/2) and c_k = 2 C sum_{j>=k} j^(-2) with C
    calibrated from the measured boundary gaps e_j = max_x |phi(0;j) -
    phi(0;k_max)|; this makes phi(0;k) + c_k strictly decreasing in k
    whenever the gaps behave.  A failure of that monotonicity is recorded
    in least_step and strict_decrease, not raised.
    """
    frames = sorted(frames, key=lambda f: f.k)
    k_set = tuple(f.k for f in frames)
    if not k_set:
        raise ValueError("need at least one level")
    if any(k_set[i] >= k_set[i + 1] for i in range(len(k_set) - 1)):
        raise ValueError("levels must be distinct")
    t_values = tuple(float(t) for t in t_grid)
    if any(t >= 0 for t in t_values):
        raise ValueError("t grid must be strictly negative (boundary is t=0)")

    terms = [ray_log_terms(f, points.zhat) for f in frames]
    phi = np.array(
        [
            [_phi_from_terms(terms[i], f.lambdas, f.k, n, t) for t in t_values]
            for i, f in enumerate(frames)
        ]
    )
    phi_zero = np.array(
        [_phi_from_terms(terms[i], f.lambdas, f.k, n, 0.0) for i, f in enumerate(frames)]
    )

    gaps = [float(np.max(np.abs(phi_zero[i] - phi_zero[-1]))) for i in range(len(frames))]
    big_c = max(k * k * e for k, e in zip(k_set, gaps))
    c_k = tuple(2.0 * big_c * _inverse_square_tail(k) for k in k_set)
    eps_k = tuple(1.0 / math.sqrt(k) for k in k_set)

    t_arr = np.array(t_values)
    shifted = np.array(
        [
            phi[i] + c_k[i] - eps_k[i] * t_arr[:, None]
            for i in range(len(frames))
        ]
    )
    raw_env = np.max(shifted, axis=0)
    attaining = np.array(k_set, dtype=int)[np.argmax(shifted, axis=0)]
    env = raw_env.copy()
    for p, nbrs in enumerate(points.neighbors):
        env[:, p] = np.max(raw_env[:, list(nbrs)], axis=1)

    shifted_zero = phi_zero + np.array(c_k)[:, None]
    least_step = float(np.min(shifted_zero[:-1] - shifted_zero[1:], initial=math.inf))
    t_near = int(np.argmax(t_arr))
    boundary = float(np.max(np.abs(env[t_near] - phi_zero[-1])))

    return RayGrid(
        n=n,
        degree=float(degree),
        k_set=k_set,
        t_grid=t_values,
        labels=points.labels,
        phi=phi,
        phi_zero=phi_zero,
        c_k=c_k,
        eps_k=eps_k,
        shifted=shifted,
        envelope=env,
        attaining=attaining,
        lambda_min_per_k=tuple(float(np.min(f.lambdas)) for f in frames),
        lambda_abs_per_k=tuple(float(np.max(np.abs(f.lambdas))) for f in frames),
        least_step=least_step,
        strict_decrease=least_step > 0.0,
        boundary_continuity=boundary,
    )


# -- diagnostics on the grid ---------------------------------------------------


def sup_osc_report(grid: RayGrid) -> list[dict]:
    """Per (k, t) sup/inf/osc with the two-sided sup band.

    band_low is the asymptotic approach value 2|t||lambda^(k)|/k minus the
    density correction (n log k + log degree)/k; band_high adds the grid
    maximum of phi(0;k), which bounds the Bergman term from above.
    """
    out = []
    sup = np.max(grid.phi, axis=2)
    inf = np.min(grid.phi, axis=2)
    for i, k in enumerate(grid.k_set):
        lam = abs(grid.lambda_min_per_k[i])
        phi0_max = float(np.max(grid.phi_zero[i]))
        for j, t in enumerate(grid.t_grid):
            two_t = 2.0 * abs(t)
            out.append(
                {
                    "k": k,
                    "t": t,
                    "sup": float(sup[i, j]),
                    "inf": float(inf[i, j]),
                    "osc": float(sup[i, j] - inf[i, j]),
                    "sup_over_2t": float(sup[i, j] / two_t),
                    "band_low": lam / k
                    - (grid.n * math.log(k) + math.log(max(grid.degree, 1.0)))
                    / (two_t * k),
                    "band_high": lam / k + max(0.0, phi0_max) / two_t,
                }
            )
    return out


def slope_report(grid: RayGrid) -> float:
    """Largest excess of the finite-difference |dphi/dt| over its bound.

    The bound at level k is 2 max|lambda|/k + eps_k; the ray respects it
    when the returned excess is at most 0.
    """
    order = np.argsort(grid.t_grid)
    t = np.array(grid.t_grid)[order]
    excess = []
    for i, k in enumerate(grid.k_set):
        bound = 2.0 * grid.lambda_abs_per_k[i] / k + 1.0 / math.sqrt(k)
        slopes = np.abs(np.diff(grid.phi[i][order], axis=0) / np.diff(t)[:, None])
        excess.append(np.max(slopes) - bound)
    return float(np.max(excess))


def convexity_report(grid: RayGrid) -> float:
    """Least second divided difference of t -> phi(t;k) over levels and points.

    A convex ray has none below 0; inf when the grid has under three times.
    """
    order = np.argsort(grid.t_grid)
    t = np.array(grid.t_grid)[order]
    min_gap = math.inf
    for i in range(len(grid.k_set)):
        ph = grid.phi[i][order]
        slopes = np.diff(ph, axis=0) / np.diff(t)[:, None]
        if slopes.shape[0] >= 2:
            min_gap = min(min_gap, float(np.min(np.diff(slopes, axis=0))))
    return min_gap


# -- energy diagnostics --------------------------------------------------------


@dataclass(frozen=True)
class EnergyReport:
    """Monge-Ampere mass budget of the level-k ray from boundary slopes.

    mass = (edot_zero - edot_minus_inf) / ((n+1) k^(n+1)) with edot_zero the
    sampled energy slope at t=0 and edot_minus_inf = -mu(Z_k, A_k) exact;
    convexity of the energy makes the true mass nonnegative, so estimates
    below -5 stderr indicate a bug, not geometry.

    edot_zero is energy_derivative, (n+1) Tr((B + B*) M).  In that
    normalization the slope over the flat limit X_0 is 2 mu/n! (see
    chow_weight_numeric), so -mu is not minus the X_0 slope.  On
    conic_double_line at k = 1 it is the slope of the ray's own limit:
    exp(t A_1) takes the fiber to {xz = 0} as t -> -infinity, where the
    slope is -2/3 = -mu, while X_0 = 2{y = 0} has slope 4/3 = 2 mu.
    """

    k: int
    edot_zero: float
    edot_minus_inf: Fraction
    mass: float
    mass_times_k: float
    mass_stderr: float
    moment_mc: MCResult


def ma_mass(
    config: TestConfiguration,
    fiber: Sequence[Chart],
    frame: SectionFrame,
    report: AsymptoticReport,
    n_samples: int,
    seed: int,
) -> EnergyReport:
    """Mass budget at level k: sampled boundary slope plus exact Chow weight."""
    (energy,) = ma_masses(config, fiber, [frame], report, n_samples, seed)
    return energy


def ma_masses(
    config: TestConfiguration,
    fiber: Sequence[Chart],
    frames: Sequence[SectionFrame],
    report: AsymptoticReport,
    n_samples: int,
    seed: int,
) -> list[EnergyReport]:
    """ma_mass at each frame's level, from one moment pass over shared draws."""
    n = report.n
    moments = moment_ladder(
        fiber, [(f.k, f.matrix, f.exponents) for f in frames], n_samples, (seed, 0, MOMENT_TAG)
    )
    energies = []
    for frame, (M, mc) in zip(frames, moments):
        k = frame.k
        edot_zero = energy_derivative(M, np.diag(frame.lambdas), n)
        mu = chow_weight_algebraic(config, k, report).mu
        scale = (n + 1) * k ** (n + 1)
        mass = (edot_zero + float(mu)) / scale
        diag_err = np.real(np.diag(np.asarray(mc.stderr)))
        edot_err = 2.0 * (n + 1) * math.sqrt(float(np.sum(frame.lambdas**2 * diag_err**2)))
        energies.append(
            EnergyReport(
                k=k,
                edot_zero=edot_zero,
                edot_minus_inf=-mu,
                mass=mass,
                mass_times_k=mass * k,
                mass_stderr=edot_err / scale,
                moment_mc=mc,
            )
        )
    return energies


def chow_weight_numeric(
    config: TestConfiguration,
    cycle: Sequence[Chart],
    k: int,
    n: int,
    n_samples: int,
    seed: int,
) -> MCResult:
    """mu(Z_k, A_k) as an FS integral over the flat-limit cycle, no flow.

    Z_k is the cycle X_0 (cycle charts with their multiplicities) embedded
    by the level-k standard monomials, and A_k = diag(lambda) carries the
    traceless weights of graded_slice(config, k).  A_k fixes Z_k, so its
    Chow weight is a moment integral.  With h = sum lambda_a |z_a|^2/|z|^2
    and omega the FS form (mass 1 on a line), the traceless total weight of
    H^0(Z_k, O(p)) grows as p^(n+1)/n! int h omega^n (Duistermaat-Heckman).
    chow_weight_algebraic reads mu as (n+1)! times that p^(n+1)
    coefficient, so mu = (n+1) int_{Z_k} h omega^n.  The sampled measure is
    omega^n/n!, hence the (n+1)! per sample.

    In energy_derivative's normalization, with M the moment matrix of Z_k
    and B = diag(lambda), (n+1) Tr((B + B*) M) = 2 (n+1) sum_a lambda_a
    M_aa = 2 mu/n!: the 2 is the B + B* of a real generator, and on a curve
    the slope is 2 mu.
    """
    (result,) = chow_weights_numeric(config, cycle, (k,), n, n_samples, seed)
    return result


def chow_weights_numeric(
    config: TestConfiguration,
    cycle: Sequence[Chart],
    ks: Sequence[int],
    n: int,
    n_samples: int,
    seed: int,
) -> list[MCResult]:
    """chow_weight_numeric at each level of ks, from one pass over shared draws."""
    ladder = []
    for k in ks:
        sl = graded_slice(config, k)
        lambdas = np.array([float(a) for a in sl.a_spectrum])

        def reduce(w, V, lambdas=lambdas):
            return math.factorial(n + 1) * np.mean(w * ((np.abs(V) ** 2) @ lambdas))

        ladder.append((k, np.eye(len(lambdas)), sl.monomials, reduce))
    return embedded_ladder(cycle, ladder, n_samples, (seed, 0, CHOW_TAG))
