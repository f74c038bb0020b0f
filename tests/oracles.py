"""Independent cross-checks backing the test suite.

Most routines here reach their answer by a different route than the
package: quotient dimensions come from exact row reduction over the
rationals applied to the generators themselves (no Groebner step),
standard-monomial spectra come from divisibility filtering against
hand-derived initial ideals, whole slices and the spectral-gap slope come
from scanning every ambient monomial of the degree, series coefficients come
from exact rational-function division, interpolation uses Lagrange or
Newton's divided differences in rationals instead of integer forward
differences, chart integrals use radial quadrature instead of Monte Carlo,
and Chow weights come from fitting the enumerated two-level weight ladder
instead of the closed form.  Charts are evaluated directly, term by term
in floating point (evaluate_batch, chart_values, chart_jacobian), an
independent reference for the package, which evaluates every chart
through the exact pullbacks of its sections.

The helpers in the last three sections are the exception: they run on the
package's own code, and live here because only the tests use them.  They
are the Fubini-Study mass and integral helpers (_base_weight,
fs_volume_density, fs_mass, mc_integrate) on the direct chart evaluator,
the package's density fs_density_values and its Monte Carlo engine, the
reference stderrs of per-chart batch means (batch_scatter, which sums in
the engine's order, joint_jackknife and stratified_jackknife), the
Buchberger criterion is_groebner_basis on normal_form and s_polynomial,
bergman_density on monomial_values, and futaki_f with level_comparison,
which read the exact slices and an existing ray grid.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from kstab.geometry import MCResult, _tree_sum, fs_density_values, mc_charts, monomial_values
from kstab.groebner import normal_form, s_polynomial
from kstab.polynomials import Chart, Polynomial
from kstab.spectra import graded_slice

TermDict = dict[tuple[int, ...], Fraction]

# the last level fit_eventually_polynomial reads unless told otherwise
FIT_CAP = 64


def monomials(nvars: int, degree: int) -> list[tuple[int, ...]]:
    """All exponent tuples of the given total degree, by direct recursion."""
    if nvars == 1:
        return [(degree,)]
    out = []
    for first in range(degree + 1):
        out.extend((first, *rest) for rest in monomials(nvars - 1, degree - first))
    return out


def _rank(rows: list[list[Fraction]]) -> int:
    """Rank over Q by fraction-exact Gaussian elimination."""
    rows = [list(r) for r in rows]
    rank = 0
    ncols = len(rows[0]) if rows else 0
    for col in range(ncols):
        pivot = next((i for i in range(rank, len(rows)) if rows[i][col] != 0), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        top = rows[rank]
        for i in range(rank + 1, len(rows)):
            if rows[i][col] != 0:
                factor = rows[i][col] / top[col]
                rows[i] = [a - factor * b for a, b in zip(rows[i], top)]
        rank += 1
        if rank == len(rows):
            break
    return rank


def quotient_dimension(term_dicts: list[TermDict], nvars: int, k: int) -> int:
    """dim over Q of (S/I)_k from the generators alone.

    Spans the degree-k slice of I by all shifts m * g and row reduces; the
    quotient dimension is the monomial count minus that rank.  No initial
    ideal, no Groebner basis.
    """
    cols = {m: j for j, m in enumerate(monomials(nvars, k))}
    rows = []
    for terms in term_dicts:
        degree = max(sum(e) for e in terms)
        if degree > k:
            continue
        for shift in monomials(nvars, k - degree):
            row = [Fraction(0)] * len(cols)
            for expo, coeff in terms.items():
                row[cols[tuple(a + b for a, b in zip(shift, expo))]] = coeff
            rows.append(row)
    return len(cols) - _rank(rows)


def standard_pairs(
    leads: list[tuple[int, ...]], nvars: int, weights: tuple[int, ...], k: int
) -> list[tuple[int, tuple[int, ...]]]:
    """Sorted (eta-weight, exponents) of degree-k monomials outside the monomial ideal.

    Divisibility by ``leads`` is checked directly on every degree-k monomial,
    so neither the production leading-term machinery nor its degree-by-degree
    build is involved.
    """
    return sorted(
        (sum(w * e for w, e in zip(weights, m)), m)
        for m in monomials(nvars, k)
        if not any(all(li <= mi for li, mi in zip(lead, m)) for lead in leads)
    )


def standard_weights(
    leads: list[tuple[int, ...]], nvars: int, weights: tuple[int, ...], k: int
) -> list[int]:
    """Sorted eta-weights of degree-k monomials outside the monomial ideal.

    ``leads`` is supplied by hand per fixture.
    """
    return [b for b, _ in standard_pairs(leads, nvars, weights, k)]


def scanned_slice(config, k: int) -> dict:
    """Degree-k slice fields by scanning every degree-k monomial.

    Each monomial of the ambient ring is tested against the initial leads,
    and each weight is shifted by the mean as its own Fraction, a different
    route from the package's degree-by-degree integer build.
    """
    pairs = standard_pairs(config.initial_leads, len(config.variables), config.weights, k)
    b = tuple(w for w, _ in pairs)
    dim, total = len(b), sum(b)
    mean = Fraction(total, dim)
    a = tuple(x - mean for x in b)
    return {
        "monomials": tuple(m for _, m in pairs),
        "b_spectrum": b,
        "dim": dim,
        "total_weight": total,
        "tr_b_sq": sum(x * x for x in b),
        "a_spectrum": a,
        "tr_a_sq": sum((Fraction(x) ** 2 for x in b), Fraction(0)) - Fraction(total**2, dim),
        "lambda_min": a[0],
        "lambda_next": next((x for x in a if x != a[0]), None),
    }


def series_top_two(
    w_coeffs: list[Fraction], d_coeffs: list[Fraction]
) -> tuple[Fraction, Fraction]:
    """First two expansion coefficients of w(k) / (k * d(k)) at k = infinity.

    Coefficients ascending in k.  Writing w(k) = (F_0 + F_1/k + ...) * k*d(k)
    and matching the top two powers of k gives the pair exactly.
    """
    den = [Fraction(0)] + [Fraction(c) for c in d_coeffs]
    num = [Fraction(c) for c in w_coeffs]
    top = len(den) - 1
    if len(num) - 1 > top:
        raise ValueError("weight grows faster than k * dimension")
    num = num + [Fraction(0)] * (top + 1 - len(num))
    f0 = num[top] / den[top]
    f1 = (num[top - 1] - f0 * den[top - 1]) / den[top]
    return f0, f1


def newton_rational(xs: Sequence[Fraction], ys: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Interpolant coefficients (ascending) by divided differences in rationals.

    Works at any distinct nodes; trailing zero coefficients are dropped,
    keeping at least one.
    """
    m = len(xs)
    divided = list(ys)
    for level in range(1, m):
        for i in range(m - 1, level - 1, -1):
            divided[i] = (divided[i] - divided[i - 1]) / (xs[i] - xs[i - level])
    # expand the Newton form sum_j divided[j] * prod_{i<j}(x - xs[i])
    coeffs = [Fraction(0)] * m
    basis = [Fraction(1)] + [Fraction(0)] * (m - 1)
    for j in range(m):
        for i in range(j + 1):
            coeffs[i] += divided[j] * basis[i]
        if j + 1 < m:
            new_basis = [Fraction(0)] * m
            for i in range(j + 1):
                new_basis[i + 1] += basis[i]
                new_basis[i] -= xs[j] * basis[i]
            basis = new_basis
    while len(coeffs) > 1 and coeffs[-1] == 0:
        coeffs.pop()
    return tuple(coeffs)


def lagrange_power_coeffs(xs: list[Fraction], ys: list[Fraction]) -> list[Fraction]:
    """Power-basis coefficients of the Lagrange interpolant, exact."""
    size = len(xs)
    coeffs = [Fraction(0)] * size
    for i in range(size):
        numer = [Fraction(1)]
        denom = Fraction(1)
        for j in range(size):
            if j == i:
                continue
            # numer <- numer * (x - xs[j])
            shifted = [Fraction(0)] + numer
            numer = [s - xs[j] * c for s, c in zip(shifted, numer + [Fraction(0)])]
            denom *= xs[i] - xs[j]
        scale = ys[i] / denom
        for t, c in enumerate(numer):
            coeffs[t] += scale * c
    return coeffs


def eval_power(coeffs: Sequence[Fraction], x) -> Fraction:
    total = Fraction(0)
    for c in reversed(coeffs):
        total = total * x + c
    return total


@dataclass(frozen=True)
class PolynomialFit:
    coeffs: tuple[Fraction, ...]
    window: tuple[int, int]

    def coefficient(self, power: int) -> Fraction:
        return self.coeffs[power] if power < len(self.coeffs) else Fraction(0)


def fit_eventually_polynomial(
    values: Callable[[int], Fraction],
    max_degree: int,
    k_start: int = 1,
    validation: int = 3,
    cap: int = FIT_CAP,
) -> PolynomialFit:
    """Smallest-start exact polynomial fit of an eventually polynomial map.

    Searches start points k0 >= k_start and degrees 0..max_degree; a
    candidate interpolation is accepted only if it also reproduces the next
    `validation` values exactly.  Raises on failure below the cap: the usual
    cause is an unsaturated ideal whose Hilbert data never stabilizes.
    """
    for k0 in range(k_start, cap + 1):
        for deg in range(max_degree + 1):
            hi = k0 + deg + validation
            if hi > cap:
                break
            nodes = list(range(k0, k0 + deg + 1))
            coeffs = newton_rational(
                [Fraction(x) for x in nodes], [Fraction(values(x)) for x in nodes]
            )
            if all(
                eval_power(coeffs, k) == values(k)
                for k in range(k0 + deg + 1, hi + 1)
            ):
                return PolynomialFit(coeffs, (k0, hi))
    raise ValueError(
        f"no stable polynomial window of degree <= {max_degree} found below "
        f"k = {cap}: unstable Hilbert data (is the ideal saturated?)"
    )


def next_weight_slope(config, report, margin: int = 30):
    """Limit of lambda_next/k read off the scanned spectra at high levels.

    Scans every monomial of degrees K, K+1 and K+2, with K the largest
    initial-lead degree plus `margin`, and takes the second-lowest distinct
    weight b_next at each.  Its two consecutive differences must agree (the
    sequence is linear there); Gamma is that slope minus F_0, or None when
    all three levels carry a single weight.
    """
    nvars = len(config.variables)
    top = max((sum(e) for e in config.initial_leads), default=0) + margin
    nexts = []
    for k in (top, top + 1, top + 2):
        weights = sorted({
            sum(w * e for w, e in zip(config.weights, m))
            for m in monomials(nvars, k)
            if not any(all(li <= mi for li, mi in zip(lead, m)) for lead in config.initial_leads)
        })
        nexts.append(weights[1] if len(weights) > 1 else None)
    if nexts == [None] * 3:
        return None
    if None in nexts or nexts[2] - nexts[1] != nexts[1] - nexts[0]:
        raise ValueError(f"b_next is not linear at levels {top}..{top + 2}: {nexts}")
    return nexts[1] - nexts[0] - report.F_0


# -- radial quadrature over one-dimensional charts -----------------------------
#
# For a chart u -> [F_0(u) : ... : F_m(u)] whose squared norm depends only on
# s = |u|^2, say |F|^2 = S(s), the Fubini-Study area density integrates as
#   integral h dmu = integral_0^inf h(s) * g'(s) ds,   g(s) = s S'(s)/S(s),
# after the angular integral.  Substituting s = t/(1-t) turns this into a
# proper integral on (0, 1).


def radial_integral(s_coeffs, h=None) -> float:
    """Quadrature of h(s) against the chart's Fubini-Study measure."""
    c = [float(x) for x in s_coeffs]

    def s_val(s):
        return sum(cj * s**j for j, cj in enumerate(c))

    def s_d1(s):
        return sum(j * cj * s ** (j - 1) for j, cj in enumerate(c) if j >= 1)

    def s_d2(s):
        return sum(j * (j - 1) * cj * s ** (j - 2) for j, cj in enumerate(c) if j >= 2)

    def g_prime(s):
        val, d1, d2 = s_val(s), s_d1(s), s_d2(s)
        return (d1 + s * d2) / val - s * (d1 / val) ** 2

    def integrand(t):
        s = t / (1.0 - t)
        weight = g_prime(s) / (1.0 - t) ** 2
        return weight if h is None else h(s) * weight

    value, _ = quad(integrand, 0.0, 1.0, limit=400)
    return value


def cycle_variance(charts) -> float:
    """Variance of a Hamiltonian over a weighted union of radial charts.

    ``charts`` is a list of (s_coeffs, h, multiplicity) triples; returns
    integral h^2 - (integral h)^2 / mass over the union, matching the
    spectral normal-square by the central-fiber variance identity.
    """
    mass = moment1 = moment2 = 0.0
    for s_coeffs, h, mult in charts:
        mass += mult * radial_integral(s_coeffs)
        moment1 += mult * radial_integral(s_coeffs, h)
        moment2 += mult * radial_integral(s_coeffs, lambda s: h(s) ** 2)
    return moment2 - moment1**2 / mass


def chow_ladder(config, r: int, report) -> tuple[Fraction, Fraction]:
    """(mu, Futaki residual) from the enumerated ladder.

    Fits p -> w(rp)*r*d_r - w(r)*(rp)*d_rp from the exact slices at levels
    rp, starting at the first p with rp >= k0, the fit's proven start, and
    does not trust that start: it searches for its own window and checks
    n+3 further values past the interpolation nodes.  mu is (n+1)! times
    the p^(n+1) coefficient over r*d_r.
    """
    n = report.n
    k0 = report.stability_window[0]
    base = graded_slice(config, r)
    values: dict[int, Fraction] = {}

    def ladder(p: int) -> Fraction:
        if p not in values:
            sl = graded_slice(config, r * p)
            values[p] = Fraction(
                sl.total_weight * r * base.dim - base.total_weight * (r * p) * sl.dim
            )
        return values[p]

    p0 = max(1, -(-k0 // r))
    fit = fit_eventually_polynomial(
        ladder, n + 1, k_start=p0, validation=n + 3, cap=p0 + 3 * n + 12
    )
    mu = Fraction(factorial(n + 1)) * fit.coefficient(n + 1) / (r * base.dim)
    c = 1 / (report.a_n * factorial(n + 1))
    return mu, -c * mu / Fraction(r) ** n - report.F_1


# -- direct chart evaluation --------------------------------------------------


def evaluate_batch(poly: Polynomial, points: np.ndarray) -> np.ndarray:
    """Evaluate at a (B, nvars) complex array term by term; returns shape (B,)."""
    points = np.asarray(points)
    out = np.zeros(points.shape[0], dtype=complex)
    for expo, coeff in poly.terms.items():
        term = np.full(points.shape[0], complex(coeff))
        for j, e in enumerate(expo):
            if e:
                term = term * points[:, j] ** e
        out += term
    return out


def chart_values(chart: Chart, u: np.ndarray) -> np.ndarray:
    """Component values at a (B, d) batch; returns (B, m+1)."""
    return np.stack([evaluate_batch(c, u) for c in chart.components], axis=1)


def chart_jacobian(chart: Chart, u: np.ndarray) -> np.ndarray:
    """Holomorphic derivatives at a (B, d) batch; returns (B, d, m+1)."""
    rows = [
        np.stack([evaluate_batch(c.differentiate(i), u) for c in chart.components], axis=1)
        for i in range(chart.dim)
    ]
    return np.stack(rows, axis=1)


# -- Fubini-Study masses and integrals on the package's Monte Carlo engine -----


def fs_volume_density(chart: Chart, u: np.ndarray) -> np.ndarray:
    """FS volume density of the chart at a (B, d) batch of parameters."""
    u = np.asarray(u, dtype=complex)
    if u.ndim == 1:
        u = u[:, None]
    z, dz = chart_values(chart, u), chart_jacobian(chart, u)
    return fs_density_values(z.T, np.moveaxis(dz, 0, -1), np.sum(np.abs(z) ** 2, axis=1))


def _base_weight(chart: Chart, u: np.ndarray, pdf: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Importance weight of the chart's own FS measure, plus ambient points (B, m+1)."""
    return fs_volume_density(chart, u) / pdf, chart_values(chart, u)


def fs_mass(charts: Sequence[Chart], n_samples: int, seed) -> MCResult:
    """Total FS mass of the cycle (equals its degree for curves)."""

    def mean(chart, u, pdf):
        w, _ = _base_weight(chart, u, pdf)
        return np.mean(w)

    return mc_charts(charts, mean, n_samples, seed)


def mc_integrate(
    charts: Sequence[Chart],
    integrand: Callable[[np.ndarray], np.ndarray],
    n_samples: int,
    seed,
) -> MCResult:
    """FS integral of a function of the normalized ambient coordinates."""

    def mean(chart, u, pdf):
        w, z = _base_weight(chart, u, pdf)
        zhat = z / np.linalg.norm(z, axis=1, keepdims=True)
        return np.mean(w * np.asarray(integrand(zhat)))

    return mc_charts(charts, mean, n_samples, seed)


# -- reference stderrs from per-chart batch means ------------------------------


def batch_scatter(charts: Sequence[Chart], per_chart) -> tuple[object, object]:
    """The multiplicity-weighted total of per-chart means and its batch-scatter stderr.

    per_chart[c] lists chart c's batch means; the chart variances
    sum |x - mean|^2 / ((n - 1) n) add.  Sums run in the engine's pairwise
    order (_tree_sum), so the total is the engine's bit for bit.
    """
    totals, variances = [], []
    for chart, xs in zip(charts, per_chart):
        n = len(xs)
        mean = _tree_sum(xs) / n
        totals.append(chart.multiplicity * mean)
        variances.append(
            chart.multiplicity**2 * _tree_sum([np.abs(x - mean) ** 2 for x in xs]) / ((n - 1) * n)
        )
    return _tree_sum(totals), np.sqrt(_tree_sum(variances))


def joint_jackknife(charts: Sequence[Chart], per_chart, statistic: Callable) -> float:
    """Jackknife stderr of a statistic that leaves out batch b of every chart at once."""
    x = np.array([[chart.multiplicity * m for m in xs] for chart, xs in zip(charts, per_chart)])
    n = x.shape[1]
    keep = ~np.eye(n, dtype=bool)
    jack = np.array([statistic(x[:, keep[b]].mean(axis=1).sum(axis=0)) for b in range(n)])
    return float(np.sqrt((n - 1) / n * np.sum((jack - jack.mean()) ** 2)))


def stratified_jackknife(charts: Sequence[Chart], per_chart, statistic: Callable) -> tuple:
    """(value, stderr, quarter) of a statistic of the total of per-chart means.

    Leaves out one batch of one chart at a time, recomputing that chart's
    mean from the kept batches, and adds the per-chart jackknife variances;
    the quarter value uses each chart's first quarter of batches.
    """
    x = [np.array([chart.multiplicity * m for m in xs]) for chart, xs in zip(charts, per_chart)]
    n = len(x[0])
    total = sum(xc.mean(axis=0) for xc in x)
    variance = 0.0
    for xc in x:
        others = total - xc.mean(axis=0)
        jack = np.array([statistic(others + np.delete(xc, b, axis=0).mean(axis=0)) for b in range(n)])
        variance += (n - 1) / n * np.sum(np.abs(jack - jack.mean(axis=0)) ** 2, axis=0)
    quarter = sum(xc[: max(1, n // 4)].mean(axis=0) for xc in x)
    return statistic(total), np.sqrt(variance), statistic(quarter)


# -- Groebner, Bergman and ray-grid helpers on the package's own code ----------


def bergman_density(
    gs_matrix: np.ndarray, exponents: np.ndarray, zhat: np.ndarray
) -> np.ndarray:
    """Density of states sum |s_a(x)|^2 / |z|^(2k) at normalized points."""
    exponents = np.asarray(exponents, dtype=int)
    zhat = np.asarray(zhat, dtype=complex)
    W = monomial_values(exponents, zhat) @ gs_matrix.T
    return np.sum(np.abs(W) ** 2, axis=1)


def is_groebner_basis(basis, order) -> bool:
    """Buchberger criterion: every S-polynomial reduces to zero."""
    for i in range(len(basis)):
        for j in range(i + 1, len(basis)):
            if normal_form(s_polynomial(basis[i], basis[j], order), basis, order):
                return False
    return True


def futaki_f(config, k: int, report) -> Fraction:
    """Exact f(k) = w_k/(k d_k) - F_0; satisfies f(k) = F_1/k + O(1/k^2)."""
    sl = graded_slice(config, k)
    return Fraction(sl.total_weight, k * sl.dim) - report.F_0


def level_comparison(grid, config, report, k: int, l: int) -> dict:
    """Two-level ray comparison g(t,x) = [phi_l + 2t f(l)] - [phi_k + 2t f(k)].

    Reads phi from a ray grid holding both levels.  Boundedness of g is the
    content of the level-comparison lemma; ratio compares max|g| over deep
    times [-40,-20] against [-20,0) as a linear growth detector (bounded
    rays keep it near 1).
    """
    f_k, f_l = futaki_f(config, k, report), futaki_f(config, l, report)
    phi_k, phi_l = grid.phi[grid.k_set.index(k)], grid.phi[grid.k_set.index(l)]
    far = near = overall = 0.0
    for j, t in enumerate(grid.t_grid):
        g = (phi_l[j] + 2 * t * float(f_l)) - (phi_k[j] + 2 * t * float(f_k))
        peak = float(np.max(np.abs(g)))
        overall = max(overall, peak)
        if -40.0 <= t <= -20.0:
            far = max(far, peak)
        elif -20.0 < t <= 0.0:
            near = max(near, peak)
    if near == 0.0:
        ratio = 1.0 if far == 0.0 else float("inf")
    else:
        ratio = far / near
    return {"f_k": f_k, "f_l": f_l, "max_abs": overall, "ratio": ratio}
