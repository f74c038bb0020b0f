"""Independent cross-checks backing the test suite.

Every routine here reaches its answer by a different route than the package:
quotient dimensions come from exact row reduction over the rationals applied
to the generators themselves (no Groebner step), standard-monomial spectra
come from divisibility filtering against hand-derived initial ideals, whole
slices and the spectral-gap slope come from scanning every ambient monomial
of the degree, series coefficients come from exact rational-function
division, interpolation uses Lagrange instead of Newton differences, chart
integrals use radial quadrature instead of Monte Carlo, and Chow weights come
from fitting the enumerated two-level weight ladder instead of the closed
form.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial
from typing import Callable, Sequence

from scipy.integrate import quad

from kstab.asymptotics import DEGREE_CAP, newton_power_coefficients
from kstab.spectra import graded_slice

TermDict = dict[tuple[int, ...], Fraction]


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


def standard_weights(
    leads: list[tuple[int, ...]], nvars: int, weights: tuple[int, ...], k: int
) -> list[int]:
    """Sorted eta-weights of degree-k monomials outside the monomial ideal.

    ``leads`` is supplied by hand per fixture; divisibility is checked
    directly so the production leading-term machinery is never involved.
    """
    out = []
    for m in monomials(nvars, k):
        if any(all(li <= mi for li, mi in zip(lead, m)) for lead in leads):
            continue
        out.append(sum(w * e for w, e in zip(weights, m)))
    return sorted(out)


def scanned_slice(config, k: int) -> dict:
    """Degree-k slice fields by scanning every degree-k monomial.

    Each monomial of the ambient ring is tested against the initial leads,
    and each weight is shifted by the mean as its own Fraction, a different
    route from the package's degree-by-degree integer build.
    """
    pairs = sorted(
        (sum(w * e for w, e in zip(config.weights, m)), m)
        for m in monomials(len(config.variables), k)
        if not any(all(li <= mi for li, mi in zip(lead, m)) for lead in config.initial_leads)
    )
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
    cap: int = DEGREE_CAP,
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
            coeffs = newton_power_coefficients(
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


def chow_ladder(config, r: int, report) -> tuple[Fraction, tuple[Fraction, ...], Fraction]:
    """(mu, ladder coefficients, Futaki residual) from the enumerated ladder.

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
    return mu, fit.coeffs, -c * mu / Fraction(r) ** n - report.F_1
