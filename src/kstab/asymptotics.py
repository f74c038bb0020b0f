"""Exact asymptotics of the per-degree data of a test configuration.

The dimension d_k, total weight w(k) and Tr B_k^2 of the degree-k slices
are polynomials in k from a start that the initial leads bound
(`regularity_start`).  This module interpolates those polynomials exactly
on nodes from that start, then reads off the scale-invariant quantities:
the leading ratio F_0, the Donaldson-Futaki invariant F_1 (the 1/k
coefficient of w(k)/(k d_k)), the squared norm coefficient of Tr A_k^2 at
k^(n+2), the extremal slope limits of lambda_min/k and the spectral-gap
analogue, and the per-level Chow weights read in closed form from the two
fitted polynomials.

The per-level data are Python integers, and so is the arithmetic on them:
interpolation and the Chow ladder work over integers and one common
denominator, and a Fraction is built only for each exact output (a fitted
coefficient, an invariant, a Chow weight).  Every output is exact.  Nothing
is searched: the two slope limits are read in closed form from the initial
leads and the weights.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import factorial, lcm
from typing import Sequence

from .spectra import TestConfiguration, graded_slice


def newton_power_coefficients(
    xs: Sequence[int], ys: Sequence[int | Fraction]
) -> tuple[Fraction, ...]:
    """Coefficients (ascending powers) of the polynomial through (xs[i], ys[i]).

    The m nodes must be the consecutive integers x0, x0+1, ..., x0+m-1, and
    the values ints or Fractions.  Over the values' common denominator den
    the scaled values Y = den*y are integers, and Newton's forward form on
    such nodes,

        (m-1)! den P(x) = sum_j ((m-1)!/j!) Delta^j Y_0 prod_(i<j) (x - x0 - i),

    has integer terms only.  It is expanded in integers by Horner's rule,
    and each coefficient is then one Fraction over (m-1)! den.  Trailing
    zero coefficients are dropped, keeping at least one.
    """
    m = len(xs)
    if m != len(ys) or m == 0:
        raise ValueError("need equally many nodes and values, at least one")
    x0 = xs[0]
    if x0 != int(x0) or any(x != x0 + i for i, x in enumerate(xs)):
        raise ValueError(f"interpolation nodes must be consecutive integers, got {list(xs)}")
    x0 = int(x0)
    den = lcm(*(y.denominator for y in ys))
    row = [y.numerator * (den // y.denominator) for y in ys]
    leading = [row[0]]  # the forward differences Delta^j Y_0
    for _ in range(1, m):
        row = [b - a for a, b in zip(row, row[1:])]
        leading.append(row[0])
    poly, scale = [leading[-1]], 1  # scale = (m-1)!/j!
    for j in range(m - 2, -1, -1):
        scale *= j + 1
        node = x0 + j
        poly = [a - node * b for a, b in zip([0] + poly, poly + [0])]  # (x - node) * poly
        poly[0] += scale * leading[j]
    while len(poly) > 1 and poly[-1] == 0:
        poly.pop()
    total = scale * den
    return tuple(Fraction(c, total) for c in poly)


@dataclass(frozen=True)
class AsymptoticReport:
    """Interpolated Hilbert and weight data plus the derived invariants.

    hilbert_coeffs, weight_coeffs and tr_b_sq_coeffs list the exact
    polynomials D(k), W(k) and Tr B_k^2 in ascending powers of k; they equal
    d_k, w(k) and Tr B_k^2 at every k >= stability_window[0], the proven
    start.  stability_window ends at the last interpolation node, the
    last level the fit read.  F_0 is the leading ratio of w(k)/(k d_k),
    F_1 its 1/k coefficient (the Donaldson-Futaki invariant), n2_sq the
    k^(n+2) coefficient of Tr A_k^2, Lambda the exact limit of
    lambda_min/k and Gamma that of lambda_next/k, None when the spectrum
    is eventually a single weight.
    """

    n: int
    hilbert_coeffs: tuple[Fraction, ...]
    weight_coeffs: tuple[Fraction, ...]
    tr_b_sq_coeffs: tuple[Fraction, ...]
    stability_window: tuple[int, int]
    F_0: Fraction
    F_1: Fraction
    n2_sq: Fraction
    Lambda: Fraction
    Gamma: Fraction | None
    trivial_action: bool

    @property
    def a_n(self) -> Fraction:
        return self.hilbert_coeffs[self.n]

    @property
    def degree_volume(self) -> Fraction:
        """Degree of (X, L): n! times the Hilbert leading coefficient."""
        return factorial(self.n) * self.a_n


def regularity_start(config: TestConfiguration) -> int:
    """A level k0 from which d_k, w(k) and Tr B_k^2 are polynomials in k.

    By inclusion-exclusion over the initial leads, each of the three is a
    signed sum, over the lcms L of sets of leads, of the count, weight sum
    or squared weight sum of L times the monomials of degree k - deg L in N
    variables.  Each such sum is a polynomial in k once k - deg L >= 1 - N,
    and every L divides the lcm of all leads, so
    k0 = max(1, deg lcm(initial_leads) - N + 1).
    """
    leads, nvars = config.initial_leads, len(config.variables)
    top = sum(max((e[j] for e in leads), default=0) for j in range(nvars))
    return max(1, top - nvars + 1)


def fit_asymptotics(config: TestConfiguration) -> AsymptoticReport:
    """Exact D(k), W(k) and Tr B_k^2 from the proven start, and the limits.

    From k0 = regularity_start(config) on, the three are polynomials of
    degree at most N-1, N and N+1 (N the number of variables), so
    interpolation on the N+2 nodes k0..k0+N+1 gives them exactly and needs
    no further check; n is the degree of D.  The last node is read first,
    so a fit past graded_slice's limit raises before any level is built.

    The slope limits are read from the initial leads.  Call x_j free when
    no lead is a pure power of it, so that x_j^k is standard at every k.
    Any other variable's exponent stays below its pure-power lead, so a
    degree-k standard monomial has weight at least k eta* - O(1), where
    eta* is the least free weight, and x_j^k attains k eta* for the free
    x_j in J, the free variables of weight eta*.  So lambda_min/k tends
    to Lambda = eta* - F_0.  For Gamma, the limit of lambda_next/k:

    - If some j in J and some i with eta_i != eta* have no lead of the
      form x_i x_j^a (a >= 0), then x_i x_j^(k-1) is standard at every k
      (a lead dividing it would be a power of x_j or such an x_i x_j^a),
      and its weight k eta* + eta_i - eta* differs from k eta*.  So the
      second-lowest weight is also k eta* + O(1), and Gamma = Lambda.
    - Otherwise let A bound the exponents a of those leads.  A standard
      monomial of weight k eta* + O(1) has bounded exponents outside J:
      the non-free ones by their pure powers, the free ones because each
      adds at least its excess over eta*, which the bounded non-free ones
      cannot outweigh.  Once its J-part has degree above |J| A, some
      x_j (j in J) has exponent above A, so the monomial holds no x_i of
      weight other than eta*: its weight is exactly k eta*.  Every
      remaining standard monomial lies in a Stanley cone m k[x_S] with S
      a set of free variables; S cannot meet J (x_i x_j^a with i in S
      would divide some of it) and must be nonempty to reach large k, so
      the cone's least weight grows with slope min_S eta, at least
      eta_2 = min{eta_j : x_j free, eta_j > eta*}.  x_(j2)^k attains
      k eta_2, so Gamma = eta_2 - F_0.
    - If no free weight exceeds eta*, that same argument leaves only
      weight k eta* at large k: the spectrum is eventually constant and
      Gamma is None.
    """
    nvars = len(config.variables)
    k0 = regularity_start(config)
    k_edge = k0 + nvars + 1
    graded_slice(config, k_edge)  # the limit refuses the last node before any level is built
    nodes = range(k0, k_edge + 1)
    slices = [graded_slice(config, k) for k in nodes]
    d_coeffs, w_coeffs, trb2_coeffs = (
        newton_power_coefficients(nodes, [getattr(s, name) for s in slices])
        for name in ("dim", "total_weight", "tr_b_sq")
    )

    def at(coeffs: tuple[Fraction, ...], power: int) -> Fraction:
        return coeffs[power] if 0 <= power < len(coeffs) else Fraction(0)

    n = len(d_coeffs) - 1
    a_n, a_n1 = d_coeffs[n], at(d_coeffs, n - 1)
    b_top, b_sub = at(w_coeffs, n + 1), at(w_coeffs, n)
    f0 = b_top / a_n
    f1 = (b_sub * a_n - b_top * a_n1) / a_n**2
    n2_sq = at(trb2_coeffs, n + 2) - b_top**2 / a_n

    leads, eta = config.initial_leads, config.weights
    free = [j for j in range(nvars) if not any(e[j] == sum(e) for e in leads)]
    eta_star = min(eta[j] for j in free)
    lam = eta_star - f0
    above = [eta[j] for j in free if eta[j] > eta_star]
    # some x_i x_j^(k-1), j in J and eta_i != eta*, is standard at every k
    if any(
        not any(e[i] == 1 and e[i] + e[j] == sum(e) for e in leads)
        for j in free
        if eta[j] == eta_star
        for i in range(nvars)
        if eta[i] != eta_star
    ):
        gam = lam
    else:
        gam = min(above) - f0 if above else None

    return AsymptoticReport(
        n=n,
        hilbert_coeffs=d_coeffs,
        weight_coeffs=w_coeffs,
        tr_b_sq_coeffs=trb2_coeffs,
        stability_window=(k0, k_edge),
        F_0=f0,
        F_1=f1,
        n2_sq=n2_sq,
        Lambda=lam,
        Gamma=gam,
        trivial_action=(n2_sq == 0),
    )


@dataclass(frozen=True)
class ChowReport:
    """Chow weight of the level-r image cycle with its Futaki residual.

    mu is the Chow weight (`chow_weight_algebraic`) and futaki_residual is
    -c_X_omega * mu / r^n - F_1, which tends to 0 as r grows.
    """

    r: int
    mu: Fraction
    c_X_omega: Fraction
    futaki_residual: Fraction


def chow_weight_algebraic(
    config: TestConfiguration, r: int, report: AsymptoticReport
) -> ChowReport:
    """Exact Chow weight mu(Z_r, A_r) in closed form from the fitted polynomials.

    The degree-p slices of the image of X under the level-r embedding are
    the level-rp slices of X, so for rp >= k0 (the proven start, from which
    d_k = D(k) and w(k) = W(k)) the two-level ladder
    W(rp)*r*d_r - w(r)*(rp)*D(rp) is the polynomial in p whose p^i
    coefficient is c_i = r^i (r d_r b_i - w(r) a_(i-1)).  Its leading
    coefficient gives

        mu = (n+1)! r^n (r d_r b_(n+1) - w(r) a_n) / d_r,

    so only the level-r slice is read.  The ladder's p-polynomial is exact
    for rp >= k0, because D and W hold at every k >= k0 (`regularity_start`).

    The normalization c_X_omega = 1 / (a_n (n+1)!) makes the residual vanish
    in the large-r limit: r d_r b_(n+1) - w(r) a_n has leading behaviour
    -a_n^2 F_1 r^n, so -c mu / r^n -> F_1 requires exactly this constant.
    """
    if r < 1:
        raise ValueError("level r must be >= 1")
    n = report.n
    sl = graded_slice(config, r)
    d_r, w_r = sl.dim, sl.total_weight
    # mu over the denominators of a_n = p/q and b_(n+1) = s/t, in integers
    p, q = report.a_n.as_integer_ratio()
    coeffs = report.weight_coeffs
    s, t = coeffs[n + 1].as_integer_ratio() if n + 1 < len(coeffs) else (0, 1)
    mu = Fraction(factorial(n + 1) * r**n * (r * d_r * s * q - w_r * p * t), q * t * d_r)
    c = 1 / (report.a_n * factorial(n + 1))
    return ChowReport(
        r=r,
        mu=mu,
        c_X_omega=c,
        futaki_residual=-c * mu / r**n - report.F_1,
    )


@dataclass(frozen=True)
class ChowSweep:
    reports: tuple[ChowReport, ...]
    fitted_C: Fraction
    decay_ok: bool


def chow_sweep(
    config: TestConfiguration, r_values: Sequence[int], report: AsymptoticReport
) -> ChowSweep:
    """Chow reports over levels with the fitted C of |residual| <= C/r.

    decay_ok records the property actually tested: |residual| is
    nonincreasing in magnitude over the sweep, or already zero everywhere.
    """
    reports = tuple(chow_weight_algebraic(config, r, report) for r in r_values)
    residuals = [abs(rep.futaki_residual) for rep in reports]
    fitted = max(
        (Fraction(rep.r) * abs(rep.futaki_residual) for rep in reports),
        default=Fraction(0),
    )
    decay_ok = all(residuals[i + 1] <= residuals[i] for i in range(len(residuals) - 1))
    return ChowSweep(reports=reports, fitted_C=fitted, decay_ok=decay_ok)


def operator_norm_check(config: TestConfiguration, k_max: int, report: AsymptoticReport) -> dict:
    """Exact check that max |lambda|/k stays within the linear-growth budget."""
    if k_max < 1:
        raise ValueError("k_max must be >= 1")
    c_star = Fraction(0)
    for k in range(1, k_max + 1):
        sl = graded_slice(config, k)
        # the extreme traceless weights are (d b - w)/d at the two ends of b
        d, w = sl.dim, sl.total_weight
        extreme = max(abs(d * sl.b_spectrum[0] - w), abs(d * sl.b_spectrum[-1] - w))
        c_star = max(c_star, Fraction(extreme, d * k))
    budget = Fraction(max(abs(w) for w in config.weights)) + abs(report.F_0) + 1
    return {"C_star": c_star, "budget": budget, "pass": c_star <= budget}
