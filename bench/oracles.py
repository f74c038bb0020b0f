"""Closed forms the benchmark checks kstab's outputs against.

None of these reuse kstab's routes.  Hilbert polynomials come from the
Koszul resolution of a complete intersection instead of a Groebner basis
and monomial enumeration; projective-space invariants come from moments of
the uniform law on the simplex; the bundled configurations' data are hand
counts of their standard monomials; Gram entries come from Beta integrals
and a 1-D radial quadrature instead of Monte Carlo.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import combinations
from typing import Sequence

import numpy as np
from scipy import integrate, stats

# Per-check false-alarm rate of the Monte Carlo comparisons, before the
# Bonferroni split over the entries compared.
ALPHA = 1e-6

Poly = tuple[Fraction, ...]  # ascending powers of k


def _poly_mul(p: Sequence[Fraction], q: Sequence[Fraction]) -> list[Fraction]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] += a * b
    return out


def _trim(p: Sequence[Fraction]) -> Poly:
    p = list(p)
    while len(p) > 1 and p[-1] == 0:
        p.pop()
    return tuple(p)


def binomial_poly(ambient: int, shift: int) -> Poly:
    """Coefficients of k -> C(ambient + k - shift, ambient) as a polynomial in k."""
    p = [Fraction(1)]
    for j in range(1, ambient + 1):
        p = _poly_mul(p, [Fraction(j - shift), Fraction(1)])
    return _trim([c / math.factorial(ambient) for c in p])


def koszul_hilbert(ambient: int, degrees: Sequence[int]) -> Poly:
    """Hilbert polynomial of a complete intersection of the given degrees in P^ambient.

    The Koszul complex resolves S/(f_1..f_c), so
    HP(k) = sum over subsets T of (-1)^|T| C(ambient + k - deg T, ambient).
    """
    total = [Fraction(0)] * (ambient + 1)
    for size in range(len(degrees) + 1):
        for subset in combinations(degrees, size):
            for i, c in enumerate(binomial_poly(ambient, sum(subset))):
                total[i] += (-1) ** size * c
    return _trim(total)


def projective_space_invariants(weights: Sequence[int]) -> dict:
    """F_0, F_1 and n2_sq of P^n with a diagonal weight vector.

    By symmetry every coordinate carries on average k/(n+1) of a degree-k
    monomial, so w(k) = k d_k mean(eta): F_0 = mean(eta) and F_1 = 0.  The
    lattice points of k times the simplex become uniform on the simplex,
    so n2_sq = Var(eta . x) / n! with x uniform, and that variance is
    sum (eta_i - mean)^2 / ((n+1)(n+2)).
    """
    m = len(weights)
    mean = Fraction(sum(weights), m)
    spread = sum((Fraction(w) - mean) ** 2 for w in weights)
    n = m - 1
    return {
        "F_0": mean,
        "F_1": Fraction(0),
        "n2_sq": spread / ((n + 1) * (n + 2) * math.factorial(n)),
    }


def chow_weight(hilbert: Poly, weight: Poly, r: int) -> Fraction:
    """mu(Z_r) from polynomial d_k and w(k), valid for all k >= 1.

    The ladder p -> w(rp) r d_r - w(r) rp d_rp has p^(n+1) coefficient
    r^(n+1) (b_(n+1) r d_r - a_n w(r)); mu is (n+1)! times it over r d_r.
    """
    n = len(hilbert) - 1
    d_r = sum(c * r**i for i, c in enumerate(hilbert))
    w_r = sum(c * r**i for i, c in enumerate(weight))
    b_top = weight[n + 1] if len(weight) > n + 1 else Fraction(0)
    leading = Fraction(r) ** (n + 1) * (b_top * r * d_r - hilbert[n] * w_r)
    return math.factorial(n + 1) * leading / (r * d_r)


def _f(text: str) -> Fraction:
    return Fraction(text)


# Hand counts for the bundled configurations (standard monomials of the
# hand-derived initial ideal, weights summed by arithmetic series).
#   conic_double_line: in(xz - y^2) = y^2 under eta = (0,0,1); basis x^a z^c
#     and x^a y z^c, so d_k = 2k+1 and w(k) = k(k+1)/2 + k(k-1)/2 = k^2;
#     Tr B^2 ~ 2k^3/3, lowest weight 0.
#   conic_two_lines: in = xz under (0,0,-1); basis x^a y^b and y^b z^c
#     (c >= 1), d_k = 2k+1, w(k) = -k(k+1)/2, Tr B^2 ~ k^3/3, lowest -k.
#   product_p1: x^a y^b with weight a: d_k = k+1, w(k) = k(k+1)/2,
#     Tr B^2 ~ k^3/3, lowest 0.
#   trivial_p1: weight k on every monomial: w(k) = k(k+1), Tr B^2 exact.
# n2_sq = [k^(n+2)] Tr B^2 - b_top^2 / a_n; Lambda = lim b_min/k - F_0.
BUNDLED = {
    "conic_double_line": {
        "initial_leads": [[0, 2, 0]],
        "n": 1,
        "hilbert": (_f("1"), _f("2")),
        "weight": (_f("0"), _f("0"), _f("1")),
        "F_0": _f("1/2"),
        "F_1": _f("-1/4"),
        "n2_sq": _f("1/6"),
        "Lambda": _f("-1/2"),
    },
    "conic_two_lines": {
        "initial_leads": [[1, 0, 1]],
        "n": 1,
        "hilbert": (_f("1"), _f("2")),
        "weight": (_f("0"), _f("-1/2"), _f("-1/2")),
        "F_0": _f("-1/4"),
        "F_1": _f("-1/8"),
        "n2_sq": _f("5/24"),
        "Lambda": _f("-3/4"),
    },
    "product_p1": {
        "initial_leads": [],
        "n": 1,
        "hilbert": (_f("1"), _f("1")),
        "weight": (_f("0"), _f("1/2"), _f("1/2")),
        "F_0": _f("1/2"),
        "F_1": _f("0"),
        "n2_sq": _f("1/12"),
        "Lambda": _f("-1/2"),
    },
    "trivial_p1": {
        "initial_leads": [],
        "n": 1,
        "hilbert": (_f("1"), _f("1")),
        "weight": (_f("0"), _f("1"), _f("1")),
        "F_0": _f("1"),
        "F_1": _f("0"),
        "n2_sq": _f("0"),
        "Lambda": _f("0"),
    },
}


# -- Gram matrices of monomial frames ------------------------------------------


def line_gram_entry(a: tuple[int, ...], b: tuple[int, ...], k: int) -> float:
    """<x^a0 y^a1, x^b0 y^b1> on P^1: a0! a1! / (k+1)! on the diagonal, else 0."""
    if tuple(a) != tuple(b):
        return 0.0
    return math.factorial(a[0]) * math.factorial(a[1]) / math.factorial(k + 1)


def conic_gram_diagonal(exponent: Sequence[int], k: int) -> float:
    """|x^a y^b z^c|^2 / |z|^(2k) integrated over the conic [1 : u : u^2].

    With S = 1 + r^2 + r^4 the chart's FS density is (1/pi)(1 + 4r^2 + r^4)/S^2
    and the integrand is r^(2m)/S^k, m = b + 2c.  In x = r^2 the integral is
    int_0^inf x^m (1 + 4x + x^2) / (1 + x + x^2)^(k+2) dx; folding x -> 1/x
    onto [0, 1] gives the smooth integrand below.
    """
    m = exponent[1] + 2 * exponent[2]

    def f(x: float) -> float:
        return (x**m + x ** (2 * k - m)) * (1 + 4 * x + x * x) / (1 + x + x * x) ** (k + 2)

    value, _ = integrate.quad(f, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    return value


def conic_gram_entry(a: tuple[int, ...], b: tuple[int, ...], k: int) -> float:
    """Conic Gram entry: distinct u-degrees b + 2c integrate to 0 by rotation."""
    if a[1] + 2 * a[2] != b[1] + 2 * b[2]:
        return 0.0
    if tuple(a) != tuple(b):
        raise ValueError("two monomials share a u-degree; no closed form here")
    return conic_gram_diagonal(a, k)


def mc_threshold(n_compared: int, dof: int) -> float:
    """Multiple of the batch stderr one comparison may deviate by.

    Bonferroni over n_compared complex entries (real and imaginary part
    each) at total rate ALPHA, with Student-t tails for the batch-scatter
    stderr on dof degrees of freedom.
    """
    return float(stats.t.isf(ALPHA / (4 * n_compared), dof))


def gram_deviation(
    gram: np.ndarray, stderr: np.ndarray, expected: np.ndarray, dof: int
) -> tuple[float, float]:
    """(worst |G - E| / stderr over all D^2 entries, allowed threshold)."""
    diff = np.abs(gram - expected)
    ratio = np.divide(diff, stderr, out=np.where(diff > 0, np.inf, 0.0), where=stderr > 0)
    return float(np.max(ratio)), mc_threshold(gram.size, dof)
