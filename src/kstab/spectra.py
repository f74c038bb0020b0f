"""Per-degree weight spectra of a test configuration.

A test configuration is a homogeneous ideal together with an integer weight
on each coordinate.  In every degree k the weight vector acts diagonally on
the standard-monomial basis of the flat limit's degree-k slice; this module
computes that diagonal spectrum, its trace, the traceless version, and the
scalar summaries (dimension, total weight, trace of the squared traceless
generator, extremal eigenvalues) that the asymptotic layer interpolates.

Slices are built degree by degree, each from the one below, so a level
costs about its own dimension, not the count of all degree-k monomials.
A slice is built in Python integers.  Each standard monomial is one
integer key that holds its weight above one FIELD-bit field per exponent
(the layout is in _next_level), so a candidate one degree up costs one
integer add and a test against a lead one add and one mask.  The build
pass counts the weights from the keys' top bits and gives the weights,
dimension, total weight and trace of the squared weight generator.  The
exponent tuples are decoded from the keys when a reader first asks for
them, as the sampled route does and the exact route never does.  The
traceless spectrum, its squared trace and its two lowest eigenvalues are
exact Fractions, computed from the integers when a reader first asks for
them, so the interpolation and the Chow weights, which read only the
integers, build no Fraction here.
One cache holds each configuration's levels, and every reader shares it.
"""

from __future__ import annotations

from bisect import bisect_right
from collections import Counter
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import chain, repeat
from math import comb
from operator import mul

from .groebner import buchberger, leading_exponent_set, standard_monomials
from .polynomials import Exponents, Polynomial, TermOrder
from .polynomials import parse_polynomial

# levels 1..k of N+1 variables hold at most C(k+N+1, N+1) monomials (all of
# degree <= k); a request above this count is refused before anything is built
MAX_MONOMIALS = 10**6
# A slice key gives each variable a fixed FIELD bits, the top one a guard, so
# an exponent may reach MAX_EXPONENT.  MAX_MONOMIALS admits no level above
# 1412 (two variables); graded_slice refuses a level the field cannot hold.
FIELD = 16
MAX_EXPONENT = (1 << FIELD - 1) - 1


def top_level(nvars: int) -> int:
    """The highest level graded_slice builds for nvars variables under MAX_MONOMIALS."""
    k = 0
    while comb(k + 1 + nvars, nvars) <= MAX_MONOMIALS:
        k += 1
    return k


@dataclass(frozen=True, eq=False)
class TestConfiguration:
    """Homogeneous ideal plus coordinate weights, with its Groebner data.

    The weighted order keeps minimal-weight terms as initial forms, so the
    degeneration t . x_i = t^(-eta_i) x_i flows to the initial ideal as
    t -> 0.  Construction validates the input and computes the reduced
    Groebner basis once; slices in each degree are read off from it.
    Equality and hashing are by identity, so a cache keyed on a
    configuration does not hash its Groebner basis on every read.
    """

    name: str
    variables: tuple[str, ...]
    weights: tuple[int, ...]
    generators: tuple[Polynomial, ...]
    order: TermOrder = field(init=False)
    groebner_basis: tuple[Polynomial, ...] = field(init=False)
    initial_leads: tuple[Exponents, ...] = field(init=False)

    def __post_init__(self):
        if len(self.variables) < 2:
            raise ValueError("need at least two homogeneous coordinates")
        if len(self.weights) != len(self.variables):
            raise ValueError(
                f"{len(self.weights)} weights for {len(self.variables)} variables"
            )
        if len(set(self.variables)) != len(self.variables):
            raise ValueError("duplicate variable names")
        kept = []
        for g in self.generators:
            if g.nvars != len(self.variables):
                raise ValueError("generator arity does not match the variable list")
            if not g:
                continue  # zero generators carry no condition
            if g.homogeneous_degree() is None:
                degrees = sorted({sum(e) for e in g.terms})
                raise ValueError(
                    f"generator {g.to_string(self.variables)!r} is not homogeneous: "
                    "it mixes degrees " + " and ".join(map(str, degrees))
                )
            kept.append(g)
        object.__setattr__(self, "generators", tuple(kept))
        order = TermOrder(tuple(int(w) for w in self.weights))
        object.__setattr__(self, "order", order)
        basis = tuple(buchberger(self.generators, order))
        leads = tuple(leading_exponent_set(basis, order))
        unit = (0,) * len(self.variables)
        if unit in leads:
            raise ValueError("generators span the unit ideal: the scheme is empty")
        # a pure power of every variable among the initial leads (e[j] == sum(e),
        # as no lead is 1) makes the quotient artinian: the scheme is empty
        if all(any(e[j] == sum(e) for e in leads) for j in range(len(self.variables))):
            raise ValueError(
                "generators cut out the empty scheme: every variable is nilpotent"
                " in the quotient"
            )
        object.__setattr__(self, "groebner_basis", basis)
        object.__setattr__(self, "initial_leads", leads)

    @staticmethod
    def from_strings(
        name: str,
        variables: tuple[str, ...],
        weights: tuple[int, ...],
        generators: tuple[str, ...],
    ) -> "TestConfiguration":
        polys = tuple(parse_polynomial(g, tuple(variables)) for g in generators)
        return TestConfiguration(name, tuple(variables), tuple(int(w) for w in weights), polys)


@dataclass(frozen=True)
class GradedSlice:
    """Degree-k slice data of a test configuration.

    The fields are integers.  b_spectrum holds the weights of the standard
    monomials in (weight, exponents) order (the diagonal of the weight
    generator on the slice), so ascending; tr_b_sq is sum(b^2).  keys holds
    the monomials' integer keys (see _next_level), one tuple per last
    variable: keys[i] the monomials whose last nonzero exponent is the i-th.

    monomials, the standard monomials' exponent tuples in the same order as
    b_spectrum, are decoded from the keys on first read; the exact route
    never reads them.  The traceless data are exact Fractions, computed from
    the fields on first read.  Both are cached on the slice, and equality
    and hashing ignore them.  a_spectrum is the shift b - w/d, tr_a_sq the
    trace of the squared traceless generator, sum(b^2) - w^2/d, and
    lambda_min and lambda_next the two lowest distinct entries of
    a_spectrum (lambda_next None when the slice has a single weight).
    """

    k: int
    b_spectrum: tuple[int, ...]
    dim: int
    total_weight: int
    tr_b_sq: int
    keys: tuple[tuple[int, ...], ...] = field(repr=False)

    @cached_property
    def monomials(self) -> tuple[Exponents, ...]:
        shifts = [FIELD * j for j in reversed(range(len(self.keys)))]
        return tuple(
            tuple((key >> s) & MAX_EXPONENT for s in shifts)
            for key in sorted(chain.from_iterable(self.keys))
        )

    def _traceless(self, b: int) -> Fraction:
        return Fraction(self.dim * b - self.total_weight, self.dim)

    @cached_property
    def a_spectrum(self) -> tuple[Fraction, ...]:
        shift = {b: self._traceless(b) for b in set(self.b_spectrum)}  # one per weight
        return tuple(map(shift.__getitem__, self.b_spectrum))

    @cached_property
    def tr_a_sq(self) -> Fraction:
        return Fraction(self.dim * self.tr_b_sq - self.total_weight**2, self.dim)

    @cached_property
    def lambda_min(self) -> Fraction:
        return self._traceless(self.b_spectrum[0])

    @cached_property
    def lambda_next(self) -> Fraction | None:
        above = bisect_right(self.b_spectrum, self.b_spectrum[0])
        return self._traceless(self.b_spectrum[above]) if above < self.dim else None


@lru_cache(maxsize=None)
def _levels(config: TestConfiguration) -> list[GradedSlice]:
    """The slices of a configuration built so far: level k at index k - 1."""
    return []


def graded_slice(config: TestConfiguration, k: int) -> GradedSlice:
    """The degree-k slice; missing levels are built in a loop from the top cached one."""
    if k < 1:
        raise ValueError("degree must be a positive integer")
    nvars = len(config.variables)
    if comb(k + nvars, nvars) > MAX_MONOMIALS:
        raise ValueError(
            f"level {k} is too high: {nvars} variables have {comb(k + nvars, nvars)}"
            f" monomials of degree <= {k}, above the limit of {MAX_MONOMIALS}"
        )
    if k > MAX_EXPONENT:
        raise ValueError(f"level {k} is too high: a slice key holds exponents up to {MAX_EXPONENT}")
    levels = _levels(config)
    while len(levels) < k:
        levels.append(_next_level(config, levels[-1] if levels else None))
    return levels[k - 1]


def _next_level(config: TestConfiguration, below: GradedSlice | None) -> GradedSlice:
    """The slice one degree above `below`, or level 1 (a scan) when it is None.

    A degree-k monomial e is held as one integer key,
    (b - k min eta) << FIELD*nvars | e_0 << FIELD*(nvars-1) | ... | e_last,
    with b = eta . e: the weight, offset to be non-negative, above one
    FIELD-bit field per exponent, variable 0 the most significant.  Plain
    int order on keys is then the (weight, exponents) order.

    A standard monomial e with last variable x_i is x_i * m for a standard
    m = e / x_i one degree lower, as standard monomials form an order ideal.
    So x_i * m over the m below whose last variable is at most i reaches
    each candidate once; its key is m's key plus step[i], which adds
    eta_i - min eta to the weight and 1 to the i-th field.  It is kept
    unless an initial lead with a positive i-th exponent divides it.  A
    lead divides e iff subtracting it from e | guard leaves every guard
    bit (the top bit of each field) set; as no key sets a guard bit, that
    is (key + gap) & guard == guard with gap = guard - packed(lead).  The
    keys are grouped by last variable and left unsorted: the weights are
    counted from the keys' top bits, and only GradedSlice.monomials sorts.
    """
    eta = config.weights
    nvars = len(eta)
    low = min(eta)
    top = FIELD * nvars
    unit = [1 << FIELD * j for j in reversed(range(nvars))]
    step = [(eta[i] - low) << top | unit[i] for i in range(nvars)]
    guard = sum(unit) << FIELD - 1
    gaps = [
        [guard - sum(map(mul, lead, unit)) for lead in config.initial_leads if lead[i]]
        for i in range(nvars)
    ]
    if below is None:
        k = 1
        groups = [[] for _ in step]
        for m in standard_monomials(config.initial_leads, nvars, 1):
            i = m.index(1)
            groups[i].append(step[i])  # the key of x_i
    else:
        k = below.k + 1
        groups = []
        for i, s in enumerate(step):
            kept = [m + s for run in below.keys[: i + 1] for m in run]
            for gap in gaps[i]:
                kept = [key for key in kept if (key + gap) & guard != guard]
            groups.append(kept)
    counts = Counter([key >> top for run in groups for key in run])
    weights = sorted(counts)
    b = [w + k * low for w in weights]
    c = list(map(counts.__getitem__, weights))
    return GradedSlice(
        k=k,
        b_spectrum=tuple(chain.from_iterable(map(repeat, b, c))),
        dim=sum(c),
        total_weight=sum(map(mul, b, c)),
        tr_b_sq=sum(map(mul, map(mul, b, b), c)),
        keys=tuple(map(tuple, groups)),
    )


def spectrum_table(config: TestConfiguration, degrees: list[int]) -> list[GradedSlice]:
    return [graded_slice(config, k) for k in degrees]
