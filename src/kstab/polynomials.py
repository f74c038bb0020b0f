"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are exponent tuples, coefficients are `fractions.Fraction`, and a
polynomial is a sparse exponent->coefficient map.  A weighted term order
(integer weight vector, graded-reverse-lexicographic tie break) supplies the
notion of *leading* monomial used by the Groebner/flat-limit layer: monomials
of smaller weight precede, so initial forms keep the minimal-weight terms.

Everything here is exact.  A Chart, the polynomial parametrization of a
cycle component, is plain polynomial data too; the numeric layer
(kstab.geometry) evaluates it on point batches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping, Sequence

Exponents = tuple[int, ...]


def monomial_mul(p: Exponents, q: Exponents) -> Exponents:
    return tuple(a + b for a, b in zip(p, q))


def monomial_divides(p: Exponents, q: Exponents) -> bool:
    """True if the monomial with exponents p divides the one with q."""
    return all(a <= b for a, b in zip(p, q))


def monomial_div(p: Exponents, q: Exponents) -> Exponents:
    return tuple(a - b for a, b in zip(p, q))


def monomial_lcm(p: Exponents, q: Exponents) -> Exponents:
    return tuple(max(a, b) for a, b in zip(p, q))


def monomial_degree(p: Exponents) -> int:
    return sum(p)


def monomial_weight(p: Exponents, weights: tuple[int, ...]) -> int:
    """Pairing p . eta of an exponent vector with the integer weight vector."""
    return sum(a * w for a, w in zip(p, weights))


@dataclass(frozen=True)
class TermOrder:
    """Weighted order: smaller weight precedes, grevlex breaks ties.

    For monomials of equal degree the comparison is invariant under
    eta -> eta + c*(1,...,1), which is what the flat-limit layer relies on.
    """

    weights: tuple[int, ...]

    def sort_key(self, p: Exponents):
        # equal weights: higher degree, then the smaller trailing exponent precedes
        return (monomial_weight(p, self.weights), -sum(p), tuple(reversed(p)))


class Polynomial:
    """Sparse polynomial with Fraction coefficients; zero terms are dropped."""

    __slots__ = ("terms", "nvars")

    def __init__(self, nvars: int, terms: Mapping[Exponents, Fraction] | None = None):
        self.nvars = nvars
        clean: dict[Exponents, Fraction] = {}
        if terms:
            for expo, coeff in terms.items():
                if len(expo) != nvars:
                    raise ValueError(f"exponent tuple {expo} has wrong arity for {nvars} variables")
                c = Fraction(coeff)
                if c != 0:
                    clean[tuple(int(e) for e in expo)] = c
        self.terms = clean

    # -- constructors -------------------------------------------------------

    @staticmethod
    def zero(nvars: int) -> "Polynomial":
        return Polynomial(nvars)

    @staticmethod
    def constant(nvars: int, value) -> "Polynomial":
        return Polynomial(nvars, {(0,) * nvars: Fraction(value)})

    @staticmethod
    def monomial(nvars: int, expo: Exponents, coeff=1) -> "Polynomial":
        return Polynomial(nvars, {tuple(expo): Fraction(coeff)})

    # -- ring operations ----------------------------------------------------

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.nvars == other.nvars and self.terms == other.terms

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        out = dict(self.terms)
        for expo, coeff in other.terms.items():
            c = out.get(expo, Fraction(0)) + coeff
            if c:
                out[expo] = c
            else:
                out.pop(expo, None)
        res = Polynomial(self.nvars)
        res.terms = out
        return res

    def __neg__(self) -> "Polynomial":
        res = Polynomial(self.nvars)
        res.terms = {e: -c for e, c in self.terms.items()}
        return res

    def __sub__(self, other: "Polynomial") -> "Polynomial":
        return self + (-other)

    def __mul__(self, other: "Polynomial") -> "Polynomial":
        out: dict[Exponents, Fraction] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                expo = monomial_mul(e1, e2)
                c = out.get(expo, Fraction(0)) + c1 * c2
                if c:
                    out[expo] = c
                else:
                    out.pop(expo, None)
        res = Polynomial(self.nvars)
        res.terms = out
        return res

    def scale(self, value) -> "Polynomial":
        c = Fraction(value)
        res = Polynomial(self.nvars)
        if c:
            res.terms = {e: c * k for e, k in self.terms.items()}
        return res

    def term_mul(self, expo: Exponents, coeff) -> "Polynomial":
        c = Fraction(coeff)
        res = Polynomial(self.nvars)
        if c:
            res.terms = {monomial_mul(e, expo): c * k for e, k in self.terms.items()}
        return res

    # -- structure ----------------------------------------------------------

    def homogeneous_degree(self) -> int | None:
        """The common total degree of all terms, or None if mixed or zero."""
        degs = {sum(e) for e in self.terms}
        return degs.pop() if len(degs) == 1 else None

    def leading_exponents(self, order: TermOrder) -> Exponents:
        if not self.terms:
            raise ValueError("zero polynomial has no leading monomial")
        return min(self.terms, key=order.sort_key)

    def leading_coefficient(self, order: TermOrder) -> Fraction:
        return self.terms[self.leading_exponents(order)]

    def initial_form(self, order: TermOrder) -> "Polynomial":
        """Sub-polynomial of all terms tied with the leading one in weight."""
        lead = self.leading_exponents(order)
        w0 = monomial_weight(lead, order.weights)
        res = Polynomial(self.nvars)
        res.terms = {
            e: c for e, c in self.terms.items() if monomial_weight(e, order.weights) == w0
        }
        return res

    def monic(self, order: TermOrder) -> "Polynomial":
        return self.scale(1 / self.leading_coefficient(order))

    def sorted_terms(self, order: TermOrder) -> list[tuple[Exponents, Fraction]]:
        return sorted(self.terms.items(), key=lambda item: order.sort_key(item[0]))

    # -- calculus & evaluation ----------------------------------------------

    def differentiate(self, index: int) -> "Polynomial":
        out: dict[Exponents, Fraction] = {}
        for expo, coeff in self.terms.items():
            if expo[index] == 0:
                continue
            e = list(expo)
            c = coeff * e[index]
            e[index] -= 1
            out[tuple(e)] = c
        res = Polynomial(self.nvars)
        res.terms = out
        return res

    def compose(self, components: Sequence["Polynomial"]) -> "Polynomial":
        """self(components): component i replaces variable i, in exact arithmetic."""
        if len(components) != self.nvars:
            raise ValueError(f"{len(components)} components for {self.nvars} variables")
        result = Polynomial.zero(components[0].nvars)
        for expo, coeff in self.terms.items():
            term = Polynomial.constant(result.nvars, coeff)
            for component, e in zip(components, expo):
                for _ in range(e):
                    term = term * component
            result = result + term
        return result

    def evaluate_exact(self, point: Iterable) -> Fraction:
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            val = coeff
            for v, e in zip(pt, expo):
                val *= v**e
            total += val
        return total

    # -- printing ------------------------------------------------------------

    def to_string(self, variables: tuple[str, ...], order: TermOrder | None = None) -> str:
        if not self.terms:
            return "0"
        if order is None:
            order = TermOrder((0,) * self.nvars)
        pieces: list[str] = []
        for expo, coeff in self.sorted_terms(order):
            factors = []
            for name, e in zip(variables, expo):
                if e == 1:
                    factors.append(name)
                elif e > 1:
                    factors.append(f"{name}^{e}")
            mag = abs(coeff)
            body = "*".join(factors)
            if not factors:
                body = str(mag)
            elif mag != 1:
                body = f"{mag}*{body}"
            sign = "-" if coeff < 0 else "+"
            pieces.append((sign, body))
        first_sign, first_body = pieces[0]
        text = ("-" if first_sign == "-" else "") + first_body
        for sign, body in pieces[1:]:
            text += f" {sign} {body}"
        return text

    def __repr__(self):
        names = tuple(f"x{i}" for i in range(self.nvars))
        return f"Polynomial({self.to_string(names)})"


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

    @property
    def dim(self) -> int:
        return len(self.params)

    @property
    def ambient_count(self) -> int:
        return len(self.components)

    def jet_rank(self, point: Sequence) -> int:
        """Rank of the matrix [F; dF/du_1; ...; dF/du_d] at an exact point.

        It is d + 1 exactly where the chart is an immersion into projective
        space, which is where its Fubini-Study volume density is positive.
        Rows are reduced in Fraction arithmetic against the earlier pivots.
        """
        jet = [self.components]
        jet += [[c.differentiate(i) for c in self.components] for i in range(self.dim)]
        pivots: list[tuple[int, list[Fraction]]] = []
        for row in ([c.evaluate_exact(point) for c in group] for group in jet):
            for col, pivot in pivots:
                if row[col]:
                    factor = row[col] / pivot[col]
                    row = [a - factor * b for a, b in zip(row, pivot)]
            col = next((j for j, a in enumerate(row) if a), None)
            if col is not None:
                pivots.append((col, row))
        return len(pivots)


# -- parsing ----------------------------------------------------------------

# name: [A-Za-z_][A-Za-z_0-9]*;  factor: name ("^" uint)?;
# term: [+-]? (int ("/" int)? | factor) ("*" factor)*
NAME = re.compile(r"[A-Za-z_][A-Za-z_0-9]*")
_FACTOR = re.compile(rf"({NAME.pattern})(?:\s*\^\s*(\d+))?")
_TERM = re.compile(
    rf"\s*(?P<sign>[+-]?)\s*(?:(?P<num>\d+)(?:\s*/\s*(?P<den>\d+))?|{_FACTOR.pattern})"
    rf"(?:\s*\*\s*{_FACTOR.pattern})*\s*"
)


def parse_polynomial(text: str, variables: tuple[str, ...]) -> Polynomial:
    """Parse a sum of terms, each matched by the _TERM grammar above.

    Only the first term may omit its sign.  Unknown variables, a zero
    denominator, empty input and unmatched text raise ValueError with the
    offending position.
    """
    index = {name: i for i, name in enumerate(variables)}
    result = Polynomial.zero(len(variables))
    pos = 0
    while True:
        m = _TERM.match(text, pos)
        if not m or (pos and not m["sign"]):
            expected = "'+' or '-'" if m else "a term"
            raise ValueError(f"expected {expected} at position {pos} in {text!r}")
        if m["den"] and not int(m["den"]):
            raise ValueError(f"zero denominator at position {m.start('den')} in {text!r}")
        expo = [0] * len(variables)
        for factor in _FACTOR.finditer(text, m.start(), m.end()):
            name, power = factor.groups()
            if name not in index:
                raise ValueError(f"unknown variable {name!r} at position {factor.start()}")
            expo[index[name]] += int(power or 1)
        sign = -1 if m["sign"] == "-" else 1
        coeff = Fraction(sign * int(m["num"] or 1), int(m["den"] or 1))
        result = result + Polynomial(len(variables), {tuple(expo): coeff})
        pos = m.end()
        if pos == len(text):
            return result


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Exponents]:
    """All exponent tuples of the given total degree, deterministic order."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest
