"""Exact multivariate polynomial arithmetic over the rationals.

Monomials are exponent tuples, coefficients are `fractions.Fraction`, and a
polynomial is a sparse exponent->coefficient map.  A weighted term order
(integer weight vector, graded-reverse-lexicographic tie break) supplies the
notion of *leading* monomial used by the Groebner/flat-limit layer: monomials
of smaller weight precede, so initial forms keep the minimal-weight terms.

Everything here is exact; floats only appear when a polynomial is evaluated
on numeric point batches.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Mapping

import numpy as np

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
    def variable(nvars: int, index: int) -> "Polynomial":
        expo = [0] * nvars
        expo[index] = 1
        return Polynomial(nvars, {tuple(expo): Fraction(1)})

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

    def degree(self) -> int:
        """Total degree; -1 for the zero polynomial."""
        return max((sum(e) for e in self.terms), default=-1)

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

    def evaluate_exact(self, point: Iterable) -> Fraction:
        pt = [Fraction(v) for v in point]
        total = Fraction(0)
        for expo, coeff in self.terms.items():
            val = coeff
            for v, e in zip(pt, expo):
                val *= v**e
            total += val
        return total

    def evaluate_batch(self, points: np.ndarray) -> np.ndarray:
        """Evaluate at a (B, nvars) complex array; returns shape (B,)."""
        points = np.asarray(points)
        out = np.zeros(points.shape[0], dtype=complex)
        for expo, coeff in self.terms.items():
            term = np.full(points.shape[0], complex(coeff))
            for j, e in enumerate(expo):
                if e:
                    term = term * points[:, j] ** e
            out += term
        return out

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


# -- parsing ----------------------------------------------------------------

_TOKEN = re.compile(r"\s*(?:(?P<int>\d+)|(?P<name>[A-Za-z_][A-Za-z_0-9]*)|(?P<op>[\^*+/-]))")


class _Tokens:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0
        self.items: list[tuple[str, str, int]] = []
        pos = 0
        while pos < len(text):
            m = _TOKEN.match(text, pos)
            if not m or m.end() == pos:
                if text[pos:].strip():
                    raise ValueError(f"unexpected character {text[pos:].strip()[0]!r} at position {pos}")
                break
            if m.lastgroup:
                self.items.append((m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
            pos = m.end()
        self.idx = 0

    def peek(self) -> tuple[str, str, int] | None:
        return self.items[self.idx] if self.idx < len(self.items) else None

    def next(self) -> tuple[str, str, int]:
        item = self.peek()
        if item is None:
            raise ValueError(f"unexpected end of input in {self.text!r}")
        self.idx += 1
        return item


def parse_polynomial(text: str, variables: tuple[str, ...]) -> Polynomial:
    """Parse `term (("+"|"-") term)*` with terms `coeff ("*" factor)*` or
    `factor ("*" factor)*`, factors `var ("^" uint)?`, coeff `int ("/" uint)?`.

    A single leading sign is accepted.  Unknown identifiers, stray operators
    and empty input raise ValueError with the offending position.
    """
    var_index = {name: i for i, name in enumerate(variables)}
    toks = _Tokens(text)
    nvars = len(variables)

    def parse_factor() -> Exponents:
        kind, value, pos = toks.next()
        if kind != "name":
            raise ValueError(f"expected variable at position {pos} in {text!r}")
        if value not in var_index:
            raise ValueError(f"unknown variable {value!r} at position {pos}")
        expo = [0] * nvars
        power = 1
        nxt = toks.peek()
        if nxt and nxt[:2] == ("op", "^"):
            toks.next()
            kind2, value2, pos2 = toks.next()
            if kind2 != "int":
                raise ValueError(f"expected integer exponent at position {pos2}")
            power = int(value2)
        expo[var_index[value]] = power
        return tuple(expo)

    def parse_term(sign: int) -> Polynomial:
        nxt = toks.peek()
        if nxt is None:
            raise ValueError(f"expected term at end of {text!r}")
        coeff = Fraction(sign)
        expo = (0,) * nvars
        kind, value, pos = nxt
        if kind == "int":
            toks.next()
            num = int(value)
            den = 1
            after = toks.peek()
            if after and after[:2] == ("op", "/"):
                toks.next()
                kind2, value2, pos2 = toks.next()
                if kind2 != "int":
                    raise ValueError(f"expected integer denominator at position {pos2}")
                den = int(value2)
                if den == 0:
                    raise ValueError(f"zero denominator at position {pos2}")
            coeff *= Fraction(num, den)
            while True:
                after = toks.peek()
                if after and after[:2] == ("op", "*"):
                    toks.next()
                    expo = monomial_mul(expo, parse_factor())
                else:
                    break
        elif kind == "name":
            expo = parse_factor()
            while True:
                after = toks.peek()
                if after and after[:2] == ("op", "*"):
                    toks.next()
                    expo = monomial_mul(expo, parse_factor())
                else:
                    break
        else:
            raise ValueError(f"expected coefficient or variable at position {pos} in {text!r}")
        return Polynomial(nvars, {expo: coeff})

    result = Polynomial.zero(nvars)
    sign = 1
    first = toks.peek()
    if first is None:
        raise ValueError("empty polynomial string")
    if first[:2] == ("op", "-"):
        toks.next()
        sign = -1
    elif first[:2] == ("op", "+"):
        toks.next()
    result = result + parse_term(sign)
    while True:
        nxt = toks.peek()
        if nxt is None:
            break
        kind, value, pos = nxt
        if kind == "op" and value in "+-":
            toks.next()
            result = result + parse_term(-1 if value == "-" else 1)
        else:
            raise ValueError(f"expected '+' or '-' at position {pos} in {text!r}")
    return result


def monomials_of_degree(nvars: int, degree: int) -> Iterator[Exponents]:
    """All exponent tuples of the given total degree, deterministic order."""
    if nvars == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in monomials_of_degree(nvars - 1, degree - first):
            yield (first,) + rest
