"""Sparse multivariate polynomials over an exact coefficient ring.

Coefficients are either `Fraction` or `UniPoly` (polynomials in a parameter
lambda); both satisfy the ring protocol used here (+, -, *, truthiness for
zero tests).  Terms are kept in a dict keyed by exponent tuples; serialization
uses graded lexicographic order so output is deterministic.  The module
gives the ring operations, a symmetry test, JSON forms and the symmetric
denominators sum_k c_k e_k(x_1, ..., x_d) that every family expands.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from typing import Mapping, Sequence, Union

from .exactalg import UniPoly, binary_power, plain, rat

Coeff = Union[Fraction, UniPoly]
Exponent = tuple[int, ...]


def depends_on_lambda(c: Coeff) -> bool:
    """Whether c is a non-constant `UniPoly`; a constant one is a rational."""
    return isinstance(c, UniPoly) and not c.is_constant()


def grlex_key(exp: Exponent) -> tuple:
    # graded lex with x1 > x2 > ...: within a degree layer, (1,0) precedes (0,1)
    return (sum(exp), tuple(-e for e in exp))


class MultiPoly:
    """Sparse polynomial in d variables; immutable by convention."""

    __slots__ = ("dim", "terms")

    def __init__(self, dim: int, terms: Mapping[Exponent, Coeff] = ()):
        if type(dim) is not int or dim < 1:  # a JSON 3.0 or true is no dimension
            raise ValueError(f"dimension must be an integer >= 1, got {dim!r}")
        self.dim = dim
        clean: dict[Exponent, Coeff] = {}
        for exp, c in dict(terms).items():
            exp = tuple(exp)
            if len(exp) != dim:
                raise ValueError(f"exponent {exp} has length != {dim}")
            if any(type(e) is not int or e < 0 for e in exp):
                raise ValueError(f"exponent {exp} is not a tuple of integers >= 0")
            if c:
                clean[exp] = c
        self.terms = clean

    @classmethod
    def constant(cls, dim: int, c) -> "MultiPoly":
        return cls(dim, {(0,) * dim: _coerce_coeff(c)})

    def is_zero(self) -> bool:
        return not self.terms

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MultiPoly):
            return NotImplemented
        return self.dim == other.dim and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.dim, frozenset(self.terms.items())))

    def constant_term(self) -> Coeff:
        return self.terms.get((0,) * self.dim, Fraction(0))

    def __add__(self, other: "MultiPoly") -> "MultiPoly":
        self._check_dim(other)
        out = dict(self.terms)
        for exp, c in other.terms.items():
            out[exp] = out.get(exp, Fraction(0)) + c
        return MultiPoly(self.dim, out)

    def __neg__(self) -> "MultiPoly":
        return MultiPoly(self.dim, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MultiPoly") -> "MultiPoly":
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction, UniPoly)):
            o = _coerce_coeff(other)
            return MultiPoly(self.dim, {e: c * o for e, c in self.terms.items()})
        if not isinstance(other, MultiPoly):
            return NotImplemented
        self._check_dim(other)
        out: dict[Exponent, Coeff] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                out[e] = out.get(e, Fraction(0)) + c1 * c2
        return MultiPoly(self.dim, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "MultiPoly":
        return binary_power(self, k, MultiPoly.constant(self.dim, 1))

    def is_symmetric(self) -> bool:
        """True if invariant under all permutations of the variables.

        Invariance under adjacent transpositions suffices.
        """
        for j in range(self.dim - 1):
            for exp, c in self.terms.items():
                swapped = list(exp)
                swapped[j], swapped[j + 1] = swapped[j + 1], swapped[j]
                if self.terms.get(tuple(swapped), Fraction(0)) != c:
                    return False
        return True

    def sorted_terms(self) -> list[tuple[Exponent, Coeff]]:
        return sorted(self.terms.items(), key=lambda kv: grlex_key(kv[0]))

    def to_json(self) -> dict:
        return {"dim": self.dim, "terms": [{"exp": list(exp), "coeff": plain(c)}
                                           for exp, c in self.sorted_terms()]}

    @classmethod
    def from_json(cls, data: dict) -> "MultiPoly":
        terms: dict[Exponent, Coeff] = {}
        for t in data["terms"]:
            c = t["coeff"]
            coeff: Coeff = UniPoly.from_json(c) if isinstance(c, list) else rat(c)
            terms[tuple(t["exp"])] = coeff
        return cls(data["dim"], terms)

    def _check_dim(self, other: "MultiPoly") -> None:
        if self.dim != other.dim:
            raise ValueError(f"dimension mismatch: {self.dim} vs {other.dim}")

    def __repr__(self) -> str:
        if not self.terms:
            return f"MultiPoly({self.dim}, 0)"
        bits = []
        for exp, c in self.sorted_terms():
            mono = "*".join(
                f"x{j}^{e}" if e > 1 else f"x{j}"
                for j, e in enumerate(exp) if e
            )
            bits.append(f"({c}){'*' + mono if mono else ''}")
        return f"MultiPoly({self.dim}, " + " + ".join(bits) + ")"


def _coerce_coeff(c) -> Coeff:
    if isinstance(c, UniPoly):
        return c
    return rat(c)


def elementary_symmetric(d: int, k: int) -> MultiPoly:
    """e_k(x_1, ..., x_d): sum of all squarefree degree-k monomials; e_0 = 1."""
    if not 0 <= k <= d:
        raise ValueError(f"need 0 <= k <= d, got k={k}, d={d}")
    terms: dict[Exponent, Coeff] = {}
    for combo in itertools.combinations(range(d), k):
        exp = [0] * d
        for j in combo:
            exp[j] = 1
        terms[tuple(exp)] = Fraction(1)
    return MultiPoly(d, terms)


def symmetric_denominator(coeffs: Sequence) -> MultiPoly:
    """Sum c_k * e_k(x_1, ..., x_d) for coefficients c_0..c_d."""
    d = len(coeffs) - 1
    if d < 1:
        raise ValueError("need at least c_0 and c_1")
    acc = MultiPoly(d)
    for k, c in enumerate(coeffs):
        c = _coerce_coeff(c)
        if c:
            acc = acc + elementary_symmetric(d, k) * c
    return acc
