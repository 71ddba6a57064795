"""Exact arithmetic foundation: rationals, univariate polynomials, binomials.

Rationals are `fractions.Fraction` (always reduced, positive denominator).
`UniPoly` is a dense univariate polynomial over the rationals, used both for
recurrence coefficients in n and as the coefficient ring Q[lambda] when
series are expanded with a symbolic parameter.  `plain` gives the one JSON
form of these values, and `binary_power` the one square-and-multiply.
"""

from __future__ import annotations

import dataclasses
import math
from fractions import Fraction
from typing import Iterable, Sequence, Union

RatLike = Union[int, Fraction, str]


def rat(x: RatLike) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to a Fraction.

    A float is refused: its binary value is rarely the rational meant."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ValueError(f"not an exact rational: float {x!r}")
    try:
        return Fraction(x)
    except ZeroDivisionError:
        raise ValueError(f"zero denominator in {x!r}") from None
    except TypeError:
        raise ValueError(f"not a rational number: {x!r}") from None


def plain(x):
    """The JSON form of a value: a rational as its str, "num" or "num/den";
    a value with a to_json method, such as a `UniPoly`, as what it returns;
    a dataclass as a dict of its fields in declaration order; a dict, tuple
    or list as a dict or list of plain items; anything else as it is."""
    if isinstance(x, Fraction):
        return str(x)
    if hasattr(x, "to_json"):
        return x.to_json()
    if dataclasses.is_dataclass(x):
        return {f.name: plain(getattr(x, f.name)) for f in dataclasses.fields(x)}
    if isinstance(x, dict):
        return {k: plain(v) for k, v in x.items()}
    if isinstance(x, (tuple, list)):
        return [plain(v) for v in x]
    return x


def binary_power(x, k: int, one):
    """x ** k for an integer k >= 0 by square-and-multiply; `one` is x ** 0.
    Neither a product by `one` nor a last squaring, which no step reads,
    is computed."""
    if k < 0:
        raise ValueError(f"negative power {k}")
    result = None
    while k:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if k:
            x = x * x
    return one if result is None else result


def binomial(n: int, k: int) -> Fraction:
    """Binomial coefficient C(n, k); zero outside 0 <= k <= n."""
    if n < 0:
        raise ValueError(f"binomial requires n >= 0, got {n}")
    if k < 0 or k > n:
        return Fraction(0)
    return Fraction(math.comb(n, k))


class UniPoly:
    """Dense univariate polynomial over Q.

    Coefficients are stored lowest degree first with no trailing zeros;
    the zero polynomial has an empty coefficient tuple.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def const(cls, c: RatLike) -> "UniPoly":
        return cls([rat(c)])

    @classmethod
    def x(cls) -> "UniPoly":
        return cls([0, 1])

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.coeffs) - 1

    def is_zero(self) -> bool:
        return not self.coeffs

    def is_constant(self) -> bool:
        return len(self.coeffs) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self.coeffs[0] if self.coeffs else Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == UniPoly.const(other).coeffs
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __getitem__(self, i: int) -> Fraction:
        if 0 <= i < len(self.coeffs):
            return self.coeffs[i]
        return Fraction(0)

    def __add__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        n = max(len(self.coeffs), len(other.coeffs))
        return UniPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return UniPoly([-c for c in self.coeffs])

    def __sub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return self + (-other)

    def __rsub__(self, other):
        other = self._coerce(other)
        if other is NotImplemented:
            return NotImplemented
        return other + (-self)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c * other for c in self.coeffs])
        if not isinstance(other, UniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return UniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return UniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return UniPoly([c / rat(other) for c in self.coeffs])
        return NotImplemented

    def __pow__(self, k: int) -> "UniPoly":
        return binary_power(self, k, UniPoly.const(1))

    def __call__(self, x: RatLike) -> Fraction:
        """Horner evaluation at a rational point."""
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "UniPoly":
        return UniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def divmod(self, other: "UniPoly") -> tuple["UniPoly", "UniPoly"]:
        """Euclidean division over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading_coefficient()
        if len(rem) - 1 < d:
            return UniPoly(), self
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                q = rem[i] / lc
                quot[i - d] = q
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= q * b
        return UniPoly(quot), UniPoly(rem)

    def __mod__(self, other: "UniPoly") -> "UniPoly":
        return self.divmod(other)[1]

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        if self.is_zero():
            return Fraction(1)
        num_gcd = 0
        den_lcm = 1
        for c in self.coeffs:
            if c:
                num_gcd = math.gcd(num_gcd, abs(c.numerator))
                den_lcm = den_lcm * c.denominator // math.gcd(den_lcm, c.denominator)
        return Fraction(num_gcd, den_lcm)

    def primitive(self) -> "UniPoly":
        """Integer-primitive multiple of self with positive leading coefficient."""
        if self.is_zero():
            return self
        p = self / self.content()
        if p.leading_coefficient() < 0:
            p = -p
        return p

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "UniPoly":
        return cls([rat(s) for s in data])

    @staticmethod
    def _coerce(other):
        if isinstance(other, UniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return UniPoly.const(other)
        return NotImplemented

    def __repr__(self) -> str:
        if not self.coeffs:
            return "UniPoly(0)"
        parts = []
        for i, c in enumerate(self.coeffs):
            if not c:
                continue
            if i == 0:
                parts.append(str(c))
            elif i == 1:
                parts.append(f"{c}*x")
            else:
                parts.append(f"{c}*x^{i}")
        return "UniPoly(" + " + ".join(parts) + ")"

