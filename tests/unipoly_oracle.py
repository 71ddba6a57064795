"""Test oracle: the `Fraction` form of `UniPoly` that the integer one
replaced.  Every operation runs on one `Fraction` per coefficient, as the
textbook loops do, so the integer paths can be compared against it."""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterable, Sequence

from diagonalis.exactalg import RatLike, binary_power, rat


class FractionUniPoly:
    """Dense univariate polynomial over Q, one `Fraction` per coefficient,
    lowest degree first with no trailing zeros."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        cs = [rat(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def const(cls, c: RatLike) -> "FractionUniPoly":
        return cls([rat(c)])

    @classmethod
    def x(cls) -> "FractionUniPoly":
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
        if isinstance(other, FractionUniPoly):
            return self.coeffs == other.coeffs
        if isinstance(other, (int, Fraction)):
            return self.coeffs == FractionUniPoly.const(other).coeffs
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
        return FractionUniPoly([self[i] + other[i] for i in range(n)])

    __radd__ = __add__

    def __neg__(self) -> "FractionUniPoly":
        return FractionUniPoly([-c for c in self.coeffs])

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
            return FractionUniPoly([c * other for c in self.coeffs])
        if not isinstance(other, FractionUniPoly):
            return NotImplemented
        if not self.coeffs or not other.coeffs:
            return FractionUniPoly()
        out = [Fraction(0)] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, a in enumerate(self.coeffs):
            if a:
                for j, b in enumerate(other.coeffs):
                    out[i + j] += a * b
        return FractionUniPoly(out)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return FractionUniPoly([c / rat(other) for c in self.coeffs])
        return NotImplemented

    def __pow__(self, k: int) -> "FractionUniPoly":
        return binary_power(self, k, FractionUniPoly.const(1))

    def __call__(self, x: RatLike) -> Fraction:
        """Horner evaluation at a rational point."""
        x = rat(x)
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def derivative(self) -> "FractionUniPoly":
        return FractionUniPoly([i * c for i, c in enumerate(self.coeffs)][1:])

    def leading_coefficient(self) -> Fraction:
        if not self.coeffs:
            return Fraction(0)
        return self.coeffs[-1]

    def divmod(self, other: "FractionUniPoly") -> tuple["FractionUniPoly", "FractionUniPoly"]:
        """Euclidean division over Q."""
        if other.is_zero():
            raise ZeroDivisionError("polynomial division by zero")
        rem = list(self.coeffs)
        d = other.degree
        lc = other.leading_coefficient()
        if len(rem) - 1 < d:
            return FractionUniPoly(), self
        quot = [Fraction(0)] * (len(rem) - d)
        for i in range(len(rem) - 1, d - 1, -1):
            if rem[i]:
                q = rem[i] / lc
                quot[i - d] = q
                for j, b in enumerate(other.coeffs):
                    rem[i - d + j] -= q * b
        return FractionUniPoly(quot), FractionUniPoly(rem)

    def __mod__(self, other: "FractionUniPoly") -> "FractionUniPoly":
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

    def primitive(self) -> "FractionUniPoly":
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
    def from_json(cls, data: Sequence[str]) -> "FractionUniPoly":
        return cls([rat(s) for s in data])

    @staticmethod
    def _coerce(other):
        if isinstance(other, FractionUniPoly):
            return other
        if isinstance(other, (int, Fraction)):
            return FractionUniPoly.const(other)
        return NotImplemented

    def __repr__(self) -> str:
        if not self.coeffs:
            return "FractionUniPoly(0)"
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
        return "FractionUniPoly(" + " + ".join(parts) + ")"

