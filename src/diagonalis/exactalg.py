"""Exact arithmetic foundation: rationals and univariate polynomials.

Rationals are `fractions.Fraction` (always reduced, positive denominator).
`UniPoly` is a dense univariate polynomial over the rationals, used for
recurrence coefficients in n, as the coefficient ring Q[lambda] of a box
expanded with a symbolic parameter, and for the symmetric polynomial of a
critical-point report.  It is held as `UniSeries` is: integer numerators
over one denominator, which `over_lcm` builds and `reduce_nums` keeps
reduced; arithmetic runs on the integers.
`plain` gives the one JSON form of these values, `binary_power` the one
square-and-multiply, `convolve` the one integer product of `UniPoly` and
`UniSeries`, and `pack` the one packer of integers into the slots of an int.
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math
import operator
from fractions import Fraction
from typing import Iterable, Sequence, Union

RatLike = Union[int, Fraction, str]


def rat(x: RatLike) -> Fraction:
    """Coerce ints, Fractions and "num/den" strings to a Fraction.

    A float is refused: its binary value is rarely the rational meant; so
    is a bool, which would read JSON's true as 1."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, float):
        raise ValueError(f"not an exact rational: float {x!r}")
    if isinstance(x, bool):
        raise ValueError(f"not a rational number: {x!r}")
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


def convolve(a: Sequence[int], b: Sequence[int], n: int) -> list[int]:
    """The first n coefficients of the product of a and b, by schoolbook."""
    return [sum(map(operator.mul, a[:k + 1], b[k::-1])) for k in range(n)]


def pack(values: Sequence[int], width: int) -> int:
    """sum values[i] 2^(width i) by Horner: the int whose width-bit slot i holds
    values[i] if each is in [0, 2^width), or the polynomial `values` at 2^width."""
    v = 0
    for a in reversed(values):
        v = (v << width) + a
    return v


def over_lcm(qs: Iterable) -> tuple[list[int], int]:
    """Rationals q_i (ints or Fractions) as numerators n_i over D, the lcm of
    their denominators.  Each q_i is reduced, so gcd(n, D) = 1 already."""
    qs = [q.as_integer_ratio() for q in qs]
    den = functools.reduce(math.lcm, (b for _, b in qs), 1)
    return [a * (den // b) for a, b in qs], den


def reduce_nums(nums: list[int], den: int) -> tuple[list[int], int]:
    """nums / den for den > 0, reduced by the one gcd of all of them."""
    # reduce, not a star call: the argument tuples of math.gcd(den, *nums)
    # pile up on CPython's tuple free lists, and peak RSS crept run by run
    g = functools.reduce(math.gcd, nums, den)
    return ([x // g for x in nums], den // g) if g > 1 else (nums, den)


class UniPoly:
    """Dense univariate polynomial over Q, held as integer numerators `nums`,
    lowest degree first with no trailing zeros, over one denominator den > 0
    with gcd(nums, den) = 1; the zero polynomial is () over 1."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Iterable[RatLike] = ()):
        nums, den = over_lcm(c if isinstance(c, (int, Fraction)) else rat(c)
                             for c in coeffs)
        while nums and not nums[-1]:  # a zero is 0/1: den and gcd stay
            nums.pop()
        self.nums, self.den = tuple(nums), den

    @classmethod
    def from_nums(cls, nums: Sequence[int], den: int) -> "UniPoly":
        """The polynomial with coefficients nums[i] / den, for any den != 0."""
        nums = list(nums) if den > 0 else [-x for x in nums]
        while nums and not nums[-1]:
            nums.pop()
        out = object.__new__(cls)
        nums, out.den = reduce_nums(nums, abs(den))
        out.nums = tuple(nums)
        return out

    @classmethod
    def const(cls, c: RatLike) -> "UniPoly":
        return cls([c])

    @classmethod
    def x(cls) -> "UniPoly":
        return cls([0, 1])

    @property
    def coeffs(self) -> tuple[Fraction, ...]:
        """The exact coefficients, built on each read."""
        return tuple(Fraction(x, self.den) for x in self.nums)

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return len(self.nums) - 1

    def is_zero(self) -> bool:
        return not self.nums

    def is_constant(self) -> bool:
        return len(self.nums) <= 1

    def constant_value(self) -> Fraction:
        if not self.is_constant():
            raise ValueError(f"{self} is not constant")
        return self[0]

    def __bool__(self) -> bool:
        return bool(self.nums)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, UniPoly):
            return self.nums == other.nums and self.den == other.den
        if isinstance(other, (int, Fraction)):
            return self.is_constant() and self[0] == other
        return NotImplemented

    def __hash__(self) -> int:
        # a constant equals its value, so it hashes as its value does
        return hash(self[0] if self.is_constant() else (self.nums, self.den))

    def __getitem__(self, i: int) -> Fraction:
        return Fraction(self.nums[i] if 0 <= i < len(self.nums) else 0, self.den)

    def _combine(self, other, sign: int):
        """self + sign*other over the lcm of the two denominators."""
        if isinstance(other, (int, Fraction)):
            other = UniPoly.const(other)
        elif not isinstance(other, UniPoly):
            return NotImplemented
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        pairs = itertools.zip_longest(self.nums, other.nums, fillvalue=0)
        return UniPoly.from_nums([x * s + y * t for x, y in pairs], den)

    def __add__(self, other):
        return self._combine(other, 1)

    __radd__ = __add__

    def __neg__(self) -> "UniPoly":
        return self * -1

    def __sub__(self, other):
        return self._combine(other, -1)

    def __rsub__(self, other):
        return (-self)._combine(other, 1)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            a, b = other.as_integer_ratio()
            return UniPoly.from_nums([x * a for x in self.nums], self.den * b)
        if not isinstance(other, UniPoly):
            return NotImplemented
        a, b = self.nums, other.nums
        n = len(a) + len(b) - 1  # convolve reads a[:n] and b[:n]: pad both to n
        return UniPoly.from_nums(convolve(a + (0,) * (n - len(a)), b + (0,) * (n - len(b)), n),
                                 self.den * other.den)

    __rmul__ = __mul__

    def __truediv__(self, other):
        if not isinstance(other, (int, Fraction)):
            return NotImplemented
        if not other:
            raise ZeroDivisionError("polynomial division by zero")
        a, b = other.as_integer_ratio()
        return UniPoly.from_nums([x * b for x in self.nums], self.den * a)

    def __pow__(self, k: int) -> "UniPoly":
        return binary_power(self, k, UniPoly.const(1))

    def __call__(self, x: RatLike) -> Fraction:
        """Value at a/b, b > 0, by homogeneous Horner on integers: with h the
        sum of c_i a^i b^(k-i) over the numerators c_i for degree k, it is
        h / (den b^k), divided once at the end."""
        a, b = (x if isinstance(x, (int, Fraction)) else rat(x)).as_integer_ratio()
        acc, bk = 0, 1
        for c in reversed(self.nums):
            acc, bk = acc * a + c * bk, bk * b
        return Fraction(acc * b, self.den * bk)

    def derivative(self) -> "UniPoly":
        return UniPoly.from_nums([i * c for i, c in enumerate(self.nums)][1:], self.den)

    def leading_coefficient(self) -> Fraction:
        return self[self.degree]

    def content(self) -> Fraction:
        """Positive rational c such that self/c has coprime integer coefficients."""
        return Fraction(functools.reduce(math.gcd, self.nums, 0) or 1, self.den)

    def primitive(self) -> "UniPoly":
        """Integer-primitive multiple of self with positive leading coefficient."""
        g = functools.reduce(math.gcd, self.nums, 0) or 1  # 1 for zero
        return UniPoly.from_nums(self.nums, -g if self.nums and self.nums[-1] < 0 else g)

    def to_json(self) -> list[str]:
        return [str(c) for c in self.coeffs]

    @classmethod
    def from_json(cls, data: Sequence[str]) -> "UniPoly":
        return cls(map(rat, data))  # not the constructor's int path: True is an int

    def __repr__(self) -> str:
        terms = [str(c) + ("" if i == 0 else "*x" if i == 1 else f"*x^{i}")
                 for i, c in enumerate(self.coeffs) if c]
        return "UniPoly(" + (" + ".join(terms) or "0") + ")"
