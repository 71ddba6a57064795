"""Truncated univariate power series over Q.

Every series carries its own truncation order; binary operations truncate to
the minimum order of their operands and never fabricate coefficients beyond
it.  This keeps identity checks honest: a confirmed identity is confirmed
exactly to the reported order, no further.

Also here: the hypergeometric 2F1 truncation, Frobenius log-solutions of the
ODE attached to a second-order polynomial recurrence, and the theta series of
the planar hexagonal lattice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import RatLike, UniPoly, rat, rat_str
from .sequences import _run_extended


class UniSeries:
    """Power series truncated at order M (coefficients of z^0 .. z^M)."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[RatLike], order: Optional[int] = None):
        cs = [rat(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[:order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("series needs at least the constant coefficient")
        self.coeffs: list[Fraction] = cs

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def zero(cls, order: int) -> "UniSeries":
        return cls([], order)

    @classmethod
    def one(cls, order: int) -> "UniSeries":
        return cls([1], order)

    @classmethod
    def z(cls, order: int) -> "UniSeries":
        return cls([0, 1], order)

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return self.coeffs[n]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniSeries):
            return NotImplemented
        m = min(self.order, other.order)
        return self.coeffs[:m + 1] == other.coeffs[:m + 1]

    def truncate(self, order: int) -> "UniSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return UniSeries(self.coeffs[:order + 1])

    def __add__(self, other: "UniSeries") -> "UniSeries":
        m = min(self.order, other.order)
        return UniSeries([self.coeffs[n] + other.coeffs[n] for n in range(m + 1)])

    def __sub__(self, other: "UniSeries") -> "UniSeries":
        m = min(self.order, other.order)
        return UniSeries([self.coeffs[n] - other.coeffs[n] for n in range(m + 1)])

    def __neg__(self) -> "UniSeries":
        return UniSeries([-c for c in self.coeffs])

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return UniSeries([c * q for c in self.coeffs])
        if not isinstance(other, UniSeries):
            return NotImplemented
        m = min(self.order, other.order)
        out = [Fraction(0)] * (m + 1)
        for i, a in enumerate(self.coeffs[:m + 1]):
            if a:
                for j in range(m + 1 - i):
                    b = other.coeffs[j]
                    if b:
                        out[i + j] += a * b
        return UniSeries(out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniSeries":
        if k < 0:
            return self.inverse() ** (-k)
        result = UniSeries.one(self.order)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    def inverse(self) -> "UniSeries":
        if not self.coeffs[0]:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        return self._ode(1 / self.coeffs[0], self.coeffs[0], 0, 1)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            q = rat(other)
            return UniSeries([c / q for c in self.coeffs])
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self * other.inverse()

    def compose(self, inner: "UniSeries") -> "UniSeries":
        """self(inner(z)); requires inner(0) = 0."""
        if inner.coeffs[0]:
            raise ValueError("composition requires inner constant term 0")
        m = min(self.order, inner.order)
        acc = UniSeries.zero(0)
        # Horner from the top down.  inner(0) = 0, so the partial sum at c_i,
        # multiplied by inner i more times, reaches the result only up to
        # z^(m-i), and its unknown z^(m-i) term may be padded with 0.
        for i in range(m, -1, -1):
            acc = (UniSeries(acc.coeffs, m - i) * inner.truncate(m - i)
                   + UniSeries([self.coeffs[i]], m - i))
        return acc

    def derivative(self) -> "UniSeries":
        """Formal derivative; order drops by one."""
        if self.order == 0:
            return UniSeries([0])
        return UniSeries([n * c for n, c in enumerate(self.coeffs)][1:])

    def integrate(self) -> "UniSeries":
        """Antiderivative with zero constant term; order grows by one."""
        return UniSeries([Fraction(0)] + [c / (n + 1) for n, c in enumerate(self.coeffs)])

    def exp(self) -> "UniSeries":
        """exp(f) for f with f(0) = 0, via g' = f' g."""
        if self.coeffs[0]:
            raise ValueError("exp requires zero constant term")
        return self._ode(Fraction(1), 1, 1, 0)

    def log(self) -> "UniSeries":
        """log(f) for f with f(0) = 1."""
        if self.coeffs[0] != 1:
            raise ValueError("log requires constant term 1")
        m = self.order
        if m == 0:
            return UniSeries([0])
        return (self.derivative() * self.inverse().truncate(m - 1)).integrate()

    def power(self, r: RatLike) -> "UniSeries":
        """f^r for rational r; requires f(0) = 1."""
        if self.coeffs[0] != 1:
            raise ValueError("fractional power requires constant term 1")
        return self._ode(Fraction(1), 1, rat(r) + 1, 1)

    def _ode(self, g0: Fraction, c: RatLike, a: RatLike, b: RatLike) -> "UniSeries":
        """g with g(0) = g0 and (c + b*(f - f0))*g' = (a - b)*f'*g for f = self, that
        is c*n*g_n = sum_{k=1..n} (a*k - b*n)*f_k*g_{n-k}: J. C. P. Miller's
        recurrence for 1/f, f^r and exp f (Knuth, TAOCP 2, 4.7)."""
        f = self.coeffs
        g = [g0]
        for n in range(1, len(f)):
            g.append(sum(((a * k - b * n) * f[k] * g[n - k]
                          for k in range(1, n + 1) if f[k]), Fraction(0)) / (c * n))
        return UniSeries(g)

    def reversion(self) -> "UniSeries":
        """Compositional inverse g with self(g(q)) = q, to the same order.

        Lagrange inversion: g_n = [z^(n-1)] h^n / n with h = z/self.
        """
        if self.coeffs[0]:
            raise ValueError("reversion requires zero constant term")
        if self.order == 0:
            return UniSeries([Fraction(0)])
        if not self.coeffs[1]:
            raise ValueError("reversion requires nonzero linear coefficient")
        h = UniSeries(self.coeffs[1:]).inverse()
        hn = UniSeries.one(h.order)
        g = [Fraction(0)]
        for n in range(1, self.order + 1):
            hn = hn * h
            g.append(hn.coeffs[n - 1] / n)
        return UniSeries(g)

    def scale_argument(self, s: RatLike) -> "UniSeries":
        """f(s*z)."""
        s = rat(s)
        return UniSeries([c * s ** n for n, c in enumerate(self.coeffs)])

    def __repr__(self) -> str:
        shown = ", ".join(rat_str(c) for c in self.coeffs[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"UniSeries([{shown}{tail}]; order={self.order})"


def hypergeometric_2f1(a: RatLike, b: RatLike, c: RatLike, M: int) -> UniSeries:
    """Truncated 2F1(a, b; c; z) = sum z^n prod_{j<n} (a+j)(b+j)/((1+j)(c+j))."""
    a, b, c = rat(a), rat(b), rat(c)
    coeffs = [Fraction(1)]
    term = Fraction(1)
    for j in range(M):
        den = (1 + j) * (c + j)
        if den == 0:
            raise ZeroDivisionError(
                f"2F1 lower parameter hits a non-positive integer at term {j + 1}")
        term = term * (a + j) * (b + j) / den
        coeffs.append(term)
    return UniSeries(coeffs, M)


def verify_series_identity(lhs: UniSeries, rhs: UniSeries):
    """None if equal to the minimum order; else (index, lhs value, rhs value)."""
    m = min(lhs.order, rhs.order)
    for n in range(m + 1):
        if lhs.coeffs[n] != rhs.coeffs[n]:
            return (n, lhs.coeffs[n], rhs.coeffs[n])
    return None


def theta_hexagonal(M: int) -> UniSeries:
    """Theta series of the hexagonal lattice: sum over n,m of q^(n^2+nm+m^2)."""
    if M < 0:
        raise ValueError("order must be >= 0")
    counts = [0] * (M + 1)
    # n^2+nm+m^2 >= (n^2+m^2)/2, so |n|,|m| <= sqrt(2M) suffices
    bound = math.isqrt(2 * M) + 1
    for n in range(-bound, bound + 1):
        for m in range(-bound, bound + 1):
            q = n * n + n * m + m * m
            if q <= M:
                counts[q] += 1
    return UniSeries(counts, M)


@dataclass(frozen=True)
class LogSolution:
    """Frobenius pair at a doubled exponent 0: y1 = y0*log z + g, g(0) = 0."""
    y0: UniSeries
    g: UniSeries

    def q_series(self) -> UniSeries:
        """q(z) = exp(y1/y0) = z * exp(g/y0)."""
        return UniSeries.z(self.y0.order) * (self.g / self.y0).exp()


def recurrence_to_frobenius(rec, M: int) -> LogSolution:
    """Frobenius solutions at 0 of the ODE attached to a second-order recurrence.

    The recurrence sum_j p_j(n) u_{n+j} = 0 maps to the operator
    sum_j z^(r-j) p_j(theta - j) with theta = z d/dz; the indicial polynomial
    is p_r(s - r), which must have a double root at s = 0.  y0 is the analytic
    solution with y0(0) = 1; g is the series part of y1 = y0 log z + g,
    obtained by equating coefficients in L g = -L' y0 with L' the operator
    with p_j replaced by dp_j/dn.
    """
    ps: Sequence[UniPoly] = rec.coeffs
    r = len(ps) - 1
    if r != 2:
        raise ValueError("Frobenius construction implemented for order 2 only")
    pr = ps[r]
    if pr(-r) != 0 or pr.derivative()(-r) != 0:
        raise ValueError("no log solution at origin: indicial roots not doubled at 0")

    y0 = _run_extended(ps, M, (1,))
    dps = [p.derivative() for p in ps]
    g = _run_extended(ps, M, (0,), lambda n: sum(
        (dps[j](n) * y0[n + j] for j in range(max(0, -n), r + 1)), Fraction(0)))
    return LogSolution(UniSeries(y0, M), UniSeries(g, M))
