"""Truncated univariate power series over Q.

Every series carries its own truncation order; binary operations truncate to
the minimum order of their operands and never fabricate coefficients beyond
it.  This keeps identity checks honest: a confirmed identity is confirmed
exactly to the reported order, no further.
Coefficients are integers over one common denominator, so an operation
reduces once, not once per coefficient.

A `UniSeries` is also every exact sequence u_0, u_1, ...: a diagonal, an
oracle, and the terms of `_run_extended`, the one recurrence runner, which
appends them by the rule of `_ode`.  Also here: 2F1 run from its term
recurrence, Frobenius log-solutions of the ODE attached to a second-order
polynomial recurrence, and the theta series of the hexagonal lattice.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional, Sequence

from .exactalg import RatLike, UniPoly, binary_power, convolve, over_lcm, rat, reduce_nums


class UniSeries:
    """Power series truncated at order M (coefficients of z^0 .. z^M), held as
    integer numerators nums[n] over one denominator den > 0 with
    gcd(nums, den) = 1, as a box's diagonal comes from its kernel integers."""

    __slots__ = ("nums", "den")

    def __init__(self, coeffs: Sequence[RatLike], order: Optional[int] = None):
        cs = [rat(c) for c in coeffs]
        if order is not None:
            if order < 0:
                raise ValueError("order must be >= 0")
            cs = cs[:order + 1] + [Fraction(0)] * (order + 1 - len(cs))
        elif not cs:
            raise ValueError("series needs at least the constant coefficient")
        self.nums, self.den = over_lcm(cs)

    @classmethod
    def _of(cls, nums: list[int], den: int) -> "UniSeries":
        """nums / den for den > 0, reduced by the one gcd of all of them."""
        out = object.__new__(cls)
        out.nums, out.den = reduce_nums(nums, den)
        return out

    @property
    def coeffs(self) -> list[Fraction]:
        """The exact coefficients, built on each read."""
        return [Fraction(x, self.den) for x in self.nums]

    @property
    def order(self) -> int:
        return len(self.nums) - 1

    @classmethod
    def one(cls, order: int) -> "UniSeries":
        return cls([1], order)

    @classmethod
    def z(cls, order: int) -> "UniSeries":
        return cls([0, 1], order)

    def __getitem__(self, n: int) -> Fraction:
        if not 0 <= n <= self.order:
            raise IndexError(f"coefficient {n} beyond truncation order {self.order}")
        return Fraction(self.nums[n], self.den)

    def _mismatch(self, other: "UniSeries") -> Optional[int]:
        """The first index up to the lower order where the two differ."""
        for n, (x, y) in enumerate(zip(self.nums, other.nums)):
            if x * other.den != y * self.den:
                return n
        return None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self._mismatch(other) is None

    def truncate(self, order: int) -> "UniSeries":
        if order > self.order:
            raise ValueError(f"cannot extend order {self.order} to {order}")
        return UniSeries._of(self.nums[:order + 1], self.den)

    def _combine(self, other: "UniSeries", sign: int) -> "UniSeries":
        """self + sign*other over the lcm of the two denominators."""
        den = math.lcm(self.den, other.den)
        s, t = den // self.den, sign * (den // other.den)
        return UniSeries._of([x * s + y * t for x, y in zip(self.nums, other.nums)], den)

    def __add__(self, other: "UniSeries") -> "UniSeries":
        return self._combine(other, 1)

    def __sub__(self, other: "UniSeries") -> "UniSeries":
        return self._combine(other, -1)

    def __neg__(self) -> "UniSeries":
        return UniSeries._of([-x for x in self.nums], self.den)

    def _scaled(self, q: Fraction) -> "UniSeries":
        return UniSeries._of([x * q.numerator for x in self.nums], self.den * q.denominator)

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(rat(other))
        if not isinstance(other, UniSeries):
            return NotImplemented
        a, b = self.nums, other.nums
        return UniSeries._of(convolve(a, b, min(len(a), len(b))), self.den * other.den)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "UniSeries":
        if k < 0:
            return self.inverse() ** (-k)
        return binary_power(self, k, UniSeries.one(self.order))

    def inverse(self) -> "UniSeries":
        if not self.nums[0]:
            raise ZeroDivisionError("series with zero constant term is not invertible")
        return self._ode(1 / self[0], self[0], 0, 1)

    def __truediv__(self, other):
        if isinstance(other, (int, Fraction)):
            return self._scaled(1 / rat(other))
        if not isinstance(other, UniSeries):
            return NotImplemented
        return self * other.inverse()

    def compose(self, inner: "UniSeries") -> "UniSeries":
        """self(inner(z)) to the lower order m of the two; requires inner(0) = 0.

        Baby steps and giant steps (M. S. Paterson and L. J. Stockmeyer, SIAM
        J. Comput. 2(1), 1973; R. P. Brent and H. T. Kung, J. ACM 25(4),
        1978): about 2 sqrt(K) series products where Horner takes K.  With v
        the valuation of g = inner, c_i g^i starts past z^m when v*i > m, so
        K = m//v + 1 coefficients count.  Each block
        B_j = sum_{i<b} c_(jb+i) g^i, b = ceil(sqrt(K)), is one integer
        combination of g^0 .. g^(b-1) over one denominator, and Horner in
        G = g^b runs over the blocks from the top.  G^j starts at z^(v*b*j),
        so B_j, and the partial sum from B_j up, count only to z^(m-v*b*j).
        Every power is held as g^i = z^(v*i) h^i, and a product by G as the
        product by h^b shifted up v*b places, so no product runs over zeros.
        """
        if inner.nums[0]:
            raise ValueError("composition requires inner constant term 0")
        m = min(self.order, inner.order)
        v = next((n for n, x in enumerate(inner.nums[:m + 1]) if x), m + 1)  # valuation
        K = m // v + 1
        b = math.isqrt(K - 1) + 1
        h, hden = reduce_nums(inner.nums[v:m + 1], inner.den)  # g = z^v h
        powers = [([1] + [0] * m, 1)]  # h^i to z^(m-v*i), over its denominator
        for i in range(1, b + 1):
            nums, den = powers[-1]
            powers.append(reduce_nums(convolve(nums, h, m - v * i + 1), den * hden))
        H, Hden = powers.pop()  # G = z^(v*b) H / Hden
        # column n holds L [z^n] g^i for i < b, L the lcm of their denominators
        L = math.lcm(*(den for _, den in powers))
        columns = list(zip(*([0] * (v * i) + [x * (L // den) for x in nums]
                             for i, (nums, den) in enumerate(powers))))
        cs, step = self.nums[:K], v * b

        def block(j: int) -> UniSeries:
            c = cs[j * b:j * b + b]
            return UniSeries._of([sum(map(operator.mul, c, col))
                                  for col in columns[:m - step * j + 1]], self.den * L)

        acc = block((K - 1) // b)
        for j in range((K - 1) // b - 1, -1, -1):
            acc = (UniSeries._of([0] * step + convolve(acc.nums, H, len(acc.nums)),
                                 acc.den * Hden) + block(j))
        return acc

    def derivative(self) -> "UniSeries":
        """Formal derivative; order drops by one."""
        if self.order == 0:
            return UniSeries([0])
        return UniSeries._of([n * x for n, x in enumerate(self.nums)][1:], self.den)

    def integrate(self) -> "UniSeries":
        """Antiderivative with zero constant term; order grows by one."""
        return UniSeries([0] + [Fraction(x, self.den * (n + 1))
                                for n, x in enumerate(self.nums)])

    def exp(self) -> "UniSeries":
        """exp(f) for f with f(0) = 0, via g' = f' g."""
        if self.nums[0]:
            raise ValueError("exp requires zero constant term")
        return self._ode(1, 1, 1, 0)

    def log(self) -> "UniSeries":
        """log(f) for f with f(0) = 1."""
        if self.nums[0] != self.den:
            raise ValueError("log requires constant term 1")
        m = self.order
        if m == 0:
            return UniSeries([0])
        return (self.derivative() * self.inverse().truncate(m - 1)).integrate()

    def power(self, r: RatLike) -> "UniSeries":
        """f^r for rational r; requires f(0) = 1."""
        if self.nums[0] != self.den:
            raise ValueError("fractional power requires constant term 1")
        return self._ode(1, 1, rat(r) + 1, 1)

    def _ode(self, g0: RatLike, c: RatLike, a: RatLike, b: RatLike) -> "UniSeries":
        """g with g(0) = g0 and (c + b*(f - f0))*g' = (a - b)*f'*g for f = self, that
        is c*n*g_n = sum_{k=1..n} (a*k - b*n)*f_k*g_{n-k}: J. C. P. Miller's
        recurrence for 1/f, f^r and exp f (Knuth, TAOCP 2, 4.7).

        On integers: with f = F/den, a*k - b*n = (A*k - B*n)/s and g_j = G_j/D
        for D the lcm of the denominators so far, g_n is one integer sum over
        s*den*c*n*D; D grows, and the G_j are rescaled, only when g_n needs it."""
        g0, c, a, b = rat(g0), rat(c), rat(a), rat(b)
        AF = [a.numerator * b.denominator * k * x for k, x in enumerate(self.nums)]
        BF = [b.numerator * a.denominator * x for x in self.nums]
        lower = a.denominator * b.denominator * self.den * c.numerator
        G, D = [g0.numerator], g0.denominator
        for n in range(1, len(AF)):
            rev = G[::-1]
            t = (sum(map(operator.mul, AF[1:n + 1], rev))
                 - n * sum(map(operator.mul, BF[1:n + 1], rev)))
            D = _append(G, D, Fraction(t * c.denominator, lower * n * D))
        return UniSeries._of(G, D)

    def reversion(self) -> "UniSeries":
        """Compositional inverse g with self(g(q)) = q, to the same order.

        Lagrange inversion: g_n = [z^(n-1)] h^n / n with h = z/self.
        """
        if self.nums[0]:
            raise ValueError("reversion requires zero constant term")
        if self.order == 0:
            return UniSeries([0])
        if not self.nums[1]:
            raise ValueError("reversion requires nonzero linear coefficient")
        h = UniSeries._of(self.nums[1:], self.den).inverse()
        hn = UniSeries.one(h.order)
        g = [Fraction(0)]
        for n in range(1, self.order + 1):
            hn = hn * h
            g.append(hn[n - 1] / n)
        return UniSeries(g)

    def scale_argument(self, s: RatLike) -> "UniSeries":
        """f(s*z)."""
        s, m = rat(s), self.order
        p, q = s.numerator, s.denominator
        return UniSeries._of([x * p ** n * q ** (m - n) for n, x in enumerate(self.nums)],
                             self.den * q ** m)

    def __repr__(self) -> str:
        shown = ", ".join(str(Fraction(x, self.den)) for x in self.nums[:8])
        tail = ", ..." if self.order > 7 else ""
        return f"UniSeries([{shown}{tail}]; order={self.order})"


def _append(nums: list[int], den: int, q: Fraction) -> int:
    """Append q to the numerators `nums` over `den`, rescaling them only when
    q needs it, and return their new denominator lcm(den, q.denominator)."""
    grow = q.denominator // math.gcd(den, q.denominator)
    if grow > 1:
        nums[:] = [x * grow for x in nums]
        den *= grow
    nums.append(q.numerator * (den // q.denominator))
    return den


def _cleared(ps: Sequence[UniPoly]) -> tuple[list[tuple[int, ...]], int]:
    """Each D p_j as integer coefficients, and D, the lcm of their denominators."""
    D = math.lcm(*(p.den for p in ps))
    return [tuple(c * (D // p.den) for c in p.nums) for p in ps], D


def _instance(polys: list[tuple[int, ...]], n: int, nums: Sequence[int]) -> int:
    """Instance n of a recurrence with integer coefficients P_j, read on
    numerators: sum_j P_j(n) nums[n+j] over 0 <= n+j < len(nums)."""
    npows = [n ** k for k in range(max(map(len, polys), default=0))]
    return sum(sum(map(operator.mul, cs, npows)) * u
               for cs, u in zip(polys[max(0, -n):], nums[max(0, n):n + len(polys)]))


def _run_extended(coeffs: Sequence[UniPoly], upto: int, initial: UniSeries,
                  forcing: Optional[tuple] = None) -> UniSeries:
    """u_0..u_upto of sum_j p_j(n) u_{n+j} = -sum_j q_j(n) v_{n+j}, extended
    by u_k = v_k = 0 for k < 0: u_0, u_1, ... are `initial`, then the
    instances n = len(initial)-r .. upto-r are each solved for u_{n+r}.
    `coeffs` are the p_j and `forcing` is (q_j, v), none for 0.  Initial
    terms past `upto` are kept, so the order is max(upto, initial.order).
    With P_j = D p_j, u = U/E and the forcing F/fden, each term is the one
    `Fraction` -(fden (instance n on U) + D E F) / (P_r(n) E fden)."""
    if upto < 0:
        raise ValueError(f"cannot extend up to a negative index {upto}")
    qs, v = forcing or ((), UniSeries([0]))
    (polys, D), (fpolys, fden) = _cleared(coeffs), _cleared(qs)
    r, fden, U, E = len(polys) - 1, fden * v.den, list(initial.nums), initial.den
    for n in range(len(U) - r, upto - r + 1):
        lead = sum(c * n ** k for k, c in enumerate(polys[r]))
        if lead == 0:
            raise ValueError(f"leading coefficient vanishes at n={n}; "
                             f"extension blocked at index {n + r}")
        # U holds u_0..u_{n+r-1}, so the instance on it leaves out j = r
        s = _instance(polys, n, U) * fden + D * E * _instance(fpolys, n, v.nums)
        E = _append(U, E, Fraction(-s, lead * E * fden))
    return UniSeries._of(U, E)


def hypergeometric_2f1(a: RatLike, b: RatLike, c: RatLike, M: int) -> UniSeries:
    """Truncated 2F1(a, b; c; z) = sum t_n z^n, from its term recurrence
    (n+a)(n+b) t_n - (n+1)(n+c) t_(n+1) = 0 with t_0 = 1."""
    a, b, c = rat(a), rat(b), rat(c)
    rec = (UniPoly([a * b, a + b, 1]), UniPoly([-c, -1 - c, -1]))
    return _run_extended(rec, M, UniSeries([1]))


def verify_series_identity(lhs: UniSeries, rhs: UniSeries):
    """None if equal to the minimum order; else (index, lhs value, rhs value)."""
    n = lhs._mismatch(rhs)
    return None if n is None else (n, lhs[n], rhs[n])


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

    y0 = _run_extended(ps, M, UniSeries([1]))
    g = _run_extended(ps, M, UniSeries([0]), ([p.derivative() for p in ps], y0))
    return LogSolution(y0, g)
