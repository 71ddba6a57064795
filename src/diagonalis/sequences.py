"""Diagonals, binomial oracles, and the P-recurrence engine.

A `PRecurrence` is sum_{j=0..r} p_j(n) * u_{n+j} = 0 with polynomial
coefficients p_j; all paper recurrences are stored re-indexed into this
homogeneous convention.  Guessing solves the ansatz linear system exactly
over Q and accepts the smallest (order, degree) recurrence that also
verifies on every supplied term.  A sequence is a plain tuple (or any
sequence) u_0, u_1, ... of rationals, indexed from 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import comb, factorial
from typing import Optional, Sequence

from .exactalg import UniPoly, binomial, rat
from .registry import catalog, lookup
from .seriesbox import CoeffBox


@dataclass(frozen=True)
class PRecurrence:
    """sum_{j=0..r} p_j(n) u_{n+j} = 0, p_r not identically zero."""
    coeffs: tuple[UniPoly, ...]

    def __post_init__(self):
        if len(self.coeffs) < 2:
            raise ValueError("recurrence needs order >= 1")
        if self.coeffs[-1].is_zero():
            raise ValueError("leading recurrence coefficient is identically zero")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @property
    def degree(self) -> int:
        return max(p.degree for p in self.coeffs)

    def normalized(self) -> "PRecurrence":
        """Content-normalized: integer primitive coefficients, leading
        polynomial with positive leading coefficient."""
        content = UniPoly([c for p in self.coeffs for c in p.coeffs]).content()
        ps = [p / content for p in self.coeffs]
        if ps[-1].leading_coefficient() < 0:
            ps = [-p for p in ps]
        return PRecurrence(tuple(ps))

    def to_json(self) -> list[list[str]]:
        return [p.to_json() for p in self.coeffs]

    @classmethod
    def from_json(cls, data: list[list[str]]) -> "PRecurrence":
        if not (isinstance(data, list) and all(isinstance(p, list) for p in data)):
            raise ValueError(f"recurrence JSON must be a list of coefficient "
                             f"lists, got {data!r}")
        return cls(tuple(UniPoly.from_json(p) for p in data))


def extract_diagonal(box: CoeffBox) -> tuple[Fraction, ...]:
    """u_{n,...,n} for n = 0..N."""
    if box.ring != "Q":
        raise ValueError("diagonal extraction requires a rational box")
    return tuple(box.coefficient_at((n,) * box.dim) for n in range(box.N + 1))


# --- closed-form oracles ----------------------------------------------------

def _szego3(n: int) -> Fraction:
    s = Fraction(0)
    for k in range(n + 1):
        s += (Fraction(-27) ** (n - k) * Fraction(2) ** (2 * k - n)
              * Fraction(factorial(3 * k), factorial(k) ** 3)
              * binomial(k, n - k))
    return s


def _twovar(n: int, a) -> Fraction:
    if a is None:
        raise ValueError("2var oracle needs parameter a")
    a = rat(a)
    s = Fraction(0)
    for k in range(n + 1):
        s += (Fraction(factorial(2 * n - k), factorial(k) * factorial(n - k) ** 2)
              * (-a) ** k)
    return s


# oracle name -> (n, parameter a) -> closed-form diagonal value
_ORACLES = catalog({
    "franel": lambda n, a: Fraction(sum(comb(n, k) ** 3 for k in range(n + 1))),
    "kzd": lambda n, a: Fraction(sum(comb(n, k) ** 2 * comb(2 * k, n) ** 2
                                     for k in range(n + 1))),
    "koornwinder": lambda n, a: Fraction(sum(
        comb(2 * k, k) ** 2 * comb(2 * (n - k), n - k) ** 2
        for k in range(n + 1))),
    "szego3": lambda n, a: _szego3(n),
    "2var": _twovar,
    # C(2n, n) u_n with u_n from the seeded recurrence: 9^n times the
    # LewyAskey diagonal
    "lewy-askey": lambda n, a: binomial(2 * n, n) * recurrence_seed(
        builtin_recurrence("lewyaskey"), n)[n],
}, szego3binomial="szego3")


def binomial_oracle(name: str, n: int, a=None) -> Fraction:
    """Closed-form diagonal value for the named family."""
    if n < 0:
        raise ValueError("index must be >= 0")
    return lookup(_ORACLES, name, "oracle")(n, a)


# --- built-in paper recurrences --------------------------------------------

def _twovar_recurrence(a) -> tuple:
    if a is None:
        raise ValueError("2var recurrence needs parameter a")
    a = rat(a)
    return ((a * a, a * a),                      # a^2 (n+1)
            (-3 * (2 - a), -2 * (2 - a)),        # -(2-a)(2n+3)
            (2, 1))                              # (n+2)


# recurrence name -> parameter a -> coefficients of p_0, ..., p_r in n
_RECURRENCES = catalog({
    "franel": lambda a: ((-8, -16, -8),          # -8(n+1)^2
                         (-16, -21, -7),         # -(7(n+1)^2 + 7(n+1) + 2)
                         (4, 4, 1)),             # (n+2)^2
    "szego3": lambda a: ((648, 1458, 729),       # 81(3n+2)(3n+4)
                         (-186, -243, -81),      # -3(27n^2 + 81n + 62)
                         (8, 8, 2)),             # 2(n+2)^2
    "lewyaskey": lambda a: ((960, 2048, 1024),   # 64(4n+3)(4n+5)
                            (-260, -336, -112),  # -4(28n^2 + 84n + 65)
                            (12, 12, 3)),        # 3(n+2)^2
    "kzd": lambda a: ((16, 48, 48, 16),          # 16(n+1)^3
                      (-84, -164, -108, -24),    # -4(2n+3)(3n^2+9n+7)
                      (8, 12, 6, 1)),            # (n+2)^3
    "2var": _twovar_recurrence,
}, sd="szego3", lewyaskeyu="lewyaskey")


def builtin_recurrence(name: str, a=None) -> PRecurrence:
    coeffs = lookup(_RECURRENCES, name, "recurrence")(a)
    return PRecurrence(tuple(UniPoly(p) for p in coeffs))


# --- recurrence operations --------------------------------------------------

def recurrence_check(rec: PRecurrence, seq: Sequence[Fraction]):
    """None if the recurrence holds on every checkable n; else (n, residual)."""
    r = rec.order
    if len(seq) < r + 1:
        raise ValueError(f"window too short: need at least {r + 1} terms")
    for n in range(len(seq) - r):
        resid = sum((rec.coeffs[j](n) * seq[n + j] for j in range(r + 1)),
                    Fraction(0))
        if resid:
            return (n, resid)
    return None


def _run_extended(coeffs, upto: int, initial, forcing=None) -> list[Fraction]:
    """u_0..u_upto of sum_j p_j(n) u_{n+j} = -forcing(n), extended by
    u_k = 0 for k < 0: u_0, u_1, ... are `initial`, then the instances
    n = len(initial)-r .. upto-r are each solved for u_{n+r}.  `coeffs` are
    the p_j; no forcing means the homogeneous case.  Initial terms past
    `upto` are kept."""
    if upto < 0:
        raise ValueError(f"cannot extend up to a negative index {upto}")
    r = len(coeffs) - 1
    vals = [rat(u) for u in initial] + [Fraction(0)] * (upto + 1 - len(initial))
    for n in range(len(initial) - r, upto - r + 1):
        lead = coeffs[r](n)
        if lead == 0:
            raise ValueError(f"leading coefficient vanishes at n={n}; "
                             f"extension blocked at index {n + r}")
        s = forcing(n) if forcing else Fraction(0)
        for j in range(max(0, -n), r):
            s += coeffs[j](n) * vals[n + j]
        vals[n + r] = -s / lead
    return vals


def recurrence_extend(rec: PRecurrence, initial: Sequence[Fraction],
                      upto: int) -> tuple[Fraction, ...]:
    """Extend u_0, u_1, ... forward to index `upto` (inclusive) by solving
    for u_{n+r}."""
    if len(initial) < rec.order:
        raise ValueError(f"need at least {rec.order} initial terms")
    return tuple(_run_extended(rec.coeffs, upto, initial))


def recurrence_seed(rec: PRecurrence, upto: int,
                    u0=Fraction(1)) -> tuple[Fraction, ...]:
    """Run the recurrence extended by u_k = 0 for k < 0, starting from u_0.

    For the paper's second-order recurrences this reproduces the analytic
    normalization (u_1 is forced by the n = -1 instance).
    """
    return tuple(_run_extended(rec.coeffs, upto, (u0,)))


GUESS_SAFETY_MARGIN = 5


def recurrence_guess(seq: Sequence[Fraction], max_order: int,
                     max_degree: int) -> Optional[PRecurrence]:
    """Smallest (order, degree) recurrence verifying on all supplied terms.

    Requires at least (order+1)(degree+1) + order + GUESS_SAFETY_MARGIN terms
    for the candidate size before it is attempted.
    """
    if max_order < 1 or max_degree < 0:
        raise ValueError(f"need max_order >= 1 and max_degree >= 0; got "
                         f"max_order={max_order}, max_degree={max_degree}")
    min_needed = (max_order + 1) * (max_degree + 1) + max_order + GUESS_SAFETY_MARGIN
    if len(seq) < min_needed:
        raise ValueError(
            f"need >= {min_needed} terms to guess at max_order={max_order}, "
            f"max_degree={max_degree}; got {len(seq)}")
    for order in range(1, max_order + 1):
        for degree in range(max_degree + 1):
            unknowns = (order + 1) * (degree + 1)
            rows = len(seq) - order
            if rows < unknowns + GUESS_SAFETY_MARGIN:
                continue
            matrix = []
            for n in range(len(seq) - order):
                row = []
                for j in range(order + 1):
                    u = seq[n + j]
                    npow = Fraction(1)
                    for _ in range(degree + 1):
                        row.append(npow * u)
                        npow *= n
                matrix.append(row)
            for vec in _nullspace(matrix):
                ps = tuple(
                    UniPoly(vec[j * (degree + 1):(j + 1) * (degree + 1)])
                    for j in range(order + 1))
                if ps[-1].is_zero():
                    continue  # really a lower-order relation
                cand = PRecurrence(ps).normalized()
                if recurrence_check(cand, seq) is None:
                    return cand
    return None


def _nullspace(matrix: list[list[Fraction]]) -> list[list[Fraction]]:
    """Basis of the exact nullspace of the row-space system A x = 0."""
    if not matrix:
        return []
    ncols = len(matrix[0])
    rows = [list(r) for r in matrix]
    pivots: dict[int, int] = {}  # col -> row
    rank = 0
    for col in range(ncols):
        pivot_row = None
        for r in range(rank, len(rows)):
            if rows[r][col]:
                pivot_row = r
                break
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        pr = rows[rank]
        inv = 1 / pr[col]
        for c in range(col, ncols):
            pr[c] *= inv
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col]
                for c in range(col, ncols):
                    rows[r][c] -= f * pr[c]
        pivots[col] = rank
        rank += 1
    basis = []
    free_cols = [c for c in range(ncols) if c not in pivots]
    for fc in free_cols:
        vec = [Fraction(0)] * ncols
        vec[fc] = Fraction(1)
        for pc, pr in pivots.items():
            vec[pc] = -rows[pr][fc]
        basis.append(vec)
    return basis


def characteristic_polynomial(rec: PRecurrence) -> UniPoly:
    """sum_j (coefficient of n^D in p_j) x^j at the common top degree D."""
    D = rec.degree
    poly = UniPoly([p[D] for p in rec.coeffs])
    return poly.primitive() if poly else poly


def sequence_sign_scan(seq: Sequence[Fraction], strict: bool = True):
    """First index with a nonpositive (strict) or negative value, or None."""
    for n, v in enumerate(seq):
        if (v <= 0) if strict else (v < 0):
            return (n, v)
    return None
