"""Binomial oracles and the P-recurrence engine.

A `PRecurrence` is sum_{j=0..r} p_j(n) * u_{n+j} = 0 with polynomial
coefficients p_j; all paper recurrences are stored re-indexed into this
homogeneous convention.  Guessing accepts the smallest (order, degree)
recurrence that verifies on every supplied term.  Each ansatz is an
integer linear system.  For each order, the ansatz at the largest degree,
whose first columns are each lower degree's ansatz, is eliminated once mod
a prime below 2^30, and each degree's elimination mod that prime is read
off it as a column prefix: a degree of full column rank is rejected there.
Each remaining ansatz is solved from its prefix on, mod further primes
below 2^30: the reduced row-echelon nullspace basis of the primes whose
pivot columns agree with Q is lifted by CRT and rational reconstruction,
and returned at the first prime where the lift checks exactly over Z.  So
the result is the basis that exact elimination over Q gives, whatever its
dimension.  Each elimination mod p runs on packed rows: a row is one int
with an unreduced slot per column, and a row update is one big-integer
multiply-add.  A sequence u_0, u_1, ... is a `UniSeries`; the check sums
each instance on its numerators, as the runner does, and the ansatz rows
read them too.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import chain
from math import comb, factorial, gcd, isqrt, prod
from operator import mul
from typing import Iterator, Optional

from .exactalg import UniPoly, over_lcm, pack, rat
from .registry import build, catalog
from .uniseries import UniSeries, _cleared, _instance, _run_extended


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


# --- closed-form oracles ----------------------------------------------------

def _twovar(a: Fraction, M: int) -> list[Fraction]:
    return [sum((Fraction(factorial(2 * n - k), factorial(k) * factorial(n - k) ** 2)
                 * (-a) ** k for k in range(n + 1)), Fraction(0))
            for n in range(M + 1)]


def _each(term):
    """The oracle (parameters, M) -> u_0..u_M of a closed form term(n)."""
    return lambda p, M: [term(n) for n in range(M + 1)]


# oracle name -> (parameters, M) -> the closed-form diagonal values u_0..u_M;
# an oracle that takes the parameter a pops it from the parameters
_ORACLES = catalog({
    "franel": _each(lambda n: sum(comb(n, k) ** 3 for k in range(n + 1))),
    "kzd": _each(lambda n: sum(comb(n, k) ** 2 * comb(2 * k, n) ** 2
                               for k in range(n + 1))),
    "koornwinder": _each(lambda n: sum(comb(2 * k, k) ** 2 * comb(2 * (n - k), n - k) ** 2
                                       for k in range(n + 1))),
    # C(k, n-k) = 0 for 2k < n, so every power of 2 is whole
    "szego3": _each(lambda n: sum((-27) ** (n - k) * 2 ** (2 * k - n)
                                  * (factorial(3 * k) // factorial(k) ** 3)
                                  * comb(k, n - k) for k in range((n + 1) // 2, n + 1))),
    "2var": lambda p, M: _twovar(rat(p.pop("a")), M),
    # C(2n, n) u_n with u_n from one run of the seeded recurrence: 9^n times
    # the LewyAskey diagonal
    "lewy-askey": lambda p, M: [comb(2 * n, n) * u for n, u in enumerate(
        recurrence_seed(builtin_recurrence("lewyaskey"), M).coeffs)],
}, szego3binomial="szego3")


def binomial_oracle(name: str, M: int, a=None) -> UniSeries:
    """The series of the closed-form diagonal values u_0..u_M of the named
    family.  ValueError if the oracle needs the parameter `a` and it is
    None, or takes none and it is given."""
    if M < 0:
        raise ValueError("order must be >= 0")
    return UniSeries(build(_ORACLES, name, "oracle", {} if a is None else {"a": a}, M))


# --- built-in paper recurrences --------------------------------------------

def _twovar_recurrence(a) -> tuple:
    a = rat(a)
    return ((a * a, a * a),                      # a^2 (n+1)
            (-3 * (2 - a), -2 * (2 - a)),        # -(2-a)(2n+3)
            (2, 1))                              # (n+2)


# recurrence name -> parameters -> coefficients of p_0, ..., p_r in n; a
# recurrence that takes the parameter a pops it from the parameters
_RECURRENCES = catalog({
    "franel": lambda p: ((-8, -16, -8),          # -8(n+1)^2
                         (-16, -21, -7),         # -(7(n+1)^2 + 7(n+1) + 2)
                         (4, 4, 1)),             # (n+2)^2
    "szego3": lambda p: ((648, 1458, 729),       # 81(3n+2)(3n+4)
                         (-186, -243, -81),      # -3(27n^2 + 81n + 62)
                         (8, 8, 2)),             # 2(n+2)^2
    "lewyaskey": lambda p: ((960, 2048, 1024),   # 64(4n+3)(4n+5)
                            (-260, -336, -112),  # -4(28n^2 + 84n + 65)
                            (12, 12, 3)),        # 3(n+2)^2
    "kzd": lambda p: ((16, 48, 48, 16),          # 16(n+1)^3
                      (-84, -164, -108, -24),    # -4(2n+3)(3n^2+9n+7)
                      (8, 12, 6, 1)),            # (n+2)^3
    "2var": lambda p: _twovar_recurrence(p.pop("a")),
}, sd="szego3", lewyaskeyu="lewyaskey")


def builtin_recurrence(name: str, a=None) -> PRecurrence:
    """The named paper recurrence.  ValueError if it needs the parameter
    `a` and it is None, or takes none and it is given."""
    coeffs = build(_RECURRENCES, name, "recurrence", {} if a is None else {"a": a})
    return PRecurrence(tuple(UniPoly(p) for p in coeffs))


# --- recurrence operations --------------------------------------------------

def recurrence_check(rec: PRecurrence, seq: UniSeries):
    """None if the recurrence holds on every checkable n; else (n, residual).
    Each instance is the integer sum D * seq.den * residual = sum_j
    (D p_j)(n) * seq.nums[n + j], D the lcm of the denominators of the p_j."""
    r = rec.order
    if seq.order < r:
        raise ValueError(f"window too short: need at least {r + 1} terms")
    polys, D = _cleared(rec.coeffs)
    for n in range(seq.order - r + 1):
        if resid := _instance(polys, n, seq.nums):
            return (n, Fraction(resid, D * seq.den))
    return None


def recurrence_extend(rec: PRecurrence, initial: UniSeries, upto: int) -> UniSeries:
    """Extend u_0, u_1, ... forward to index `upto` (inclusive) by solving
    for u_{n+r}; initial terms past `upto` are kept."""
    if initial.order < rec.order - 1:
        raise ValueError(f"need at least {rec.order} initial terms")
    return _run_extended(rec.coeffs, upto, initial)


def recurrence_seed(rec: PRecurrence, upto: int) -> UniSeries:
    """Run the recurrence extended by u_k = 0 for k < 0, starting from u_0 = 1.

    For the paper's second-order recurrences this reproduces the analytic
    normalization (u_1 is forced by the n = -1 instance).
    """
    return _run_extended(rec.coeffs, upto, UniSeries([1]))


GUESS_SAFETY_MARGIN = 5


def recurrence_guess(seq: UniSeries, max_order: int,
                     max_degree: int) -> Optional[PRecurrence]:
    """Smallest (order, degree) recurrence verifying on all supplied terms.

    Requires at least (max_order+1)(max_degree+1) + max_order +
    GUESS_SAFETY_MARGIN terms.  For each order, the ansatz at max_degree is
    built and eliminated mod _SCREEN_PRIME once; each lower degree's is a
    slice of its first columns, whose elimination is read off that one by
    `_echelon_prefix`.  A degree with a free column there is solved from it
    by `_nullspace`, exactly over Q; the others have full column rank.
    A nullspace of dimension >= 2 is tried in the order of its reduced echelon
    basis on the degree-major columns of `_ansatz_matrix`."""
    if max_order < 1 or max_degree < 0:
        raise ValueError(f"need max_order >= 1 and max_degree >= 0; got "
                         f"max_order={max_order}, max_degree={max_degree}")
    min_needed = (max_order + 1) * (max_degree + 1) + max_order + GUESS_SAFETY_MARGIN
    if seq.order < min_needed - 1:
        raise ValueError(
            f"need >= {min_needed} terms to guess at max_order={max_order}, "
            f"max_degree={max_degree}; got {seq.order + 1}")
    for order in range(1, max_order + 1):
        top = _ansatz_matrix(seq, order, max_degree)
        screen = _nullspace_mod(top, _SCREEN_PRIME)
        for degree in range(max_degree + 1):
            ncols = (order + 1) * (degree + 1)
            first = _echelon_prefix(screen, ncols)
            if not first[0]:
                continue  # full column rank mod the prime, hence over Q
            for vec in _nullspace([row[:ncols] for row in top], first):
                ps = tuple(UniPoly(vec[j::order + 1]) for j in range(order + 1))
                if ps[-1].is_zero():
                    continue  # really a lower-order relation
                cand = PRecurrence(ps).normalized()
                if recurrence_check(cand, seq) is None:
                    return cand
    return None


# the largest prime below 2^30: a packed row of `_nullspace_mod` then has
# slots of at most 60 + bits(ncols) bits, and the factor of each row update
# is one CPython digit
_SCREEN_PRIME = 2 ** 30 - 35


def _echelon_prefix(solve: tuple, ncols: int) -> tuple[list[list[int]], list[int]]:
    """`_nullspace_mod` of a matrix's first ncols columns, read off `solve`,
    that of all its columns at the same prime.  Gauss-Jordan sets each pivot
    and row update on the columns up to it alone, and an echelon row is zero
    left of its pivot, so the prefix's elimination is the prefix of the whole."""
    basis, pivots = solve
    pivots = [c for c in pivots if c < ncols]
    # one basis vector per free column, in increasing order
    return [vec[:ncols] for vec in basis[:ncols - len(pivots)]], pivots


def _ansatz_matrix(seq: UniSeries, order: int, degree: int) -> list[list[int]]:
    """The ansatz system sum_j p_j(n) u_{n+j} = 0 in the coefficients of
    p_0, ..., p_order, one row per n, read on the numerators of the
    sequence (each row scaled by its one denominator, which keeps the
    nullspace).  Column k(order+1) + j is the n^k coefficient of p_j."""
    nums, matrix = seq.nums, []
    for n in range(len(nums) - order):
        window, npows = nums[n:n + order + 1], [n ** k for k in range(degree + 1)]
        matrix.append([npow * x for npow in npows for x in window])
    return matrix


def _is_prime(n: int) -> bool:
    """Deterministic Miller-Rabin: the first twelve primes as bases decide
    every n < 3.3 * 10^24."""
    bases = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    if n < 2 or any(n % p == 0 for p in bases):
        return n in bases
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _primes() -> Iterator[int]:
    """The odd primes below 2^30, largest first; the first is _SCREEN_PRIME,
    the prime of each order's one screen, so every lift starts from it."""
    return filter(_is_prime, range(2 ** 30 - 1, 2, -2))


def _nullspace(matrix: list[list[int]], first: tuple) -> list[list[Fraction]]:
    """The reduced row-echelon basis of the nullspace over Q of an integer
    matrix, one vector per free column in increasing order, found mod
    primes by CRT and rational reconstruction.  The first prime's solve is
    `first`, `_nullspace_mod(matrix, _SCREEN_PRIME)`; the other primes come
    from `_primes` less that one, so no prime is combined with itself."""
    ncols = len(matrix[0])
    best, residues, modulus, hadamard = None, [], 1, None
    solves = chain([(_SCREEN_PRIME, first)],
                   ((p, _nullspace_mod(matrix, p)) for p in _primes()
                    if p != _SCREEN_PRIME))
    for p, (basis, pivots) in solves:
        # A minor that is nonzero mod p is a nonzero integer, so every
        # prefix of the columns has rank mod p at most its rank over Q.
        # At the first column where a prime's pivots differ from those over
        # Q, Q has a pivot and the prime has none: the largest key agrees
        # with Q, and the primes that share a smaller key all divide one
        # nonzero minor.
        key = [c in pivots for c in range(ncols)]
        if best is None or key > best:
            best, residues, modulus = key, basis, p
        elif key < best:
            continue
        else:  # CRT: the residues mod modulus * p
            inv = pow(modulus, -1, p)
            residues = [[x + modulus * ((v - x) * inv % p)
                         for x, v in zip(xs, vs)]
                        for xs, vs in zip(residues, basis)]
            modulus *= p
        lift = [[_rational_reconstruction(x, modulus) for x in xs]
                for xs in residues]
        # X is the identity on its k free columns, and the nullity over Q
        # is at most the nullity k mod p; so an X with A X = 0 over Z is a
        # basis over Q, and the identity on the free columns makes it the
        # reduced row-echelon one.  A wrong pivot set never passes: one of
        # its entries is a nonzero rational whose numerator the modulus
        # divides, which reconstruction cannot return.
        if all(None not in vec and _annihilates(matrix, vec) for vec in lift):
            return lift
        # The primes of a wrong pivot set multiply to at most `hadamard`,
        # and entries over Q are ratios of minors, so past 2 hadamard^2
        # the lift must have passed.  The bound waits for a failed lift:
        # small ansätze, such as kzd's (2, 3) at 28 x 12, lift at their
        # first prime and skip it (about 9% of that solve); the 33 x 28
        # Kauers (3, 6) ansatz lifts at its third prime and pays it once.
        if hadamard is None:
            hadamard = _hadamard_bound(matrix)
        if modulus > 2 * hadamard ** 2:
            raise ArithmeticError(f"no exact nullspace lift within a "
                                  f"{modulus.bit_length()}-bit modulus")
    raise ArithmeticError("the primes below 2^30 ran out")


def _hadamard_bound(matrix: list[list[int]]) -> int:
    """Hadamard: no minor of an integer matrix exceeds the product of the
    norms of its ncols longest rows (each norm rounded up)."""
    norms = sorted(isqrt(sum(a * a for a in row)) + 1 for row in matrix)
    return prod(norms[-len(matrix[0]):])


def _annihilates(matrix: list[list[int]], vec: list[Fraction]) -> bool:
    """A x = 0 over Z, for x = vec scaled to integers."""
    x = over_lcm(vec)[0]
    return not any(sum(map(mul, row, x)) for row in matrix)


def _nullspace_mod(matrix: list[list[int]],
                   p: int) -> tuple[list[list[int]], list[int]]:
    """The reduced row-echelon nullspace basis of an integer matrix over
    GF(p), and its pivot columns in increasing order: the basis vector of
    each free column has a 1 there.

    Gauss-Jordan on packed rows, with delayed reduction (J.-G. Dumas,
    P. Giorgi and C. Pernet, ACM TOMS 35, 2008): a row is one int whose
    column c is the S-bit slot at bit c*S, and a slot holds a nonnegative
    residue that no row update reduces.  A row update adds f times the
    pivot row negated mod p, so it is one multiply-add, and a slot is
    reduced only where it is read."""
    ncols = len(matrix[0])
    # A slot starts below p and only grows, by at most (p-1)^2 per update
    # (f and every slot of `neg` are below p).  Each pivot updates a row at
    # most once, and a pivot row is re-packed reduced, so no slot exceeds
    # (p-1) + ncols (p-1)^2 < 2^S: no slot carries into the next.
    S = (p - 1 + ncols * (p - 1) ** 2).bit_length()
    mask = (1 << S) - 1
    rows = [pack([a % p for a in row], S) for row in matrix]
    pivots: list[int] = []  # pivots[i] is the pivot column of rows[i]
    for col in range(ncols):
        rank, shift = len(pivots), col * S
        pivot_row = next((r for r in range(rank, len(rows))
                          if (rows[r] >> shift & mask) % p), None)
        if pivot_row is None:
            continue
        rows[rank], rows[pivot_row] = rows[pivot_row], rows[rank]
        # the columns before col are zero mod p in the pivot row
        inv = pow(rows[rank] >> shift & mask, -1, p)
        tail = [(rows[rank] >> c & mask) * inv % p
                for c in range(shift, ncols * S, S)]
        rows[rank] = pack(tail, S) << shift
        neg = pack([(p - a) % p for a in tail], S) << shift
        for r, row in enumerate(rows):
            f = (row >> shift & mask) % p
            if f and r != rank:
                rows[r] = row + f * neg
        pivots.append(col)
    basis = []
    for fc in sorted(set(range(ncols)) - set(pivots)):
        vec = [0] * ncols
        vec[fc] = 1
        for row, pc in zip(rows, pivots):
            vec[pc] = -(row >> (fc * S) & mask) % p
        basis.append(vec)
    return basis, pivots


def _rational_reconstruction(a: int, m: int) -> Optional[Fraction]:
    """The n/d = a mod m with |n|, d <= sqrt(m/2), or None (P. S. Wang):
    the extended Euclidean algorithm on (m, a), stopped at the first
    remainder within the bound."""
    bound = isqrt(m // 2)
    r0, r1, t0, t1 = m, a, 0, 1
    while r1 > bound:
        q = r0 // r1
        r0, r1 = r1, r0 - q * r1
        t0, t1 = t1, t0 - q * t1
    if abs(t1) > bound or gcd(r1, t1) != 1:
        return None
    return Fraction(r1, t1)


def characteristic_polynomial(rec: PRecurrence) -> UniPoly:
    """sum_j (coefficient of n^D in p_j) x^j at the common top degree D."""
    D = rec.degree
    poly = UniPoly([p[D] for p in rec.coeffs])
    return poly.primitive() if poly else poly
