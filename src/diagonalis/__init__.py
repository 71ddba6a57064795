"""Exact-arithmetic laboratory for positivity of symmetric rational
functions 1 / sum_k c_k e_k(x_1, ..., x_d) and their diagonals."""

from .exactalg import UniPoly, plain, rat
from .family import FamilySpec, canonicalize, make_family, named_instance
from .sequences import (PRecurrence, binomial_oracle, builtin_recurrence,
                        characteristic_polynomial, recurrence_check,
                        recurrence_extend, recurrence_guess, recurrence_seed)
from .seriesbox import (CoeffBox, expand_layers, expand_reciprocal, extract_diagonal,
                        load_cache, save_cache, streamed_first_nonpositive)
from .uniseries import (LogSolution, UniSeries, hypergeometric_2f1,
                        recurrence_to_frobenius, theta_hexagonal,
                        verify_series_identity)

__version__ = "0.1.0"
