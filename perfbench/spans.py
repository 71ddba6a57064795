"""Spans and counts measured from outside the program.

``Tracer`` wraps the public functions of each ``diagonalis`` module, and
selected ``UniSeries`` methods, with a recorder of spans
``(name, start, end, parent, job)``.  A name bound by ``from x import y``
is replaced in every module that binds it, and methods are replaced on
the class.  ``Tracer.remove`` puts every original object back.

``layer_metrics`` turns the spans of one pass into the per-layer numbers;
``profile_metrics`` reads the exact call counts of a ``cProfile`` pass.
Nothing here edits the program's source.
"""

from __future__ import annotations

import functools
import inspect
import pstats
import sys
import time
from fractions import Fraction

PACKAGE = "diagonalis"
LAYERS = ("cli", "multipoly", "seriesbox", "sequences", "uniseries",
          "identities", "geometry", "family")
# exactalg is counted by the profiled pass instead: its functions run
# millions of times per pass.  grlex_key is a sort key called per entry.
SKIP = {"multipoly.grlex_key"}
METHODS = {
    "uniseries": {
        "UniSeries": ("compose", "reversion", "power", "exp", "log",
                      "inverse", "__mul__", "__truediv__", "__pow__",
                      "scale_argument", "derivative", "integrate"),
        "LogSolution": ("q_series",),
    },
}
# spans whose call arguments and result the per-layer metrics read
OBSERVED = {"seriesbox.expand_reciprocal", "seriesbox.first_nonpositive",
            "seriesbox.lambda_coefficient_check", "sequences.recurrence_guess"}

NAME, START, END, PARENT, JOB = range(5)


class Tracer:
    """Records spans while installed; one instance per traced run."""

    def __init__(self):
        self.spans: list = []
        self.observed: dict = {}  # span index -> (args, result)
        self.job = None
        self._stack: list = []
        self._patches: list = []  # (owner, attribute, original)

    def _wrap(self, name: str, fn):
        spans, stack, observed = self.spans, self._stack, self.observed
        keep = name in OBSERVED
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (name, t0, t1, parent, tracer.job)
            if keep:
                observed[idx] = (args, result)
            return result
        return wrapper

    def _targets(self):
        """(span name, function) for module functions and
        (span name, (class, method name)) for methods."""
        for layer in LAYERS:
            mod = sys.modules[f"{PACKAGE}.{layer}"]
            for attr, fn in vars(mod).items():
                name = f"{layer}.{attr}"
                if (inspect.isfunction(fn) and fn.__module__ == mod.__name__
                        and not attr.startswith("_") and name not in SKIP):
                    yield name, fn
            for cls_name, methods in METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    yield f"{layer}.{cls_name}.{meth}", (cls, meth)

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        wrappers = {}  # id(original function) -> wrapper
        for name, target in self._targets():
            if isinstance(target, tuple):
                cls, meth = target
                original = vars(cls)[meth]
                self._patches.append((cls, meth, original))
                setattr(cls, meth, self._wrap(name, original))
            else:
                wrappers[id(target)] = (target, self._wrap(name, target))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE
                                   or mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((mod, attr, value))
                    setattr(mod, attr, hit[1])

    def remove(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def take(self) -> tuple:
        """Hand over and forget the spans and observations so far."""
        spans, observed = list(self.spans), dict(self.observed)
        self.spans.clear()
        self.observed.clear()
        return spans, observed


# --- span arithmetic ----------------------------------------------------------

def self_times(spans) -> list:
    """Each span's duration minus the part of it that its children cover."""
    children: list = [[] for _ in spans]
    for span in spans:
        if span[PARENT] >= 0:
            children[span[PARENT]].append((span[START], span[END]))
    out = []
    for span, kids in zip(spans, children):
        t0, t1 = span[START], span[END]
        covered, reach = 0.0, t0
        for a, b in sorted(kids):
            a, b = max(a, reach), min(b, t1)
            if b > a:
                covered += b - a
                reach = b
        out.append(t1 - t0 - covered)
    return out


def inclusive(spans, names) -> float:
    """Time in any of `names`, counting nested calls among them once."""
    names = set(names)
    total = 0.0
    for span in spans:
        if span[NAME] not in names:
            continue
        p = span[PARENT]
        while p >= 0 and spans[p][NAME] not in names:
            p = spans[p][PARENT]
        if p < 0:
            total += span[END] - span[START]
    return total


def count(spans, name) -> int:
    return sum(1 for span in spans if span[NAME] == name)


def layer_self(spans, selfs) -> dict:
    out = {layer: 0.0 for layer in LAYERS}
    for span, s in zip(spans, selfs):
        out[span[NAME].split(".", 1)[0]] += s
    return out


def _bits(value) -> int:
    if isinstance(value, Fraction):
        return max(value.numerator.bit_length(), value.denominator.bit_length())
    return max((_bits(c) for c in value.coeffs), default=0)  # UniPoly


def box_stats(spans, observed) -> dict:
    """Entries, bit size, scan usefulness and guesses from observed calls."""
    out = {"entries": 0, "bits": 0, "useful": 0, "expanded": 0,
           "guess_hits": 0}
    for idx, (args, result) in observed.items():
        name = spans[idx][NAME]
        if name == "seriesbox.expand_reciprocal":
            out["entries"] += len(result.data)
            out["bits"] = max(out["bits"], max(map(_bits, result.data.values())))
        elif name == "sequences.recurrence_guess":
            out["guess_hits"] += result is not None
        else:  # a scan: useful layers run up to the first flagged entry
            box = args[0]
            layers = box.dim * box.N + 1
            out["expanded"] += layers
            out["useful"] += layers if result is None else sum(result[0]) + 1
    return out


def merge_box_stats(a: dict, b: dict) -> dict:
    return {k: max(a[k], b[k]) if k == "bits" else a[k] + b[k] for k in a}


def rebase(spans, offset: int) -> list:
    """Shift parent indices so that `spans` can follow `offset` others."""
    return [(n, t0, t1, p + offset if p >= 0 else p, job)
            for n, t0, t1, p, job in spans]


def layer_metrics(spans, box: dict, wall: float, cache_bytes: int,
                  ansatz_solves: int) -> dict:
    """Per-layer numbers for one traced pass whose jobs took `wall` s.

    `box` is the merged `box_stats` of the pass; `ansatz_solves` comes
    from the profiled pass.
    """
    selfs = self_times(spans)
    by_layer = layer_self(spans, selfs)
    expand_s = inclusive(spans, ["seriesbox.expand_reciprocal"])
    bisect_idx = {i for i, s in enumerate(spans)
                  if s[NAME] == "geometry.box_positivity_bisect"}
    verify_self = sum(s for span, s in zip(spans, selfs)
                      if span[NAME] == "identities.verify_identity")
    return {
        "cli.self_s": by_layer["cli"],
        "seriesbox.expand_s": expand_s,
        "seriesbox.entries_stored": box["entries"],
        "seriesbox.entries_per_s": box["entries"] / expand_s if expand_s else 0.0,
        "seriesbox.max_coeff_bits": box["bits"],
        "seriesbox.scan_s": inclusive(spans, ["seriesbox.first_nonpositive",
                                              "seriesbox.lambda_coefficient_check"]),
        "seriesbox.scan_useful_frac": (box["useful"] / box["expanded"]
                                       if box["expanded"] else 0.0),
        "seriesbox.cache_write_s": inclusive(spans, ["seriesbox.save_cache"]),
        "seriesbox.cache_read_s": inclusive(spans, ["seriesbox.load_cache"]),
        "seriesbox.cache_bytes": cache_bytes,
        "seriesbox.share_frac": by_layer["seriesbox"] / wall,
        "sequences.guess_s": inclusive(spans, ["sequences.recurrence_guess"]),
        "sequences.check_s": inclusive(spans, ["sequences.recurrence_check"]),
        "sequences.guess_hit_frac": (box["guess_hits"] / ansatz_solves
                                     if ansatz_solves else 0.0),
        "sequences.oracle_s": inclusive(spans, ["sequences.binomial_oracle"]),
        "sequences.share_frac": by_layer["sequences"] / wall,
        "uniseries.compose_s": inclusive(spans, ["uniseries.UniSeries.compose"]),
        "uniseries.compose_calls": count(spans, "uniseries.UniSeries.compose"),
        "uniseries.reversion_s": inclusive(spans, ["uniseries.UniSeries.reversion"]),
        "uniseries.power_s": inclusive(spans, ["uniseries.UniSeries.power",
                                               "uniseries.UniSeries.exp",
                                               "uniseries.UniSeries.log"]),
        "uniseries.mul_calls": count(spans, "uniseries.UniSeries.__mul__"),
        "uniseries.frobenius_s": inclusive(spans, ["uniseries.recurrence_to_frobenius"]),
        "uniseries.share_frac": by_layer["uniseries"] / wall,
        "identities.verify_s": verify_self,
        "geometry.bisect_s": inclusive(spans, ["geometry.box_positivity_bisect"]),
        "geometry.bisect_boxes": sum(
            1 for s in spans if s[NAME] == "seriesbox.expand_reciprocal"
            and s[PARENT] in bisect_idx),
        "geometry.crit_s": inclusive(spans, ["geometry.critical_points_diag"]),
        "geometry.sturm_calls": count(spans, "geometry.sturm_isolate"),
        "trace.wall_s": wall,
    }


# --- profiled pass ------------------------------------------------------------

def _code_keys(cls) -> set:
    """(file, first line, name) of every function defined on `cls`."""
    keys = set()
    for value in vars(cls).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        elif isinstance(value, property):
            value = value.fget
        code = getattr(value, "__code__", None)
        if code is not None:
            keys.add((code.co_filename, code.co_firstlineno, code.co_name))
    return keys


def profile_metrics(profile, fraction_module, unipoly_cls, nullspace_fn) -> dict:
    """Exact call counts and profiled self time from one cProfile pass."""
    stats = pstats.Stats(profile).stats  # key -> (cc, ncalls, tt, ct, callers)
    frac_file = fraction_module.__file__
    unipoly_keys = _code_keys(unipoly_cls)
    code = nullspace_fn.__code__
    nullspace_key = (code.co_filename, code.co_firstlineno, code.co_name)
    out = {"exactalg.fraction_calls": 0, "exactalg.fraction_self_s": 0.0,
           "exactalg.unipoly_calls": 0, "exactalg.unipoly_self_s": 0.0,
           "sequences.ansatz_solves": 0}
    for key, (_, ncalls, tottime, _, _) in stats.items():
        if key[0] == frac_file:
            out["exactalg.fraction_calls"] += ncalls
            out["exactalg.fraction_self_s"] += tottime
        elif key in unipoly_keys:
            out["exactalg.unipoly_calls"] += ncalls
            out["exactalg.unipoly_self_s"] += tottime
        elif key == nullspace_key:
            out["sequences.ansatz_solves"] += ncalls
    return out
