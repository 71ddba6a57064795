"""Workload definitions and independent answer checks.

A workload is a list of README-style CLI invocations (``Job``), each run
in-process through ``diagonalis.cli.main(argv)`` with ``--format json``.
Every job carries its own check:

* diagonals are compared with closed forms computed here;
* a guessed recurrence is evaluated on every term by ``recurrence_holds``;
* identities must report ``pass``;
* box, bisection and geometry verdicts are compared with ``golden.json``,
  which ``make_golden.py`` took once from the program.

This module imports nothing from ``diagonalis``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import random
import time
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
GOLDEN_PATH = HERE / "golden.json"
OUT_DIR = HERE / "out"  # spans files and the cache file; not committed
CACHE_NAME = "kzd16.cache"  # relative: resolved against $DIAGONALIS_CACHE

# (a, b) points around the boundary b = 2 - 3a +/- 2(1-a)^(3/2) of the hab
# positivity region: each branch offset by 1/8 and 3/8 to either side and
# rounded to a multiple of 1/8.  For every a the seed picks one point
# between the branches and one beyond them, so that every seed expands
# boxes of comparable cost.
SWEEP_POOL = {  # a -> (between the branches, beyond them)
    "0": (("1/8", "3/8", "31/8", "29/8"),
          ("-1/8", "-3/8", "33/8", "35/8")),
    "1/4": (("1/8", "3/8", "19/8", "17/8"),
            ("-1/8", "-3/8", "21/8", "23/8")),
    "1/2": (("-1/8", "1/8", "9/8", "7/8"),
            ("-3/8", "-5/8", "11/8", "13/8")),
    "3/4": (("-3/8", "-1/8"),
            ("-5/8", "-7/8", "1/8", "3/8")),
}
SWEEP_N = 30

# The perturbed Kauers term: the seed picks an index and a change.
PERTURB_INDICES = (10, 15, 20, 25, 30, 35)
PERTURB_DELTAS = ("1", "-1/2")

KAUERS_N = 35  # 36 terms: the fewest that permit a (3, 6) ansatz


@dataclass
class Job:
    """One CLI invocation and how to check its answer.

    kind selects the check; key names the golden entry (verdict kinds) or
    the expected closed form / term list (diag, guess).
    """
    kind: str
    key: str
    argv: list
    cache_file: Optional[str] = None  # set on the job that writes a cache


# --- closed forms -----------------------------------------------------------

def franel(n: int) -> int:
    return sum(math.comb(n, k) ** 3 for k in range(n + 1))


def kzd(n: int) -> int:
    return sum(math.comb(n, k) ** 2 * math.comb(2 * k, n) ** 2
               for k in range(n + 1))


CLOSED_FORMS = {"franel": franel, "kzd": kzd}


def recurrence_holds(coeffs, terms) -> bool:
    """sum_j p_j(n) u_{n+j} = 0 for every n the terms allow, with p_r != 0.

    coeffs: one list of rationals per p_j, lowest degree first.
    """
    r = len(coeffs) - 1
    if r < 1 or not any(coeffs[-1]) or len(terms) <= r:
        return False
    for n in range(len(terms) - r):
        total = Fraction(0)
        for j, p in enumerate(coeffs):
            value = Fraction(0)
            for c in reversed(p):
                value = value * n + c
            total += value * terms[n + j]
        if total:
            return False
    return True


# --- verdict extraction (shared by the checks and make_golden.py) ----------

def verdict(kind: str, rc, out: str):
    """The part of a job's answer that the golden table pins down."""
    if kind == "grid":
        return {"rc": rc, "csv": out}
    rep = json.loads(out)
    if kind == "expand":
        return {"rc": rc, "check": rep.get("check")}
    if kind == "bisect":
        return {"rc": rc, "threshold_interval": rep["threshold_interval"]}
    if kind == "point":
        return {"verdict": rep["verdict"], "smooth": rep["smooth"],
                "positive_orthant_count": rep["positive_orthant_count"]}
    if kind == "guess":
        if rc == 1 and rep.get("result") == "no recurrence found":
            return {"found": False}
        return {"found": True, "order": rep["order"], "degree": rep["degree"]}
    raise ValueError(f"no golden verdict for kind {kind!r}")


def check(job: Job, rc, out: str, golden: dict, terms: dict) -> Optional[str]:
    """None if the answer is right, else a one-line reason."""
    if job.kind == "diag":
        if rc != 0:
            return f"exit {rc}"
        rep = json.loads(out)
        got = [Fraction(s) for s in rep["diagonal"]]
        name, n_max = job.key.split(":")[1:]
        want = [CLOSED_FORMS[name](n) for n in range(int(n_max) + 1)]
        if got != want:
            bad = next((n for n, (g, w) in enumerate(zip(got, want)) if g != w),
                       min(len(got), len(want)))
            return f"diagonal differs from {name} closed form at n={bad}"
        return None
    if job.kind == "identity":
        rep = json.loads(out)
        if rc != 0 or rep.get("result") != "pass":
            return f"exit {rc}, result {rep.get('result')!r}"
        return None
    want = golden[job.key]
    got = verdict(job.kind, rc, out)
    if job.kind == "guess":
        if got != want:
            return f"expected {want}, got {got}"
        if got["found"]:
            rep = json.loads(out)
            coeffs = [[Fraction(c) for c in p] for p in rep["coefficients"]]
            if rc != 0 or not recurrence_holds(coeffs, terms[job.key]):
                return "returned recurrence fails on the terms"
        return None
    if job.kind == "point":
        # README: exit 0 exactly when every requested check passes; whether a
        # "violated" verdict is a failed check is still open, so both exit
        # codes are accepted for it.
        allowed = (0, 1) if want["verdict"] == "violated" else (0,)
        if rc not in allowed:
            return f"exit {rc}"
    if got != want:
        return f"expected {want}, got {got}"
    return None


# --- workloads --------------------------------------------------------------

def load_golden() -> dict:
    with open(GOLDEN_PATH) as fh:
        return json.load(fh)


def kauers_terms(golden: dict) -> list:
    return [Fraction(s) for s in golden["kauers_terms"]]


def terms_arg(values) -> str:
    return ",".join(str(v) for v in values)


def sweep_points(seed: int) -> list:
    rng = random.Random(f"sweep:{seed}")
    return [(a, rng.choice(side)) for a, sides in SWEEP_POOL.items()
            for side in sides]


def sweep_pool() -> list:
    return [(a, b) for a, sides in SWEEP_POOL.items()
            for side in sides for b in side]


def perturbation(seed: int) -> tuple:
    rng = random.Random(f"perturb:{seed}")
    return rng.choice(PERTURB_INDICES), rng.choice(PERTURB_DELTAS)


def perturb_key(index: int, delta: str) -> str:
    return f"guess:perturbed:{index}:{delta}"


def perturbed_terms(terms: list, index: int, delta: str) -> list:
    out = list(terms)
    out[index] += Fraction(delta)
    return out


def perturbed_job(terms: list, index: int, delta: str) -> Job:
    return Job("guess", perturb_key(index, delta),
               ["recur", "guess", "--terms",
                terms_arg(perturbed_terms(terms, index, delta)),
                "--max-order", "3", "--max-degree", "6"])


def sweep_jobs(a: str, b: str) -> list:
    fam = ["--family", "hab", f"--a={a}", f"--b={b}"]
    return [Job("expand", f"expand:hab:{a}:{b}:{SWEEP_N}",
                ["expand", *fam, "--N", str(SWEEP_N), "--check-positive"]),
            Job("point", f"point:hab:{a}:{b}", ["geometry", "point", *fam])]


def box_guess(seed: int, golden: dict) -> tuple:
    units = [
        [Job("guess", "guess:Kauers:3:6",
             ["recur", "guess", "--family", "Kauers", "--N", str(KAUERS_N),
              "--max-order", "3", "--max-degree", "6"])],
        [Job("diag", "diag:kzd:20",
             ["diag", "--family", "KZ-D", "--N", "20", "--oracle", "kzd"])],
        [Job("diag", "diag:franel:40",
             ["diag", "--family", "AG3", "--N", "40", "--oracle", "franel"])],
    ]
    return units, {"guess:Kauers:3:6": kauers_terms(golden)}


def positivity_lambda(seed: int, golden: dict) -> tuple:
    units = [
        [Job("expand", "expand:StraubLambda:16",
             ["expand", "--family", "StraubLambda", "--N", "16",
              "--check-positive"])],
        [Job("bisect", "bisect:10:1/256",
             ["geometry", "bisect", "--N", "10", "--prec", "1/256"])],
        # a negative grid start only parses in the --b=... form
        [Job("grid", "grid:0:1:1/8:-1:4:1/4",
             ["geometry", "grid", "--a=0:1:1/8", "--b=-1:4:1/4"])],
        [Job("expand", "expand:KZ-D:16:cache",
             ["expand", "--family", "KZ-D", "--N", "16", "--check-positive",
              "--cache", CACHE_NAME], cache_file=CACHE_NAME),
         Job("diag", "diag:kzd:16",
             ["diag", "--from-cache", CACHE_NAME, "--oracle", "kzd"])],
    ]
    units += [sweep_jobs(a, b) for a, b in sweep_points(seed)]
    return units, {}


def series_guess(seed: int, golden: dict) -> tuple:
    terms = kauers_terms(golden)
    index, delta = perturbation(seed)
    bent = perturbed_job(terms, index, delta)
    units = [
        [Job("identity", "identity:theta-modular:32",
             ["identity", "theta-modular", "--M", "32"])],
        [Job("identity", "identity:duco:60", ["identity", "duco", "--M", "60"])],
        [Job("identity", "identity:fran:48", ["identity", "fran", "--M", "48"])],
        [Job("guess", "guess:terms:3:6",
             ["recur", "guess", "--terms", terms_arg(terms),
              "--max-order", "3", "--max-degree", "6"])],
        [Job("guess", "guess:terms:2:8",
             ["recur", "guess", "--terms", terms_arg(terms),
              "--max-order", "2", "--max-degree", "8"])],
        [bent],
    ]
    return units, {"guess:terms:3:6": terms, "guess:terms:2:8": terms,
                   bent.key: perturbed_terms(terms, index, delta)}


WORKLOADS = {
    "box-guess": box_guess,
    "positivity-lambda": positivity_lambda,
    "series-guess": series_guess,
}


def build(workload: str, seed: int, golden: dict) -> tuple:
    """(jobs in seeded order, terms per guess key).

    Jobs that depend on each other (a cache write and its read) stay
    together; the seed shuffles the order of these units.
    """
    units, terms = WORKLOADS[workload](seed, golden)
    random.Random(f"order:{seed}").shuffle(units)
    jobs = [job for unit in units for job in unit]
    for job in jobs:
        job.argv = job.argv + ["--format", "json"]  # grid prints CSV anyway
    return jobs, terms


def run_job(cli, argv) -> tuple:
    """(exit code, captured stdout, seconds in cli.main, exception or None).

    ``cli.main`` is looked up on every call so that a traced run sees its
    wrapper.  Only the call itself is timed.
    """
    buf = io.StringIO()
    err = None
    with contextlib.redirect_stdout(buf):
        t0 = time.perf_counter()
        try:
            rc = cli.main(argv)
        except SystemExit as exc:  # argparse usage errors
            rc = exc.code if isinstance(exc.code, int) else 1
        except Exception as exc:  # counted as a failed job by the caller
            rc, err = None, exc
        seconds = time.perf_counter() - t0
    return rc, buf.getvalue(), seconds, err
