"""One workload in a fresh interpreter: set up, run passes, report.

Started by run.py with PYTHONPATH pointing at the checkout's ``src``:

    worker.py --workload W --seed S --mode setup
        import diagonalis.cli, build the inputs, print "ready", then
        print the yardstick time (median of 5) and exit
    worker.py --workload W --seed S --seconds T --mode plain
        untraced passes for about T seconds
    worker.py --workload W --seed S --seconds T --mode trace
        one cProfile pass, then untraced and traced passes in turn

A pass runs every job once, in a closed loop with one client, and checks
every answer.  The last line printed is one JSON object.
"""

from __future__ import annotations

import argparse
import cProfile
import fractions
import json
import os
import resource
import statistics
import sys
import time
from pathlib import Path

import spans as sp
import workloads as wl

ROOT = wl.HERE.parent


def setup(workload: str, seed: int):
    """Import the CLI and build the seeded inputs: what setup_s times."""
    from diagonalis import cli

    src = ROOT / "src"
    if Path(cli.__file__).resolve().parent.parent != src:
        raise SystemExit(f"diagonalis imported from {cli.__file__}, not {src}")
    golden = wl.load_golden()
    jobs, terms = wl.build(workload, seed, golden)
    return cli, golden, jobs, terms


REFERENCE_TERMS = 1500
OVERHEAD_PAIRS = 3  # untraced/traced pass pairs behind trace.overhead_frac
TRACE_LIMIT_S = 120  # no pair starts that would end a traced run later


def reference_seconds() -> float:
    """Time of a fixed loop of stdlib Fraction additions: the yardstick.

    This host's speed jumps between two levels about 1.6x apart and can
    stay at either for minutes (see README.md).  A job's time divided by
    the yardstick timed just before and after it cancels most of that.
    """
    t0 = time.perf_counter()
    total = fractions.Fraction(0)
    for i in range(1, REFERENCE_TERMS):
        total += fractions.Fraction(1, i)
    return time.perf_counter() - t0


class Runner:
    """Runs passes over one job list and counts checked answers."""

    def __init__(self, cli, golden, jobs, terms):
        self.cli, self.golden, self.jobs, self.terms = cli, golden, jobs, terms
        self.attempted = 0
        self.failures: list = []

    def run_pass(self, on_job=None, profile=None) -> dict:
        """Run every job once.  on_job(index) is called after each job;
        `profile`, if given, is enabled around the CLI calls only."""
        times, scaled = [], []
        cache_bytes = 0
        before = reference_seconds()
        for i, job in enumerate(self.jobs):
            if profile is not None:
                profile.enable()
            try:
                rc, out, seconds, err = wl.run_job(self.cli, job.argv)
            finally:
                if profile is not None:
                    profile.disable()
            after = reference_seconds()
            times.append(seconds)
            scaled.append(2 * seconds / (before + after))
            before = after
            self.attempted += 1
            try:
                why = (f"raised {err!r}" if err is not None
                       else wl.check(job, rc, out, self.golden, self.terms))
            except (ValueError, KeyError, TypeError) as exc:  # unparsable output
                why = f"unreadable answer: {exc!r}"
            if why is not None:
                self.failures.append(f"{job.key}: {why}")
            if job.cache_file:
                path = wl.OUT_DIR / job.cache_file
                if path.exists():
                    cache_bytes += path.stat().st_size
            if on_job is not None:
                on_job(i)
        return {"wall": sum(times), "slowest": max(times), "times": times,
                "wall_ref": sum(scaled), "slowest_ref": max(scaled),
                "cache_bytes": cache_bytes}


def plain(runner: Runner, seconds: float) -> dict:
    """Untraced passes, starting another while `seconds` have not passed."""
    passes = []
    t_end = time.perf_counter() + seconds
    while not passes or time.perf_counter() < t_end:
        passes.append(runner.run_pass())
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    def median(key):
        return statistics.median(p[key] for p in passes)

    return {
        "metrics": {"wall_ref": median("wall_ref"),
                    "slowest_job_ref": median("slowest_ref"),
                    "peak_rss_mb": rss_kib / 1024},
        "seconds": {"wall_s": median("wall"), "slowest_job_s": median("slowest")},
        "passes": [p["wall"] for p in passes],
        "job_s": [statistics.median(t) for t in zip(*(p["times"] for p in passes))],
    }


def traced_pass(runner: Runner, tracer: sp.Tracer, pass_no: int,
                ansatz_solves: int) -> tuple:
    pass_spans: list = []
    box = sp.box_stats([], {})

    def on_job(i):
        nonlocal box
        job_spans, observed = tracer.take()
        box = sp.merge_box_stats(box, sp.box_stats(job_spans, observed))
        pass_spans.extend(sp.rebase(job_spans, len(pass_spans)))
        if i + 1 < len(runner.jobs):
            tracer.job = f"{pass_no}.{i + 1}"

    tracer.job = f"{pass_no}.0"
    tracer.install()
    try:
        result = runner.run_pass(on_job)
    finally:
        tracer.remove()
    metrics = sp.layer_metrics(pass_spans, box, result["wall"],
                               result["cache_bytes"], ansatz_solves)
    return result["wall_ref"], metrics, pass_spans


def trace(runner: Runner, seconds: float, spans_path: Path) -> dict:
    """Profiled pass for exact counts, then untraced and traced passes in
    turn for the span metrics and the tracing overhead.  There are at
    least OVERHEAD_PAIRS pairs, even if that takes longer than `seconds`
    (but not longer than TRACE_LIMIT_S): one pair's ratio says little on
    a host whose speed changes."""
    from diagonalis import exactalg, sequences

    t_start = time.perf_counter()
    t_end = t_start + seconds
    prof = cProfile.Profile()
    runner.run_pass(profile=prof)
    counts = sp.profile_metrics(prof, fractions, exactalg.UniPoly,
                                sequences._nullspace)

    tracer = sp.Tracer()
    plain_passes, traced = [], []
    all_spans = []
    while True:
        plain_passes.append(runner.run_pass())
        wall_ref, metrics, pass_spans = traced_pass(
            runner, tracer, len(traced), counts["sequences.ansatz_solves"])
        traced.append((wall_ref, metrics))
        all_spans += sp.rebase(pass_spans, len(all_spans))
        next_end = (time.perf_counter() + metrics["trace.wall_s"]
                    + plain_passes[-1]["wall"])
        if next_end > t_start + TRACE_LIMIT_S or (
                len(traced) >= OVERHEAD_PAIRS and next_end > t_end):
            break

    out = {name: statistics.median(m[name] for _, m in traced)
           for name in traced[0][1]}
    out.update(counts)
    # per pair of host-normalized walls, so that a change of host speed
    # between the two kinds of pass does not show as overhead
    out["trace.overhead_frac"] = statistics.median(
        w / p["wall_ref"] for (w, _), p in zip(traced, plain_passes)) - 1
    with open(spans_path, "w") as fh:
        json.dump({"fields": ["name", "start", "end", "parent", "job"],
                   "jobs": [job.key for job in runner.jobs],
                   "spans": all_spans}, fh)
    return {"metrics": out, "passes": [p["wall"] for p in plain_passes]}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--mode", choices=["setup", "plain", "trace"], required=True)
    args = ap.parse_args(argv)

    cli, golden, jobs, terms = setup(args.workload, args.seed)
    if args.mode == "setup":
        print("ready", flush=True)
        print(statistics.median(reference_seconds() for _ in range(5)))
        return 0

    wl.OUT_DIR.mkdir(exist_ok=True)
    os.environ["DIAGONALIS_CACHE"] = str(wl.OUT_DIR)
    runner = Runner(cli, golden, jobs, terms)
    try:
        if args.mode == "plain":
            result = plain(runner, args.seconds)
        else:
            spans_path = wl.OUT_DIR / f"spans-{args.workload}-{args.seed}.json"
            result = trace(runner, args.seconds, spans_path)
    finally:
        for job in jobs:
            if job.cache_file and (wl.OUT_DIR / job.cache_file).exists():
                (wl.OUT_DIR / job.cache_file).unlink()
    result.update(attempted=runner.attempted, failed=len(runner.failures),
                  failures=runner.failures[:20], jobs=[job.key for job in jobs])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
