"""Benchmark entry point: one workload, end-to-end or per-layer numbers.

Run from the root of a checkout:

    python3 perfbench/run.py --workload box-guess --seed 1 --seconds 30 --trace 0

--trace 0 measures set-up (several fresh interpreters, median) and then
runs untraced passes in one more fresh interpreter; it reports the
end-to-end metrics.  --trace 1 runs a profiled pass and traced passes
instead, and reports the per-layer metrics.  Every job's answer is
checked either way.  The metrics are printed by name with their units,
and the last line of output is one JSON object:
{"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_RUNS = 11  # timed fresh-interpreter set-ups, after one untimed warm-up
# setup_s is in seconds of a host on which the worker's yardstick takes
# this long; see "Host-normalized time" in README.md
REFERENCE_YARDSTICK_S = 0.010
CHILD_TIMEOUT_S = 170

def _child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _worker(workload: str, seed: int, mode: str, seconds: float = 0.0) -> list:
    return [sys.executable, str(HERE / "worker.py"), "--workload", workload,
            "--seed", str(seed), "--mode", mode, "--seconds", str(seconds)]


def setup_seconds(workload: str, seed: int) -> tuple:
    """Median time from starting a fresh interpreter to 'ready', both
    host-normalized (each start's time divided by the yardstick timed in
    that interpreter, times REFERENCE_YARDSTICK_S) and in plain seconds."""
    scaled, times = [], []
    for i in range(SETUP_RUNS + 1):
        t0 = time.perf_counter()
        proc = subprocess.Popen(_worker(workload, seed, "setup"), cwd=ROOT,
                                env=_child_env(), stdout=subprocess.PIPE,
                                text=True)
        try:
            line = proc.stdout.readline()
            ready = time.perf_counter()
            yardstick = proc.stdout.read()
            proc.wait(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.wait()
        if line.strip() != "ready" or proc.returncode != 0:
            raise SystemExit(f"set-up failed (exit {proc.returncode})")
        if i:  # the first start also writes bytecode caches
            times.append(ready - t0)
            scaled.append(times[-1] / float(yardstick) * REFERENCE_YARDSTICK_S)
    return statistics.median(scaled), statistics.median(times)


def measure(workload: str, seed: int, mode: str, seconds: float) -> dict:
    proc = subprocess.run(_worker(workload, seed, mode, seconds), cwd=ROOT,
                          env=_child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"worker failed (exit {proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "diagonalis" / "cli.py").is_file():
        print(f"no program to measure: {ROOT / 'src' / 'diagonalis'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(HERE))
    import workloads
    if args.workload not in workloads.WORKLOADS:
        print(f"unknown workload {args.workload!r}; "
              f"known: {', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2

    with open(ROOT / "BENCHMARK.json") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}
    if args.trace:
        result = measure(args.workload, args.seed, "trace", args.seconds)
        measured = result["metrics"]
    else:
        setup_s, setup_wall_s = setup_seconds(args.workload, args.seed)
        result = measure(args.workload, args.seed, "plain", args.seconds)
        result["seconds"]["setup_wall_s"] = setup_wall_s
        measured = dict(result["metrics"], setup_s=setup_s)
    if set(measured) != set(units):
        raise SystemExit("measured metrics differ from BENCHMARK.json: "
                         f"{sorted(set(measured) ^ set(units))}")
    metrics = {name: measured[name] for name in units}

    attempted, failed = result["attempted"], result["failed"]
    # printed beside the declared metrics, not part of the result line
    shown = dict(metrics, failed_frac=failed / attempted)
    shown.update(result.get("seconds", {}))
    units = dict(units, failed_frac="ratio", wall_s="s", slowest_job_s="s",
                 setup_wall_s="s")
    print(f"workload {args.workload}, seed {args.seed}: {len(result['jobs'])} "
          f"jobs per pass, untraced pass walls "
          f"{', '.join('%.3f' % w for w in result['passes'])} s")
    for key, seconds in zip(result["jobs"], result.get("job_s", ())):
        print(f"  {seconds:8.3f} s  {key}")
    for reason in result["failures"]:
        print(f"FAILED {reason}")
    for name in sorted(shown):
        print(f"{name:32s} {shown[name]:14.6g} {units[name]}")
    print(json.dumps({
        "correct": failed == 0, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
