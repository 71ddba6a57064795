"""Run the benchmark over several seeds and summarise the spread.

    python3 perfbench/repeat.py --seeds 1-10 --trace 0 \
        --out perfbench/results/baseline-e2e.json

Every workload is run with each seed for BENCHMARK.json's run_seconds.
For every workload and metric it records the values, the median, the
quartiles (statistics.quantiles(values, n=4)) and the spread, which is
the distance between the quartiles as a share of the median.  Runs go
one after another, never in parallel.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402


def seeds(spec: str) -> list:
    lo, _, hi = spec.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def summarise(values: list) -> dict:
    out = {"values": values, "median": statistics.median(values)}
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
        out.update(q1=q1, q3=q3,
                   spread=(q3 - q1) / out["median"] if out["median"] else 0.0)
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", default="1-10", help="e.g. 1-10")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="write the summary JSON here")
    args = ap.parse_args(argv)
    with open(HERE.parent / "BENCHMARK.json") as fh:
        seconds = json.load(fh)["run_seconds"]

    summary = {"machine": {"python": platform.python_version(),
                           "platform": platform.platform(),
                           "processor": platform.processor()},
               "seconds": seconds, "trace": args.trace, "workloads": {}}
    for workload in workloads.WORKLOADS:
        per_metric: dict = {}
        units: dict = {}
        failed = attempted = 0
        for seed in seeds(args.seeds):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload,
                 "--seed", str(seed), "--seconds", str(seconds),
                 "--trace", str(args.trace)],
                cwd=HERE.parent, stdout=subprocess.PIPE, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            failed += result["failed"]
            attempted += result["attempted"]
            for name, m in result["metrics"].items():
                per_metric.setdefault(name, []).append(m["value"])
                units[name] = m["unit"]
            print(f"{workload} seed {seed}: " + ", ".join(
                f"{k}={v['value']:.4g}" for k, v in result["metrics"].items()
                if args.trace == 0), flush=True)
        summary["workloads"][workload] = {
            "attempted": attempted, "failed": failed,
            "metrics": {name: dict(summarise(vals), unit=units[name])
                        for name, vals in per_metric.items()},
        }
        for name, s in summary["workloads"][workload]["metrics"].items():
            if "spread" in s:
                print(f"  {name:30s} median {s['median']:.5g} {s['unit']}, "
                      f"spread {s['spread']:.3f}")
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        with open(args.out, "w") as fh:
            json.dump(summary, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
