"""Write golden.json: the verdicts the benchmark checks answers against.

Run from the repository root:

    python3 perfbench/make_golden.py

It runs every job whose answer has no closed-form check (box, bisection,
grid and geometry verdicts, and whether a recurrence is found) over the
whole seeded candidate pool, and stores the program's verdicts together
with the Kauers diagonal terms that the guessing jobs take as input.
Re-run it only when a verdict is meant to change.
"""

from __future__ import annotations

import json
import os
import sys

import workloads as wl

ROOT = wl.HERE.parent


def main() -> int:
    sys.path.insert(0, str(ROOT / "src"))
    from diagonalis import cli

    wl.OUT_DIR.mkdir(exist_ok=True)
    os.environ["DIAGONALIS_CACHE"] = str(wl.OUT_DIR)

    rc, out, _, err = wl.run_job(
        cli, ["diag", "--family", "Kauers", "--N", str(wl.KAUERS_N),
              "--format", "json"])
    if err is not None or rc != 0:
        raise SystemExit(f"Kauers diagonal failed: exit {rc}, {err!r}")
    golden = {"kauers_terms": json.loads(out)["diagonal"]}

    jobs = []
    for build in wl.WORKLOADS.values():
        units, _ = build(0, golden)
        jobs += [job for unit in units for job in unit]
    for a, b in wl.sweep_pool():
        jobs += wl.sweep_jobs(a, b)
    terms = wl.kauers_terms(golden)
    jobs += [wl.perturbed_job(terms, index, delta)
             for index in wl.PERTURB_INDICES for delta in wl.PERTURB_DELTAS]

    for job in jobs:
        if job.kind in ("diag", "identity") or job.key in golden:
            continue
        rc, out, seconds, err = wl.run_job(cli, job.argv + ["--format", "json"])
        if err is not None:
            raise SystemExit(f"{job.key}: {err!r}")
        golden[job.key] = wl.verdict(job.kind, rc, out)
        print(f"{seconds:7.3f}s {job.key}: {golden[job.key]}"[:160],
              file=sys.stderr)
    cache = wl.OUT_DIR / wl.CACHE_NAME
    if cache.exists():
        cache.unlink()

    with open(wl.GOLDEN_PATH, "w") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
