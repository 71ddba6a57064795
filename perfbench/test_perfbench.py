"""Tests of the benchmark itself: python3 -m pytest perfbench -q"""

from __future__ import annotations

import json
import sys
import types
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import spans as sp  # noqa: E402
import worker  # noqa: E402
import workloads as wl  # noqa: E402


def test_self_times_subtract_covered_child_time():
    spans = [
        ("cli.main", 0.0, 10.0, -1, "0.0"),
        ("seriesbox.expand_reciprocal", 1.0, 4.0, 0, "0.0"),
        ("sequences.recurrence_guess", 3.0, 6.0, 0, "0.0"),  # overlaps 3..4
        ("sequences.recurrence_check", 2.0, 3.0, 1, "0.0"),
        ("cli.main", 12.0, 13.0, -1, "0.1"),
    ]
    assert sp.self_times(spans) == [5.0, 2.0, 3.0, 1.0, 1.0]
    assert sp.layer_self(spans, sp.self_times(spans))["cli"] == 6.0
    assert sp.inclusive(spans, ["cli.main"]) == 11.0
    # nested spans of a counted name are not counted twice
    assert sp.inclusive(spans, ["seriesbox.expand_reciprocal",
                                "sequences.recurrence_check"]) == 3.0
    assert sp.rebase(spans[1:2], 7)[0][sp.PARENT] == 7


def _diag_cli(corrupt_at):
    """A stand-in CLI that prints the Franel diagonal, one term altered."""
    def main(argv):
        n_max = int(argv[argv.index("--N") + 1])
        values = [wl.franel(n) for n in range(n_max + 1)]
        if corrupt_at is not None:
            values[corrupt_at] += 1
        print(json.dumps({"diagonal": [str(v) for v in values]}))
        return 0
    return types.SimpleNamespace(main=main)


def test_corrupted_diagonal_term_counts_as_failed():
    job = wl.Job("diag", "diag:franel:8",
                 ["diag", "--family", "AG3", "--N", "8", "--oracle", "franel"])
    good = worker.Runner(_diag_cli(None), {}, [job], {})
    good.run_pass()
    assert (good.attempted, good.failures) == (1, [])
    bad = worker.Runner(_diag_cli(5), {}, [job], {})
    bad.run_pass()
    assert bad.attempted == 1
    assert len(bad.failures) == 1 and "n=5" in bad.failures[0]


def test_recurrence_check_is_independent_of_the_program():
    # (n+1) u_{n+1} - 2(2n+1) u_n = 0 for the central binomials C(2n, n)
    central = [1, 2, 6, 20, 70, 252]
    coeffs = [[-2, -4], [1, 1]]
    assert wl.recurrence_holds(coeffs, central)
    assert not wl.recurrence_holds(coeffs, central[:4] + [71, 252])


def _bindings(package):
    """Every module attribute and class attribute of the package, by id."""
    out = {}
    for name, mod in list(sys.modules.items()):
        if mod is None or not (name == package or name.startswith(package + ".")):
            continue
        for attr, value in vars(mod).items():
            out[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for cattr, cvalue in vars(value).items():
                    out[(name, attr, cattr)] = cvalue
    return out


def test_traced_pass_restores_every_wrapped_function():
    cli, golden, _, terms = worker.setup("series-guess", 0)
    from diagonalis import geometry, seriesbox, uniseries

    before = _bindings("diagonalis")
    tracer = sp.Tracer()
    tracer.install()
    try:
        # a name bound by `from x import y` is wrapped where it is bound too
        assert geometry.expand_reciprocal is not before[
            ("diagonalis.geometry", "expand_reciprocal")]
        assert seriesbox.expand_reciprocal is not before[
            ("diagonalis.seriesbox", "expand_reciprocal")]
        assert vars(uniseries.UniSeries)["compose"] is not before[
            ("diagonalis.uniseries", "UniSeries", "compose")]
    finally:
        tracer.remove()
    assert all(_bindings("diagonalis")[k] is v for k, v in before.items())

    jobs = [wl.Job("diag", "diag:franel:6",
                   ["diag", "--family", "AG3", "--N", "6", "--oracle",
                    "franel", "--format", "json"]),
            wl.Job("identity", "identity:fran:8",
                   ["identity", "fran", "--M", "8", "--format", "json"])]
    runner = worker.Runner(cli, golden, jobs, terms)
    wall, metrics, pass_spans = worker.traced_pass(runner, tracer, 0, 0)
    assert runner.failures == []
    assert metrics["seriesbox.entries_stored"] == 84  # sorted triples in [0..6]^3
    assert metrics["uniseries.compose_calls"] == 1
    names = {span[sp.NAME] for span in pass_spans}
    assert {"cli.main", "seriesbox.expand_reciprocal",
            "identities.verify_identity", "family.named_instance"} <= names
    after = _bindings("diagonalis")
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())
