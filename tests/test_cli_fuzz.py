"""Random argvs, drawn from the parser's own leaves and options with values
from a small hostile alphabet, run through `cli.main` in-process, must keep
the README's contract: exit status 0, 1 or 2 and nothing else escaping; a
one-line message on stderr on 2; one JSON object of schema v1 on stdout on 0
or 1 with --format json (but from `geometry grid`, which writes CSV).

Sizes stay bounded so that each run is fast.  A huge integer goes only to
--N, --max-order and --entry-limit, which refuse it before any work: a box
of a huge --N has more entries than even the huge --entry-limit, and a
huge --entry-limit alone is bounded by the small --N and --d.  --M, --upto,
--d and --max-degree stay small, and every grid range that may run has at
most 4 points; a hostile range of 10^18 + 1 points must be refused with
exit 2 before any point is built, as `cli._grid` counts a range's points
first.  The path alphabet holds a FIFO that no process opens, on which `open`
would block: every path option must refuse it with exit 2 before opening it."""

import argparse
import contextlib
import io
import json
import os
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from diagonalis.cli import _READS, build_parser, main
from diagonalis.sequences import binomial_oracle

_HUGE = "9" * 40
_HUGE_RANGE = "0:1000000000:1/1000000000"  # 10^18 + 1 points
_FRANEL = ",".join(map(str, binomial_oracle("franel", 29).coeffs))
_RATIONALS = (["0", "1/2", "3/2", "-1", "4"], ["", "-0", "1/0", "x"])
_SMALL = (["0", "2", "5"], ["", "-1", "-0"])

# option dest -> (values that may run, hostile values); a path under the
# cache directory is relative, and --output, which is not resolved against
# it, is absolute
_VALUES = {
    "format": (["text", "json"], ["", "yaml"]),
    "family": (["AG3", "Kauers", "KZ-D", "GRZ", "hab", "h0b", "StraubLambda",
                "Szego3"], ["Franel", ""]),
    "coeffs": (["1,-1,0,4", "1,-1", "1,1,0", "-1,1,0,5", "1,-1,1/2"],
               ["1/0,1", "1", "", "1,,2"]),
    "d": (["2", "3", "4"], ["", "-1", "-0", "0", "x"]),
    "a": _RATIONALS, "b": _RATIONALS, "c": _RATIONALS, "lam": _RATIONALS,
    "N": (["0", "2", "6"], ["", "-1", "-0", _HUGE]),
    "entry_limit": (["10", "100000", _HUGE[1:]], ["", "-1", "-0", "0"]),
    "cache": (["new.box", "good.box"], ["missing/new.box", "dir", "fifo", ""]),
    "from_cache": (["good.box", "new.box"], ["bad.box", "missing.box", "dir", "fifo", ""]),
    "scale": (["9-power", "3/2", "-1", "0"], ["", "1/0"]),
    "oracle": (["franel", "kzd", "2var"], ["nope", ""]),
    "terms": (["1,2,10,56", _FRANEL, "3/2,1,2", "-1,1,0,5"],
              ["", "1/0,1", "x", "1,,2"]),
    "max_order": (["1", "2"], ["", "-1", "-0", "0", _HUGE]),
    "max_degree": (["0", "1", "3"], ["", "-1", "-0"]),
    "builtin": (["franel", "kzd", "2var", "szego3"], ["nope", ""]),
    "rec_json": (['[["1","1"],["-2"]]', "[[1],[1]]", '[["1/2","1"],["-1"]]'],
                 ["", "[]", "[" * 3000 + "]" * 3000, "{", "[1,2]",
                  '[["1/0"],["1"]]', "null", "[[],[]]", '[["0"],["0"]]']),
    "upto": _SMALL, "M": _SMALL,
    "a_range": (["0:1:1/3", "0:1:1", "-1:2:1", "3/2:3/2:1"],
                ["1:0:1", "0:1:0", "0:1:-1", "1/0:1:1", "0:1", "", _HUGE_RANGE]),
    "b_range": (["4:5:1", "0:1:1/3", "-1:2:1"],
                ["1:0:1", "0:1:0", "x:1:1", "", _HUGE_RANGE]),
    "output": (["{dir}/out.csv"], ["{dir}", "{dir}/missing/out.csv", "{dir}/fifo", ""]),
    "prec": (["1/2", "1/16", "3/2"], ["", "1/0", "-1", "0"]),
    "b_lo": (["4", "3/2", "0", "5"], ["", "-1", "1/0"]),
    "name": (["theta-modular", "duco", "fran"], ["nope", ""]),
}


def _leaves(parser, path=()):
    """(the command words, the leaf parser) of every leaf under `parser`."""
    for action in parser._actions:
        if isinstance(action, argparse._SubParsersAction):
            for word, sub in action.choices.items():
                yield from _leaves(sub, path + (word,))
            return
    yield path, parser


_LEAVES = list(_leaves(build_parser()))


@st.composite
def _argv(draw):
    """A leaf's words, then one source of each group of its options, the
    options a run needs (the required ones, --N with a family or
    coefficients, the bounds of a guess or an extension) and up to two
    others.  A plain argv takes values that may run and no family parameter
    or --entry-limit that no source of it reads.  A hostile one takes any
    values and any others, and may drop a needed option."""
    path, leaf = draw(st.sampled_from(_LEAVES))
    actions = [a for a in leaf._actions if not isinstance(a, argparse._HelpAction)]
    hostile = draw(st.booleans())
    groups = [g._group_actions for g in leaf._mutually_exclusive_groups]
    chosen = [draw(st.sampled_from(g)) for g in groups]
    sources = {a.dest for a in chosen}
    read = {key for source in sources for key in _READS.get(source, ())}
    rest = [a for a in actions if not any(a in g for g in groups)
            and (a.dest not in _READS["family"] or a.dest in read)]
    needed = [a for a in rest if a.required
              or a.dest in ("max_order", "max_degree", "upto")
              or a.dest == "N" and sources & {"family", "coeffs"}]
    others = [a for a in (actions if hostile else rest)
              if a not in chosen and a not in needed]
    if hostile:
        needed = [a for a in needed if draw(st.integers(0, 3))]
    # --format is never needed, so `others` is never empty
    chosen += needed + draw(st.lists(st.sampled_from(others), unique=True, max_size=2))
    argv = list(path)
    for action in chosen:
        argv += action.option_strings[:1]  # none for a positional
        if action.nargs != 0:
            good, bad = _VALUES[action.dest]
            argv.append(draw(st.sampled_from(good + bad if hostile else good)))
    return argv


@pytest.fixture(scope="module")
def cache_dir(tmp_path_factory):
    """$DIAGONALIS_CACHE for the fuzz runs: a good cache, a bad one, a
    subdirectory and a FIFO that no process opens; runs may add caches of
    their own."""
    root = tmp_path_factory.mktemp("fuzz")
    assert main(["expand", "--family", "KZ-D", "--N", "4",
                 "--cache", str(root / "good.box")]) == 0
    (root / "bad.box").write_text("not a cache\n")
    (root / "dir").mkdir()
    os.mkfifo(root / "fifo")
    return root


def _run(argv, root: Path):
    """(exit status, stdout, stderr) of main(argv) with paths under root."""
    argv = [word.replace("{dir}", str(root)) for word in argv]
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"DIAGONALIS_CACHE": str(root)}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def test_every_option_has_an_alphabet():
    assert {a.dest for _, leaf in _LEAVES for a in leaf._actions
            if a.nargs != 0} == set(_VALUES)


@settings(max_examples=500, deadline=None)
@given(_argv())
@example(["recur", "check", "--rec-json", "[" * 3000 + "]" * 3000,
          "--terms", "1,2"])
@example(["geometry", "grid", "--a", "0:1:1/3", "--b", "4:5:1",
          "--output", "{dir}/missing/out.csv"])
@example(["expand", "--family", "KZ-D", "--N", _HUGE, "--entry-limit", _HUGE[1:]])
@example(["geometry", "grid", "--a", _HUGE_RANGE, "--b", "4:5:1"])
@example(["diag", "--from-cache", "fifo"])
@example(["expand", "--family", "KZ-D", "--N", "2", "--cache", "fifo"])
@example(["geometry", "grid", "--a", "0:1:1", "--b", "4:5:1", "--output", "{dir}/fifo"])
def test_fuzzed_argv_keeps_the_exit_contract(cache_dir, argv):
    code, out, err = _run(argv, cache_dir)
    assert code in (0, 1, 2), (argv, code)
    if _HUGE_RANGE in argv:
        assert code == 2, argv
    if code == 2:
        assert err.endswith("\n") and err.count("\n") == 1, (argv, err)
    elif "json" in argv and argv[argv.index("json") - 1] == "--format" \
            and argv[:2] != ["geometry", "grid"]:
        report = json.loads(out)
        assert isinstance(report, dict) and report["schema"] == "v1", argv
