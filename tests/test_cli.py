import argparse
import errno
import hashlib
import json
import os
import re
import stat
import subprocess
import sys
import zlib
from fractions import Fraction
from pathlib import Path

import pytest

import diagonalis
from diagonalis import cli, geometry, sequences, seriesbox
from diagonalis.cli import _grid, _positive_rational, build_parser, main
from diagonalis.exactalg import UniPoly
from diagonalis.family import FamilySpec
from diagonalis.sequences import binomial_oracle


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_expand_positive_family(capsys):
    code, out = run(capsys, "expand", "--family", "AG3", "--N", "6",
                    "--check-positive")
    assert code == 0
    assert "no nonpositive coefficient" in out


def test_expand_flags_negative_coefficient(capsys):
    code, out = run(capsys, "expand", "--coeffs", "1,1,0", "--N", "3",
                    "--check-positive")
    assert code == 1
    assert "(1,0)" in out


def test_expand_lambda_check(capsys):
    code, out = run(capsys, "expand", "--family", "StraubLambda", "--N", "3",
                    "--check-positive")
    assert code == 0
    assert "lambda-coefficients" in out


def test_expand_json_format(capsys):
    code, out = run(capsys, "expand", "--family", "AG3", "--N", "2",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["schema"] == "v1" and data["entries"] == 27
    assert data["entries_stored"] == 10  # sorted triples in [0..2]^3


def test_expand_text_reports_stored_entries(capsys):
    code, out = run(capsys, "expand", "--family", "KZ-D", "--N", "3")
    assert code == 0
    assert "entries: 256\n" in out and "entries_stored: 35\n" in out


def _report(argv):
    """The pinned (argv, text, JSON data) of `_REPORTS` or `_FLAGGED_REPORTS`."""
    return next(r for r in _REPORTS + _FLAGGED_REPORTS if r[0] == argv)


def test_plain_expand_stops_after_the_scale_and_collects_none(capsys, monkeypatch,
                                                               tmp_path, cold_plans):
    def no_box(*args, **kwargs):
        raise AssertionError("expand collected a box")
    monkeypatch.setattr(cli, "expand_reciprocal", no_box)
    drawn, enumerated = [], []

    def counted(*args):
        for item in seriesbox.expand_layers(*args):
            drawn.append(item)
            yield item
    monkeypatch.setattr(cli, "expand_layers", counted)
    shape_groups = seriesbox._shape_groups

    def enumerating(*args):
        for groups in shape_groups(*args):
            enumerated.append(groups)
            yield groups
    monkeypatch.setattr(seriesbox, "_shape_groups", enumerating)
    argv, text, data = _report(["expand", "--family", "StraubLambda", "--N", "2"])
    assert run(capsys, *argv) == (0, text)
    assert run(capsys, *argv, "--format", "json") == (0, json.dumps(data, indent=2) + "\n")
    assert len(drawn) == 2  # the scale, twice
    assert enumerated == []  # no layer past the scale is made
    # the scan alone stops at the flagged layer 17; with the cache it reads all
    # 37, for the diagonal
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DIAGONALIS_CACHE", raising=False)
    for argv, layers in ((["expand", "--family", "hab", "--a", "1/4", "--b", "21/8",
                           "--N", "30", "--check-positive"], 18),
                         (["expand", "--family", "hab", "--a", "1/4", "--b", "23/8",
                           "--N", "12", "--check-positive", "--cache", "flagged.box"], 37)):
        drawn.clear()
        argv, text, data = _report(argv)
        assert run(capsys, *argv) == (1, text)
        assert len(drawn) == 1 + layers
    assert (tmp_path / "flagged.box").read_text().endswith(_CACHE_TRAILERS["flagged.box"])
    # the cache alone of a tapped diagonal (LewyAskey, c_2 != 0) reads all 13
    # layers; KZ-D's is counted and draws the scale alone, but with the scan
    # the cache taps the 13 layers that the scan reads; both KZ-D files are
    # the one pinned in test_seriesbox
    for family, opts, layers, trailer in (
            ("LewyAskey", [], 13, "868cbbaf"), ("KZ-D", [], 0, "e65b112c"),
            ("KZ-D", ["--check-positive"], 13, "e65b112c")):
        drawn.clear()
        code, out = run(capsys, "expand", "--family", family, "--N", "3", *opts,
                        "--cache", "d3.box")
        assert code == 0 and out.endswith("cache: ./d3.box\n") and len(drawn) == 1 + layers
        assert (tmp_path / "d3.box").read_text().endswith(f"\ncrc32={trailer}\n")


@pytest.mark.parametrize("argv, err", [
    (["--family", "AG3", "--N", "3", "--entry-limit", "63"],
     "box [0..3]^3 has 64 entries, limit 63"),
    (["--coeffs", "0,-1,0,4", "--N", "3"], "c_0 must be nonzero"),
], ids=["entry-limit", "zero-constant"])
def test_plain_expand_still_refuses_what_it_cannot_expand(capsys, argv, err):
    with pytest.raises(SystemExit) as exc:
        main(["expand", *argv])
    assert exc.value.code == 2
    assert capsys.readouterr().err == f"diagonalis expand: error: {err}\n"


def test_diag_oracle_match(capsys):
    code, out = run(capsys, "diag", "--family", "AG3", "--N", "8",
                    "--oracle", "franel")
    assert code == 0
    assert "match" in out


def test_diag_scaled_szego(capsys):
    code, out = run(capsys, "diag", "--family", "Szego3", "--N", "5",
                    "--scale", "2", "--oracle", "szego3")
    assert code == 0
    assert "match" in out


def test_diag_oracle_mismatch_exit_code(capsys):
    code, out = run(capsys, "diag", "--family", "KZ-D", "--N", "4",
                    "--oracle", "franel")
    assert code == 1
    assert "mismatch" in out


def test_lewy_askey_oracle_runs_its_recurrence_once(capsys, monkeypatch):
    # the oracle's terms come from one run of the recurrence, which solves each
    # of u_1..u_6 once (the early check of the name, at M = 0, solves none)
    solved = []

    def counted(coeffs, upto, initial, forcing=None):
        solved.append(upto)
        return run_extended(coeffs, upto, initial, forcing)
    run_extended = sequences._run_extended
    monkeypatch.setattr(sequences, "_run_extended", counted)
    code, out = run(capsys, "diag", "--family", "LewyAskey", "--N", "6",
                    "--scale", "9-power", "--oracle", "lewy-askey")
    assert code == 0 and "oracle: match (lewy-askey, n <= 6)" in out
    assert solved == [0, 6]


def test_diag_from_a_lambda_cache_is_usage_error(capsys, tmp_path):
    # no command writes one: a KZ-D cache re-sealed under StraubLambda's c=
    path = tmp_path / "straub3.box"
    run(capsys, "expand", "--family", "KZ-D", "--N", "3", "--cache", str(path))
    text = path.read_text()
    path.write_text(_sealed(text[:text.rindex("crc32=")].replace(
        'c=["1","-1","0","2","4"]', 'c=["1",["-1","-1"],["0","2","1"],["4","0","-3","-1"]]')))
    with pytest.raises(SystemExit) as exc:
        main(["diag", "--from-cache", str(path)])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"diagonalis diag: error: cannot load cache {path}: "
                            "diagonal extraction requires a rational box\n")


def test_cache_roundtrip_via_env(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("DIAGONALIS_CACHE", str(tmp_path))
    code, _ = run(capsys, "expand", "--family", "AG3", "--N", "5",
                  "--cache", "ag3.box")
    assert code == 0
    assert (tmp_path / "ag3.box").exists()
    code, out = run(capsys, "diag", "--from-cache", "ag3.box", "--N", "5",
                    "--oracle", "franel")
    assert code == 0
    assert "match" in out
    code, out = run(capsys, "diag", "--from-cache", "ag3.box", "--format", "json")
    assert code == 0
    assert json.loads(out)["N"] == 5  # the cache's bound, without --N


@pytest.mark.parametrize("family, opts, cache_opts", [
    ("--family KZ-D --N 8", "--oracle kzd", None),
    ("--family AG3 --N 10", "--oracle franel", None),
    ("--family Szego3 --N 8", "--scale 2 --oracle szego3", None),
    ("--family LewyAskey --N 8", "--scale 9-power --oracle lewy-askey", None),
    ("--family Koornwinder --N 6", "--oracle koornwinder", None),
    ("--family h2var --a 2 --N 10", "--oracle 2var", "--oracle 2var --a 2"),
    ("--family Kauers --N 12", "", None),
    ("--family h0b --b=-1/8 --N 4", "", None),
    ("--family hab --a 1/4 --b 23/8 --N 12", "", None),
    ("--family KZ-D --N 4", "--oracle franel", None),  # a mismatch, exit 1
    ("--family StraubLambda --lam 1/2 --N 6", "", None),
], ids=lambda v: v)
def test_diag_from_cache_reports_what_diag_family_reports(capsys, tmp_path, family, opts,
                                                          cache_opts):
    # every README family that a cache can hold, with its oracle where it has
    # one: the report differs by the family line alone
    path = str(tmp_path / "x.box")
    assert run(capsys, "expand", *family.split(), "--cache", path)[0] == 0
    for fmt in ("text", "json"):
        code, out = run(capsys, "diag", *family.split(), *opts.split(), "--format", fmt)
        if fmt == "json":
            want = json.loads(out)
            del want["family"]
            out = json.dumps(want, indent=2) + "\n"
        else:
            out = "".join(line for line in out.splitlines(keepends=True)
                          if not line.startswith("family: "))
        assert run(capsys, "diag", "--from-cache", path, *(cache_opts or opts).split(),
                   "--format", fmt) == (code, out)


def test_diag_from_cache_applies_numeric_scale(capsys, tmp_path):
    path = tmp_path / "sz.box"
    run(capsys, "expand", "--family", "Szego3", "--N", "4", "--cache", str(path))
    code, out = run(capsys, "diag", "--from-cache", str(path),
                    "--scale", "2", "--oracle", "szego3")
    assert code == 0
    assert "match" in out


def _sealed(body: str) -> str:
    """A cache body under a fresh crc32= trailer, as `save_cache` seals it."""
    return f"{body}crc32={zlib.crc32(body.encode()):08x}\n"


_NESTED = "[" * 50000 + "]" * 50000  # JSON past any recursion limit of the decoder


def test_diag_from_damaged_cache_is_usage_error(capsys, tmp_path):
    path = tmp_path / "kzd3.box"
    run(capsys, "expand", "--family", "KZ-D", "--N", "3", "--cache", str(path))
    text = path.read_text()
    body = text[:text.rindex("crc32=")]
    header = body.split("\n", 1)[0]
    damaged = [  # (file text, what the message must name)
        (text[:len(text) // 2], "crc32= trailer"),
        (body, "no crc32= trailer"),
        (text.replace("\n3:220\n", "\n3:221\n"), "crc32= trailer"),
        (text.replace("\ncrc32=", "\ncrc32=0", 1), "does not match its crc32= trailer"),
        (_sealed("".join(body.splitlines(keepends=True)[:4])),
         "cache holds 3 diagonal lines; N=3 needs N + 1 = 4"),
        (_sealed(body + "4:0\n"), "cache holds 5 diagonal lines; N=3 needs N + 1 = 4"),
        (_sealed(body.replace("N=3; ", "", 1)), "N="),
        (_sealed(body.replace("L=1; ", "L=one; ", 1)), "malformed L="),
        (_sealed(body.replace(header[header.index("c="):], "c=[1]", 1)),
         "malformed c= (need a list c_0, ..., c_d with d >= 1)"),
        (_sealed(body.replace(header[header.index("c="):], 'c={"dim":4}', 1)),
         "malformed c= (need a list c_0, ..., c_d with d >= 1)"),
        (_sealed(body.replace(header[header.index("c="):], "c=" + _NESTED, 1)),
         "malformed c= (maximum recursion depth exceeded"),
        (_sealed(body.replace("L=1", "L=2", 1)), "L=2 but c and N give L=1"),
        (_sealed(body.replace("N=3", "N=-1", 1)), "cache header: negative N=-1"),
        (_sealed(body.replace('c=["1",', 'c=["0",', 1)),
         "cache header: c= not expandable at origin: zero constant term"),
        (_sealed(body.replace("\n2:", "\n3:", 1)), "line 4: found index '3', expected 2"),
        (_sealed(body.replace(":4\n", ':["4"]\n', 1)), "line 3"),  # a v1 Q[lambda] entry
        ('diagonalis-box v1; d=4; N=3; ring=Q; denom={}\n0,0,0,0:1\n', "v1 is no longer read"),
        ('diagonalis-box v2; d=4; N=3; sym=1; L=1; B=0; denom={}\n0,0,0,0:1\n',
         "v2 is no longer read"),
        ('diagonalis-box v3; N=3; L=1; B=0; c=["1","-1","0","2","4"]\n0,0,0,0:1\n',
         "v3 is no longer read"),
    ]
    for bad, named in damaged:
        path.write_text(bad)
        with pytest.raises(SystemExit) as exc:
            main(["diag", "--from-cache", str(path), "--oracle", "kzd"])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "cannot load cache" in err and named in err, err
        assert err.count("\n") == 1 and "Traceback" not in err


def test_failed_cache_write_keeps_the_old_cache(capsys, tmp_path, monkeypatch):
    path = tmp_path / "kzd3.box"
    run(capsys, "expand", "--family", "KZ-D", "--N", "3", "--cache", str(path))
    before = path.read_bytes()

    def fail_midway(c, N, scale, diagonal, fh):
        fh.write("diagonalis-diagonal v4; N=3")
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "save_cache", fail_midway)
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--family", "AG3", "--N", "3", "--cache", str(path)])
    assert exc.value.code == 2
    assert "No space left on device" in capsys.readouterr().err
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["kzd3.box"]


class _FullDisk:
    """A file whose `write` fails with ENOSPC."""

    def __init__(self, fh):
        self.fh, self.writes = fh, 0

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()

    def write(self, text: str) -> int:
        self.writes += 1
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))


def test_write_failing_on_a_later_layer_keeps_the_old_cache(capsys, tmp_path, monkeypatch):
    # the file is opened only after the last layer, so a write that fails
    # fails after the whole expansion, and still leaves the old cache whole
    path = tmp_path / "kzd3.box"
    run(capsys, "expand", "--family", "KZ-D", "--N", "3", "--cache", str(path))
    before = path.read_bytes()
    drawn, opened = [], []

    def counted(*args):
        for item in seriesbox.expand_layers(*args):
            drawn.append(item)
            yield item

    def full_disk(name, mode):
        assert len(drawn) == 1 + 10  # the scale and the 10 layers of AG3 at N = 3
        opened.append(_FullDisk(open(name, mode)))
        return opened[-1]
    monkeypatch.setattr(cli, "expand_layers", counted)
    monkeypatch.setattr(cli, "open", full_disk, raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--family", "AG3", "--N", "3", "--check-positive",
              "--cache", str(path)])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot write cache {path}: No space left on device" in err
    assert err.count("\n") == 1 and ".tmp" not in err
    assert [f.writes for f in opened] == [1]
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["kzd3.box"]


def test_expansion_failing_midway_opens_no_file(capsys, tmp_path, monkeypatch):
    path = tmp_path / "kzd3.box"
    run(capsys, "expand", "--family", "KZ-D", "--N", "3", "--cache", str(path))
    before = path.read_bytes()

    def failing(*args):
        layers = seriesbox.expand_layers(*args)
        yield next(layers)  # the scale
        yield next(layers)  # layer 0
        raise MemoryError

    def no_file(*args, **kwargs):
        raise AssertionError("a file was opened")
    monkeypatch.setattr(cli, "expand_layers", failing)
    monkeypatch.setattr(cli, "open", no_file, raising=False)
    with pytest.raises(MemoryError):  # Szego3 (c_1 c_2 != 0) is tapped, not counted
        main(["expand", "--family", "Szego3", "--N", "3", "--cache", str(path)])
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["kzd3.box"]


_LAMBDA_DIAGONAL = "diagonal extraction requires a rational box"


@pytest.mark.parametrize("argv, message", [
    ("diag --family StraubLambda --N 40", _LAMBDA_DIAGONAL),
    ("recur guess --family StraubLambda --N 40 --max-order 2 --max-degree 2",
     _LAMBDA_DIAGONAL),
    ("recur check --builtin franel --family StraubLambda --N 40", _LAMBDA_DIAGONAL),
    # the scale's own refusals still come first
    ("diag --family StraubLambda --N -1", "box bound must be >= 0"),
    ("recur guess --family StraubLambda --N 40 --entry-limit 1000 --max-order 2 "
     "--max-degree 2", "box [0..40]^3 has 68921 entries, limit 1000"),
], ids=lambda v: v[:60])
def test_a_lambda_family_diagonal_is_refused_before_any_layer(capsys, monkeypatch,
                                                              argv, message):
    drawn = []
    expand = seriesbox.expand_layers

    def counted(*args):
        layers = expand(*args)
        yield next(layers)  # the scale
        for item in layers:
            drawn.append(item[0])
            yield item
    # cli binds expand_layers, and expand_reciprocal reads it from seriesbox
    monkeypatch.setattr(cli, "expand_layers", counted)
    monkeypatch.setattr(seriesbox, "expand_layers", counted)
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.endswith(f" error: {message}\n")
    assert drawn == []


@pytest.mark.parametrize("argv", [
    ["--family", "AG3", "--N", "3", "--entry-limit", "63"],
    ["--family", "AG3", "--N", "3", "--entry-limit", "63", "--check-positive"],
    ["--coeffs", "0,-1,0,4", "--N", "3"],
    ["--family", "StraubLambda", "--N", "16"],
], ids=["entry-limit", "entry-limit-check", "zero-constant", "lambda"])
def test_refused_expand_opens_no_file_over_the_old_cache(capsys, tmp_path, monkeypatch,
                                                         argv):
    path = tmp_path / "kzd3.box"
    run(capsys, "expand", "--family", "KZ-D", "--N", "3", "--cache", str(path))
    before = path.read_bytes()

    def no_file(*args, **kwargs):
        raise AssertionError("a file was opened")
    monkeypatch.setattr(cli, "open", no_file, raising=False)
    with pytest.raises(SystemExit) as exc:
        main(["expand", *argv, "--cache", str(path)])
    assert exc.value.code == 2
    assert capsys.readouterr().err.count("\n") == 1
    assert path.read_bytes() == before
    assert os.listdir(tmp_path) == ["kzd3.box"]


@pytest.mark.parametrize("name", ["missing/x.box", "a-directory"])
def test_cache_write_error_names_the_given_path(capsys, tmp_path, name):
    (tmp_path / "a-directory").mkdir()
    path = str(tmp_path / name)
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--family", "KZ-D", "--N", "2", "--cache", path])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert f"cannot write cache {path}: " in err and ".tmp" not in err, err
    assert err.count("\n") == 1
    assert os.listdir(tmp_path) == ["a-directory"]
    assert os.listdir(tmp_path / "a-directory") == []


@pytest.mark.parametrize("name, reason", [
    ("missing/x.box", "No such file or directory"),
    ("a-file/x.box", "Not a directory"),
    ("a-directory", "Is a directory"),
    ("read-only/x.box", "Permission denied"),
], ids=["missing", "file", "directory", "read-only"])
def test_unwritable_cache_is_refused_before_any_layer(capsys, monkeypatch, tmp_path,
                                                      cold_plans, name, reason):
    # KZ-D at N = 60 took about a second of layers before the write failed
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "read-only").mkdir()
    (tmp_path / "a-file").write_text("")
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: not p.endswith("read-only")
                        and access(p, mode))
    enumerated = []
    shape_groups = seriesbox._shape_groups

    def enumerating(*args):
        for groups in shape_groups(*args):
            enumerated.append(groups)
            yield groups
    monkeypatch.setattr(seriesbox, "_shape_groups", enumerating)
    path = str(tmp_path / name)
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--family", "KZ-D", "--N", "60", "--cache", path])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (f"diagonalis expand: error: cannot write cache "
                                       f"{path}: {reason}\n")
    assert enumerated == []
    assert sorted(os.listdir(tmp_path)) == ["a-directory", "a-file", "read-only"]


@pytest.mark.parametrize("name", ["pipe", "link-to-pipe"])
def test_a_cache_path_that_is_not_a_regular_file_is_refused_before_any_layer(
        capsys, monkeypatch, tmp_path, cold_plans, name):
    # renaming the cache over a FIFO, a socket or a device node would replace
    # it with a regular file; a symlink is followed to what it names
    fifo = tmp_path / "pipe"
    os.mkfifo(fifo)
    (tmp_path / "link-to-pipe").symlink_to("pipe")

    def no_layer(*args):
        raise AssertionError("a layer was enumerated")
    monkeypatch.setattr(seriesbox, "_shape_groups", no_layer)
    path = str(tmp_path / name)
    with pytest.raises(SystemExit) as exc:
        main(["expand", "--family", "KZ-D", "--N", "3", "--cache", path])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (f"diagonalis expand: error: cannot write cache "
                                       f"{path}: not a regular file\n")
    assert stat.S_ISFIFO(os.lstat(fifo).st_mode)
    assert sorted(os.listdir(tmp_path)) == ["link-to-pipe", "pipe"]


_PATH_OPTIONS = {  # option -> (the argv before its path, the refusal's prefix)
    "cache": (["expand", "--family", "KZ-D", "--N", "3", "--cache"],
              "diagonalis expand: error: cannot write cache"),
    "from-cache": (["diag", "--oracle", "kzd", "--from-cache"],
                   "diagonalis diag: error: cannot load cache"),
    "output": (["geometry", "grid", "--a", "0:0:1", "--b", "0:0:1", "--output"],
               "diagonalis geometry grid: error: cannot write output"),
}


@pytest.mark.parametrize("option", sorted(_PATH_OPTIONS))
@pytest.mark.parametrize("name, reason", [
    ("pipe", "not a regular file"),
    ("link-to-pipe", "not a regular file"),
    ("a-directory", "Is a directory"),
], ids=["fifo", "link-to-fifo", "directory"])
def test_a_path_that_is_not_a_regular_file_is_refused_before_any_work(tmp_path, option,
                                                                     name, reason):
    # `open` blocks on a FIFO that no process opens from the other end, so
    # each run is a child process cut at 60 s; it takes well under a second
    os.mkfifo(tmp_path / "pipe")
    (tmp_path / "link-to-pipe").symlink_to("pipe")
    (tmp_path / "a-directory").mkdir()
    argv, prefix = _PATH_OPTIONS[option]
    path = str(tmp_path / name)
    env = dict(os.environ, PYTHONPATH=str(Path(diagonalis.__file__).parent.parent))
    proc = subprocess.run([sys.executable, "-m", "diagonalis.cli", *argv, path], env=env,
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == f"{prefix} {path}: {reason}\n"
    assert stat.S_ISFIFO(os.lstat(tmp_path / "pipe").st_mode)
    assert sorted(os.listdir(tmp_path)) == ["a-directory", "link-to-pipe", "pipe"]
    assert os.listdir(tmp_path / "a-directory") == []


def test_a_cache_written_through_a_symlink_keeps_the_link(capsys, tmp_path):
    (tmp_path / "real.box").write_text("an older cache\n")
    link = tmp_path / "link.box"
    link.symlink_to("real.box")
    argv = ["expand", "--family", "KZ-D", "--N", "3", "--cache"]
    assert run(capsys, *argv, str(tmp_path / "direct.box"))[0] == 0
    code, out = run(capsys, *argv, str(link))
    assert code == 0 and out.endswith(f"cache: {link}\n")
    assert link.is_symlink() and os.readlink(link) == "real.box"
    assert (tmp_path / "real.box").read_bytes() == (tmp_path / "direct.box").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["direct.box", "link.box", "real.box"]


def test_expand_deterministic_output(capsys, tmp_path):
    p1, p2 = tmp_path / "a.box", tmp_path / "b.box"
    run(capsys, "expand", "--family", "KZ-D", "--N", "3", "--cache", str(p1))
    run(capsys, "expand", "--family", "KZ-D", "--N", "3", "--cache", str(p2))
    assert p1.read_text() == p2.read_text()


def test_recur_check_pass(capsys):
    code, out = run(capsys, "recur", "check", "--builtin", "franel",
                    "--terms", "1,2,10,56")
    assert code == 0
    assert "pass" in out


def test_recur_check_fail(capsys):
    code, out = run(capsys, "recur", "check", "--builtin", "franel",
                    "--terms", "1,2,10,57")
    assert code == 1
    assert "fail at n=" in out


def test_recur_extend_seed(capsys):
    code, out = run(capsys, "recur", "extend", "--builtin", "franel",
                    "--upto", "4")
    assert code == 0
    assert "'1', '2', '10', '56', '346'" in out


def test_recur_guess_from_terms(capsys):
    terms = ",".join(str(3 ** n) for n in range(16))
    code, out = run(capsys, "recur", "guess", "--terms", terms,
                    "--max-order", "1", "--max-degree", "1")
    assert code == 0
    assert "empirical" in out


def test_recur_guess_without_a_fit_exits_1(capsys):
    fib = [1, 1]
    while fib[-1] < 4181:
        fib.append(fib[-1] + fib[-2])
    code, out = run(capsys, "recur", "guess", "--terms", ",".join(map(str, fib)),
                    "--max-order", "1", "--max-degree", "1")
    assert code == 1
    assert out == "mode: guess\nresult: no recurrence found\n"


def test_recur_charpoly_complex_flag(capsys):
    code, out = run(capsys, "recur", "charpoly", "--builtin", "2var",
                    "--a", "2", "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["charpoly"] == ["4", "0", "1"]
    assert data["roots"] == "complex"


@pytest.mark.parametrize("family", [["--family", "h2var"], ["--coeffs", "1,-1,2"]])
def test_diag_passes_a_to_the_2var_oracle(capsys, family):
    code, out = run(capsys, "diag", *family, "--a", "2", "--N", "6",
                    "--oracle", "2var")
    assert code == 0
    assert "oracle: match (2var, n <= 6)" in out


def test_recur_charpoly_kzd(capsys):
    code, out = run(capsys, "recur", "charpoly", "--builtin", "kzd",
                    "--format", "json")
    assert code == 0
    data = json.loads(out)
    assert data["charpoly"] == ["16", "-24", "1"]
    assert data["roots"] == "real"


def test_identity_pass_and_fail_codes(capsys, monkeypatch):
    code, out = run(capsys, "identity", "fran", "--M", "8")
    assert code == 0 and "pass" in out
    monkeypatch.setitem(diagonalis.identities.IDENTITIES, "fran",
                        lambda M: (3, Fraction(5), Fraction(-7, 2)))
    code, out = run(capsys, "identity", "fran", "--M", "8")
    assert code == 1
    assert out == "identity: fran\norder: 8\nresult: mismatch at index 3: 5 vs -7/2\n"


def test_geometry_point_violated(capsys):
    code, out = run(capsys, "geometry", "point", "--coeffs", "1,-1,0,5",
                    "--format", "json")
    assert code == 0
    assert json.loads(out)["verdict"] == "violated"


def test_geometry_point_reports_the_canonical_form(capsys):
    # lambda = 1 gives 1 - 2e1 + 3e2, Szego3 at doubled variables
    code, out = run(capsys, "geometry", "point", "--family", "StraubLambda",
                    "--lam", "1")
    assert code == 0
    family, _, rest = out.partition("\n")
    assert family == ("family: {'dim': 3, 'coeffs': ['1', '-1', '3/4', '0'], "
                      "'name': 'StraubLambda'}")
    code, szego = run(capsys, "geometry", "point", "--family", "Szego3")
    assert code == 0 and rest == szego.partition("\n")[2]
    assert "verdict: inconclusive\nreason: locus-member: test inapplicable\n" in rest


def test_geometry_grid_csv(capsys):
    code, out = run(capsys, "geometry", "grid", "--a", "0:1:1", "--b", "4:4:1")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "a,b,locus_value,locus,orthant_count,verdict"
    assert any(line.startswith("0,4,0,member") for line in lines[1:])


def test_geometry_grid_row_past_a_1_is_the_point_report(capsys):
    code, out = run(capsys, "geometry", "grid", "--a", "2:2:1", "--b", "0:0:1")
    assert code == 0
    code, point = run(capsys, "geometry", "point", "--family", "hab", "--a", "2",
                      "--b", "0", "--format", "json")
    rep = json.loads(point)
    assert (rep["verdict"], rep["positive_orthant_count"]) == ("violated", 0)
    assert out.splitlines()[1] == "2,0,20,smooth,0,violated"
    assert rep["locus_value"] == "20" and rep["smooth"]


def test_geometry_bisect(capsys):
    code, out = run(capsys, "geometry", "bisect", "--N", "4", "--prec", "1/2",
                    "--format", "json")
    assert code == 0
    lo, hi = json.loads(out)["threshold_interval"]
    assert lo != hi


def test_geometry_bisect_searches_upward_from_b_lo(capsys, monkeypatch):
    # the boxes at b = 2, 3, 4 are positive and the one at 5 is not, so the
    # halving starts from [4, 5], the last step of the climb, and takes one box
    # each box is one streamed expansion
    boxes = []

    def counted(p, N, entry_limit):
        boxes.append(p)
        return expand(p, N, entry_limit)
    expand = seriesbox.expand_layers
    monkeypatch.setattr(geometry, "expand_layers", counted)
    code, out = run(capsys, "geometry", "bisect", "--N", "2", "--prec", "1/2",
                    "--b-lo", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["threshold_interval"] == ["9/2", "5"]
    assert len(boxes) == 5


def test_geometry_bisect_builds_one_plan_for_its_boxes(capsys, monkeypatch, cold_plans):
    # the ten h0b boxes of this run share (d, N, support) = (4, 10, (1, 3, 4)):
    # the layer groups are enumerated once and each shape's sweep factory,
    # of the 2^4 - 1 shapes past layer 0, is compiled once
    entered, texts = [], []
    shape_groups = seriesbox._shape_groups

    def enumerating(*args):
        entered.append(args)
        return shape_groups(*args)

    def compiling(text, *args):
        texts.append(text)
        return compile(text, *args)
    monkeypatch.setattr(seriesbox, "_shape_groups", enumerating)
    monkeypatch.setattr(seriesbox, "compile", compiling, raising=False)
    code, out = run(capsys, "geometry", "bisect", "--N", "10", "--prec", "1/256",
                    "--format", "json")
    assert code == 0 and json.loads(out)["threshold_interval"] == ["1031/256", "129/32"]
    assert entered == [(4, 10)]
    assert len(texts) == len(set(texts)) == 2 ** 4 - 1


def test_geometry_grid_output_writes_the_csv_stdout_gets(capsys, tmp_path):
    argv = ["geometry", "grid", "--a", "0:0:1", "--b", "0:0:1"]
    code, out = run(capsys, *argv)
    assert (code, out) == (0, "a,b,locus_value,locus,orthant_count,verdict\n"
                              "0,0,0,member,1,inconclusive\n")
    path = tmp_path / "grid.csv"
    assert run(capsys, *argv, "--output", str(path)) == (0, "")
    assert path.read_text() == out


@pytest.mark.parametrize("name, reason", [
    ("missing/grid.csv", "No such file or directory"),
    ("a-directory", "Is a directory"),
    ("read-only/grid.csv", "Permission denied"),
], ids=["missing", "directory", "read-only"])
def test_unwritable_grid_output_is_refused_before_any_point(capsys, monkeypatch, tmp_path,
                                                            name, reason):
    # the 10,465-point grid took 0.65 s of points before the write failed;
    # root may write into a read-only directory, so `open` refuses it here
    (tmp_path / "a-directory").mkdir()
    (tmp_path / "read-only").mkdir()

    def opening(path, *args, **kwargs):
        if os.path.basename(os.path.dirname(path)) == "read-only":
            raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), path)
        return open(path, *args, **kwargs)
    monkeypatch.setattr(cli, "open", opening, raising=False)
    classified = []
    monkeypatch.setattr(cli, "_classify_3d", lambda *args: classified.append(args))
    path = str(tmp_path / name)
    with pytest.raises(SystemExit) as exc:
        main(["geometry", "grid", "--a=0:1:1/64", "--b=-1:4:1/32", "--output", path])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (f"diagonalis geometry grid: error: cannot write "
                                       f"output {path}: {reason}\n")
    assert classified == []
    assert sorted(os.listdir(tmp_path)) == ["a-directory", "read-only"]
    assert os.listdir(tmp_path / "a-directory") == []


def test_grid_output_writes_a_writable_file_in_a_read_only_directory(capsys, monkeypatch,
                                                                     tmp_path):
    # open(path, "w") of an existing file needs no write access to its
    # directory, so the grid writes it; only the cache, renamed over its
    # path, needs that access
    path = tmp_path / "grid.csv"
    path.write_text("an older grid\n")
    access = os.access
    monkeypatch.setattr(os, "access", lambda p, mode: os.path.abspath(p) != str(tmp_path)
                        and access(p, mode))
    argv = ["geometry", "grid", "--a", "0:0:1", "--b", "0:0:1", "--output", str(path)]
    assert run(capsys, *argv) == (0, "")
    assert path.read_text() == ("a,b,locus_value,locus,orthant_count,verdict\n"
                                "0,0,0,member,1,inconclusive\n")
    assert os.listdir(tmp_path) == ["grid.csv"]


def test_failed_grid_write_names_the_output(capsys, monkeypatch, tmp_path):
    # a write that fails past the refusal, as on a full disk, gave
    # "[Errno 28] No space left on device" without the path
    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC))
    monkeypatch.setattr(cli, "open", full, raising=False)
    path = str(tmp_path / "grid.csv")
    with pytest.raises(SystemExit) as exc:
        main(["geometry", "grid", "--a=0:1:1", "--b=0:1:1", "--output", path])
    assert exc.value.code == 2
    assert capsys.readouterr().err == (f"diagonalis geometry grid: error: cannot write "
                                       f"output {path}: No space left on device\n")


def test_grid_builds_no_report_per_point(capsys, monkeypatch):
    # each row comes from the integer classifier alone
    def built(*args, **kwargs):
        raise AssertionError("a grid point built a report or isolated a root")
    for owner, name in [(cli, "critical_points_diag"), (geometry, "canonicalize"),
                        (geometry, "sturm_isolate"), (FamilySpec, "__init__"),
                        (geometry.CritReport, "__init__"), (UniPoly, "__init__"),
                        (UniPoly, "from_nums")]:
        monkeypatch.setattr(owner, name, built)
    code, out = run(capsys, "geometry", "grid", "--a=0:1:1/8", "--b=-1:4:1/4")
    assert code == 0 and len(out.splitlines()) == 1 + 9 * 21


def test_benchmark_grid_bytes_are_pinned(capsys):
    # the sha256 of the CSV that the Fraction route printed for this grid
    code, out = run(capsys, "geometry", "grid", "--a=0:1:1/8", "--b=-1:4:1/4")
    assert code == 0 and len(out.encode()) == 6185
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "7267584460a5c1851887c1edae4a6e0b46b75fff3e3461d0d47b2dfcb7f6af57")


# whole reports, text and JSON: rationals, lambda-polynomials, root intervals,
# a cubic discriminant and a null one, as the CLI printed them
_REPORTS = [
    (["geometry", "point", "--family", "hab", "--a", "1/4", "--b", "1/16"],
     "family: {'dim': 3, 'coeffs': ['1', '-1', '1/4', '1/16'], 'name': 'hab'}\n"
     "smooth: True\n"
     "locus_value: -71/256\n"
     "classes: [{'kind': 'symmetric', 'polynomial': ['1', '-3', '3/4', '1/16'], "
     "'roots': [{'lo': '0', 'hi': '49/32', 'multiplicity': 1}, "
     "{'lo': '49/32', 'hi': '49/16', 'multiplicity': 1}], 'positive_count': 2, "
     "'note': ''}, {'kind': 'off-diagonal', 'polynomial': None, 'roots': [], "
     "'positive_count': 3, 'note': 'coordinates (1/a, 1/a, 3/2) and permutations'}]\n"
     "positive_orthant_count: 5\n"
     "cubic_discriminant: 1917/256\n"
     "verdict: violated\n"
     "reason: 5 critical points in the open positive orthant (need exactly 1)\n",
     {"schema": "v1",
      "family": {"dim": 3, "coeffs": ["1", "-1", "1/4", "1/16"], "name": "hab"},
      "smooth": True,
      "locus_value": "-71/256",
      "classes": [{"kind": "symmetric",
                   "polynomial": ["1", "-3", "3/4", "1/16"],
                   "roots": [{"lo": "0", "hi": "49/32", "multiplicity": 1},
                             {"lo": "49/32", "hi": "49/16", "multiplicity": 1}],
                   "positive_count": 2,
                   "note": ""},
                  {"kind": "off-diagonal",
                   "polynomial": None,
                   "roots": [],
                   "positive_count": 3,
                   "note": "coordinates (1/a, 1/a, 3/2) and permutations"}],
      "positive_orthant_count": 5,
      "cubic_discriminant": "1917/256",
      "verdict": "violated",
      "reason": "5 critical points in the open positive orthant (need exactly 1)"}),
    (["geometry", "point", "--family", "h2var", "--a", "1/2"],
     "family: {'dim': 2, 'coeffs': ['1', '-1', '1/2'], 'name': 'h2var'}\n"
     "smooth: True\n"
     "locus_value: -1/2\n"
     "classes: [{'kind': 'symmetric', 'polynomial': ['1', '-2', '1/2'], "
     "'roots': [{'lo': '0', 'hi': '5/2', 'multiplicity': 1}, "
     "{'lo': '5/2', 'hi': '5', 'multiplicity': 1}], 'positive_count': 2, 'note': ''}]\n"
     "positive_orthant_count: 2\n"
     "cubic_discriminant: None\n"
     "verdict: inconclusive\n"
     "reason: positive critical points exist; minimality not decided here\n",
     {"schema": "v1",
      "family": {"dim": 2, "coeffs": ["1", "-1", "1/2"], "name": "h2var"},
      "smooth": True,
      "locus_value": "-1/2",
      "classes": [{"kind": "symmetric",
                   "polynomial": ["1", "-2", "1/2"],
                   "roots": [{"lo": "0", "hi": "5/2", "multiplicity": 1},
                             {"lo": "5/2", "hi": "5", "multiplicity": 1}],
                   "positive_count": 2,
                   "note": ""}],
      "positive_orthant_count": 2,
      "cubic_discriminant": None,
      "verdict": "inconclusive",
      "reason": "positive critical points exist; minimality not decided here"}),
    (["expand", "--family", "StraubLambda", "--N", "2"],
     "family: {'dim': 3, 'coeffs': [['1'], ['-1', '-1'], ['0', '2', '1'], "
     "['4', '0', '-3', '-1']], 'name': 'StraubLambda'}\n"
     "N: 2\n"
     "entries: 27\n"
     "entries_stored: 10\n"
     "ring: Qlambda\n",
     {"schema": "v1",
      "family": {"dim": 3,
                 "coeffs": [["1"], ["-1", "-1"], ["0", "2", "1"], ["4", "0", "-3", "-1"]],
                 "name": "StraubLambda"},
      "N": 2,
      "entries": 27,
      "entries_stored": 10,
      "ring": "Qlambda"}),
    (["recur", "charpoly", "--builtin", "2var", "--a", "2"],
     "mode: charpoly\n"
     "charpoly: ['4', '0', '1']\n"
     "discriminant: -16\n"
     "roots: complex\n",
     {"schema": "v1",
      "mode": "charpoly",
      "charpoly": ["4", "0", "1"],
      "discriminant": "-16",
      "roots": "complex"}),
    # three simple roots, and the off-diagonal class merged into them
    (["geometry", "point", "--family", "hab", "--a", "1/3", "--b=-1/27"],
     "family: {'dim': 3, 'coeffs': ['1', '-1', '1/3', '-1/27'], 'name': 'hab'}\n"
     "smooth: True\n"
     "locus_value: -80/729\n"
     "classes: [{'kind': 'symmetric', 'polynomial': ['1', '-3', '1', '-1/27'], "
     "'roots': [{'lo': '0', 'hi': '41/16', 'multiplicity': 1}, "
     "{'lo': '41/16', 'hi': '41/8', 'multiplicity': 1}, "
     "{'lo': '41/2', 'hi': '41', 'multiplicity': 1}], 'positive_count': 3, "
     "'note': ''}, {'kind': 'off-diagonal', 'polynomial': None, 'roots': [], "
     "'positive_count': 0, 'note': 'degenerate: b = -a^3, second-kind points "
     "merge with the symmetric class'}]\n"
     "positive_orthant_count: 3\n"
     "cubic_discriminant: 80/27\n"
     "verdict: violated\n"
     "reason: 3 critical points in the open positive orthant (need exactly 1)\n",
     {"schema": "v1",
      "family": {"dim": 3, "coeffs": ["1", "-1", "1/3", "-1/27"], "name": "hab"},
      "smooth": True,
      "locus_value": "-80/729",
      "classes": [{"kind": "symmetric",
                   "polynomial": ["1", "-3", "1", "-1/27"],
                   "roots": [{"lo": "0", "hi": "41/16", "multiplicity": 1},
                             {"lo": "41/16", "hi": "41/8", "multiplicity": 1},
                             {"lo": "41/2", "hi": "41", "multiplicity": 1}],
                   "positive_count": 3,
                   "note": ""},
                  {"kind": "off-diagonal",
                   "polynomial": None,
                   "roots": [],
                   "positive_count": 0,
                   "note": "degenerate: b = -a^3, second-kind points merge with "
                           "the symmetric class"}],
      "positive_orthant_count": 3,
      "cubic_discriminant": "80/27",
      "verdict": "violated",
      "reason": "3 critical points in the open positive orthant (need exactly 1)"}),
    # a double root, a locus member, and a zero discriminant and locus value
    (["geometry", "point", "--family", "hab", "--a", "3/4", "--b", "0"],
     "family: {'dim': 3, 'coeffs': ['1', '-1', '3/4', '0'], 'name': 'hab'}\n"
     "smooth: False\n"
     "locus_value: 0\n"
     "classes: [{'kind': 'symmetric', 'polynomial': ['1', '-3', '9/4'], "
     "'roots': [{'lo': '0', 'hi': '2', 'multiplicity': 2}], 'positive_count': 1, "
     "'note': ''}, {'kind': 'off-diagonal', 'polynomial': None, 'roots': [], "
     "'positive_count': 3, 'note': 'coordinates (1/a, 1/a, 1/3) and permutations'}]\n"
     "positive_orthant_count: 4\n"
     "cubic_discriminant: 0\n"
     "verdict: inconclusive\n"
     "reason: locus-member: test inapplicable\n",
     {"schema": "v1",
      "family": {"dim": 3, "coeffs": ["1", "-1", "3/4", "0"], "name": "hab"},
      "smooth": False,
      "locus_value": "0",
      "classes": [{"kind": "symmetric",
                   "polynomial": ["1", "-3", "9/4"],
                   "roots": [{"lo": "0", "hi": "2", "multiplicity": 2}],
                   "positive_count": 1,
                   "note": ""},
                  {"kind": "off-diagonal",
                   "polynomial": None,
                   "roots": [],
                   "positive_count": 3,
                   "note": "coordinates (1/a, 1/a, 1/3) and permutations"}],
      "positive_orthant_count": 4,
      "cubic_discriminant": "0",
      "verdict": "inconclusive",
      "reason": "locus-member: test inapplicable"}),
]


# flagged checks exit 1; the first stops at layer 17 of 90, the second draws
# every layer for its diagonal and writes the bytes of
# `test_cache_bytes_are_pinned`'s hab-failing; with c_0 < 0 the scan flags the
# origin and reads no layer, in the bytes that it printed when it scanned them
_FLAGGED_REPORTS = [
    (["expand", "--family", "hab", "--a", "1/4", "--b", "21/8", "--N", "30",
      "--check-positive"],
     "family: {'dim': 3, 'coeffs': ['1', '-1', '1/4', '21/8'], 'name': 'hab'}\n"
     "N: 30\n"
     "entries: 29791\n"
     "entries_stored: 5456\n"
     "ring: Q\n"
     "check: (7,5,5) -> -1036245/65536\n",
     {"schema": "v1",
      "family": {"dim": 3, "coeffs": ["1", "-1", "1/4", "21/8"], "name": "hab"},
      "N": 30,
      "entries": 29791,
      "entries_stored": 5456,
      "ring": "Q",
      "check": "(7,5,5) -> -1036245/65536"}),
    (["expand", "--family", "hab", "--a", "1/4", "--b", "23/8", "--N", "12",
      "--check-positive", "--cache", "flagged.box"],
     "family: {'dim': 3, 'coeffs': ['1', '-1', '1/4', '23/8'], 'name': 'hab'}\n"
     "N: 12\n"
     "entries: 2197\n"
     "entries_stored: 455\n"
     "ring: Q\n"
     "check: (3,3,2) -> -23/256\n"
     "cache: ./flagged.box\n",
     {"schema": "v1",
      "family": {"dim": 3, "coeffs": ["1", "-1", "1/4", "23/8"], "name": "hab"},
      "N": 12,
      "entries": 2197,
      "entries_stored": 455,
      "ring": "Q",
      "check": "(3,3,2) -> -23/256",
      "cache": "./flagged.box"}),
    (["expand", "--coeffs", "-2,1,1/3,5/7", "--N", "9", "--check-positive"],
     "family: {'dim': 3, 'coeffs': ['-2', '1', '1/3', '5/7'], 'name': None}\n"
     "N: 9\n"
     "entries: 1000\n"
     "entries_stored: 220\n"
     "ring: Q\n"
     "check: (0,0,0) -> -1/2\n",
     {"schema": "v1",
      "family": {"dim": 3, "coeffs": ["-2", "1", "1/3", "5/7"], "name": None},
      "N": 9,
      "entries": 1000,
      "entries_stored": 220,
      "ring": "Q",
      "check": "(0,0,0) -> -1/2"}),
    (["expand", "--coeffs", "-2,1,1/3,5/7", "--N", "9", "--check-positive",
      "--non-strict", "--cache", "neg.box"],
     "family: {'dim': 3, 'coeffs': ['-2', '1', '1/3', '5/7'], 'name': None}\n"
     "N: 9\n"
     "entries: 1000\n"
     "entries_stored: 220\n"
     "ring: Q\n"
     "check: (0,0,0) -> -1/2\n"
     "cache: ./neg.box\n",
     {"schema": "v1",
      "family": {"dim": 3, "coeffs": ["-2", "1", "1/3", "5/7"], "name": None},
      "N": 9,
      "entries": 1000,
      "entries_stored": 220,
      "ring": "Q",
      "check": "(0,0,0) -> -1/2",
      "cache": "./neg.box"}),
]
_CACHE_TRAILERS = {"flagged.box": "\ncrc32=67eb2db1\n", "neg.box": "\ncrc32=7cec9d04\n"}


@pytest.mark.parametrize("argv, code, text, data",
                         [(r[0], 0, *r[1:]) for r in _REPORTS]
                         + [(r[0], 1, *r[1:]) for r in _FLAGGED_REPORTS],
                         ids=[" ".join(r[0]) for r in _REPORTS + _FLAGGED_REPORTS])
def test_report_bytes_are_pinned(capsys, tmp_path, monkeypatch, argv, code, text, data):
    monkeypatch.chdir(tmp_path)
    monkeypatch.delenv("DIAGONALIS_CACHE", raising=False)
    # the JSON report is this object at indent 2, keys in this order
    for fmt, want in ((), text), (("--format", "json"), json.dumps(data, indent=2) + "\n"):
        assert run(capsys, *argv, *fmt) == (code, want)
        for name, trailer in _CACHE_TRAILERS.items():
            if name in argv:
                assert (tmp_path / name).read_text().endswith(trailer)
                (tmp_path / name).unlink()


@pytest.mark.parametrize("argv", [
    "expand --family h0b --b=-1/8 --N 2",
    "expand --coeffs=-1,1,0,5 --N 3",
    "geometry grid --a 0:1:1/2 --b=-1:0:1/2",
    "geometry point --family hab --a=-1/2 --b 1",
    "recur extend --builtin franel --terms=-1,2 --upto 3",
])
def test_negative_values_parse_after_a_space(capsys, argv):
    # `--b -1/8` reads like `--b=-1/8`, not like an unknown option -1/8
    code, out = run(capsys, *argv.split())
    assert code == 0
    assert run(capsys, *argv.replace("=", " ").split()) == (code, out)


def test_missing_family_is_usage_error(capsys):
    with pytest.raises(SystemExit):
        main(["expand", "--N", "3"])


@pytest.mark.parametrize("argv", [
    ["diag", "--family", "AG3"],
    ["recur", "guess", "--family", "AG3"],
    ["recur", "extend", "--builtin", "franel"],
    ["identity", "fran", "--M", "-1"],
    ["expand", "--family", "AG3", "--N", "-1"],
    ["expand", "--N", "3"],
    ["expand", "--family", "hab", "--N", "3"],
    ["diag", "--family", "AG3", "--N", "3", "--oracle", "nosuch"],
    ["geometry", "grid", "--b", "0:1:1"],
    ["diag", "--from-cache", "/nonexistent/no-such.box"],
    ["expand", "--family", "AG3", "--N", "1000"],
    ["diag", "--family", "AG3", "--N", "3", "--entry-limit", "10"],
    ["expand", "--family", "AG3", "--N", "3", "--entry-limit", "63"],
    ["expand", "--coeffs", "1,1/0", "--N", "2"],
    ["recur", "extend", "--builtin", "franel", "--terms", "1/0,1", "--upto", "3"],
    ["recur", "extend", "--rec-json", "[1,2]", "--upto", "3"],
    ["recur", "extend", "--rec-json", "[[0.1],[-1]]", "--upto", "2"],
    ["recur", "extend", "--builtin", "franel", "--upto", "-3"],
    ["recur", "extend", "--builtin", "franel", "--terms", "1,2,10", "--upto", "-1"],
    ["recur", "guess", "--terms", "1,2,10,56,346,2252", "--max-degree", "-1"],
    ["recur", "guess", "--terms", "1,2,10,56,346,2252", "--max-order", "0"],
    ["expand", "--family", "StraubLambda", "--N", "3", "--check-positive",
     "--non-strict"],
    ["diag", "--family", "AG3", "--a", "5", "--N", "3", "--oracle", "franel"],
    ["diag", "--family", "AG3", "--coeffs", "1,-1,0,5", "--N", "3"],
    ["diag", "--coeffs", "1,-1,0,4", "--N", "3", "--a", "5", "--oracle", "franel"],
    ["diag", "--family", "h2var", "--a", "2", "--N", "3", "--oracle", "franel"],
    ["diag", "--family", "AG3", "--N", "3", "--oracle", "2var"],
    ["recur", "extend", "--builtin", "franel", "--a", "7", "--upto", "3"],
    ["diag", "--family", "KZ-D", "--d", "3", "--N", "3"],
    ["diag", "--family", "Kauers", "--lam", "1", "--N", "3"],
    ["expand", "--coeffs", "1,-1", "--d", "0", "--N", "3"],
    ["expand", "--family", "AG3", "--N", "3", "--non-strict"],
    ["recur", "guess", "--terms", "1,1,1,1,1,1,1,1,1,1", "--max-order", "1",
     "--max-degree", "0", "--N", "5"],
    ["geometry", "point", "--family", "StraubLambda"],
    ["geometry", "point", "--coeffs", "2,1,0,5"],
    ["geometry", "grid", "--a", "1:0:1/4", "--b", "0:1:1"],
    ["geometry", "grid", "--a", "0:1", "--b", "0:1:1"],
], ids=" ".join)
def test_bad_input_exits_2_with_one_line(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "error:" in err and "Traceback" not in err
    if argv[:3] == ["geometry", "point", "--family"]:
        assert "--lam" in err
    if argv[:2] == ["geometry", "grid"] and "--a" in argv:
        assert "lo:hi:step" in err or "lo > hi" in err


@pytest.mark.parametrize("argv", [
    ["recur", "guess", "--terms", "1,3,9,27,81,243,729,2187,6561,19683",
     "--max-order", "1", "--max-degree", "0", "--a", "3"],
], ids=" ".join)
def test_a_that_nothing_takes_is_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.endswith("error: nothing in this command takes --a\n")


@pytest.mark.parametrize("argv", [
    ["recur", "extend", "--builtin", "franel", "--upto", "3", "--lam", "2"],
    ["expand", "--coeffs", "1,-1,0,4", "--N", "3", "--b", "7"],
    ["diag", "--from-cache", "CACHE", "--family", "AG3"],
    ["recur", "check", "--builtin", "franel", "--rec-json", '[["1"],["-1"]]',
     "--terms", "1,2,10,56"],
    ["recur", "guess", "--terms", ",".join(str(3 ** n) for n in range(16)),
     "--max-order", "1", "--max-degree", "1", "--builtin", "franel"],
    ["geometry", "bisect", "--N", "2", "--prec", "1/2", "--family", "AG3"],
    ["geometry", "point", "--coeffs", "1,-1,0,5", "--prec", "1/4"],
    ["geometry", "bisect", "--N", "4", "--a", "3"],
], ids=" ".join)
def test_option_the_mode_does_not_take_exits_2(capsys, tmp_path, argv):
    cache = tmp_path / "ag3.box"
    run(capsys, "expand", "--family", "AG3", "--N", "3", "--cache", str(cache))
    with pytest.raises(SystemExit) as exc:
        main([str(cache) if arg == "CACHE" else arg for arg in argv])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1 and "error:" in captured.err


def test_diag_from_cache_refuses_another_n(capsys, tmp_path):
    path = tmp_path / "kzd4.box"
    run(capsys, "expand", "--family", "KZ-D", "--N", "4", "--cache", str(path))
    with pytest.raises(SystemExit) as exc:
        main(["diag", "--from-cache", str(path), "--N", "9"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "--N 9" in captured.err and "N=4" in captured.err


@pytest.mark.parametrize("argv, message", [
    (["diag", "--family", "KZ-D"], "--N is required to expand a box"),
    (["recur", "guess", "--family", "KZ-D"], "--N is required to expand a box"),
    (["recur", "check", "--builtin", "franel", "--family", "KZ-D"],
     "--N is required to expand a box"),
    (["recur", "guess", "--terms", "1,2,10,56", "--N", "3"],
     "--N bounds a family's box; --terms gives the values"),
    (["recur", "check", "--builtin", "franel", "--terms", "1,2,10,56", "--N", "3"],
     "--N bounds a family's box; --terms gives the values"),
], ids=["diag-no-N", "guess-no-N", "check-no-N", "guess-terms-N", "check-terms-N"])
def test_sequence_source_refusals(capsys, monkeypatch, argv, message):
    def reached(*args, **kwargs):
        raise AssertionError("a box was expanded or a cache read")
    monkeypatch.setattr(cli, "expand_reciprocal", reached)
    monkeypatch.setattr(cli, "load_cache", reached)
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    prog = " ".join(["diagonalis"] + argv[:2 if argv[0] == "recur" else 1])
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"{prog}: error: {message}\n"


def test_geometry_takes_no_entry_limit(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["geometry", "bisect", "--N", "4", "--entry-limit", "5"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "unrecognized arguments: --entry-limit" in err
    assert err.count("\n") == 1


FRANEL_20 = ",".join(map(str, binomial_oracle("franel", 19).coeffs))


@pytest.mark.parametrize("argv", [
    ["diag", "--from-cache", "CACHE", "--entry-limit", "1"],
    ["recur", "guess", "--terms", FRANEL_20, "--max-order", "2", "--max-degree", "2",
     "--entry-limit", "1"],
    ["recur", "check", "--builtin", "franel", "--terms", "1,2,10,56",
     "--entry-limit", "1"],
], ids=lambda argv: " ".join(argv[:3]))
def test_entry_limit_where_no_box_is_expanded_is_refused(capsys, tmp_path, argv):
    cache = tmp_path / "kzd4.box"
    run(capsys, "expand", "--family", "KZ-D", "--N", "4", "--cache", str(cache))
    argv = [str(cache) if arg == "CACHE" else arg for arg in argv]
    # without the option each command runs and exits 0
    assert run(capsys, *argv[:-2])[0] == 0
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.count("\n") == 1
    assert captured.err.endswith("error: nothing in this command takes --entry-limit\n")


class _Work(Exception):
    """Raised by a stand-in for a function that does the work of a command."""


@pytest.fixture
def no_work(tmp_path, monkeypatch):
    """Replace what the commands call to do their work by stand-ins that
    raise `_Work`, after checking that each is reached; yields a cache
    file that nothing reads."""
    cache = tmp_path / "any.box"
    cache.write_text("read by nothing here\n")

    def work(*args, **kwargs):
        raise _Work
    for name in ("expand_reciprocal", "expand_layers", "streamed_first_nonpositive",
                 "load_cache", "recurrence_guess",
                 "recurrence_check", "recurrence_extend", "recurrence_seed",
                 "characteristic_polynomial", "critical_points_diag"):
        monkeypatch.setattr(cli, name, work)
    # each stand-in is what a command calls to do its work
    for works in (["expand", "--family", "AG3", "--N", "3"],
                  ["expand", "--family", "AG3", "--N", "3", "--check-positive"],
                  ["expand", "--family", "AG3", "--N", "3", "--cache", str(cache)],
                  ["diag", "--from-cache", str(cache)],
                  ["diag", "--family", "AG3", "--N", "3"],
                  ["recur", "guess", "--terms", "1,2,3"],
                  ["recur", "check", "--builtin", "franel", "--terms", "1,2"],
                  ["recur", "extend", "--builtin", "franel", "--terms", "1",
                   "--upto", "3"],
                  ["recur", "extend", "--builtin", "franel", "--upto", "3"],
                  ["recur", "charpoly", "--builtin", "franel"],
                  ["geometry", "point", "--family", "AG3"]):
        with pytest.raises(_Work):
            main(works)
    yield cache


@pytest.mark.parametrize("argv, message", [
    ("diag --coeffs 1,-1,0,2,4 --N 60 --c 1", "nothing in this command takes --c"),
    ("recur guess --coeffs 1,-1,0,64/27,0 --N 40 --a 1",
     "nothing in this command takes --a"),
    ("diag --family KZ-D --N 60 --oracle nosuch", "unknown oracle 'nosuch'"),
    ("diag --family KZ-D --N 60 --oracle 2var", "oracle '2var' needs parameter a"),
    ("diag --family h2var --a 2 --N 3 --oracle franel",
     "oracle 'franel' takes no parameter a"),
    ("diag --coeffs 1,-1,0,4 --N 3 --a 5 --oracle franel",
     "oracle 'franel' takes no parameter a"),
    ("diag --from-cache CACHE --oracle nosuch", "unknown oracle 'nosuch'"),
    ("diag --from-cache CACHE --entry-limit 1",
     "nothing in this command takes --entry-limit"),
    ("diag --family KZ-D --d 3 --N 3", "family 'KZ-D' takes no parameter d"),
    ("diag --family Kauers --lam 1 --N 3", "family 'Kauers' takes no parameter lam"),
    ("expand --coeffs 1,-1,0,4 --N 3 --b 7", "nothing in this command takes --b"),
    ("expand --family StraubLambda --N 3 --check-positive --non-strict",
     "--non-strict applies only"),
    ("expand --family StraubLambda --N 16 --cache x.box", "--cache applies only"),
    (f"recur guess --terms {FRANEL_20} --max-order 2 --max-degree 2 --entry-limit 1",
     "nothing in this command takes --entry-limit"),
    ("recur guess --terms 1,3,9,27,81,243,729,2187,6561,19683 --max-order 1 "
     "--max-degree 0 --a 3", "nothing in this command takes --a"),
    ("recur check --builtin franel --terms 1,2,10,56 --entry-limit 1",
     "nothing in this command takes --entry-limit"),
    ("recur check --builtin franel --coeffs 1,-1,0,4 --N 8 --a 3",
     "recurrence 'franel' takes no parameter a"),
    ("diag --family GRZ --d 1 --N 3", "GRZ needs d >= 2"),
    ("recur check --rec-json [] --terms 1,2,3", "recurrence needs order >= 1"),
    ("recur check --rec-json [[1],[0]] --terms 1,2,3",
     "leading recurrence coefficient is identically zero"),
    ("recur check --rec-json [[true],[1]] --terms 1,2", "not a rational number: True"),
    (f"recur charpoly --rec-json {_NESTED}", "--rec-json nests too deeply"),
    (f"recur check --rec-json {_NESTED} --terms 1,2", "--rec-json nests too deeply"),
], ids=lambda v: v[:60])
def test_usage_error_before_any_work(capsys, no_work, argv, message):
    with pytest.raises(SystemExit) as exc:
        main([str(no_work) if arg == "CACHE" else arg for arg in argv.split()])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert f"error: {message}" in captured.err


@pytest.mark.parametrize("argv, message", [
    ("geometry bisect --N 2 --prec 1/2 --b-lo 100",
     "expected the box to be positive at b = 100"),
    ("geometry bisect --N 2 --prec 1/2 --b-lo=-100",
     "no nonpositive coefficient found up to b_lo + 8"),
    ("recur extend --builtin franel --upto 3 --terms 1", "need at least 2 initial terms"),
], ids=lambda v: v[:60])
def test_refusal_after_some_work_names_its_cause(capsys, argv, message):
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert captured.err.endswith(f": error: {message}\n")


@pytest.mark.parametrize("old, new, message", [
    ('c=["1",', 'c=[true,', "not a rational number: True"),
    ('c=["1",', 'c=[1.0,', "not an exact rational: float 1.0"),
    ('"0","4"]', '"0",["4",true]]', "not a rational number: True"),
    ("N=3;", "N=3.0;", "malformed N= (invalid literal for int() with base 10: '3.0')"),
], ids=["coeff true", "coeff 1.0", "lambda coeff true", "N 3.0"])
def test_cache_denom_of_json_bools_or_floats_is_refused(capsys, tmp_path, old, new, message):
    # each would read as a number, true as 1 and 1.0 as a coefficient or bound
    path = tmp_path / "ag3.box"
    run(capsys, "expand", "--family", "AG3", "--N", "3", "--cache", str(path))
    text = path.read_text()
    body = text[:text.rindex("crc32=")]
    assert old in body
    path.write_text(_sealed(body.replace(old, new, 1)))
    with pytest.raises(SystemExit) as exc:
        main(["diag", "--from-cache", str(path), "--oracle", "franel"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert message in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize("argv, option", [
    ("diag --coeffs= --N 3", "--coeffs"),
    ("geometry point --coeffs=", "--coeffs"),
    ("recur extend --builtin= --upto 3", "--builtin"),
    ("recur charpoly --builtin=", "--builtin"),
    ("diag --family AG3 --N 3 --oracle=", "--oracle"),
    ("recur extend --builtin franel --upto 3 --terms=", "--terms"),
    ("expand --family AG3 --N 2 --cache=", "--cache"),
    ("geometry grid --a 0:0:1 --b 0:0:1 --output=", "--output"),
    ("recur check --builtin franel --terms=", "--terms"),
    ("diag --from-cache=", "--from-cache"),
], ids=lambda v: v[:60])
def test_empty_value_is_refused_before_any_work(capsys, no_work, tmp_path,
                                                monkeypatch, argv, option):
    out = tmp_path / "out"
    out.mkdir()
    monkeypatch.chdir(out)
    monkeypatch.setenv("DIAGONALIS_CACHE", str(out))
    with pytest.raises(SystemExit) as exc:
        main(argv.split())
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.endswith(f": error: {option} needs a value\n")
    assert captured.err.count("\n") == 1
    assert list(out.iterdir()) == []


@pytest.mark.parametrize("command", ["expand", "diag"])
def test_given_entry_limit_is_read_where_a_box_is_expanded(capsys, command):
    # a limit equal to the box's 64 entries passes; 63 is in the bad-input list
    argv = [command, "--family", "AG3", "--N", "3", "--entry-limit", "64"]
    assert run(capsys, *argv)[0] == 0


@pytest.mark.parametrize("name", sorted(cli.IDENTITIES))
def test_negative_identity_order_is_one_usage_error(capsys, name):
    with pytest.raises(SystemExit) as exc:
        main(["identity", name, "--M", "-1"])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == ("diagonalis identity: error: argument --M: "
                            "expected an integer >= 0, got '-1'\n")


@pytest.mark.parametrize("argv, own_error", [
    (["recur", "extend", "--builtin", "franel", "--upto", "-3"],
     ["recur", "extend", "--builtin", "franel"]),
    (["recur", "charpoly", "--rec-json", "[1,2]"],
     ["recur", "charpoly"]),
    (["geometry", "bisect", "--N", "-1"], ["geometry", "bisect"]),
    (["geometry", "point", "--family", "hab", "--a", "1/2"], ["geometry", "point"]),
], ids=lambda argv: " ".join(argv))
def test_usage_error_prefix_names_the_mode(capsys, argv, own_error):
    # the command's own errors and argparse's carry the same prefix
    prefix = "diagonalis " + " ".join(argv[:2]) + ": error: "
    for bad in (argv, own_error):
        with pytest.raises(SystemExit) as exc:
            main(bad)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith(prefix) and err.count("\n") == 1


def test_positive_rational_validator():
    assert _positive_rational("1/64") == Fraction(1, 64)
    for bad in ("0", "-1/4"):
        with pytest.raises(argparse.ArgumentTypeError):
            _positive_rational(bad)


def test_prec_is_validated_while_parsing(capsys):
    args = build_parser().parse_args(["geometry", "bisect", "--N", "4"])
    assert args.prec == Fraction(1, 64)
    for bad in ("0", "-1/64"):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["geometry", "bisect", "--N", "4",
                                       f"--prec={bad}"])
        assert exc.value.code == 2
    assert "expected a positive rational" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["diag", "--family", "AG3", "--N", "3", "--scale", "1,2"],
    ["geometry", "bisect", "--N", "2", "--prec", "x"],
    ["geometry", "grid", "--a", "x:1:1", "--b", "0:1:1"],
    ["geometry", "grid", "--a", "0:1:1", "--b", "0:y:1"],
    ["geometry", "grid", "--a", "0:1:z", "--b", "0:1:1"],
], ids=" ".join)
def test_bad_rational_names_no_converter(capsys, argv):
    # argparse names a type converter that raises ValueError: "invalid _grid value"
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "invalid rational value: '" in err, err
    assert not re.search(r"(?<![\w-])_[a-z]", err), err


@pytest.mark.parametrize("argv", [
    ["diag", "--family", "AG3", "--N", "3", "--scale", "1/0"],
    ["geometry", "bisect", "--N", "4", "--prec", "1/0"],
], ids=" ".join)
def test_zero_denominator_is_rejected_while_parsing(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(argv)
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert "invalid" in err and "'1/0'" in err and "Traceback" not in err


def test_grid_step_is_validated():
    assert _grid("0:1:1/4") == [0, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4), 1]
    assert _grid("-1:0:2/3") == [-1, Fraction(-1, 3)]
    for bad in ("0:1:0", "0:1:-1/4", "1:0:1", "0:1", "0:1:1:1"):
        with pytest.raises(argparse.ArgumentTypeError):
            _grid(bad)


def test_grid_past_its_point_bound_is_refused_before_any_point(capsys, monkeypatch):
    # an axis is counted before it is built, and the a x b product before any
    # point is reported: built, the 10^18 + 1 points of the first would run
    # until memory runs out, and the 10^6 of the second would take minutes
    assert len(_grid(f"0:{cli._GRID_POINTS - 1}:1")) == cli._GRID_POINTS
    with pytest.raises(argparse.ArgumentTypeError, match="at most"):
        _grid(f"0:{cli._GRID_POINTS}:1")

    def no_point(*args):
        raise AssertionError("a grid past the bound reached a point")

    monkeypatch.setattr(cli, "critical_points_diag", no_point)
    for a, b, shown in (("0:1000000000:1/1000000000", "0:1:1", "1000000000000000001"),
                        ("0:999:1", "0:999:1", "1000000")):
        with pytest.raises(SystemExit) as exc:
            main(["geometry", "grid", "--a", a, "--b", b])
        err = capsys.readouterr().err
        assert exc.value.code == 2 and err.count("\n") == 1, err
        assert err.startswith("diagonalis geometry grid: error: ") and shown in err


def test_cli_import_needs_no_mpmath():
    # modular arithmetic is plain int and pow(x, -1, p); hashlib once cost
    # 3.6 MiB of peak memory in a CLI run
    env = dict(os.environ, PYTHONPATH=str(Path(diagonalis.__file__).parent.parent))
    code = ("import sys, diagonalis.cli; print([m for m in "
            "('mpmath', 'sympy', 'numpy', 'hashlib') if m in sys.modules])")
    proc = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    assert proc.stdout == "[]\n"


def test_cli_imports_only_the_standard_library():
    # -S keeps site-packages off the path, so importing a third-party
    # package fails here even where that package is installed
    env = dict(os.environ, PYTHONPATH=str(Path(diagonalis.__file__).parent.parent))
    code = ("import sys, diagonalis.cli; "
            "print(*{m.partition('.')[0] for m in sys.modules})")
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          check=True, capture_output=True, text=True)
    allowed = set(sys.stdlib_module_names) | {"diagonalis", "__main__"}
    assert sorted(set(proc.stdout.split()) - allowed) == []
