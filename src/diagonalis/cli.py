"""Command-line interface.

Subcommands: expand, diag, recur, identity, geometry; recur and geometry
take a mode, and each command or mode takes only the options it reads.  An
empty option value, and a family parameter or --entry-limit that no given
source reads (`_READS`), are refused before the command runs, and `diag`
checks its --oracle before any box is expanded or cache read.  Reports are
text by default and JSON with --format json; `geometry grid` always writes
CSV.  Exit code 0 iff all requested checks pass, 1 if a check fails, 2 on
bad input, with a one-line message on stderr.  Box caches use the versioned
text format from `seriesbox`; relative cache paths resolve against
$DIAGONALIS_CACHE.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import re
import sys
from fractions import Fraction

from .exactalg import plain, rat
from .family import FamilySpec, make_family, named_instance
from .geometry import box_positivity_bisect, critical_points_diag
from .identities import IDENTITIES, verify_identity
from .sequences import (PRecurrence, binomial_oracle, builtin_recurrence,
                        characteristic_polynomial, extract_diagonal,
                        recurrence_check, recurrence_extend, recurrence_guess,
                        recurrence_seed)
from .seriesbox import (DEFAULT_ENTRY_LIMIT, expand_layers, expand_reciprocal,
                        load_cache, save_cache, streamed_first_nonpositive)


_PARAMS = ("a", "b", "c", "lam", "d")  # the family parameters
# source -> the family parameters and --entry-limit that it reads;
# --terms, --from-cache and --rec-json read none of them
_READS = {"family": _PARAMS + ("entry_limit",), "coeffs": ("d", "entry_limit"),
          "oracle": ("a",), "builtin": ("a",)}


def _refuse_unread(args) -> None:
    """Refuse an empty option value, then a given family parameter or
    --entry-limit that no given source reads."""
    for key, value in vars(args).items():
        if value == "":
            raise ValueError(f"--{key.replace('_', '-')} needs a value")
    read = {key for source, keys in _READS.items() if getattr(args, source, None)
            for key in keys}
    for key in _READS["family"]:
        if getattr(args, key, None) is not None and key not in read:
            raise ValueError(f"nothing in this command takes --{key.replace('_', '-')}")


def _entry_limit(args) -> int:
    return DEFAULT_ENTRY_LIMIT if args.entry_limit is None else args.entry_limit


def _resolve_family(args) -> FamilySpec:
    if args.coeffs:
        cs = _parse_terms(args.coeffs)
        if args.d not in (None, len(cs) - 1):
            raise ValueError(f"--d {args.d} inconsistent with {len(cs)} coefficients")
        return make_family(len(cs) - 1, cs)
    # a named family takes each parameter given or refuses it
    params = {key: getattr(args, key) for key in _PARAMS
              if getattr(args, key) is not None}
    return named_instance(args.family, **params)


def _family_box(args):
    """The family and its box on [0..N]^d."""
    if args.N is None:
        raise ValueError("--N is required to expand a box")
    fam = _resolve_family(args)
    return fam, expand_reciprocal(fam.coeffs, args.N, entry_limit=_entry_limit(args))


def _cache_path(path: str) -> str:
    return os.path.join(os.environ.get("DIAGONALIS_CACHE", "."), path)


def _fmt_index(n) -> str:
    return "(" + ",".join(map(str, n)) + ")"


def cmd_expand(args) -> int:
    fam = _resolve_family(args)
    lam = fam.has_lambda()
    if args.non_strict and (lam or not args.check_positive):
        raise ValueError("--non-strict applies only to --check-positive on a rational "
                         "box; a Q[lambda] box is checked coefficient by coefficient")
    c, d, N, strict = fam.coeffs, fam.dim, args.N, not args.non_strict
    # one pass over the layers: every refusal comes with the scale, before any
    # file is opened, and plain expand draws no layer past it
    layers = expand_layers(c, N, _entry_limit(args))
    scale = next(layers)
    hit = None

    def scanned():  # each layer on its way to the cache, scanned up to the first hit
        nonlocal hit
        for item in layers:
            hit = hit or streamed_first_nonpositive([item], scale, d, N, strict)
            yield item
    if args.cache:
        path = _cache_path(args.cache)
        # renamed over the path only when whole: a failed write keeps the old cache
        tmp = f"{path}.{os.getpid()}.tmp"
        try:
            with open(tmp, "w") as fh:
                save_cache(c, N, scale, scanned() if args.check_positive else layers, fh)
            os.replace(tmp, path)
        except OSError as exc:  # name the given path, not the temporary one
            raise OSError(f"cannot write cache {path}: {exc.strerror or exc}") from None
        finally:
            if os.path.exists(tmp):
                os.remove(tmp)
    elif args.check_positive:  # stops at the first layer with a hit
        hit = streamed_first_nonpositive(layers, scale, d, N, strict)
    report = {"family": fam, "N": N, "entries": (N + 1) ** d,
              "entries_stored": math.comb(N + d, d),
              "ring": "Qlambda" if lam else "Q"}
    status = 0
    if args.check_positive:
        if hit is None and lam:
            report["check"] = (f"all lambda-coefficients in [0..{N}]^"
                               f"{d} have nonnegative coefficients")
        elif hit is None:
            word = "nonpositive" if not args.non_strict else "negative"
            report["check"] = f"no {word} coefficient in [0..{N}]^{d}"
        else:
            n, c = hit
            report["check"] = ("flagged " if lam else "") + f"{_fmt_index(n)} -> {c}"
            status = 1
    if args.cache:
        report["cache"] = path
    _emit(args, report)
    return status


def _diag_values(args):
    if args.from_cache:
        path = _cache_path(args.from_cache)
        with open(path) as fh:
            try:
                box = load_cache(fh)
            except ValueError as exc:
                raise ValueError(f"cannot load cache {path}: {exc}") from None
        if args.N not in (None, box.N):
            raise ValueError(f"--N {args.N} differs from the cache's N={box.N}")
        fam = None
    else:
        fam, box = _family_box(args)
    vals = list(extract_diagonal(box))
    if args.scale is not None:
        # the diagonal of 1/p(s*x) is s^(d*n) * u_(n,...,n)
        ratio = 9 if args.scale == "9-power" else args.scale ** box.dim
        vals = [ratio ** n * v for n, v in enumerate(vals)]
    return fam, vals


def cmd_diag(args) -> int:
    if args.oracle:  # a bad name or --a is refused before any box or cache
        binomial_oracle(args.oracle, 0, args.a)
    fam, vals = _diag_values(args)
    report = {"N": len(vals) - 1, "diagonal": vals}
    if fam is not None:
        report["family"] = fam
    status = 0
    if args.oracle:
        expected = [binomial_oracle(args.oracle, n, args.a) for n in range(len(vals))]
        for n, (got, want) in enumerate(zip(vals, expected)):
            if got != want:
                report["oracle"] = f"mismatch at n={n}: box {got} vs oracle {want}"
                status = 1
                break
        else:
            report["oracle"] = f"match ({args.oracle}, n <= {len(vals) - 1})"
    _emit(args, report)
    return status


def _parse_terms(s: str) -> tuple[Fraction, ...]:
    return tuple(rat(t) for t in s.split(","))


def _recur_object(args):
    if args.builtin:
        return builtin_recurrence(args.builtin, args.a)
    try:
        return PRecurrence.from_json(json.loads(args.rec_json))
    except RecursionError as exc:  # a bad input, not a failed check: exit 2
        raise ValueError(f"--rec-json nests too deeply ({exc})") from None


def _recur_sequence(args) -> tuple[Fraction, ...]:
    if args.terms:
        if args.N is not None:
            raise ValueError("--N bounds a family's box; --terms gives the values")
        return _parse_terms(args.terms)
    return extract_diagonal(_family_box(args)[1])


def cmd_recur(args) -> int:
    report: dict = {"mode": args.mode}
    status = 0
    if args.mode == "guess":
        seq = _recur_sequence(args)
        rec = recurrence_guess(seq, args.max_order, args.max_degree)
        if rec is None:
            report["result"] = "no recurrence found"
            status = 1
        else:
            report.update(order=rec.order, degree=rec.degree,
                          coefficients=rec.coeffs, label="empirical")
    elif args.mode == "check":
        rec = _recur_object(args)
        seq = _recur_sequence(args)
        bad = recurrence_check(rec, seq)
        if bad is None:
            report["result"] = "pass"
        else:
            n, resid = bad
            report["result"] = f"fail at n={n}, residual {resid}"
            status = 1
    elif args.mode == "extend":
        rec = _recur_object(args)
        seq = (recurrence_extend(rec, _parse_terms(args.terms), args.upto)
               if args.terms else recurrence_seed(rec, args.upto))
        report["values"] = seq
    elif args.mode == "charpoly":
        rec = _recur_object(args)
        cp = characteristic_polynomial(rec)
        report["charpoly"] = cp
        if cp.degree == 2:
            c, b_, a_ = cp[0], cp[1], cp[2]
            disc = b_ * b_ - 4 * a_ * c
            report["discriminant"] = disc
            report["roots"] = "complex" if disc < 0 else "real"
    _emit(args, report)
    return status


def cmd_identity(args) -> int:
    bad = verify_identity(args.name, args.M)
    report = {"identity": args.name, "order": args.M, "result": "pass"}
    if bad is not None:
        n, lhs, rhs = bad
        report["result"] = f"mismatch at index {n}: {lhs} vs {rhs}"
    _emit(args, report)
    return 0 if bad is None else 1


def _rational(s: str) -> Fraction:
    """A rational "num" or "num/den"; argparse reports a bad one by this
    message, not by the converter's name."""
    try:
        return rat(s)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid rational value: {s!r}") from None


def _scale(s: str):
    return s if s == "9-power" else _rational(s)


def _order(s: str) -> int:
    """A truncation order: an integer >= 0."""
    if not re.fullmatch(r"\d+", s):
        raise argparse.ArgumentTypeError(f"expected an integer >= 0, got {s!r}")
    return int(s)


def _positive_rational(s: str) -> Fraction:
    q = _rational(s)
    if q <= 0:
        raise argparse.ArgumentTypeError(f"expected a positive rational, got {s!r}")
    return q


def _grid(spec: str) -> list[Fraction]:
    """lo, lo + step, ... <= hi for the spec "lo:hi:step"; lo <= hi, step > 0."""
    parts = spec.split(":")
    if len(parts) != 3:
        raise argparse.ArgumentTypeError(f"expected lo:hi:step, got {spec!r}")
    lo, hi, step = _rational(parts[0]), _rational(parts[1]), _positive_rational(parts[2])
    if lo > hi:
        raise argparse.ArgumentTypeError(f"empty range: lo > hi in {spec!r}")
    return [lo + k * step for k in range((hi - lo) // step + 1)]


def cmd_geometry(args) -> int:
    if args.mode == "point":
        _emit(args, critical_points_diag(_resolve_family(args)))
        return 0
    if args.mode == "grid":
        rows = [("a", "b", "locus_value", "locus", "orthant_count", "verdict")]
        for a in args.a_range:
            for b in args.b_range:
                rep = critical_points_diag(named_instance("hab", a=a, b=b))
                rows.append((a, b, rep.locus_value, "smooth" if rep.smooth else "member",
                             rep.positive_orthant_count, rep.verdict))
        text = "".join(",".join(map(str, row)) + "\n" for row in rows)
        if args.output:
            with open(args.output, "w") as out:
                out.write(text)
        else:
            sys.stdout.write(text)
        return 0
    lo, hi = box_positivity_bisect(args.N, args.prec, b_lo=args.b_lo,
                                   strict=not args.non_strict)
    _emit(args, {"N": args.N, "threshold_interval": [lo, hi], "precision": args.prec})
    return 0


def _emit(args, report) -> None:
    """Write a report, a dict or a dataclass of exact values, in its plain form."""
    report = plain(report)
    if args.format == "json":
        json.dump({"schema": "v1", **report}, sys.stdout, indent=2)
        sys.stdout.write("\n")
        return
    for k, v in report.items():
        print(f"{k}: {v}")


class _Parser(argparse.ArgumentParser):
    """Reports a usage error as the one line "<prog>: error: <message>"."""

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


def _leaf(sub, name: str, **kwargs) -> argparse.ArgumentParser:
    p = sub.add_parser(name, allow_abbrev=False, **kwargs)
    p.add_argument("--format", choices=["text", "json"], default="text")
    return p


def _add_family_args(p: argparse.ArgumentParser):
    """--family or --coeffs, one of them required, and the family
    parameters; returns the group, to which a leaf adds its other sources."""
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--family", help="catalog family name")
    source.add_argument("--coeffs", help="inline coefficients c0,c1,...,cd")
    p.add_argument("--d", type=int, help="dimension (GRZ / inline coeffs)")
    p.add_argument("--a", help="family parameter a")
    p.add_argument("--b", help="family parameter b")
    p.add_argument("--c", help="family parameter c")
    p.add_argument("--lam", help="specialize lambda for StraubLambda")
    return source


def _add_box_args(p: argparse.ArgumentParser, **n_kwargs) -> None:
    p.add_argument("--N", type=int, **n_kwargs)
    p.add_argument("--entry-limit", type=int,
                   help="refuse boxes with more entries than this "
                        f"(default {DEFAULT_ENTRY_LIMIT})")


@functools.cache  # parsing leaves the parser unchanged, so one build serves
def build_parser() -> argparse.ArgumentParser:
    """One leaf per command or mode, declaring only the options it reads."""
    ap = _Parser(prog="diagonalis",
                 description="Exact positivity experiments for symmetric rational "
                             "functions and their diagonals")
    sub = ap.add_subparsers(dest="command", required=True)

    p = _leaf(sub, "expand", help="expand 1/p on a coefficient box")
    _add_family_args(p)
    _add_box_args(p, required=True)
    p.add_argument("--check-positive", action="store_true")
    p.add_argument("--non-strict", action="store_true",
                   help="flag only strictly negative coefficients")
    p.add_argument("--cache", help="write box cache to this path")

    p = _leaf(sub, "diag", help="extract and optionally cross-check a diagonal")
    _add_family_args(p).add_argument(
        "--from-cache", help="load box from cache instead of expanding")
    _add_box_args(p)
    p.add_argument("--scale", type=_scale,
                   help="variable prescale s, or '9-power' for 9^n")
    p.add_argument("--oracle", help="closed-form oracle name to compare against")

    modes = sub.add_parser("recur", help="recurrence tools").add_subparsers(
        dest="mode", required=True)
    guess, check, extend, charpoly = (
        _leaf(modes, m) for m in ("guess", "check", "extend", "charpoly"))
    for p in (check, extend, charpoly):
        rec = p.add_mutually_exclusive_group(required=True)
        rec.add_argument("--builtin", help="built-in recurrence name")
        rec.add_argument("--rec-json", help="recurrence as JSON coefficient arrays")
    terms = "comma-separated sequence values"
    for p in (guess, check):
        _add_family_args(p).add_argument("--terms", help=terms)
        _add_box_args(p, help="box bound when taking a family diagonal")
    for p in (extend, charpoly):
        p.add_argument("--a", help="family parameter a")
    guess.add_argument("--max-order", type=int, default=4)
    guess.add_argument("--max-degree", type=int, default=6)
    extend.add_argument("--terms", help=terms)
    extend.add_argument("--upto", type=int, required=True,
                        help="extend up to this index")

    p = _leaf(sub, "identity", help="verify a generating-function identity")
    p.add_argument("name", choices=sorted(IDENTITIES))
    p.add_argument("--M", type=_order, required=True, help="truncation order")

    modes = sub.add_parser("geometry", help="critical-point and locus reports"
                           ).add_subparsers(dest="mode", required=True)
    point, grid, bisect = (_leaf(modes, m) for m in ("point", "grid", "bisect"))
    _add_family_args(point)
    # every leaf takes --format; grid writes CSV, but perfbench passes it one
    for key in ("a", "b"):
        grid.add_argument(f"--{key}", type=_grid, required=True, dest=f"{key}_range",
                          metavar=key.upper(),
                          help=f"family parameter {key}, as lo:hi:step")
    grid.add_argument("--output", help="CSV output path for grid mode")
    bisect.add_argument("--N", type=int, required=True, help="box bound for bisect")
    bisect.add_argument("--prec", type=_positive_rational, default="1/64",
                        help="bisection precision")
    bisect.add_argument("--b-lo", default="4", help="bisection lower start")
    bisect.add_argument("--non-strict", action="store_true")
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    # argparse takes a value such as -1/8 or -1,1,0,5 for an option, so each
    # is joined to the option before it: --b -1/8 becomes --b=-1/8
    for i in range(len(argv) - 1, 0, -1):
        if re.match(r"-\d", argv[i]) and re.fullmatch(r"--[^=]+", argv[i - 1]):
            argv[i - 1:i + 1] = [argv[i - 1] + "=" + argv[i]]
    args = build_parser().parse_args(argv)
    try:
        _refuse_unread(args)  # before any box is expanded or cache read
        # looked up on each call, so that a wrapper put on the module is used
        return globals()[f"cmd_{args.command}"](args)
    except (ValueError, OSError) as exc:
        prog = " ".join(filter(None, ("diagonalis", args.command,
                                      getattr(args, "mode", None))))
        print(f"{prog}: error: {exc}", file=sys.stderr)
        raise SystemExit(2) from None


if __name__ == "__main__":
    sys.exit(main())
