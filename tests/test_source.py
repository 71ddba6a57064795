"""Checks on the source of `diagonalis` itself: every definition is reached
from the package, and nothing in it computes in floating point."""

import ast
from pathlib import Path

import diagonalis

TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted(Path(diagonalis.__file__).parent.glob("*.py"))}

# definitions that only code outside the package reaches, each with its reader
OUTSIDE_READERS = {
    "seriesbox.CoeffBox.data": "perfbench/spans.py: box_stats reads it",
    "uniseries.UniSeries.log": "perfbench/spans.py: METHODS names it",
    "cli._Parser.error": "argparse: ArgumentParser calls it on a usage error",
}

EXACT_MATH = {"comb", "factorial", "gcd", "isqrt", "lcm", "prod"}


def _definitions():
    """(qualified name, name, is a method, module, first line, last line) of
    every function and class, nested ones included."""
    found = []

    def walk(node, module, owner, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                qual = f"{owner}.{child.name}"
                found.append((qual, child.name, in_class, module,
                              child.lineno, child.end_lineno))
                walk(child, module, qual, isinstance(child, ast.ClassDef))
            else:
                walk(child, module, owner, in_class)

    for module, tree in TREES.items():
        walk(tree, module, module, False)
    return found


def _references():
    """(name, is an attribute, module, line) of every name and attribute read."""
    return [(node.id, False, module, node.lineno) if isinstance(node, ast.Name)
            else (node.attr, True, module, node.lineno)
            for module, tree in TREES.items() for node in ast.walk(tree)
            if isinstance(node, (ast.Name, ast.Attribute))]


def _unreached() -> list[str]:
    """Definitions that nothing in the package references outside their own
    body, repeated until none is left, so that code reached only from
    unreached code counts as unreached.  A method counts as referenced by an
    attribute of its name, anything else by a name or an attribute.  Dunders,
    the cmd_* handlers that `cli.main` looks up by name and OUTSIDE_READERS
    are reached."""
    defs, refs = _definitions(), _references()
    unreached: set[str] = set()
    while True:
        dead = [(module, lo, hi) for qual, _, _, module, lo, hi in defs
                if qual in unreached]
        live = [r for r in refs
                if not any(module == r[2] and lo <= r[3] <= hi for module, lo, hi in dead)]
        new = {qual for qual, name, method, module, lo, hi in defs
               if qual not in unreached
               and not (name.startswith("__") and name.endswith("__"))
               and not qual.startswith("cli.cmd_") and qual not in OUTSIDE_READERS
               and not any(n == name and (attribute or not method)
                           and not (m == module and lo <= line <= hi)
                           for n, attribute, m, line in live)}
        if not new:
            return sorted(unreached)
        unreached |= new


def test_every_definition_is_reached():
    unreached = _unreached()
    assert not unreached, "referenced by nothing in src: " + ", ".join(unreached)


def test_outside_readers_name_existing_definitions():
    missing = set(OUTSIDE_READERS) - {qual for qual, *_ in _definitions()}
    assert not missing, "no such definition: " + ", ".join(sorted(missing))


def test_arithmetic_is_exact():
    # the one float check, the two-variable asymptotic ratio, is a test oracle
    bad = []
    for module, tree in TREES.items():
        math_names = {alias.asname or alias.name for node in ast.walk(tree)
                      if isinstance(node, ast.Import)
                      for alias in node.names if alias.name == "math"}
        for node in ast.walk(tree):
            where = f"{module}:{getattr(node, 'lineno', '?')}"
            if isinstance(node, ast.Constant) and isinstance(node.value, (float, complex)):
                bad.append(f"{where} float literal {node.value!r}")
            elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                  and node.func.id == "float"):
                bad.append(f"{where} float() call")
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in math_names and node.attr not in EXACT_MATH):
                bad.append(f"{where} math.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "math":
                bad += [f"{where} from math import {alias.name}"
                        for alias in node.names if alias.name not in EXACT_MATH]
    assert not bad, "inexact: " + "; ".join(bad)
