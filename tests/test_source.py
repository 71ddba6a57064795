"""Checks on the source of `diagonalis` itself: every definition and
module-level name is reached from the package, every defaulted parameter
takes more than one value there, and nothing in it computes in floating
point."""

import ast
from pathlib import Path

import diagonalis

TREES = {path.stem: ast.parse(path.read_text())
         for path in sorted(Path(diagonalis.__file__).parent.glob("*.py"))}

# definitions that only code outside the package reaches, each with its reader
OUTSIDE_READERS = {
    "seriesbox.CoeffBox.data": "perfbench/spans.py: box_stats reads it",
    "uniseries.UniSeries.log": "perfbench/spans.py: METHODS names it",
    "uniseries.UniSeries.reversion": "perfbench/spans.py: METHODS names it",
    "uniseries.UniSeries.scale_argument": "perfbench/spans.py: METHODS names it",
    "cli._Parser.error": "argparse: ArgumentParser calls it on a usage error",
    "__init__.__version__": "users: the package's version, as pyproject.toml gives it",
}

# defaulted parameters that code outside the package sets, each with its setter
OUTSIDE_VALUES = {
    "cli.main(argv)": "the console script omits it; perfbench and the tests pass it",
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
    known = {qual for qual, *_ in _definitions()} | {qual for qual, *_ in _module_names()}
    missing = set(OUTSIDE_READERS) - known
    assert not missing, "no such definition: " + ", ".join(sorted(missing))


def _module_names():
    """(module.name, name, module, first line, last line) of every name a
    module assigns at its top level."""
    return [(f"{module}.{target.id}", target.id, module, node.lineno, node.end_lineno)
            for module, tree in TREES.items() for node in tree.body
            if isinstance(node, (ast.Assign, ast.AnnAssign))
            for target in (node.targets if isinstance(node, ast.Assign) else [node.target])
            if isinstance(target, ast.Name)]


def test_every_module_name_is_read():
    refs = _references()
    unread = [qual for qual, name, module, lo, hi in _module_names()
              if qual not in OUTSIDE_READERS
              and not any(n == name and not (m == module and lo <= line <= hi)
                          for n, _, m, line in refs)]
    assert not unread, "read by nothing in src: " + ", ".join(unread)


def _one_value_parameters() -> list[str]:
    """`function(parameter)` for every defaulted parameter of a function or
    method that `src` gives one value only: every call omits it, or every call
    passes the same constant.  A call of a class counts for its __init__; a
    method is called through an attribute, so its first parameter is bound.  A
    non-constant argument, a call with *args or **kwargs, and any reference
    to the function other than a call (it escapes as a value) count as many
    values."""
    funcs = []  # (qualified name, name, parameters past the bound one, defaults)

    def walk(node, owner, in_class):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                a = child.args
                params = [x.arg for x in a.posonlyargs + a.args]
                defaults = dict(zip(params[len(params) - len(a.defaults):], a.defaults))
                defaults.update((x.arg, d) for x, d in zip(a.kwonlyargs, a.kw_defaults) if d)
                bound = in_class and not any(getattr(d, "id", None) == "staticmethod"
                                             for d in child.decorator_list)
                name = owner.rpartition(".")[2] if child.name == "__init__" else child.name
                funcs.append((f"{owner}.{child.name}", name, params[bound:], defaults))
                walk(child, f"{owner}.{child.name}", False)
            elif isinstance(child, ast.ClassDef):
                walk(child, f"{owner}.{child.name}", True)
            else:
                walk(child, owner, in_class)

    for module, tree in TREES.items():
        walk(tree, module, False)
    calls, escapes = {}, set()
    for tree in TREES.values():
        callees = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(name, []).append(node)
                callees.add(id(func))
        escapes |= {node.id if isinstance(node, ast.Name) else node.attr
                    for node in ast.walk(tree)
                    if isinstance(node, (ast.Name, ast.Attribute)) and id(node) not in callees}

    def constant(expr):
        try:
            return repr(ast.literal_eval(expr))
        except (ValueError, TypeError, SyntaxError):
            return None

    found = []
    for qual, name, params, defaults in funcs:
        if name in escapes:
            continue
        for param, default in defaults.items():
            values = set()
            for call in calls.get(name, []):
                given = [k.value for k in call.keywords if k.arg == param]
                pos = params.index(param) if param in params else len(call.args)
                starred = any(isinstance(x, ast.Starred) for x in call.args[:pos + 1])
                if given or pos < len(call.args):
                    values.add(None if starred else constant(
                        given[0] if given else call.args[pos]))
                elif starred or any(k.arg is None for k in call.keywords):
                    values.add(None)
                else:
                    values.add(constant(default) or "default " + ast.unparse(default))
            if None not in values and len(values) < 2:  # None: many values
                found.append(f"{qual}({param})")
    return found


def test_every_defaulted_parameter_takes_two_values():
    one = _one_value_parameters()
    knobs = [p for p in one if p not in OUTSIDE_VALUES]
    assert not knobs, "src gives each one value only, so none is a parameter: " + ", ".join(knobs)
    stale = set(OUTSIDE_VALUES) - set(one)
    assert not stale, "src itself gives these more than one value: " + ", ".join(sorted(stale))


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
