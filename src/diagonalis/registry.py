"""Spelling-insensitive name lookup shared by the family, oracle and
recurrence catalogs: case, '-' and '_' never distinguish two names.  An
entry takes a dict of keyword parameters and pops those it takes."""

from __future__ import annotations


def catalog_key(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "")


def catalog(table: dict, **aliases: str) -> dict:
    """`table` re-keyed by catalog_key, plus each alias -> its target's entry."""
    out = {catalog_key(name): entry for name, entry in table.items()}
    out.update((catalog_key(alias), out[catalog_key(name)])
               for alias, name in aliases.items())
    return out


def build(table: dict, name: str, kind: str, params: dict, *args):
    """The entry of a `catalog` table for `name`, called as
    entry(params, *args); it pops from `params` the parameters it takes.
    ValueError if there is no such entry, if it needs a parameter that is
    missing, or if one is left over."""
    if (entry := table.get(catalog_key(name))) is None:
        raise ValueError(f"unknown {kind} {name!r}")
    try:
        value = entry(params, *args)
    except KeyError as exc:
        raise ValueError(f"{kind} {name!r} needs parameter {exc.args[0]}") from None
    if params:
        raise ValueError(f"{kind} {name!r} takes no parameter {next(iter(params))}")
    return value
