"""Spelling-insensitive name lookup shared by the family, oracle and
recurrence catalogs: case, '-' and '_' never distinguish two names."""

from __future__ import annotations


def catalog_key(name: str) -> str:
    return name.lower().replace("-", "").replace("_", "")


def catalog(table: dict, **aliases: str) -> dict:
    """`table` re-keyed by catalog_key, plus each alias -> its target's entry."""
    out = {catalog_key(name): entry for name, entry in table.items()}
    out.update((catalog_key(alias), out[catalog_key(name)])
               for alias, name in aliases.items())
    return out


def lookup(table: dict, name: str, kind: str):
    """The entry of a `catalog` table for `name`; ValueError if there is none."""
    try:
        return table[catalog_key(name)]
    except KeyError:
        raise ValueError(f"unknown {kind} {name!r}") from None
