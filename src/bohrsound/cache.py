"""Disk cache for character tables, keyed by group digest and prime.

This is the only table cache: characters.character_table keeps nothing in
the process, so a caller that needs a table twice keeps it.  The CLI reads
it through cached_character_table for every command that needs a table
(`soundness`, `clifford`, `equalizer` and `chartable`), unless given
`--no-cache`; library calls never touch the disk.

Strictly an optimization: a cache hit reconstructs the exact same table a
fresh computation would produce, so downstream output is byte-identical
whether the cache is cold, warm, or disabled.  A load re-runs the check
that ends a fresh computation; an entry failing it is stale and recomputed.
A directory that cannot be written costs speed, not the answer: the table
is returned all the same, and each failed write prints one `warning:` line
on stderr.  Only `cache warm`, whose purpose is the write, fails on it, with
one `error: CacheNotWritten` line.
The directory comes from the environment at call time (see config.cache_dir).
"""

from __future__ import annotations

import contextlib
import json
import os
import re
import sys

from . import config
from .characters import CharacterTable, character_table, check_table, table_prime
from .errors import CacheNotWritten, PrimeSearchFailure
from .groups import FiniteGroup


_ENTRY_NAME = re.compile(r"[0-9a-f]{64}-p[0-9]+\.json")


def _entry_path(base: str, digest: str, prime: int) -> str:
    return os.path.join(base, f"{digest}-p{prime}.json")


def _entry_names(base: str) -> list[str]:
    """Cache entries in base, <sha256 digest>-p<prime>.json; nothing else."""
    if not os.path.isdir(base):
        return []
    return [name for name in sorted(os.listdir(base))
            if _ENTRY_NAME.fullmatch(name)]


def store_table(table: CharacterTable) -> str:
    """Write one table to the cache; returns the file path.  CacheNotWritten,
    with no temporary file left, when the directory cannot be written."""
    base = config.cache_dir()
    path = _entry_path(base, table.group.table_digest, table.prime)
    payload = json.dumps(table.serialize(), sort_keys=True,
                         separators=(",", ":"))
    tmp = f"{path}.{os.getpid()}.tmp"  # a reader never sees half an entry
    try:
        os.makedirs(base, exist_ok=True)
        with open(tmp, "w", encoding="utf-8") as fh:
            fh.write(payload)
        os.replace(tmp, path)
    except OSError as exc:
        with contextlib.suppress(OSError):
            os.unlink(tmp)
        raise CacheNotWritten(f"table cache not written: {type(exc).__name__}: "
                              f"{exc}") from exc
    return path


def _read_entry(path: str) -> dict | None:
    """An entry's JSON object, or None when the file cannot be read, is not
    JSON, or lacks a str `group_digest`, a list `class_reps` or an int
    `order` and `prime` (json reads NaN and 1e400 as floats)."""
    try:
        with open(path, encoding="utf-8") as fh:
            data = json.load(fh)
    except (OSError, ValueError):
        return None
    if not (isinstance(data, dict) and isinstance(data.get("group_digest"), str)
            and isinstance(data.get("class_reps"), list)
            and type(data.get("order")) is int and type(data.get("prime")) is int):
        return None
    return data


def load_table(group: FiniteGroup, prime: int) -> CharacterTable | None:
    """Reconstruct a cached table, or None on miss or stale entry."""
    data = _read_entry(_entry_path(config.cache_dir(), group.table_digest, prime))
    if (data is None
            or data.get("schema") != "bohrsound/chartable/1"
            or data.get("group_digest") != group.table_digest
            or data.get("order") != group.order
            or data.get("prime") != prime
            or data.get("class_reps") != list(group.class_reps)):
        return None
    try:
        table = CharacterTable(group, prime, data["degrees"], data["values"])
        check_table(table)
    except (KeyError, TypeError, ValueError, OverflowError, PrimeSearchFailure):
        return None
    return table


def cached_character_table(group: FiniteGroup,
                           prime: int | None = None) -> CharacterTable:
    """character_table with a read-through disk cache; table_prime checks the
    prime before any read, so no entry at a refused prime is served."""
    p = table_prime(group, prime)
    table = load_table(group, p)
    if table is None:
        table = character_table(group, prime=p)
        try:
            store_table(table)
        except CacheNotWritten as exc:
            print(f"warning: {exc}", file=sys.stderr)
    return table


def warm(groups) -> list[str]:
    """Compute and store tables for every group; returns written paths.
    CacheNotWritten at the first table that cannot be written."""
    return [store_table(character_table(g)) for g in groups]


def clear() -> int:
    """Remove every cache entry, and no other file; returns how many."""
    base = config.cache_dir()
    names = _entry_names(base)
    for name in names:
        os.unlink(os.path.join(base, name))
    return len(names)


def inspect() -> list[dict]:
    """One row per cache entry that `_read_entry` reads: digest, order,
    prime, class count; any other file is skipped."""
    base = config.cache_dir()
    rows = []
    for name in _entry_names(base):
        if (data := _read_entry(os.path.join(base, name))) is None:
            continue  # load_table treats it as stale too
        rows.append({
            "file": name,
            "group_digest": data["group_digest"],
            "order": data["order"],
            "prime": data["prime"],
            "classes": len(data["class_reps"]),
        })
    return rows
