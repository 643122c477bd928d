"""JSON descriptors for groups, embeddings, amalgams, targets, and requests.

Every file the CLI consumes is a JSON object with a top-level "schema"
version and a "kind" tag.  Parsing here only checks shape and resolves
labels; mathematical validation stays in the constructors it calls.
"""

from __future__ import annotations

from fractions import Fraction
from functools import partial
from math import factorial

from . import config
from .characters import check_table_order
from .errors import SchemaError
from .amalgam import (
    AmalgamSpec,
    FiniteTarget,
    MatrixTarget,
    TorusSemidirectTarget,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    cyclic,
    group_from_table,
    heisenberg,
    semidirect,
    symmetric,
)
from .lie import LieDatum, simple_type

SCHEMA_VERSION = 1

GROUP_KINDS = ("table", "cyclic", "symmetric", "heisenberg", "semidirect")


def require_field(d, field, types, where):
    """d[field], a SchemaError unless it is one of `types`.  No field takes a
    bool, and a JSON true or false, a Python bool, is an int too: refused."""
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object, got {type(d).__name__}")
    if field not in d:
        raise SchemaError(f"{where}: missing field {field!r}")
    value = d[field]
    if not isinstance(value, types) or isinstance(value, bool):
        raise SchemaError(f"{where}: field {field!r} has the wrong type")
    return value


def optional_field(d, field, types, where, default=None):
    return require_field(d, field, types, where) if field in d else default


def check_schema(d: dict, where: str = "document") -> None:
    version = require_field(d, "schema", int, where)
    if version != SCHEMA_VERSION:
        raise SchemaError(f"{where}: unsupported schema version {version}")


def int_rows(value, where) -> list[list[int]]:
    if not isinstance(value, list) or not value:
        raise SchemaError(f"{where}: expected a nonempty array of rows")
    rows = []
    for row in value:
        if not isinstance(row, list) or not all(type(x) is int for x in row):
            raise SchemaError(f"{where}: rows must be arrays of integers")
        if len(row) != len(value[0]):
            raise SchemaError(f"{where}: rows must all have the same length")
        rows.append(list(row))
    return rows


def group_from_descriptor(d: dict, where: str = "group") -> FiniteGroup:
    """Build a finite group from {"kind": ..., ...parameters}.

    Kinds: cyclic {n}, symmetric {n}, heisenberg {level},
    table {table, labels?}, semidirect {normal, acting, action}.
    All kinds accept an optional "name"; cyclic and table accept "labels".
    """
    kind = require_field(d, "kind", str, where)
    name = optional_field(d, "name", str, where)
    # elements resolve by label, so labels must be distinct strings
    labels = optional_field(d, "labels", list, where) if kind in ("cyclic", "table") else None
    if labels is not None and len({x for x in labels if type(x) is str}) < len(labels):
        raise SchemaError(f"{where}.labels: expected distinct strings")
    if kind == "cyclic":
        n = require_field(d, "n", int, where)
        return cyclic(n, labels=labels, name=name)
    if kind == "symmetric":
        return symmetric(require_field(d, "n", int, where))
    if kind == "heisenberg":
        return heisenberg(require_field(d, "level", int, where))
    if kind == "table":
        table = int_rows(require_field(d, "table", list, where), where)
        return group_from_table(table, labels=labels, name=name)
    if kind == "semidirect":
        normal = group_from_descriptor(
            require_field(d, "normal", dict, where), f"{where}.normal")
        acting = group_from_descriptor(
            require_field(d, "acting", dict, where), f"{where}.acting")
        action = int_rows(require_field(d, "action", list, where), where)
        grp, _, _ = semidirect(normal, acting, action, name=name)
        return grp
    raise SchemaError(f"{where}: unknown group kind {kind!r}; "
                      f"expected one of {GROUP_KINDS}")


def descriptor_order(d) -> int | None:
    """The order of the group a descriptor names, read off its parameters
    without building the group: n for cyclic, n! for symmetric, 8^level for
    heisenberg, the row count for table, and the product of the parts'
    orders for semidirect.  None where a parameter is malformed or out of
    the builder's range, which the builder refuses anyway."""
    if not isinstance(d, dict):
        return None
    kind, n, level = d.get("kind"), d.get("n"), d.get("level")
    if kind == "cyclic" and type(n) is int and n >= 1:
        return n
    if kind == "symmetric" and type(n) is int and 1 <= n <= config.SYMMETRIC_MAX_N:
        return factorial(n)
    if (kind == "heisenberg" and type(level) is int
            and 1 <= level <= config.HEISENBERG_MAX_LEVEL):
        return 8 ** level
    if kind == "table" and isinstance(d.get("table"), list):
        return len(d["table"])
    if kind == "semidirect":
        parts = [descriptor_order(d.get(key)) for key in ("normal", "acting")]
        if None not in parts:
            return parts[0] * parts[1]
    return None


def table_group_from_descriptor(d, where: str = "group") -> FiniteGroup:
    """group_from_descriptor for a group whose character table is wanted:
    SizeLimit past CHARTABLE_MAX_ORDER, by the order the descriptor gives
    where it gives one, before the group is built."""
    order = descriptor_order(d)
    if order is not None:
        check_table_order(order)
    return group_from_descriptor(d, where)


def resolve_element(group: FiniteGroup, token, where: str = "element") -> int:
    """Element given as an index or a label string."""
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise SchemaError(f"{where}: element must be an integer or a label")
    try:
        return group.label_index(str(token))
    except Exception:
        raise SchemaError(
            f"{where}: {token!r} is not an element of {group.name}") from None


def hom_from_descriptor(source: FiniteGroup, d: dict,
                        where: str = "embedding") -> GroupHom:
    """{"group": <descriptor>, "mapping": [element tokens]} -> GroupHom.  Every
    caller computes the target's table, so it is built by
    table_group_from_descriptor."""
    target = table_group_from_descriptor(require_field(d, "group", dict, where),
                                         f"{where}.group")
    mapping = require_field(d, "mapping", list, where)
    resolved = [resolve_element(target, tok, f"{where}.mapping[{i}]")
                for i, tok in enumerate(mapping)]
    return GroupHom(source, target, resolved)


def amalgam_from_descriptor(d: dict, where: str = "amalgam") -> AmalgamSpec:
    """{"kind": "amalgam", "amalgam": <group>, "factors": [{group, injection}]}"""
    check_schema(d, where)
    if require_field(d, "kind", str, where) != "amalgam":
        raise SchemaError(f"{where}: expected kind 'amalgam'")
    h = group_from_descriptor(require_field(d, "amalgam", dict, where),
                              f"{where}.amalgam")
    factors = []
    injections = []
    for i, entry in enumerate(require_field(d, "factors", list, where)):
        sub = f"{where}.factors[{i}]"
        grp = group_from_descriptor(require_field(entry, "group", dict, sub), sub)
        inj = require_field(entry, "injection", list, sub)
        resolved = [resolve_element(grp, tok, f"{sub}.injection[{j}]")
                    for j, tok in enumerate(inj)]
        factors.append(grp)
        injections.append(GroupHom(h, grp, resolved))
    return AmalgamSpec(h, factors, injections)


def parse_word(spec: AmalgamSpec, text: str,
               where: str = "word") -> tuple[tuple[int, int], ...]:
    """Whitespace-separated factor:element tokens; empty text is the identity.

    Elements resolve by label first, then as integer indices.
    """
    letters = []
    for pos, token in enumerate(text.split()):
        head, sep, tail = token.partition(":")
        if not sep or not head.isdigit():
            raise SchemaError(
                f"{where}: token {pos} ({token!r}) is not factor:element")
        i = int(head)
        if not 0 <= i < len(spec.factors):
            raise SchemaError(f"{where}: factor index {i} out of range")
        letters.append((i, resolve_element(spec.factors[i], tail,
                                           f"{where} token {pos}")))
    return tuple(letters)


def torus_point(pairs, where: str) -> tuple[Fraction, ...]:
    """The point of (Q/Z)^k a descriptor writes as [[num, den], ...]: one
    Fraction per coordinate, reduced into [0, 1) and so in lowest terms,
    which makes tuple equality and hashing those of the point."""
    if not isinstance(pairs, list) or not all(
            isinstance(pair, list) and len(pair) == 2
            and all(type(x) is int for x in pair) and pair[1] != 0
            for pair in pairs):
        raise SchemaError(f"{where}: torus coordinates must be "
                          "[num, den] integer pairs with den != 0")
    return tuple(Fraction(n, d) % 1 for n, d in pairs)


def target_from_descriptor(spec: AmalgamSpec, d: dict,
                           where: str = "targets"):
    """Evaluation targets: matrix, finite-group, or torus-semidirect maps."""
    check_schema(d, where)
    kind = require_field(d, "kind", str, where)
    if kind == "matrix-targets":
        dim = require_field(d, "dimension", int, where)
        modulus = optional_field(d, "modulus", int, where)
        if modulus is not None and modulus < 1:
            raise SchemaError(f"{where}: modulus must be positive")
        make, entry = partial(MatrixTarget, dim, modulus=modulus), int_rows
    elif kind == "finite-targets":
        grp = group_from_descriptor(require_field(d, "group", dict, where),
                                    f"{where}.group")
        make, entry = partial(FiniteTarget, grp), partial(resolve_element, grp)
    elif kind == "torus-semidirect-targets":
        make = partial(TorusSemidirectTarget,
                       require_field(d, "rank", int, where))

        def entry(e, sub):
            return (torus_point(require_field(e, "torus", list, sub), sub),
                    int_rows(require_field(e, "matrix", list, sub), sub))
    else:
        raise SchemaError(f"{where}: unknown target kind {kind!r}")
    maps = []
    for i, factor_maps in enumerate(require_field(d, "factors", list, where)):
        if not isinstance(factor_maps, list):
            raise SchemaError(f"{where}.factors[{i}] must be an array")
        maps.append([entry(e, f"{where}.factors[{i}][{j}]")
                     for j, e in enumerate(factor_maps)])
    return make(maps)


def lie_datum_from_descriptor(d: dict, where: str = "lie-datum") -> LieDatum:
    """{"z", "factors": ["A26", ...], "delta": {generators and images}}."""
    check_schema(d, where)
    z = require_field(d, "z", int, where)
    factors = [simple_type(tok) for tok in require_field(d, "factors", list, where)]
    delta = optional_field(d, "delta", dict, where)
    generators = []
    if delta is not None:
        simple_gens = require_field(delta, "simple_part_generators", list, where)
        images = require_field(delta, "phi_images", list, where)
        if len(simple_gens) != len(images):
            raise SchemaError(
                f"{where}: generator and image counts differ")
        for i, (s, t) in enumerate(zip(simple_gens, images)):
            if not isinstance(s, list) or not all(type(x) is int for x in s):
                raise SchemaError(f"{where}: generator {i} must be integers")
            generators.append((tuple(s), torus_point(t, f"{where}: image {i}")))
    return LieDatum(z, factors, generators)
