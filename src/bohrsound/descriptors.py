"""JSON descriptors for groups, embeddings, amalgams, targets, and requests.

SCHEMAS lists every field of every document kind, and `parse` walks a
document through it once: an unknown kind, an unknown or missing field and a
value of the wrong type are a SchemaError naming the field's path.  The
builders read the walker's Parsed copy by subscript; mathematical validation
stays in the constructors they call.
"""

from __future__ import annotations

from fractions import Fraction
from math import factorial
from typing import NamedTuple

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


def int_vector(value, where) -> tuple[int, ...]:
    if not isinstance(value, list) or not all(type(x) is int for x in value):
        raise SchemaError(f"{where}: expected an array of integers")
    return tuple(value)


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


def labels(value, where) -> list[str]:
    """Element labels: elements resolve by label, so distinct strings."""
    if not isinstance(value, list) or \
            len({x for x in value if type(x) is str}) < len(value):
        raise SchemaError(f"{where}: expected distinct strings")
    return value


class Opt(NamedTuple):
    """An optional field: its type, and the value the walker fills in."""
    type: object
    default: object = None


NO_DELTA = {"simple_part_generators": (), "phi_images": ()}

# Each kind's fields, name -> type, where a type is int or str (a JSON
# integer, never true or false, or a string); list (an array of element
# tokens, which a builder resolves); [t] (an array of t); a value parser
# above; a role of ROLES (a document whose "kind" is one of the role's
# kinds); or the name of a kindless entry below; Opt(type, default) marks
# an optional field.  Only the builders that take a name list "name".
SCHEMAS = {
    "cyclic": {"n": int, "labels": Opt(labels), "name": Opt(str)},
    "symmetric": {"n": int},
    "heisenberg": {"level": int},
    "table": {"table": int_rows, "labels": Opt(labels), "name": Opt(str)},
    "semidirect": {"normal": "group", "acting": "group", "action": int_rows, "name": Opt(str)},
    "amalgam": {"amalgam": "group", "factors": ["amalgam-factor"]},
    "amalgam-factor": {"group": "group", "injection": list},
    "matrix-targets": {"dimension": int, "modulus": Opt(int), "factors": [[int_rows]]},
    "finite-targets": {"group": "group", "factors": [list]},
    "torus-semidirect-targets": {"rank": int, "factors": [["torus-target"]]},
    "torus-target": {"torus": torus_point, "matrix": int_rows},
    "lie-datum": {"z": int, "factors": [str], "delta": Opt("delta", NO_DELTA)},
    "delta": {"simple_part_generators": [int_vector], "phi_images": [torus_point]},
    "torus-family": {"rank": int, "factor_generators": [[int_rows]]},
    "finite-normal-family": {"kernel": "group", "embeddings": ["embedding"]},
    "normal-family-prefix": {"kernel": "group", "embeddings": ["embedding"]},
    "split-family": {"kernel": "group", "members": ["split-member"]},
    "mixed-family": {"members": ["family"]},
    "embedding": {"group": "group", "mapping": list},
    "split-member": {"normal": "group", "action": int_rows},
    "subgroup-embedding": {"subgroup": "group", "ambient": "group", "mapping": list},
}

# the kinds a document of each role may have; every role but "group" names
# a whole document, which carries "schema": 1 (a nested one may repeat it)
ROLES = {
    "group": ("table", "cyclic", "symmetric", "heisenberg", "semidirect"),
    "amalgam": ("amalgam",),
    "targets": ("matrix-targets", "finite-targets", "torus-semidirect-targets"),
    "lie-datum": ("lie-datum",),
    "family": ("torus-family", "finite-normal-family", "normal-family-prefix",
               "split-family", "mixed-family"),
    "normal-family": ("finite-normal-family", "normal-family-prefix"),
    "subgroup-embedding": ("subgroup-embedding",),
}


class Parsed(dict):
    """A document the walker has checked, every optional field filled in."""


def parse(d, role: str, where: str) -> Parsed:
    """`d` walked through SCHEMAS as a document of `role` (or an entry
    name).  A Parsed document passes as it is, so a builder handed part of
    one walks nothing twice."""
    doc = _walk(d, role, where)
    if doc is not d and role in ROLES and role != "group" and "schema" not in d:
        raise SchemaError(f"{where}: missing field 'schema'")
    return doc


def _walk(value, type_, where: str):
    if isinstance(type_, list):
        if not isinstance(value, list):
            raise SchemaError(f"{where}: expected an array")
        return [_walk(v, type_[0], f"{where}[{i}]") for i, v in enumerate(value)]
    if isinstance(type_, str):
        return _document(value, type_, where)
    if type_ in (int, str, list):
        # JSON true and false are Python bools, and so ints: refused
        if not isinstance(value, type_) or isinstance(value, bool):
            raise SchemaError(f"{where}: expected {type_.__name__}")
        return value
    return type_(value, where)


def _document(d, name: str, where: str) -> Parsed:
    if type(d) is Parsed:
        return d
    if not isinstance(d, dict):
        raise SchemaError(f"{where}: expected an object, got {type(d).__name__}")
    doc, tags = Parsed(), ()
    if name in ROLES:  # the kind picks the fields
        if "kind" not in d:
            raise SchemaError(f"{where}: missing field 'kind'")
        if d["kind"] not in ROLES[name]:
            raise SchemaError(f"{where}: unknown {name} kind {d['kind']!r}; "
                              f"expected one of {ROLES[name]}")
        if "schema" in d and _walk(d["schema"], int, f"{where}.schema") != 1:
            raise SchemaError(f"{where}: unsupported schema version {d['schema']}")
        doc["kind"] = name = d["kind"]
        tags = ("kind", "schema")
    fields = SCHEMAS[name]
    for key in d:
        if key not in fields and key not in tags:
            raise SchemaError(f"{where}: unknown field {key!r}")
    for field, type_ in fields.items():
        if field in d:
            doc[field] = _walk(d[field], type_.type if isinstance(type_, Opt)
                               else type_, f"{where}.{field}")
        elif isinstance(type_, Opt):
            doc[field] = type_.default
        else:
            raise SchemaError(f"{where}: missing field {field!r}")
    return doc


def group_from_descriptor(d: dict, where: str = "group") -> FiniteGroup:
    """Build a finite group from {"kind": ..., ...parameters}; SCHEMAS lists
    the fields of each kind."""
    d = parse(d, "group", where)
    kind = d["kind"]
    if kind == "cyclic":
        return cyclic(d["n"], labels=d["labels"], name=d["name"])
    if kind == "symmetric":
        return symmetric(d["n"])
    if kind == "heisenberg":
        return heisenberg(d["level"])
    if kind == "table":
        return group_from_table(d["table"], labels=d["labels"], name=d["name"])
    return semidirect(group_from_descriptor(d["normal"]),
                      group_from_descriptor(d["acting"]), d["action"],
                      name=d["name"])[0]


def descriptor_order(d: Parsed) -> int | None:
    """The order of the group a Parsed descriptor names, read off its
    parameters without building the group: n for cyclic, n! for symmetric,
    8^level for heisenberg, the row count for table, and the product of the
    parts' orders for semidirect.  None where a parameter is out of the
    builder's range, which the builder refuses anyway."""
    kind = d["kind"]
    if kind == "cyclic":
        return d["n"] if d["n"] >= 1 else None
    if kind == "symmetric":
        return factorial(d["n"]) if 1 <= d["n"] <= config.SYMMETRIC_MAX_N else None
    if kind == "heisenberg":
        return 8 ** d["level"] if 1 <= d["level"] <= config.HEISENBERG_MAX_LEVEL else None
    if kind == "table":
        return len(d["table"])
    parts = [descriptor_order(d[key]) for key in ("normal", "acting")]
    return None if None in parts else parts[0] * parts[1]


def table_group_from_descriptor(d, where: str = "group") -> FiniteGroup:
    """group_from_descriptor for a group whose character table is wanted:
    SizeLimit past CHARTABLE_MAX_ORDER, by the order the descriptor gives
    where it gives one, before the group is built."""
    d = parse(d, "group", where)
    order = descriptor_order(d)
    if order is not None:
        check_table_order(order)
    return group_from_descriptor(d)


def resolve_element(group: FiniteGroup, token, where: str = "element") -> int:
    """Element given as an index or a label string."""
    if isinstance(token, bool) or not isinstance(token, (int, str)):
        raise SchemaError(f"{where}: element must be an integer or a label")
    try:
        return group.label_index(str(token))
    except Exception:
        raise SchemaError(
            f"{where}: {token!r} is not an element of {group.name}") from None


def _resolve_all(group: FiniteGroup, tokens, where: str) -> list[int]:
    return [resolve_element(group, tok, f"{where}[{i}]")
            for i, tok in enumerate(tokens)]


def hom_from_descriptor(source: FiniteGroup, d: dict,
                        where: str = "embedding") -> GroupHom:
    """{"group": <descriptor>, "mapping": [element tokens]} -> GroupHom.  Every
    caller computes the target's table, so it is built by
    table_group_from_descriptor."""
    d = parse(d, "embedding", where)
    target = table_group_from_descriptor(d["group"])
    return GroupHom(source, target,
                    _resolve_all(target, d["mapping"], f"{where}.mapping"))


def amalgam_from_descriptor(d: dict, where: str = "amalgam") -> AmalgamSpec:
    """{"kind": "amalgam", "amalgam": <group>, "factors": [{group, injection}]}"""
    d = parse(d, "amalgam", where)
    h = group_from_descriptor(d["amalgam"])
    factors = [group_from_descriptor(entry["group"]) for entry in d["factors"]]
    return AmalgamSpec(h, factors, [
        GroupHom(h, grp, _resolve_all(grp, entry["injection"],
                                      f"{where}.factors[{i}].injection"))
        for i, (grp, entry) in enumerate(zip(factors, d["factors"]))])


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


def target_from_descriptor(spec: AmalgamSpec, d: dict,
                           where: str = "targets"):
    """Evaluation targets: matrix, finite-group, or torus-semidirect maps."""
    d = parse(d, "targets", where)
    if d["kind"] == "matrix-targets":
        if d["modulus"] is not None and d["modulus"] < 1:
            raise SchemaError(f"{where}.modulus: must be positive")
        return MatrixTarget(d["dimension"], d["factors"], modulus=d["modulus"])
    if d["kind"] == "finite-targets":
        grp = group_from_descriptor(d["group"])
        return FiniteTarget(grp, [
            _resolve_all(grp, tokens, f"{where}.factors[{i}]")
            for i, tokens in enumerate(d["factors"])])
    return TorusSemidirectTarget(d["rank"], [
        [(e["torus"], e["matrix"]) for e in entries] for entries in d["factors"]])


def lie_datum_from_descriptor(d: dict, where: str = "lie-datum") -> LieDatum:
    """{"z", "factors": ["A26", ...], "delta": {generators and images}}."""
    d = parse(d, "lie-datum", where)
    generators = d["delta"]["simple_part_generators"]
    images = d["delta"]["phi_images"]
    if len(generators) != len(images):
        raise SchemaError(f"{where}.delta: generator and image counts differ")
    return LieDatum(d["z"], [simple_type(tok) for tok in d["factors"]],
                    list(zip(generators, images)))
