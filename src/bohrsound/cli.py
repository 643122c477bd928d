"""Command-line surface: verdicts, witnesses, and certificates as text or JSON.

Arguments that take JSON accept either a file path or an inline JSON
string (anything starting with '{' or '['); bare file names also resolve
against the bundled fixtures directory.  Exit codes: 0 for a decided
verdict or successful computation, 2 when only an unknown-prefix verdict
is possible, 1 for input errors and for a reader that closed stdout early.

Every command that needs character tables (`soundness`, `clifford`,
`equalizer`, `chartable`) gets them from the disk cache,
cache.cached_character_table, and under `--no-cache` from
characters.character_table, which reads and writes nothing.  Output is the
same either way.

`main` parses with one argument parser per process: `build_parser` builds
it on the first call and returns the same parser after that.  argparse
makes a fresh namespace on every parse, so no call sees another's values.

JSON output is pinned by the golden certificates to the bytes of
`json.dumps(payload, indent=2, sort_keys=True)`.  With an indent the stdlib
runs its pure-Python encoder, so `pinned_json` writes that layout itself:
it walks dicts (sorted `str` keys) and lists, writes a list of plain ints
with one join, and hands every other scalar to the compact C encoder.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from fractions import Fraction
from importlib import resources
from json.encoder import encode_basestring_ascii

from . import cache, config
from .amalgam import (
    coproduct_pseudometric,
    discrete_length,
    eval_hom,
    normal_form,
    pseudometric_distance,
    regular_pullback_length,
    word_equal,
)
from .characters import character_table, equalizer_witness
from .descriptors import (
    amalgam_from_descriptor,
    check_schema,
    hom_from_descriptor,
    int_rows,
    lie_datum_from_descriptor,
    parse_word,
    require_field,
    table_group_from_descriptor,
    target_from_descriptor,
)
from .errors import BohrsoundError, SchemaError
from .lie import compactness_conditions
from .soundness import (
    build_normal_family,
    clifford_certificate,
    serialize_matrix_group,
    soundness_verdict,
)
from .zmat import char_orbit, fixed_subgroup_structure, generated_group

# -- input plumbing ----------------------------------------------------------------


def fixture_path(name: str):
    return resources.files("bohrsound").joinpath("fixtures", name)


def load_json(value: str, where: str = "input") -> dict | list:
    """File path, bundled fixture name, or inline JSON text."""
    text = None
    stripped = value.strip()
    if stripped.startswith("{") or stripped.startswith("["):
        text = stripped
    else:
        try:
            with open(value, encoding="utf-8") as fh:
                text = fh.read()
        except OSError:
            bundled = fixture_path(value)
            if bundled.is_file():
                text = bundled.read_text(encoding="utf-8")
            else:
                raise SchemaError(f"{where}: no such file or fixture: {value}")
    try:
        return json.loads(text)
    except ValueError as exc:
        raise SchemaError(f"{where}: invalid JSON ({exc})") from None


def pinned_json(value, pad: str = "\n") -> str:
    """`json.dumps(value, indent=2, sort_keys=True)` for `str`-keyed values."""
    if isinstance(value, dict):
        if not value:
            return "{}"
        inner = pad + "  "
        return "{" + inner + ("," + inner).join(
            f"{encode_basestring_ascii(key)}: {pinned_json(value[key], inner)}"
            for key in sorted(value)) + pad + "}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        inner = pad + "  "
        if set(map(type, value)) == {int}:
            items = map(str, value)
        else:
            items = (pinned_json(item, inner) for item in value)
        return "[" + inner + ("," + inner).join(items) + pad + "]"
    return json.dumps(value)


def emit(payload: dict, fmt: str, lines) -> None:
    """Print either the canonical JSON payload or the prepared text lines."""
    if fmt == "json":
        print(pinned_json(payload))
    else:
        for line in lines:
            print(line)


def frac_str(q: Fraction) -> str:
    return f"{q.numerator}/{q.denominator}" if q.denominator != 1 \
        else str(q.numerator)


# -- subcommand handlers -----------------------------------------------------------


def _table_provider(args):
    """The disk cache's table provider, or under --no-cache the plain one."""
    return character_table if args.no_cache else cache.cached_character_table


def run_soundness(args) -> int:
    request = load_json(args.request, "request")
    if not isinstance(request, dict):
        raise SchemaError("request: expected a JSON object")
    verdict = soundness_verdict(request, seed=args.seed, samples=args.samples,
                                table=_table_provider(args))
    lines = []
    if args.format == "text":  # the certificate is large; render it once
        lines = [f"verdict: {verdict.verdict}",
                 f"criterion: {verdict.criterion or '(none)'}",
                 "certificate:",
                 pinned_json(verdict.certificate)]
    emit(verdict.to_json(), args.format, lines)
    return verdict.exit_code


def run_equalizer(args) -> int:
    spec = load_json(args.spec, "spec")
    if not isinstance(spec, dict):
        raise SchemaError("spec: expected a JSON object")
    check_schema(spec, "spec")
    if require_field(spec, "kind", str, "spec") != "subgroup-embedding":
        raise SchemaError("spec: expected kind 'subgroup-embedding'")
    subgroup = table_group_from_descriptor(
        require_field(spec, "subgroup", dict, "spec"), "spec.subgroup")
    emb = hom_from_descriptor(subgroup, {
        "group": require_field(spec, "ambient", dict, "spec"),
        "mapping": require_field(spec, "mapping", list, "spec"),
    }, "spec")
    witness = equalizer_witness(emb, table=_table_provider(args))
    rows = [list(row) for row in witness.values]
    payload = {
        "kind": witness.kind,
        "indices": list(witness.indices),
        "degrees": list(witness.degrees),
        "self_intersection": witness.self_intersection,
        "prime": witness.prime,
        "witness_values": rows,
    }
    lines = [f"kind: {witness.kind}",
             f"ambient irreducibles: {list(witness.indices)} "
             f"(degrees {list(witness.degrees)})",
             f"self-intersection: {witness.self_intersection}",
             f"prime: {witness.prime}"]
    lines += [f"values[{i}]: {row}" for i, row in zip(witness.indices, rows)]
    emit(payload, args.format, lines)
    return 0


def run_clifford(args) -> int:
    spec = load_json(args.spec, "spec")
    if not isinstance(spec, dict):
        raise SchemaError("spec: expected a JSON object")
    check_schema(spec, "spec")
    payload = clifford_certificate(*build_normal_family(spec, "spec"),
                                   _table_provider(args))
    lines = [f"kernel order: {payload['kernel_order']}",
             f"members: {payload['member_orders']}"]
    for r in payload["reports"]:
        lines.append(
            f"rho {r['rho']} (degree {r['degree']}): class {r['class_members']}"
            f" multiplicities {r['per_member']} sup {r['sup_multiplicity']}")
    emit(payload, args.format, lines)
    return 0


def run_chartable(args) -> int:
    descriptor = load_json(args.group, "group")
    if not isinstance(descriptor, dict):
        raise SchemaError("group: expected a JSON object")
    group = table_group_from_descriptor(descriptor)
    table = _table_provider(args)(group, prime=args.prime)
    payload = table.serialize()
    lines = [f"group: {group.name} (order {group.order})",
             f"prime: {table.prime}",
             f"classes: {table.n_classes}",
             f"degrees: {list(table.degrees)}"]
    emit(payload, args.format, lines)
    return 0


def run_zmat(args) -> int:
    if args.zmat_command == "finiteness":
        gens = [int_rows(g, f"gens[{i}]")
                for i, g in enumerate(_gen_list(args.gens))]
        result = generated_group(gens)
        payload = serialize_matrix_group(result)
        lines = [str(result)]
        emit(payload, args.format, lines)
        return 0
    if args.zmat_command == "orbit":
        gens = [int_rows(g, f"gens[{i}]")
                for i, g in enumerate(_gen_list(args.gens))]
        vector = load_json(args.vector, "vector")
        if not isinstance(vector, list) or \
                not all(isinstance(x, int) for x in vector):
            raise SchemaError("vector: expected an array of integers")
        orbit = char_orbit(tuple(vector), gens, cap=args.cap)
        payload = {"finite": orbit.finite}
        if orbit.finite:
            payload["size"] = orbit.size
            lines = [f"finite orbit of size {orbit.size}"]
        else:
            payload["cap"] = orbit.cap
            lines = [f"orbit exceeds cap {orbit.cap}"]
        emit(payload, args.format, lines)
        return 0
    if args.zmat_command == "fixed":
        matrix = int_rows(load_json(args.matrix, "matrix"), "matrix")
        fs = fixed_subgroup_structure(matrix)
        payload = {
            "circle_rank": fs.circle_rank,
            "torsion": list(fs.torsion.invariant_factors),
            "finite_order": fs.finite_order,
            "structure": str(fs),
        }
        emit(payload, args.format, [f"fixed points: {fs}"])
        return 0
    raise SchemaError(f"unknown zmat subcommand {args.zmat_command!r}")


def _gen_list(value: str) -> list:
    gens = load_json(value, "gens")
    if not isinstance(gens, list) or not gens:
        raise SchemaError("gens: expected a nonempty array of matrices")
    return gens


def _length_functions(spec, flavor: str):
    if flavor == "discrete":
        return [discrete_length(f) for f in spec.factors]
    if flavor == "regular":
        return [regular_pullback_length(f) for f in spec.factors]
    raise SchemaError(f"unknown length flavor {flavor!r}")


def run_amalgam(args) -> int:
    spec = amalgam_from_descriptor(load_json(args.spec, "spec"))
    if args.amalgam_command == "nf":
        word = parse_word(spec, args.word)
        nf = normal_form(spec, word)
        if nf.is_identity:
            payload = {"identity": True, "letters": []}
            lines = ["identity"]
        else:
            letters = [(i, spec.factors[i].labels[x])
                       for i, x in nf.as_word(spec)]
            payload = {"identity": False,
                       "letters": [[i, label] for i, label in letters]}
            lines = [" ".join(f"{i}:{label}" for i, label in letters)]
        emit(payload, args.format, lines)
        return 0
    if args.amalgam_command == "eq":
        w1 = parse_word(spec, args.word)
        w2 = parse_word(spec, args.word2)
        equal = word_equal(spec, w1, w2)
        emit({"equal": equal}, args.format,
             ["equal" if equal else "distinct"])
        return 0
    if args.amalgam_command == "dist":
        if spec.h.order != 1:
            raise SchemaError("dist requires a trivial amalgamated subgroup")
        lengths = _length_functions(spec, args.lengths)
        w1 = parse_word(spec, args.word)
        if args.word2 is None:
            value = coproduct_pseudometric(spec, lengths, w1)
        else:
            value = pseudometric_distance(spec, lengths, w1,
                                          parse_word(spec, args.word2))
        payload = {"distance": {"num": value.numerator,
                                "den": value.denominator}}
        emit(payload, args.format, [frac_str(value)])
        return 0
    if args.amalgam_command == "eval":
        target = target_from_descriptor(spec, load_json(args.targets,
                                                        "targets"))
        word = parse_word(spec, args.word)
        value = eval_hom(spec, word, target)
        payload, lines = _serialize_target_value(target, value)
        emit(payload, args.format, lines)
        return 0
    raise SchemaError(f"unknown amalgam subcommand {args.amalgam_command!r}")


def _serialize_target_value(target, value):
    if hasattr(target, "group"):  # finite target
        label = target.group.labels[value]
        return {"element": value, "label": label}, [label]
    if hasattr(target, "modulus"):  # matrix target
        rows = [list(r) for r in value]
        return {"matrix": rows}, [str(list(r)) for r in rows]
    point, matrix = value  # torus semidirect
    coords = [[c.numerator, c.denominator] for c in point.coords]
    rows = [list(r) for r in matrix]
    return ({"torus": coords, "matrix": rows},
            [f"torus: {[frac_str(c) for c in point.coords]}",
             f"matrix: {rows}"])


def run_liecheck(args) -> int:
    datum = lie_datum_from_descriptor(load_json(args.datum, "datum"))
    report = compactness_conditions(datum)
    torus_dim, finite_part = report.center
    payload = {
        "torus_rank": datum.torus_rank,
        "factors": [str(f) for f in datum.factors],
        "center": {"torus_dimension": torus_dim,
                   "finite_part": list(finite_part.invariant_factors)},
        "no_central_2torus": report.no_central_2torus,
        "dual_rank_le_1": report.dual_rank_le_1,
        "aut_compact": report.aut_compact,
        "has_largest_compact": report.has_largest_compact,
        "inversion_only": report.inversion_only,
    }
    lines = [f"factors: {' x '.join(str(f) for f in datum.factors) or '(none)'}"
             f" with central torus T^{datum.torus_rank}",
             f"center: T^{torus_dim} x {finite_part}",
             f"no central 2-torus: {report.no_central_2torus}",
             f"dual rank <= 1: {report.dual_rank_le_1}",
             f"compact automorphism group: {report.aut_compact}",
             f"largest compact subgroup: {report.has_largest_compact}",
             f"sign-rigid gluing: {report.inversion_only}"]
    if datum.torus_rank == 2:
        verdict = report.verdict
        payload["verdict"] = {
            "kind": verdict.kind,
            "witness_label": verdict.witness_label,
            "witness": [list(r) for r in verdict.witness]
            if verdict.witness else None,
            "glued_subgroup": list(verdict.delta0.invariant_factors),
            "glued_order": verdict.delta0.order,
            "fixed_profiles": [list(p) for p in verdict.fixed_profiles],
            "reason": verdict.reason,
        }
        lines.append(f"verdict: {verdict.kind} ({verdict.reason})")
        for label, structure, size in verdict.fixed_profiles:
            lines.append(f"  {label}: fixed {structure}"
                         + (f" (order {size})" if size is not None else ""))
    emit(payload, args.format, lines)
    return 0


def run_cache(args) -> int:
    if args.cache_command == "warm":
        groups = [table_group_from_descriptor(load_json(g, f"group[{i}]"))
                  for i, g in enumerate(args.group)]
        paths = cache.warm(groups)
        emit({"written": paths}, args.format,
             [f"wrote {p}" for p in paths])
        return 0
    if args.cache_command == "clear":
        removed = cache.clear()
        emit({"removed": removed}, args.format,
             [f"removed {removed} entries"])
        return 0
    if args.cache_command == "inspect":
        rows = cache.inspect()
        lines = [f"cache dir: {config.cache_dir()} ({len(rows)} entries)"]
        lines += [f"{r['group_digest'][:16]}  order {r['order']}"
                  f"  prime {r['prime']}  classes {r['classes']}"
                  for r in rows]
        emit({"dir": config.cache_dir(), "entries": rows}, args.format, lines)
        return 0
    raise SchemaError(f"unknown cache subcommand {args.cache_command!r}")


# -- argument parsing ---------------------------------------------------------------


def _add_format(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_no_cache(p: argparse.ArgumentParser) -> None:
    p.add_argument("--no-cache", action="store_true",
                   help="compute every character table; read and write no "
                        "cache entry (the output is the same)")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; do not mutate it."""
    parser = argparse.ArgumentParser(
        prog="bohrsound",
        description="Decidable embedding criteria for amalgams of compact "
                    "groups")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("soundness", help="decide a family request")
    p.add_argument("--request", required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--samples", type=int, default=200)
    _add_no_cache(p)
    _add_format(p)
    p.set_defaults(handler=run_soundness)

    p = sub.add_parser("equalizer", help="split/collision witness for H <= G")
    p.add_argument("--spec", required=True)
    _add_no_cache(p)
    _add_format(p)
    p.set_defaults(handler=run_equalizer)

    p = sub.add_parser("clifford", help="restriction classes for a family")
    p.add_argument("--spec", required=True)
    _add_no_cache(p)
    _add_format(p)
    p.set_defaults(handler=run_clifford)

    p = sub.add_parser("chartable", help="character table of one group")
    p.add_argument("--group", required=True)
    p.add_argument("--prime", type=int, default=None)
    _add_no_cache(p)
    _add_format(p)
    p.set_defaults(handler=run_chartable)

    p = sub.add_parser("zmat", help="integer matrix group computations")
    zsub = p.add_subparsers(dest="zmat_command", required=True)
    q = zsub.add_parser("finiteness")
    q.add_argument("--gens", required=True)
    _add_format(q)
    q.set_defaults(handler=run_zmat)
    q = zsub.add_parser("orbit")
    q.add_argument("--vector", required=True)
    q.add_argument("--gens", required=True)
    q.add_argument("--cap", type=int, default=config.DEFAULT_ORBIT_CAP)
    _add_format(q)
    q.set_defaults(handler=run_zmat)
    q = zsub.add_parser("fixed")
    q.add_argument("--matrix", required=True)
    _add_format(q)
    q.set_defaults(handler=run_zmat)

    p = sub.add_parser("amalgam", help="normal forms, equality, distance, "
                                       "evaluation")
    asub = p.add_subparsers(dest="amalgam_command", required=True)
    q = asub.add_parser("nf")
    q.add_argument("--spec", required=True)
    q.add_argument("--word", required=True)
    _add_format(q)
    q.set_defaults(handler=run_amalgam)
    q = asub.add_parser("eq")
    q.add_argument("--spec", required=True)
    q.add_argument("--word", required=True)
    q.add_argument("--word2", required=True)
    _add_format(q)
    q.set_defaults(handler=run_amalgam)
    q = asub.add_parser("dist")
    q.add_argument("--spec", required=True)
    q.add_argument("--word", required=True)
    q.add_argument("--word2", default=None)
    q.add_argument("--lengths", choices=("discrete", "regular"),
                   default="discrete")
    _add_format(q)
    q.set_defaults(handler=run_amalgam)
    q = asub.add_parser("eval")
    q.add_argument("--spec", required=True)
    q.add_argument("--word", required=True)
    q.add_argument("--targets", required=True)
    _add_format(q)
    q.set_defaults(handler=run_amalgam)

    p = sub.add_parser("liecheck", help="compactness conditions for a "
                                        "quotient presentation")
    p.add_argument("--datum", required=True)
    _add_format(p)
    p.set_defaults(handler=run_liecheck)

    p = sub.add_parser("cache", help="character table cache management")
    csub = p.add_subparsers(dest="cache_command", required=True)
    q = csub.add_parser("warm")
    q.add_argument("--group", action="append", required=True)
    _add_format(q)
    q.set_defaults(handler=run_cache)
    q = csub.add_parser("clear")
    _add_format(q)
    q.set_defaults(handler=run_cache)
    q = csub.add_parser("inspect")
    _add_format(q)
    q.set_defaults(handler=run_cache)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except BohrsoundError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (`| head`): devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
