"""Command-line surface: verdicts, witnesses, and certificates as text or JSON.

Arguments that take JSON accept either a file path or an inline JSON
string (anything starting with '{' or '['); bare file names also resolve
against the bundled fixtures directory.  Exit codes: 0 for a decided
verdict or successful computation; 1 for input errors (SizeLimit also for a
descriptor nested too deeply and for an input that runs out of memory) and
for a reader that closed stdout early; 2 for an answer left undecided:
- `soundness` with verdict UnknownPrefixOnly, a normal family declared
  infinite (a prefix), or UnknownMixture, a mixed family of sound members
  that no joint criterion covers;
- `liecheck` with `has_largest_compact` null (verdict Unknown): an even D_n
  factor, whose automorphism list is under-approximated, a relevant center
  automorphism that is not a joint sign, or torus rank >= 3;
- `zmat orbit` past its cap (`"capped": true`).

The surface is one table, COMMANDS: a row per command path, with its help
text, its handler and its arguments; a row with no handler is a group of
subcommands.  `build_parser` walks it in one loop, adds `--format` to every
leaf and `--no-cache` to the leaves that read character tables (`soundness`,
`clifford`, `equalizer`, `chartable`).  Those get their tables from the disk
cache, cache.cached_character_table, and under `--no-cache` from
characters.character_table, which reads and writes nothing; output is the
same either way.  The parser is built on `main`'s first call and reused:
argparse makes a fresh namespace on every parse.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from importlib import resources
from typing import Callable, NamedTuple

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
from .characters import character_table, equalizer_witness, fin_check
from .descriptors import (
    amalgam_from_descriptor,
    hom_from_descriptor,
    int_rows,
    int_vector,
    lie_datum_from_descriptor,
    parse,
    parse_word,
    table_group_from_descriptor,
    target_from_descriptor,
)
from .errors import BohrsoundError, SchemaError, SizeLimit
from .lie import compactness_conditions
from .soundness import build_normal_family, serialize_matrix_group, soundness_verdict
from .zmat import char_orbit, fixed_subgroup_structure, generated_group

# -- input plumbing ----------------------------------------------------------------


def fixture_path(name: str):
    return resources.files("bohrsound").joinpath("fixtures", name)


def load_json(value: str, where: str = "input") -> dict | list:
    """File path, bundled fixture name, or inline JSON text."""
    text = value.strip()
    if not text.startswith(("{", "[")):
        try:
            with open(value, "rb") as fh:  # bytes: not UTF-8 is invalid JSON
                text = fh.read()
        except OSError:
            try:  # a name too long for a path is an OSError here too
                text = fixture_path(value).read_bytes()
            except OSError:
                raise SchemaError(f"{where}: no such file or fixture: {value}") from None
    try:
        return json.loads(text)
    except (ValueError, RecursionError) as exc:  # nesting past the stack
        raise SchemaError(f"{where}: invalid JSON ({exc})") from None


def pinned_json(value) -> str:
    """`json.dumps(value, indent=2, sort_keys=True)`, the layout the golden
    certificates pin, for values with `str` keys and no floats: orjson
    writes 1e16 where the stdlib writes 1e+16, and null for NaN."""
    import orjson  # here: its import takes ms that text output need not pay
    try:
        text = orjson.dumps(value, option=orjson.OPT_INDENT_2 | orjson.OPT_SORT_KEYS)
    except TypeError:  # ints past 64 bits, lone surrogates, depth > 255, non-str keys
        pass
    else:
        if text.isascii() and b"\x7f" not in text:  # the stdlib escapes both
            return text.decode()
    return json.dumps(value, indent=2, sort_keys=True)


# -- subcommand handlers: one per leaf command -------------------------------------
# Each returns its answer as (JSON document, text lines, exit code); `main`
# alone prints the one `--format` asks for and returns the exit code.


def _table_provider(args):
    """The disk cache's table provider, or under --no-cache the plain one."""
    return character_table if args.no_cache else cache.cached_character_table


def run_soundness(args):
    verdict = soundness_verdict(load_json(args.request, "request"),
                                table=_table_provider(args))

    def lines():  # the certificate is large: rendered only if read
        yield f"verdict: {verdict.verdict}"
        yield f"criterion: {verdict.criterion or '(none)'}"
        yield "certificate:"
        yield pinned_json(verdict.certificate)
    return verdict.to_json(), lines(), verdict.exit_code


def run_equalizer(args):
    spec = parse(load_json(args.spec, "spec"), "subgroup-embedding", "spec")
    emb = hom_from_descriptor(table_group_from_descriptor(spec["subgroup"]), {
        "group": spec["ambient"], "mapping": spec["mapping"]}, "spec")
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
    return payload, lines, 0


def run_clifford(args):
    kernel, embs = build_normal_family(load_json(args.spec, "spec"), "spec")
    payload = fin_check(embs, source=kernel, table=_table_provider(args))
    lines = [f"kernel order: {payload['kernel_order']}",
             f"members: {payload['member_orders']}"]
    for r in payload["reports"]:
        lines.append(
            f"rho {r['rho']} (degree {r['degree']}): class {r['class_members']}"
            f" multiplicities {r['per_member']} sup {r['sup_multiplicity']}")
    return payload, lines, 0


def run_chartable(args):
    group = table_group_from_descriptor(load_json(args.group, "group"))
    table = _table_provider(args)(group, prime=args.prime)
    lines = [f"group: {group.name} (order {group.order})",
             f"prime: {table.prime}",
             f"classes: {table.n_classes}",
             f"degrees: {list(table.degrees)}"]
    return table.serialize(), lines, 0


def _gens(value: str) -> list:
    gens = load_json(value, "gens")
    if not isinstance(gens, list) or not gens:
        raise SchemaError("gens: expected a nonempty array of matrices")
    return [int_rows(g, f"gens[{i}]") for i, g in enumerate(gens)]


def run_zmat_finiteness(args):
    result = generated_group(_gens(args.gens))
    return serialize_matrix_group(result), [str(result)], 0


def run_zmat_orbit(args):
    gens = _gens(args.gens)
    vector = int_vector(load_json(args.vector, "vector"), "vector")
    orbit = char_orbit(vector, gens, cap=args.cap)
    if orbit.finite:
        return ({"finite": True, "size": orbit.size},
                [f"finite orbit of size {orbit.size}"], 0)
    # past the cap nothing is decided: the orbit may still be finite
    return ({"cap": orbit.cap, "capped": True},
            [f"orbit exceeds cap {orbit.cap}"], 2)


def run_zmat_fixed(args):
    fs = fixed_subgroup_structure(int_rows(load_json(args.matrix, "matrix"),
                                           "matrix"))
    payload = {
        "circle_rank": fs.circle_rank,
        "torsion": list(fs.torsion.invariant_factors),
        "finite_order": fs.finite_order,
        "structure": str(fs),
    }
    return payload, [f"fixed points: {fs}"], 0


def run_amalgam_nf(args):
    spec = amalgam_from_descriptor(load_json(args.spec, "spec"))
    nf = normal_form(spec, parse_word(spec, args.word))
    if nf.is_identity:
        return {"identity": True, "letters": []}, ["identity"], 0
    letters = [(i, spec.factors[i].labels[x]) for i, x in nf.as_word(spec)]
    return ({"identity": False, "letters": [[i, label] for i, label in letters]},
            [" ".join(f"{i}:{label}" for i, label in letters)], 0)


def run_amalgam_eq(args):
    spec = amalgam_from_descriptor(load_json(args.spec, "spec"))
    equal = word_equal(spec, parse_word(spec, args.word),
                       parse_word(spec, args.word2))
    return {"equal": equal}, ["equal" if equal else "distinct"], 0


LENGTH_FLAVORS = {"discrete": discrete_length,
                  "regular": regular_pullback_length}


def run_amalgam_dist(args):
    spec = amalgam_from_descriptor(load_json(args.spec, "spec"))
    if spec.h.order != 1:
        raise SchemaError("dist requires a trivial amalgamated subgroup")
    lengths = [LENGTH_FLAVORS[args.lengths](f) for f in spec.factors]
    w1 = parse_word(spec, args.word)
    if args.word2 is None:
        value = coproduct_pseudometric(spec, lengths, w1)
    else:
        value = pseudometric_distance(spec, lengths, w1,
                                      parse_word(spec, args.word2))
    return ({"distance": {"num": value.numerator, "den": value.denominator}},
            [str(value)], 0)


def run_amalgam_eval(args):
    spec = amalgam_from_descriptor(load_json(args.spec, "spec"))
    target = target_from_descriptor(spec, load_json(args.targets, "targets"))
    value = eval_hom(spec, parse_word(spec, args.word), target)
    if hasattr(target, "group"):  # finite target
        label = target.group.labels[value]
        return {"element": value, "label": label}, [label], 0
    if hasattr(target, "modulus"):  # matrix target
        rows = [list(r) for r in value]
        return {"matrix": rows}, [str(list(r)) for r in rows], 0
    point, matrix = value  # torus semidirect
    coords = [[c.numerator, c.denominator] for c in point]
    rows = [list(r) for r in matrix]
    return ({"torus": coords, "matrix": rows},
            [f"torus: {[str(c) for c in point]}", f"matrix: {rows}"], 0)


def run_liecheck(args):
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
    if datum.torus_rank >= 2:  # below, the automorphism group is compact
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
    return payload, lines, 2 if report.has_largest_compact is None else 0


def run_cache_warm(args):
    groups = [table_group_from_descriptor(load_json(g, f"group[{i}]"))
              for i, g in enumerate(args.group)]
    paths = cache.warm(groups)
    return {"written": paths}, [f"wrote {p}" for p in paths], 0


def run_cache_clear(args):
    removed = cache.clear()
    return {"removed": removed}, [f"removed {removed} entries"], 0


def run_cache_inspect(args):
    rows = cache.inspect()
    lines = [f"cache dir: {config.cache_dir()} ({len(rows)} entries)"]
    lines += [f"{r['group_digest'][:16]}  order {r['order']}"
              f"  prime {r['prime']}  classes {r['classes']}"
              for r in rows]
    return {"dir": config.cache_dir(), "entries": rows}, lines, 0


# -- the command table ---------------------------------------------------------------


class Command(NamedTuple):
    """A group of subcommands when `handler` is None, else a leaf command with
    its arguments (flag -> add_argument keywords); `no_cache` if it reads tables."""
    path: tuple[str, ...]
    help: str | None
    handler: Callable[[argparse.Namespace], tuple] | None = None
    arguments: dict | None = None
    no_cache: bool = False


REQUIRED = {"required": True}

COMMANDS = (
    Command(("soundness",), "decide a family request", run_soundness,
            {"--request": REQUIRED}, no_cache=True),
    Command(("equalizer",), "split/collision witness for H <= G",
            run_equalizer, {"--spec": REQUIRED}, no_cache=True),
    Command(("clifford",), "restriction classes for a family", run_clifford,
            {"--spec": REQUIRED}, no_cache=True),
    Command(("chartable",), "character table of one group", run_chartable,
            {"--group": REQUIRED, "--prime": {"type": int, "default": None}},
            no_cache=True),
    Command(("zmat",), "integer matrix group computations"),
    Command(("zmat", "finiteness"), None, run_zmat_finiteness,
            {"--gens": REQUIRED}),
    Command(("zmat", "orbit"), None, run_zmat_orbit,
            {"--vector": REQUIRED, "--gens": REQUIRED,
             "--cap": {"type": int, "default": config.DEFAULT_ORBIT_CAP}}),
    Command(("zmat", "fixed"), None, run_zmat_fixed, {"--matrix": REQUIRED}),
    Command(("amalgam",), "normal forms, equality, distance, evaluation"),
    Command(("amalgam", "nf"), None, run_amalgam_nf,
            {"--spec": REQUIRED, "--word": REQUIRED}),
    Command(("amalgam", "eq"), None, run_amalgam_eq,
            {"--spec": REQUIRED, "--word": REQUIRED, "--word2": REQUIRED}),
    Command(("amalgam", "dist"), None, run_amalgam_dist,
            {"--spec": REQUIRED, "--word": REQUIRED, "--word2": {"default": None},
             "--lengths": {"choices": LENGTH_FLAVORS, "default": "discrete"}}),
    Command(("amalgam", "eval"), None, run_amalgam_eval,
            {"--spec": REQUIRED, "--word": REQUIRED, "--targets": REQUIRED}),
    Command(("liecheck",), "compactness conditions for a quotient presentation",
            run_liecheck, {"--datum": REQUIRED}),
    Command(("cache",), "character table cache management"),
    Command(("cache", "warm"), None, run_cache_warm,
            {"--group": {"action": "append", "required": True}}),
    Command(("cache", "clear"), None, run_cache_clear, {}),
    Command(("cache", "inspect"), None, run_cache_inspect, {}),
)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built from COMMANDS on the first call; do not
    mutate it."""
    parser = argparse.ArgumentParser(
        prog="bohrsound",
        description="Decidable embedding criteria for amalgams of compact "
                    "groups")
    groups = {(): parser.add_subparsers(dest="command", required=True)}
    for cmd in COMMANDS:
        # a help text also lists the command in its group's --help
        p = groups[cmd.path[:-1]].add_parser(
            cmd.path[-1], **({"help": cmd.help} if cmd.help else {}))
        if cmd.handler is None:  # dest names the subcommand argparse misses
            groups[cmd.path] = p.add_subparsers(
                dest=f"{cmd.path[-1]}_command", required=True)
            continue
        for flag, keywords in cmd.arguments.items():
            p.add_argument(flag, **keywords)
        if cmd.no_cache:
            p.add_argument("--no-cache", action="store_true",
                           help="compute every character table; read and "
                                "write no cache entry (the output is the same)")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(handler=cmd.handler)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        try:
            payload, lines, code = args.handler(args)
            if args.format == "json":
                print(pinned_json(payload))
            else:
                for line in lines:
                    print(line)
            return code
        except RecursionError:  # semidirect and mixed-family descriptors nest
            raise SizeLimit("descriptor nested too deeply") from None
        except MemoryError:  # an admitted input past the memory at hand
            raise SizeLimit("input needs more memory than is available") from None
    except BohrsoundError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 1
    except BrokenPipeError:
        # stdout closed early (`| head`): devnull keeps the exit flush quiet
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1


if __name__ == "__main__":
    sys.exit(main())
