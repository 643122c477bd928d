"""The CLI surface as a whole: every parser's --help, the refusals of
out-of-range counts, and a fuzz of the error contract built from the
command table."""

import functools
import json
import os
import random
import re
import resource
import subprocess
import sys
import time
from pathlib import Path

import pytest

import bohrsound
from bohrsound import cli, config, descriptors, errors

from oracles import distinct_b_descriptor

GOLDEN_HELP = Path(__file__).parent / "golden" / "help.txt"


def help_sections() -> list[tuple[tuple[str, ...], str]]:
    """(argv, text) per parser; each section is headed `$ bohrsound <argv>`."""
    parts = re.split(r"^\$ bohrsound (.*)\n", GOLDEN_HELP.read_text(),
                     flags=re.M)
    return [(tuple(head.split()), body)
            for head, body in zip(parts[1::2], parts[2::2])]


def test_golden_help_covers_every_parser():
    paths = {()} | {cmd.path for cmd in cli.COMMANDS}
    assert [argv[-1] for argv, _ in help_sections()] == ["--help"] * len(paths)
    assert {argv[:-1] for argv, _ in help_sections()} == paths


@pytest.mark.parametrize("argv, expected", help_sections(),
                         ids=[" ".join(argv) for argv, _ in help_sections()])
def test_help_is_pinned(argv, expected, monkeypatch, capsys):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 0
    # the golden is argparse's layout on Python 3.10 to 3.12, where 3.10
    # heads the options section "optional arguments:"; 3.13 wraps the root
    # usage line differently
    out = re.sub(r"^optional arguments:$", "options:", capsys.readouterr().out,
                 flags=re.M)
    assert out == expected


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def assert_one_error(result, kind: str):
    code, out, err = result
    assert (code, out) == (1, "")
    assert err.startswith(f"error: {kind}: ") and err.count("\n") == 1


def fixture(name: str):
    return json.loads(cli.fixture_path(name).read_text())


def split_request(**fields) -> str:
    request = fixture("split-inversion.json")
    return json.dumps({**request, **fields})


@pytest.mark.parametrize("fields", [{"samples": 0}, {"samples": 1, "seed": 3},
                                    {"seed": -1}])
def test_split_request_refuses_sampling_fields(fields, capsys):
    # the old check's sample count and seed are read by nothing now, so
    # like every unknown descriptor field they are refused
    result = run(capsys, "soundness", "--request", split_request(**fields))
    assert_one_error(result, "SchemaError")
    assert f"request: unknown field {next(iter(fields))!r}" in result[2]


def test_bad_action_in_mixed_family_is_one_error(capsys):
    bad = json.loads(split_request(members=[{
        "normal": {"kind": "cyclic", "n": 3},
        "action": [[0, 1, 2], [1, 2, 0]]}]))
    mixed = json.dumps({"schema": 1, "kind": "mixed-family",
                        "members": [json.loads(split_request()), bad]})
    assert_one_error(run(capsys, "soundness", "--request", mixed),
                     "NotAnAction")


@pytest.mark.parametrize("vector", ["[1,0]", "[0,0]"])
def test_orbit_cap_below_one_is_refused(vector, capsys):
    # the zero vector's orbit once came back finite of size 1 past cap 0
    gens = "[[[0,-1],[1,0]]]"
    for cap in ("0", "-3"):
        assert_one_error(run(capsys, "zmat", "orbit", "--vector", vector,
                             "--gens", gens, "--cap", cap), "SizeLimit")
    code, out, _ = run(capsys, "zmat", "orbit", "--vector", "[0,0]",
                       "--gens", gens, "--cap", "1")
    assert (code, out) == (0, "finite orbit of size 1\n")


PREFIX_NOTE = "verdict covers only the materialized prefix of a family " \
    "declared infinite"
MIXED_NOTE = "members are individually sound but no joint criterion " \
    "applies to the mixture"
D_EVEN_REASON = "achievable automorphism list is an under-approximation"
RANK_REASON = "verdict implemented for torus rank <= 2, got 3"


def _family_note(doc):
    return doc["verdict"], doc["certificate"]["note"]


def _lie_reason(doc):
    return doc["has_largest_compact"], doc["verdict"]["kind"], \
        doc["verdict"]["reason"]


# every route to exit 2, an answer left undecided: (argv, the text that
# says why, the JSON fields that say it)
UNDECIDED = {
    "normal-prefix": (
        ["soundness", "--request", "heisenberg-prefix.json"],
        f'"note": "{PREFIX_NOTE}"', _family_note,
        ("UnknownPrefixOnly", PREFIX_NOTE)),
    "mixed-heterogeneous": (
        ["soundness", "--request", json.dumps({
            "schema": 1, "kind": "mixed-family", "members": [
                fixture("split-inversion.json"),
                {"kind": "torus-family", "rank": 2,
                 "factor_generators": [[[[0, -1], [1, 0]]]]}]})],
        f'"note": "{MIXED_NOTE}"', _family_note,
        ("UnknownMixture", MIXED_NOTE)),
    "lie-d6": (
        ["liecheck", "--datum", json.dumps({
            "schema": 1, "kind": "lie-datum", "z": 2, "factors": ["D6"],
            "delta": {"simple_part_generators": [[1, 0], [0, 1]],
                      "phi_images": [[[1, 2], [0, 1]], [[0, 1], [1, 2]]]}})],
        f"verdict: Unknown ({D_EVEN_REASON})", _lie_reason,
        (None, "Unknown", D_EVEN_REASON)),
    "lie-rank-3": (
        ["liecheck", "--datum", json.dumps({
            "schema": 1, "kind": "lie-datum", "z": 3, "factors": ["A2"]})],
        f"verdict: Unknown ({RANK_REASON})", _lie_reason,
        (None, "Unknown", RANK_REASON)),
    "orbit-capped": (
        # the orbit has 4 vectors: past the cap it is not known infinite
        ["zmat", "orbit", "--gens", "[[[0,1],[1,0]],[[-1,0],[0,1]]]",
         "--vector", "[1,0]", "--cap", "3"],
        "orbit exceeds cap 3", lambda doc: doc, {"cap": 3, "capped": True}),
}


@pytest.mark.parametrize("argv, line, fields, expected", UNDECIDED.values(),
                         ids=UNDECIDED)
def test_undecided_answers_exit_2_with_their_reason(argv, line, fields,
                                                    expected, capsys):
    code, out, err = run(capsys, *argv)
    assert (code, err) == (2, "")
    assert line in out
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, err) == (2, "")
    assert fields(json.loads(out)) == expected


# -- fuzzing the error contract ----------------------------------------------------

FUZZ_SEED = 20231014
CASES_PER_LEAF = 60




def corner(k: int, block) -> list:
    """I_k with `block` in its top-left corner."""
    return [[block[i][j] if max(i, j) < len(block) else int(i == j)
             for j in range(k)] for i in range(k)]


# B_8 (order 10,321,920) by an 8-cycle, a transposition and a sign flip
B8 = [[[int((j + 1) % 8 == i) for j in range(8)] for i in range(8)],
      corner(8, [[0, 1], [1, 0]]), corner(8, [[-1]])]

# valid but small inputs by flag; group orders stay small so that no case is
# a legal but slow table.  `zmat finiteness` stops at its first proof that a
# group is infinite: a generator of infinite order, read before anything is
# built, as I + E_01 beside B_8, or two elements equal mod 3, as in SL(2, Z)
# on a 2x2 block of rank 8 after 24 elements.  A finite group is enumerated
# whole, so the generators of rank 4 and up are only such infinite cases:
# a mutation that drops I + E_01 from B_8 leaves 10 million elements, which
# run out of the child's 1 GiB and end as SizeLimit.
VALID = {
    "--request": ["torus-collapse.json", "heisenberg-prefix.json",
                  "split-inversion.json", "split-growing-orbit.json",
                  {"schema": 1, "kind": "finite-normal-family",
                   "kernel": {"kind": "cyclic", "n": 2},
                   "embeddings": [{"group": {"kind": "cyclic", "n": 4},
                                   "mapping": [0, 2]}]},
                  {"schema": 1, "kind": "mixed-family",
                   "members": [fixture("split-inversion.json"),
                               fixture("torus-collapse.json")]}],
    "--spec": ["a3-in-s3.json", "z2-in-z4.json", "heisenberg-prefix.json",
               "sl2z.json", "z2-free-z2.json"],
    "--group": [{"kind": "cyclic", "n": 6}, {"kind": "symmetric", "n": 3},
                {"kind": "heisenberg", "level": 1},
                {"kind": "table", "table": [[0, 1], [1, 0]]},
                {"kind": "semidirect", "normal": {"kind": "cyclic", "n": 3},
                 "acting": {"kind": "cyclic", "n": 2},
                 "action": [[0, 1, 2], [0, 2, 1]]}],
    "--gens": [[[[0, -1], [1, 0]]], [[[0, -1], [1, 1]]], [[[1, 1], [0, 1]]],
               [[[-1]]], [[[0, 1, 0], [0, 0, 1], [1, 0, 0]]],
               [[[0, -1, 0], [1, 0, 0], [0, 0, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, -1]]],
               B8 + [corner(8, [[1, 1], [0, 1]])],
               [corner(8, [[0, -1], [1, 0]]), corner(8, [[0, -1], [1, 1]])]],
    "--vector": [[1, 0], [0, 0], [1], [1, 2, 3], [0, 1, 0, 0]],
    "--matrix": [[[-1, 0], [0, -1]], [[0, -1], [1, 0]], [[1]],
                 [[0, 1, 0], [0, 0, 1], [1, 0, 0]]],
    "--word": ["", "0:a 0:a 1:b", "1:b 1:b 1:b", "0:x 1:y 0:x", "0:e",
               "1:y 0:x 1:y 0:x 1:y"],
    "--targets": ["sl2z-matrices.json",
                  {"schema": 1, "kind": "finite-targets",
                   "group": {"kind": "cyclic", "n": 2},
                   "factors": [[0, 1], [0, 1]]},
                  {"schema": 1, "kind": "torus-semidirect-targets", "rank": 1,
                   "factors": [[{"torus": [[0, 1]], "matrix": [[1]]},
                                {"torus": [[1, 2]], "matrix": [[1]]}]]}],
    "--datum": ["su2.json", "bare-t2.json", "glued-su-3-2.json",
                "glued-su-4-2.json", "glued-su-4-3.json",
                # 60 distinct factors, two generators across all of them
                {"schema": 1, "kind": "lie-datum", "z": 2,
                 "factors": [f"B{n}" for n in range(2, 61)] + ["A2"],
                 "delta": {"simple_part_generators": [[1] * 59 + [0],
                                                      [0] * 59 + [1]],
                           "phi_images": [[[1, 2], [0, 1]],
                                          [[0, 1], [1, 3]]]}},
                # 200 distinct factors, |D| = 4096 and all of it the kernel
                distinct_b_descriptor(200, 2)],
}
VALID["--word2"] = VALID["--word"]


def nested(depth: int, inner: dict, wrap) -> dict:
    for _ in range(depth):
        inner = wrap(inner)
    return inner


DEEP_MIXED = json.dumps({"schema": 1, **nested(
    400, fixture("torus-collapse.json"),
    lambda d: {"kind": "mixed-family", "members": [d]})})
DEEP_SEMIDIRECT = json.dumps(nested(
    600, {"kind": "cyclic", "n": 2},
    lambda d: {"kind": "semidirect", "normal": d,
               "acting": {"kind": "cyclic", "n": 1}, "action": [[0, 1]]}))
# malformed for any flag: broken or deep JSON, descriptors nested past the
# interpreter's stack, the wrong shape, missing and over-long file names,
# and words that are no JSON at all
JUNK = ["", " ", "{", "[", "{}", "[]", "[[]]", "[[[1]]]", "null", "1", '"x"',
        "[1, 2]", '{"schema": 1}', '{"schema": 2, "kind": "x"}',
        '{"kind": 5}', "[" * 5000, '{"a": ' * 2000, "nope.json", "a" * 300,
        ".", "/", "0:", "9:a", "x:y", "é", DEEP_MIXED, DEEP_SEMIDIRECT]
# what a mutation writes in place of a value: wrong types, out of range
REPLACEMENTS = [None, True, -1, 0, 1, 2, 1.5, "x", "", [], {}, [[]], 10 ** 6,
                2 ** 31, 2 ** 70, -2 ** 70]
# small integers only: a large count, cap or prime is a legal but slow case
INTS = ["-18446744073709551616", "-7", "-1", "0", "1", "2", "3", "5", "7",
        "97", "x"]


# every field name in the schema table
FIELDS = sorted({field for fields in descriptors.SCHEMAS.values()
                 for field in fields})


def mutate(rng: random.Random, value):
    """A copy of a JSON value with one node replaced, one entry dropped, or a
    field of the schema table added to one object."""
    if isinstance(value, (dict, list)) and value and rng.random() < 0.8:
        keys = list(value) if isinstance(value, dict) else range(len(value))
        key = rng.choice(keys)
        copy = dict(value) if isinstance(value, dict) else list(value)
        roll = rng.random()
        if roll < 0.15:
            del copy[key]
        elif roll < 0.25 and isinstance(copy, dict):
            copy[rng.choice(FIELDS)] = rng.choice(REPLACEMENTS)
        else:
            copy[key] = mutate(rng, copy[key])
        return copy
    return rng.choice(REPLACEMENTS)


def argument_value(rng: random.Random, flag: str, keywords: dict) -> str:
    if "choices" in keywords:
        return rng.choice([*keywords["choices"], "x"])
    if keywords.get("type") is int:
        return rng.choice(INTS)
    roll = rng.random()
    # a flag the table grows later falls back on every other flag's inputs
    pool = VALID.get(flag) or [v for vs in VALID.values() for v in vs]
    if roll < 0.15:
        return rng.choice(JUNK)
    value = rng.choice(pool)
    if isinstance(value, str) and value.endswith(".json"):
        if roll < 0.65:
            return value
        value = fixture(value)
    if not isinstance(value, str) and roll >= 0.65:
        for _ in range(rng.randint(1, 3)):
            value = mutate(rng, value)
    return value if isinstance(value, str) else json.dumps(value)


def fuzz_cases(seed: int) -> list[list[str]]:
    """CASES_PER_LEAF argument vectors per leaf of the command table."""
    rng = random.Random(seed)
    cases = []
    for cmd in cli.COMMANDS:
        if cmd.handler is None:
            continue
        for _ in range(CASES_PER_LEAF):
            argv = list(cmd.path)
            for flag, keywords in cmd.arguments.items():
                # an int flag is always set: a default such as the orbit cap
                # of 10^6 turns a growing orbit into a legal but slow case
                if keywords.get("required") or keywords.get("type") is int \
                        or rng.random() < 0.7:
                    argv += [flag, argument_value(rng, flag, keywords)]
            if cmd.no_cache and rng.random() < 0.3:
                argv.append("--no-cache")
            if rng.random() < 0.05:
                argv.append("--bogus")
            cases.append(argv + ["--format", rng.choice(["text", "json"])])
    return cases


# a call that reads one document of each role, the document last
ROLE_CALLS = {
    "group": ["chartable", "--group"],
    "amalgam": ["amalgam", "nf", "--word", "", "--spec"],
    "targets": ["amalgam", "eval", "--spec", "sl2z.json", "--word", "",
                "--targets"],
    "lie-datum": ["liecheck", "--datum"],
    "family": ["soundness", "--request"],
    "normal-family": ["clifford", "--spec"],
    "subgroup-embedding": ["equalizer", "--spec"],
}


def documents(value, type_, path=()):
    """(path, kind) of every object in `value`, a valid JSON value of the
    schema table's type `type_`; a kindless entry's kind is its table name."""
    if isinstance(type_, descriptors.Opt):
        type_ = type_.type
    if isinstance(type_, list):
        for i, item in enumerate(value):
            yield from documents(item, type_[0], path + (i,))
    elif isinstance(type_, str):
        kind = value["kind"] if type_ in descriptors.ROLES else type_
        yield path, kind
        for field, field_type in descriptors.SCHEMAS[kind].items():
            if field in value:
                yield from documents(value[field], field_type, path + (field,))


def unknown_field_cases(seed: int) -> list[list[str]]:
    """One call per kind of the schema table: a valid document that holds
    the kind, with one field of the table that the kind lacks added to it."""
    rng = random.Random(seed)
    valid = [fixture(v) if isinstance(v, str) else v for vs in VALID.values()
             for v in vs if isinstance(v, dict) or str(v).endswith(".json")]
    cases = {}
    for role, call in ROLE_CALLS.items():
        for value in valid:
            try:
                descriptors.parse(value, role, role)
            except errors.SchemaError:
                continue
            for path, kind in documents(value, role):
                if kind in cases:
                    continue
                doc = json.loads(json.dumps(value))
                node = functools.reduce(lambda d, key: d[key], path, doc)
                foreign = [f for f in FIELDS if f not in descriptors.SCHEMAS[kind]]
                node[rng.choice(foreign)] = 1
                cases[kind] = call + [json.dumps(doc)]
    assert sorted(cases) == sorted(descriptors.SCHEMAS)
    return list(cases.values())


CHILD = r"""
import contextlib, io, json, sys, traceback
from bohrsound import cli
results = []
for argv in json.load(sys.stdin):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code, exited = cli.main(argv), False
        except SystemExit as exc:
            code, exited = exc.code, True
        except Exception:
            code, exited = traceback.format_exc(), False
    results.append([argv, code, exited, out.getvalue(), err.getvalue()])
json.dump(results, sys.__stdout__)
"""


def contract_breach(code, exited: bool, out: str, err: str) -> str | None:
    """None when one call kept the CLI's error contract, else what broke."""
    if exited:
        if code == 2 and err.startswith("usage:"):
            return None  # argparse's own refusal
        return f"SystemExit({code!r})"
    if code in (0, 2):
        return None if out and not err else "no output, or stderr on success"
    if code == 1:
        line = re.fullmatch(r"error: (\w+): .*\n", err, flags=re.S)
        kind = getattr(errors, line.group(1), None) if line else None
        if (out == "" and err.count("\n") == 1 and isinstance(kind, type)
                and issubclass(kind, errors.BohrsoundError)):
            return None
        return "exit 1 without exactly one BohrsoundError line"
    return f"raised or returned {code!r}"


def run_in_child(cases: list[list[str]], cwd: Path) -> list:
    """[argv, code, exited, stdout, stderr] per case, every case in one child
    under a 1 GiB address-space limit, so that an allocation sized by the
    input fails there and not on the host."""
    env = dict(os.environ, PYTHONPATH=str(Path(bohrsound.__file__).parents[1]),
               OPENBLAS_NUM_THREADS="1",
               **{config.CACHE_ENV_VAR: str(cwd / "cache")})
    proc = subprocess.run(
        [sys.executable, "-c", CHILD], input=json.dumps(cases),
        capture_output=True, text=True, timeout=120, env=env, cwd=cwd,
        preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                              (1 << 30, 1 << 30)))
    assert proc.returncode == 0, proc.stderr
    results = json.loads(proc.stdout)
    assert len(results) == len(cases)
    return results


def test_fuzzed_arguments_keep_the_error_contract(tmp_path):
    unknown = unknown_field_cases(FUZZ_SEED)
    results = run_in_child(fuzz_cases(FUZZ_SEED) + unknown, tmp_path)
    breaches = [(argv, breach, code if breach else None, err)
                for argv, code, exited, out, err in results
                if (breach := contract_breach(code, exited, out, err))]
    # an unknown field is refused as such, whatever the kind that holds it
    breaches += [(argv, "no SchemaError", code, err)
                 for argv, code, _, _, err in results[-len(unknown):]
                 if not (err.startswith("error: SchemaError: ")
                         and "unknown field" in err)]
    assert breaches == []


def test_large_split_family_fits_in_1_gib(tmp_path):
    # Z16 under the trivial action of |H| = 4096: 65,536 action entries, where
    # composing every pair of rows would take 1 GiB
    request = json.dumps({"schema": 1, "kind": "split-family",
                          "kernel": {"kind": "cyclic", "n": 4096},
                          "members": [{"normal": {"kind": "cyclic", "n": 16},
                                       "action": [list(range(16))] * 4096}]})
    [(_, code, exited, out, err)] = run_in_child(
        [["soundness", "--request", request]], tmp_path)
    assert (code, exited, err) == (0, False, "")
    assert out.startswith("verdict: Sound\n")


def test_regular_lengths_of_order_1024_fit_in_1_gib(tmp_path):
    # the regular representation of Z1024 as matrices would take 8 GiB
    spec = json.dumps({"schema": 1, "kind": "amalgam",
                       "amalgam": {"kind": "cyclic", "n": 1},
                       "factors": [{"group": {"kind": "cyclic", "n": n},
                                    "injection": ["e"]} for n in (1024, 2)]})
    [(_, code, exited, out, err)] = run_in_child(
        [["amalgam", "dist", "--spec", spec, "--word", "0:g 1:g 0:g3",
          "--lengths", "regular"]], tmp_path)
    assert (code, exited, out, err) == (0, False, "4\n", "")


def free_cyclic_spec(n: int, factors: int) -> str:
    return json.dumps({"schema": 1, "kind": "amalgam",
                       "amalgam": {"kind": "cyclic", "n": 1},
                       "factors": [{"group": {"kind": "cyclic", "n": n},
                                    "injection": ["e"]}] * factors})


def test_three_factors_of_order_4096_fit_in_1_gib(tmp_path):
    # the DP builds one cost row per letter and gathers x^-1 z a chunk at a
    # time, never a (sum |G_m|)^2 table (1.12 GiB here)
    [(_, code, exited, out, err)] = run_in_child(
        [["amalgam", "dist", "--spec", free_cyclic_spec(4096, 3),
          "--word", "0:1 1:1"]], tmp_path)
    assert (code, exited, out, err) == (0, False, "2\n", "")


def test_gluing_past_the_cell_limit_fits_in_1_gib(tmp_path):
    # |D| = 4096 across 4200 factors is 17.2M cells, past GROUP_MAX_ORDER^2:
    # refused while D grows, before its last coset is allocated
    datum = json.dumps(distinct_b_descriptor(4200, 0))
    start = time.perf_counter()
    [(_, code, exited, out, err)] = run_in_child(
        [["liecheck", "--datum", datum]], tmp_path)
    assert time.perf_counter() - start < 5
    assert (code, exited, out) == (1, False, "")
    assert err.startswith("error: SizeLimit: ")


def test_running_out_of_memory_is_size_limit(tmp_path):
    # 16 factors of order 4096 hold 16 tables of 64 MiB, past 1 GiB: the
    # allocation that fails ends as one SizeLimit line, not a traceback
    start = time.perf_counter()
    [(_, code, exited, out, err)] = run_in_child(
        [["amalgam", "nf", "--spec", free_cyclic_spec(4096, 16),
          "--word", "0:1 1:1"]], tmp_path)
    assert time.perf_counter() - start < 10
    assert (code, exited, out) == (1, False, "")
    assert err.startswith("error: SizeLimit: ") and err.count("\n") == 1


def lie_datum(**fields) -> str:
    return json.dumps({"schema": 1, "kind": "lie-datum", "z": 0,
                       "factors": ["A1"], **fields})


def sl2z_targets(**fields) -> str:
    return json.dumps({**fixture("sl2z-matrices.json"), **fields})


# inputs that once ended in a traceback, a MemoryError or a hang, with the
# error that refuses them now
REFUSED = [
    (["chartable", "--group", "a" * 300], "SchemaError"),
    (["chartable", "--group", "latin1.json"], "SchemaError"),
    (["chartable", "--group", "[" * 5000], "SchemaError"),
    (["soundness", "--request", DEEP_MIXED], "SizeLimit"),
    (["chartable", "--group", json.dumps(
        {"kind": "table", "table": [[0, 2 ** 70], [1, 0]]})], "NotASubgroup"),
    (["chartable", "--group", json.dumps(
        {"kind": "semidirect", "normal": {"kind": "cyclic", "n": 3},
         "acting": {"kind": "cyclic", "n": 2},
         "action": [[0, 1, 2], [0, 2, 2 ** 70]]})], "NotAnAction"),
    (["amalgam", "eval", "--spec", "z2-free-z2.json", "--word", "0:x",
      "--targets", json.dumps({"schema": 1, "kind": "finite-targets",
                               "group": {"kind": "cyclic", "n": 2},
                               "factors": [[0, 1]]})], "SourceMismatch"),
    (["liecheck", "--datum", lie_datum(factors=["A1", None])], "SchemaError"),
    (["liecheck", "--datum", lie_datum(z=10 ** 6)], "SizeLimit"),
    (["liecheck", "--datum", lie_datum(z=2 ** 70)], "SizeLimit"),
    (["liecheck", "--datum", lie_datum(z=2, factors=["A1"] * 10)], "SizeLimit"),
    (["soundness", "--request", json.dumps(
        {"schema": 1, "kind": "torus-family", "rank": 10 ** 6,
         "factor_generators": []})], "SizeLimit"),
    (["amalgam", "eval", "--spec", "sl2z.json", "--word", "0:a",
      "--targets", sl2z_targets(modulus=0)], "SchemaError"),
    (["amalgam", "eval", "--spec", "sl2z.json", "--word", "0:a",
      "--targets", sl2z_targets(dimension=10 ** 6)], "DimensionMismatch"),
    # 3 * 4096 * 37^2 DP cells, past GROUP_MAX_ORDER^2
    (["amalgam", "dist", "--spec", free_cyclic_spec(4096, 3),
      "--word", " ".join(f"{k % 3}:1" for k in range(36))], "SizeLimit"),
]


def edited(name: str, edit) -> str:
    """A bundled fixture as JSON text, after `edit` changed it in place."""
    d = fixture(name)
    edit(d)
    return json.dumps(d)


# a field or kind no builder reads, once ignored: each changed the answer or
# was answered as if absent, with exit 0
UNREAD = [
    pytest.param(["liecheck", "--datum", edited(
        "glued-su-3-2.json", lambda d: d.update(detla=d.pop("delta")))],
        "lie-datum: unknown field 'detla'", id="detla"),
    pytest.param(["amalgam", "eval", "--spec", "sl2z.json",
                  "--word", " ".join(["0:a 1:b"] * 6),
                  "--targets", sl2z_targets(modulo=5)],
                 "targets: unknown field 'modulo'", id="modulo"),
    pytest.param(["chartable", "--group",
                  '{"kind":"cyclic","n":3,"lables":["a","b","c"],"bogus":1}'],
                 "group: unknown field 'lables'", id="lables"),
    pytest.param(["chartable", "--group",
                  '{"kind":"heisenberg","level":1,"labels":[1,2]}'],
                 "group: unknown field 'labels'", id="heisenberg-labels"),
    pytest.param(["liecheck", "--datum", lie_datum(kind="not-a-lie")],
                 "lie-datum: unknown lie-datum kind 'not-a-lie'", id="not-a-lie"),
    pytest.param(["liecheck", "--datum", edited(
        "glued-su-3-2.json", lambda d: d["delta"].update(bogus=1))],
        "lie-datum.delta: unknown field 'bogus'", id="delta-extra"),
    pytest.param(["clifford", "--spec", edited(
        "heisenberg-prefix.json", lambda d: d.update(kind="split-family"))],
        "spec: unknown normal-family kind 'split-family'", id="clifford-split"),
    pytest.param(["amalgam", "nf", "--word", "0:a", "--spec", edited(
        "sl2z.json", lambda d: d["factors"][0].update(bogus=1))],
        "amalgam.factors[0]: unknown field 'bogus'", id="factor-extra"),
]


@pytest.mark.parametrize("argv, named", UNREAD)
def test_unread_fields_and_kinds_are_refused(argv, named, capsys):
    result = run(capsys, *argv)
    assert_one_error(result, "SchemaError")
    assert result[2].startswith(f"error: SchemaError: {named}")


def test_once_fatal_inputs_are_refused(tmp_path):
    (tmp_path / "latin1.json").write_bytes(b'{"kind": "caf\xe9"}')
    results = run_in_child([argv for argv, _ in REFUSED], tmp_path)
    wrong = [(argv, code, err) for (argv, code, _, out, err), (_, kind)
             in zip(results, REFUSED)
             if (code, out) != (1, "") or not err.startswith(f"error: {kind}: ")
             or err.count("\n") != 1]
    assert wrong == []
