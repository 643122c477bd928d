"""The CLI's JSON encoder against the stdlib layout the goldens pin.

Its contract is what the CLI prints: `str` keys and no floats."""

import json
import tracemalloc

from hypothesis import given, settings
from hypothesis import strategies as st
import pytest

from bohrsound import cli, config
from bohrsound.soundness import soundness_verdict


def stdlib_json(value) -> str:
    return json.dumps(value, indent=2, sort_keys=True)


# quotes, backslashes, control characters, non-ASCII and lone surrogates
TRICKY = '"\\/\x00\x08\x1f\x7f\n\té \ud800\U0001f600'
TEXT = st.text(st.characters(codec=None, exclude_categories=())
               | st.sampled_from(TRICKY), max_size=8)
INTS = st.integers() | st.integers(min_value=2 ** 63, max_value=2 ** 200) \
    | st.integers(min_value=-2 ** 200, max_value=-2 ** 63)
SCALARS = st.none() | st.booleans() | INTS | TEXT


@st.composite
def int_blocks(draw):
    """A rectangular nest of ints, depth 1-3, of lists and tuples mixed, or
    one with a bool leaf, a ragged row or an empty inner list in its last
    row."""
    shape = draw(st.lists(st.integers(1, 4), min_size=1, max_size=3))
    defect = draw(st.sampled_from([None, None, "bool", "ragged", "empty"]))

    def build(dims, last):
        if not dims:
            return draw(st.booleans() if last and defect == "bool" else INTS)
        row = [build(dims[1:], last and i == dims[0] - 1)
               for i in range(dims[0])]
        if last and len(dims) == 1 and len(shape) > 1:
            row = {"ragged": row[:-1], "empty": []}.get(defect, row)
        return tuple(row) if draw(st.booleans()) else row

    return build(shape, True)


# rectangular int blocks, and ones spoiled by a bool leaf, a ragged row or
# an empty inner list
LEAVES = SCALARS | int_blocks() \
    | st.lists(INTS | st.booleans(), max_size=6)
VALUES = st.recursive(
    LEAVES,
    lambda inner: (st.lists(inner, max_size=5)
                   | st.lists(inner, max_size=5).map(tuple)
                   | st.dictionaries(TEXT, inner, max_size=5)),
    max_leaves=30)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(VALUES)
def test_matches_the_stdlib_layout(value):
    assert cli.pinned_json(value) == stdlib_json(value)


@settings(derandomize=True, database=None, deadline=None, max_examples=150)
@given(int_blocks())
def test_int_blocks_match_the_stdlib_layout(value):
    assert cli.pinned_json(value) == stdlib_json(value)


@pytest.mark.parametrize("value", [
    [[1, 0], [True, False]],
    [[True, 0], [1, 0]],
    [(1, 0), [True, False], (False, 0)],
    [[[1, 0], [0, 1]], [[True, 0], [0, 1]]],
])
def test_near_int_leaves_are_not_merged_with_int_rows(value):
    # equal as tuples, (1, 0) == (True, False), but not as text
    assert cli.pinned_json(value) == stdlib_json(value)


def nested_lists(depth: int) -> list:
    value = []
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("value", [
    2 ** 63 - 1, -2 ** 63, 2 ** 64 - 1, 2 ** 64, -2 ** 63 - 1,
    {"a\x7fb": 1}, {"key": "a\x7fb"}, {"\u00e9t\u00e9": 1},
    {"key": "\ud800"}, nested_lists(300), {1: "int key", 2: [2 ** 64]},
], ids=["2^63-1", "-2^63", "2^64-1", "2^64", "-2^63-1", "DEL key",
        "DEL value", "non-ASCII key", "lone surrogate", "300 deep",
        "int keys"])
def test_edges_of_the_fast_route_match_the_stdlib(value):
    # orjson refuses ints past 64 bits, lone surrogates, nesting past 255 and
    # non-str keys, and writes DEL and non-ASCII unescaped
    assert cli.pinned_json(value) == stdlib_json(value)
    assert cli.pinned_json({"k": [value]}) == stdlib_json({"k": [value]})


def test_repeated_rows_and_tuple_rows_equal_to_list_rows():
    rows = [[1, -2, 3], (1, -2, 3), [0, 0, 0], (0, 0, 0), [1, -2, 3]]
    value = {"block": rows * 3, "nested": [rows, tuple(rows)],
             "depth_one": [(7, 7), [7, 7], 7]}
    assert cli.pinned_json(value) == stdlib_json(value)


@pytest.mark.parametrize("depth", [1, 2, 3])
@pytest.mark.parametrize("indent", [0, 1, 3])
def test_blocks_nested_at_several_indents(depth, indent):
    block = [3, -1, 2 ** 70]
    for n in range(2, depth + 1):  # n copies, the last a tuple
        block = [block] * (n - 1) + [tuple(block)]
    value = block
    for level in range(indent):
        value = {f"k{level}": value, "pad": [None, value]}
    assert cli.pinned_json(value) == stdlib_json(value)


def hyperoctahedral_payload() -> dict:
    # B_5 (order 3840): the largest certificate cli-mix traffic prints, 1.99 MB
    k = 5

    def perm(p):
        return [[int(p[j] == i) for j in range(k)] for i in range(k)]

    sign = [[-1 if i == j == 0 else int(i == j) for j in range(k)]
            for i in range(k)]
    request = {"schema": 1, "kind": "torus-family", "rank": k,
               "factor_generators": [
                   [perm([(i + 1) % k for i in range(k)]),
                    perm([1, 0, 2, 3, 4])],
                   [sign]]}
    payload = soundness_verdict(request).to_json()
    assert payload["certificate"]["joint"]["order"] == 3840
    return payload


def test_hyperoctahedral_certificate_is_byte_identical():
    payload = hyperoctahedral_payload()
    assert cli.pinned_json(payload) == stdlib_json(payload)


def test_the_stdlib_writes_only_what_orjson_cannot(monkeypatch):
    payload = hyperoctahedral_payload()
    want = stdlib_json(payload)
    monkeypatch.setattr(cli.json, "dumps", None)
    assert cli.pinned_json(payload) == want


def test_hyperoctahedral_certificate_peak_memory():
    # the encoded bytes and their decoded copy
    payload = hyperoctahedral_payload()
    tracemalloc.start()
    try:
        size = len(cli.pinned_json(payload))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * size


def str_keyed(value) -> bool:
    """Whether every key in value is a `str` and no leaf is a float."""
    if isinstance(value, dict):
        return all(isinstance(k, str) and str_keyed(v)
                   for k, v in value.items())
    if isinstance(value, (list, tuple)):
        return all(map(str_keyed, value))
    return not isinstance(value, float)


CLI_CASES = [
    ("soundness", "--request", "torus-collapse.json"),
    ("soundness", "--request", "heisenberg-prefix.json"),
    ("soundness", "--request", "split-inversion.json"),
    ("soundness", "--request", "split-growing-orbit.json"),
    ("soundness", "--request", json.dumps(
        {"schema": 1, "kind": "finite-normal-family",
         "kernel": {"kind": "cyclic", "n": 2},
         "embeddings": [{"group": {"kind": "heisenberg", "level": 1},
                         "mapping": ["(0,0,0)", "(0,0,1)"]}]})),
    ("soundness", "--request", json.dumps(
        {"schema": 1, "kind": "mixed-family",
         "members": [json.loads(cli.fixture_path("split-inversion.json")
                                .read_text()),
                     {"kind": "torus-family", "rank": 2,
                      "factor_generators": [[[[0, -1], [1, 0]]]]}]})),
    ("soundness", "--request", json.dumps(
        {"schema": 1, "kind": "torus-family", "rank": 2,
         "factor_generators": [[[[0, -1], [1, 0]]], [[[-1, 0], [0, 1]]]]})),
    ("equalizer", "--spec", "a3-in-s3.json"),
    ("equalizer", "--spec", "z2-in-z4.json"),
    ("clifford", "--spec", "heisenberg-prefix.json"),
    ("chartable", "--group", '{"kind":"symmetric","n":4}'),
    ("zmat", "finiteness", "--gens", "[[[0,-1],[1,1]]]"),
    ("zmat", "finiteness", "--gens", "[[[1,1],[0,1]]]"),
    ("zmat", "orbit", "--vector", "[1,0]", "--gens", "[[[0,-1],[1,1]]]"),
    ("zmat", "orbit", "--vector", "[0,1]", "--gens", "[[[1,1],[0,1]]]",
     "--cap", "10"),
    ("zmat", "fixed", "--matrix", "[[-1,0],[0,-1]]"),
    ("amalgam", "nf", "--spec", "sl2z.json", "--word", "0:a 0:a 1:b 1:b 1:b"),
    ("amalgam", "nf", "--spec", "sl2z.json", "--word", "1:b 1:b 1:b 1:b"),
    ("amalgam", "eq", "--spec", "sl2z.json", "--word", "0:a 0:a",
     "--word2", "1:b 1:b 1:b"),
    ("amalgam", "dist", "--spec", "z2-free-z2.json", "--word", "0:x 1:y 0:x"),
    ("amalgam", "eval", "--spec", "sl2z.json", "--word", "0:a 1:b",
     "--targets", "sl2z-matrices.json"),
    ("liecheck", "--datum", "su2.json"),
    ("liecheck", "--datum", "glued-su-4-2.json"),
    ("cache", "warm", "--group", '{"kind":"cyclic","n":3}'),
    ("cache", "inspect"),
    ("cache", "clear"),
]


@pytest.mark.parametrize("argv", CLI_CASES, ids=" ".join)
def test_cli_payloads_have_str_keys(argv, monkeypatch, tmp_path, capsys):
    # pinned_json matches the stdlib only on str keys and without floats
    # (orjson writes 1e16 for 1e+16 and null for NaN), so every payload the
    # CLI prints must have neither
    monkeypatch.setenv(config.CACHE_ENV_VAR, str(tmp_path / "cache"))
    printed = []
    pinned_json = cli.pinned_json

    def recording_pinned_json(payload):
        printed.append(payload)
        return pinned_json(payload)

    monkeypatch.setattr(cli, "pinned_json", recording_pinned_json)
    assert cli.main([*argv, "--format", "json"]) in (0, 2)
    (payload,) = printed
    assert str_keyed(payload)
    assert capsys.readouterr().out == stdlib_json(payload) + "\n"
