"""Tests for descriptors, verdict dispatch, the CLI surface, and the cache."""

import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import bohrsound
from bohrsound import cache, characters, config, descriptors, groups
from bohrsound.cli import fixture_path, main
from bohrsound.descriptors import (
    amalgam_from_descriptor,
    group_from_descriptor,
    hom_from_descriptor,
    lie_datum_from_descriptor,
    parse_word,
    resolve_element,
    target_from_descriptor,
)
from bohrsound.errors import DimensionMismatch, InvariantViolation, SchemaError
from bohrsound.groups import cyclic, dihedral
from bohrsound.soundness import CRITERIA, SoundnessVerdict, soundness_verdict
from bohrsound.zmat import minkowski_bound

from oracles import glued_torus_su_datum, graph_of_rows, iso_signature

GOLDEN = Path(__file__).parent / "golden"


def fixture_json(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


@pytest.fixture()
def cli(capsys, monkeypatch, tmp_path):
    """Run the CLI in-process with an isolated cache directory."""
    monkeypatch.setenv(config.CACHE_ENV_VAR, str(tmp_path / "cache"))

    def run(*argv):
        code = main(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return run


UNPARSED = [{"kind": "semidirect", "normal": {"kind": "cyclic", "n": 5}}, []]


class TestGroupDescriptors:
    def test_cyclic(self):
        g = group_from_descriptor({"kind": "cyclic", "n": 6})
        assert g.order == 6 and g.is_abelian

    def test_symmetric(self):
        assert group_from_descriptor({"kind": "symmetric", "n": 4}).order == 24

    def test_heisenberg(self):
        g = group_from_descriptor({"kind": "heisenberg", "level": 2})
        assert g.order == 64

    def test_table(self):
        g = group_from_descriptor(
            {"kind": "table", "table": [[0, 1], [1, 0]], "labels": ["e", "t"]})
        assert g.order == 2 and g.labels == ("e", "t")

    @pytest.mark.parametrize("d, order", [
        ({"kind": "cyclic", "n": 12}, 12),
        ({"kind": "symmetric", "n": 6}, 720),
        ({"kind": "heisenberg", "level": 2}, 64),
        ({"kind": "table", "table": [[0, 1], [1, 0]]}, 2),
        ({"kind": "semidirect", "normal": {"kind": "symmetric", "n": 5},
          "acting": {"kind": "cyclic", "n": 3}, "action": [list(range(120))] * 3},
         360),
        ({"kind": "symmetric", "n": 10**9}, None),
        ({"kind": "heisenberg", "level": 9}, None),
        ({"kind": "cyclic", "n": 0}, None),
        *[(d, None) for d in UNPARSED],
    ])
    def test_descriptor_order(self, d, order):
        # descriptor_order reads the walker's output: a malformed descriptor
        # is refused before any order is read
        if d in UNPARSED:
            with pytest.raises(SchemaError):
                descriptors.parse(d, "group", "group")
            return
        assert descriptors.descriptor_order(
            descriptors.parse(d, "group", "group")) == order
        if order is not None:
            assert group_from_descriptor(d).order == order

    def test_semidirect_matches_dihedral(self):
        d = {
            "kind": "semidirect",
            "normal": {"kind": "cyclic", "n": 5},
            "acting": {"kind": "cyclic", "n": 2},
            "action": [[0, 1, 2, 3, 4], [0, 4, 3, 2, 1]],
        }
        g = group_from_descriptor(d)
        assert iso_signature(g) == iso_signature(dihedral(5))

    @pytest.mark.parametrize("bad", [
        {"kind": "mystery"},
        {"kind": "cyclic"},
        {"kind": "cyclic", "n": "six"},
        {"kind": "table", "table": []},
        {"kind": "table", "table": [[0, "x"], [1, 0]]},
        {"n": 4},
        {"kind": "table", "table": [[0, 1], [1]]},
        "not an object",
    ])
    def test_rejects_malformed(self, bad):
        with pytest.raises(SchemaError):
            group_from_descriptor(bad)

    def test_resolve_element_prefers_labels(self):
        g = cyclic(3, labels=["2", "1", "0"])
        # the label wins over the positional index
        assert resolve_element(g, "2") == 0
        assert resolve_element(g, 1) == 1

    def test_resolve_element_rejects_unknown(self):
        with pytest.raises(SchemaError):
            resolve_element(cyclic(3), "nope")

    def test_hom_descriptor_validates(self):
        z2 = cyclic(2)
        with pytest.raises(Exception):
            hom_from_descriptor(
                z2, {"group": {"kind": "cyclic", "n": 4},
                     "mapping": ["e", "g"]})  # g has order 4, not 2


class TestAmalgamDescriptors:
    def test_bundled_sl2z(self):
        spec = amalgam_from_descriptor(fixture_json("sl2z.json"))
        assert spec.h.order == 2
        assert [f.order for f in spec.factors] == [4, 6]

    def test_word_parsing(self):
        spec = amalgam_from_descriptor(fixture_json("sl2z.json"))
        assert parse_word(spec, "0:a 1:b") == ((0, 1), (1, 1))
        assert parse_word(spec, "") == ()
        assert parse_word(spec, "0:3") == ((0, 3),)

    @pytest.mark.parametrize("bad", ["0", "a:b", "2:a", "0:q", "0:a,1:b"])
    def test_word_rejects_malformed(self, bad):
        spec = amalgam_from_descriptor(fixture_json("sl2z.json"))
        with pytest.raises(SchemaError):
            parse_word(spec, bad)

    def test_matrix_targets(self):
        spec = amalgam_from_descriptor(fixture_json("sl2z.json"))
        target = target_from_descriptor(spec, fixture_json("sl2z-matrices.json"))
        assert target.image(0, 1) == ((0, -1), (1, 0))
        assert target.image(1, 3) == ((-1, 0), (0, -1))

    def test_finite_targets(self):
        spec = amalgam_from_descriptor(fixture_json("z2-free-z2.json"))
        d = {"schema": 1, "kind": "finite-targets",
             "group": {"kind": "cyclic", "n": 2},
             "factors": [["e", "g"], ["e", "g"]]}
        target = target_from_descriptor(spec, d)
        assert target.image(0, 1) == 1

    def test_torus_targets(self):
        spec = amalgam_from_descriptor(fixture_json("z2-free-z2.json"))
        d = {"schema": 1, "kind": "torus-semidirect-targets", "rank": 1,
             "factors": [
                 [{"torus": [[0, 1]], "matrix": [[1]]},
                  {"torus": [[1, 2]], "matrix": [[-1]]}],
                 [{"torus": [[0, 1]], "matrix": [[1]]},
                  {"torus": [[0, 1]], "matrix": [[-1]]}],
             ]}
        target = target_from_descriptor(spec, d)
        point, matrix = target.image(0, 1)
        assert matrix == ((-1,),)

    @pytest.mark.parametrize("torus,matrix", [
        ([[1, 2], [0, 1]], [[1]]),  # a rank-2 point was cut to one coordinate
        ([[1, 2]], [[1, 0], [0, 1]]),
    ])
    def test_torus_targets_of_wrong_rank(self, torus, matrix):
        spec = amalgam_from_descriptor(fixture_json("z2-free-z2.json"))
        entry = {"torus": torus, "matrix": matrix}
        d = {"schema": 1, "kind": "torus-semidirect-targets", "rank": 1,
             "factors": [[entry, entry], [entry, entry]]}
        with pytest.raises(DimensionMismatch):
            target_from_descriptor(spec, d)

    def test_torus_target_factors_must_be_arrays(self):
        spec = amalgam_from_descriptor(fixture_json("z2-free-z2.json"))
        with pytest.raises(SchemaError):
            target_from_descriptor(spec, {
                "schema": 1, "kind": "torus-semidirect-targets", "rank": 1,
                "factors": [1, 2]})

    def test_unknown_target_kind(self):
        spec = amalgam_from_descriptor(fixture_json("z2-free-z2.json"))
        with pytest.raises(SchemaError):
            target_from_descriptor(spec, {"schema": 1, "kind": "nope"})


class TestLieDescriptors:
    @pytest.mark.parametrize("k,l", [(3, 2), (4, 2), (4, 3)])
    def test_glued_fixture_matches_builder(self, k, l):
        datum = lie_datum_from_descriptor(fixture_json(f"glued-su-{k}-{l}.json"))
        built = glued_torus_su_datum(k, l)
        assert datum.denominator == built.denominator
        assert graph_of_rows(datum) == graph_of_rows(built)
        assert datum.factors == built.factors

    def test_missing_delta_means_trivial(self):
        datum = lie_datum_from_descriptor(
            {"schema": 1, "kind": "lie-datum", "z": 0, "factors": ["A1"]})
        assert len(datum.elements) == 1

    def test_rejects_mismatched_generator_counts(self):
        with pytest.raises(SchemaError):
            lie_datum_from_descriptor({
                "schema": 1, "kind": "lie-datum", "z": 1, "factors": ["A1"],
                "delta": {"simple_part_generators": [[1]], "phi_images": []},
            })


class TestSoundnessDispatch:
    def test_torus_collapse_unsound(self):
        verdict = soundness_verdict(fixture_json("torus-collapse.json"))
        assert verdict.verdict == "Unsound"
        assert verdict.criterion in CRITERIA
        joint = verdict.certificate["joint"]
        assert not joint["finite"]
        assert joint["witness_count"] > minkowski_bound(2)

    def test_single_torus_factor_sound(self):
        verdict = soundness_verdict({
            "schema": 1, "kind": "torus-family", "rank": 2,
            "factor_generators": [[[[0, -1], [1, 0]]]],
        })
        assert verdict.verdict == "Sound"
        assert verdict.criterion == "torus-joint-action-finite"
        assert verdict.certificate["joint"]["order"] == 4
        assert len(verdict.certificate["joint"]["elements"]) == 4

    def test_finite_normal_family_sound(self):
        verdict = soundness_verdict({
            "schema": 1, "kind": "finite-normal-family",
            "kernel": {"kind": "cyclic", "n": 2},
            "embeddings": [
                {"group": {"kind": "heisenberg", "level": 1},
                 "mapping": ["(0,0,0)", "(0,0,1)"]},
            ],
        })
        assert verdict.verdict == "Sound"
        assert verdict.criterion == "compact-automorphism-group"
        reports = verdict.certificate["reports"]
        assert [r["sup_multiplicity"] for r in reports] == [1, 2]

    def test_prefix_family_unknown_with_growth(self):
        verdict = soundness_verdict(fixture_json("heisenberg-prefix.json"))
        assert verdict.verdict == "UnknownPrefixOnly"
        assert verdict.criterion is None
        assert verdict.exit_code == 2
        cert = verdict.certificate
        assert cert["multiplicity_sequences"]["1"] == [2, 4, 8]
        assert cert["growing_classes"] == [1]
        assert cert["growth_flag"] is True

    def test_split_family_sound(self):
        verdict = soundness_verdict(fixture_json("split-inversion.json"))
        assert verdict.verdict == "Sound"
        assert verdict.criterion == "split-family"
        assert verdict.certificate == {"kernel_order": 2, "kind": "split",
                                       "member_orders": [3, 3]}

    def test_mixed_propagates_unsound_member(self):
        request = {
            "schema": 1, "kind": "mixed-family",
            "members": [
                fixture_json("split-inversion.json"),
                fixture_json("torus-collapse.json"),
            ],
        }
        verdict = soundness_verdict(request)
        assert verdict.verdict == "Unsound"
        assert verdict.criterion == "torus-joint-action-infinite"
        assert verdict.certificate["deciding_member"] == 1

    def test_mixed_torus_members_decided_jointly(self):
        # each factor alone is finite, the mixture is not
        member = {"kind": "torus-family", "rank": 2,
                  "factor_generators": [[[[0, -1], [1, 0]]]]}
        other = {"kind": "torus-family", "rank": 2,
                 "factor_generators": [[[[0, -1], [1, 1]]]]}
        verdict = soundness_verdict({
            "schema": 1, "kind": "mixed-family", "members": [member, other]})
        assert verdict.verdict == "Unsound"
        assert verdict.certificate["joint_decision_over_members"] == 2

    def test_mixed_torus_members_jointly_finite(self):
        member = {"kind": "torus-family", "rank": 2,
                  "factor_generators": [[[[0, -1], [1, 0]]]]}
        other = {"kind": "torus-family", "rank": 2,
                 "factor_generators": [[[[-1, 0], [0, -1]]]]}
        verdict = soundness_verdict({
            "schema": 1, "kind": "mixed-family", "members": [member, other]})
        assert verdict.verdict == "Sound"
        assert verdict.criterion == "torus-joint-action-finite"

    def test_mixed_heterogeneous_stays_open(self):
        request = {
            "schema": 1, "kind": "mixed-family",
            "members": [
                fixture_json("split-inversion.json"),
                {"kind": "torus-family", "rank": 2,
                 "factor_generators": [[[[0, -1], [1, 0]]]]},
            ],
        }
        verdict = soundness_verdict(request)
        assert (verdict.verdict, verdict.exit_code) == ("UnknownMixture", 2)
        assert [m["verdict"] for m in verdict.certificate["members"]] == \
            ["Sound", "Sound"]

    @pytest.mark.parametrize("bad", [
        {"schema": 1, "kind": "nope"},
        {"schema": 2, "kind": "torus-family"},
        {"kind": "torus-family"},
        {"schema": 1, "kind": "mixed-family", "members": []},
        {"schema": 1, "kind": "torus-family", "rank": 2,
         "factor_generators": "x"},
    ])
    def test_rejects_malformed_requests(self, bad):
        with pytest.raises(SchemaError):
            soundness_verdict(bad)


@pytest.mark.invariant
class TestVerdictInvariants:
    def test_decided_verdict_needs_known_criterion(self):
        with pytest.raises(InvariantViolation):
            SoundnessVerdict("Sound", "no-such-criterion", {})
        with pytest.raises(InvariantViolation):
            SoundnessVerdict("Unsound", None, {})

    def test_undecided_verdict_names_no_criterion(self):
        with pytest.raises(InvariantViolation):
            SoundnessVerdict("UnknownPrefixOnly", "split-family", {})
        assert SoundnessVerdict("UnknownPrefixOnly", None, {}).exit_code == 2


class TestGoldenCertificates:
    @pytest.mark.parametrize("argv,golden", [
        (("soundness", "--request", "torus-collapse.json"),
         "torus-collapse.verdict.json"),
        (("soundness", "--request", "heisenberg-prefix.json"),
         "heisenberg-prefix.verdict.json"),
        (("soundness", "--request", "split-inversion.json"),
         "split-inversion.verdict.json"),
        (("soundness", "--request", "split-growing-orbit.json"),
         "split-growing-orbit.verdict.json"),
        (("equalizer", "--spec", "a3-in-s3.json"), "a3-in-s3.witness.json"),
        (("equalizer", "--spec", "z2-in-z4.json"), "z2-in-z4.witness.json"),
        (("liecheck", "--datum", "glued-su-3-2.json"),
         "glued-su-3-2.report.json"),
        (("liecheck", "--datum", "bare-t2.json"), "bare-t2.report.json"),
        # S5 computed at its own prime 241 and transported to a prime near
        # 2**31, where _matmul_mod splits its operands into limbs
        (("chartable", "--group", '{"kind":"symmetric","n":5}',
          "--prime", "2000000641"), "s5-p2000000641.table.json"),
        # Z3 in Z3:Z2, Z3:Z4 and Z6: the class [1, 2] has size 2
        (("clifford", "--spec", "normal-z3.json"), "normal-z3.clifford.json"),
        # the center of Z4:Z2, where per_member reaches 2, and Z2 in Z4
        (("clifford", "--spec", "normal-z2-central.json"),
         "normal-z2-central.clifford.json"),
        (("soundness", "--request", "normal-z2-central.json"),
         "normal-z2-central.verdict.json"),
        # no members: every sup_multiplicity is null
        (("clifford", "--spec", "normal-empty.json"), "normal-empty.clifford.json"),
        (("soundness", "--request", "normal-empty.json"),
         "normal-empty.verdict.json"),
        # eleven members: per_member's keys sort as strings, "10" before "2"
        (("clifford", "--spec", "normal-z2-eleven.json"),
         "normal-z2-eleven.clifford.json"),
    ])
    def test_json_output_is_pinned(self, cli, argv, golden):
        code, out, _ = cli(*argv, "--format", "json")
        assert code in (0, 2)
        assert out == (GOLDEN / golden).read_text()

    def test_text_output_is_pinned(self, cli):
        code, out, _ = cli("soundness", "--request", "torus-collapse.json")
        assert code == 0
        assert out == (GOLDEN / "torus-collapse.verdict.txt").read_text()

    def test_clifford_text_output_is_pinned(self, cli):
        # the text lists per_member in member order, "2" before "10"
        code, out, _ = cli("clifford", "--spec", "normal-z2-eleven.json")
        assert code == 0
        assert out == (GOLDEN / "normal-z2-eleven.clifford.txt").read_text()


_GLUED = fixture_json("glued-su-3-2.json")
_TARGETS = {"schema": 1, "kind": "matrix-targets", "dimension": 1,
            "factors": [[[[1]], [[-1]]], [[[1]], [[-1]]]]}


class TestBooleansAreNotIntegers:
    """JSON true and false are Python bools, which are ints: every field
    that wants an integer refuses them, with exit 1 and a SchemaError."""

    @pytest.mark.parametrize("argv", [
        ("chartable", "--group", '{"kind":"cyclic","n":true}'),
        ("chartable", "--group", '{"kind":"symmetric","n":true}'),
        ("chartable", "--group", '{"kind":"heisenberg","level":true}'),
        ("chartable", "--group", '{"kind":"table","table":[[false]]}'),
        ("soundness", "--request", '{"schema":true,"kind":"torus-family",'
                                   '"rank":1,"factor_generators":[]}'),
        ("soundness", "--request", '{"schema":1,"kind":"torus-family",'
                                   '"rank":true,"factor_generators":[]}'),
        ("zmat", "finiteness", "--gens", "[[[true,false],[false,true]]]"),
        ("zmat", "orbit", "--vector", "[true,0]", "--gens", "[[[1,0],[0,1]]]"),
        ("liecheck", "--datum", json.dumps({**_GLUED, "z": True})),
        ("liecheck", "--datum", json.dumps({**_GLUED, "delta": {
            **_GLUED["delta"], "simple_part_generators": [[True, 0], [0, 1]]}})),
        ("amalgam", "eval", "--spec", "z2-free-z2.json", "--word", "0:x",
         "--targets", json.dumps({**_TARGETS, "dimension": True})),
        ("amalgam", "eval", "--spec", "z2-free-z2.json", "--word", "0:x",
         "--targets", json.dumps({**_TARGETS, "modulus": True})),
    ])
    def test_boolean_is_schema_error(self, cli, argv):
        code, out, err = cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith("error: SchemaError:")

    def test_integer_targets_still_evaluate(self, cli):
        code, out, _ = cli("amalgam", "eval", "--spec", "z2-free-z2.json",
                           "--word", "0:x", "--targets", json.dumps(_TARGETS))
        assert (code, out) == (0, "[-1]\n")


def _repeated_label_spec() -> str:
    return json.dumps({
        "schema": 1, "kind": "amalgam", "amalgam": {"kind": "cyclic", "n": 1},
        "factors": [
            {"group": {"kind": "cyclic", "n": 2, "labels": ["x", "x"]}, "injection": [0]},
            {"group": {"kind": "cyclic", "n": 2}, "injection": [0]}]})


class TestLabelsAreDistinctStrings:
    """Elements resolve by label, so a repeated label would name two
    elements (a word printed back would rename one), and a label that is no
    string names none: both are refused with exit 1 and a SchemaError that
    names the field's path."""

    @pytest.mark.parametrize("argv, path", [
        (("amalgam", "nf", "--spec", _repeated_label_spec(), "--word", "0:1 1:g 0:1"),
         "amalgam.factors[0].group.labels"),
        (("chartable", "--group", '{"kind":"cyclic","n":3,"labels":[1,[2],"c"]}'),
         "group.labels"),
        (("chartable", "--group", '{"kind":"cyclic","n":2,"labels":["e",true]}'),
         "group.labels"),
        (("chartable", "--group",
          '{"kind":"table","table":[[0,1],[1,0]],"labels":["t","t"]}'), "group.labels"),
        (("chartable", "--group",
          '{"kind":"semidirect","normal":{"kind":"cyclic","n":3,"labels":["a","b","a"]},'
          '"acting":{"kind":"cyclic","n":1},"action":[[0,1,2]]}'), "group.normal.labels"),
    ])
    def test_refused(self, cli, argv, path):
        code, out, err = cli(*argv)
        assert (code, out) == (1, "")
        assert err.startswith(f"error: SchemaError: {path}:")

    def test_distinct_labels_still_resolve(self, cli):
        spec = json.loads(_repeated_label_spec())
        spec["factors"][0]["group"]["labels"] = ["e", "x"]
        code, out, _ = cli("amalgam", "nf", "--spec", json.dumps(spec),
                           "--word", "0:1 1:g 0:1")
        assert (code, out) == (0, "0:x 1:g 0:x\n")


class TestCliExitCodes:
    def test_decided_is_zero(self, cli):
        code, _, _ = cli("soundness", "--request", "torus-collapse.json")
        assert code == 0

    def test_prefix_is_two(self, cli):
        code, out, _ = cli("soundness", "--request", "heisenberg-prefix.json")
        assert code == 2
        assert "UnknownPrefixOnly" in out

    @pytest.mark.parametrize("argv", [
        ("soundness", "--request", "missing-file.json"),
        ("soundness", "--request", '{"schema":9,"kind":"torus-family"}'),
        ("equalizer", "--spec",
         '{"schema":1,"kind":"subgroup-embedding",'
         '"ambient":{"kind":"cyclic","n":4},'
         '"subgroup":{"kind":"cyclic","n":4},'
         '"mapping":["e","g","g2","g3"]}'),
        ("amalgam", "nf", "--spec", "sl2z.json", "--word", "0:zzz"),
        ("amalgam", "dist", "--spec", "sl2z.json", "--word", "0:a"),
        ("zmat", "finiteness", "--gens", "[]"),
        ("chartable", "--group", '{"kind":"cyclic"}'),
    ])
    def test_input_errors_are_one(self, cli, argv):
        code, _, err = cli(*argv)
        assert code == 1
        assert "error:" in err

    @pytest.mark.parametrize("prime", ["9", "25", "2147483659"])
    def test_inadmissible_prime_is_one(self, cli, prime):
        # 9 and 25 are composite; 2147483659 is a prime past the exact range
        for cached in ((), ("--no-cache",)):
            code, out, err = cli("chartable", "--group",
                                 '{"kind":"cyclic","n":2}', "--prime", prime,
                                 *cached)
            assert code == 1
            assert out == ""
            assert err.startswith("error: PrimeSearchFailure:")
            assert err.count("\n") == 1

    def test_planted_entry_at_inadmissible_prime(self, cli, tmp_path):
        # the prime is refused before the cache is read, as with --no-cache
        argv = ("chartable", "--group", '{"kind":"cyclic","n":2}')
        assert cli(*argv, "--prime", "5")[0] == 0
        entry = next((tmp_path / "cache").glob("*-p5.json"))
        data = json.loads(entry.read_text())
        # orthogonal mod 9: row products 2, 0, 2 against 2 = |G| on the diagonal
        data.update(prime=9, values=[[1, 1], [1, 8]])
        entry.with_name(entry.name.replace("-p5.", "-p9.")).write_text(json.dumps(data))
        for cached in ((), ("--no-cache",)):
            code, out, err = cli(*argv, "--prime", "9", *cached)
            assert code == 1
            assert out == ""
            assert err.startswith("error: PrimeSearchFailure:")

    @pytest.mark.parametrize("group", [
        {"kind": "cyclic", "n": 100000},
        {"kind": "semidirect", "normal": {"kind": "cyclic", "n": 4096},
         "acting": {"kind": "cyclic", "n": 2},
         "action": [list(range(4096)), [-x % 4096 for x in range(4096)]]},
    ])
    def test_oversized_group_is_size_limit(self, tmp_path, group):
        # a child under a 1 GiB address-space limit, so that an allocation
        # made before the check fails there instead of taking the host's memory
        env = dict(os.environ, PYTHONPATH=str(Path(bohrsound.__file__).parents[1]),
                   OPENBLAS_NUM_THREADS="1",
                   **{config.CACHE_ENV_VAR: str(tmp_path / "cache")})
        proc = subprocess.run(
            [sys.executable, "-m", "bohrsound.cli", "chartable", "--no-cache",
             "--group", json.dumps(group)],
            capture_output=True, text=True, timeout=120, env=env,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS,
                                                  (1 << 30, 1 << 30)))
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith("error: SizeLimit:")
        assert proc.stderr.count("\n") == 1

    @pytest.mark.parametrize("builder, group", [
        ("heisenberg", '{"kind":"heisenberg","level":4}'),
        ("cyclic", '{"kind":"cyclic","n":4096}'),
        pytest.param("cyclic", json.dumps({  # Z2048 x| Z2, inversion: 4096
            "kind": "semidirect", "normal": {"kind": "cyclic", "n": 2048},
            "acting": {"kind": "cyclic", "n": 2},
            "action": [list(range(2048)), [-x % 2048 for x in range(2048)]]}),
            id="semidirect"),
        pytest.param("group_from_table",  # the row count is the order
                     json.dumps({"kind": "table", "table": [[0]] * 1025}), id="table"),
    ])
    @pytest.mark.parametrize("command", [
        ("chartable", "--group"),
        ("cache", "warm", "--group", '{"kind":"symmetric","n":3}', "--group"),
    ], ids=["chartable", "warm"])
    def test_table_order_refused_before_building(self, cli, monkeypatch,
                                                 tmp_path, builder, group,
                                                 command):
        # the descriptor gives an order past CHARTABLE_MAX_ORDER = 1024
        built = []
        real = getattr(groups, builder)
        monkeypatch.setattr(descriptors, builder,
                            lambda n, **kw: built.append(n) or real(n, **kw))
        code, out, err = cli(*command, group)
        assert (code, out) == (1, "")
        assert err.startswith("error: SizeLimit:")
        assert err.count("\n") == 1
        assert built == []
        assert not (tmp_path / "cache").exists()

    @pytest.mark.parametrize("command", ["equalizer", "clifford", "soundness"])
    @pytest.mark.parametrize("where", ["ambient", "kernel"])
    def test_member_order_refused_before_building(self, cli, monkeypatch,
                                                  tmp_path, command, where):
        # a heisenberg level-4 ambient group, member or subgroup: 4096 elements
        built = []
        monkeypatch.setattr(descriptors, "heisenberg",
                            lambda n: built.append(n) or groups.heisenberg(n))
        big, small = {"kind": "heisenberg", "level": 4}, {"kind": "cyclic", "n": 2}
        if where == "kernel":
            big, small = small, big
        mapping = ["(0,0,0)", "(0,0,1)"]
        if command == "equalizer":
            spec = {"kind": "subgroup-embedding", "subgroup": small,
                    "ambient": big, "mapping": mapping}
        else:
            spec = {"kind": "finite-normal-family", "kernel": small,
                    "embeddings": [{"group": big, "mapping": mapping}]}
        option = "--request" if command == "soundness" else "--spec"
        code, out, err = cli(command, option, json.dumps({"schema": 1, **spec}))
        assert (code, out) == (1, "")
        assert err.startswith("error: SizeLimit:")
        assert err.count("\n") == 1
        assert built == []
        assert not (tmp_path / "cache").exists()

    def test_closed_stdout_exits_without_traceback(self, tmp_path):
        # 170 kB of JSON: more than a pipe buffer, so writing outlives the reader
        env = dict(os.environ, PYTHONPATH=str(Path(bohrsound.__file__).parents[1]),
                   **{config.CACHE_ENV_VAR: str(tmp_path / "cache")})
        proc = subprocess.Popen(
            [sys.executable, "-m", "bohrsound.cli", "chartable", "--no-cache",
             "--group", '{"kind":"cyclic","n":128}', "--format", "json"],
            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
        head = proc.stdout.read(200)
        proc.stdout.close()
        err = proc.stderr.read().decode()
        proc.stderr.close()
        assert proc.wait(timeout=60) == 1
        assert head.startswith(b"{")
        assert err == ""

    @pytest.mark.parametrize("command,pairs", [
        ("liecheck", [[1, 0]]),
        ("eval", [[1, 0]]),
        ("eval", [[1]]),
        ("eval", [["a", "b"]]),
    ])
    def test_malformed_torus_pair_is_schema_error(self, cli, command, pairs):
        if command == "liecheck":
            datum = {"schema": 1, "kind": "lie-datum", "z": 1, "factors": ["A1"],
                     "delta": {"simple_part_generators": [[1]],
                               "phi_images": [pairs]}}
            argv = ("liecheck", "--datum", json.dumps(datum))
        else:
            entry = {"torus": pairs, "matrix": [[1]]}
            targets = {"schema": 1, "kind": "torus-semidirect-targets",
                       "rank": 1, "factors": [[entry, entry], [entry, entry]]}
            argv = ("amalgam", "eval", "--spec", "z2-free-z2.json",
                    "--targets", json.dumps(targets), "--word", "0:x")
        code, out, err = cli(*argv)
        assert code == 1
        assert out == ""
        assert err.startswith("error: SchemaError:")
        assert err.count("\n") == 1

    def test_ragged_table_is_schema_error(self, cli):
        code, out, err = cli("chartable", "--group",
                             '{"kind":"table","table":[[0,1],[1]]}')
        assert code == 1
        assert out == ""
        assert err.startswith("error: SchemaError:")
        assert err.count("\n") == 1


class TestCliCommands:
    def test_nf_identity(self, cli):
        code, out, _ = cli("amalgam", "nf", "--spec", "sl2z.json",
                           "--word", "0:a 0:a 1:b 1:b 1:b")
        assert code == 0
        assert out.strip() == "identity"

    def test_nf_nontrivial(self, cli):
        code, out, _ = cli("amalgam", "nf", "--spec", "sl2z.json",
                           "--word", "1:b 1:b 1:b 1:b")
        assert code == 0
        assert out.strip() == "0:a2 1:b"

    def test_eq(self, cli):
        code, out, _ = cli("amalgam", "eq", "--spec", "sl2z.json",
                           "--word", "0:a 0:a", "--word2", "1:b 1:b 1:b")
        assert code == 0 and out.strip() == "equal"
        code, out, _ = cli("amalgam", "eq", "--spec", "sl2z.json",
                           "--word", "0:a", "--word2", "1:b")
        assert code == 0 and out.strip() == "distinct"

    def test_dist_free_product(self, cli):
        code, out, _ = cli("amalgam", "dist", "--spec", "z2-free-z2.json",
                           "--word", "0:x 1:y 0:x")
        assert code == 0
        assert out.strip() == "1"

    def test_dist_json_pair(self, cli):
        code, out, _ = cli("amalgam", "dist", "--spec", "z2-free-z2.json",
                           "--word", "0:x 1:y 0:x", "--word2", "0:x",
                           "--format", "json")
        assert code == 0
        assert json.loads(out)["distance"] == {"num": 2, "den": 1}

    def test_eval_matrix(self, cli):
        code, out, _ = cli("amalgam", "eval", "--spec", "sl2z.json",
                           "--word", "0:a 1:b", "--targets",
                           "sl2z-matrices.json", "--format", "json")
        assert code == 0
        assert json.loads(out)["matrix"] == [[-1, -1], [0, -1]]

    def test_eval_finite_targets(self, cli):
        # a -> 3 and b -> 2 in Z12 agree on the amalgam: a2 and b3 both go
        # to 6; a b -> 5, printed with its label
        targets = json.dumps({
            "schema": 1, "kind": "finite-targets",
            "group": {"kind": "cyclic", "n": 12,
                      "labels": [f"t{i}" for i in range(12)]},
            "factors": [["t0", "t3", "t6", "t9"], [0, 2, 4, 6, 8, 10]]})
        argv = ("amalgam", "eval", "--spec", "sl2z.json", "--word", "0:a 1:b",
                "--targets", targets, "--format")
        code, out, err = cli(*argv, "json")
        assert (code, err) == (0, "")
        assert json.loads(out) == {"element": 5, "label": "t5"}
        assert cli(*argv, "text") == (0, "t5\n", "")

    def test_eval_torus_pinned(self, cli):
        # rank 2, non-diagonal matrices, coordinates given unreduced; the
        # printed point is reduced into [0, 1), a zero coordinate as 0 or [0, 1]
        entries = [{"torus": [[1, 3], [-1, 3]], "matrix": [[0, 1], [1, 0]]},
                   {"torus": [[5, -4], [1, 8]], "matrix": [[-1, 0], [1, 1]]}]
        one = {"torus": [[0, 1], [0, 1]], "matrix": [[1, 0], [0, 1]]}
        targets = json.dumps({"schema": 1, "kind": "torus-semidirect-targets",
                              "rank": 2, "factors": [[one, e] for e in entries]})
        argv = ("amalgam", "eval", "--spec", "z2-free-z2.json", "--targets",
                targets, "--word", "0:x 1:y 0:x 1:y 0:x", "--format")
        assert cli(*argv, "text") == (
            0, "torus: ['0', '23/24']\nmatrix: [[1, 0], [-1, -1]]\n", "")
        code, out, _ = cli(*argv, "json")
        assert code == 0
        assert out == ('{\n  "matrix": [\n    [\n      1,\n      0\n    ],\n'
                       '    [\n      -1,\n      -1\n    ]\n  ],\n'
                       '  "torus": [\n    [\n      0,\n      1\n    ],\n'
                       '    [\n      23,\n      24\n    ]\n  ]\n}\n')

    def test_zmat_finiteness(self, cli):
        code, out, _ = cli("zmat", "finiteness", "--gens",
                           "[[[0,-1],[1,1]]]", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["finite"] is True and data["order"] == 6
        assert len(data["elements"]) == 6

    def test_zmat_orbit(self, cli):
        code, out, _ = cli("zmat", "orbit", "--vector", "[1,0]",
                           "--gens", "[[[0,-1],[1,1]]]", "--format", "json")
        assert code == 0
        assert json.loads(out)["size"] == 6

    def test_zmat_orbit_cap(self, cli):
        code, out, _ = cli("zmat", "orbit", "--vector", "[0,1]",
                           "--gens", "[[[1,1],[0,1]]]", "--cap", "10",
                           "--format", "json")
        # a unipotent orbit grows without end, but past the cap only the
        # cap is known: undecided, exit 2
        assert code == 2
        assert json.loads(out) == {"cap": 10, "capped": True}

    def test_zmat_fixed(self, cli):
        code, out, _ = cli("zmat", "fixed", "--matrix", "[[-1,0],[0,-1]]",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["torsion"] == [2, 2] and data["finite_order"] == 4

    def test_liecheck_su2(self, cli):
        code, out, _ = cli("liecheck", "--datum", "su2.json",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["aut_compact"] is True
        assert data["center"] == {"torus_dimension": 0, "finite_part": [2]}

    def test_liecheck_glued_certificate(self, cli):
        code, out, _ = cli("liecheck", "--datum", "glued-su-4-2.json",
                           "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["has_largest_compact"] is True
        assert data["verdict"]["glued_order"] == 3 ** 5
        sizes = [p[2] for p in data["verdict"]["fixed_profiles"]
                 if p[2] is not None]
        assert sizes and max(sizes) <= 4

    def test_clifford_command(self, cli):
        code, out, _ = cli("clifford", "--spec",
                           "heisenberg-prefix.json", "--format", "json")
        assert code == 0
        data = json.loads(out)
        assert data["member_orders"] == [8, 64, 512]

    def test_equalizer_computes_the_ambient_table_once(self, cli, monkeypatch):
        orders = []
        table = characters.character_table

        def counting_table(group, prime=None):
            orders.append(group.order)
            return table(group, prime=prime)

        for module in (characters, bohrsound.cli, cache):
            monkeypatch.setattr(module, "character_table", counting_table)
        for cached in (("--no-cache",), ()):  # then a cold cache
            orders.clear()
            code, out, _ = cli("equalizer", "--spec", "a3-in-s3.json",
                               "--format", "json", *cached)
            assert code == 0
            assert out == (GOLDEN / "a3-in-s3.witness.json").read_text()
            assert orders.count(6) == 1  # S3; A3 is the subgroup


VERDICT_CALLS = [
    (("soundness", "--request", "heisenberg-prefix.json"),
     "heisenberg-prefix.verdict.json", 2),
    (("clifford", "--spec", "heisenberg-prefix.json"), None, 0),
    (("equalizer", "--spec", "a3-in-s3.json"), "a3-in-s3.witness.json", 0),
    (("equalizer", "--spec", "z2-in-z4.json"), "z2-in-z4.witness.json", 0),
]


class TestVerdictCache:
    """soundness, clifford and equalizer read and write the table cache."""

    @pytest.mark.parametrize("fmt", ["json", "text"])
    @pytest.mark.parametrize("argv,golden,code", VERDICT_CALLS, ids=[
        "soundness-heisenberg", "clifford-heisenberg", "equalizer-a3-in-s3",
        "equalizer-z2-in-z4"])
    def test_no_cache_cold_and_warm_agree(self, cli, tmp_path, argv, golden,
                                          code, fmt):
        base = tmp_path / "cache"
        bare = cli(*argv, "--format", fmt, "--no-cache")
        assert not base.exists()
        cold = cli(*argv, "--format", fmt)
        entries = {p.name: p.read_bytes() for p in base.iterdir()}
        assert entries  # the cached run stored its tables
        warm = cli(*argv, "--format", fmt)
        again = cli(*argv, "--format", fmt, "--no-cache")
        assert bare == cold == warm == again
        assert bare[0] == code and bare[2] == ""
        if golden and fmt == "json":
            assert bare[1] == (GOLDEN / golden).read_text()
        assert {p.name: p.read_bytes() for p in base.iterdir()} == entries

    def test_warm_verdict_computes_no_table(self, cli, monkeypatch):
        argv = ("soundness", "--request", "heisenberg-prefix.json")
        cold = cli(*argv)

        def refuse(group, prime=None):
            raise AssertionError(f"table of {group.name} computed")

        for module in (characters, bohrsound.cli, cache):
            monkeypatch.setattr(module, "character_table", refuse)
        assert cli(*argv) == cold

    def test_warmed_groups_serve_every_member_table(self, cli, monkeypatch):
        # each table is keyed by its group's own prime, which `cache warm`
        # and `chartable` use, and the kernel's table is transported to the
        # members' primes, so the family request computes no table
        groups = ['{"kind":"cyclic","n":2}'] + [
            f'{{"kind":"heisenberg","level":{lv}}}' for lv in (1, 2, 3)]
        assert cli("cache", "warm", *(a for g in groups for a in ("--group", g)))[0] == 0
        computed = []
        table = characters.character_table

        def record(group, prime=None):
            computed.append(group.order)
            return table(group, prime=prime)

        monkeypatch.setattr(cache, "character_table", record)
        code, out, err = cli("soundness", "--request", "heisenberg-prefix.json",
                             "--format", "json")
        assert (code, err) == (2, "")
        assert out == (GOLDEN / "heisenberg-prefix.verdict.json").read_text()
        assert computed == []

    def test_planted_stale_entry_is_recomputed(self, cli, tmp_path):
        h8 = group_from_descriptor({"kind": "heisenberg", "level": 3})
        good = characters.character_table(h8, prime=1153).serialize()
        bad = json.loads(json.dumps(good))
        bad["values"][5][3] = (bad["values"][5][3] + 1) % 1153
        base = tmp_path / "cache"
        base.mkdir()
        entry = base / f"{h8.table_digest}-p1153.json"
        entry.write_text(json.dumps(bad))
        assert cache.load_table(h8, 1153) is None
        code, out, err = cli("soundness", "--request", "heisenberg-prefix.json",
                             "--format", "json")
        assert code == 2 and err == ""
        assert out == (GOLDEN / "heisenberg-prefix.verdict.json").read_text()
        assert json.loads(entry.read_text()) == good


class TestOwnPrimeFamily:
    """Z2 into cyclic members of orders 6 ... 58: every table at its own
    prime, though no prime = 1 mod the lcm of their exponents lies below
    PRIME_SEARCH_LIMIT."""

    REQUEST = {"schema": 1, "kind": "finite-normal-family",
               "kernel": {"kind": "cyclic", "n": 2},
               "embeddings": [{"group": {"kind": "cyclic", "n": n}, "mapping": [0, n // 2]}
                              for n in (6, 10, 14, 22, 26, 34, 38, 46, 58)]}

    def check(self, verdict: dict):
        assert (verdict["verdict"], verdict["criterion"]) == (
            "Sound", "compact-automorphism-group")
        assert [r["per_member"] for r in verdict["certificate"]["reports"]] == [
            {str(i): 1 for i in range(9)}] * 2

    def test_library(self):
        self.check(soundness_verdict(self.REQUEST).to_json())

    def test_cli(self, cli):
        code, out, err = cli("soundness", "--request", json.dumps(self.REQUEST),
                             "--format", "json")
        assert (code, err) == (0, "")
        self.check(json.loads(out))


class TestTableProvider:
    """The `table` argument of the library's verdict functions."""

    @staticmethod
    def counting(seen):
        table = characters.character_table

        def provider(group, prime=None):
            seen.append(group.order)
            return table(group, prime=prime)

        return provider

    def test_default_is_looked_up_when_called(self, monkeypatch):
        seen = []
        monkeypatch.setattr(characters, "character_table", self.counting(seen))
        soundness_verdict(fixture_json("heisenberg-prefix.json"))
        spec = fixture_json("a3-in-s3.json")
        emb = hom_from_descriptor(group_from_descriptor(spec["subgroup"]), {
            "group": spec["ambient"], "mapping": spec["mapping"]})
        characters.equalizer_witness(emb)
        # Z2 and each member; S3, A3
        assert seen == [2, 8, 64, 512, 6, 3]

    def test_given_provider_serves_every_table(self):
        seen = []
        request = fixture_json("heisenberg-prefix.json")
        got = soundness_verdict(request, table=self.counting(seen))
        assert sorted(seen) == [2, 8, 64, 512]
        assert got.to_json() == soundness_verdict(request).to_json()

    def test_library_calls_touch_no_cache(self, tmp_path):
        soundness_verdict(fixture_json("heisenberg-prefix.json"))
        soundness_verdict(fixture_json("split-inversion.json"))
        assert not (tmp_path / "cache").exists()


class TestUnusableCacheDir:
    """A cache that cannot be written costs speed, never the answer."""

    @pytest.fixture()
    def under_a_file(self, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv(config.CACHE_ENV_VAR, str(blocker / "cache"))
        return blocker

    def test_chartable(self, cli, under_a_file):
        argv = ("chartable", "--group", '{"kind":"cyclic","n":4}')
        code, out, err = cli(*argv)
        assert (code, out) == cli(*argv, "--no-cache")[:2]
        assert code == 0
        assert err.startswith("warning: table cache not written: "
                              "NotADirectoryError:")
        assert err.count("\n") == 1
        assert under_a_file.read_text() == "not a directory"

    def test_soundness(self, cli, under_a_file):
        argv = ("soundness", "--request", "heisenberg-prefix.json",
                "--format", "json")
        code, out, err = cli(*argv)
        assert (code, out) == cli(*argv, "--no-cache")[:2]
        assert code == 2
        assert out == (GOLDEN / "heisenberg-prefix.verdict.json").read_text()
        lines = err.splitlines()
        # one per table: Z2, H2, H4, H8
        assert len(lines) == 4
        assert all(line.startswith("warning: table cache not written: "
                                   "NotADirectoryError:") for line in lines)

    def test_failed_replace_leaves_no_temporary_file(self, cli, tmp_path):
        # a directory where the entry belongs: the temporary file is written,
        # then os.replace fails
        g = group_from_descriptor({"kind": "cyclic", "n": 4})
        base = tmp_path / "cache"
        (base / f"{g.table_digest}-p{characters.table_prime(g)}.json").mkdir(
            parents=True)
        argv = ("chartable", "--group", '{"kind":"cyclic","n":4}')
        code, out, err = cli(*argv)
        assert (code, out) == cli(*argv, "--no-cache")[:2]
        assert err.startswith("warning: table cache not written: "
                              "IsADirectoryError:")
        assert err.count("\n") == 1
        assert not list(base.glob("*.tmp"))


class TestCacheWarmUnwritable:
    """`cache warm` exists to write, so an unwritable cache is an error."""

    def test_directory_under_a_file(self, cli, monkeypatch, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        monkeypatch.setenv(config.CACHE_ENV_VAR, str(blocker / "cache"))
        code, out, err = cli("cache", "warm", "--group", '{"kind":"cyclic","n":4}')
        assert (code, out) == (1, "")
        assert err.startswith("error: CacheNotWritten: table cache not written: "
                              "NotADirectoryError:")
        assert err.count("\n") == 1
        assert blocker.read_text() == "not a directory"
        assert [p.name for p in tmp_path.iterdir()] == ["file"]

    def test_failed_replace_leaves_no_temporary_file(self, cli, tmp_path):
        g = group_from_descriptor({"kind": "cyclic", "n": 4})
        base = tmp_path / "cache"
        (base / f"{g.table_digest}-p{characters.table_prime(g)}.json").mkdir(
            parents=True)
        code, out, err = cli("cache", "warm", "--group", '{"kind":"cyclic","n":4}')
        assert (code, out) == (1, "")
        assert err.startswith("error: CacheNotWritten: table cache not written: "
                              "IsADirectoryError:")
        assert err.count("\n") == 1
        assert not list(base.glob("*.tmp"))


def fresh_cli(argv, cache_dir) -> tuple[int, str]:
    """Exit code and stdout of one call in a new interpreter."""
    env = dict(os.environ, PYTHONPATH=str(Path(bohrsound.__file__).parents[1]),
               **{config.CACHE_ENV_VAR: str(cache_dir)})
    proc = subprocess.run([sys.executable, "-m", "bohrsound.cli", *argv],
                          capture_output=True, text=True, timeout=120, env=env)
    return proc.returncode, proc.stdout


class TestSharedParser:
    """Calls in one process share a parser; none may see another's values."""

    @pytest.mark.parametrize("calls", [
        [("cache", "warm", "--group", '{"kind":"cyclic","n":3}'),
         ("cache", "warm", "--group", '{"kind":"cyclic","n":5}')],
        [("chartable", "--group", '{"kind":"cyclic","n":2}', "--prime", "7"),
         ("chartable", "--group", '{"kind":"cyclic","n":2}')],
        [("amalgam", "dist", "--spec", "z2-free-z2.json",
          "--word", "0:x 1:y 0:x", "--word2", "0:x"),
         ("amalgam", "dist", "--spec", "z2-free-z2.json",
          "--word", "0:x 1:y 0:x")],
        [("chartable", "--prime", "7"),
         ("chartable", "--group", '{"kind":"cyclic","n":2}')],
    ], ids=["append", "prime", "word2", "error"])
    def test_each_call_matches_a_fresh_interpreter(self, calls, capsys,
                                                   monkeypatch, tmp_path):
        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(config.CACHE_ENV_VAR, str(cache_dir))
        for argv in calls:
            try:
                code = main(list(argv))
            except SystemExit as exc:  # argparse refuses the call
                code = exc.code
            assert (code, capsys.readouterr().out) == fresh_cli(argv, cache_dir)


class TestChartableAndCache:
    def test_chartable_degrees(self, cli):
        code, out, _ = cli("chartable", "--group",
                           '{"kind":"symmetric","n":4}', "--format", "json")
        assert code == 0
        assert json.loads(out)["degrees"] == [1, 1, 2, 3, 3]

    def test_cache_round_trip_is_byte_identical(self, cli):
        argv = ("chartable", "--group", '{"kind":"symmetric","n":4}',
                "--format", "json")
        _, cold, _ = cli(*argv)
        _, warm, _ = cli(*argv)  # now served from disk
        _, bare, _ = cli(*argv, "--no-cache")
        assert cold == warm == bare

    def test_cache_lifecycle(self, cli, tmp_path):
        base = tmp_path / "cache"
        code, out, _ = cli("cache", "warm",
                           "--group", '{"kind":"cyclic","n":6}',
                           "--group", '{"kind":"symmetric","n":3}',
                           "--format", "json")
        assert code == 0
        assert len(json.loads(out)["written"]) == 2
        assert len(list(base.glob("*.json"))) == 2

        code, out, _ = cli("cache", "inspect", "--format", "json")
        assert code == 0
        entries = json.loads(out)["entries"]
        assert sorted(e["order"] for e in entries) == [6, 6]

        code, out, _ = cli("cache", "clear", "--format", "json")
        assert code == 0
        assert json.loads(out)["removed"] == 2
        assert not list(base.glob("*.json"))

    def test_cache_commands_leave_foreign_files(self, cli, tmp_path):
        base = tmp_path / "cache"
        base.mkdir()
        foreign = base / "notmine.json"
        foreign.write_text('{"order": 6}')
        code, _, _ = cli("cache", "warm", "--group", '{"kind":"cyclic","n":6}')
        assert code == 0
        code, out, _ = cli("cache", "inspect", "--format", "json")
        files = [e["file"] for e in json.loads(out)["entries"]]
        assert len(files) == 1 and files[0].endswith(".json")
        assert "notmine.json" not in files
        code, out, _ = cli("cache", "clear", "--format", "json")
        assert code == 0
        assert json.loads(out)["removed"] == 1
        assert foreign.read_text() == '{"order": 6}'
        assert [p.name for p in base.iterdir()] == ["notmine.json"]

    @pytest.mark.parametrize("payload", ["[]", '{"class_reps": 5}'])
    def test_inspect_skips_entries_that_are_not_tables(self, cli, tmp_path, payload):
        # named like an entry but no table, so load_table treats it as stale
        code, _, _ = cli("cache", "warm", "--group", '{"kind":"cyclic","n":6}')
        assert code == 0
        (tmp_path / "cache" / f"{'0' * 64}-p5.json").write_text(payload)
        for fmt in ("text", "json"):
            code, out, err = cli("cache", "inspect", "--format", fmt)
            assert (code, err) == (0, "")
        assert [e["order"] for e in json.loads(out)["entries"]] == [6]

    @pytest.mark.parametrize("field, value", [
        ("order", "NaN"), ("prime", "1e400"), ("order", "6.0"),
        ("prime", "true"), ("order", "null")])
    def test_inspect_skips_entries_whose_order_or_prime_is_no_int(
            self, cli, tmp_path, field, value):
        # json.load reads NaN and 1e400 as floats, which would print as NaN
        # and Infinity: output that a strict JSON parser refuses
        code, _, _ = cli("cache", "warm", "--group", '{"kind":"cyclic","n":6}')
        assert code == 0
        (entry,) = (tmp_path / "cache").glob("*.json")
        data = json.loads(entry.read_text())
        text = json.dumps({**data, field: "@"}).replace('"@"', value)
        (tmp_path / "cache" / f"{'0' * 64}-p5.json").write_text(text)

        def refuse(constant):
            raise ValueError(f"not strict JSON: {constant}")

        for fmt in ("text", "json"):
            code, out, err = cli("cache", "inspect", "--format", fmt)
            assert (code, err) == (0, "")
        entries = json.loads(out, parse_constant=refuse)["entries"]
        assert [e["file"] for e in entries] == [entry.name]

    def test_stale_cache_entry_recomputed(self, cli, tmp_path):
        argv = ("chartable", "--group", '{"kind":"cyclic","n":5}',
                "--format", "json")
        _, cold, _ = cli(*argv)
        entry = next((tmp_path / "cache").glob("*.json"))
        entry.write_text('{"schema":"bohrsound/chartable/1","order":999}')
        _, again, _ = cli(*argv)
        assert again == cold

    @pytest.mark.parametrize("edit", [
        {"values": [[1, 1, 1], [1, 4, 4], [1, 2, 2]]},  # not a character table
        {"degrees": [1, 1, 2]},
        {"values": [[1, 1], [1, 2]]},
        {"values": [[1, 1, 1], [1, "x", 1], [1, 1, 1]]},
        {"values": None},
    ])
    def test_hand_edited_entry_is_recomputed(self, cli, tmp_path, edit):
        argv = ("chartable", "--group", '{"kind":"cyclic","n":3}',
                "--format", "json")
        _, cold, _ = cli(*argv)
        entry = next((tmp_path / "cache").glob("*.json"))
        stored = entry.read_text()
        entry.write_text(json.dumps({**json.loads(stored), **edit}))
        code, again, _ = cli(*argv)
        assert code == 0
        assert again == cold
        assert entry.read_text() == stored  # overwritten by the recomputation
        assert [p.name for p in (tmp_path / "cache").iterdir()] == [entry.name]

    def test_rows_out_of_order_are_stale(self, cli, tmp_path):
        argv = ("chartable", "--group", '{"kind":"symmetric","n":3}',
                "--format", "json")
        _, cold, _ = cli(*argv)
        entry = next((tmp_path / "cache").glob("*.json"))
        data = json.loads(entry.read_text())
        data["degrees"], data["values"] = data["degrees"][::-1], data["values"][::-1]
        entry.write_text(json.dumps(data))
        assert cli(*argv)[1] == cold

    def test_library_cache_roundtrip(self, monkeypatch, tmp_path):
        monkeypatch.setenv(config.CACHE_ENV_VAR, str(tmp_path))
        from bohrsound.characters import character_table
        g = cyclic(7)
        fresh = character_table(g)
        stored = cache.cached_character_table(g)
        loaded = cache.load_table(g, stored.prime)
        assert loaded is not None
        assert loaded.serialize() == fresh.serialize()
