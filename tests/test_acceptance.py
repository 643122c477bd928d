"""End-to-end acceptance checks, one per shipped guarantee.

Each test exercises a full decision path at its stated tolerance (exact
unless noted) and enforces the advertised runtime where one is promised.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from conftest import build_corpus
from oracles import (
    all_subgroups,
    bare_torus_datum,
    glued_torus_su_datum,
    pseudometric_oracle,
    split_machines_agree,
    su2_datum,
)
from bohrsound.amalgam import (
    bohr_lipschitz_check,
    coproduct_pseudometric,
    discrete_length,
    eval_hom,
    free_product,
    intersection_check,
    normal_form,
    padded_regular_representation,
    regular_pullback_length,
    sl2z_amalgam,
    sl2z_matrix_target,
    split_decomposition_check,
    word_equal,
)
from bohrsound.characters import (
    character_table,
    clifford_multiplicity,
    equalizer_witness,
    restricted_values,
)
from bohrsound.cli import fixture_path
from bohrsound.descriptors import group_from_descriptor
from bohrsound.groups import (
    GroupHom,
    Subgroup,
    cyclic,
    heisenberg,
    klein_four,
    symmetric,
)
from bohrsound.lie import (
    compactness_conditions,
    largest_compact_verdict,
    torus2_automorphism_family_witness,
)
from bohrsound.soundness import soundness_verdict
from bohrsound.zmat import (
    coproduct_orbit_obstruction,
    generated_group,
    identity,
    mat_mul,
    minkowski_bound,
)

ALPHA = ((0, -1), (1, 0))
BETA = ((0, -1), (1, 1))


def fixture_json(name: str) -> dict:
    return json.loads(fixture_path(name).read_text())


def small_factor_pairs():
    groups = [cyclic(2), cyclic(3), cyclic(4), klein_four()]
    return list(itertools.combinations(groups, 2))


def all_words_up_to(spec, max_len):
    letters = [(i, x) for i in range(spec.n_factors)
               for x in range(spec.factors[i].order)]
    for n in range(max_len + 1):
        yield from itertools.product(letters, repeat=n)


def random_word(rng, spec, max_len):
    length = rng.randrange(max_len + 1)
    return tuple(
        (i, rng.randrange(spec.factors[i].order))
        for i in (rng.randrange(spec.n_factors) for _ in range(length)))


def test_criterion_01_torus_collapse_detected():
    start = time.perf_counter()
    verdict = soundness_verdict(fixture_json("torus-collapse.json"))
    assert verdict.verdict == "Unsound"
    assert generated_group([ALPHA]).order == 4
    assert generated_group([BETA]).order == 6
    joint = generated_group([ALPHA, BETA])
    assert not joint.finite
    assert joint.witness_count > minkowski_bound(2) == 24
    assert time.perf_counter() - start < 1.0


def test_criterion_02_heisenberg_degree_and_multiplicity_profile():
    start = time.perf_counter()
    z2 = cyclic(2)
    for i in (1, 2, 3):
        g = heisenberg(i)
        # (0,0,c) sits at index c; c = 2^(i-1) is the central involution
        emb = GroupHom(z2, g, [0, 2 ** (i - 1)])
        tg = character_table(g)
        th = character_table(z2, prime=tg.prime)
        rho = 1 - th.trivial_index()
        seen_nontrivial = 0
        for pi in range(tg.n_irreducibles):
            res = restricted_values(tg, pi, emb, th)
            if not np.all(res == tg.degrees[pi]):
                assert tg.degrees[pi] == 2 ** i
                seen_nontrivial += 1
        assert seen_nontrivial > 0
        assert clifford_multiplicity(tg, th, emb, rho) == 2 ** i
    assert time.perf_counter() - start < 30.0


def test_criterion_03_equalizer_dichotomy_full_corpus():
    corpus = [g for g in build_corpus() if g.order <= 48]
    checked = 0
    for g in corpus:
        for elems in all_subgroups(g):
            if len(elems) == g.order:
                continue
            h, emb = Subgroup(g, elems).materialize()
            w = equalizer_witness(emb)
            tg = character_table(g, prime=w.prime)
            th = character_table(h, prime=w.prime)
            if w.kind == "split":
                (pi,) = w.indices
                res = restricted_values(tg, pi, emb, th)
                assert th.inner(res, res) >= 2
            else:
                assert w.kind == "collision"
                i, j = w.indices
                assert i != j
                assert np.array_equal(restricted_values(tg, i, emb, th),
                                      restricted_values(tg, j, emb, th))
            checked += 1
    assert checked > 700


def test_criterion_04_word_problem_matches_integer_matrices():
    start = time.perf_counter()
    spec = sl2z_amalgam()
    target = sl2z_matrix_target()
    rng = random.Random(20240)
    for _ in range(500):
        w1 = random_word(rng, spec, 8)
        w2 = random_word(rng, spec, 8)
        same_matrix = eval_hom(spec, w1, target) == eval_hom(spec, w2, target)
        assert word_equal(spec, w1, w2) == same_matrix
    assert time.perf_counter() - start < 5.0


def test_criterion_05_factor_intersection_is_amalgam():
    report = intersection_check(sl2z_amalgam())
    assert report.ok
    assert report.order == 2


def test_criterion_06_pseudometric_matches_exhaustive_minimum():
    start = time.perf_counter()
    checked = 0
    for ga, gb in small_factor_pairs():
        spec = free_product([ga, gb])
        words = list(all_words_up_to(spec, 4))
        for maker in (discrete_length, regular_pullback_length):
            lengths = [maker(ga), maker(gb)]
            raw = [lf.values for lf in lengths]
            for w in words:
                assert coproduct_pseudometric(spec, lengths, w) == \
                    pseudometric_oracle([ga, gb], raw, w)
                checked += 1
    assert checked == 28348
    assert time.perf_counter() - start < 60.0


def test_criterion_07_operator_norm_bound():
    s3, z4 = symmetric(3), cyclic(4)
    spec = free_product([s3, z4])
    reps = [padded_regular_representation(s3, 6),
            padded_regular_representation(z4, 6)]
    rng = random.Random(777)

    def equivalent_rewrite(word):
        out = []
        for i, x in word:
            fac = spec.factors[i]
            roll = rng.random()
            if roll < 0.3:
                out.append((rng.randrange(2), 0))
                out.append((i, x))
            elif roll < 0.6:
                y = rng.randrange(fac.order)
                out.append((i, fac.op(x, fac.inverse(y))))
                out.append((i, y))
            else:
                out.append((i, x))
        return tuple(out)

    held = 0
    for _ in range(200):
        w1 = random_word(rng, spec, 5)
        record = bohr_lipschitz_check(spec, reps, w1, equivalent_rewrite(w1))
        assert not record.vacuous and record.delta < 1
        assert record.holds
        assert record.opnorm <= record.bound + 1e-9
        held += 1
    assert held == 200


def test_criterion_08_discrete_lengths_give_discrete_metric():
    for ga, gb in small_factor_pairs():
        spec = free_product([ga, gb])
        lengths = [discrete_length(ga), discrete_length(gb)]
        for w in all_words_up_to(spec, 4):
            d = coproduct_pseudometric(spec, lengths, w)
            if normal_form(spec, w).is_identity:
                assert d == 0
            else:
                assert d >= 1


def test_criterion_09_lie_data_verdicts():
    def conditions(datum):
        r = compactness_conditions(datum)
        return (r.no_central_2torus, r.dual_rank_le_1, r.aut_compact)

    start = time.perf_counter()
    assert conditions(su2_datum()) == (True, True, True)
    assert time.perf_counter() - start < 1.0

    start = time.perf_counter()
    bare = bare_torus_datum(2)
    assert conditions(bare) == (False, False, False)
    assert largest_compact_verdict(bare).kind == "NoLargest"
    assert time.perf_counter() - start < 1.0

    for k, l in ((3, 2), (4, 2), (4, 3)):
        start = time.perf_counter()
        datum = glued_torus_su_datum(k, l)
        assert conditions(datum) == (False, False, False)
        verdict = largest_compact_verdict(datum)
        assert verdict.kind == "HasLargest"
        assert verdict.delta0.order == 3 ** (k + l - 1)
        finite_sizes = [size for _, _, size in verdict.fixed_profiles
                        if size is not None]
        assert finite_sizes and max(finite_sizes) <= 4
        assert time.perf_counter() - start < 1.0


def test_criterion_10_order_two_witness_family():
    rot3_pair = ((0, 1, 0, 0), (-1, -1, 0, 0),
                 (0, 0, 0, 1), (0, 0, -1, -1))
    b1 = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
    b2 = ((1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))
    fam = torus2_automorphism_family_witness(rot3_pair, b1, b2, 20)
    assert len(fam.witnesses) == 21
    assert len(set(fam.witnesses)) == 21
    for w in fam.witnesses:
        assert mat_mul(w, w) == identity(4)
        assert mat_mul(w, rot3_pair) == mat_mul(rot3_pair, w)


def test_criterion_11_split_families_sound():
    # sound once every action is a homomorphism; the two word machines of
    # each fixture must then present the same group
    for name in ("split-inversion.json", "split-growing-orbit.json"):
        request = fixture_json(name)
        h = group_from_descriptor(request["kernel"], "kernel")
        members = [(group_from_descriptor(m["normal"], "normal"), m["action"])
                   for m in request["members"]]
        split_decomposition_check(h, members)
        assert split_machines_agree(h, members)
        verdict = soundness_verdict(request)
        assert verdict.verdict == "Sound"
        assert verdict.criterion == "split-family"


def test_criterion_12_growing_orbit_obstruction():
    members = [
        (m["rank"],
         [tuple(tuple(row) for row in g) for g in m["generators"]],
         tuple(m["vector"]))
        for m in fixture_json("orbit-growth.json")["members"]
    ]
    obstruction = coproduct_orbit_obstruction(members)
    assert obstruction.sizes == (2, 3, 5, 7)
    assert obstruction.growing
