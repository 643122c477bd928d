"""Tests for quotient-presentation checks on compact connected Lie groups."""

import json
import random
import time
from collections import Counter
from fractions import Fraction
from math import gcd, prod

import pytest

from bohrsound.errors import (
    DimensionMismatch,
    DoesNotCommute,
    InvalidDelta,
    InvariantViolation,
    NotMember,
    NotUnimodular,
    SchemaError,
    SizeLimit,
    UnsupportedRank,
    WrongOrder,
)
from bohrsound import cli, config, lie
from bohrsound.cli import main
from bohrsound.groups import FiniteAbelian, TorusPoint
from bohrsound.lie import (
    LieDatum,
    SimpleType,
    achievable_center_autos,
    apply_center_auto,
    centralizer_in_finite_group,
    compactness_conditions,
    largest_compact_verdict,
    lie_center,
    liftable,
    simple_type,
    torus2_automorphism_family_witness,
    torus_image_invariants,
)
from bohrsound.zmat import MatrixGroupResult, generated_group, mat_mul

from oracles import (
    achievable_center_autos_bfs,
    bare_torus_datum,
    glued_torus_su_datum,
    gluing_graph_oracle,
    _span_size,
    invariant_factors_by_primes,
    liftable_elementwise,
    rigidity_elementwise,
    su2_datum,
)

A1 = SimpleType("A", 1)
ROT3 = ((0, 1), (-1, -1))
NEG2 = ((-1, 0), (0, -1))

BLOCK_ROT3 = ((0, 1, 0, 0), (-1, -1, 0, 0), (0, 0, 0, 1), (0, 0, -1, -1))
BLOCK_B1 = ((-1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
BLOCK_B2 = ((1, 0, 1, 0), (0, 1, 0, 1), (0, 0, 1, 0), (0, 0, 0, 1))


def order_signature(invariants, exponent):
    """#{x : n*x = 0} for each n, from invariant factors."""
    out = {}
    for n in range(1, exponent + 1):
        count = 1
        for d in invariants:
            count *= gcd(n, d)
        out[n] = count
    return out


class TestSimpleType:
    @pytest.mark.parametrize("token,orders", [
        ("A1", (2,)), ("A2", (3,)), ("A26", (27,)),
        ("B2", (2,)), ("B7", (2,)), ("C3", (2,)), ("C5", (2,)),
        ("D3", (4,)), ("D4", (2, 2)), ("D5", (4,)), ("D6", (2, 2)),
        ("E6", (3,)), ("E7", (2,)), ("E8", ()), ("F4", ()), ("G2", ()),
    ])
    def test_center_table(self, token, orders):
        assert simple_type(token).center_orders == orders

    @pytest.mark.parametrize("token", [
        "A0", "B1", "C2", "D2", "E5", "E9", "F3", "G1", "H3", "A", "3A", "",
    ])
    def test_rejects_bad_tokens(self, token):
        with pytest.raises(SchemaError):
            simple_type(token)

    @pytest.mark.parametrize("token,want", [
        ("A1", False), ("A2", True), ("A26", True),
        ("B4", False), ("C3", False),
        ("D4", False), ("D5", True), ("D6", False),
        ("E6", True), ("E7", False), ("E8", False),
        ("F4", False), ("G2", False),
    ])
    def test_inversion_achievable(self, token, want):
        assert simple_type(token).inversion_achievable is want

    def test_parse_is_case_insensitive(self):
        assert simple_type("a8") == SimpleType("A", 8)

    def test_str_roundtrip(self):
        assert str(simple_type("D5")) == "D5"


class TestLieDatum:
    def test_trivial_gluing(self):
        d = su2_datum()
        assert d.torus_part_of == {(0,): ()}
        assert d.simple_parts == frozenset({(0,)})

    def test_full_gluing_closure(self):
        d = glued_torus_su_datum(3, 2)
        # graph of a map defined on all of Z/27 x Z/9
        assert len(d.torus_part_of) == 27 * 9
        assert len(d.simple_parts) == 27 * 9

    def test_kernel_parts(self):
        d = glued_torus_su_datum(3, 2)
        assert d.kernel_parts == frozenset({(0, 0), (18, 3), (9, 6)})

    def test_rejects_wrong_simple_length(self):
        with pytest.raises(InvalidDelta):
            LieDatum(1, [A1], [((1, 0), (Fraction(1, 2),))])

    def test_rejects_wrong_torus_length(self):
        with pytest.raises(InvalidDelta):
            LieDatum(2, [A1], [((1,), (Fraction(1, 2),))])

    def test_rejects_non_graph(self):
        with pytest.raises(InvalidDelta):
            LieDatum(1, [A1], [((0,), (Fraction(1, 2),))])

    def test_rejects_negative_rank(self):
        with pytest.raises(InvalidDelta):
            LieDatum(-1, [A1])

    def test_torus_rank_limit(self):
        # a rank past this once sized a tuple, and an SNF, by the rank
        assert LieDatum(config.MINKOWSKI_MAX_RANK, [A1]).torus_rank == 8
        for rank in (config.MINKOWSKI_MAX_RANK + 1, 2 ** 70):
            with pytest.raises(SizeLimit):
                LieDatum(rank, [A1])

    def test_gluing_order_limit(self):
        # D = Z/n, the whole center of SU(n): admitted up to GROUP_MAX_ORDER
        n = config.GROUP_MAX_ORDER
        assert len(LieDatum(0, [SimpleType("A", n - 1)], [((1,), ())])
                   .torus_part_of) == n
        with pytest.raises(SizeLimit):
            LieDatum(0, [SimpleType("A", n)], [((1,), ())])

    def test_gluing_order_counts_the_torus_part(self):
        # not a graph, but refused by size before D is enumerated
        with pytest.raises(SizeLimit):
            LieDatum(1, [], [((), (Fraction(1, 10 ** 5),))])

    def test_oversized_gluing_in_liecheck(self, capsys):
        datum = ('{"schema": 1, "kind": "lie-datum", "z": 0, "factors": ["A99999"],'
                 ' "delta": {"simple_part_generators": [[1]], "phi_images": [[]]}}')
        assert main(["liecheck", "--datum", datum]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: SizeLimit:")
        assert captured.err.count("\n") == 1

    def test_normalizes_coordinates(self):
        d = LieDatum(1, [A1], [((3,), (Fraction(5, 2),))])
        assert d.generators == (((1,), TorusPoint([Fraction(1, 2)])),)
        assert d.denominator == 2
        assert d.torus_part_of[(1,)] == (1,)


class TestLieCenter:
    def test_su2(self):
        assert lie_center(su2_datum()) == (0, FiniteAbelian((2,)))

    def test_so3(self):
        so3 = LieDatum(0, [A1], [((1,), ())])
        assert lie_center(so3) == (0, FiniteAbelian(()))

    def test_bare_torus(self):
        assert lie_center(bare_torus_datum(2)) == (2, FiniteAbelian(()))

    def test_full_gluing_kills_finite_part(self):
        assert lie_center(glued_torus_su_datum(3, 2)) == (2, FiniteAbelian(()))

    def test_partial_gluing(self):
        # Z/4 center glued along its order-2 subgroup leaves Z/2
        d = LieDatum(1, [SimpleType("A", 3)], [((2,), (Fraction(1, 2),))])
        assert lie_center(d) == (1, FiniteAbelian((2,)))

    def test_unglued_product(self):
        d = LieDatum(0, [SimpleType("A", 2), SimpleType("E", 7)])
        assert lie_center(d) == (0, FiniteAbelian((6,)))

    def test_quotient_orders_against_spans(self):
        # |Q[d]| = |M| / |dM + S| for Q = M / S, and the invariant factors e
        # of Q give |Q[d]| = prod gcd(d, e); d up to the largest modulus
        # meets every prime power dividing the exponent, which fixes Q
        rng = random.Random(41)
        for _ in range(150):
            moduli = [rng.randint(1, 6) for _ in range(rng.randint(1, 4))]
            vectors = [tuple(rng.randrange(m) if rng.random() < 0.5 else 0
                             for m in moduli) for _ in range(rng.randint(0, 3))]
            orders = lie._quotient_orders(moduli, vectors)
            assert prod(orders) * _span_size(vectors, moduli) == prod(moduli)
            factors = invariant_factors_by_primes(orders)
            for d in range(1, max(moduli) + 1):
                scaled = [tuple(d if i == j else 0 for j in range(len(moduli)))
                          for i in range(len(moduli))]
                torsion = prod(moduli) // _span_size(vectors + scaled, moduli)
                assert prod(gcd(d, e) for e in factors) == torsion

    def test_many_unglued_factors_skip_smith_form(self, capsys):
        # no generators: every coordinate passes its modulus through, and no
        # Smith normal form runs on the 600 x 600 diagonal
        names = [f"B{n}" for n in range(2, 602)]
        datum = {"schema": 1, "kind": "lie-datum", "z": 0, "factors": names}
        start = time.perf_counter()
        assert main(["liecheck", "--datum", json.dumps(datum)]) == 0
        assert time.perf_counter() - start < 1
        lines = ["factors: " + " x ".join(names) + " with central torus T^0",
                 "center: T^0" + " x Z/2" * 600,
                 "no central 2-torus: True", "dual rank <= 1: True",
                 "compact automorphism group: True",
                 "largest compact subgroup: True", "sign-rigid gluing: True"]
        assert capsys.readouterr().out == "\n".join(lines) + "\n"


class TestTorusImage:
    def test_trivial(self):
        assert torus_image_invariants(su2_datum()).is_trivial

    @pytest.mark.parametrize("k,l,invariants", [
        (3, 2, (3, 27)), (4, 2, (3, 81)), (4, 3, (9, 81)),
    ])
    def test_glued_invariants(self, k, l, invariants):
        d0 = torus_image_invariants(glued_torus_su_datum(k, l))
        assert d0.invariant_factors == invariants
        assert d0.order == 3 ** (k + l - 1)

    @pytest.mark.parametrize("k,l", [(3, 2), (4, 2), (4, 3)])
    def test_against_enumeration(self, k, l):
        # independent check: count solutions of n*x = 0 in the actual image
        datum = glued_torus_su_datum(k, l)
        image = set(datum.torus_part_of.values())
        den = datum.denominator
        d0 = torus_image_invariants(datum)
        assert len(image) == d0.order
        exponent = 1
        for d in d0.invariant_factors:
            exponent = exponent * d // gcd(exponent, d)
        want = order_signature(d0.invariant_factors, exponent)
        for n, count in want.items():
            got = sum(1 for t in image if all((n * v) % den == 0 for v in t))
            assert got == count

    @pytest.mark.parametrize("u", [
        ((1, 1), (0, 1)), ((0, 1), (1, 0)), ((2, 1), (1, 1)),
    ])
    def test_invariant_under_torus_basis_change(self, u):
        base = glued_torus_su_datum(3, 2)
        moved = LieDatum(2, base.factors, [
            (s, tuple(sum(u[r][c] * t.coords[c] for c in range(2)) % 1
                      for r in range(2)))
            for s, t in base.generators])
        assert torus_image_invariants(moved) == torus_image_invariants(base)


class TestAchievableAutos:
    def test_single_inverting_factor(self):
        assert len(achievable_center_autos([SimpleType("A", 2)])) == 2

    def test_single_rigid_factor(self):
        assert len(achievable_center_autos([SimpleType("E", 7)])) == 1

    def test_distinct_factors_give_independent_inversions(self):
        autos = achievable_center_autos(
            [SimpleType("A", 26), SimpleType("A", 8)])
        assert len(autos) == 4
        assert all(sigma == (0, 1) for sigma, _ in autos)
        assert {signs for _, signs in autos} == {
            (1, 1), (1, -1), (-1, 1), (-1, -1)}

    def test_identical_factors_also_swap(self):
        autos = achievable_center_autos([SimpleType("A", 2)] * 2)
        assert len(autos) == 8

    def test_closure_is_counted_before_it_is_enumerated(self):
        # 4! permutations times 2^4 signs; 7! = 5040 is past GROUP_MAX_ORDER
        assert len(achievable_center_autos([SimpleType("A", 2)] * 4)) == 384
        with pytest.raises(SizeLimit):
            achievable_center_autos([SimpleType("A", 1)] * 7)

    def test_d4_contributes_nothing(self):
        assert len(achievable_center_autos([SimpleType("D", 4)])) == 1
        assert len(achievable_center_autos([SimpleType("D", 4)] * 2)) == 2

    def test_autos_are_bijections(self):
        datum = LieDatum(0, [SimpleType("A", 2)] * 2)
        points = [(a, b) for a in range(3) for b in range(3)]
        for auto in achievable_center_autos(datum.factors):
            images = {apply_center_auto(datum, auto, p) for p in points}
            assert len(images) == len(points)

    def test_blocks_of_mixed_widths(self):
        datum = LieDatum(0, [SimpleType("D", 4), SimpleType("A", 2),
                             SimpleType("E", 8), SimpleType("A", 2)])
        assert datum.block_widths == (2, 1, 0, 1)
        assert datum.block_offsets == (0, 2, 3, 3)
        # swap the two A2 factors and invert the first of them
        auto = ((0, 3, 2, 1), (1, -1, 1, 1))
        assert apply_center_auto(datum, auto, (1, 0, 1, 2)) == (1, 0, 2, 2)

    @pytest.mark.parametrize("tokens", [
        ["A2"] * 3, ["A2", "D5", "A2"], ["D4"] * 2, ["E6", "E7"]])
    def test_matches_breadth_first_oracle(self, tokens):
        factors = [simple_type(t) for t in tokens]
        assert achievable_center_autos(factors) == \
            achievable_center_autos_bfs(factors)

    def test_closed_under_composition(self):
        datum = LieDatum(0, [SimpleType("A", 2)] * 2)
        points = [(a, b) for a in range(3) for b in range(3)]
        autos = achievable_center_autos(datum.factors)
        tables = {
            auto: tuple(apply_center_auto(datum, auto, p) for p in points)
            for auto in autos}
        for a in autos:
            for b in autos:
                composed = tuple(
                    apply_center_auto(datum, a, apply_center_auto(datum, b, p))
                    for p in points)
                assert composed in tables.values()


class TestLiftable:
    def test_identity_always_lifts(self):
        for datum in (glued_torus_su_datum(3, 2), bare_torus_datum(2)):
            assert liftable(datum, ((1, 0), (0, 1)))

    def test_negation_lifts_on_glued_data(self):
        assert liftable(glued_torus_su_datum(3, 2), NEG2)

    def test_unipotent_annihilating_image_lifts(self):
        assert liftable(glued_torus_su_datum(3, 2), ((1, 81), (0, 1)))

    def test_small_unipotent_does_not_lift(self):
        assert not liftable(glued_torus_su_datum(3, 2), ((1, 1), (0, 1)))

    def test_rotation_does_not_lift(self):
        assert not liftable(glued_torus_su_datum(3, 2), ((0, -1), (1, 0)))

    def test_wrong_size_rejected(self):
        with pytest.raises(DimensionMismatch):
            liftable(glued_torus_su_datum(3, 2), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))

    def test_non_unimodular_rejected(self):
        with pytest.raises(NotUnimodular):
            liftable(glued_torus_su_datum(3, 2), ((2, 0), (0, 1)))

    def test_liftable_closed_under_product(self):
        datum = glued_torus_su_datum(3, 2)
        lifting = [((1, 0), (0, 1)), NEG2, ((1, 81), (0, 1))]
        for a in lifting:
            for b in lifting:
                assert liftable(datum, mat_mul(a, b))


FACTOR_POOL = ("A1", "A2", "A3", "A5", "C3", "D4", "D5", "D6", "E6", "E7")


def random_datum(rng: random.Random) -> LieDatum:
    """A valid gluing by construction: images on independent coordinate
    generators, random combinations of them, then a random subset."""
    factors = [simple_type(rng.choice(FACTOR_POOL))
               for _ in range(rng.randint(1, 3))]
    if rng.random() < 0.4:
        factors.append(factors[0])
    z = rng.choice((0, 1, 2))
    orders = [m for f in factors for m in f.center_orders]
    gens = []
    for i, m in enumerate(orders):
        u = rng.randrange(1, m)
        o = m // gcd(u, m)
        simple = tuple(u if j == i else 0 for j in range(len(orders)))
        torus = tuple(Fraction(rng.randrange(o) if rng.random() < 0.6 else 0, o)
                      for _ in range(z))
        gens.append((simple, torus))
    for _ in range(rng.randint(0, 2)):
        coeffs = [rng.randrange(-2, 3) for _ in gens]
        gens.append((
            tuple(sum(c * s[j] for c, (s, _) in zip(coeffs, gens)) % m
                  for j, m in enumerate(orders)),
            tuple(sum((c * t[j] for c, (_, t) in zip(coeffs, gens)), Fraction(0))
                  for j in range(z))))
    keep = [g for g in gens if rng.random() < 0.7]
    return LieDatum(z, factors, keep)


def torus_matrices(datum: LieDatum):
    z = datum.torus_rank
    if z == 1:
        return [((1,),), ((-1,),)]
    if z == 2:
        return [((1, 0), (0, 1)), NEG2, ROT3, ((0, -1), (1, 0)),
                ((1, 0), (0, -1)), ((0, 1), (1, 0)), ((1, 1), (0, 1)),
                ((2, 1), (1, 1)), ((1, datum.denominator), (0, 1))]
    return []


class TestGeneratorChecks:
    """The generator-only checks against the elementwise Fraction oracles."""

    def test_seeded_sweep_matches_elementwise_oracles(self):
        rng = random.Random(7)
        data = [glued_torus_su_datum(3, 2), LieDatum(2, [SimpleType("D", 4)])]
        data += [random_datum(rng) for _ in range(200)]
        rigid_seen, lift_seen = set(), set()
        for datum in data:
            graph = gluing_graph_oracle(datum)
            assert {s: tuple(Fraction(v, datum.denominator) for v in t)
                    for s, t in datum.torus_part_of.items()} == graph
            rigid = lie._rigidity(datum)
            assert rigid == rigidity_elementwise(datum)
            rigid_seen.add(rigid)
            for alpha0 in torus_matrices(datum):
                lifts = liftable(datum, alpha0)
                assert lifts == liftable_elementwise(datum, alpha0)
                lift_seen.add(lifts)
        assert rigid_seen == {True, False, None}
        assert lift_seen == {True, False}
        assert {d.torus_rank for d in data} == {0, 1, 2}
        assert any(len(set(d.factors)) < len(d.factors) for d in data)
        assert any(SimpleType("D", 4) in d.factors and d.generators
                   for d in data)
        assert any(1 < len(d.simple_parts) < prod(d.center_orders)
                   and d.torus_rank == 2 for d in data)


class TestCompactnessConditions:
    def test_su2(self):
        report = compactness_conditions(su2_datum())
        assert (report.no_central_2torus, report.dual_rank_le_1,
                report.aut_compact) == (True, True, True)
        assert report.has_largest_compact is True

    def test_rank_one_gluing(self):
        d = LieDatum(1, [A1], [((1,), (Fraction(1, 2),))])
        report = compactness_conditions(d)
        assert report.aut_compact is True
        assert report.has_largest_compact is True

    def test_bare_torus(self):
        report = compactness_conditions(bare_torus_datum(2))
        assert (report.no_central_2torus, report.dual_rank_le_1,
                report.aut_compact) == (False, False, False)
        assert report.has_largest_compact is False

    @pytest.mark.invariant
    def test_disagreeing_center_raises(self, monkeypatch, capsys):
        # unreachable from a datum: the center's torus rank is read off it
        monkeypatch.setattr(lie, "lie_center",
                            lambda datum: (datum.torus_rank + 2,
                                           FiniteAbelian(())))
        with pytest.raises(InvariantViolation):
            compactness_conditions(su2_datum())
        assert main(["liecheck", "--datum", "su2.json"]) == 1
        assert "InvariantViolation" in capsys.readouterr().err

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("fixture", ["bare-t2.json", "glued-su-4-3.json"])
    def test_liecheck_decides_once(self, monkeypatch, capsys, fixture, fmt):
        calls = Counter()
        for name in ("_rigidity", "largest_compact_verdict"):
            def counted(datum, name=name, original=getattr(lie, name)):
                calls[name] += 1
                return original(datum)
            monkeypatch.setattr(lie, name, counted)
        assert main(["liecheck", "--datum", fixture, "--format", fmt]) == 0
        assert calls == {"_rigidity": 1, "largest_compact_verdict": 1}
        assert capsys.readouterr().out

    @pytest.mark.parametrize("fmt", ["text", "json"])
    @pytest.mark.parametrize("fixture", ["su2.json", "bare-t2.json",
                                         "glued-su-4-3.json"])
    def test_liecheck_computes_center_once(self, monkeypatch, capsys,
                                           fixture, fmt):
        calls = []

        def counted(datum, original=lie.lie_center):
            calls.append(datum)
            return original(datum)
        # and in the CLI module, should it hold a reference of its own
        for module in (lie, cli):
            monkeypatch.setattr(module, "lie_center", counted, raising=False)
        assert main(["liecheck", "--datum", fixture, "--format", fmt]) == 0
        assert len(calls) == 1
        assert capsys.readouterr().out

    @pytest.mark.parametrize("k,l", [(3, 2), (4, 2), (4, 3)])
    def test_glued_fails_conditions_but_keeps_largest(self, k, l):
        report = compactness_conditions(glued_torus_su_datum(k, l))
        assert (report.no_central_2torus, report.dual_rank_le_1,
                report.aut_compact) == (False, False, False)
        assert report.has_largest_compact is True
        assert report.inversion_only is True

    def test_non_rigid_datum_is_undecided(self):
        # independent inversions preserve everything but are not a joint sign
        d = LieDatum(2, [SimpleType("A", 2)] * 2, [
            ((1, 0), (Fraction(1, 3), Fraction(0))),
            ((0, 1), (Fraction(0), Fraction(1, 3))),
        ])
        report = compactness_conditions(d)
        assert report.inversion_only is False
        assert report.has_largest_compact is None

    def test_d4_blocks_certification(self):
        d = LieDatum(2, [SimpleType("D", 4)])
        report = compactness_conditions(d)
        assert report.inversion_only is None
        assert report.has_largest_compact is None

    def test_high_rank_left_open(self):
        report = compactness_conditions(bare_torus_datum(3))
        assert report.aut_compact is False
        assert report.has_largest_compact is None


class TestLargestCompactVerdict:
    def test_rank_zero(self):
        assert largest_compact_verdict(su2_datum()).kind == "HasLargest"

    def test_unsupported_rank(self):
        with pytest.raises(UnsupportedRank):
            largest_compact_verdict(bare_torus_datum(3))

    def test_bare_torus_witness(self):
        v = largest_compact_verdict(bare_torus_datum(2))
        assert v.kind == "NoLargest"
        assert v.witness_label == "reflection-split"
        assert v.witness == ((1, 0), (0, -1))
        assert v.delta0.is_trivial

    @pytest.mark.parametrize("k,l", [(3, 2), (4, 2), (4, 3)])
    def test_glued_has_largest(self, k, l):
        v = largest_compact_verdict(glued_torus_su_datum(k, l))
        assert v.kind == "HasLargest"
        assert v.delta0.order == 3 ** (k + l - 1)
        # every torsion class was scanned and recorded
        assert len(v.fixed_profiles) == 5
        finite_sizes = [size for _, _, size in v.fixed_profiles
                        if size is not None]
        assert finite_sizes and all(size <= 4 for size in finite_sizes)
        assert all(size < v.delta0.order for size in finite_sizes)

    def test_small_glued_torus_loses_largest(self):
        # Z/2 inside the reflection's fixed points: T^1 x Z/2
        d = LieDatum(2, [A1], [((1,), (Fraction(1, 2), Fraction(0)))])
        v = largest_compact_verdict(d)
        assert v.kind == "NoLargest"
        assert v.witness_label == "reflection-split"
        assert liftable(d, v.witness)

    def test_non_rigid_is_unknown(self):
        d = LieDatum(2, [SimpleType("A", 2)] * 2, [
            ((1, 0), (Fraction(1, 3), Fraction(0))),
            ((0, 1), (Fraction(0), Fraction(1, 3))),
        ])
        assert largest_compact_verdict(d).kind == "Unknown"

    @pytest.mark.parametrize("u", [((1, 1), (0, 1)), ((0, 1), (1, 0))])
    def test_verdict_stable_under_torus_basis_change(self, u):
        base = glued_torus_su_datum(3, 2)
        moved = LieDatum(2, base.factors, [
            (s, tuple(sum(u[r][c] * t.coords[c] for c in range(2)) % 1
                      for r in range(2)))
            for s, t in base.generators])
        assert largest_compact_verdict(moved).kind == \
            largest_compact_verdict(base).kind


class TestWitnessFamily:
    def test_family_of_involutions(self):
        fam = torus2_automorphism_family_witness(
            BLOCK_ROT3, BLOCK_B1, BLOCK_B2, 20)
        assert len(fam.witnesses) == 21
        assert not fam.degenerate
        for n, w in enumerate(fam.witnesses):
            assert mat_mul(w, w) == tuple(
                tuple(int(i == j) for j in range(4)) for i in range(4))
            assert mat_mul(w, BLOCK_ROT3) == mat_mul(BLOCK_ROT3, w)
            assert w[0][2] == 2 * n

    def test_identity_conjugator_is_degenerate(self):
        ident = tuple(tuple(int(i == j) for j in range(4)) for i in range(4))
        fam = torus2_automorphism_family_witness(BLOCK_ROT3, BLOCK_B1, ident, 20)
        assert fam.witnesses == (BLOCK_B1,)
        assert fam.degenerate

    def test_noncommuting_b1_rejected(self):
        bad = ((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(DoesNotCommute):
            torus2_automorphism_family_witness(BLOCK_ROT3, bad, BLOCK_B2, 5)

    def test_noncommuting_b2_rejected(self):
        bad = ((1, 0, 1, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1))
        with pytest.raises(DoesNotCommute):
            torus2_automorphism_family_witness(BLOCK_ROT3, BLOCK_B1, bad, 5)

    def test_wrong_order_rejected(self):
        with pytest.raises(WrongOrder):
            torus2_automorphism_family_witness(
                BLOCK_ROT3, BLOCK_ROT3, BLOCK_B2, 5)

    def test_non_unimodular_conjugator_rejected(self):
        twice = tuple(tuple(2 * int(i == j) for j in range(4)) for i in range(4))
        with pytest.raises(NotUnimodular):
            torus2_automorphism_family_witness(BLOCK_ROT3, BLOCK_B1, twice, 5)


class TestCentralizer:
    def test_rotation_centralizer_is_whole_group(self):
        ambient = generated_group([ROT3, NEG2])
        assert ambient.order == 6
        cen = centralizer_in_finite_group(ROT3, ambient)
        assert cen == ambient.elements

    def test_centralizer_is_cyclic_generated_by_negated_rotation(self):
        ambient = generated_group([ROT3, NEG2])
        cen = centralizer_in_finite_group(ROT3, ambient)
        gen = tuple(tuple(-x for x in row) for row in ROT3)
        powers = set()
        cur = gen
        for _ in range(6):
            powers.add(cur)
            cur = mat_mul(cur, gen)
        assert powers == cen

    def test_central_elements_centralize_everything(self):
        ambient = generated_group([ROT3, NEG2])
        ident = ((1, 0), (0, 1))
        assert centralizer_in_finite_group(ident, ambient) == ambient.elements
        assert centralizer_in_finite_group(NEG2, ambient) == ambient.elements

    def test_proper_centralizer_in_nonabelian_group(self):
        swap = ((0, 1), (1, 0))
        refl = ((1, 0), (0, -1))
        ambient = generated_group([swap, refl])
        assert ambient.order == 8
        cen = centralizer_in_finite_group(refl, ambient)
        assert len(cen) == 4
        assert cen < ambient.elements

    def test_outsider_rejected(self):
        ambient = generated_group([ROT3, NEG2])
        with pytest.raises(NotMember):
            centralizer_in_finite_group(((1, 1), (0, 1)), ambient)

    @pytest.mark.invariant
    def test_unclosed_ambient_raises(self):
        # a real group's centralizer is closed; build a set that is not one
        ident = ((1, 0), (0, 1))
        fake = MatrixGroupResult(finite=True, rank=2, order=2,
                                 elements=frozenset({ident, ROT3}))
        with pytest.raises(InvariantViolation):
            centralizer_in_finite_group(ROT3, fake)

    def test_infinite_ambient_rejected(self):
        infinite = generated_group([((1, 1), (0, 1))])
        assert not infinite.finite
        with pytest.raises(NotMember):
            centralizer_in_finite_group(((1, 1), (0, 1)), infinite)


class TestReadyMadeData:
    def test_glued_requires_strict_parameters(self):
        with pytest.raises(SchemaError):
            glued_torus_su_datum(2, 2)
        with pytest.raises(SchemaError):
            glued_torus_su_datum(2, 3)

    def test_glued_factor_types(self):
        d = glued_torus_su_datum(3, 2)
        assert [str(f) for f in d.factors] == ["A26", "A8"]
