"""Amalgamated word machine, pseudometric DP, and split-family checks."""

import itertools
import random
import time
from fractions import Fraction

import numpy as np
import pytest

from bohrsound.errors import (
    AmalgamNotTrivial,
    DimensionMismatch,
    DisagreeOnAmalgam,
    InvalidLetter,
    NonzeroAtIdentity,
    NotAnAction,
    NotClassFunction,
    NotInjective,
    NotSubadditive,
    NotSymmetric,
    SourceMismatch,
)
from bohrsound.groups import (
    GroupHom,
    alternating,
    cyclic,
    dihedral,
    heisenberg,
    klein_four,
    symmetric,
    trivial_group,
    validate_action,
)
from bohrsound.amalgam import (
    AmalgamSpec,
    FiniteTarget,
    LengthFunction,
    MatrixTarget,
    NormalForm,
    TorusSemidirectTarget,
    bohr_lipschitz_check,
    coproduct_pseudometric,
    discrete_length,
    eval_hom,
    free_product,
    intersection_check,
    length_function_validate,
    matrix_pullback_length,
    normal_form,
    padded_regular_representation,
    pseudometric_distance,
    regular_pullback_length,
    sl2z_amalgam,
    sl2z_matrix_target,
    split_decomposition_check,
    word_equal,
    word_inverse,
)

from bohrsound.soundness import soundness_verdict

from oracles import (
    actions_loop,
    coproduct_pseudometric_dict,
    identity_hom,
    length_function_validate_loop,
    pseudometric_oracle,
    split_machines_agree,
)

INVERT3 = [[0, 1, 2], [0, 2, 1]]


def random_word(rng, spec, max_len):
    length = rng.randrange(max_len + 1)
    out = []
    for _ in range(length):
        i = rng.randrange(spec.n_factors)
        out.append((i, rng.randrange(spec.factors[i].order)))
    return tuple(out)


class TestSpecConstruction:
    def test_sl2z_transversals(self):
        spec = sl2z_amalgam()
        assert spec.transversals == [(0, 1), (0, 1, 2)]

    def test_coset_decomposition_covers(self):
        spec = sl2z_amalgam()
        for i, fac in enumerate(spec.factors):
            emb = spec.injections[i]
            for g in range(fac.order):
                h = spec.head_of[i][g]
                t = spec.rep_of[i][g]
                assert fac.op(emb(h), t) == g
                assert t in spec.transversals[i]

    def test_injection_must_be_injective(self):
        z2 = cyclic(2)
        z4 = cyclic(4)
        with pytest.raises(NotInjective):
            AmalgamSpec(z2, [z4], [GroupHom(z2, z4, [0, 0])])

    def test_endpoint_mismatch(self):
        z2 = cyclic(2)
        z4 = cyclic(4)
        z6 = cyclic(6)
        good = GroupHom(z2, z4, [0, 2])
        with pytest.raises(SourceMismatch):
            AmalgamSpec(z2, [z6], [good])

    def test_needs_a_factor(self):
        with pytest.raises(SourceMismatch):
            AmalgamSpec(trivial_group(), [], [])

    def test_word_validation(self):
        spec = sl2z_amalgam()
        with pytest.raises(InvalidLetter):
            spec.check_word([(2, 0)])
        with pytest.raises(InvalidLetter):
            spec.check_word([(0, 4)])


class TestNormalForm:
    def test_empty_word(self):
        spec = sl2z_amalgam()
        nf = normal_form(spec, [])
        assert nf == NormalForm(0, ())
        assert nf.is_identity

    def test_amalgam_squares_cancel(self):
        spec = sl2z_amalgam()
        assert normal_form(spec, [(0, 2), (1, 3)]).is_identity

    def test_mixed_letters_stay(self):
        spec = sl2z_amalgam()
        nf = normal_form(spec, [(0, 1), (1, 1)])
        assert nf.head == 0 and len(nf.tail) == 2

    def test_head_extraction(self):
        spec = sl2z_amalgam()
        # b^4 = b^3 * b pushes the shared involution into the head
        assert normal_form(spec, [(1, 4)]) == NormalForm(1, ((1, 1),))

    def test_same_factor_merge(self):
        spec = sl2z_amalgam()
        assert word_equal(spec, [(0, 1), (0, 1)], [(0, 2)])

    def test_idempotent(self):
        spec = sl2z_amalgam()
        rng = random.Random(3)
        for _ in range(120):
            w = random_word(rng, spec, 8)
            nf = normal_form(spec, w)
            assert normal_form(spec, nf.as_word(spec)) == nf

    def test_tail_letters_are_reduced(self):
        spec = sl2z_amalgam()
        rng = random.Random(5)
        for _ in range(120):
            nf = normal_form(spec, random_word(rng, spec, 8))
            for (i, t), (j, _) in zip(nf.tail, nf.tail[1:]):
                assert i != j
            for i, t in nf.tail:
                assert t != 0 and t in spec.transversals[i]


class TestWordEqual:
    def test_reflexive(self):
        spec = sl2z_amalgam()
        rng = random.Random(11)
        for _ in range(40):
            w = random_word(rng, spec, 6)
            assert word_equal(spec, w, w)

    def test_shared_involution(self):
        spec = sl2z_amalgam()
        assert word_equal(spec, [(0, 2)], [(1, 3)])

    def test_noncommuting(self):
        spec = sl2z_amalgam()
        assert not word_equal(spec, [(0, 1), (1, 1)], [(1, 1), (0, 1)])

    def test_congruence(self):
        spec = sl2z_amalgam()
        rng = random.Random(17)
        for _ in range(60):
            w1 = random_word(rng, spec, 5)
            w2 = normal_form(spec, w1).as_word(spec)
            u = random_word(rng, spec, 3)
            v = random_word(rng, spec, 3)
            assert word_equal(spec, u + w1 + v, u + w2 + v)

    def test_inverse_cancels(self):
        spec = sl2z_amalgam()
        rng = random.Random(23)
        for _ in range(60):
            w = random_word(rng, spec, 6)
            assert normal_form(spec, w + word_inverse(spec, w)).is_identity


class TestIntersection:
    def test_sl2z(self):
        rep = intersection_check(sl2z_amalgam())
        assert rep.ok and rep.order == 2

    def test_degenerate_all_equal(self):
        z2 = cyclic(2)
        spec = AmalgamSpec(z2, [z2, z2], [identity_hom(z2), identity_hom(z2)])
        rep = intersection_check(spec)
        assert rep.ok and rep.order == 2

    def test_trivial_amalgam(self):
        spec = free_product([cyclic(2), cyclic(3)])
        rep = intersection_check(spec)
        assert rep.ok and rep.order == 1

    def test_needs_two_factors(self):
        z2 = cyclic(2)
        z4 = cyclic(4)
        spec = AmalgamSpec(z2, [z4], [GroupHom(z2, z4, [0, 2])])
        with pytest.raises(SourceMismatch):
            intersection_check(spec)


class TestEvalHom:
    def test_identity_word(self):
        spec = sl2z_amalgam()
        tgt = sl2z_matrix_target()
        assert eval_hom(spec, [], tgt) == ((1, 0), (0, 1))

    def test_amalgam_relation(self):
        spec = sl2z_amalgam()
        tgt = sl2z_matrix_target()
        assert eval_hom(spec, [(0, 2), (1, 3)], tgt) == ((1, 0), (0, 1))
        assert eval_hom(spec, [(0, 2)], tgt) == ((-1, 0), (0, -1))

    def test_modular_target(self):
        spec = sl2z_amalgam()
        tgt = sl2z_matrix_target(modulus=5)
        assert eval_hom(spec, [(0, 2)], tgt) == ((4, 0), (0, 4))

    def test_respects_normal_form(self):
        spec = sl2z_amalgam()
        tgt = sl2z_matrix_target()
        rng = random.Random(29)
        for _ in range(100):
            w = random_word(rng, spec, 7)
            nf = normal_form(spec, w).as_word(spec)
            assert eval_hom(spec, w, tgt) == eval_hom(spec, nf, tgt)

    def test_disagree_on_amalgam(self):
        spec = sl2z_amalgam()
        ident = ((1, 0), (0, 1))
        bad = MatrixTarget(2, [[ident] * 4, sl2z_matrix_target().maps[1]])
        with pytest.raises(DisagreeOnAmalgam):
            eval_hom(spec, [(0, 1)], bad)

    def test_finite_target(self):
        spec = free_product([cyclic(2), cyclic(3)])
        s3 = symmetric(3)
        transposition = next(g for g in range(6) if s3.element_order(g) == 2)
        threecycle = next(g for g in range(6) if s3.element_order(g) == 3)
        tgt = FiniteTarget(s3, [
            [0, transposition],
            [0, threecycle, s3.op(threecycle, threecycle)],
        ])
        got = eval_hom(spec, [(0, 1), (1, 1)], tgt)
        assert got == s3.op(transposition, threecycle)

    def test_torus_semidirect_target(self):
        spec = free_product([cyclic(2)])
        tgt = TorusSemidirectTarget(1, [[
            ((0,), ((1,),)),
            ((Fraction(1, 2),), ((-1,),)),
        ]])
        point, matrix = eval_hom(spec, [(0, 1), (0, 1)], tgt)
        assert point == (Fraction(0),)
        assert matrix == ((1,),)

    def test_map_length_checked(self):
        spec = sl2z_amalgam()
        short = MatrixTarget(2, [sl2z_matrix_target().maps[0][:3],
                                 sl2z_matrix_target().maps[1]])
        with pytest.raises(SourceMismatch):
            eval_hom(spec, [], short)


class TestLengthFunctions:
    def test_discrete_valid(self):
        lf = discrete_length(symmetric(3))
        assert lf.values[0] == 0
        assert all(v == 1 for v in lf.values[1:])

    def test_constructed_lengths_pass_the_validator(self, corpus):
        # both constructors skip the validator, being valid by construction
        for g in corpus:
            for make in (discrete_length, regular_pullback_length):
                lf = make(g)
                assert length_function_validate(lf) is lf

    def test_regular_pullback_values(self):
        lf = regular_pullback_length(symmetric(3))
        sqrt3_up = Fraction(1816187, 1048576)
        for g in range(6):
            order = lf.group.element_order(g)
            want = {1: Fraction(0), 2: Fraction(2), 3: sqrt3_up}[order]
            assert lf.values[g] == want

    def test_even_orders_hit_two(self):
        lf = regular_pullback_length(cyclic(4))
        assert lf.values == (Fraction(0), Fraction(2), Fraction(2), Fraction(2))

    def test_nonzero_at_identity(self):
        with pytest.raises(NonzeroAtIdentity):
            length_function_validate(
                LengthFunction(cyclic(2), (Fraction(1), Fraction(1))))

    def test_not_symmetric(self):
        with pytest.raises(NotSymmetric):
            length_function_validate(
                LengthFunction(cyclic(3), (Fraction(0), Fraction(1), Fraction(2))))

    def test_not_class_function(self):
        s3 = symmetric(3)
        transpositions = [g for g in range(6) if s3.element_order(g) == 2]
        values = [Fraction(2)] * 6
        values[0] = Fraction(0)
        values[transpositions[0]] = Fraction(1)
        with pytest.raises(NotClassFunction):
            length_function_validate(LengthFunction(s3, tuple(values)))

    def test_not_subadditive(self):
        values = (Fraction(0), Fraction(1), Fraction(3), Fraction(1))
        with pytest.raises(NotSubadditive):
            length_function_validate(LengthFunction(cyclic(4), values))

    @pytest.mark.parametrize("make", [
        lambda: cyclic(12), lambda: symmetric(4), lambda: dihedral(15),
        lambda: heisenberg(2), lambda: alternating(5)],
        ids=["Z12", "S4", "D15", "H2", "A5"])
    def test_regular_length_matches_matrix_route(self, make):
        # read off element orders, as the cycle lengths of the matrices
        g = make()
        assert regular_pullback_length(g) == matrix_pullback_length(
            g, padded_regular_representation(g, g.order))

    def test_validation_matches_pairwise_loop(self):
        # valid lengths with one or two values moved, some scaled past int64:
        # the same verdict and the same first witness as the loop over pairs
        rng = random.Random(5)
        groups = [cyclic(6), symmetric(3), dihedral(4), klein_four(),
                  heisenberg(1), alternating(4)]
        seen = set()
        for _ in range(400):
            g = rng.choice(groups)
            make = rng.choice((discrete_length, regular_pullback_length))
            values = list(make(g).values)
            for _ in range(rng.randint(0, 2)):
                values[rng.randrange(1, g.order)] = \
                    Fraction(rng.randint(0, 8), rng.choice((1, 2, 3)))
            scale = rng.choice((1, 2 ** 70))
            lf = LengthFunction(g, tuple(v * scale for v in values))
            outcomes = []
            for check in (length_function_validate,
                          length_function_validate_loop):
                try:
                    outcomes.append(check(lf))
                except (NotSymmetric, NotClassFunction, NotSubadditive) as exc:
                    outcomes.append((type(exc), exc.witness))
            assert outcomes[0] == outcomes[1]
            seen.add(outcomes[0][0] if isinstance(outcomes[0], tuple)
                     else LengthFunction)
        assert seen == {LengthFunction, NotSymmetric, NotClassFunction,
                        NotSubadditive}

    def test_padding_requires_room(self):
        with pytest.raises(DimensionMismatch):
            padded_regular_representation(symmetric(3), 4)

    def test_padded_rep_is_homomorphism(self):
        g = symmetric(3)
        rep = padded_regular_representation(g, 8)
        rng = random.Random(7)
        for _ in range(30):
            a, b = rng.randrange(6), rng.randrange(6)
            assert np.array_equal(rep[g.op(a, b)], rep[a] @ rep[b])

    def test_pullback_rejects_non_permutation(self):
        bad = np.zeros((2, 2, 2), dtype=np.int64)
        bad[0] = np.eye(2)
        bad[1] = [[1, 1], [0, 0]]
        with pytest.raises(DimensionMismatch):
            matrix_pullback_length(cyclic(2), bad)


class TestPseudometric:
    def setup_method(self):
        self.z2a = cyclic(2)
        self.z2b = cyclic(2)
        self.spec = free_product([self.z2a, self.z2b])
        self.lengths = [discrete_length(self.z2a), discrete_length(self.z2b)]

    def test_empty_word(self):
        assert coproduct_pseudometric(self.spec, self.lengths, []) == 0

    def test_single_letter(self):
        assert coproduct_pseudometric(self.spec, self.lengths, [(0, 1)]) == 1

    def test_two_letters(self):
        got = coproduct_pseudometric(self.spec, self.lengths, [(0, 1), (1, 1)])
        assert got == 2

    def test_three_letters(self):
        word = [(0, 1), (1, 1), (0, 1)]
        assert coproduct_pseudometric(self.spec, self.lengths, word) == 1

    def test_requires_trivial_amalgam(self):
        spec = sl2z_amalgam()
        lengths = [discrete_length(f) for f in spec.factors]
        with pytest.raises(AmalgamNotTrivial):
            coproduct_pseudometric(spec, lengths, [])

    def test_length_alignment(self):
        with pytest.raises(DimensionMismatch):
            coproduct_pseudometric(self.spec, self.lengths[:1], [])
        with pytest.raises(SourceMismatch):
            coproduct_pseudometric(
                self.spec,
                [discrete_length(cyclic(2)), self.lengths[1]], [])

    def test_matches_oracle_sample(self):
        rng = random.Random(42)
        groups = [cyclic(2), cyclic(3), cyclic(4), klein_four()]
        for ga, gb in itertools.combinations(groups, 2):
            spec = free_product([ga, gb])
            for maker in (discrete_length, regular_pullback_length):
                lengths = [maker(ga), maker(gb)]
                raw = [lf.values for lf in lengths]
                for _ in range(12):
                    w = random_word(rng, spec, 4)
                    assert coproduct_pseudometric(spec, lengths, w) == \
                        pseudometric_oracle([ga, gb], raw, w)

    def test_axioms_on_samples(self):
        spec = free_product([cyclic(3), cyclic(4)])
        lengths = [regular_pullback_length(f) for f in spec.factors]
        rng = random.Random(19)
        words = [random_word(rng, spec, 3) for _ in range(8)]
        for w in words:
            assert pseudometric_distance(spec, lengths, w, w) == 0
        for w1, w2 in itertools.combinations(words, 2):
            d12 = pseudometric_distance(spec, lengths, w1, w2)
            assert d12 == pseudometric_distance(spec, lengths, w2, w1)
        for w1, w2, w3 in itertools.combinations(words[:6], 3):
            d13 = pseudometric_distance(spec, lengths, w1, w3)
            d12 = pseudometric_distance(spec, lengths, w1, w2)
            d23 = pseudometric_distance(spec, lengths, w2, w3)
            assert d13 <= d12 + d23

    def test_bi_invariance(self):
        spec = free_product([cyclic(3), cyclic(4)])
        lengths = [discrete_length(f) for f in spec.factors]
        rng = random.Random(31)
        for _ in range(15):
            w1 = random_word(rng, spec, 3)
            w2 = random_word(rng, spec, 3)
            u = random_word(rng, spec, 2)
            base = pseudometric_distance(spec, lengths, w1, w2)
            assert pseudometric_distance(spec, lengths, u + w1, u + w2) == base
            assert pseudometric_distance(spec, lengths, w1 + u, w2 + u) == base

    def test_discreteness(self):
        spec = free_product([cyclic(4), klein_four()])
        lengths = [discrete_length(f) for f in spec.factors]
        rng = random.Random(37)
        for _ in range(60):
            w = random_word(rng, spec, 4)
            d = coproduct_pseudometric(spec, lengths, w)
            if normal_form(spec, w).is_identity:
                assert d == 0
            else:
                assert d >= 1


SMALL_FACTORS = [cyclic(2), cyclic(3), cyclic(4), symmetric(3), klein_four()]


class TestVectorizedDP:
    """The numpy interval DP against the dict DP it replaced."""

    @staticmethod
    def cases():
        for ga, gb in itertools.combinations(SMALL_FACTORS, 2):
            spec = free_product([ga, gb])
            for maker in (discrete_length, regular_pullback_length):
                yield spec, [maker(ga), maker(gb)]

    def test_random_words_up_to_24(self):
        rng = random.Random(2024)
        for spec, lengths in self.cases():
            words = [random_word(rng, spec, m) for m in (6, 12, 24)]
            words.append(tuple((i, rng.randrange(spec.factors[i].order))
                               for i in (rng.randrange(2) for _ in range(24))))
            for w in words:
                assert coproduct_pseudometric(spec, lengths, w) == \
                    coproduct_pseudometric_dict(spec, lengths, w)

    def test_empty_single_and_identity_letters(self):
        rng = random.Random(7)
        for spec, lengths in self.cases():
            singles = [((i, x),) for i in range(2)
                       for x in range(spec.factors[i].order)]
            identities = [((i, 0),) * k for i in range(2) for k in (2, 3)]
            mixed = [tuple((rng.randrange(2), 0) if rng.random() < 0.5 else
                           letter for letter in random_word(rng, spec, 10))
                     for _ in range(4)]
            for w in [()] + singles + identities + mixed:
                assert coproduct_pseudometric(spec, lengths, w) == \
                    coproduct_pseudometric_dict(spec, lengths, w)

    def test_three_factors(self):
        rng = random.Random(11)
        spec = free_product([cyclic(2), symmetric(3), klein_four()])
        lengths = [regular_pullback_length(f) for f in spec.factors]
        for _ in range(12):
            w = random_word(rng, spec, 14)
            assert coproduct_pseudometric(spec, lengths, w) == \
                coproduct_pseudometric_dict(spec, lengths, w)

    def test_python_int_path_beyond_int64(self):
        z3, s3 = cyclic(3), symmetric(3)
        eps = Fraction(1, 2 ** 70)
        l3 = length_function_validate(
            LengthFunction(z3, (Fraction(0), 1 + eps, 1 + eps)))
        l6 = length_function_validate(LengthFunction(s3, tuple(
            Fraction(0) if g == 0 else
            Fraction(2) - eps if s3.element_order(g) == 2 else
            Fraction(3, 2) + 3 * eps for g in range(6))))
        spec = free_product([z3, s3])
        lengths = [l3, l6]
        rng = random.Random(70)
        words = [random_word(rng, spec, 12) for _ in range(20)]
        words.append(((0, 1), (1, 1), (0, 2), (1, 3)))
        for w in words:
            assert coproduct_pseudometric(spec, lengths, w) == \
                coproduct_pseudometric_dict(spec, lengths, w)
        # the exact answer's numerator and denominator both exceed int64
        got = coproduct_pseudometric(spec, lengths, words[-1])
        assert got.numerator > 2 ** 63 and got.denominator > 2 ** 63

    def test_conjugate_word_of_length_65(self):
        z3, s3 = cyclic(3), symmetric(3)
        spec = free_product([z3, s3])
        lengths = [discrete_length(z3), discrete_length(s3)]
        rng = random.Random(65)
        u = [(i % 2, rng.randrange(1, spec.factors[i % 2].order))
             for i in range(31)]
        x = ((0, 1), (1, 3), (0, 2))
        word = tuple(u) + x + word_inverse(spec, u)
        assert len(word) == 65
        start = time.perf_counter()
        got = coproduct_pseudometric(spec, lengths, word)
        elapsed = time.perf_counter() - start
        assert got == pseudometric_oracle(
            [z3, s3], [lf.values for lf in lengths], x)
        assert elapsed < 1.0


class TestBohrLipschitz:
    def setup_method(self):
        self.s3 = symmetric(3)
        self.z4 = cyclic(4)
        self.spec = free_product([self.s3, self.z4])
        self.reps = [padded_regular_representation(self.s3, 6),
                     padded_regular_representation(self.z4, 6)]

    def test_equal_words(self):
        w = [(0, 1), (1, 2)]
        rec = bohr_lipschitz_check(self.spec, self.reps, w, w)
        assert not rec.vacuous
        assert rec.delta == 0
        assert rec.opnorm <= 1e-9
        assert rec.holds

    def test_rewritten_pairs_hold(self):
        rng = random.Random(41)
        for _ in range(25):
            w1 = random_word(rng, self.spec, 4)
            w2 = []
            for i, x in w1:
                fac = self.spec.factors[i]
                y = rng.randrange(fac.order)
                w2.append((i, fac.op(x, fac.inverse(y))))
                w2.append((i, y))
            rec = bohr_lipschitz_check(self.spec, self.reps, w1, tuple(w2))
            assert not rec.vacuous and rec.holds

    def test_distinct_words_vacuous(self):
        rec = bohr_lipschitz_check(self.spec, self.reps, [(0, 1)], [(1, 2)])
        assert rec.vacuous
        assert rec.delta >= 1
        assert rec.holds is None

    def test_dimension_mismatch(self):
        reps = [padded_regular_representation(self.s3, 6),
                padded_regular_representation(self.z4, 4)]
        with pytest.raises(DimensionMismatch):
            bohr_lipschitz_check(self.spec, reps, [], [])


def split_family(h, members):
    """The exact check passes, and the two-machine oracle agrees."""
    split_decomposition_check(h, members)
    assert split_machines_agree(h, members)


# N in {Z2..Z7, V4, S3}, H in {1, Z2, Z3, Z4}: every action found by brute force
SWEEP_NORMALS = [cyclic(n) for n in range(2, 8)] + [klein_four(), symmetric(3)]
SWEEP_ACTING = [trivial_group()] + [cyclic(n) for n in range(2, 5)]


class TestSplitFamilies:
    def test_single_member_sound(self):
        split_family(cyclic(2), [(cyclic(3), INVERT3)])

    def test_inverting_pair(self):
        split_family(cyclic(2), [(cyclic(3), INVERT3), (cyclic(3), INVERT3)])

    def test_growing_orbit_family_still_sound(self):
        split_family(cyclic(2), [
            (cyclic(2), [[0, 1], [0, 1]]),
            (cyclic(3), INVERT3),
            (cyclic(5), [[0, 1, 2, 3, 4], [0, 4, 3, 2, 1]]),
        ])

    def test_trivial_acting_group(self):
        split_family(trivial_group(), [(cyclic(3), [[0, 1, 2]]),
                                       (cyclic(2), [[0, 1]])])

    def test_empty_family(self):
        split_family(cyclic(2), [])

    def test_bad_action(self):
        with pytest.raises(NotAnAction):
            split_decomposition_check(
                cyclic(2), [(cyclic(3), [[0, 1, 2], [1, 2, 0]])])

    def test_each_action_validated_once(self, monkeypatch):
        calls = []

        def counting(normal, acting, action):
            calls.append(normal.order)
            return validate_action(normal, acting, action)

        monkeypatch.setattr("bohrsound.amalgam.validate_action", counting)
        monkeypatch.setattr("bohrsound.groups.validate_action", counting)
        request = {"schema": 1, "kind": "split-family",
                   "kernel": {"kind": "cyclic", "n": 2},
                   "members": [
                       {"normal": {"kind": "cyclic", "n": 3}, "action": INVERT3},
                       {"normal": {"kind": "cyclic", "n": 2},
                        "action": [[0, 1], [0, 1]]}]}
        assert soundness_verdict(request).verdict == "Sound"
        assert sorted(calls) == [2, 3]

    def test_nonabelian_factor(self):
        s3 = symmetric(3)
        split_family(cyclic(2), [(s3, [list(range(6)), list(range(6))])])

    def test_machines_agree_on_every_small_action(self):
        for h in SWEEP_ACTING:
            for normal in SWEEP_NORMALS:
                for act in actions_loop(normal, h):
                    split_family(h, [(normal, act)])

    @pytest.mark.parametrize("seed", range(12))
    def test_machines_agree_on_seeded_families(self, seed):
        rng = random.Random(seed)
        h = SWEEP_ACTING[seed % len(SWEEP_ACTING)]
        members = []
        for _ in range(rng.randint(2, 3)):
            normal = rng.choice(SWEEP_NORMALS)
            members.append((normal, rng.choice(actions_loop(normal, h))))
        split_family(h, members)
