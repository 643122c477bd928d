"""Group core: construction, validation, subgroups, actions, abelian structure."""

import itertools
import pickle
import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from bohrsound import config, errors
from bohrsound.amalgam import TorusSemidirectTarget
from bohrsound.descriptors import torus_point
from bohrsound.errors import (
    BohrsoundError,
    NoIdentity,
    NoInverse,
    NonAssociative,
    NotAnAction,
    NotASubgroup,
    NotInjective,
    NotNormal,
    SchemaError,
    SizeLimit,
    SourceMismatch,
)
from bohrsound.groups import (
    FiniteAbelian,
    FiniteGroup,
    GroupHom,
    Subgroup,
    abelian_from_orders,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    group_from_table,
    heisenberg,
    klein_four,
    reachable,
    semidirect,
    symmetric,
    trivial_group,
    validate_action,
)
from bohrsound.lie import LieDatum, SimpleType

from conftest import multiplication_action
from oracles import (
    all_subgroups,
    alternating_table_loop,
    associativity_failures,
    automorphisms_loop,
    center,
    closure,
    compose,
    abelian_from_orders_pairwise,
    conjugacy_classes_loop,
    derived_subgroup,
    element_orders_stepping,
    graph_of_rows,
    group_element_order_loop,
    identity_hom,
    invariant_factors_by_primes,
    is_action_loop,
    is_normal,
    iso_signature,
    normal_subgroups,
    preimage,
    require_normal,
    symmetric_table_loop,
)

# 5x5 loop: latin square, two-sided identity and inverses, but (1*1)*2 != 1*(1*2)
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]

# identity 0, 1 its own inverse, 2 and 3 each other's; but row 1 repeats 1,
# so 1 (1 2) = 0 differs from (1 1) 2 = 2: not a Latin square, not associative
NON_LATIN_MAGMA = [
    [0, 1, 2, 3],
    [1, 0, 1, 1],
    [2, 1, 3, 0],
    [3, 1, 0, 2],
]


def one_involution_magma(group) -> np.ndarray:
    """group plus one element u with u u = e and u g = g u = u for g != e.

    It has an identity and two-sided inverses but is not a Latin square.  Its
    non-associative triples are (u, u, g) and (g, u, u) for g not in {e, u}:
    2(n - 2) of the n^3, and at n = 4 an exhaustive search finds no table
    with identity and inverses that has fewer.
    """
    n = group.order + 1
    table = np.full((n, n), n - 1)
    table[:-1, :-1] = group.mul
    table[0] = table[:, 0] = np.arange(n)
    table[-1, -1] = 0
    return table


def loop_times_group(loop, group) -> np.ndarray:
    """Direct product of a loop table and a group: a Latin square with identity 0."""
    loop = np.asarray(loop)
    m = group.order
    il, ig = np.divmod(np.arange(len(loop) * m), m)
    return loop[np.ix_(il, il)] * m + group.mul[np.ix_(ig, ig)]


def assert_fails_at(table, triple):
    t = np.asarray(table)
    a, b, c = triple
    assert t[t[a, b], c] != t[a, t[b, c]]


class TestConstruction:
    def test_z2_from_table(self):
        g = group_from_table([[0, 1], [1, 0]])
        assert g.order == 2
        assert g.op(1, 1) == 0

    def test_no_inverse(self):
        with pytest.raises((NoInverse, NoIdentity)):
            group_from_table([[0, 1], [1, 1]])

    def test_non_associative(self):
        with pytest.raises(NonAssociative):
            group_from_table(NONASSOC_LOOP)

    def test_cyclic_table_has_no_int64_temporary(self):
        # the 64 MiB int32 table of Z4096 is built in place; two n^2 int64
        # temporaries once took its peak to 256 MiB
        tracemalloc.start()
        try:
            g = cyclic(config.GROUP_MAX_ORDER)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 100 << 20
        assert g.mul.dtype == np.int32
        for n in (1, 2, 7, 12):
            idx = np.arange(n)
            assert np.array_equal(cyclic(n).mul, (idx[:, None] + idx) % n)

    def test_identity_relocation(self):
        z3 = cyclic(3)
        perm = [2, 0, 1]  # relabel so the identity lands at index 1
        inv = [perm.index(i) for i in range(3)]
        shuffled = [[perm[z3.op(inv[i], inv[j])] for j in range(3)] for i in range(3)]
        g = group_from_table(shuffled)
        assert g.op(0, 1) == 1
        assert iso_signature(g) == iso_signature(z3)

    def test_identity_relocation_keeps_labels(self):
        # S3 with its identity moved to index 4: each label stays with its
        # element, and label_index finds it again
        s3 = symmetric(3)
        perm = [4, 0, 1, 2, 3, 5]  # s3's element i sits at index perm[i]
        inv = [perm.index(i) for i in range(6)]
        table = [[perm[s3.op(inv[i], inv[j])] for j in range(6)]
                 for i in range(6)]
        labels = [f"s{inv[i]}" for i in range(6)]
        g = group_from_table(table, labels=labels)
        assert g.labels[0] == "s0"
        assert sorted(g.labels) == sorted(labels)
        for i, j in itertools.product(range(6), repeat=2):
            a, b = (int(g.labels[x][1:]) for x in (i, j))
            assert g.labels[g.op(i, j)] == f"s{s3.op(a, b)}"
        for i, label in enumerate(g.labels):
            assert g.label_index(label) == i

    def test_moufang_loop_fails_only_lights_test(self):
        # Chein's M(S3, 2), order 12: (g, 0)(h, 0) = (g h, 0),
        # (g, 0)(h, 1) = (h g, 1), (g, 1)(h, 0) = (g h^-1, 1) and
        # (g, 1)(h, 1) = (h^-1 g, 0), with (g, i) at index g + 6 i.  It is a
        # loop with both inverse properties, so only the associative-middle
        # check on the greedy generators can refuse it
        s3 = symmetric(3)
        op, inv = s3.op, s3.inverse
        rules = {(0, 0): lambda g, h: (op(g, h), 0),
                 (0, 1): lambda g, h: (op(h, g), 1),
                 (1, 0): lambda g, h: (op(g, inv(h)), 1),
                 (1, 1): lambda g, h: (op(inv(h), g), 0)}
        table = np.empty((12, 12), dtype=np.int64)
        for x, y in itertools.product(range(12), repeat=2):
            prod, side = rules[x // 6, y // 6](x % 6, y % 6)
            table[x, y] = prod + 6 * side
        idx = np.arange(12)
        loop_inv = np.argmax(table == 0, axis=1)
        assert (table[loop_inv[:, None], table] == idx).all()  # a^-1 (a y) = y
        assert (table[table, loop_inv] == idx[:, None]).all()  # (y a) a^-1 = y
        with pytest.raises(NonAssociative) as info:
            group_from_table(table)
        assert_fails_at(table, info.value.witness)

    def test_out_of_range_entries(self):
        with pytest.raises(NotASubgroup):
            group_from_table([[0, 1], [1, 7]])

    def test_validate_group_roundtrip(self):
        s4 = symmetric(4)
        assert np.array_equal(group_from_table(s4.mul).mul, s4.mul)

    def test_large_groups_validate(self):
        for big in (direct_product(cyclic(32), cyclic(32)), dihedral(512),
                    heisenberg(3)):
            assert np.array_equal(group_from_table(big.mul).mul, big.mul)

    def test_large_non_associative_rejected(self):
        table = one_involution_magma(cyclic(1023))
        assert table.shape == (1024, 1024)
        with pytest.raises(NonAssociative) as info:
            group_from_table(table)
        assert_fails_at(table, info.value.witness)
        assert info.value.witness.count(1023) == 2

    def test_large_non_associative_loop_rejected(self):
        table = loop_times_group(NONASSOC_LOOP, cyclic(128))
        assert table.shape == (640, 640)
        with pytest.raises(NonAssociative) as info:
            group_from_table(table)
        assert_fails_at(table, info.value.witness)

    def test_non_latin_magma_rejected(self):
        with pytest.raises(NonAssociative) as info:
            group_from_table(NON_LATIN_MAGMA)
        assert_fails_at(NON_LATIN_MAGMA, info.value.witness)
        # the same magma with rows and columns transposed fails in a column
        transposed = np.array(NON_LATIN_MAGMA).T
        with pytest.raises(NonAssociative) as info:
            group_from_table(transposed)
        assert_fails_at(transposed, info.value.witness)

    def test_non_associative_witness_is_a_failing_triple(self):
        with pytest.raises(NonAssociative) as info:
            group_from_table(NONASSOC_LOOP)
        assert tuple(info.value.witness) in set(
            map(tuple, associativity_failures(NONASSOC_LOOP).tolist()))

    def test_identity_among_many_idempotents(self):
        left_zero = np.repeat(np.arange(5)[:, None], 5, axis=1)  # x y = x
        with pytest.raises(NoIdentity):
            group_from_table(left_zero)
        swap = np.array([1, 0, 2])  # Z3 relabelled: its identity sits at index 1
        with pytest.raises(NoIdentity, match="index 0"):
            FiniteGroup(swap[cyclic(3).mul[np.ix_(swap, swap)]])

    @pytest.mark.parametrize("seed", range(40))
    def test_verdicts_match_exhaustive_oracle(self, seed):
        """Perturbed small groups: rejected exactly when not a group."""
        rng = np.random.default_rng(seed)
        base = [cyclic(6), klein_four(), dihedral(4), symmetric(3),
                direct_product(cyclic(2), cyclic(4)), heisenberg(1)][seed % 6]
        table = base.mul.copy()
        n = base.order
        if seed % 2:  # swap an intercalate: the table stays a Latin square
            quads = [(r1, r2, c1, c2)
                     for r1 in range(1, n) for r2 in range(r1 + 1, n)
                     for c1 in range(1, n) for c2 in range(c1 + 1, n)
                     if table[r1, c1] == table[r2, c2]
                     and table[r1, c2] == table[r2, c1]]
            r1, r2, c1, c2 = quads[rng.integers(len(quads))]
            x, y = table[r1, c1], table[r1, c2]
            table[r1, c1] = table[r2, c2] = y
            table[r1, c2] = table[r2, c1] = x
        else:
            for _ in range(1 + seed % 3):
                table[rng.integers(1, n), rng.integers(1, n)] = rng.integers(n)
        zero = table == 0
        has_inverses = (zero & zero.T).any(axis=1).all()
        failures = set(map(tuple, associativity_failures(table).tolist()))
        if has_inverses and not failures:
            assert group_from_table(table).order == n
        elif not has_inverses:
            with pytest.raises(NoInverse):
                group_from_table(table)
        else:
            with pytest.raises(NonAssociative) as info:
                group_from_table(table)
            assert tuple(info.value.witness) in failures


def oracle_groups(corpus):
    return [*corpus, symmetric(5), symmetric(6), alternating(5), alternating(6),
            dihedral(128), heisenberg(3),
            direct_product(cyclic(8), symmetric(4))]


class TestPrimitiveOracles:
    """Whole-table passes against the per-pair and per-element loops."""

    @pytest.mark.parametrize("n", range(1, 7))
    def test_symmetric_matches_loop(self, n):
        table, labels = symmetric_table_loop(n)
        g = symmetric(n)
        assert g.mul.dtype == np.int32 and np.array_equal(g.mul, table)
        assert g.labels == tuple(labels)
        assert g.name == f"S{n}"

    @pytest.mark.parametrize("n", range(1, 7))
    def test_alternating_matches_loop(self, n):
        table, labels = alternating_table_loop(n)
        g = alternating(n)
        assert np.array_equal(g.mul, table)
        assert g.labels == tuple(labels)
        assert g.name == f"A{n}"

    def test_element_orders_match_stepping(self):
        # every builder at small sizes, orders with one, two and three primes
        z2 = cyclic(2)
        elementary = [z2]
        for _ in range(6):
            elementary.append(direct_product(elementary[-1], z2))
        z3_moved = group_from_table([[1, 2, 0], [2, 0, 1], [0, 1, 2]])
        groups = ([trivial_group(), cyclic(1), klein_four(), heisenberg(1), heisenberg(2),
                   symmetric(5), alternating(5), direct_product(cyclic(8), symmetric(4)),
                   semidirect(cyclic(7), cyclic(3), multiplication_action(7, 2, 3))[0],
                   Subgroup(cyclic(12), (0, 3, 6, 9)).materialize()[0], z3_moved]
                  + [cyclic(n) for n in range(2, 41)] + [dihedral(n) for n in range(2, 17)]
                  + [symmetric(n) for n in range(1, 5)] + [alternating(n) for n in range(1, 5)]
                  + elementary)
        for g in groups:
            assert g.element_orders == element_orders_stepping(g), g.name

    def test_element_orders_match_loop(self, corpus):
        for g in oracle_groups(corpus):
            want = tuple(group_element_order_loop(g, a) for a in range(g.order))
            assert g.element_orders == want, g.name
            assert g.element_order(g.order - 1) == want[-1]

    def test_classes_match_loop(self, corpus):
        for g in oracle_groups(corpus):
            classes = conjugacy_classes_loop(g)
            assert g.conjugacy_classes == classes, g.name
            want = np.empty(g.order, dtype=np.int32)
            for i, cls in enumerate(classes):
                want[list(cls)] = i
            assert np.array_equal(g.class_of, want)
            assert g.inverse_class == tuple(
                int(want[g.inverse(c[0])]) for c in classes)

    def test_validation_matches_exhaustive(self, corpus):
        for g in oracle_groups(corpus):
            assert np.array_equal(group_from_table(g.mul).mul, g.mul)
            if g.order <= 512:
                assert not associativity_failures(g.mul).size, g.name


class TestBasicInvariants:
    def test_orders(self):
        assert trivial_group().order == 1
        assert cyclic(7).order == 7
        assert symmetric(4).order == 24
        assert alternating(4).order == 12
        assert dihedral(6).order == 12
        assert klein_four().order == 4

    def test_class_sizes(self):
        assert sorted(len(c) for c in symmetric(3).conjugacy_classes) == [1, 2, 3]
        assert sorted(len(c) for c in symmetric(4).conjugacy_classes) == [1, 3, 6, 6, 8]
        assert sorted(len(c) for c in alternating(4).conjugacy_classes) == [1, 3, 4, 4]
        assert sorted(len(c) for c in dihedral(4).conjugacy_classes) == [1, 1, 2, 2, 2]

    def test_classes_partition_and_divide(self, corpus):
        for g in corpus:
            sizes = [len(c) for c in g.conjugacy_classes]
            assert sum(sizes) == g.order
            assert all(g.order % s == 0 for s in sizes)
            assert g.conjugacy_classes[0] == (0,)

    def test_exponent_and_element_orders(self):
        s4 = symmetric(4)
        assert s4.exponent == 12
        assert sorted(set(s4.element_orders)) == [1, 2, 3, 4]
        assert cyclic(12).exponent == 12

    def test_inverse_class(self):
        z5 = cyclic(5)
        # class of g inverts to class of g^4
        assert z5.inverse_class[1] == 4

    def test_power(self):
        z10 = cyclic(10)
        powers = list(itertools.accumulate([3] * 7, z10.op, initial=0))
        assert powers[7] == 1 and powers[0] == 0
        assert z10.inverse(3) == 7


class TestCenterAndDerived:
    def test_center_abelian(self):
        assert center(cyclic(4)).order == 4

    def test_center_s3_trivial(self):
        assert center(symmetric(3)).order == 1

    def test_heisenberg_center(self):
        for lvl in (1, 2, 3):
            z = center(heisenberg(lvl))
            assert z.order == 2 ** lvl
            grp, _ = z.materialize()
            assert grp.exponent == 2 ** lvl  # cyclic of order 2^lvl

    def test_heisenberg_derived_equals_center(self):
        for lvl in (1, 2, 3):
            g = heisenberg(lvl)
            assert derived_subgroup(g).elements == center(g).elements

    def test_derived_s4(self):
        assert len(derived_subgroup(symmetric(4)).elements) == 12


class TestReachable:
    def test_orbit_under_one_step(self):
        assert reachable([1], lambda x: [2 * x % 15]) == {1, 2, 4, 8}

    def test_several_seeds_and_successors(self):
        step = {0: [1], 1: [2, 0], 2: [], 5: [6], 6: [5]}.__getitem__
        assert reachable([0, 5], step) == {0, 1, 2, 5, 6}

    def test_seeds_without_successors(self):
        assert reachable([3, 7], lambda x: []) == {3, 7}
        assert reachable([], lambda x: [x]) == set()


class TestSubgroups:
    def test_subgroup_validation(self):
        s3 = symmetric(3)
        with pytest.raises(NotASubgroup):
            Subgroup(s3, (0, 3))  # 3-cycle without its square is not closed
        a3 = closure(s3, [3])
        assert len(a3) == 3
        assert is_normal(Subgroup(s3, a3))

    @pytest.mark.parametrize("elements", [[0, 9], [0, 6], [-1, 0]])
    def test_elements_out_of_range(self, elements):
        with pytest.raises(NotASubgroup):
            Subgroup(symmetric(3), tuple(elements))

    def test_not_normal_witness(self):
        s3 = symmetric(3)
        two = Subgroup(s3, closure(s3, [1]))
        assert two.order == 2
        assert not is_normal(two)
        with pytest.raises(NotNormal):
            require_normal(two)

    def test_materialize_inclusion(self):
        s4 = symmetric(4)
        elems = closure(s4, [s4.labels.index("1032"), s4.labels.index("2301")])
        grp, incl = Subgroup(s4, elems).materialize()
        assert grp.order == 4
        assert incl.is_injective
        assert set(incl.image) == set(elems)

    def test_all_subgroups_counts(self):
        assert len(all_subgroups(symmetric(3))) == 6
        assert len(all_subgroups(symmetric(4))) == 30
        assert len(all_subgroups(cyclic(12))) == 6  # one per divisor

    def test_normal_subgroups_counts(self):
        assert len(normal_subgroups(symmetric(3))) == 3
        assert len(normal_subgroups(symmetric(4))) == 4
        assert len(normal_subgroups(cyclic(12))) == 6

    def test_normal_subgroups_are_normal_and_closed(self, corpus_small):
        for g in corpus_small[::7]:
            for elems in normal_subgroups(g):
                assert is_normal(Subgroup(g, elems))

    def test_closure_generates(self):
        s4 = symmetric(4)
        gens = [s4.labels.index("1023"), s4.labels.index("1230")]
        assert len(closure(s4, gens)) == 24


class TestHoms:
    def test_rejects_non_hom(self):
        with pytest.raises(SourceMismatch):
            GroupHom(cyclic(3), cyclic(3), [0, 2, 2])

    def test_compose_and_identity(self):
        z6, z3 = cyclic(6), cyclic(3)
        proj = GroupHom(z6, z3, [0, 1, 2, 0, 1, 2])
        ident = identity_hom(z3)
        comp = compose(ident, proj)
        assert list(comp.mapping) == [0, 1, 2, 0, 1, 2]
        assert not proj.is_injective
        with pytest.raises(NotInjective):
            proj.require_injective()

    def test_injective_image_preimage(self):
        z2, z4 = cyclic(2), cyclic(4)
        emb = GroupHom(z2, z4, [0, 2])
        assert emb.is_injective
        assert emb.image == (0, 2)
        assert preimage(emb) == {0: 0, 2: 1}

    def test_compose_mismatch(self):
        with pytest.raises(SourceMismatch):
            compose(identity_hom(cyclic(2)), identity_hom(cyclic(3)))


# N in {Z2..Z7, V4, S3} under H in {1, Z2, Z3, Z4, V4}, and Z2..Z5 under S3
ACTION_SWEEP = [(n, h) for h in (trivial_group(), cyclic(2), cyclic(3),
                                 cyclic(4), klein_four())
                for n in [cyclic(k) for k in range(2, 8)] + [klein_four(),
                                                            symmetric(3)]]
ACTION_SWEEP += [(cyclic(k), symmetric(3)) for k in range(2, 6)]


class TestSemidirect:
    def test_inversion_gives_s3(self):
        z3, z2 = cyclic(3), cyclic(2)
        act = np.stack([np.arange(3), (-np.arange(3)) % 3])
        grp, emb_n, emb_a = semidirect(z3, z2, act)
        assert iso_signature(grp) == iso_signature(symmetric(3))
        assert emb_n.is_injective and emb_a.is_injective
        assert is_normal(Subgroup(grp, emb_n.image))

    def test_klein_by_z3_gives_a4(self):
        v4, z3 = klein_four(), cyclic(3)
        # cycle the three involutions 1 -> 2 -> 3 -> 1
        act = np.array([[0, 1, 2, 3], [0, 2, 3, 1], [0, 3, 1, 2]])
        grp, _, _ = semidirect(v4, z3, act)
        assert iso_signature(grp) == iso_signature(alternating(4))

    def test_trivial_action_is_direct_product(self):
        z4, z3 = cyclic(4), cyclic(3)
        act = np.tile(np.arange(4), (3, 1))
        grp, _, _ = semidirect(z4, z3, act)
        assert np.array_equal(grp.mul, direct_product(z4, z3).mul)

    def test_trivial_action_center(self):
        s3 = symmetric(3)
        act = np.tile(np.arange(6), (2, 1))
        grp, emb_n, emb_a = semidirect(s3, cyclic(2), act)
        central = set(center(grp).elements)
        for n in center(s3).elements:
            for a in range(2):
                assert grp.op(emb_n(n), emb_a(a)) in central

    def test_rejects_bad_action(self):
        z3 = cyclic(3)
        with pytest.raises(NotAnAction):
            semidirect(z3, cyclic(2), np.array([[0, 1, 2], [0, 2, 2]]))
        with pytest.raises(NotAnAction):
            # permutation but not an automorphism (swaps identity away)
            semidirect(z3, cyclic(2), np.array([[0, 1, 2], [1, 0, 2]]))
        with pytest.raises(NotAnAction):
            # each row fine, but not multiplicative in the acting group
            semidirect(z3, cyclic(4), np.array(
                [[0, 1, 2], [0, 2, 1], [0, 1, 2], [0, 1, 2]]))
        for bad in ([[0, 1, 2], [0, -1, -2]],  # -1, -2 would wrap
                    [[0, 1, 2], [0, 2, 1], [0, 1, 3], [0, 2, 1]]):
            # refused before any gather, in a generator's row or another's
            with pytest.raises(NotAnAction, match="out of range"):
                semidirect(z3, cyclic(len(bad)), bad)

    @pytest.mark.parametrize("entry", [2 ** 40, 2 ** 70, -1, 3],
                             ids=["2^40", "2^70", "-1", "3"])
    def test_out_of_range_entry_names_its_position(self, entry):
        # past int32 (2^40), past int64 (2^70), below 0 and just past |N|
        with pytest.raises(NotAnAction) as info:
            validate_action(cyclic(3), cyclic(2), [[0, 1, 2], [0, 2, entry]])
        assert info.value.witness == (1, 2)
        assert str(info.value) == \
            "not a group action: entries out of range (witness (1, 2))"

    def test_validate_action_matches_definition(self):
        # every tuple of automorphisms, and each action with one row swapped
        # for a random permutation: the check on generators alone must agree
        # with the definition on every pair, and name a failing pair
        rng = random.Random(5)
        for normal, acting in ACTION_SWEEP:
            auts = automorphisms_loop(normal)
            aut_set, ident = set(auts), tuple(range(normal.order))
            candidates = [(ident,) + rest for rest in itertools.product(
                auts, repeat=acting.order - 1)]
            for act in [c for c in candidates if acting.order > 1
                        and is_action_loop(acting, c, aut_set)]:
                swapped = list(act)
                swapped[rng.randrange(1, acting.order)] = tuple(
                    rng.sample(ident, len(ident)))
                candidates.append(tuple(swapped))
            for act in candidates:
                expected = is_action_loop(acting, act, aut_set)
                try:
                    validate_action(normal, acting, act)
                    accepted = True
                except NotAnAction as exc:
                    accepted = False
                    if "multiplicative" in str(exc):
                        g, a = exc.witness
                        assert tuple(act[g][y] for y in act[a]) != \
                            act[acting.op(g, a)]
                assert accepted == expected, (normal, acting, act)

    def test_direct_product_order_limit(self, monkeypatch):
        with pytest.raises(SizeLimit):
            direct_product(cyclic(64), cyclic(65))
        monkeypatch.setattr(config, "GROUP_MAX_ORDER", 12)
        assert direct_product(cyclic(3), cyclic(4)).order == 12
        with pytest.raises(SizeLimit):
            direct_product(cyclic(3), cyclic(5))

    def test_order_limit_precedes_the_action_check(self, monkeypatch):
        monkeypatch.setattr(config, "GROUP_MAX_ORDER", 12)
        assert cyclic(12).order == 12
        grp, _, _ = semidirect(cyclic(6), cyclic(2), np.tile(np.arange(6), (2, 1)))
        assert grp.order == 12
        with pytest.raises(SizeLimit):
            cyclic(13)
        with pytest.raises(SizeLimit):
            semidirect(cyclic(7), cyclic(2), [[0]])  # not even an action

    def test_multiplication_action_fixture(self):
        z5_by_z4, _, _ = semidirect(cyclic(5), cyclic(4),
                                    multiplication_action(5, 2, 4))
        assert z5_by_z4.order == 20
        assert center(z5_by_z4).order == 1


class TestHeisenberg:
    def test_orders(self):
        assert heisenberg(1).order == 8
        assert heisenberg(2).order == 64
        assert heisenberg(3).order == 512

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            heisenberg(config.HEISENBERG_MAX_LEVEL + 1)

    def test_largest_builder_order_is_the_group_limit(self):
        assert (1 << config.HEISENBERG_MAX_LEVEL) ** 3 == config.GROUP_MAX_ORDER

    def test_class_count_level3(self):
        assert len(heisenberg(3).conjugacy_classes) == 92

    def test_labels_match_structure(self):
        g = heisenberg(1)
        assert g.labels[0] == "(0,0,0)"
        # (1,0,0)*(0,1,0) = (1,1,1): the commutator relation in coordinates
        a = g.labels.index("(1,0,0)")
        b = g.labels.index("(0,1,0)")
        assert g.labels[g.op(a, b)] == "(1,1,1)"


class TestFiniteAbelian:
    def test_chain_validation(self):
        with pytest.raises(NotASubgroup):
            FiniteAbelian((4, 6))
        with pytest.raises(NotASubgroup):
            FiniteAbelian((1, 2))

    def test_from_orders(self):
        assert abelian_from_orders([4, 6]).invariant_factors == (2, 12)
        assert abelian_from_orders([2, 2, 3]).invariant_factors == (2, 6)
        assert abelian_from_orders([1, 1]).invariant_factors == ()

    def test_from_orders_matches_primary_decomposition(self):
        rng = random.Random(5)
        pool = (0, 1, 2, 3, 4, 5, 6, 8, 9, 12, 18, 25, 27, 36, 49, 60, 72, 1000)
        for _ in range(2000):
            orders = [rng.choice(pool) for _ in range(rng.randint(0, 6))]
            assert abelian_from_orders(orders).invariant_factors == \
                invariant_factors_by_primes(orders)

    def test_from_orders_matches_pairwise(self):
        rng = random.Random(19)
        pool = (0, 1, 2, 3, 4, 6, 8, 9, 10, 12, 15, 16, 30, 35, 49, 77, 210, 1001, 2**20)
        for _ in range(3000):
            orders = [rng.choice(pool) for _ in range(rng.randint(0, 9))]
            assert abelian_from_orders(orders).invariant_factors == \
                abelian_from_orders_pairwise(orders), orders

    def test_from_orders_many_equal_orders(self):
        # the pairwise route takes about 2 s here, the chain insertion milliseconds
        orders = [2] * 4000
        assert abelian_from_orders(orders).invariant_factors == \
            abelian_from_orders_pairwise(orders) == (2,) * 4000

    def test_from_orders_factors_nothing(self):
        # trial division would take 10^12 steps on this product of two primes
        n = 1000000000039 * 1000000000061
        assert abelian_from_orders([n, 6, n]).invariant_factors == (n, 6 * n)

    def test_p_partition(self):
        d = abelian_from_orders([8, 4, 2, 9, 3])
        assert d.p_partition(2) == (3, 2, 1)
        assert d.p_partition(3) == (2, 1)
        assert d.p_partition(5) == ()
        assert d.primes() == (2, 3)

    def test_order_and_str(self):
        d = FiniteAbelian((2, 4))
        assert d.order == 8
        assert str(d) == "Z/2 x Z/4"
        assert FiniteAbelian(()).is_trivial


class TestTorusPoint:
    """A point of (Q/Z)^k is a tuple of Fractions reduced into [0, 1): parsed
    by descriptors.torus_point, added and moved by TorusSemidirectTarget's
    product, written over one denominator N in LieDatum's rows."""

    @staticmethod
    def plus(u, m, t):
        """u + m t mod 1: the point of (u, m)(t, I) in the semidirect product."""
        ident = tuple(tuple(int(i == j) for j in range(len(t)))
                      for i in range(len(t)))
        return TorusSemidirectTarget(len(t), []).multiply((u, m), (t, ident))[0]

    def test_arithmetic(self):
        p = (Fraction(3, 4), Fraction(1, 2))
        q = (Fraction(1, 2), Fraction(2, 3))
        one, minus = ((1, 0), (0, 1)), ((-1, 0), (0, -1))
        zero = (Fraction(0),) * 2
        assert self.plus(p, one, q) == (Fraction(1, 4), Fraction(1, 6))
        assert self.plus(zero, minus, p) == (Fraction(1, 4), Fraction(1, 2))
        assert self.plus(p, minus, p) == zero

    def test_order(self):
        # N is the lcm of the reduced coordinates' denominators: the order
        d = LieDatum(2, [SimpleType("A", 11)],
                     [((1,), (Fraction(1, 6), Fraction(5, 4)))])
        assert d.denominator == 12 and len(d.elements) == 12
        assert LieDatum(3, [SimpleType("A", 1)], [((1,), (0, 2, -1))]) \
            .denominator == 1

    def test_scale_and_hash(self):
        p = torus_point([[1, 3]], "w")
        one = ((1,),)
        assert self.plus(self.plus(p, one, p), one, p) == (Fraction(0),)
        assert len({p, torus_point([[-2, 3]], "w"), (Fraction(1, 3),)}) == 1

    def test_numerators_over_one_denominator(self):
        p = torus_point([[9, 12], [-4, 12]], "w")
        assert p == (Fraction(3, 4), Fraction(2, 3))
        d = LieDatum(2, [SimpleType("A", 11)], [((1,), p)])
        assert d.denominator == 12
        assert graph_of_rows(d)[(1,)] == (9, 8)
        q = torus_point([[6, 8], [4, 8]], "w")  # lowest terms: N is the order
        d = LieDatum(2, [SimpleType("A", 3)], [((1,), q)])
        assert d.denominator == 4
        assert graph_of_rows(d)[(1,)] == (3, 2)

    def test_matrix_action(self):
        p = (Fraction(1, 4), Fraction(1, 2))
        zero = (Fraction(0),) * 2
        assert self.plus(zero, ((0, 1), (1, 1)), p) == (Fraction(1, 2),
                                                        Fraction(3, 4))
        assert self.plus(zero, ((2, 0), (0, 2)), p) == (Fraction(1, 2), 0)
        assert self.plus(zero, ((-1, 0), (0, -1)), p) == (Fraction(3, 4),
                                                          Fraction(1, 2))

    def test_parse(self):
        p = torus_point([[1, 2], [2, -6]], "w")
        assert p == (Fraction(1, 2), Fraction(2, 3))
        assert torus_point([], "w") == ()

    @pytest.mark.parametrize("pairs", [
        [[1, 0]], [[1]], [["a", "b"]], [[1, 2, 3]], [[1.5, 2]], [[True, 2]],
        [3], "1/2", None,
    ])
    def test_parse_rejects_malformed_pairs(self, pairs):
        with pytest.raises(SchemaError, match="^w: "):
            torus_point(pairs, "w")


class TestErrorsHierarchy:
    def test_all_are_bohrsound_errors(self):
        for exc in (NoIdentity, NoInverse, NonAssociative, NotASubgroup,
                    NotAnAction, NotInjective, NotNormal, SizeLimit,
                    SourceMismatch):
            assert issubclass(exc, BohrsoundError)

    @pytest.mark.parametrize("name, args, message", [
        ("NoInverse", (3,), "element 3 has no two-sided inverse"),
        ("NonAssociative", ((2, 2, 1),), "associativity fails at (2, 2, 1)"),
        ("NotAnAction", ((1, 4), "entries out of range"),
         "not a group action: entries out of range (witness (1, 4))"),
        ("NotNormal", (5,), "subgroup is not normal (witness 5)"),
        ("NotUnimodular", (2,), "matrix has determinant 2, expected +-1"),
        ("FactorNotFinite", (1,), "factor 1 generates an infinite matrix group"),
        ("DisagreeOnAmalgam", ((0, 3),),
         "factor maps disagree on the amalgamated subgroup at (0, 3)"),
        ("NotSymmetric", (2,), "length function is not symmetric (witness 2)"),
        ("NotClassFunction", ((1, 2),),
         "length function is not conjugation invariant (witness (1, 2))"),
        ("NotSubadditive", ((1, 2),),
         "length function is not subadditive (witness (1, 2))"),
        ("DoesNotCommute", ("b1",), "matrices do not commute (witness b1)"),
        ("WrongOrder", (4, 2), "expected element of order 2, got order 4"),
    ])
    def test_witness_errors_keep_their_message_and_value(self, name, args,
                                                          message):
        exc = getattr(errors, name)(*args)
        for exc in (exc, pickle.loads(pickle.dumps(exc))):
            assert str(exc) == message
            assert exc.witness == args[0]
