"""Exact character tables and the restriction/Clifford machinery built on them."""

import gc
import itertools
import time
import weakref

import numpy as np
import pytest

from bohrsound import cache, characters, config
from bohrsound.cli import main
from bohrsound.errors import (
    InvariantViolation,
    NotInjective,
    NotNormal,
    NotProper,
    PrimeSearchFailure,
    SizeLimit,
    SourceMismatch,
)
from bohrsound.groups import (
    GroupHom,
    alternating,
    cyclic,
    dihedral,
    direct_product,
    heisenberg,
    klein_four,
    symmetric,
    trivial_group,
)
from bohrsound.characters import (
    character_table,
    clifford_multiplicity,
    equalizer_witness,
    fin_check,
    restricted_values,
    restriction_matrix,
    restriction_multiplicity,
    splitting_prime,
    transported,
)

from oracles import (
    center,
    central_characters_whole_space,
    check_orthonormal,
    common_prime,
    dual_group_table_by_cosets,
    fin_check_common_prime,
    identity_hom,
    normal_subgroups,
    regular_character_data,
)


def a3_in_s3():
    s3 = symmetric(3)
    a3 = alternating(3)
    image = sorted(i for i in range(6) if s3.element_order(i) != 2)
    mapping = [0] * 3
    for h in range(3):
        target = [g for g in image if s3.element_order(g) == a3.element_order(h)]
        if a3.element_order(h) == 1:
            mapping[h] = 0
    three = [g for g in image if s3.element_order(g) == 3]
    mapping[1], mapping[2] = three[0], three[1]
    return s3, a3, GroupHom(a3, s3, mapping)


def center_z2_in_heisenberg(level):
    g = heisenberg(level)
    z2 = cyclic(2)
    half = 2 ** (level - 1)
    return g, z2, GroupHom(z2, g, [0, g.label_index(f"(0,0,{half})")])


class TestPrimes:
    def test_splitting_prime_smallest(self):
        for exponent, order in [(2, 2), (6, 6), (4, 8), (12, 24), (8, 8)]:
            p = splitting_prime(exponent, order)
            assert p % exponent == 1 and p > 2 * order
            for q in range(2 * order + 1, p):
                if q % exponent == 1:
                    for d in range(2, int(q ** 0.5) + 1):
                        if q % d == 0:
                            break
                    else:
                        pytest.fail(f"{q} admissible below {p}")

    def test_known_values(self):
        assert splitting_prime(6, 6) == 13
        assert splitting_prime(2, 2) == 5
        assert splitting_prime(16, 512) == 1153

    def test_common_prime_serves_all(self):
        groups = [symmetric(3), cyclic(4), cyclic(5)]
        p = common_prime(groups)
        for g in groups:
            assert p % g.exponent == 1 and p > 2 * g.order


class TestTableConstruction:
    def test_nothing_is_kept_after_a_lookup(self):
        g = symmetric(3)
        table = character_table(g)
        ref = weakref.ref(g)
        del g, table
        gc.collect()
        assert ref() is None

    def test_inner_of_row_matrices(self):
        tab = character_table(symmetric(4))
        vals, p = tab.values, tab.prime
        # products of two irreducibles against every irreducible
        products = vals[:, None, :] * vals[None, :, :] % p
        products = products.reshape(-1, tab.n_classes)
        got = tab.inner(products, vals)
        assert got.shape == (len(products), tab.n_irreducibles)
        for i, u in enumerate(products):
            for j, v in enumerate(vals):
                assert got[i, j] == tab.inner(u, v)
        assert np.array_equal(tab.inner(vals, vals), np.eye(tab.n_irreducibles))

    @pytest.mark.parametrize("g", [
        symmetric(4), heisenberg(2), dihedral(24), cyclic(96),
        direct_product(direct_product(cyclic(2), cyclic(6)), cyclic(4)),
        cyclic(1024),
    ], ids=["S4", "H4", "D24", "Z96", "Z2xZ6xZ4", "Z1024"])
    def test_shuffled_rows_sort_back(self, g):
        tab = character_table(g)
        perm = np.random.default_rng(g.order).permutation(tab.n_irreducibles)
        degrees = np.array(tab.degrees)[perm]
        again = characters._sorted_table(g, tab.prime, degrees, tab.values[perm])
        assert again.degrees == tab.degrees
        assert again.values.tolist() == tab.values.tolist()

    def test_z2(self):
        tab = character_table(cyclic(2))
        assert tab.degrees == (1, 1)
        assert tab.n_irreducibles == 2

    def test_s3(self):
        tab = character_table(symmetric(3))
        assert sorted(tab.degrees) == [1, 1, 2]

    def test_heisenberg_1(self):
        tab = character_table(heisenberg(1))
        assert sorted(tab.degrees) == [1, 1, 1, 1, 2]

    def test_rows_match_classes(self, corpus_small):
        for g in corpus_small[::5]:
            tab = character_table(g)
            assert tab.n_irreducibles == len(g.conjugacy_classes)

    def test_degree_squares(self, corpus_small):
        for g in corpus_small[::5]:
            tab = character_table(g)
            assert sum(d * d for d in tab.degrees) == g.order

    def test_row_orthogonality(self):
        for g in (symmetric(4), dihedral(6), cyclic(12)):
            tab = character_table(g)
            for i in range(tab.n_irreducibles):
                for j in range(tab.n_irreducibles):
                    want = 1 if i == j else 0
                    assert tab.inner(tab.row(i), tab.row(j)) == want

    def test_trivial_is_row_zero(self, corpus_small):
        for g in corpus_small[::7]:
            tab = character_table(g)
            assert tab.trivial_index() == 0
            assert np.all(tab.row(0) == 1)

    def test_canonical_row_order(self):
        tab = character_table(symmetric(4))
        assert list(tab.degrees) == sorted(tab.degrees)
        for i in range(tab.n_irreducibles - 1):
            if tab.degrees[i] == tab.degrees[i + 1]:
                assert tuple(tab.row(i)) < tuple(tab.row(i + 1))

    def test_size_limit(self):
        with pytest.raises(SizeLimit):
            character_table(heisenberg(4))

    def test_supplied_prime_checked(self):
        with pytest.raises(PrimeSearchFailure):
            character_table(symmetric(3), prime=11)   # 11 % 6 != 1
        with pytest.raises(PrimeSearchFailure):
            character_table(symmetric(3), prime=7)    # not > 2*6

    def test_supplied_prime_must_be_prime(self):
        for p in (9, 25, 49, 91):  # = 1 mod 2 and > 4, but composite
            with pytest.raises(PrimeSearchFailure):
                character_table(cyclic(2), prime=p)
        with pytest.raises(PrimeSearchFailure):
            character_table(symmetric(3), prime=25)

    def test_supplied_prime_below_search_limit(self):
        # prime and = 1 mod 2, but products of residues would overflow int64
        assert characters._is_prime(2147483659)
        assert 2147483659 >= config.PRIME_SEARCH_LIMIT
        with pytest.raises(PrimeSearchFailure):
            character_table(cyclic(2), prime=2147483659)
        with pytest.raises(PrimeSearchFailure):
            character_table(cyclic(2), prime=(1 << 61) - 1)

    def test_supplied_prime_accepted(self):
        tab = character_table(symmetric(3), prime=31)
        assert tab.prime == 31
        assert sorted(tab.degrees) == [1, 1, 2]

    def test_serialize_deterministic(self):
        a = character_table(symmetric(3)).serialize()
        b = character_table(symmetric(3)).serialize()
        assert a == b
        assert a["order"] == 6
        assert len(a["values"]) == 3

    def test_row_index_roundtrip(self):
        tab = character_table(dihedral(4))
        fresh = characters.CharacterTable(tab.group, tab.prime, tab.degrees,
                                          tab.values)
        assert fresh.row_index(tab.row(1)) == 1
        for i in range(tab.n_irreducibles):
            assert tab.row_index(tab.row(i)) == i
        with pytest.raises(SourceMismatch):
            tab.row_index(np.zeros(tab.n_irreducibles, dtype=np.int64))
        # a row one entry short, and one entry that would broadcast
        for wrong_length in (tab.row(1)[:-1], [1]):
            with pytest.raises(SourceMismatch):
                tab.row_index(wrong_length)


def _product(*ns):
    g = cyclic(ns[0])
    for n in ns[1:]:
        g = direct_product(g, cyclic(n))
    return g


def _admissible_primes(g):
    """The canonical prime, the next admissible one, and 4084081 if admissible."""
    p = splitting_prime(g.exponent, g.order)
    q = next(q for q in range(p + g.exponent, config.PRIME_SEARCH_LIMIT, g.exponent)
             if characters._is_prime(q))
    return [p, q] + [4084081] * (4084080 % g.exponent == 0 and 4084081 > 2 * g.order)


class TestAbelianRoute:
    """Tables read off the dual group against Dixon's class-algebra route:
    computed directly below the sweep bound, and above it transported from
    the group's own prime."""

    @staticmethod
    def assert_same(g, p):
        fast = characters._dual_group_table(g, p)
        if p < characters._SWEEP_PRIMES:
            dixon = characters._dixon_table(g, p)
        else:  # Dixon's table at the own prime, moved to p
            own = splitting_prime(g.exponent, g.order)
            dixon = transported(characters._dixon_table(g, own), p)
        assert fast.degrees == dixon.degrees
        assert fast.values.tolist() == sorted(dixon.values.tolist())

    def test_corpus_abelian_members(self, corpus):
        abelian = [g for g in corpus if g.is_abelian]
        assert len(abelian) == 47
        for g in abelian + [trivial_group(), klein_four()]:
            self.assert_same(g, splitting_prime(g.exponent, g.order))

    @pytest.mark.parametrize("ns", [(96,), (128,), (2,) * 6, (6, 6), (4, 8, 2)])
    def test_against_dixon_at_several_primes(self, ns):
        g = _product(*ns)
        primes = _admissible_primes(g)
        assert len(primes) == 2 + (ns in [(2,) * 6, (6, 6), (4, 8, 2)])
        for p in primes:
            self.assert_same(g, p)

    def test_against_coset_at_a_time_update(self, corpus):
        # the same chain, one gather and update per coset: byte-identical tables
        groups = [g for g in corpus if g.is_abelian] + [
            trivial_group(), cyclic(1), cyclic(2), klein_four(), cyclic(1024),
            _product(64, 2), _product(4, 8, 2), _product(6, 6)]
        groups += [_product(*(2,) * k) for k in range(2, 11)]
        for g in groups:
            for p in _admissible_primes(g):
                fast, want = characters._dual_group_table(g, p), dual_group_table_by_cosets(g, p)
                assert (fast.prime, fast.degrees) == (want.prime, want.degrees), g.name
                assert fast.values.tobytes() == want.values.tobytes(), g.name

    def test_z512_against_dixon(self):
        self.assert_same(cyclic(512), 7681)

    def test_abelian_groups_skip_the_class_algebra(self, monkeypatch):
        def refuse(g, p):
            raise AssertionError(f"class algebra run for {g.name}")
        monkeypatch.setattr(characters, "_central_characters", refuse)
        for g in (trivial_group(), cyclic(12), _product(6, 6)):
            character_table(g, prime=_admissible_primes(g)[1])
        with pytest.raises(AssertionError):
            character_table(symmetric(3), prime=_admissible_primes(symmetric(3))[1])

    def test_z512_under_one_second(self):
        start = time.perf_counter()
        tab = character_table(cyclic(512))
        assert time.perf_counter() - start < 1.0
        assert tab.prime == 7681 and tab.n_irreducibles == 512


class TestCenterQuotient:
    """Dixon's route with the characters of G/Z(G) read off its dual group
    before the first round, against the whole class space from the first."""

    @pytest.mark.parametrize("g", [
        dihedral(4), heisenberg(1), heisenberg(2), heisenberg(3),
        direct_product(heisenberg(1), heisenberg(1)),
        direct_product(cyclic(5), heisenberg(1)),
        direct_product(cyclic(4), heisenberg(2)),
        # G/Z(G) non-abelian: the whole class space either way
        dihedral(12), direct_product(cyclic(8), symmetric(4)),
    ], ids=["D4", "H2", "H4", "H8", "H2xH2", "Z5xH2", "Z4xH4", "D12", "Z8xS4"])
    def test_same_table_bytes_as_the_whole_space(self, monkeypatch, g):
        p = splitting_prime(g.exponent, g.order)
        fast = characters._dixon_table(g, p)
        monkeypatch.setattr(characters, "_central_characters",
                            central_characters_whole_space)
        want = characters._dixon_table(g, p)
        assert fast.degrees == want.degrees
        assert fast.values.tobytes() == want.values.tobytes()

    @pytest.mark.parametrize("g, largest", [
        (heisenberg(3), 92 - 64), (heisenberg(2), 22 - 16),
        # G/Z(G) has order 4, so the one other character needs no round
        (heisenberg(1), 0), (dihedral(4), 0),
        (dihedral(128), 67), (direct_product(cyclic(8), symmetric(4)), 40),
    ], ids=["H8", "H4", "H2", "D4", "D128", "Z8xS4"])
    def test_largest_eigenspace_matrix(self, monkeypatch, g, largest):
        eigenspaces, sizes = characters._eigenspaces, []

        def spy(a, *args):
            sizes.append(a.shape[0])
            return eigenspaces(a, *args)
        monkeypatch.setattr(characters, "_eigenspaces", spy)
        character_table(g)
        assert max(sizes, default=0) == largest


def _mutated(table, edit):
    """A CharacterTable of the same group and prime after edit(degrees, values)."""
    degrees, values = list(table.degrees), table.values.tolist()
    edit(degrees, values)
    return characters.CharacterTable(table.group, table.prime, degrees, values)


def _change_last_value(degrees, values):
    values[-1][-1] += 1


def _repeat_a_row(degrees, values):
    values[2] = list(values[1])


def _wrong_degree(degrees, values):
    degrees[-1] = 2


def _degree_two_row(degrees, values):
    degrees[-1] = values[-1][0] = 2


class TestAbelianCheck:
    """check_table on abelian tables: degrees 1, strictly increasing rows,
    and each row a homomorphism on a greedy generating set."""

    def test_accepts_corpus_and_large_cyclic(self, corpus):
        tables = [character_table(g) for g in corpus if g.is_abelian]
        tables += [character_table(_product(2, 6, 4)),
                   character_table(cyclic(512), prime=7681),
                   character_table(cyclic(1024), prime=12289)]
        for tab in tables:
            characters.check_table(_mutated(tab, lambda d, v: None))

    def test_runs_no_gram_product(self, monkeypatch):
        def refuse(self, u, v):
            raise AssertionError("Gram product on an abelian table")
        tab = character_table(_product(4, 6))
        monkeypatch.setattr(characters.CharacterTable, "inner", refuse)
        characters.check_table(tab)
        with pytest.raises(AssertionError):
            characters.check_table(character_table(symmetric(3)))

    @pytest.mark.parametrize("edit,reason", [
        (_change_last_value, "not a homomorphism"),
        (_repeat_a_row, "row order"),
        (_wrong_degree, "degree column"),
        (_degree_two_row, "degree other than 1"),
    ])
    @pytest.mark.parametrize("g", [cyclic(12), _product(2, 6, 4), cyclic(128)],
                             ids=["Z12", "Z2xZ6xZ4", "Z128"])
    def test_mutations_fail(self, g, edit, reason):
        tab = character_table(g)
        bad = _mutated(tab, edit)
        with pytest.raises(PrimeSearchFailure, match=reason):
            characters.check_table(bad)
        cache.store_table(bad)  # a planted entry is refused on load
        assert cache.load_table(g, tab.prime) is None
        cache.store_table(tab)
        assert cache.load_table(g, tab.prime).values.tolist() == tab.values.tolist()


class TestNumericOracle:
    """Cross-validate Dixon tables against regular-representation decomposition."""

    def test_degrees_match(self, corpus):
        for g in corpus:
            if g.order > 24:
                continue
            want, chars = regular_character_data(g)
            assert check_orthonormal(g, chars)
            tab = character_table(g)
            assert sorted(tab.degrees) == want

    def test_integer_rows_match(self, corpus):
        for g in corpus:
            if g.order > 24:
                continue
            _, chars = regular_character_data(g)
            tab = character_table(g)
            half = tab.prime // 2
            lifted = {
                tuple(int(v) if v <= half else int(v) - tab.prime
                      for v in tab.row(i))
                for i in range(tab.n_irreducibles)
            }
            for vec in chars:
                if np.allclose(vec.imag, 0, atol=1e-6) and np.allclose(
                        vec.real, np.round(vec.real), atol=1e-6):
                    assert tuple(int(round(x)) for x in vec.real) in lifted


class TestRestriction:
    def test_trivial_to_trivial(self):
        s3, a3, emb = a3_in_s3()
        tg = character_table(s3)
        th = character_table(a3, prime=tg.prime)
        assert restriction_multiplicity(tg, 0, th, 0, emb) == 1

    def test_s3_two_dim_splits_on_a3(self):
        s3, a3, emb = a3_in_s3()
        tg = character_table(s3)
        th = character_table(a3, prime=tg.prime)
        two = next(i for i, d in enumerate(tg.degrees) if d == 2)
        for rho in range(3):
            want = 0 if rho == th.trivial_index() else 1
            assert restriction_multiplicity(tg, two, th, rho, emb) == want

    def test_heisenberg_central_multiplicity(self):
        for level in (1, 2):
            g, z2, emb = center_z2_in_heisenberg(level)
            p = common_prime([g, z2])
            tg = character_table(g, prime=p)
            th = character_table(z2, prime=p)
            big = next(i for i, d in enumerate(tg.degrees) if d == 2 ** level)
            rho = 1 - th.trivial_index()
            assert restriction_multiplicity(tg, big, th, rho, emb) == 2 ** level

    def test_degree_bookkeeping(self):
        s3, a3, emb = a3_in_s3()
        tg = character_table(s3)
        th = character_table(a3, prime=tg.prime)
        m = restriction_matrix(tg, th, emb)
        for pi in range(tg.n_irreducibles):
            assert sum(int(m[pi, r]) * th.degrees[r]
                       for r in range(th.n_irreducibles)) == tg.degrees[pi]

    def test_restricted_values_identity_column(self):
        s3, a3, emb = a3_in_s3()
        tg = character_table(s3)
        th = character_table(a3, prime=tg.prime)
        for pi in range(tg.n_irreducibles):
            assert restricted_values(tg, pi, emb, th)[0] == tg.degrees[pi]

    def test_requires_injective(self):
        z4 = cyclic(4)
        z2 = cyclic(2)
        collapse = GroupHom(z4, z2, [0, 1, 0, 1])
        p = common_prime([z4, z2])
        tg = character_table(z2, prime=p)
        th = character_table(z4, prime=p)
        with pytest.raises(NotInjective):
            restriction_multiplicity(tg, 0, th, 0, collapse)


class TestEqualizer:
    def test_a3_split(self):
        _, _, emb = a3_in_s3()
        w = equalizer_witness(emb)
        assert w.kind == "split"
        assert w.self_intersection == 2
        assert w.degrees == (2,)

    def test_z2_in_z4_collision(self):
        z4 = cyclic(4)
        z2 = cyclic(2)
        emb = GroupHom(z2, z4, [0, 2])
        w = equalizer_witness(emb)
        assert w.kind == "collision"
        i, j = w.indices
        tg = character_table(z4)
        th = character_table(z2, prime=tg.prime)
        assert i == tg.trivial_index()
        res_j = restricted_values(tg, j, emb, th)
        assert np.all(res_j == 1)
        # partner is the unique order-2 character of Z/4
        sq = (tg.row(j).astype(object) ** 2) % tg.prime
        assert np.all(sq == 1) and j != tg.trivial_index()

    def test_not_proper(self):
        with pytest.raises(NotProper):
            equalizer_witness(identity_hom(symmetric(3)))

    def test_witness_valid_over_sample(self, corpus_small):
        from bohrsound.groups import Subgroup
        from oracles import all_subgroups
        for g in corpus_small[::6]:
            if g.order > 24:
                continue
            for elems in all_subgroups(g):
                if len(elems) == g.order:
                    continue
                h, emb = Subgroup(g, elems).materialize()
                w = equalizer_witness(emb)
                tg = character_table(g)
                th = character_table(h, prime=tg.prime)
                if w.kind == "split":
                    (pi,) = w.indices
                    res = restricted_values(tg, pi, emb, th)
                    assert th.inner(res, res) >= 2
                else:
                    i, j = w.indices
                    assert i != j
                    assert np.array_equal(
                        restricted_values(tg, i, emb, th),
                        restricted_values(tg, j, emb, th))


def class_members(embs):
    return [rep["class_members"] for rep in fin_check(embs)["reports"]]


class TestClifford:
    def test_central_singletons(self):
        g, z2, emb = center_z2_in_heisenberg(1)
        assert class_members([emb]) == [[0], [1]]

    def test_a3_class_of_size_two(self):
        _, a3, emb = a3_in_s3()
        th = character_table(a3)
        triv = th.trivial_index()
        classes = class_members([emb])
        assert classes[triv] == [triv]
        others = [r for r in range(3) if r != triv]
        assert set(classes[others[0]]) == set(others)

    def test_representative_independence(self):
        _, a3, emb = a3_in_s3()
        classes = class_members([emb])
        for rho in range(3):
            for other in classes[rho]:
                assert classes[other] == classes[rho]

    def test_not_normal(self):
        s3 = symmetric(3)
        z2 = cyclic(2)
        transposition = next(i for i in range(6) if s3.element_order(i) == 2)
        emb = GroupHom(z2, s3, [0, transposition])
        with pytest.raises(NotNormal):
            fin_check([emb])

    def test_empty_family_needs_source(self):
        with pytest.raises(SourceMismatch):
            fin_check([])

    def test_multiplicity_examples(self):
        _, a3, emb = a3_in_s3()
        p = common_prime([emb.target, a3])
        tg = character_table(emb.target, prime=p)
        th = character_table(a3, prime=p)
        for rho in range(3):
            assert clifford_multiplicity(tg, th, emb, rho) == 1

    def test_multiplicity_heisenberg(self):
        for level, want in [(1, 2), (2, 4)]:
            g, z2, emb = center_z2_in_heisenberg(level)
            p = common_prime([g, z2])
            tg = character_table(g, prime=p)
            th = character_table(z2, prime=p)
            rho = 1 - th.trivial_index()
            assert clifford_multiplicity(tg, th, emb, rho) == want


class TestFinCheck:
    def test_heisenberg_growth_profile(self):
        z2 = cyclic(2)
        embs = []
        for level in (1, 2, 3):
            g, _, emb = center_z2_in_heisenberg(level)
            embs.append(GroupHom(z2, g, emb.mapping))
        certificate = fin_check(embs)
        assert certificate["kernel_order"] == 2
        assert certificate["member_orders"] == [8, 64, 512]
        reports = certificate["reports"]
        assert len(reports) == 2
        nontrivial = reports[1]
        assert nontrivial["class_size"] == 1
        assert [nontrivial["per_member"][str(i)] for i in range(3)] == [2, 4, 8]
        assert nontrivial["sup_multiplicity"] == 8
        assert reports[0]["per_member"] == {"0": 1, "1": 1, "2": 1}

    def test_single_a3(self):
        _, a3, emb = a3_in_s3()
        reports = fin_check([emb])["reports"]
        assert len(reports) == 3
        triv = character_table(a3).trivial_index()
        for rep in reports:
            if rep["rho"] == triv:
                assert rep["class_size"] == 1
            else:
                assert rep["class_size"] == 2
            assert rep["per_member"] == {"0": 1}
            assert rep["sup_multiplicity"] == 1

    def test_empty_family(self):
        z2 = cyclic(2)
        certificate = fin_check([], source=z2)
        assert (certificate["kernel_order"], certificate["member_orders"]) == (2, [])
        reports = certificate["reports"]
        assert len(reports) == 2
        for rep in reports:
            assert rep["class_members"] == [rep["rho"]]
            assert rep["per_member"] == {}
            assert rep["sup_multiplicity"] is None

    def test_certificate_holds_python_ints(self):
        # the CLI prints the certificate as it is, and json prints no numpy int
        _, _, emb = a3_in_s3()

        def leaves(x):
            if isinstance(x, dict):
                assert all(type(k) is str for k in x)
                x = list(x.values())
            if isinstance(x, list):
                return [leaf for item in x for leaf in leaves(item)]
            return [x]

        for certificate in (fin_check([emb, emb]), fin_check([], source=cyclic(2))):
            assert {type(v) for v in leaves(certificate)} <= {int, type(None)}

    def test_empty_family_without_source(self):
        with pytest.raises(SourceMismatch):
            fin_check([])

    def test_source_mismatch(self):
        _, _, emb1 = center_z2_in_heisenberg(1)
        _, a3, emb2 = a3_in_s3()
        with pytest.raises(SourceMismatch):
            fin_check([emb1, emb2])

    def test_per_member_consistency(self):
        g, z2, emb = center_z2_in_heisenberg(2)
        p = common_prime([g, z2])
        tg = character_table(g, prime=p)
        th = character_table(z2, prime=p)
        for rep in fin_check([emb])["reports"]:
            assert rep["per_member"]["0"] == clifford_multiplicity(tg, th, emb, rep["rho"])


class TestRestrictionStructure:
    """Restrictions to a normal subgroup concentrate on a single Clifford class
    with one shared multiplicity."""

    def test_over_corpus(self, corpus_small):
        from bohrsound.groups import Subgroup
        for g in corpus_small:
            for elems in normal_subgroups(g):
                h, emb = Subgroup(g, elems).materialize()
                # fin_check indexes the kernel's own table; the restriction
                # is taken at a common prime, against that table moved there
                p = common_prime([g, h])
                tgp = character_table(g, prime=p)
                thp = transported(character_table(h), p)
                m = restriction_matrix(tgp, thp, emb)
                class_of = {rep["rho"]: rep["class_members"]
                            for rep in fin_check([emb])["reports"]}
                for pi in range(tgp.n_irreducibles):
                    support = [r for r in range(thp.n_irreducibles) if m[pi, r] > 0]
                    assert support
                    assert sorted(support) == sorted(class_of[support[0]])
                    mults = {int(m[pi, r]) for r in support}
                    assert len(mults) == 1


class TestOwnPrimes:
    """Every table at its own group's prime; the kernel's table is
    transported to each member's prime, row for row."""

    def test_transported_equals_computed(self, corpus_small):
        import random
        # corpus_small, every group of the chartable-ladder workload, and 1
        ladder = [cyclic(n) for n in (32, 48, 64, 80, 96)]
        ladder += [dihedral(n) for n in (64, 80, 96, 112, 128)]
        ladder += [heisenberg(2), heisenberg(3), symmetric(5), alternating(5),
                   direct_product(cyclic(8), symmetric(4))]
        rng = random.Random(21)
        for group in corpus_small + ladder + [trivial_group()]:
            own = character_table(group)
            assert transported(own, own.prime) is own
            # a seeded admissible prime among the next five past the group's own
            q = own.prime
            for _ in range(rng.randrange(1, 6)):
                q = splitting_prime(group.exponent, (q + 1) // 2)
            assert q < characters._SWEEP_PRIMES
            moved = transported(own, q)
            route = (characters._dual_group_table if group.is_abelian
                     else characters._dixon_table)
            computed = route(group, q)
            assert moved.prime == q and moved.degrees == own.degrees
            assert (sorted(map(tuple, moved.values.tolist()))
                    == sorted(map(tuple, computed.values.tolist()))), group.name

    @staticmethod
    def assert_matches_common_prime(embs):
        reports = fin_check(embs)["reports"]
        th_common, expected = fin_check_common_prime(embs)
        moved = transported(character_table(embs[0].source), th_common.prime)
        to_own = [moved.row_index(row) for row in th_common.values]
        for ref in expected:
            got = reports[to_own[ref["rho"]]]
            assert got["degree"] == ref["degree"]
            assert got["class_members"] == sorted(to_own[r] for r in ref["class_members"])
            fields = ("class_size", "per_member", "sup_multiplicity")
            assert [got[f] for f in fields] == [ref[f] for f in fields]

    def test_fin_check_matches_common_prime_route(self, corpus_small):
        import random
        from bohrsound.groups import Subgroup
        cases = 0
        for g in corpus_small:
            for elems in normal_subgroups(g):
                self.assert_matches_common_prime([Subgroup(g, elems).materialize()[1]])
                cases += 1
        # families of two to four seeded members over Z2, and over Z10, in
        # their centres.  Reports are the same for Galois conjugate rows, so
        # only a match between rows of different orders can show; in
        # Z5 x H(1) the rows of Z10 nontrivial on the centre of H(1) have
        # multiplicity 2 and the others 1, and at the primes of Z10 and of
        # Z5 x H(1) they sort into different places.
        pool = corpus_small + [direct_product(cyclic(5), heisenberg(1))]
        rng = random.Random(20)
        for kernel in (cyclic(2), cyclic(10)):
            central = [(g, z) for g in pool for z in center(g).elements
                       if g.element_order(z) == kernel.order]
            for _ in range(8):
                members = rng.sample(central, rng.randrange(2, 5))
                self.assert_matches_common_prime([
                    GroupHom(kernel, g, list(itertools.accumulate(
                        [z] * (kernel.order - 1), g.op, initial=0)))
                    for g, z in members])
                cases += 1
        assert cases > 300

    def test_nine_member_family_past_any_common_prime(self):
        # the common prime of these members lies past PRIME_SEARCH_LIMIT
        ns = [6, 10, 14, 22, 26, 34, 38, 46, 58]
        z2 = cyclic(2)
        with pytest.raises(PrimeSearchFailure):
            common_prime([z2] + [cyclic(n) for n in ns])
        reports = fin_check([GroupHom(z2, cyclic(n), [0, n // 2]) for n in ns])["reports"]
        assert [r["per_member"] for r in reports] == [dict.fromkeys(map(str, range(9)), 1)] * 2
        assert [r["class_members"] for r in reports] == [[0], [1]]

    def test_large_self_embedding_in_time(self):
        start = time.perf_counter()
        reports = fin_check([identity_hom(cyclic(1024))])["reports"]
        assert time.perf_counter() - start < 5.0
        assert len(reports) == 1024


@pytest.mark.invariant
class TestInvariantViolations:
    """States a correct restriction matrix never produces, built by patching it.

    Each must end as InvariantViolation (a BohrsoundError), not an assert.
    """

    def test_equalizer_without_witness_is_invariant_violation(self, monkeypatch):
        _, _, emb = a3_in_s3()
        # no irreducible splits and no two restrict alike
        monkeypatch.setattr(characters, "restriction_matrix",
                            lambda tg, th, emb: np.eye(3, dtype=np.int64))
        with pytest.raises(InvariantViolation):
            equalizer_witness(emb)

    def test_absent_constituent_is_invariant_violation(self, monkeypatch):
        _, _, emb = a3_in_s3()
        monkeypatch.setattr(characters, "restriction_matrix",
                            lambda tg, th, emb: np.zeros((3, 3), dtype=np.int64))
        with pytest.raises(InvariantViolation):
            fin_check([emb])

    @pytest.mark.parametrize("root", [1, 12], ids=["trivial", "order-2"])
    def test_tampered_transport_is_invariant_violation(self, monkeypatch, root):
        # A3's own prime is 7 and S3's is 13; a wrong cube root of unity at
        # 13 moves A3's rows to non-homomorphisms or to repeated rows
        s3, a3, emb = a3_in_s3()
        assert (character_table(a3).prime, character_table(s3).prime) == (7, 13)
        unity_powers = characters._unity_powers

        def wrong_at_13(e, p):
            return np.array([root ** k % p for k in range(e)]) if p == 13 else unity_powers(e, p)

        monkeypatch.setattr(characters, "_unity_powers", wrong_at_13)
        with pytest.raises(InvariantViolation, match="moved to prime 13"):
            fin_check([emb])

    def test_cli_reports_invariant_violation(self, monkeypatch, capsys, tmp_path):
        monkeypatch.setenv(config.CACHE_ENV_VAR, str(tmp_path / "cache"))
        monkeypatch.setattr(characters, "restriction_matrix",
                            lambda tg, th, emb: np.eye(3, dtype=np.int64))
        assert main(["equalizer", "--spec", "a3-in-s3.json"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: InvariantViolation:")
        assert "Traceback" not in captured.err
