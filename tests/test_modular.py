"""Exact modular primitives of the table engine, and tables at large primes.

Every reference here takes another route: Python integers for products,
cofactor expansion (elimination over GF(p) past 6 rows) for characteristic
polynomials, evaluation at every point of GF(p) for roots (small p only),
and known integer character values.
The two root routes, the sweep over GF(p) and Cantor-Zassenhaus, are also
checked against each other.
"""

import json
import os
import random
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bohrsound
from bohrsound import characters
from bohrsound.characters import (
    CharacterTable,
    _charpoly_mod,
    _eigenspaces,
    _matmul_mod,
    _poly_divmod,
    _poly_monic,
    _poly_powmod,
    _power_table,
    _roots_by_splitting,
    _roots_by_sweep,
    _roots_mod,
    character_table,
    restriction_matrix,
    restriction_multiplicity,
)
from bohrsound.errors import InvariantViolation, PrimeSearchFailure
from bohrsound.groups import (
    Subgroup,
    cyclic,
    dihedral,
    direct_product,
    heisenberg,
    symmetric,
)

from oracles import charpoly_eval_oracle, common_prime, normal_subgroups

P31 = 2**31 - 1                 # the largest prime below PRIME_SEARCH_LIMIT
LARGE_PRIMES = [P31, 892371481, 106696591]


def _eval(coeffs, x, p):
    return sum(c * pow(x, i, p) for i, c in enumerate(coeffs)) % p


def _from_roots(roots, p):
    f = [1]
    for lam in roots:
        f = [(lo - lam * hi) % p for lo, hi in zip([0] + f, f + [0])]
    return f


class TestMatmulMod:
    def test_against_python_ints(self):
        rng = np.random.default_rng(5)
        for p in (P31, 892371481, 4084081, 97):
            for inner in (1, 2, 7, 33, 64, 128):
                a = rng.integers(0, p, (5, inner))
                b = rng.integers(0, p, (inner, 3))
                want = [[sum(int(a[i, t]) * int(b[t, j]) for t in range(inner)) % p
                         for j in range(3)] for i in range(5)]
                assert _matmul_mod(a, b, p).tolist() == want
                assert _matmul_mod(a[0], b, p).tolist() == want[0]
                assert _matmul_mod(a, b[:, 0], p).tolist() == [row[0] for row in want]

    @pytest.mark.parametrize("p", [P31, 4084081])   # several float64 limbs, one
    def test_large_square_product(self, p):
        rng = np.random.default_rng(6)
        a = rng.integers(0, p, (128, 128))
        b = rng.integers(0, p, (128, 128))
        got = _matmul_mod(a, b, p)
        for i, j in [(0, 0), (5, 77), (127, 127), (64, 3)]:
            assert got[i, j] == sum(int(a[i, t]) * int(b[t, j]) for t in range(128)) % p


class TestCharpoly:
    """_charpoly_mod, power sums through Newton's identities, against the
    oracle's determinant at a point (cofactors or elimination)."""

    def _random(self, rng, n, p):
        # every third matrix sparse, so traces and powers meet zero blocks
        sparse = rng.random() < 0.35
        return [[0 if sparse and rng.random() < 0.5 else rng.randrange(p)
                 for _ in range(n)] for _ in range(n)]

    def _check(self, rng, a, p):
        f = _charpoly_mod(_power_table(np.array(a, dtype=np.int64), p), p)
        assert len(f) == len(a) + 1 and f[-1] == 1
        for x in (0, 1, rng.randrange(p), rng.randrange(p)):
            assert _eval(f, x, p) == charpoly_eval_oracle(a, p, x)

    @pytest.mark.parametrize("p", [5, 13, 97, 2147483629, P31])
    def test_both_routes_match_cofactor_oracle(self, p):
        # the two routes of _matmul_mod's int64 products: one limb at the
        # small primes, several near 2**31; the oracle expands cofactors
        rng = random.Random(p)
        for n in range(1, min(7, p)):
            for _ in range(4):
                self._check(rng, self._random(rng, n, p), p)

    def test_routes_agree_on_larger_matrices(self):
        # 5 to 7 baby powers and as many giant steps; int64 and float64 routes
        rng = random.Random(11)
        for p in (1153, P31):
            for n in (16, 23, 40):
                self._check(rng, self._random(rng, n, p), p)

    @pytest.mark.parametrize("p", [13, 97, 1153, 16381, P31])
    def test_matches_oracle_up_to_40_rows(self, p):
        rng = random.Random(p + 1)
        for n in [n for n in (1, 2, 3, 4, 7, 8, 9, 12, 15, 16, 17, 24, 25, 40) if n < p]:
            for _ in range(2):
                self._check(rng, self._random(rng, n, p), p)
        # a zero matrix, a nilpotent one and a permutation
        for a in ([[0] * 9 for _ in range(9)],
                  [[int(j == i + 1) for j in range(10)] for i in range(10)],
                  [[int(j == (i + 1) % 11) for j in range(11)] for i in range(11)]):
            if len(a) < p:
                self._check(rng, a, p)

    @pytest.mark.invariant
    @pytest.mark.parametrize("n", [5, 6])
    def test_refuses_rows_at_least_p(self, n):
        # Newton's identities divide by every k <= n, so n < p is required
        with pytest.raises(InvariantViolation):
            _charpoly_mod(_power_table(np.eye(n, dtype=np.int64), 5), 5)

    def test_similarity_invariant_at_large_prime(self):
        # charpoly(diag(d) conjugated by a unimodular matrix) = prod (x - d_i)
        rng = random.Random(12)
        n = 24
        diag = [rng.randrange(P31) for _ in range(n)]
        a = np.diag(np.array(diag, dtype=np.int64))
        for _ in range(3 * n):
            i, j = rng.sample(range(n), 2)
            c = rng.randrange(P31)
            a[i] = (a[i] + c * a[j] % P31) % P31          # E a
            a[:, j] = (a[:, j] - c * a[:, i] % P31) % P31  # (E a) E^-1
        assert _charpoly_mod(_power_table(a, P31), P31) == _from_roots(diag, P31)


class TestRoots:
    @pytest.mark.parametrize("p", [5, 7, 13, 31, 97, 193])
    def test_against_brute_force(self, p):
        rng = random.Random(p)
        for deg in range(1, 9):
            for _ in range(6):
                f = [rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)]
                want = [x for x in range(p) if _eval(f, x, p) == 0]
                assert _roots_mod(f, p, random.Random(1)) == want
                assert _roots_by_splitting(_poly_monic(f, p), p,
                                           random.Random(1)) == want

    @pytest.mark.parametrize("p", LARGE_PRIMES)
    def test_known_roots_with_repeats(self, p):
        rng = random.Random(p)
        # x^2 - c for a non-residue c has no roots in GF(p)
        c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
        for distinct in (1, 2, 3, 9, 20, 33):
            roots = rng.sample(range(p), distinct)
            repeated = roots + rng.choices(roots, k=distinct // 2 + 1)
            f = _from_roots(repeated, p)
            assert _roots_mod(f, p, random.Random(2)) == sorted(roots)
            g = [(lo - c * hi) % p for lo, hi in zip([0, 0] + f, f + [0, 0])]  # f (x^2 - c)
            assert _roots_mod(g, p, random.Random(3)) == sorted(roots)

    def test_no_roots(self):
        p = 13
        assert _roots_mod([2, 0, 1], p, random.Random(0)) == []  # x^2 + 2
        assert _roots_mod([5], p, random.Random(0)) == []
        assert _roots_mod([4, 4, 1], p, random.Random(0)) == [11]  # (x + 2)^2


def _times(f, g, p):
    return [sum(f[i] * g[k - i] for i in range(len(f)) if 0 <= k - i < len(g)) % p
            for k in range(len(f) + len(g) - 1)]


def _powmod_oracle(shift, e, f, p):
    """(x + shift)**e mod f, right to left, each product reduced by _poly_divmod."""
    out, base = [1], [shift % p, 1]
    while e:
        if e & 1:
            out = _poly_divmod(_times(out, base, p), f, p)[1]
        base = _poly_divmod(_times(base, base, p), f, p)[1]
        e >>= 1
    return out


class _Bounded(random.Random):
    """A generator that fails the test, instead of hanging it, once the
    splitting has drawn more shifts than a terminating run ever needs."""

    draws = 0

    def randrange(self, *args):
        self.draws += 1
        assert self.draws < 200, "the splitting does not terminate"
        return super().randrange(*args)


class TestPolyPowmod:
    """The packed powers that drive the splitting, against plain reduction."""

    @pytest.mark.parametrize("p", [16411, 4084081, P31])
    @pytest.mark.parametrize("k", [2, 15, 16, 17, 40, 92])
    def test_against_repeated_reduction(self, p, k):
        rng = random.Random(k * p)
        f = [rng.randrange(p) for _ in range(k)] + [1]
        for e in (p, (p - 1) // 2):
            for shift in (0, rng.randrange(p)):
                assert _poly_powmod(shift, e, f, p) == _powmod_oracle(shift, e, f, p)

    def test_quadratics_at_largest_prime(self):
        # the splitting ends on linear factors, so a quadratic must split or vanish
        p = P31
        rng = random.Random(14)
        r, s = rng.sample(range(p), 2)
        c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
        for f, want in [([-c % p, 0, 1], []),
                        ([-r * r % p, 0, 1], sorted([r, p - r])),
                        ([0, 0, 1], [0]),
                        (_from_roots([r, r], p), [r]),
                        (_from_roots([r, s], p), sorted([r, s]))]:
            for seed in range(4):
                assert _roots_by_splitting(f, p, _Bounded(seed)) == want


# the canonical primes of S5, Z8xS4, D128 and H8; primes on either side of
# the sweep bound 2**14; and primes past it, where the sweep still runs in a
# test's time
ROUTE_PRIMES = [241, 409, 641, 1153, 12289, 16381, 16411, 40961, 65537]


class TestRootRoutes:
    """The sweep over GF(p) and Cantor-Zassenhaus against each other."""

    @pytest.mark.parametrize("p", ROUTE_PRIMES)
    def test_routes_agree(self, p):
        rng = random.Random(p)
        # x^2 - c for a non-residue c: a factor with no root
        c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
        rootless = [-c % p, 0, 1]
        for distinct in (1, 2, 3, 5, 8, 13, 21, 34):
            roots = rng.sample(range(p), distinct)
            repeated = roots + rng.choices(roots, k=rng.randrange(distinct + 1))
            split = _from_roots(repeated, p)
            arbitrary = [rng.randrange(p) for _ in range(distinct)] + [1]
            for f, want in [(split, sorted(roots)),
                            (_times(split, rootless, p), sorted(roots)),
                            (_times(split, _times(rootless, rootless, p), p),
                             sorted(roots)),
                            (arbitrary, None)]:
                swept = _roots_by_sweep(f, p)
                assert swept == _roots_by_splitting(f, p, random.Random(distinct))
                assert want is None or swept == want
        for f in (rootless, _times(rootless, rootless, p), [1]):
            assert _roots_by_sweep(f, p) == _roots_by_splitting(
                f, p, random.Random(0)) == []

    @pytest.mark.parametrize("p, route", [(16381, "sweep"), (16411, "splitting")])
    def test_roots_mod_takes_one_route_by_the_prime(self, monkeypatch, p, route):
        assert (p < characters._SWEEP_PRIMES) == (route == "sweep")
        taken = []
        monkeypatch.setattr(characters, "_roots_by_sweep",
                            lambda f, p: taken.append("sweep") or [])
        monkeypatch.setattr(characters, "_roots_by_splitting",
                            lambda f, p, rng: taken.append("splitting") or [])
        _roots_mod([3, 2, 4], p, random.Random(0))
        assert taken == [route]

    def test_tables_agree_across_routes(self, corpus, monkeypatch):
        groups = [g for g in corpus if not g.is_abelian]
        groups += [heisenberg(3), dihedral(128), symmetric(5),
                   direct_product(cyclic(8), symmetric(4))]
        swept = [character_table(g) for g in groups]
        assert max(tab.prime for tab in swept) < characters._SWEEP_PRIMES
        monkeypatch.setattr(characters, "_SWEEP_PRIMES", 0)
        for g, tab in zip(groups, swept):
            split = character_table(g)
            assert split.degrees == tab.degrees
            assert split.values.tolist() == tab.values.tolist()


class TestEigenspaces:
    def test_diagonalizable_split(self):
        p = 97
        rng = random.Random(4)
        # a = t diag(3, 3, 5, 7) t^-1 with t unit lower triangular
        a = np.diag([3, 3, 5, 7]).astype(np.int64)
        for i, j in [(1, 0), (2, 1), (3, 0), (3, 2)]:
            c = rng.randrange(p)
            a[i] = (a[i] + c * a[j]) % p
            a[:, j] = (a[:, j] - c * a[:, i]) % p
        spaces = _eigenspaces(a, p, random.Random(1))
        assert [s[0].shape[1] for s in spaces] == [2, 1, 1]
        for (basis, _, _), lam in zip(spaces, (3, 5, 7)):
            assert np.array_equal(_matmul_mod(a, basis, p), basis * lam % p)

    @pytest.mark.parametrize("a", [
        [[3, 1], [0, 3]],
        [[2, 0, 0], [0, 3, 1], [0, 0, 3]],
        [[5, 1, 0, 0], [0, 5, 0, 0], [0, 0, 5, 0], [0, 0, 0, 1]],
    ])
    def test_jordan_block_raises(self, a):
        with pytest.raises(PrimeSearchFailure):
            _eigenspaces(np.array(a, dtype=np.int64), 13, random.Random(0))

    def test_irreducible_charpoly_raises(self):
        # x^2 + 2 has no root mod 13
        with pytest.raises(PrimeSearchFailure):
            _eigenspaces(np.array([[0, 11], [1, 0]], dtype=np.int64), 13, random.Random(0))


def _s3_integer_rows(g):
    """Trivial, sign and standard characters of S3 in the group's class order."""
    orders = [g.element_order(rep) for rep in g.class_reps]
    sign = [-1 if o == 2 else 1 for o in orders]
    standard = [{1: 2, 2: 0, 3: -1}[o] for o in orders]
    return [1, 1, 2], [[1] * 3, sign, standard]


class TestLargePrimeInner:
    def test_s3_inner_products_at_largest_prime(self):
        g = symmetric(3)
        degrees, rows = _s3_integer_rows(g)
        tab = CharacterTable(g, P31, degrees, rows)
        for i in range(3):
            for j in range(3):
                assert tab.inner(tab.row(i), tab.row(j)) == (1 if i == j else 0)

    def test_restriction_matrix_matches_inner_products(self, corpus_small):
        for g in corpus_small[::6]:
            for elems in normal_subgroups(g):
                h, emb = Subgroup(g, elems).materialize()
                p = common_prime([g, h])
                tg = character_table(g, prime=p)
                th = character_table(h, prime=p)
                m = restriction_matrix(tg, th, emb)
                for pi in range(tg.n_irreducibles):
                    for rho in range(th.n_irreducibles):
                        assert m[pi, rho] == restriction_multiplicity(tg, pi, th, rho, emb)


# -- large primes, each in a child process under a 1 GiB address-space limit,
# so an engine that sized an array by p fails cleanly instead of swapping


def _limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def _run_limited(code: str) -> dict:
    src = str(Path(bohrsound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          timeout=120, preexec_fn=_limit_memory, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout)


_S3_AT_P31 = """
import json
from bohrsound.characters import character_table
from bohrsound.groups import symmetric
tab = character_table(symmetric(3), prime=2**31 - 1)
print(json.dumps({"degrees": list(tab.degrees),
                  "norms": [tab.inner(tab.row(i), tab.row(i)) for i in range(3)]}))
"""

_CYCLIC = '{"kind": "cyclic", "n": n}'
_DIHEDRAL = ('{"kind": "semidirect", "normal": {"kind": "cyclic", "n": n}, '
             '"acting": {"kind": "cyclic", "n": 2}, '
             '"action": [list(range(n)), [-x % n for x in range(n)]]}')

# The family's tables at one large prime, and the family route, which takes
# each table at its own group's prime: the same multiplicities either way.
_FAMILY = """
import json, time
from bohrsound.characters import character_table, restriction_matrix
from bohrsound.soundness import build_normal_family, soundness_verdict
ns = {ns}
request = {{"schema": 1, "kind": "finite-normal-family",
            "kernel": {{"kind": "cyclic", "n": 2}},
            "embeddings": [{{"group": {member},
                             "mapping": [0, {center}]}} for n in ns]}}
kernel, embs = build_normal_family(request, "request")
start = time.perf_counter()
th = character_table(kernel, prime={prime})
ms = [restriction_matrix(character_table(e.target, prime={prime}), th, e) for e in embs]
seconds = time.perf_counter() - start
common = [{{str(i): int(m[:, rho][m[:, rho] > 0].min()) for i, m in enumerate(ms)}}
          for rho in range(th.n_irreducibles)]
start = time.perf_counter()
verdict = soundness_verdict(request)
print(json.dumps({{"verdict": verdict.verdict, "seconds": seconds,
                   "family_seconds": time.perf_counter() - start, "common": common,
                   "per_member": [r["per_member"] for r in verdict.certificate["reports"]]}}))
"""


def _check_family(out, ns):
    assert out["verdict"] == "Sound"
    assert out["seconds"] < 5.0 and out["family_seconds"] < 5.0
    assert out["per_member"] == out["common"]
    assert [set(per.values()) for per in out["per_member"]] == [{1}, {1}]
    assert all(len(per) == len(ns) for per in out["per_member"])


class TestLargePrimeTables:
    def test_s3_table_at_largest_prime(self):
        out = _run_limited(_S3_AT_P31)
        assert out == {"degrees": [1, 1, 2], "norms": [1, 1, 1]}

    @pytest.mark.parametrize("ns, prime", [
        ([6, 10, 14, 22, 26, 34, 38], 106696591),
        ([6, 10, 14, 22, 26, 34, 38, 46], 892371481),
    ])
    def test_cyclic_family_at_large_common_prime(self, ns, prime):
        assert common_prime([cyclic(2)] + [cyclic(n) for n in ns]) == prime
        _check_family(_run_limited(_FAMILY.format(
            ns=ns, member=_CYCLIC, center="n // 2", prime=prime)), ns)

    def test_dihedral_family_at_large_common_prime(self):
        # non-abelian members, so their tables take the class-algebra route
        ns = [6, 10, 14, 22, 26, 34, 38]
        prime = common_prime([cyclic(2)] + [dihedral(n) for n in ns])
        assert prime == 106696591
        # the rotation by n/2, (n/2, 0), has index (n/2) * 2 = n
        _check_family(_run_limited(_FAMILY.format(
            ns=ns, member=_DIHEDRAL, center="n", prime=prime)), ns)
