"""Exact modular primitives of the table engine, and tables at large primes.

Every reference here takes another route: Python integers for products,
cofactor expansion (elimination over GF(p) past 6 rows) for characteristic
polynomials, Python evaluation at every point of GF(p) or known roots for
roots, and known integer character values.
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
from bohrsound import characters, config
from bohrsound.characters import (
    CharacterTable,
    _charpoly_mod,
    _eigenspaces,
    _matmul_mod,
    _multiplicities,
    _power_table,
    _quotients,
    _roots_mod,
    _vandermonde,
    character_table,
    restriction_matrix,
    restriction_multiplicity,
    splitting_prime,
)
from bohrsound.errors import InvariantViolation, PrimeSearchFailure
from bohrsound.groups import (
    Subgroup,
    cyclic,
    dihedral,
    symmetric,
)

from oracles import (
    charpoly_eval_oracle,
    common_prime,
    normal_subgroups,
    quotients_by_division,
    roots_by_horner,
)

P31 = 2**31 - 1                 # the largest prime below PRIME_SEARCH_LIMIT


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
                assert _roots_mod(f, p) == want

    # H8's own prime, the largest own prime of an admitted order, and the
    # largest prime below the sweep bound 2**15
    @pytest.mark.parametrize("p", [1153, 18899, 32749])
    def test_known_roots_with_repeats(self, p):
        rng = random.Random(p)
        # x^2 - c for a non-residue c has no roots in GF(p)
        c = next(c for c in range(2, 100) if pow(c, (p - 1) // 2, p) == p - 1)
        for distinct in (1, 2, 3, 9, 20, 33):
            roots = rng.sample(range(p), distinct)
            repeated = roots + rng.choices(roots, k=distinct // 2 + 1)
            f = _from_roots(repeated, p)
            assert _roots_mod(f, p) == sorted(roots)
            g = [(lo - c * hi) % p for lo, hi in zip([0, 0] + f, f + [0, 0])]  # f (x^2 - c)
            assert _roots_mod(g, p) == sorted(roots)
            # each root's multiplicity is its count in the list f was built from
            for h in (f, g):
                vander = _vandermonde(np.array(sorted(roots)), len(h), p)
                assert _multiplicities(h, vander, p) == [
                    repeated.count(r) for r in sorted(roots)]

    # 3 is the least prime, 18899 the largest own prime
    @pytest.mark.parametrize("p", [3, 13, 1153, 18899])
    def test_against_horner(self, p):
        rng = random.Random(p)
        # degree 0; degree 1 with root 0 and with another root; 0 repeated
        cases = [[1], [p - 1], [0, 1], [1, p - 1], [0, 0, 1], [1, 1, 0]]
        for deg in (1, 2, 3, 4, 7, 8, 9, 15, 16, 24, 63, 92):
            for _ in range(4):
                cases.append([rng.randrange(p) for _ in range(deg)] + [rng.randrange(1, p)])
            roots = [0] + [rng.randrange(p) for _ in range(deg - 1)]
            cases.append(_from_roots(roots + roots[:deg // 2 + 1], p))  # repeats
        for f in cases:
            assert _roots_mod(f, p) == roots_by_horner(f, p), f

    @pytest.mark.parametrize("p", [3, 5, 13, 18899])
    def test_quotients_against_synthetic_division(self, p):
        rng = random.Random(p)
        for m in range(1, min(p - 1, 45) + 1):  # m <= d < p, as for a charpoly
            for trial in range(3):  # the first draw has root 0
                roots = sorted(rng.sample(range(p), m) if trial
                               else [0] + rng.sample(range(1, p), m - 1))
                vander = _vandermonde(np.array(roots), m + 1, p)
                assert np.array_equal(_quotients(vander, p),
                                      quotients_by_division(roots, p)), roots

    def test_no_roots(self):
        p = 13
        assert _roots_mod([2, 0, 1], p) == []  # x^2 + 2
        assert _roots_mod([5], p) == []
        assert _roots_mod([4, 4, 1], p) == [11]  # (x + 2)^2


class TestSweepBound:
    """The root sweep runs only below _SWEEP_PRIMES, at a group's own prime."""

    def test_every_own_prime_is_below_the_bound(self):
        # every exponent e divides the order n, so every (e, n) pair is covered
        own = [splitting_prime(e, n) for n in range(1, config.CHARTABLE_MAX_ORDER + 1)
               for e in range(1, n + 1) if n % e == 0]
        assert len(own) == 7262
        assert max(own) == 18899 < characters._SWEEP_PRIMES

    @pytest.mark.invariant
    @pytest.mark.parametrize("p", [32771, 4084081, P31])
    def test_sweep_refuses_primes_at_the_bound(self, p):
        # at P31 a sweep would allocate 16 GiB per array
        assert p >= characters._SWEEP_PRIMES
        with pytest.raises(InvariantViolation):
            _roots_mod([1, 1], p)

    def test_roots_only_at_the_own_prime(self, monkeypatch):
        swept = []
        roots_mod = characters._roots_mod
        monkeypatch.setattr(characters, "_roots_mod",
                            lambda f, p: swept.append(p) or roots_mod(f, p))
        tab = character_table(symmetric(3), prime=P31)
        assert tab.prime == P31 and tab.degrees == (1, 1, 2)
        assert swept and set(swept) == {13}

    @pytest.mark.parametrize("group, prime", [
        (symmetric(3), 7),               # not above 2|G|
        (symmetric(3), P31 - 2),         # not a prime
        (symmetric(3), 17),              # a prime, but not 1 mod 6
        (symmetric(3), 2**31 + 11),      # a prime = 1 mod 6 past PRIME_SEARCH_LIMIT
        (cyclic(4), 7),                  # a prime, not 1 mod 4
    ])
    def test_inadmissible_prime_is_refused_first(self, monkeypatch, group, prime):
        def refuse(*args):
            raise AssertionError("table work before the prime check")
        for name in ("_dixon_table", "_dual_group_table", "_roots_mod", "_moved"):
            monkeypatch.setattr(characters, name, refuse)
        with pytest.raises(PrimeSearchFailure, match="inadmissible"):
            character_table(group, prime=prime)


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
