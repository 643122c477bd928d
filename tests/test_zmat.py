"""Integer matrix machinery: SNF, finiteness, orbits, fixed structure, embeddings."""

import json
import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import bohrsound
from bohrsound import zmat
from bohrsound.errors import (
    DimensionMismatch,
    FactorNotFinite,
    NotUnimodular,
    SizeLimit,
)
from bohrsound.cli import main
from bohrsound.groups import FiniteAbelian, abelian_from_orders
from bohrsound.soundness import serialize_matrix_group
from bohrsound.zmat import (
    abelian_embeds,
    char_orbit,
    coproduct_orbit_obstruction,
    element_order,
    fixed_subgroup_structure,
    generated_group,
    identity,
    mat,
    mat_det,
    mat_inv_unimodular,
    mat_mul,
    minkowski_bound,
    smith_normal_form,
    torus_soundness,
    transpose,
)

from oracles import (
    abelian_embeds_oracle,
    char_orbit_bfs,
    det_cofactor,
    element_order_loop,
    generated_group_bfs,
    group_key,
    mat_vec,
    orbit_key,
    snf_invariants_oracle,
)

ALPHA = ((0, -1), (1, 0))   # order 4
BETA = ((0, -1), (1, 1))    # order 6
SWAP = ((0, 1), (1, 0))
NEG = ((-1, 0), (0, -1))


def random_matrix(rng, rows, cols, lo=-9, hi=9):
    return tuple(tuple(rng.randint(lo, hi) for _ in range(cols)) for _ in range(rows))


def random_unimodular(rng, k, steps=12):
    m = [list(r) for r in identity(k)]
    if k < 2:
        return mat(m)
    for _ in range(steps):
        i, j = rng.sample(range(k), 2)
        c = rng.randint(-2, 2)
        kind = rng.random()
        if kind < 0.45:
            for t in range(k):
                m[i][t] += c * m[j][t]
        elif kind < 0.9:
            for t in range(k):
                m[t][i] += c * m[t][j]
        else:
            m[i], m[j] = m[j], m[i]
    return mat(m)


def permutation_matrix(perm):
    k = len(perm)
    return tuple(tuple(int(perm[j] == i) for j in range(k)) for i in range(k))


def signed_permutation(rng, k):
    """A seeded signed permutation matrix u and its inverse."""
    perm = list(range(k))
    rng.shuffle(perm)
    signs = [rng.choice((1, -1)) for _ in range(k)]
    u = tuple(tuple(signs[i] * int(perm[j] == i) for j in range(k))
              for i in range(k))
    return u, mat_inv_unimodular(u)


def assert_like_oracle(gens, bound=None):
    """generated_group against the tuple BFS, which gives up past `bound`
    elements (Minkowski's bound by default; any bound above the largest
    finite order at the rank decides the same).  A group the oracle finds
    finite must be its group; one it gives up on must be reported infinite
    with witness count M(k) + 1."""
    res = generated_group(gens)
    oracle = generated_group_bfs(gens, bound)
    if oracle.finite:
        assert group_key(res) == group_key(oracle)
    else:
        assert not res.finite
        assert res.witness_count == minkowski_bound(res.rank) + 1
    return res


def hyperoctahedral_gens(k):
    """S_k by a k-cycle and a transposition, plus one sign flip: B_k."""
    cycle = permutation_matrix([(i + 1) % k for i in range(k)])
    swap = permutation_matrix([1, 0] + list(range(2, k)))
    sign = tuple(tuple(-1 if i == j == 0 else int(i == j) for j in range(k))
                 for i in range(k))
    return [cycle, swap, sign]


def padded_block(k, block):
    """The 2x2 block in the top-left corner, identity elsewhere."""
    return tuple(tuple(block[i][j] if i < 2 and j < 2 else int(i == j)
                       for j in range(k)) for i in range(k))


class TestMatBasics:
    def test_det_against_cofactor_oracle(self):
        rng = random.Random(11)
        for _ in range(60):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n)
            assert mat_det(a) == det_cofactor(a)

    def test_inverse_unimodular(self):
        rng = random.Random(5)
        for _ in range(25):
            k = rng.randint(1, 4)
            g = random_unimodular(rng, k)
            assert mat_mul(g, mat_inv_unimodular(g)) == identity(k)

    def test_inverse_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular):
            mat_inv_unimodular(((2, 0), (0, 1)))

    def test_mat_vec_and_transpose(self):
        assert mat_vec(ALPHA, (1, 0)) == (0, 1)
        assert transpose(ALPHA) == ((0, 1), (-1, 0))

    def test_ragged_rejected(self):
        with pytest.raises(DimensionMismatch):
            mat([[1, 2], [3]])


class TestSmithNormalForm:
    def check(self, a):
        u, s, v = smith_normal_form(a)
        rows, cols = len(a), len(a[0])
        assert mat_mul(mat_mul(u, mat(a)), v) == s
        assert mat_det(u) in (1, -1)
        assert mat_det(v) in (1, -1)
        diag = [s[i][i] for i in range(min(rows, cols))]
        for i in range(rows):
            for j in range(cols):
                if i != j:
                    assert s[i][j] == 0
        assert all(d >= 0 for d in diag)
        nz = [d for d in diag if d]
        for x, y in zip(nz, nz[1:]):
            assert y % x == 0
        assert diag[len(nz):] == [0] * (len(diag) - len(nz))
        return tuple(nz)

    def test_identity(self):
        u, s, v = smith_normal_form(identity(3))
        assert s == identity(3)

    def test_alpha_minus_identity(self):
        a = ((-1, -1), (1, -1))
        assert self.check(a) == (1, 2)

    def test_minus_two_identity(self):
        a = ((-2, 0), (0, -2))
        assert self.check(a) == (2, 2)

    def test_known_chain(self):
        a = ((2, 4, 4), (-6, 6, 12), (10, 4, 16))
        assert self.check(a) == (2, 2, 156)

    def test_random_square_against_minor_oracle(self):
        rng = random.Random(23)
        for _ in range(40):
            n = rng.randint(1, 4)
            a = random_matrix(rng, n, n)
            assert self.check(a) == snf_invariants_oracle(a)

    def test_random_rectangular_against_minor_oracle(self):
        rng = random.Random(29)
        for _ in range(40):
            rows = rng.randint(1, 4)
            cols = rng.randint(1, 5)
            a = random_matrix(rng, rows, cols)
            assert self.check(a) == snf_invariants_oracle(a)

    def test_zero_matrix(self):
        a = ((0, 0), (0, 0))
        assert self.check(a) == ()

    def test_seeded_sweep_against_minor_oracle(self):
        rng = random.Random(31)
        for _ in range(2000):
            a = random_matrix(rng, rng.randint(1, 6), rng.randint(1, 6),
                              lo=-100, hi=100)
            assert self.check(a) == snf_invariants_oracle(a)

    def test_coefficient_growth_matrix_terminates(self):
        # each run in a child process, so a hang fails the test instead of
        # stalling the suite
        out = json.loads(_run_child(_TIMED_SNF.format(a=GROWTH_MATRIX)))
        assert out["seconds"] < 1.0
        assert self.check(GROWTH_MATRIX) == snf_invariants_oracle(GROWTH_MATRIX)
        assert tuple(out["diagonal"]) == snf_invariants_oracle(GROWTH_MATRIX)

    def test_fixed_points_of_growth_matrix_from_the_cli(self):
        out = _run_child(_CLI, "zmat", "fixed", "--matrix",
                         json.dumps(GROWTH_MATRIX))
        assert out == "fixed points: Z/6 x Z/42238044\n"


# Reducing by whichever remainder turns up first, instead of re-picking the
# least entry of the block each round, lets the entries of this matrix grow
# past 800,000 decimal digits within 88 row and column operations.
GROWTH_MATRIX = [[8, -24, -44, 2, 48], [48, -7, 30, 33, -18],
                 [72, 36, -29, -108, 18], [6, 36, -12, -5, -18],
                 [4, 24, -20, 32, 8]]

_TIMED_SNF = """
import json, time
from bohrsound.zmat import smith_normal_form
start = time.perf_counter()
_, s, _ = smith_normal_form({a})
seconds = time.perf_counter() - start
print(json.dumps({{"seconds": seconds,
                   "diagonal": [s[i][i] for i in range(len(s)) if s[i][i]]}}))
"""

_CLI = "import sys; from bohrsound.cli import main; sys.exit(main(sys.argv[1:]))"


def _run_child(code: str, *argv: str) -> str:
    src = str(Path(bohrsound.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code, *argv], capture_output=True,
                          text=True, timeout=60, env=env)
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestMinkowskiBound:
    def test_values(self):
        assert minkowski_bound(1) == 2
        assert minkowski_bound(2) == 24
        assert minkowski_bound(3) == 48
        assert minkowski_bound(4) == 5760

    def test_limits(self):
        with pytest.raises(SizeLimit):
            minkowski_bound(0)
        with pytest.raises(SizeLimit):
            minkowski_bound(9)


class TestGeneratedGroup:
    def test_alpha_order_4(self):
        res = generated_group([ALPHA])
        assert res.finite and res.order == 4
        assert [[1, 0], [0, 1]] in res.matrices.tolist()

    def test_beta_order_6(self):
        res = generated_group([BETA])
        assert res.finite and res.order == 6

    def test_joint_infinite(self):
        res = generated_group([ALPHA, BETA])
        assert not res.finite
        assert res.witness_count == minkowski_bound(2) + 1

    def test_finite_order_divides_bound(self):
        rng = random.Random(3)
        for gens in ([ALPHA], [BETA], [NEG, SWAP], [ALPHA, NEG]):
            res = generated_group(gens)
            assert res.finite
            assert minkowski_bound(2) % res.order == 0
        for _ in range(10):
            g = random_unimodular(rng, 3, steps=4)
            res = generated_group([g])
            if res.finite:
                assert minkowski_bound(3) % res.order == 0

    def test_rejects_non_unimodular(self):
        with pytest.raises(NotUnimodular) as exc:
            generated_group([ALPHA, ((2, 0), (0, 1))])
        assert exc.value.witness == 2

    def test_one_determinant_per_generator(self, monkeypatch):
        calls = []
        det = zmat.mat_det

        def counting_det(a):
            calls.append(a)
            return det(a)

        monkeypatch.setattr(zmat, "mat_det", counting_det)
        generated_group([ALPHA, BETA])
        assert calls == [ALPHA, BETA]

    def test_element_order(self):
        assert element_order(NEG) == 2
        assert element_order(BETA) == 6
        assert element_order(((1, 1), (0, 1))) is None


class TestBatchedClosure:
    """Dimino's enumeration and the orbit closure against the tuple BFS in
    oracles.py."""

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_torus_shapes_conjugated(self, k):
        rng = random.Random(100 + k)
        u, u_inv = signed_permutation(rng, k)

        def conj(m):
            return mat_mul(mat_mul(u, m), u_inv)

        cases = [
            [conj(g) for g in hyperoctahedral_gens(k)],
            [conj(padded_block(k, ALPHA)), conj(padded_block(k, BETA))],
            [conj(padded_block(k, ALPHA))],
            [conj(padded_block(k, BETA))],
        ]
        for gens in cases:
            assert group_key(generated_group(gens)) == group_key(generated_group_bfs(gens))
        assert generated_group(cases[0]).order == 2 ** k * math.factorial(k)
        joint = generated_group(cases[1])
        assert joint.witness_count == minkowski_bound(k) + 1

    def test_random_unimodular_sweep(self):
        rng = random.Random(2024)
        finite = infinite = 0
        for _ in range(60):
            k = rng.choice((1, 2, 2, 3, 3, 3, 4))
            gens = [random_unimodular(rng, k, steps=rng.randint(1, 4))
                    for _ in range(rng.randint(1, 2))]
            # at rank 4 the oracle gives up at 1,200 elements (above the
            # largest finite order, 1,152), which spares it 5,760 products
            res = assert_like_oracle(gens, None if k < 4 else 1200)
            finite += res.finite
            infinite += not res.finite
            v = tuple(rng.randint(-3, 3) for _ in range(k))
            assert orbit_key(char_orbit(v, gens, cap=500)) == \
                orbit_key(char_orbit_bfs(v, gens, 500))
        assert finite > 10 and infinite > 10

    def test_products_cross_the_int64_guard(self):
        big = 2 ** 30
        for c in (1000, 2 ** 20, 2 ** 31):
            # finite groups with large entries, exact either way
            t = ((1, c), (0, 1))
            t_inv = mat_inv_unimodular(t)
            gens = [mat_mul(mat_mul(t, g), t_inv) for g in (ALPHA, SWAP)]
            res = generated_group(gens)
            assert res.finite and res.order == 8
            assert group_key(res) == group_key(generated_group_bfs(gens))
            # SL(2, Z) conjugated: generators of finite order, entries near
            # c^2, and two elements equal mod 3 among products past int64
            gens = [mat_mul(mat_mul(t, g), t_inv) for g in (ALPHA, BETA)]
            assert_like_oracle(gens, 200)
        # generators of infinite order: decided before any product
        assert_like_oracle([((1, 2 ** 40), (0, 1))], 200)
        assert_like_oracle([((1, big), (0, 1)), ((1, 0), (big, 1))], 200)
        v = (1, 0)
        gens = [((1, big), (0, 1)), ((1, 0), (big, 1))]
        assert orbit_key(char_orbit(v, gens, cap=300)) == \
            orbit_key(char_orbit_bfs(v, gens, 300))

    def test_input_entries_beyond_int64(self):
        huge = 2 ** 64
        t = ((1, huge), (0, 1))
        t_inv = mat_inv_unimodular(t)
        gens = [mat_mul(mat_mul(t, g), t_inv) for g in (ALPHA, NEG)]
        res = generated_group(gens)
        assert res.finite and res.order == 4
        assert group_key(res) == group_key(generated_group_bfs(gens))
        assert all(type(v) is int for v in res.matrices.ravel().tolist())
        assert_like_oracle([t], 30)
        v = (2 ** 70, -3)
        assert orbit_key(char_orbit(v, [ALPHA])) == \
            orbit_key(char_orbit_bfs(v, [ALPHA], 10 ** 6))
        assert orbit_key(char_orbit(v, [t], cap=50)) == \
            orbit_key(char_orbit_bfs(v, [t], 50))

    def test_results_hold_python_ints(self):
        res = generated_group([ALPHA])
        assert all(type(v) is int for v in res.matrices.ravel().tolist())
        orb = char_orbit((1, 0), [ALPHA])
        assert all(type(v) is int for x in orb.elements.tolist() for v in x)

    def test_orbit_at_and_past_cap(self):
        for p in (2, 3, 5, 7):
            gen = tuple(tuple(1 if i == (j + 1) % p else 0 for j in range(p))
                        for i in range(p))
            v = (1,) + (0,) * (p - 1)
            at = char_orbit(v, [gen], cap=p)
            assert at.finite and at.size == p
            assert orbit_key(at) == orbit_key(char_orbit_bfs(v, [gen], p))
            past = char_orbit(v, [gen], cap=p - 1)
            assert not past.finite and past.cap == p - 1
            assert orbit_key(past) == orbit_key(char_orbit_bfs(v, [gen], p - 1))
        fixed = char_orbit((1, 1), [SWAP], cap=1)
        assert orbit_key(fixed) == orbit_key(char_orbit_bfs((1, 1), [SWAP], 1))
        assert fixed.finite and fixed.size == 1

    @pytest.mark.parametrize("cap", [0, -1])
    def test_cap_below_one_is_refused(self, cap):
        # an orbit holds its own vector, so no orbit fits a cap below 1; the
        # fixed zero vector once came back finite of size 1 past cap 0
        for v in ((1, 0), (0, 0)):
            with pytest.raises(SizeLimit):
                char_orbit(v, [ALPHA], cap=cap)
        with pytest.raises(SizeLimit):
            coproduct_orbit_obstruction([(2, [ALPHA], (1, 0))], cap=cap)


def unipotent(k):
    """I + E_01: infinite order, and the identity mod 3 after 3 steps."""
    return tuple(tuple(int(i == j) + int((i, j) == (0, 1)) for j in range(k))
                 for i in range(k))


def weyl_e6_gens():
    """The simple reflections of W(E6) on its root lattice, from the Cartan
    matrix (Bourbaki's labels: 1-3-4-5-6 with 2 joined to 4)."""
    cartan = [[2 if i == j else 0 for j in range(6)] for i in range(6)]
    for i, j in ((0, 2), (2, 3), (3, 4), (4, 5), (1, 3)):
        cartan[i][j] = cartan[j][i] = -1
    return [tuple(tuple(int(r == c) - int(r == i) * cartan[i][c]
                        for c in range(6)) for r in range(6))
            for i in range(6)]


class TestDimino:
    """The phases of Dimino's enumeration: cyclic, coset, and the restart
    in Python ints."""

    def test_huge_entry_of_infinite_order_is_decided_at_once(self):
        # the cyclic phase reads the order mod 3 before any power is built
        m = ((1, 0, 0, 0), (0, 1, 0, 0), (0, 0, -2 ** 70, -1), (0, 0, 1, 0))
        start = time.perf_counter()
        res = generated_group([m])
        assert time.perf_counter() - start < 0.1
        assert not res.finite and res.witness_count == minkowski_bound(4) + 1

    @pytest.mark.parametrize("k", [4, 5])
    def test_unipotent_generator(self, k, monkeypatch):
        products = []
        mul = zmat._mul

        def counting_mul(a, b, *top):
            products.append(a)
            return mul(a, b, *top)

        monkeypatch.setattr(zmat, "_mul", counting_mul)
        res = generated_group([unipotent(k)])
        assert not res.finite and res.witness_count == minkowski_bound(k) + 1
        # after a finite generator too: every order is read before the
        # enumeration starts
        assert_like_oracle([padded_block(k, ALPHA), unipotent(k)], 200)
        assert products == []

    def test_cyclic_phase_doubles(self, monkeypatch):
        calls = []
        mul = zmat._mul
        monkeypatch.setattr(zmat, "_mul", lambda a, b, *top:
                            calls.append(len(b)) or mul(a, b, *top))
        blocks = [((0, -1), (1, 1)), ((0, -1), (1, 0)), ((0, 1), (-1, -1))]
        m = [[0] * 6 for _ in range(6)]
        for at, block in zip((0, 2, 4), blocks):  # orders 6, 4 and 3
            for i in range(2):
                m[at + i][at:at + 2] = block[i]
        res = generated_group([m])
        assert res.finite and res.order == 12
        assert len(calls) == 2 * 3  # 2 -> 4 -> 8 -> 16 powers, 2 products each
        assert group_key(res) == group_key(generated_group_bfs([m]))

    def test_coset_phase_crosses_the_int64_guard(self, monkeypatch):
        # the entries (up to 2^40) and the coset products h c fit in int64,
        # but c s could reach 2^81: the enumeration starts again in Python
        # ints after its cyclic phase
        t = ((1, 2 ** 20), (0, 1))
        swap = mat_mul(mat_mul(t, SWAP), mat_inv_unimodular(t))
        orders = []
        order = zmat._order
        monkeypatch.setattr(zmat, "_order",
                            lambda m, bound: orders.append(m) or order(m, bound))
        res = generated_group([NEG, swap])
        assert res.finite and res.order == 4
        assert res.matrices.dtype == object
        assert orders == [NEG, swap]  # once per generator, before either attempt
        assert group_key(res) == group_key(generated_group_bfs([NEG, swap]))

    def test_residues_on_both_sides_of_the_lookup_table(self):
        edge = 3 << 10  # the table serves -edge <= x < edge
        values = [-edge - 1, -edge, -edge + 1, -1, 0, 1, edge - 1, edge,
                  2 ** 62, -2 ** 63]
        for picked in (values[1:-3], values):
            rows = np.array(picked, dtype=np.int64).reshape(-1, 1, 1)
            for dtype in (np.int64, object):
                assert zmat._residue_keys(rows.astype(dtype)) == \
                    zmat.row_keys(np.array([[[v % 3]] for v in picked],
                                           dtype=np.int8))

    @pytest.mark.parametrize("top_bits", [25, 26, 30])
    def test_products_exact_on_both_sides_of_float64(self, top_bits):
        # k top^2 is 2^52, 2^54 and 2^62: a large product is taken in
        # float64 below 2^53 and in int64 above it
        k, rng = 4, np.random.default_rng(top_bits)
        top = 2 ** top_bits
        a = rng.integers(-top, top, size=(200, k), endpoint=True)
        b = rng.integers(-top, top, size=(3, k, k), endpoint=True)
        a[0, 0] = b[0, 0, 0] = top
        want = np.matmul(a.astype(object), b.astype(object))
        for given in (None, top):
            got = zmat._mul(a, b, given)
            assert got.dtype == np.int64 and (got == want).all()
        with pytest.raises(OverflowError):
            zmat._mul(a, b, 2 ** 31)  # k (2^31)^2 = 2^64

    def test_bound_stays_on_dimino(self):
        # D8 past a bound of 4 elements is no proof of anything: only the
        # enumeration takes a bound, and generated_group passes M(2)
        gens = [ALPHA, SWAP]
        orders = [element_order(g) for g in gens]
        assert zmat._dimino(gens, orders, 2, 4, np.int64) is None
        assert len(zmat._dimino(gens, orders, 2, 8, np.int64)) == 8
        res = generated_group(gens)
        assert res.finite and res.order == 8

    def test_sl2z_block_stops_within_its_image_mod_3(self, monkeypatch):
        # torus-infinite-5's joint action: SL(2, Z) on a 2x2 block, by
        # generators of orders 4 and 6.  Its image mod 3 is SL(2, 3), of
        # order 24, so every batch before the one that shows two elements
        # equal mod 3 fits inside it
        built = []
        keys = zmat._residue_keys
        monkeypatch.setattr(zmat, "_residue_keys",
                            lambda rows: built.append(len(rows)) or keys(rows))
        u, u_inv = signed_permutation(random.Random(5), 5)
        gens = [mat_mul(mat_mul(u, padded_block(5, g)), u_inv)
                for g in (ALPHA, BETA)]
        res = generated_group(gens)
        assert not res.finite and res.witness_count == minkowski_bound(5) + 1
        assert built and sum(built[:-1]) <= 24

    def test_bk_with_unipotent_is_infinite_at_once_in_1_gib(self):
        # B_k with I + E_01 at ranks 6-8 once enumerated up to M(k) and ran
        # out of memory; the unipotent generator's order now decides it
        code = r"""
import json, os, resource, sys, time
os.environ["OPENBLAS_NUM_THREADS"] = "1"  # no per-thread buffers
from bohrsound.zmat import generated_group
resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))
for gens in json.loads(sys.argv[1]):
    start = time.perf_counter()
    res = generated_group(gens)
    print(json.dumps([res.finite, res.witness_count,
                      time.perf_counter() - start]))
"""
        ranks = (6, 7, 8)
        cases = [hyperoctahedral_gens(k) + [unipotent(k)] for k in ranks]
        out = _run_child(code, json.dumps(cases))
        for k, line in zip(ranks, out.splitlines(), strict=True):
            finite, witness, seconds = json.loads(line)
            assert (finite, witness) == (False, minkowski_bound(k) + 1)
            assert seconds < 0.5, (k, seconds)

    def test_coset_batches_are_capped(self, monkeypatch):
        monkeypatch.setattr(zmat, "_BATCH_PRODUCTS", 64)
        sizes = []
        mul = zmat._mul

        def recording_mul(a, b, *top):
            out = mul(a, b, *top)
            if a.ndim == 2:  # H stacked, times a batch of c: (c, |H| k, k)
                sizes.append((len(out) * len(a) // a.shape[1],
                              len(a) // a.shape[1]))
            return out

        monkeypatch.setattr(zmat, "_mul", recording_mul)
        gens = hyperoctahedral_gens(4)
        assert group_key(generated_group(gens)) == \
            group_key(generated_group_bfs(gens))
        assert sizes and all(n <= max(64, h) for n, h in sizes)

    @pytest.mark.parametrize("gens, order", [
        (hyperoctahedral_gens(6), 46080),
        (weyl_e6_gens(), 51840),
    ], ids=["B6", "WE6"])
    def test_rank_6_ladder(self, gens, order):
        res = generated_group(gens)
        assert res.finite and res.order == order
        keys = set(zmat.row_keys(res.matrices))
        assert len(keys) == order
        for g in gens:
            moved = np.matmul(res.matrices, np.array(g, dtype=np.int64))
            assert set(zmat.row_keys(moved)) == keys


class TestSortedElements:
    """A finite group's elements print in the order sorted() gives their
    nested lists, and are the oracle's matrices."""

    @staticmethod
    def assert_sorted_like_oracle(gens):
        res = generated_group(gens)
        assert res.finite
        oracle = group_key(generated_group_bfs(gens))
        assert serialize_matrix_group(res)["elements"] == sorted(
            list(map(list, m)) for m in oracle[-1])
        assert group_key(res) == oracle

    def test_seeded_sweep_up_to_rank_4(self):
        rng = random.Random(1616)
        for _ in range(40):
            k = rng.randint(1, 4)
            # subsets of B_k, or of <BETA> x <-I> (orders 6 and 12)
            minus = tuple(tuple(-v for v in row) for row in identity(k))
            pool = [identity(k), minus]
            if k >= 2 and rng.random() < 0.3:
                pool = [padded_block(k, BETA), minus]
            elif k >= 2:
                pool += hyperoctahedral_gens(k) + [padded_block(k, ALPHA)]
            # conjugating by a unimodular u keeps the group finite and
            # puts negative and larger entries into the sort keys
            u = random_unimodular(rng, k, steps=rng.randint(0, 6))
            u_inv = mat_inv_unimodular(u)
            picked = rng.sample(pool, rng.randint(1, min(4, len(pool))))
            gens = [mat_mul(mat_mul(u, g), u_inv) for g in picked]
            self.assert_sorted_like_oracle(gens)

    @staticmethod
    def lexsort_calls(monkeypatch) -> list:
        """Records each np.lexsort call: the route for small groups and
        for wide entries."""
        calls, lexsort = [], np.lexsort
        monkeypatch.setattr(np, "lexsort",
                            lambda keys: calls.append(keys) or lexsort(keys))
        return calls

    def test_small_entries_sort_by_mixed_radix_keys(self, monkeypatch):
        # B_4 has entries -1..1: span 3, and 3^16 < 2^63
        calls = self.lexsort_calls(monkeypatch)
        self.assert_sorted_like_oracle(hyperoctahedral_gens(4))
        assert not calls
        assert generated_group(hyperoctahedral_gens(4)).matrices.size \
            >= zmat._KEYED_SORT_MIN

    def test_wide_int64_entries_fall_back_to_lexsort(self, monkeypatch):
        # B_4 conjugated by I + 20 E_01: entries span far more than 2^(63/16)
        u = tuple(tuple(int(i == j) + 20 * ((i, j) == (0, 1)) for j in range(4))
                  for i in range(4))
        u_inv = mat_inv_unimodular(u)
        gens = [mat_mul(mat_mul(u, g), u_inv) for g in hyperoctahedral_gens(4)]
        matrices = generated_group(gens).matrices
        span = int(matrices.max()) - int(matrices.min()) + 1
        assert matrices.dtype == np.int64 and span ** 16 >= 2 ** 63
        assert matrices.size >= zmat._KEYED_SORT_MIN
        calls = self.lexsort_calls(monkeypatch)
        self.assert_sorted_like_oracle(gens)
        assert calls

    @pytest.mark.parametrize("span", [55108, 55109])  # span^4 just below/above 2^63
    def test_keys_at_the_int64_edge(self, span):
        rng = np.random.default_rng(span)
        lo = -2 ** 62
        found = rng.integers(0, span, size=(zmat._KEYED_SORT_MIN, 2, 2)) + lo
        found[:2] = [[[lo, lo], [lo, lo]],
                     [[lo + span - 1] * 2, [lo + span - 1] * 2]]
        found = np.unique(found, axis=0)  # distinct, as a group's elements
        found = found[rng.permutation(len(found))]
        assert zmat._sorted_elements(found).tolist() == sorted(found.tolist())

    def test_object_dtype_group(self):
        t = ((1, 2 ** 64), (0, 1))
        t_inv = mat_inv_unimodular(t)
        gens = [mat_mul(mat_mul(t, g), t_inv) for g in (ALPHA, NEG)]
        assert generated_group(gens).matrices.dtype == object
        self.assert_sorted_like_oracle(gens)

    def test_empty_family_prints_the_identity(self, capsys):
        request = {"schema": 1, "kind": "torus-family", "rank": 2,
                   "factor_generators": []}
        assert main(["soundness", "--request", json.dumps(request),
                     "--format", "json"]) == 0
        joint = {"elements": [[[1, 0], [0, 1]]], "finite": True,
                 "order": 1, "rank": 2}
        expected = {"certificate": {"factor_orders": [], "joint": joint,
                                    "rank": 2},
                    "criterion": "torus-joint-action-finite",
                    "verdict": "Sound"}
        assert capsys.readouterr().out == json.dumps(
            expected, indent=2, sort_keys=True) + "\n"


class TestElementOrder:
    def test_unipotent_rank_8_is_fast(self):
        u = tuple(tuple(int(j in (i, i + 1)) for j in range(8))
                  for i in range(8))
        start = time.perf_counter()
        assert element_order(u) is None
        assert time.perf_counter() - start < 1.0

    def test_cyclotomic_block_sum(self):
        def companion(coeffs):
            # monic x^n + c_{n-1} x^{n-1} + ... + c_0, coeffs = [c_0 .. c_{n-1}]
            n = len(coeffs)
            return [[(1 if i == j + 1 else 0) if j < n - 1 else -coeffs[i]
                     for j in range(n)] for i in range(n)]

        blocks = [companion([1, 0]), companion([1, 1]),
                  companion([1, 1, 1, 1])]  # Phi_4, Phi_3, Phi_5
        m = [[0] * 8 for _ in range(8)]
        at = 0
        for b in blocks:
            for i, row in enumerate(b):
                m[at + i][at:at + len(row)] = row
            at += len(b)
        assert element_order(m) == 60
        assert element_order(m, bound=59) is None
        assert element_order(m, bound=60) == 60

    def test_random_sweep_against_loop(self):
        rng = random.Random(99)
        seen = set()
        for _ in range(150):
            k = rng.randint(1, 4)
            m = random_unimodular(rng, k, steps=rng.randint(1, 5))
            # finite orders in GL(4, Z) are at most 12, so bound 60 at rank 4
            # gives the default-bound answer without 5,760 big-int products
            big = None if k < 4 else 60
            got = element_order(m, big)
            assert got == element_order_loop(m, big)
            seen.add(got)
            bound = rng.randint(0, 8)
            assert element_order(m, bound) == element_order_loop(m, bound)
        assert None in seen and len(seen) > 3


class TestCharOrbit:
    def test_zero_vector(self):
        res = char_orbit((0, 0), [ALPHA])
        assert res.finite and res.size == 1

    def test_alpha_square_orbit(self):
        res = char_orbit((1, 0), [ALPHA])
        assert res.finite and res.size == 4
        assert orbit_key(res)[3] == {(1, 0), (0, 1), (-1, 0), (0, -1)}

    def test_joint_exceeds_cap(self):
        res = char_orbit((1, 0), [ALPHA, BETA], cap=10 ** 4)
        assert not res.finite
        assert res.cap == 10 ** 4

    def test_p_cycle_orbit(self):
        for p in (2, 3, 5, 7):
            gen = tuple(tuple(1 if i == (j + 1) % p else 0 for j in range(p))
                        for i in range(p))
            res = char_orbit((1,) + (0,) * (p - 1), [gen])
            assert res.finite and res.size == p

    def test_orbit_divides_group_order(self):
        rng = random.Random(17)
        for gens in ([ALPHA], [BETA], [NEG, SWAP]):
            order = generated_group(gens).order
            for _ in range(12):
                v = tuple(rng.randint(-3, 3) for _ in range(2))
                res = char_orbit(v, gens)
                assert res.finite
                assert order % res.size == 0

    def test_dimension_mismatch(self):
        with pytest.raises(DimensionMismatch):
            char_orbit((1, 0, 0), [ALPHA])

    def test_seeded_sweep_against_bfs(self):
        rng = random.Random(2718)
        for _ in range(30):
            k = rng.randint(2, 5)
            u, u_inv = signed_permutation(rng, k)
            pool = hyperoctahedral_gens(k) + [padded_block(k, BETA),
                                               random_unimodular(rng, k, 3)]
            gens = [mat_mul(mat_mul(u, g), u_inv)
                    for g in rng.sample(pool, rng.randint(1, 3))]
            v = tuple(rng.randint(-2, 2) for _ in range(k))
            cap = rng.choice((50, 400, 4000))
            assert orbit_key(char_orbit(v, gens, cap=cap)) == \
                orbit_key(char_orbit_bfs(v, gens, cap))

    def test_keys_of_three_levels_at_most(self, monkeypatch):
        # steps closed under inverses keep a product within one level of
        # its factor, so the closure holds the keys of three levels only:
        # the 40-cycle's levels hold two vectors each
        held = []
        new_rows = zmat._new_rows
        monkeypatch.setattr(zmat, "_new_rows", lambda keys, known, *rest:
                            held.append(len(known)) or
                            new_rows(keys, known, *rest))
        cycle = permutation_matrix([(i + 1) % 40 for i in range(40)])
        res = char_orbit((1,) + (0,) * 39, [cycle])
        assert res.finite and res.size == 40
        assert sorted(map(tuple, res.elements.tolist())) == \
            sorted(cycle[i] for i in range(40))
        assert max(held) <= 6


class TestFixedStructure:
    CASES = [
        (identity(2), 2, ()),
        (NEG, 0, (2, 2)),
        (((1, 0), (0, -1)), 1, (2,)),
        (((-1, 1), (0, 1)), 1, ()),
        (((0, 1), (-1, -1)), 0, (3,)),   # order 3
        (ALPHA, 0, (2,)),                # order 4
        (BETA, 0, ()),                   # order 6
    ]

    def test_table(self):
        for m, rank, factors in self.CASES:
            fs = fixed_subgroup_structure(m)
            assert fs.circle_rank == rank
            assert fs.torsion.invariant_factors == factors

    def test_conjugation_invariance(self):
        rng = random.Random(41)
        for m, rank, factors in self.CASES:
            for _ in range(6):
                g = random_unimodular(rng, 2)
                conj = mat_mul(mat_mul(g, m), mat_inv_unimodular(g))
                fs = fixed_subgroup_structure(conj)
                assert fs.circle_rank == rank
                assert fs.torsion.invariant_factors == factors

    def test_finite_order_helper(self):
        fs = fixed_subgroup_structure(NEG)
        assert fs.is_finite and fs.finite_order == 4
        fs = fixed_subgroup_structure(((1, 0), (0, -1)))
        assert not fs.is_finite and fs.finite_order is None


class TestAbelianEmbeds:
    def test_hand_cases(self):
        z27z3 = abelian_from_orders([27, 3])
        assert not abelian_embeds(z27z3, 1, FiniteAbelian((2,)))
        assert abelian_embeds(abelian_from_orders([4]), 1, FiniteAbelian(()))
        assert abelian_embeds(FiniteAbelian(()), 0, FiniteAbelian(()))
        assert abelian_embeds(z27z3, 2, FiniteAbelian(()))
        assert abelian_embeds(z27z3, 1, FiniteAbelian((3,)))
        assert not abelian_embeds(z27z3, 0, FiniteAbelian((27,)))
        assert abelian_embeds(abelian_from_orders([2, 2]), 1, FiniteAbelian((2,)))
        assert not abelian_embeds(abelian_from_orders([2, 2, 2]), 1, FiniteAbelian((2,)))

    def test_against_backtracking_oracle(self):
        rng = random.Random(97)
        pool = [(), (2,), (4,), (2, 2), (8,), (2, 4), (3,), (9,), (3, 3),
                (2, 6), (12,), (2, 2, 2), (4, 4), (6,), (18,)]
        checked = 0
        for _ in range(120):
            d_orders = rng.choice(pool)
            a_orders = rng.choice(pool)
            rank = rng.randint(0, 2)
            d = abelian_from_orders(d_orders)
            a = abelian_from_orders(a_orders)
            if d.order > 64:
                continue
            got = abelian_embeds(d, rank, a)
            want = abelian_embeds_oracle(d.invariant_factors, rank,
                                         a.invariant_factors)
            assert got == want, (d_orders, rank, a_orders)
            checked += 1
        assert checked > 80

    def test_embeds_into_fixed(self):
        fs = fixed_subgroup_structure(((1, 0), (0, -1)))
        assert abelian_embeds(abelian_from_orders([12]), fs.circle_rank, fs.torsion)
        assert not abelian_embeds(abelian_from_orders([27, 3]), fs.circle_rank,
                                  fs.torsion)


class TestTorusSoundness:
    def test_collapse_family(self):
        res = torus_soundness(2, [[ALPHA], [BETA]])
        assert not res.sound
        assert res.factor_orders == (4, 6)
        assert not res.joint.finite

    def test_single_factor_sound(self):
        res = torus_soundness(2, [[ALPHA]])
        assert res.sound and res.joint.order == 4

    def test_neg_swap_sound(self):
        res = torus_soundness(2, [[NEG], [SWAP]])
        assert res.sound
        assert res.joint.order == 4

    def test_factor_not_finite(self):
        with pytest.raises(FactorNotFinite):
            torus_soundness(2, [[((1, 1), (0, 1))]])

    def test_wrong_rank(self):
        with pytest.raises(DimensionMismatch):
            torus_soundness(3, [[ALPHA]])

    @pytest.mark.parametrize("rank", [0, 9, 10 ** 6])
    def test_rank_out_of_range_without_generators(self, rank):
        # with no generator to check, the identity of rank 10^6 was built
        with pytest.raises(SizeLimit):
            torus_soundness(rank, [])

    def test_monotone_under_subfamilies(self):
        family = [[NEG], [SWAP], [((0, -1), (-1, 0))]]
        assert torus_soundness(2, family).sound
        for i in range(3):
            sub = family[:i] + family[i + 1:]
            assert torus_soundness(2, sub).sound


class TestOrbitObstruction:
    @staticmethod
    def members(ps):
        out = []
        for p in ps:
            gen = tuple(tuple(1 if i == (j + 1) % p else 0 for j in range(p))
                        for i in range(p))
            out.append((p, [gen], (1,) + (0,) * (p - 1)))
        return out

    def test_growing_profile(self):
        rep = coproduct_orbit_obstruction(self.members([2, 3, 5, 7]))
        assert rep.sizes == (2, 3, 5, 7)
        assert rep.growing

    def test_single_member_no_flag(self):
        rep = coproduct_orbit_obstruction(self.members([5]))
        assert rep.sizes == (5,)
        assert not rep.growing

    def test_fixed_vectors_no_flag(self):
        mems = []
        for p in (2, 3, 5):
            gen = tuple(tuple(1 if i == (j + 1) % p else 0 for j in range(p))
                        for i in range(p))
            mems.append((p, [gen], (1,) * p))
        rep = coproduct_orbit_obstruction(mems)
        assert rep.sizes == (1, 1, 1)
        assert not rep.growing

    def test_zero_vector_rejected(self):
        with pytest.raises(DimensionMismatch):
            coproduct_orbit_obstruction([(2, [SWAP], (0, 0))])

    def test_rank_must_match_the_generators(self):
        members = self.members([2, 3]) + [(4, self.members([5])[0][1],
                                            (1, 0, 0, 0, 0))]
        with pytest.raises(DimensionMismatch, match="member 2 has rank 4"):
            coproduct_orbit_obstruction(members)
