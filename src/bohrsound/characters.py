"""Character tables over GF(p) and restriction/Clifford analysis.

The prime satisfies p = 1 mod exponent(G) and p > 2|G|, so character values
live in GF(p) and every inner product of genuine characters lifts to the
true integer.

An abelian group's characters are its homomorphisms into the e-th roots of
unity of GF(p), e = exponent(G) (Serre, Linear Representations of Finite
Groups, section 3.1).  They are read off the dual group: extended one cyclic
step at a time along a chain of subgroups, as exponents of one root of unity
z, in O(|G|^2).  The set of rows does not depend on z: another root z^j, j
prime to e, maps each row lam to the row lam^j.  Rows are sorted, so the
table equals the one the class-algebra route gives.  check_table checks such
a table by definition, in O(|G|^2 log|G|), rather than by the Gram product.

Every other table comes from the class-algebra eigenvector method (Dixon,
Numer. Math. 10, 1967): the structure constants of the class sums give r
commuting matrices over GF(p) whose common eigenvectors are the central
characters; degrees and values are recovered from orthogonality.

Each refinement round splits the pending subspaces by the eigenspaces of one
random linear combination A of the class matrices, usually all of them in
the first round.  It reads everything off one table of powers of the d x d
matrix A, by baby and giant steps (Paterson-Stockmeyer, SIAM J. Comput. 2,
1973): A^0 .. A^s, s = isqrt(d) + 1, or fewer past 523 classes so that the
babies stay within 48 MiB.  That is about 2 sqrt(d) products, not O(d)
sequential numpy steps.  The power sums tr(A^k), k <= d, give the
characteristic polynomial f by Newton's identities, exact since d <= r <=
|G| < p/2 makes every k <= d invertible mod p.

Eigenvalues are the roots of f.  Below p = _SWEEP_PRIMES = 2**14 they are
found as Dixon found them, by evaluating f at every point of GF(p), in one
numpy sweep; at and above it as gcd(f, x^p - x), split by Cantor-Zassenhaus
(Math. Comp. 36, 1981) down to linear factors, with every power mod f taken
on big integers packed one coefficient per slot (Kronecker substitution).
The two routes cross between p = 1.6 * 10**4 and 6.6 * 10**4 (see
_SWEEP_PRIMES), so the sweep's cost and its arrays are bounded by a
constant, and no other cost or allocation grows with p.  Every eigenspace of
a matrix comes from one block Krylov basis, giant steps over the babies
times a block V.  The random choices (round coefficients, Krylov blocks,
splitting shifts) come from a generator seeded with the prime, so each
computation is reproducible; the table does not depend on them, since rows
are canonical and sorted by (degree, values).

Residues are int64 in [0, p).  Every sum of products of residue arrays goes
through _matmul_mod, so all arithmetic is exact for every prime below
config.PRIME_SEARCH_LIMIT = 2**31.

Value vectors at different primes are not comparable, so any operation that
crosses between a group and a subgroup computes both tables at one shared
prime (the ambient group's, or a family-wide common prime).

There is no in-process memo: character_table computes on every call, and a
caller that needs a table twice keeps it.  The cache module's disk cache is
the only table cache; it takes its prime from table_prime too.  The
functions that need tables (fin_check, equalizer_witness) take a `table`
provider with character_table's signature, so the CLI can pass the cached
one; by default they look up character_table when called.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from functools import cached_property
from math import gcd, isqrt

import numpy as np

from . import config
from .errors import (
    DegreeMismatch,
    InvariantViolation,
    NotNormal,
    NotProper,
    PrimeSearchFailure,
    SizeLimit,
    SourceMismatch,
)
from .groups import FiniteGroup, GroupHom, factorize, greedy_generators, reachable


# -- primes -----------------------------------------------------------------


def _is_prime(n: int) -> bool:
    if n < 2:
        return False
    for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37):
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def splitting_prime(exponent: int, min_order: int) -> int:
    """Smallest prime p = 1 mod exponent with p > 2*min_order."""
    p = -(-2 * min_order // exponent) * exponent + 1
    while p < config.PRIME_SEARCH_LIMIT:
        if p > 2 * min_order and _is_prime(p):
            return p
        p += exponent
    raise PrimeSearchFailure(f"no admissible prime below {config.PRIME_SEARCH_LIMIT}")


def common_prime(groups) -> int:
    """One prime valid for every group in the family."""
    e = 1
    m = 1
    for g in groups:
        e = e * g.exponent // gcd(e, g.exponent)
        m = max(m, g.order)
    return splitting_prime(e, m)


# -- modular arithmetic ---------------------------------------------------------
#
# With p < 2**31 the product of two residues fits in int64, but a sum of such
# products may not.


def _matmul_mod(a: np.ndarray, b: np.ndarray, p: int) -> np.ndarray:
    """a @ b mod p for residue arrays (entries in [0, p)), exact for every p < 2**31.

    Products by a vector (or a single column), and small ones, run in int64,
    where BLAS gains nothing, with b in limbs that keep every sum below 2**63;
    the others in float64, a in limbs that keep every sum below 2**53 (BLAS
    is exact there), reduced after their exact conversion to int64.
    """
    bits = (p - 1).bit_length()
    terms = a.shape[-1]
    if b.size == b.shape[0] or a.size * b.shape[-1] <= 1 << 15:
        width = 63 - terms.bit_length() - bits
        if width >= bits:
            return a @ b % p

        def limb(shift, mask):
            return a @ (b >> shift & mask) % p
    else:
        width = 53 - terms.bit_length() - bits
        fb = b.astype(np.float64)
        if width >= bits:
            return (a.astype(np.float64) @ fb).astype(np.int64) % p

        def limb(shift, mask):
            return ((a >> shift & mask).astype(np.float64) @ fb).astype(np.int64) % p
    if width < 1:
        raise ArithmeticError("too many terms for an exact modular product")
    out = 0
    for shift in range(0, bits, width):
        out = (out + limb(shift, (1 << width) - 1) * pow(2, shift, p)) % p
    return out


def _rref_mod(a: np.ndarray, p: int) -> tuple[np.ndarray, list[int]]:
    """Reduced row echelon form of a over GF(p), and its pivot columns."""
    a = a.astype(np.int64) % p
    rows, cols = a.shape
    pivots = []
    r = 0
    for c in range(cols):
        if r == rows:
            break
        i = r + int(a[r:, c].argmax())
        if not a[i, c]:
            continue
        pivot = a[i] * pow(int(a[i, c]), p - 2, p) % p
        a[i] = a[r]
        # one rank-1 update clears column c everywhere; row r is then the pivot row
        a -= a[:, c, None] * pivot % p
        a %= p
        a[r] = pivot
        pivots.append(c)
        r += 1
    return a, pivots


# At most this many int64 words (48 MiB) of baby powers: from d = 524 on they
# are fewer than isqrt(d) + 1; at 640 classes 15 rather than 26, 55 rather than
# 48 products (Z128 x D4: 1.85 s, 149 MB peak RSS; Hessenberg: 1.96 s, 96 MB).
_POWER_TABLE_WORDS = 3 << 21


def _power_table(a: np.ndarray, p: int) -> np.ndarray:
    """a^0 .. a^s over GF(p), stacked: the baby powers a^i, i < s, and the
    giant step a^s, with s = isqrt(d) + 1 (s**2 > d) within _POWER_TABLE_WORDS."""
    d = a.shape[0]
    s = max(2, min(isqrt(d) + 1, _POWER_TABLE_WORDS // (d * d)))
    powers = np.empty((s + 1, d, d), dtype=np.int64)
    powers[0] = np.eye(d, dtype=np.int64)
    powers[1] = a
    for i in range(2, s + 1):
        powers[i] = _matmul_mod(powers[i - 1], a, p)
    return powers


def _charpoly_mod(powers: np.ndarray, p: int) -> list[int]:
    """Monic characteristic polynomial of a = powers[1] (its _power_table),
    low degree first.  tr(a^(js) a^i) for all babies a^i is one product per
    giant power a^(js); Newton's identities, k c_k = -(tr(a^k) + c_1
    tr(a^(k-1)) + ... + c_(k-1) tr(a)), give the coefficient c_k of x^(d-k)
    and need every k <= d invertible: d < p."""
    d = powers.shape[1]
    if d >= p:
        raise InvariantViolation(f"charpoly by power sums needs {d} rows < p = {p}")
    s = len(powers) - 1
    babies = powers[:s].reshape(s, d * d)
    giant = powers[0]
    sums = []  # sums[k] = tr(a^k); tr(G B) is G^T, raveled, dotted with B
    while True:
        sums += _matmul_mod(babies, giant.T.ravel(), p).tolist()
        if len(sums) > d:
            break
        giant = powers[s] if len(sums) == s else _matmul_mod(giant, powers[s], p)
    coeffs = [1]
    for k in range(1, d + 1):
        acc = sum(map(operator.mul, coeffs, sums[k:0:-1]))
        coeffs.append(-acc * pow(k, p - 2, p) % p)
    return coeffs[::-1]


# -- polynomials over GF(p): lists of ints, low degree first, no trailing zeros --


def _poly_trim(a: list[int]) -> list[int]:
    while a and not a[-1]:
        a.pop()
    return a


def _poly_monic(a: list[int], p: int) -> list[int]:
    inv = pow(a[-1], p - 2, p)
    return [c * inv % p for c in a]


def _poly_divmod(a: list[int], b: list[int], p: int) -> tuple[list[int], list[int]]:
    """Quotient and remainder of a by the monic b."""
    a = list(a)
    db = len(b) - 1
    q = [0] * max(len(a) - db, 0)
    for i in range(len(a) - 1, db - 1, -1):
        c = a[i] % p
        if c:
            q[i - db] = c
            for j in range(db):
                a[i - db + j] -= c * b[j]
    return q, _poly_trim([c % p for c in a[:db]])


def _poly_gcd(a: list[int], b: list[int], p: int) -> list[int]:
    """Monic gcd; a must be nonzero."""
    a = _poly_monic(a, p)
    while b:
        b = _poly_monic(b, p)
        a, b = b, _poly_divmod(a, b, p)[1]
    return a


def _poly_powmod(shift: int, e: int, f: list[int], p: int) -> list[int]:
    """(x + shift)**e mod the monic f, of degree k >= 2.

    Polynomials are packed one coefficient per slot into a big integer
    (Kronecker substitution): a square is one product, and folding its high
    half adds multiples of the packed rows of red; slots stay below 2k p**2,
    so they never carry into each other.
    """
    k = len(f) - 1
    # red[i] = x**(k + i) mod f: the high half of a product folds onto these
    red = []
    row = [-c % p for c in f[:k]]
    for _ in range(k - 1):
        red.append(row)
        top = row[-1]
        row = [(lo - top * c) % p for lo, c in zip([0] + row[:-1], f)]
    width = 2 * (p - 1).bit_length() + (2 * k).bit_length()
    mask = (1 << width) - 1
    low = (1 << width * k) - 1

    def pack(coeffs):
        packed = 0
        for x in reversed(coeffs):
            packed = packed << width | x
        return packed

    red_packed = [pack(r) for r in red]
    out = [shift % p, 1]
    for bit in bin(e)[3:]:
        sq = pack(out) ** 2
        acc = sq & low
        for i, r in enumerate(red_packed):
            acc += (sq >> width * (k + i) & mask) % p * r
        out = [(acc >> width * j & mask) % p for j in range(k)]
        if bit == "1":
            # times (x + shift): shift up, fold the x**k coefficient onto red[0]
            top = out[-1]
            out = [(lo + shift * c + top * r) % p
                   for lo, c, r in zip([0] + out[:-1], out, red[0])]
    return _poly_trim(out)


# _roots_mod evaluates f at every point of GF(p) below this prime and splits
# it above.  Timed on random split polynomials with distinct roots (best of
# 7), a sweep costs about 5 ns * p * deg and the splitting 0.06 to
# 0.3 ms * deg; at p = 16381 that is 0.7 against 0.7 to 1.2 ms at degree 8
# and 7.5 against 20 to 28 ms at degree 92, and the two cross between
# p = 1.6 * 10**4 and 6.6 * 10**4 (65537, at degree 92).  Below 2**14 the
# sweep is never the slower, and its arrays stay within 128 KiB.
_SWEEP_PRIMES = 1 << 14


def _roots_mod(f, p: int, rng: random.Random) -> list[int]:
    """Distinct roots of the nonzero f (coefficients low degree first) in GF(p), ascending.

    Below _SWEEP_PRIMES by _roots_by_sweep, otherwise by _roots_by_splitting;
    both return the same list.
    """
    f = _poly_monic(_poly_trim([int(c) % p for c in f]), p)
    if p < _SWEEP_PRIMES:
        return _roots_by_sweep(f, p)
    return _roots_by_splitting(f, p, rng)


def _roots_by_sweep(f: list[int], p: int) -> list[int]:
    """Distinct roots of the monic f in GF(p), ascending: one Horner evaluation
    at every point.  Each step stays below p**2 + p < 2**63 in int64."""
    x = np.arange(p, dtype=np.int64)
    acc = np.ones(p, dtype=np.int64)
    for c in reversed(f[:-1]):
        acc *= x
        acc += c
        acc %= p
    return np.flatnonzero(acc == 0).tolist()


def _roots_by_splitting(f: list[int], p: int, rng: random.Random) -> list[int]:
    """Distinct roots of the monic f in GF(p), ascending, in time polynomial
    in deg f and log p; nothing is sized by p.

    Their product is gcd(f, x^p - x); Cantor-Zassenhaus splits it with
    gcd(g, (x + a)^((p-1)/2) - 1) for random shifts a, down to linear factors.
    """
    if len(f) > 2:
        xp = _poly_powmod(0, p, f, p) + [0, 0]
        xp[1] -= 1
        f = _poly_gcd(f, _poly_trim([c % p for c in xp]), p)
    pending = [f]
    roots = []
    while pending:
        g = pending.pop()
        if len(g) < 3:  # linear, or 1 when f has no root
            roots += [-g[0] % p] if len(g) == 2 else []
            continue
        while True:
            w = _poly_powmod(rng.randrange(p), (p - 1) // 2, g, p) or [0]
            w[0] = (w[0] - 1) % p
            h = _poly_gcd(g, _poly_trim(w), p)
            if 2 <= len(h) < len(g):
                pending += [h, _poly_divmod(g, h, p)[0]]
                break
    return sorted(roots)


# -- eigenspaces -------------------------------------------------------------------


def _eigenspaces(a: np.ndarray, p: int, rng: random.Random,
                 start: np.ndarray | None = None) -> list[tuple]:
    """The eigenspaces of a over GF(p), by ascending eigenvalue.

    Each is (basis, rows, start): basis columns span it; when it has more
    than one dimension, basis[rows] is the identity (column echelon form)
    and start holds the coordinates of the image of `start` in it.

    With lam_1..lam_m the distinct eigenvalues and s = prod (x - lam_j),
    s(a) = 0 when a is diagonalizable, so (s / (x - lam_j))(a) maps onto the
    lam_j-eigenspace.  All m images of a block V are read off one block
    Krylov basis [V, aV, ..., a^(m-1) V] times the coefficients of
    s / (x - lam_j); it and the characteristic polynomial come from one
    _power_table of a.  V has (largest multiplicity) columns; the first is
    `start` (default e_0): every central character has a nonzero e_0
    component, and passing on the coordinates of its image keeps that true
    in the subspaces of later rounds.  The other columns are random, and so
    is all of V on a retry.  The result is checked (a U = U Lambda, with d
    columns in all); PrimeSearchFailure unless a diagonalizes over GF(p).
    """
    d = a.shape[0]
    powers = _power_table(a, p)
    f = _charpoly_mod(powers, p)
    roots = _roots_mod(f, p, rng)
    m = len(roots)
    s = np.zeros(m + 1, dtype=np.int64)  # prod (x - lam_j), low degree first
    s[0] = 1
    for lam in roots:
        s[1:] = (s[:-1] - lam * s[1:]) % p
        s[0] = -lam * s[0] % p
    s = s.tolist()
    mult = [1] * m
    rest = _poly_divmod(f, s, p)[0]
    for j, lam in enumerate(roots):
        while len(rest) > 1:
            quot, rem = _poly_divmod(rest, [-lam % p, 1], p)
            if rem:
                break
            rest = quot
            mult[j] += 1
    if sum(mult) != d:
        raise PrimeSearchFailure("class matrix failed to diagonalize mod p")
    lams = np.array(roots, dtype=np.int64)
    # numer[t, j] = coefficient of x^t in s / (x - lam_j), by synthetic division
    numer = np.empty((m, m), dtype=np.int64)
    numer[m - 1] = 1
    for t in range(m - 1, 0, -1):
        numer[t - 1] = (s[t] + lams * numer[t]) % p
    k = max(mult)
    if start is None:
        start = np.zeros(d, dtype=np.int64)
        start[0] = 1
    for attempt in range(3):
        krylov = np.empty((m, d, k), dtype=np.int64)
        # V: `start` and then random columns; all random on a retry
        first = 0 if attempt else 1
        if k > first:
            krylov[0, :, first:] = [[rng.randrange(p) for _ in range(first, k)]
                                    for _ in range(d)]
        if not attempt:
            krylov[0, :, 0] = start
        # a^(t + i) V = a^t (a^i V) for the baby powers a^i, i < step, and
        # t = 0, step, 2 step, ...: one product by the giant step a^step each
        step = len(powers) - 1
        block = np.stack([_matmul_mod(baby, krylov[0], p) for baby in powers[:min(step, m)]])
        krylov[:step] = block
        for t in range(step, m, step):
            wide = _matmul_mod(powers[step], block.transpose(1, 0, 2).reshape(d, step * k), p)
            block = wide.reshape(d, step, k).transpose(1, 0, 2)
            krylov[t:t + step] = block[:m - t]
        images = _matmul_mod(numer.T, krylov.reshape(m, d * k), p).reshape(m, d, k)
        nonzero = images.any(axis=1).tolist()
        spaces = []
        for j in range(m):
            if mult[j] == 1:
                c = nonzero[j].index(True) if True in nonzero[j] else k
                spaces.append((images[j][:, c:c + 1], None, None))
            else:
                echelon, rows = _rref_mod(images[j].T, p)
                spaces.append((echelon[:len(rows)].T, rows, images[j][rows, 0]))
        u = np.concatenate([space[0] for space in spaces], axis=1)
        lam_cols = np.repeat(lams, [space[0].shape[1] for space in spaces])
        if (_matmul_mod(a, u, p) != u * lam_cols % p).any():
            raise PrimeSearchFailure("class matrix failed to diagonalize mod p")
        if u.shape[1] == d:
            return spaces
    raise PrimeSearchFailure("class matrix failed to diagonalize mod p")


# -- the table -----------------------------------------------------------------


class CharacterTable:
    """Irreducible characters of a finite group, as values in GF(p).

    Rows are sorted by (degree, value vector); columns follow the group's
    conjugacy class order.  Everything downstream treats rows as opaque
    irreducibles and only ever compares them through integer inner products.
    """

    def __init__(self, group: FiniteGroup, prime: int, degrees, values):
        self.group = group
        self.prime = prime
        self.degrees = tuple(int(d) for d in degrees)
        vals = np.asarray(values, dtype=np.int64) % prime
        vals.setflags(write=False)
        self.values = vals
        self.n_classes = len(group.conjugacy_classes)
        self._sizes = np.array([len(c) for c in group.conjugacy_classes],
                               dtype=np.int64)
        self._inv_cls = list(group.inverse_class)
        self._order_inv = pow(group.order, prime - 2, prime)

    @cached_property
    def _row_lookup(self) -> dict[tuple[int, ...], int]:
        return {row: i for i, row in enumerate(map(tuple, self.values.tolist()))}

    @property
    def n_irreducibles(self) -> int:
        return len(self.degrees)

    def row(self, i: int) -> np.ndarray:
        return self.values[i]

    def row_index(self, vector) -> int:
        key = tuple(int(v) % self.prime for v in vector)
        try:
            return self._row_lookup[key]
        except KeyError:
            raise SourceMismatch("vector is not an irreducible character") from None

    def inner(self, u, v):
        """<u, v> = sum_k |C_k| u(k) v(k^-1) / |G| over GF(p), as an integer
        for two class-function value vectors, or as the matrix of every row
        of u against every row of v for two row matrices.

        Exact whenever the true inner product lies in [0, p), which holds for
        all restriction and multiplicity computations used here.
        """
        p = self.prime
        u = np.asarray(u, dtype=np.int64) % p
        v = np.asarray(v, dtype=np.int64) % p
        tot = _matmul_mod(u * self._sizes % p, v[..., self._inv_cls].T, p)
        out = tot * self._order_inv % p
        return int(out) if np.ndim(out) == 0 else out

    def trivial_index(self) -> int:
        return self.row_index([1] * self.n_classes)

    def serialize(self) -> dict:
        return {
            "schema": "bohrsound/chartable/1",
            "group_digest": self.group.table_digest,
            "order": self.group.order,
            "prime": self.prime,
            "class_reps": list(self.group.class_reps),
            "class_sizes": [len(c) for c in self.group.conjugacy_classes],
            "degrees": list(self.degrees),
            "values": [[int(v) for v in row] for row in self.values],
        }

    def __repr__(self) -> str:
        return (f"<CharacterTable {self.group.name} degrees={self.degrees} "
                f"p={self.prime}>")


def _central_characters(g: FiniteGroup, p: int) -> np.ndarray:
    """Columns spanning the r one-dimensional common eigenspaces of the class
    matrices M_i[j, k] = #{x in C_i : x^-1 z_k in C_j}, in no fixed order.

    Each round splits every pending subspace by the eigenspaces of one random
    combination sum_i c_i M_i.  Two distinct central characters agree on a
    combination with probability 1/p, so one round nearly always finishes,
    and a pair survives the 64 rounds allowed with probability p**-64.  The
    seed is the prime, so the rounds taken are reproducible.
    """
    r = len(g.conjugacy_classes)
    rng = random.Random(p)
    cls = g.class_of
    reps = np.array(g.class_reps)
    # x, k -> flat cell (class of x^-1 z_k, k), weighted by the coefficient of x's class
    cells = (cls[g.mul[g.inv[:, None], reps]] * r + np.arange(r)).ravel()
    cell_class = np.repeat(cls, r)
    found: list[np.ndarray] = []
    # (basis, rows, start) as _eigenspaces returns them; None: the whole space
    pending: list[tuple] = [(None, None, None)]
    for _ in range(64):
        if not pending:
            return np.concatenate(found, axis=1)
        coeffs = np.array([rng.randrange(p) for _ in range(r)], dtype=np.float64)
        # entries sum at most |G| coefficients below p: exact in float64
        comb = np.bincount(cells, weights=coeffs[cell_class], minlength=r * r)
        comb = (comb % p).astype(np.int64).reshape(r, r)
        refined = []
        for basis, rows, start in pending:
            # comb maps the span of basis into itself and basis[rows] = I,
            # so the rows of comb @ basis at `rows` are the restricted matrix
            rest = comb if basis is None else _matmul_mod(comb[rows], basis, p)
            for vecs, sub_rows, sub_start in _eigenspaces(rest, p, rng, start):
                if basis is not None:
                    vecs = _matmul_mod(basis, vecs, p)
                    sub_rows = None if sub_rows is None else [rows[i] for i in sub_rows]
                if vecs.shape[1] == 1:
                    found.append(vecs)
                else:
                    refined.append((vecs, sub_rows, sub_start))
        pending = refined
    raise PrimeSearchFailure("class matrices did not separate the characters")


def _dixon_table(g: FiniteGroup, p: int) -> CharacterTable:
    """The table from the central characters; every group takes this route
    except the abelian ones, which _compute_table reads off the dual group."""
    n = g.order
    sizes = np.array([len(c) for c in g.conjugacy_classes], dtype=np.int64)
    inv_cls = list(g.inverse_class)
    vecs = _central_characters(g, p)
    if not vecs[0].all():
        raise PrimeSearchFailure("degenerate central character")
    omega = vecs * np.array([pow(int(x), p - 2, p) for x in vecs[0]]) % p
    size_inv = np.array([pow(int(s), p - 2, p) for s in sizes], dtype=np.int64)
    weighted = omega * size_inv[:, None] % p
    t = (omega[inv_cls] * weighted % p).sum(axis=0) % p
    # chi(1)^2 = |G| / t; below p, since p > 2|G|
    degrees = []
    for x in t:
        dsq = n * pow(int(x), p - 2, p) % p
        deg = isqrt(dsq)
        if not 0 < dsq <= n or deg * deg != dsq:
            raise PrimeSearchFailure("degree recovery failed")
        degrees.append(deg)
    if sum(d * d for d in degrees) != n:
        raise PrimeSearchFailure("degree square sum mismatch")
    degrees = np.array(degrees, dtype=np.int64)
    return _sorted_table(g, p, degrees, (weighted * degrees % p).T)


def _unity_powers(e: int, p: int) -> np.ndarray:
    """[1, z, ..., z^(e-1)] mod p for the first z = c^((p-1)/e), c = 2, 3, ...,
    of order exactly e; p is a prime = 1 mod e, so some c is a generator."""
    primes = factorize(e)
    z = next(z for z in (pow(c, (p - 1) // e, p) for c in range(2, p))
             if all(pow(z, e // q, p) != 1 for q in primes))
    powers = [1]
    for _ in range(e - 1):
        powers.append(powers[-1] * z % p)
    return np.array(powers, dtype=np.int64)


def _dual_group_table(g: FiniteGroup, p: int) -> CharacterTable:
    """The table of an abelian group, whose class k is {k}: its characters are
    the homomorphisms to the order-e roots of unity, e = exponent(G).

    They are grown along a chain 1 = H_0 < ... < G, kept as exponents of one
    root z: with x the least element outside H and m the least k >= 1 with
    x^m in H, a character lam of H with lam(x^m) = z^a extends in m ways,
    by lam(x) = z^(a/m + t e/m) for t < m, and on the coset H x^k by
    lam(h x^k) = lam(h) lam(x)^k.  m divides a: an extension of lam to G
    (there always is one) takes x to some z^c, and a = m c mod e with m | e.
    """
    n, e, mul = g.order, g.exponent, g.mul
    exps = np.zeros((1, n), dtype=np.int64)  # columns outside H are unused
    elems = np.zeros(1, dtype=np.int64)
    in_h = np.zeros(n, dtype=bool)
    in_h[0] = True
    while elems.size < n:
        x = int(np.argmin(in_h))
        cosets = [elems]
        power = x
        while not in_h[power]:
            cosets.append(mul[elems, power])
            power = int(mul[power, x])
        m = len(cosets)  # and power = x^m lies in H
        at_x = (exps[:, power, None] // m + np.arange(m) * (e // m)).ravel()
        exps = np.repeat(exps, m, axis=0)
        for k, coset in enumerate(cosets[1:], 1):
            exps[:, coset] = (exps[:, elems] + k * at_x[:, None]) % e
        elems = np.concatenate(cosets)
        in_h[elems] = True
    return _sorted_table(g, p, np.ones(n, dtype=np.int64), _unity_powers(e, p)[exps])


def _sorted_table(g: FiniteGroup, p: int, degrees: np.ndarray,
                  values: np.ndarray) -> CharacterTable:
    """The checked table with rows sorted by (degree, values).

    Column 0 holds the degrees, so that is the order of the rows themselves.
    They are sorted by one key: values lie in [0, p), so comparing a row's
    big-endian int64 bytes compares the row.
    """
    key = np.ascontiguousarray(values, dtype=">i8").view(f"V{8 * values.shape[1]}")
    order = key.ravel().argsort(kind="stable")
    table = CharacterTable(g, p, degrees[order], values[order])
    check_table(table)
    return table


def _compute_table(g: FiniteGroup, p: int) -> CharacterTable:
    return _dual_group_table(g, p) if g.is_abelian else _dixon_table(g, p)


def check_table(table: CharacterTable) -> None:
    """Raise PrimeSearchFailure unless the table is square with the degrees
    in its identity column, rows strictly increasing (so pairwise distinct),
    and rows that are the irreducible characters.

    For an abelian group that is checked by definition: every degree is 1
    and each row is a homomorphism into GF(p)^x, chi(g s) = chi(g) chi(s) for
    all g and each s of a greedy generating set, one gather per generator.
    |G| distinct homomorphisms are the whole dual group (Serre, section
    3.1).  Any other table must have orthonormal rows, a Gram product of
    O(r^3) for r classes.
    """
    vals, r, g = table.values, table.n_classes, table.group
    if vals.shape != (r, r) or len(table.degrees) != r:
        raise PrimeSearchFailure("table shape does not match the class count")
    # each row must exceed the one before at the first column where they
    # differ (column 0 when equal); column 0 holds the degrees, so this is
    # the (degree, values) order
    first = (vals[1:] != vals[:-1]).argmax(axis=1)
    rows = np.arange(r - 1)
    if not (np.array_equal(vals[:, 0], table.degrees)
            and (vals[1:][rows, first] > vals[:-1][rows, first]).all()):
        raise PrimeSearchFailure("degree column or row order check failed")
    if not g.is_abelian:
        if not np.array_equal(table.inner(vals, vals), np.eye(r, dtype=np.int64)):
            raise PrimeSearchFailure("orthogonality check failed")
        return
    if (vals[:, 0] != 1).any():
        raise PrimeSearchFailure("abelian table with a degree other than 1")
    for s in greedy_generators(g.mul):  # class k of an abelian group is {k}
        if (vals[:, g.mul[:, s]] != vals * vals[:, s, None] % table.prime).any():
            raise PrimeSearchFailure("a row is not a homomorphism")


def check_table_order(order: int) -> None:
    """SizeLimit when a group of this order is past CHARTABLE_MAX_ORDER."""
    if order > config.CHARTABLE_MAX_ORDER:
        raise SizeLimit(f"character tables limited to order {config.CHARTABLE_MAX_ORDER}")


def table_prime(g: FiniteGroup, prime: int | None = None) -> int:
    """The prime a table of g is computed at: the given one, or by default the
    group's canonical one.  SizeLimit above CHARTABLE_MAX_ORDER; a given p
    must be a prime = 1 mod exponent(G) in (2|G|, PRIME_SEARCH_LIMIT).
    """
    check_table_order(g.order)
    if prime is None:
        return splitting_prime(g.exponent, g.order)
    if (not 2 * g.order < prime < config.PRIME_SEARCH_LIMIT
            or (prime - 1) % g.exponent or not _is_prime(prime)):
        raise PrimeSearchFailure(f"prime {prime} inadmissible for {g.name}")
    return prime


def character_table(g: FiniteGroup, prime: int | None = None) -> CharacterTable:
    """Character table at table_prime(g, prime), computed on every call: nothing
    is kept in the process, so a caller that needs a table twice keeps it."""
    return _compute_table(g, table_prime(g, prime))


# -- characters as multiplicity vectors -----------------------------------------


@dataclass(frozen=True)
class Character:
    """A (not necessarily irreducible) character: multiplicities over table rows."""

    table: CharacterTable
    coeffs: tuple[int, ...]

    def __post_init__(self):
        if len(self.coeffs) != self.table.n_irreducibles:
            raise DegreeMismatch("coefficient count must match the table")
        if any(c < 0 for c in self.coeffs):
            raise DegreeMismatch("characters have nonnegative multiplicities")

    @property
    def degree(self) -> int:
        return sum(c * d for c, d in zip(self.coeffs, self.table.degrees))

    def __add__(self, other: "Character") -> "Character":
        if (other.table.group is not self.table.group
                or other.table.prime != self.table.prime):
            raise SourceMismatch("characters over different tables")
        return Character(self.table, tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))


def irreducible_character(table: CharacterTable, index: int) -> Character:
    if not 0 <= index < table.n_irreducibles:
        raise SourceMismatch(
            f"index {index} is not one of {table.n_irreducibles} irreducibles")
    coeffs = [0] * table.n_irreducibles
    coeffs[index] = 1
    return Character(table, tuple(coeffs))


# -- restriction ------------------------------------------------------------------


def _check_aligned(tg: CharacterTable, th: CharacterTable, emb: GroupHom) -> None:
    if emb.source is not th.group or emb.target is not tg.group:
        raise SourceMismatch("embedding endpoints do not match the tables")
    if tg.prime != th.prime:
        raise SourceMismatch("tables must share a prime for restriction work")


def _fused_columns(tg: CharacterTable, th: CharacterTable, emb: GroupHom) -> list[int]:
    """For each class of the subgroup, the ambient class its image lies in."""
    _check_aligned(tg, th, emb)
    g = tg.group
    return [int(g.class_of[emb(rep)]) for rep in th.group.class_reps]


def restricted_values(tg: CharacterTable, pi: int, emb: GroupHom,
                      th: CharacterTable) -> np.ndarray:
    """Values of pi composed with emb, as a class function on the subgroup."""
    return tg.values[pi][_fused_columns(tg, th, emb)]


def restriction_multiplicity(tg: CharacterTable, pi: int, th: CharacterTable,
                             rho: int, emb: GroupHom) -> int:
    """<pi restricted along emb, rho> as an exact integer."""
    emb.require_injective()
    res = restricted_values(tg, pi, emb, th)
    return th.inner(res, th.row(rho))


def restriction_matrix(tg: CharacterTable, th: CharacterTable,
                       emb: GroupHom) -> np.ndarray:
    """Multiplicity matrix M[pi, rho] = <pi|_H, rho>, exact integers: the
    ambient rows on the fused columns against the subgroup's rows."""
    return th.inner(tg.values[:, _fused_columns(tg, th, emb)], th.values)


# -- equalizer dichotomy ------------------------------------------------------------


@dataclass(frozen=True)
class EqualizerWitness:
    """Certificate that a proper subgroup is separated inside the ambient group.

    kind 'split': one irreducible restricts with self-intersection >= 2;
    kind 'collision': two distinct irreducibles restrict to equal characters.
    `values` holds the ambient table's rows at `indices`, mod `prime`.
    """

    kind: str
    indices: tuple[int, ...]
    self_intersection: int | None
    prime: int
    degrees: tuple[int, ...]
    values: tuple[tuple[int, ...], ...]


def equalizer_witness(emb: GroupHom, table=None) -> EqualizerWitness:
    """The split or collision witness of a proper subgroup.  `table(group,
    prime=None)` provides the character tables, character_table by default."""
    table = table or character_table
    emb.require_injective()
    g = emb.target
    if len(emb.image) == g.order:
        raise NotProper("subgroup equals the ambient group")
    tg = table(g)
    th = table(emb.source, prime=tg.prime)
    m = restriction_matrix(tg, th, emb)
    self_ints = (m * m).sum(axis=1)

    def witness(kind: str, indices: tuple[int, ...], self_intersection):
        return EqualizerWitness(
            kind=kind, indices=indices, self_intersection=self_intersection,
            prime=tg.prime, degrees=tuple(tg.degrees[i] for i in indices),
            values=tuple(tuple(tg.values[i].tolist()) for i in indices))

    for pi in range(tg.n_irreducibles):
        if self_ints[pi] >= 2:
            return witness("split", (pi,), int(self_ints[pi]))
    # every restriction is irreducible; two rows of m must coincide
    for i in range(tg.n_irreducibles):
        for j in range(i + 1, tg.n_irreducibles):
            if np.array_equal(m[i], m[j]):
                return witness("collision", (i, j), None)
    raise InvariantViolation("proper subgroup without split or collision witness")


# -- Clifford classes ----------------------------------------------------------------


def _conjugation_row_permutations(tg: CharacterTable, th: CharacterTable,
                                  emb: GroupHom) -> list[tuple[int, ...]]:
    """Row permutations of Irr(H) induced by conjugation with ambient elements."""
    _check_aligned(tg, th, emb)
    emb.require_injective()
    g = tg.group
    h = th.group
    pre = np.full(g.order, -1)
    pre[emb.mapping] = np.arange(h.order)
    xs = np.arange(g.order)[:, None]
    # conj[x, k] = x z_k x^-1 for the image z_k of the k-th subgroup class rep
    conj = pre[g.mul[g.mul[xs, emb.mapping[list(h.class_reps)]], g.inv[xs]]]
    if (conj < 0).any():
        x, k = np.argwhere(conj < 0)[0]
        raise NotNormal((int(x), h.class_reps[k]))
    return sorted({tuple(th.row_index(row) for row in th.values[:, cols])
                   for cols in np.unique(h.class_of[conj], axis=0)})


def clifford_class(rho: int, embs: list[GroupHom]) -> tuple[int, ...]:
    """Orbit of the rho-th irreducible of the common source under conjugation
    by every ambient group of the family.  Images must be normal."""
    if not embs:
        raise SourceMismatch("need at least one embedding to locate the source")
    reports = fin_check(embs)
    if not 0 <= rho < len(reports):
        raise SourceMismatch(f"rho = {rho} is not one of {len(reports)} irreducibles")
    return reports[rho].class_members


def _least_positive(column: np.ndarray) -> int:
    positive = column[column > 0]
    if not positive.size:
        raise InvariantViolation("rho does not appear in any restriction")
    return int(positive.min())


def clifford_multiplicity(tg: CharacterTable, th: CharacterTable,
                          emb: GroupHom, rho: int) -> int:
    """Smallest positive <pi|_H, rho> over the ambient irreducibles."""
    emb.require_injective()
    return _least_positive(restriction_matrix(tg, th, emb)[:, rho])


@dataclass(frozen=True)
class CliffordReport:
    """Per-irreducible summary used by the finiteness criterion.

    per_member maps the family index to the minimal positive multiplicity of
    rho in restrictions from that member; sup_multiplicity is their maximum
    (None for an empty family).
    """

    rho: int
    rho_degree: int
    class_members: tuple[int, ...]
    class_size: int
    per_member: dict[int, int]
    sup_multiplicity: int | None


def fin_check(embs: list[GroupHom], source: FiniteGroup | None = None,
              table=None) -> list[CliffordReport]:
    """Clifford class and multiplicity data for every irreducible of the source.

    All embeddings must share one source and have normal image; tables are
    computed at a family-wide prime so orbits fuse consistently.  An empty
    family needs the source passed explicitly and yields singleton classes
    with empty multiplicity maps.  `table(group, prime=None)` provides the
    tables: character_table by default, or any provider that returns the
    same table, such as cache.cached_character_table.
    """
    table = table or character_table
    if not embs:
        if source is None:
            raise SourceMismatch("empty family needs an explicit source group")
        th = table(source)
        return [CliffordReport(rho=r, rho_degree=th.degrees[r],
                               class_members=(r,), class_size=1,
                               per_member={}, sup_multiplicity=None)
                for r in range(th.n_irreducibles)]
    h = embs[0].source
    if source is not None and source is not h:
        raise SourceMismatch("explicit source disagrees with the family")
    for e in embs:
        if e.source is not h:
            raise SourceMismatch("family members must share the amalgamated group")
        e.require_injective()
    p = common_prime([h] + [e.target for e in embs])
    th = table(h, prime=p)
    actions = []
    restrictions = []
    for e in embs:
        tg = table(e.target, prime=p)
        restrictions.append(restriction_matrix(tg, th, e))
        actions.extend(_conjugation_row_permutations(tg, th, e))
    reports = []
    for rho in range(th.n_irreducibles):
        members = tuple(sorted(reachable(
            [rho], lambda x: [perm[x] for perm in actions])))
        per = {i: _least_positive(m[:, rho]) for i, m in enumerate(restrictions)}
        sup = max(per.values()) if per else None
        reports.append(CliffordReport(
            rho=rho, rho_degree=th.degrees[rho], class_members=members,
            class_size=len(members), per_member=per, sup_multiplicity=sup))
    return reports


# -- extension step for finite coproducts ----------------------------------------------


def coproduct_extension(phi_h: Character, phi_k: Character,
                        emb: GroupHom) -> tuple[Character, Character]:
    """Extend phi_h to the ambient group and pad phi_k to match degrees.

    Greedy: scan ambient irreducibles in row order, take one copy of the first
    whose restriction still covers a needed subgroup constituent, repeat.
    """
    if phi_h.degree != phi_k.degree:
        raise DegreeMismatch(f"degrees differ: {phi_h.degree} != {phi_k.degree}")
    th = phi_h.table
    if th.group is not emb.source:
        raise SourceMismatch("phi_h must live on the embedding source")
    tg = character_table(emb.target, prime=th.prime)
    m = restriction_matrix(tg, th, emb)
    need = list(phi_h.coeffs)
    chosen = [0] * tg.n_irreducibles
    while any(need):
        rho = next(i for i, c in enumerate(need) if c > 0)
        pi = next((i for i in range(tg.n_irreducibles) if m[i, rho] > 0), None)
        if pi is None:
            raise InvariantViolation(
                "restriction of the regular character misses a row")
        chosen[pi] += 1
        for j in range(th.n_irreducibles):
            need[j] = max(0, need[j] - int(m[pi, j]))
    phi_g = Character(tg, tuple(chosen))
    pad = phi_g.degree - phi_k.degree
    tk = phi_k.table
    triv = tk.trivial_index()
    padded = list(phi_k.coeffs)
    padded[triv] += pad
    return phi_g, Character(tk, tuple(padded))
