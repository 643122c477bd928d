"""Character tables over GF(p) and restriction/Clifford analysis.

The prime satisfies p = 1 mod exponent(G) and p > 2|G|, so character values
live in GF(p) and every inner product of genuine characters lifts to the
true integer.

An abelian group's characters are its homomorphisms into the e-th roots of
unity of GF(p), e = exponent(G) (Serre, Linear Representations of Finite
Groups, section 3.1), read off the dual group as exponents of one root of
unity z: extended along a chain of subgroups, a whole cyclic step per pass,
in O(|G|^2).  Another root z^j, j prime to e, maps each row lam to lam^j, so
the sorted rows equal the class-algebra route's.  check_table checks such a
table by definition, in O(|G|^2 log|G|), rather than by the Gram product.

Every other table comes from the class-algebra eigenvector method (Dixon,
Numer. Math. 10, 1967): the structure constants of the class sums give r
commuting matrices over GF(p) whose common eigenvectors are the central
characters; degrees and values are recovered from orthogonality.

When the center Z is nontrivial and G/Z is abelian, the characters trivial
on Z are those of G/Z (Isaacs, Character Theory of Finite Groups, ch. 2):
read off its dual group before the first round, which then splits only the
subspace of class functions summing to 0 over each coset of Z, where every
other central character lies, of dimension r - |G/Z| (28 of the 92 classes
of the Heisenberg group of order 512).  Any other group's first round splits
the whole class space.

Each refinement round splits the pending subspaces by the eigenspaces of one
random linear combination A of the class matrices, usually all of them in
the first round, in about sqrt(d) whole-array passes, not one per class,
coefficient or eigenvalue.  Baby and giant steps (Paterson and
Stockmeyer, SIAM J. Comput. 2, 1973) read everything off A^0 .. A^s, s =
isqrt(d) + 1 (fewer past 523 classes, so the babies stay within 48 MiB):
the power sums tr(A^k), which give the characteristic polynomial f by
Newton's identities (exact, as d <= r <= |G| < p/2), and one block Krylov
basis whose images span the eigenspaces.  The eigenvalues are the roots of
f, found as Dixon found them, from f at every point of GF(p), with the same
split of f's coefficients; multiplicities are read off f's derivatives.
That sweep is sized by p, so this route runs only at the group's own prime,
below _SWEEP_PRIMES = 2**15 for every admitted order; a table at any other
prime is transported from there.  The random choices (round coefficients,
Krylov blocks) come from a generator seeded with the prime, so each
computation is reproducible; the table does not depend on them, since rows
are canonical and sorted by (degree, values).

Residues are int64 in [0, p).  Every sum of products of residue arrays goes
through _matmul_mod, so all arithmetic is exact for every prime below
config.PRIME_SEARCH_LIMIT = 2**31.

Value vectors at different primes are not comparable, so a restriction is
taken with both tables at the ambient group's prime.  transported moves the
subgroup's own table there row for row, through eigenvalue multiplicities
that do not depend on the prime, so the subgroup's table is computed once;
character_table moves a non-abelian table to a given prime the same way.

There is no in-process memo: character_table computes on every call, and a
caller that needs a table twice keeps it.  The cache module's disk cache is
the only table cache; it takes its prime from table_prime too.  The
functions that need tables (fin_check, equalizer_witness) take a `table`
provider with character_table's signature, so the CLI can pass the cached
one; by default they look up character_table when called.

fin_check returns a finite normal family's certificate as the CLI prints it;
its docstring gives the layout.
"""

from __future__ import annotations

import operator
import random
from dataclasses import dataclass
from math import isqrt

import numpy as np

from . import config
from .errors import (
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
            return _newton(sums[:d + 1], p)
        giant = powers[s] if len(sums) == s else _matmul_mod(giant, powers[s], p)


def _newton(sums: list[int], p: int) -> list[int]:
    """The monic polynomial, low degree first, whose roots have the power
    sums sums[1:] mod p."""
    coeffs = [1]
    for k in range(1, len(sums)):
        acc = sum(map(operator.mul, coeffs, sums[k:0:-1]))
        coeffs.append(-acc * pow(k, p - 2, p) % p)
    return coeffs[::-1]


def _vandermonde(points: np.ndarray, rows: int, p: int) -> np.ndarray:
    """points^i mod p in row i < rows, points in [0, p), by doubling in place."""
    out = np.ones((rows, len(points)), dtype=np.int64)
    out[1:2] = points
    for k in (1 << i for i in range(1, (rows - 1).bit_length())):
        block = out[k:2 * k]  # row k + i is row i times points^k
        np.multiply(out[:len(block)], out[k - 1] * points % p, out=block)
        block %= p
    return out


# Every own prime, splitting_prime(e, n) for e | n <= CHARTABLE_MAX_ORDER, lies
# below this bound (the largest is 18,899); the root sweep's powers of every point
# take (isqrt(d) + 2) p words for d classes.  Other primes get transported tables.
_SWEEP_PRIMES = 1 << 15


def _roots_mod(f, p: int) -> list[int]:
    """Distinct roots of the nonzero f (coefficients low degree first) in GF(p),
    ascending, from f at every point: one product with x^0 .. x^(s-1) evaluates
    its chunks of s = isqrt(deg f) + 1 coefficients (s = 1, plain Horner, below
    16 + p/256 coefficients, where that measured cheaper), joined by Horner's
    rule in x^s, each step below p**2 + p < 2**63.  InvariantViolation at p >=
    _SWEEP_PRIMES, before anything sized by p is allocated."""
    if p >= _SWEEP_PRIMES:
        raise InvariantViolation(f"root sweep at p = {p}, not below {_SWEEP_PRIMES}")
    s = isqrt(len(f) - 1) + 1 if len(f) > 16 + p // 256 else 1
    chunks = np.zeros((-(-len(f) // s), s), dtype=np.int64)
    chunks.flat[:len(f)] = [int(c) % p for c in f]
    powers = _vandermonde(np.arange(p, dtype=np.int64), s + 1, p)
    values = _matmul_mod(chunks, powers[:s], p) if s > 1 else chunks
    acc = np.zeros(p, dtype=np.int64) + values[-1]
    for chunk in values[-2::-1]:
        acc = (acc * powers[s] + chunk) % p
    return np.flatnonzero(acc == 0).tolist()


def _multiplicities(f, vander: np.ndarray, p: int) -> list[int]:
    """The multiplicity of each root lam of f (residues, low degree first),
    from vander[i, j] = lam_j^i, i <= deg f: the least j with f^(j)(lam) != 0,
    exact since j <= deg f < p makes j! invertible.  With m roots, f, f', ...,
    f^(deg f - m + 1) suffice, evaluated at every root by one product.
    """
    d, m = len(f) - 1, vander.shape[1]
    derivs = np.zeros((d - m + 2, d + 1), dtype=np.int64)  # row j: f^(j)
    derivs[0] = f
    for j in range(1, len(derivs)):
        derivs[j, :-1] = derivs[j - 1, 1:] * np.arange(1, d + 1) % p
    values = _matmul_mod(derivs, vander[:d + 1], p)
    return (values != 0).argmax(axis=0).tolist()


# -- eigenspaces -------------------------------------------------------------------


def _quotients(vander: np.ndarray, p: int) -> np.ndarray:
    """numer[t, j], the coefficient of x^t in s / (x - lam_j), s = prod (x -
    lam_j), from vander[i, j] = lam_j^i, i <= m: s by Newton's identities, and
    sum over i > t of s_i lam_j^(i-t-1) as a Hankel matrix of s times vander."""
    m = vander.shape[1]
    s = _newton((vander[:m + 1].sum(axis=1) % p).tolist(), p)
    hankel = np.array(s[1:] + [0] * m)[np.add.outer(range(m), range(m))]
    return _matmul_mod(hankel, vander[:m], p)


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
    lams = np.array(_roots_mod(f, p), dtype=np.int64)
    m = len(lams)
    vander = _vandermonde(lams, d + 1, p)  # vander[i, j] = lam_j^i
    mult = np.array(_multiplicities(f, vander, p))
    if mult.sum() != d:
        raise PrimeSearchFailure("class matrix failed to diagonalize mod p")
    numer = _quotients(vander, p)
    k = int(mult.max())
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
        step, babies = len(powers) - 1, min(len(powers) - 1, m)
        block = _matmul_mod(powers[:babies].reshape(-1, d), krylov[0], p).reshape(babies, d, k)
        krylov[:step] = block
        for t in range(step, m, step):
            wide = _matmul_mod(powers[step], block.transpose(1, 0, 2).reshape(d, step * k), p)
            block = wide.reshape(d, step, k).transpose(1, 0, 2)
            krylov[t:t + step] = block[:m - t]
        images = _matmul_mod(numer.T, krylov.reshape(m, d * k), p).reshape(m, d, k)
        # a simple eigenvalue's space is its image's first nonzero column,
        # gathered for all of them at once; it has none on a failed draw
        nonzero = images.any(axis=1)
        simple = np.flatnonzero((mult == 1) & nonzero.any(axis=1))
        vecs = images[simple, :, nonzero[simple].argmax(axis=1)]
        spaces = {j: (v[:, None], None, None) for j, v in zip(simple.tolist(), vecs)}
        for j in np.flatnonzero(mult > 1).tolist():
            echelon, rows = _rref_mod(images[j].T, p)
            spaces[j] = (echelon[:len(rows)].T, rows, images[j][rows, 0])
        u = np.concatenate([vecs.T] + [spaces[j][0] for j in spaces if mult[j] > 1], axis=1)
        lam_cols = np.repeat(lams[list(spaces)], [space[0].shape[1] for space in spaces.values()])
        if (_matmul_mod(a, u, p) != u * lam_cols % p).any():
            raise PrimeSearchFailure("class matrix failed to diagonalize mod p")
        if u.shape[1] == d:
            return [spaces[j] for j in range(m)]
    raise PrimeSearchFailure("class matrix failed to diagonalize mod p")


# -- the table -----------------------------------------------------------------


class CharacterTable:
    """Irreducible characters of a finite group, as values in GF(p).

    Rows are the distinct irreducibles, sorted by (degree, value vector) in
    a computed table; a transported one keeps its source's row order.
    Columns follow the group's conjugacy class order.  Everything downstream
    treats rows as opaque irreducibles and only ever compares them through
    integer inner products.
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

    @property
    def n_irreducibles(self) -> int:
        return len(self.degrees)

    def row(self, i: int) -> np.ndarray:
        return self.values[i]

    def row_index(self, vector) -> int:
        key = [int(v) % self.prime for v in vector]
        if len(key) == self.n_classes:
            hits = np.flatnonzero((self.values == key).all(axis=1))
            if hits.size:
                return int(hits[0])
        raise SourceMismatch("vector is not an irreducible character")

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
            "values": self.values.tolist(),
        }

    def __repr__(self) -> str:
        return (f"<CharacterTable {self.group.name} degrees={self.degrees} "
                f"p={self.prime}>")


def _central_characters(g: FiniteGroup, p: int) -> np.ndarray:
    """Columns spanning the r one-dimensional common eigenspaces of the class
    matrices M_i[j, k] = #{x in C_i : x^-1 z_k in C_j}, in no fixed order.

    When the center Z is nontrivial and G/Z is abelian (each class lies in
    one coset of Z), some are known before any round.  The characters
    trivial on Z are those of G/Z (Isaacs, Character Theory of Finite
    Groups, ch. 2), all linear: its dual group gives them, inflated to
    omega(C) = |C| chi(gZ), in O(|G|^2).  p is admissible for G/Z, as
    exp(G/Z) | exp(G) and |G/Z| < |G|.  Every other central character has
    omega(zC) = lam(z) omega(C) for a linear character lam != 1 of Z, so it
    sums to 0 over each Z-orbit of classes (the classes inside one coset).
    They span that subspace W, of dimension r - |G/Z|, which is all that is
    pending: its basis e_C - e_rep(C), one vector for each class C other
    than rep(C), its orbit's least class, is in column echelon form at those
    rows.  Its start, 1 on the central classes other than the identity, is
    -|Z| times the projection of e_0 onto W along the inflated characters,
    so every central character in W keeps a nonzero component.  A
    one-dimensional W is itself a central character.  For any other group
    the whole class space is pending.

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
    cells = (cls[g.mul[:, reps]][g.inv] * r + np.arange(r)).ravel()
    cell_class = np.repeat(cls, r)
    # (basis, rows, start) as _eigenspaces returns them; None: the whole space
    found, pending = _first_blocks(g, p)
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
            spaces = _eigenspaces(rest, p, rng, start)
            # the one-dimensional ones are central characters, taken back to
            # the class space by one product
            simple = [vecs for vecs, sub_rows, _ in spaces if sub_rows is None]
            if simple:
                simple = np.concatenate(simple, axis=1)
                found.append(simple if basis is None else _matmul_mod(basis, simple, p))
            for vecs, sub_rows, sub_start in spaces:
                if sub_rows is not None:
                    if basis is not None:
                        vecs = _matmul_mod(basis, vecs, p)
                        sub_rows = [rows[i] for i in sub_rows]
                    refined.append((vecs, sub_rows, sub_start))
        pending = refined
    raise PrimeSearchFailure("class matrices did not separate the characters")


def _first_blocks(g: FiniteGroup, p: int) -> tuple[list, list]:
    """The central characters found before the first round and the pending
    subspaces, as _central_characters sets them out."""
    mul, cls, reps = g.mul, g.class_of, np.array(g.class_reps)
    whole = [], [(None, None, None)]
    sizes = np.bincount(cls)
    central = reps[sizes == 1]
    if len(central) == 1:
        return whole
    coset = mul[:, central].min(axis=1)  # the least element of gZ
    class_coset = coset[reps]
    if not np.array_equal(class_coset[cls], coset):  # G/Z is not abelian
        return whole
    cosets = np.flatnonzero(coset == np.arange(g.order))
    index = np.zeros(g.order, dtype=np.int64)  # coset label -> element of G/Z
    index[cosets] = np.arange(len(cosets))
    exps = _dual_exponents(index[coset[mul[cosets[:, None], cosets]]], g.exponent)
    inflated = _unity_powers(g.exponent, p)[exps[:, index[class_coset]]].T
    found = [inflated * sizes[:, None] % p]
    orbit_rep = cls[class_coset]
    rows = np.flatnonzero(orbit_rep != np.arange(len(reps)))
    basis = np.zeros((len(reps), len(rows)), dtype=np.int64)
    basis[rows, np.arange(len(rows))] = 1
    basis[orbit_rep[rows], np.arange(len(rows))] = p - 1
    if len(rows) == 1:
        return found + [basis], []
    return found, [(basis, rows.tolist(), (sizes[rows] == 1).astype(np.int64))]


def _dixon_table(g: FiniteGroup, p: int) -> CharacterTable:
    """The table from the central characters, at p below _SWEEP_PRIMES;
    character_table takes this route at a non-abelian group's own prime."""
    n = g.order
    sizes = np.array([len(c) for c in g.conjugacy_classes], dtype=np.int64)
    inv_cls = list(g.inverse_class)
    vecs = _central_characters(g, p)  # v(C) = v(1) |C| chi(C) / chi(1) for each chi
    v1 = vecs[0]
    if not v1.all():
        raise PrimeSearchFailure("degenerate central character")
    # 1/|C| = (|G|/|C|) / |G|
    weighted = vecs * ((n // sizes) * pow(n, p - 2, p) % p)[:, None] % p
    # t = sum_C v(C^-1) v(C) / |C| = v(1)^2 |G| / chi(1)^2; u = 1 / (v(1) t)
    # gives both inverses: 1/v(1) = t u and 1/t = v(1) u
    t = (vecs[inv_cls] * weighted % p).sum(axis=0) % p
    u = np.array([pow(int(x), p - 2, p) for x in v1 * t % p], dtype=np.int64)
    # chi(1)^2 = |G| v(1)^2 / t; below p, since p > 2|G|
    dsq = n * (v1 * v1 % p) % p * (v1 * u % p) % p
    degrees = np.array([isqrt(x) for x in dsq.tolist()], dtype=np.int64)
    if not ((0 < dsq) & (dsq <= n) & (degrees * degrees == dsq)).all():
        raise PrimeSearchFailure("degree recovery failed")
    if dsq.sum() != n:
        raise PrimeSearchFailure("degree square sum mismatch")
    return _sorted_table(g, p, degrees, (weighted * (t * u % p) % p * degrees % p).T)


def _unity_powers(e: int, p: int) -> np.ndarray:
    """[1, z, ..., z^(e-1)] mod p for the first z = c^((p-1)/e), c = 2, 3, ...,
    of order exactly e; p is a prime = 1 mod e, so some c is a generator."""
    primes = factorize(e)
    z = next(z for z in (pow(c, (p - 1) // e, p) for c in range(2, p))
             if all(pow(z, e // q, p) != 1 for q in primes))
    return _vandermonde(np.array([z]), e, p)[:, 0]


def _dual_group_table(g: FiniteGroup, p: int) -> CharacterTable:
    """The table of an abelian group, whose class k is {k}: its characters are
    the homomorphisms to the order-e roots of unity, e = exponent(G), read
    off _dual_exponents."""
    exps = _dual_exponents(g.mul, g.exponent)
    return _sorted_table(g, p, np.ones(g.order, dtype=np.int64), _unity_powers(g.exponent, p)[exps])


def _dual_exponents(mul: np.ndarray, e: int) -> np.ndarray:
    """The homomorphisms of the abelian group with table mul to the order-e
    roots of unity, e a multiple of its exponent, as exponents of one root z:
    row i holds the i-th homomorphism's exponent at every element.

    They are grown along a chain 1 = H_0 < ... < G: with x the least element
    outside H and m the least k >= 1 with x^m in H, a character lam of H
    with lam(x^m) = z^a extends in m ways, by lam(x) = z^(a/m + t e/m) for
    t < m, and on the coset H x^k by lam(h x^k) = lam(h) lam(x)^k.  m
    divides a: an extension of lam to G (there always is one) takes x to
    some z^c, and a = m c mod e with m | e.  A step takes x's powers by
    doubling, and all m cosets in one pass.
    """
    n = len(mul)
    exps = np.zeros((1, n), dtype=np.int64)  # columns outside H are unused
    elems = np.zeros(1, dtype=np.int64)
    in_h = np.zeros(n, dtype=bool)
    in_h[0] = True
    while elems.size < n:
        x = int(np.argmin(in_h))
        powers = np.array([0, x])  # x^0 .. x^(2^i - 1), until one past x^0 is in H
        while not in_h[powers[1:]].any():
            powers = np.concatenate([powers, mul[powers, mul[powers[-1], x]]])
        m = 1 + int(in_h[powers[1:]].argmax())  # and x^m lies in H
        cosets = mul[elems, powers[:m, None]]  # row k: the coset H x^k
        at_x = (exps[:, powers[m], None] // m + np.arange(m) * (e // m)).ravel()
        exps = np.repeat(exps, m, axis=0)
        k = np.arange(1, m)[:, None]
        exps[:, cosets[1:]] = (exps[:, None, elems] + k * at_x[:, None, None]) % e
        elems = cosets.ravel()
        in_h[elems] = True
    return exps


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
    """Character table at table_prime(g, prime), rows sorted, computed on every
    call: nothing is kept in the process, so a caller that needs a table twice
    keeps it.  An abelian group's table is read off the dual group at that
    prime; any other is computed by Dixon's route at the group's own prime and
    transported from there.
    """
    q = table_prime(g, prime)
    if g.is_abelian:
        return _dual_group_table(g, q)
    own = _dixon_table(g, table_prime(g))
    return own if own.prime == q else _moved(own, q)[0]


def transported(table: CharacterTable, prime: int) -> CharacterTable:
    """The same rows, in the same order, at another admissible prime; _moved
    checks a sorted copy of them."""
    q = table_prime(table.group, prime)
    if q == table.prime:
        return table
    return CharacterTable(table.group, q, table.degrees, _moved(table, q)[1])


def _moved(table: CharacterTable, q: int) -> tuple[CharacterTable, np.ndarray]:
    """The table's rows at the admissible prime q != table.prime: the checked
    table with its rows sorted, and the values in the source's row order.

    At class representatives g, by decreasing element order until every
    class holds a power of one, chi has eigenvalue multiplicities m_k =
    (1/o) sum_j chi(g^j) z^(-jk e/o), k < o = o(g), e = exponent(G), z from
    _unity_powers(e, p): a ring map Z[exp(2 pi i/e)] -> GF(p) takes the
    complex table to this one, so they are the same integers at q, where
    chi(g^j) = sum_k m_k w^(jk e/o), w from _unity_powers(e, q).
    InvariantViolation if the rows at q fail check_table.
    """
    g, p, e = table.group, table.prime, table.group.exponent
    z, w = _unity_powers(e, p), _unity_powers(e, q)
    values = np.empty_like(table.values)
    covered = np.zeros(table.n_classes, dtype=bool)
    for rep in sorted(g.class_reps, key=g.element_order, reverse=True):
        if covered[g.class_of[rep]]:
            continue
        powers = [0]  # g^0 .. g^(o-1); the identity alone for o = 1
        while len(powers) < g.element_order(rep):
            powers.append(int(g.mul[powers[-1], rep]))
        o, cols = len(powers), g.class_of[powers]
        covered[cols] = True
        jk = np.outer(range(o), range(o)) * (e // o) % e
        mults = _matmul_mod(table.values[:, cols], z[-jk], p) * pow(o, p - 2, p) % p
        values[:, cols] = _matmul_mod(mults, w[jk], q)
    try:
        return _sorted_table(g, q, np.array(table.degrees), values), values
    except PrimeSearchFailure as exc:
        raise InvariantViolation(f"table of {g.name} moved to prime {q}: {exc}") from None


# -- restriction ------------------------------------------------------------------


def _fused_columns(tg: CharacterTable, th: CharacterTable, emb: GroupHom) -> list[int]:
    """For each class of the subgroup, the ambient class its image lies in."""
    if emb.source is not th.group or emb.target is not tg.group:
        raise SourceMismatch("embedding endpoints do not match the tables")
    if tg.prime != th.prime:
        raise SourceMismatch("tables must share a prime for restriction work")
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
    `witness_values` holds the ambient table's rows at `indices`, mod `prime`.
    """

    kind: str
    indices: tuple[int, ...]
    self_intersection: int | None
    prime: int
    degrees: tuple[int, ...]
    witness_values: tuple[tuple[int, ...], ...]


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
            witness_values=tuple(tuple(tg.values[i].tolist()) for i in indices))

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


def _least_positive(m: np.ndarray) -> np.ndarray:
    """Each column's least positive entry, in one masked reduction;
    InvariantViolation if a column has none."""
    big = np.iinfo(m.dtype).max
    least = m.min(axis=0, initial=big, where=m > 0)
    if (least == big).any():
        raise InvariantViolation("rho does not appear in any restriction")
    return least


def clifford_multiplicity(tg: CharacterTable, th: CharacterTable,
                          emb: GroupHom, rho: int) -> int:
    """Smallest positive <pi|_H, rho> over the ambient irreducibles."""
    emb.require_injective()
    return int(_least_positive(restriction_matrix(tg, th, emb))[rho])


def fin_check(embs: list[GroupHom], source: FiniteGroup | None = None,
              table=None) -> dict:
    """The certificate of a finite normal family: Clifford class and least
    multiplicities for every irreducible rho of the source H.

    It is {"kernel_order", "member_orders", "reports"}, with one report row
    per rho: {"rho", "degree", "class_members", "class_size", "per_member",
    "sup_multiplicity"}.  per_member maps str(i) to the least positive
    multiplicity of rho in the restrictions from member i, and
    sup_multiplicity is their maximum, None for an empty family.  Every value
    is a Python int, so the CLI prints the certificate as it is.

    All embeddings must share one source H and have normal image.  Rows
    index H's table at its own prime, as `chartable` prints it; each
    member's restriction is taken at the member's prime, against that table
    transported there.  By Clifford's theorem the constituents of any pi|_H
    are one orbit of G on Irr(H), so classes are read off the restrictions.
    An empty family needs the source passed explicitly and yields singleton
    classes.  `table(group, prime=None)` provides the tables: character_table
    by default, or any provider that returns the same table, such as
    cache.cached_character_table.
    """
    table = table or character_table
    h = embs[0].source if embs else source
    if h is None:
        raise SourceMismatch("empty family needs an explicit source group")
    if source is not None and source is not h:
        raise SourceMismatch("explicit source disagrees with the family")
    for e in embs:
        if e.source is not h:
            raise SourceMismatch("family members must share the amalgamated group")
        e.require_injective()
        # a normal image is a union of classes: no conjugate of it lies outside
        outside = np.isin(e.target.class_of, e.target.class_of[e.mapping])
        outside[e.mapping] = False
        if outside.any():
            raise NotNormal(int(outside.argmax()))
    th = table(h)
    restrictions = []
    for e in embs:
        tg = table(e.target)
        restrictions.append(restriction_matrix(tg, transported(th, tg.prime), e))
    least = [_least_positive(m).tolist() for m in restrictions]
    reports = []
    for rho in range(th.n_irreducibles):
        # the constituents of pi|_H, for any pi over x, are the G-orbit of x
        members = sorted(reachable([rho], lambda x: [
            r for m in restrictions for r in np.flatnonzero(m[m[:, x].argmax()]).tolist()]))
        per = {str(i): mins[rho] for i, mins in enumerate(least)}
        reports.append({
            "rho": rho, "degree": th.degrees[rho], "class_members": members,
            "class_size": len(members), "per_member": per,
            "sup_multiplicity": max(per.values(), default=None)})
    return {"kernel_order": h.order,
            "member_orders": [e.target.order for e in embs],
            "reports": reports}
