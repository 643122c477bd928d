"""Exact integer matrix groups, Smith normal form and torus actions.

Matrices are tuples of tuples of Python ints at the interface.  A finite
group's elements are stored once, as one (order, k, k) array sorted as
`sorted()` sorts their nested lists, which is the order of their flattened
rows.  Over int64, when the entries' span s satisfies s^(k^2) < 2^63, one
argsort of each row's mixed-radix key, its digits the entries less the
least one, gives that order; wider entries and Python ints take
`np.lexsort` over the k^2 columns.

Finiteness of generated subgroups of GL(k, Z) rests on two facts.  Any
finite subgroup has order dividing Minkowski's bound M(k).  And the kernel
of GL(k, Z) -> GL(k, F_3) is torsion-free (Minkowski's lemma), so an
element of finite order has the order of its reduction mod 3, and two
distinct elements of a finite group differ mod 3.  `generated_group` first
reads every generator's order with `_order`; one that is infinite (or past
M(k)) proves the group infinite before anything is built.  Otherwise the
enumeration keeps, beside each element, its residue mod 3, and stops at
the first batch of new elements that leaves fewer residues than elements:
two of them are equal mod 3, so their quotient is an element of infinite
order.  A finite group is enumerated whole.  An infinite one is reported
with `witness_count` = M(k) + 1, the count its proof exceeds ("more than
M(k) elements"), not a count of elements built.

Groups are enumerated by Dimino's algorithm (G. Butler, Fundamental
Algorithms for Permutation Groups, LNCS 559, 1991).  The first generator
g other than I gives <g>, of the order `_order` found, whose powers
double in number with each product.  Each later generator outside the
group H so far adds disjoint right cosets H c, from c = g on: c s for each
generator s so far that is not yet an element starts another.  A finite
semigroup of invertible matrices is a group, so no inverse is needed.  A
batch of cosets is one np.matmul, keyed by the products' bytes and by the
bytes of their residues as int8.  Each product runs in int64 only when
k |a| |b| < 2^63, with |a| and |b| the largest entries of its factors;
past that the enumeration restarts in Python ints, so every result is
exact.

`element_order` needs no enumeration: by the same lemma it is the order n3
of the reduction mod 3 when m^n3 = I, and infinite otherwise.

`smith_normal_form` is one elimination loop per diagonal position t.  Each
round moves the nonzero entry of least absolute value in the remaining
block (rows and columns >= t; ties go to (t, t)) to (t, t) and clears its
row and column by floor division.  A nonzero remainder is smaller than the
pivot, so the next round's pivot is smaller.  Once the row and column are
clear, a row holding an entry the pivot does not divide is added to the
pivot row; clearing that row then leaves such a remainder.  So |pivot|
falls at least every second round and the loop ends.  The pivot it ends
with divides every later entry, and row and column operations keep them
multiples of it, so d_t | d_{t+1} holds without a repair pass.  Taking the
least pivot each round is what keeps the entries from exploding (Havas,
Holt and Rees, Linear Algebra Appl. 192, 1993).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cache
from itertools import filterfalse
from math import prod

import numpy as np

from . import config
from .errors import DimensionMismatch, FactorNotFinite, NotUnimodular, SizeLimit
from .groups import FiniteAbelian, abelian_from_orders, factorize

IntMatrix = tuple[tuple[int, ...], ...]


def mat(rows) -> IntMatrix:
    m = tuple(tuple(int(v) for v in row) for row in rows)
    if not m or any(len(r) != len(m[0]) for r in m):
        raise DimensionMismatch("ragged matrix")
    return m


def identity(k: int) -> IntMatrix:
    return tuple(tuple(1 if i == j else 0 for j in range(k)) for i in range(k))


def mat_mul(a: IntMatrix, b: IntMatrix) -> IntMatrix:
    if len(a[0]) != len(b):
        raise DimensionMismatch("inner dimensions differ")
    bt = tuple(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def transpose(a: IntMatrix) -> IntMatrix:
    return tuple(zip(*a))


def mat_det(a: IntMatrix) -> int:
    """Determinant by fraction-free Bareiss elimination."""
    n = len(a)
    if any(len(r) != n for r in a):
        raise DimensionMismatch("determinant of a non-square matrix")
    m = [list(row) for row in a]
    sign = 1
    prev = 1
    for i in range(n - 1):
        if m[i][i] == 0:
            for j in range(i + 1, n):
                if m[j][i]:
                    m[i], m[j] = m[j], m[i]
                    sign = -sign
                    break
            else:
                return 0
        for j in range(i + 1, n):
            for k in range(i + 1, n):
                m[j][k] = (m[j][k] * m[i][i] - m[j][i] * m[i][k]) // prev
            m[j][i] = 0
        prev = m[i][i]
    return sign * m[-1][-1]


def mat_inv_unimodular(a: IntMatrix) -> IntMatrix:
    """Inverse of a matrix with determinant +-1: V U, since U a V = I."""
    u, _, v = smith_normal_form(_unimodular([a])[0][0])
    return mat_mul(v, u)


# -- Smith normal form ----------------------------------------------------------


def smith_normal_form(a: IntMatrix) -> tuple[IntMatrix, IntMatrix, IntMatrix]:
    """Return (U, S, V) with U a V = S diagonal, nonnegative, d_i | d_{i+1}.

    U and V are unimodular; works on rectangular input.  The elimination
    loop and its pivot rule are described in the module docstring.
    """
    m = [list(row) for row in a]
    rows, cols = len(m), len(m[0])
    u = [[int(i == j) for j in range(rows)] for i in range(rows)]
    v = [[int(i == j) for j in range(cols)] for i in range(cols)]

    def add_row(src, dst, c):
        # row dst += c * row src, in m and in u
        m[dst] = [x + c * y for x, y in zip(m[dst], m[src])]
        u[dst] = [x + c * y for x, y in zip(u[dst], u[src])]

    def add_col(src, dst, c):
        # column dst += c * column src, in m and in v
        for row in (*m, *v):
            row[dst] += c * row[src]

    def move_to(t, i, j):
        # swap row i into row t and column j into column t
        m[t], m[i] = m[i], m[t]
        u[t], u[i] = u[i], u[t]
        for row in (*m, *v):
            row[t], row[j] = row[j], row[t]

    for t in range(min(rows, cols)):
        while True:
            # least |entry| in the block; ties go to (t, t), then row-major
            best = min(((abs(m[i][j]), i, j) for i in range(t, rows)
                        for j in range(t, cols) if m[i][j]), default=None)
            if best is None:
                return mat(u), mat(m), mat(v)
            move_to(t, best[1], best[2])
            pivot = m[t][t]
            for i in range(t + 1, rows):
                if m[i][t]:
                    add_row(t, i, -(m[i][t] // pivot))
            for j in range(t + 1, cols):
                if m[t][j]:
                    add_col(t, j, -(m[t][j] // pivot))
            if any(m[i][t] for i in range(t + 1, rows)) or any(m[t][t + 1:]):
                continue
            bad = next((i for i in range(t + 1, rows)
                        if any(x % pivot for x in m[i][t + 1:])), None)
            if bad is None:
                break
            add_row(bad, t, 1)
        if m[t][t] < 0:
            m[t] = [-x for x in m[t]]
            u[t] = [-x for x in u[t]]
    return mat(u), mat(m), mat(v)


# -- Minkowski bound and finiteness ----------------------------------------------


@cache
def minkowski_bound(k: int) -> int:
    """M(k): every finite subgroup of GL(k, Z) has order dividing M(k)."""
    if not 1 <= k <= config.MINKOWSKI_MAX_RANK:
        raise SizeLimit(f"rank must be in 1..{config.MINKOWSKI_MAX_RANK}")
    out = 1
    for p in [q for q in range(2, k + 2) if factorize(q) == {q: 1}]:  # primes
        e = 0
        pk = 1  # p^i
        while k // (pk * (p - 1)):
            e += k // (pk * (p - 1))
            pk *= p
        out *= p ** e
    return out


@dataclass(frozen=True, eq=False)
class MatrixGroupResult:
    """Outcome of enumerating a generated subgroup of GL(k, Z); a finite one
    keeps the sorted (order, k, k) array of its elements."""

    finite: bool
    rank: int
    order: int | None = None
    matrices: np.ndarray | None = None
    witness_count: int | None = None

    def __str__(self) -> str:
        if self.finite:
            return f"finite of order {self.order}"
        return f"infinite (more than {self.witness_count - 1} elements)"


def _unimodular(gens) -> tuple[list[IntMatrix], int]:
    """The generators as k x k matrices, and k; raises unless each has
    determinant +-1, computed once per generator."""
    gens = [mat(g) for g in gens]
    if not gens:
        raise DimensionMismatch("at least one generator required")
    k = len(gens[0])
    for g in gens:
        if len(g) != k or len(g[0]) != k:
            raise DimensionMismatch("generators must be square of equal size")
        if (d := mat_det(g)) not in (1, -1):
            raise NotUnimodular(d)
    return gens, k


# At most this many products in one batched matmul, so that a wide closure
# level or a phase with large cosets is taken a slice at a time.
_BATCH_PRODUCTS = 1 << 12


def _top(a: np.ndarray) -> int:
    """The largest |x| in a nonempty int64 array."""
    # |x| viewed as uint64 is exact for every int64 x, -2^63 included
    return int(np.abs(a).view(np.uint64).max())


def _mul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a @ b, exactly; over int64 it raises OverflowError if a sum could
    pass 2^63."""
    if a.dtype == object or not (a.size and b.size):
        return np.matmul(a, b)
    if a.shape[-1] * _top(a) * _top(b) >= 1 << 63:
        raise OverflowError("int64 matrix products could wrap")
    return np.matmul(a, b)


def _new_rows(rows: np.ndarray, known: set) -> tuple[dict, np.ndarray]:
    """The keys of the rows of `rows` not in `known`, each once in order of
    first occurrence (as dict keys), and the array of the rows they key."""
    keys = row_keys(rows)
    new = dict.fromkeys(filterfalse(known.__contains__, keys))
    if len(new) == len(keys):
        return new, rows
    if rows.dtype == object:
        found = np.array(list(new), dtype=object)
    else:
        found = np.frombuffer(b"".join(new), np.int64)
    return new, found.reshape(-1, *rows.shape[1:])


def _dimino(gens: list[IntMatrix], orders: list[int], k: int, bound: int,
            dtype) -> np.ndarray | None:
    """The elements of the group generated by `gens`, of finite `orders`,
    as one (n, k, k) array of `dtype`, or None once two of them are equal
    mod 3 or there are more than `bound` (see the module docstring)."""
    every = np.array(gens, dtype=dtype)
    group = np.array([identity(k)], dtype=dtype)
    seen = set(row_keys(group))
    for i, (key, n) in enumerate(zip(row_keys(every), orders)):
        if key in seen:
            continue
        g = every[i:i + 1]
        if len(group) == 1:
            group = np.concatenate([group, g])  # g^j for j < m = 2
            while len(group) < n:  # g^m g^j = g^(m + j) doubles m
                power = _mul(group[-1:], g)
                group = np.concatenate([group, _mul(power, group)])
            group = group[:n]
            seen = set(row_keys(group))
            continue
        tall, blocks, cands = group.reshape(-1, k), [group], g
        residues = set(_residue_keys(group))  # distinct, as H is finite
        per = max(1, _BATCH_PRODUCTS // len(group))
        steps = every[:i + 1]  # s in G_(i-1) is harmless
        while len(cands):
            reps = []
            for at in range(0, len(cands), per):
                cosets = _mul(tall, cands[at:at + per])  # h c, h in H
                new, rows = _new_rows(cosets.reshape(-1, k, k), seen)
                seen.update(new)
                residues.update(_residue_keys(rows))
                if len(residues) < len(seen) or len(seen) > bound:
                    return None
                blocks.append(rows)
                reps.append(rows[::len(group)])  # one element per new coset
            products = _mul(np.concatenate(reps)[:, None], steps)
            cands = _new_rows(products.reshape(-1, k, k), seen)[1]
        group = np.concatenate(blocks)
    return group


def _closure(v: tuple[int, ...], step: list[IntMatrix], bound: int,
             dtype) -> np.ndarray | None:
    """The distinct row vectors v w over words w in `step`, breadth first,
    as one (n, k) array of `dtype`, or None past `bound` vectors.

    The steps are closed under inverses, so a product of level L lies in
    level L - 1, L or L + 1: only those levels' keys are kept.
    """
    k = len(v)
    steps = np.concatenate(np.array(step, dtype=dtype), axis=1)  # [g_0 | g_1 ..]
    per = max(1, _BATCH_PRODUCTS // len(step))
    levels = [np.empty((0, k), dtype), np.array([v], dtype=dtype)]
    window, count = set(row_keys(levels[1])), 1
    while len(levels[-1]):
        parts = []
        for at in range(0, len(levels[-1]), per):  # frontier-major, step-minor
            products = _mul(levels[-1][at:at + per], steps).reshape(-1, k)
            new, rows = _new_rows(products, window)
            count += len(new)
            if count > bound:
                return None
            window.update(new)
            parts.append(rows)
        levels.append(np.concatenate(parts))
        window.difference_update(row_keys(levels[-3]))
    return np.concatenate(levels)


def row_keys(rows: np.ndarray) -> list:
    """One hashable key per row of an (n, ...) array of fixed-width ints or
    Python ints, equal exactly when the rows are: the row's raw bytes for
    int64 or int8 (b"" at width 0, where numpy has no void view), else a
    tuple of its ints."""
    flat = rows.reshape(len(rows), prod(rows.shape[1:]))
    if rows.dtype == object:
        return list(map(tuple, flat.tolist()))
    if not flat.shape[1]:
        return [b""] * len(flat)
    flat = np.ascontiguousarray(flat)
    return flat.view(f"V{flat.shape[1] * flat.itemsize}").ravel().tolist()


# x mod 3 for -3 * 2^10 <= x < 3 * 2^10, looked up at x: a negative x
# indexes len + x, which is x mod 3 too, as 3 divides the length
_MOD3 = (np.arange(3 << 10) % 3).astype(np.int8)


def _residue_keys(rows: np.ndarray) -> list:
    """The row_keys of the rows mod 3, as int8."""
    try:
        residues = _MOD3[rows]
    except IndexError:  # an entry past the table, or Python ints
        residues = (rows % 3).astype(np.int8)
    return row_keys(residues)


def generated_group(gens) -> MatrixGroupResult:
    """The generated group: enumerated when finite, else proved infinite by
    a generator's order or by two elements equal mod 3."""
    gens, k = _unimodular(gens)
    bound = minkowski_bound(k)
    orders = [_order(g, bound) for g in gens]
    found = None
    if None not in orders:
        try:
            found = _dimino(gens, orders, k, bound, np.int64)
        except OverflowError:
            found = _dimino(gens, orders, k, bound, object)
    if found is None:
        return MatrixGroupResult(finite=False, rank=k, witness_count=bound + 1)
    return MatrixGroupResult(finite=True, rank=k, order=len(found),
                             matrices=_sorted_elements(found))


def _sorted_elements(found: np.ndarray) -> np.ndarray:
    """The (n, k, k) elements in the order `sorted()` gives their nested
    lists, which is the lexicographic order of their flattened rows."""
    flat = found.reshape(len(found), -1)
    if found.dtype != object:
        lo = int(flat.min())
        span = int(flat.max()) - lo + 1
        if span ** flat.shape[1] < 1 << 63:  # the keys below fit int64
            weights = span ** np.arange(flat.shape[1] - 1, -1, -1,
                                        dtype=np.int64)
            # distinct elements have distinct keys, so any sort is stable
            return found[np.argsort((flat - lo) @ weights)]
    return found[np.lexsort(flat.T[::-1])]


def element_order(m: IntMatrix) -> int | None:
    """Multiplicative order, or None when it is infinite."""
    (m,), k = _unimodular([m])
    return _order(m, minkowski_bound(k))


def _order(m: IntMatrix, bound: int) -> int | None:
    """element_order of a unimodular m: a finite order is n3, the order of
    m mod 3 (at most 3^k - 1), so it is finite exactly when m^n3 = I."""
    ident = np.eye(len(m), dtype=np.int64).tolist()
    x = m3 = np.array([[v % 3 for v in row] for row in m], dtype=np.int64)
    for n3 in range(1, min(bound, 3 ** len(m) - 1) + 1):
        if x.tolist() == ident:
            power = np.linalg.matrix_power(np.array(m, dtype=object), n3)
            return n3 if power.tolist() == ident else None
        x = _MOD3[x @ m3]
    return None


# -- orbits on the character lattice ---------------------------------------------


@dataclass(frozen=True, eq=False)
class OrbitResult:
    """A finite orbit keeps the closure's (size, k) array of vectors, in
    int64 or, past its range, Python ints; an infinite one only its cap."""

    finite: bool
    size: int | None = None
    elements: np.ndarray | None = None
    cap: int | None = None


def char_orbit(vector, gens, cap: int = config.DEFAULT_ORBIT_CAP) -> OrbitResult:
    """Orbit of a character-lattice vector under the generated group."""
    if cap < 1:  # every orbit holds its vector, so it would exceed the cap
        raise SizeLimit(f"orbit cap must be at least 1, got {cap}")
    gens, k = _unimodular(gens)
    v = tuple(int(x) for x in vector)
    if len(v) != k:
        raise DimensionMismatch("vector rank does not match the generators")
    # g.v is the row vector v^T g^T, so the orbit is a closure of rows
    step = [transpose(s) for g in gens for s in (g, mat_inv_unimodular(g))]
    try:
        found = _closure(v, step, cap, np.int64)
    except OverflowError:  # an entry or a product past int64: Python ints
        found = _closure(v, step, cap, object)
    if found is None:
        return OrbitResult(finite=False, cap=cap)
    return OrbitResult(finite=True, size=len(found), elements=found)


# -- fixed subgroups on the torus -------------------------------------------------


@dataclass(frozen=True)
class FixedStructure:
    """Fixed points of a torus automorphism: T^circle_rank x torsion."""

    circle_rank: int
    torsion: FiniteAbelian

    @property
    def is_finite(self) -> bool:
        return self.circle_rank == 0

    @property
    def finite_order(self) -> int | None:
        return self.torsion.order if self.is_finite else None

    def __str__(self) -> str:
        parts = []
        if self.circle_rank:
            parts.append(f"T^{self.circle_rank}")
        if not self.torsion.is_trivial:
            parts.append(str(self.torsion))
        return " x ".join(parts) if parts else "1"


def fixed_subgroup_structure(m: IntMatrix) -> FixedStructure:
    """Structure of ker(m - I) acting on (Q/Z)^k, read off the SNF of m - I."""
    m = mat(m)
    k = len(m)
    if any(len(r) != k for r in m):
        raise DimensionMismatch("automorphism matrix must be square")
    diff = tuple(tuple(m[i][j] - (1 if i == j else 0) for j in range(k)) for i in range(k))
    _, s, _ = smith_normal_form(diff)
    diag = [s[i][i] for i in range(k)]  # each 0 (a circle) or a torsion order
    return FixedStructure(circle_rank=diag.count(0),
                          torsion=abelian_from_orders(diag))


# -- abelian embedding decision ----------------------------------------------------


def _conjugate(partition: tuple[int, ...]) -> tuple[int, ...]:
    return tuple(sum(1 for x in partition if x >= t)
                 for t in range(1, max(partition, default=0) + 1))


def _p_part_embeds(d_parts: tuple[int, ...], rank: int, a_parts: tuple[int, ...]) -> bool:
    """Decide (+)Z/p^d_i  into  (Z/p^inf)^rank x (+)Z/p^a_j.

    The torus absorbs any p-group of rank <= rank, and removing the largest
    parts is optimal, so drop those and compare conjugate partitions.
    """
    rest = tuple(sorted(d_parts, reverse=True)[rank:])
    cr = _conjugate(rest)
    ca = _conjugate(a_parts)
    return len(cr) <= len(ca) and all(x <= y for x, y in zip(cr, ca))


def abelian_embeds(d: FiniteAbelian, circle_rank: int, torsion: FiniteAbelian) -> bool:
    """Decide whether d embeds into T^circle_rank x torsion."""
    primes = set(d.primes()) | set(torsion.primes())
    return all(_p_part_embeds(d.p_partition(p), circle_rank, torsion.p_partition(p))
               for p in sorted(primes))


# -- soundness of torus families ----------------------------------------------------


@dataclass(frozen=True)
class TorusSoundness:
    sound: bool
    rank: int
    factor_orders: tuple[int, ...]
    joint: MatrixGroupResult


def torus_soundness(k: int, factor_gens) -> TorusSoundness:
    """A family of finite actions on T^k is sound iff the joint action is finite."""
    minkowski_bound(k)  # SizeLimit outside 1..MINKOWSKI_MAX_RANK, before identity(k)
    factor_orders = []
    all_gens = []
    for i, gens in enumerate(factor_gens):
        gens = [mat(g) for g in gens]
        if any(len(g) != k or len(g[0]) != k for g in gens):
            raise DimensionMismatch(f"factor {i} generators are not {k}x{k}")
        res = generated_group(gens)
        if not res.finite:
            raise FactorNotFinite(i)
        factor_orders.append(res.order)
        all_gens.extend(gens)
    joint = generated_group(all_gens or [identity(k)])
    return TorusSoundness(sound=joint.finite, rank=k,
                          factor_orders=tuple(factor_orders), joint=joint)


# -- orbit growth diagnostics --------------------------------------------------------


@dataclass(frozen=True)
class OrbitObstruction:
    sizes: tuple[int | None, ...]  # None marks ExceedsCap
    growing: bool = field(default=False)


def coproduct_orbit_obstruction(members, cap: int = config.DEFAULT_ORBIT_CAP) -> OrbitObstruction:
    """Per-member character orbits with a strictly-increasing-growth flag.

    members: iterable of (rank, generator list, character vector), each
    generator rank x rank.
    """
    sizes: list[int | None] = []
    for i, (rank, gens, chi) in enumerate(members):
        if any(len(g) != rank for g in gens):
            raise DimensionMismatch(f"member {i} has rank {rank} but "
                                    "generators of another size")
        chi = tuple(int(x) for x in chi)
        if not any(chi):
            raise DimensionMismatch("character vector must be nonzero")
        orb = char_orbit(chi, gens, cap=cap)
        sizes.append(orb.size if orb.finite else None)
    growing = len(sizes) >= 2 and None not in sizes \
        and all(a < b for a, b in zip(sizes, sizes[1:]))
    return OrbitObstruction(sizes=tuple(sizes), growing=growing)
