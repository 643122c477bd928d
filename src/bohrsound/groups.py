"""Finite groups as validated multiplication tables.

Elements are integers 0..n-1 with the identity pinned at index 0.  The table
is the single source of truth; everything else (inverses, orders, classes,
centers, subgroups) is derived from it by whole-table numpy passes.

An untrusted table is checked exactly at every order, in O(n^2 log n).
"""

from __future__ import annotations

import bisect
import hashlib
import itertools
from dataclasses import dataclass
from functools import cached_property
from math import gcd, lcm, prod

import numpy as np

from . import config
from .errors import (
    NoIdentity,
    NoInverse,
    NonAssociative,
    NotAnAction,
    NotASubgroup,
    NotInjective,
    SizeLimit,
    SourceMismatch,
)


def _as_table(table) -> np.ndarray:
    try:
        arr = np.asarray(table, dtype=np.int32)
    except OverflowError:  # an entry past int32 is out of range at any order
        raise NotASubgroup("table entries out of range") from None
    if arr.ndim != 2 or arr.shape[0] != arr.shape[1]:
        raise NotASubgroup("multiplication table must be square")
    return arr


def _find_identity(mul: np.ndarray) -> int:
    idx = np.arange(mul.shape[0])
    # an identity is idempotent: only the diagonal's fixed points need the row test
    cands = np.flatnonzero(mul.diagonal() == idx)
    ok = (mul[cands] == idx).all(axis=1) & (mul[:, cands] == idx[:, None]).all(axis=0)
    if not ok.any():
        raise NoIdentity("no two-sided identity element")
    return int(cands[ok][0])


def _check_axioms(mul: np.ndarray) -> np.ndarray:
    """Exact group-axiom check of an untrusted table; returns the inverses.

    After identity and two-sided inverses come a^-1 (a y) = y = (y a) a^-1
    for all a and y, which make every row and column a permutation, then
    Light's test (Clifford-Preston, The Algebraic Theory of Semigroups I,
    1961, section 1.2): the associative middles a, with (x a) y = x (a y)
    for all x and y, are closed under the product, so a greedy generating
    set suffices, and in a Latin square with identity each generator at
    least doubles the generated part: at most log2(n) + 1 tests of O(n^2).
    A NonAssociative witness (x, a, y) has (x a) y != x (a y).
    """
    if _find_identity(mul) != 0:
        raise NoIdentity("identity must sit at index 0 (use group_from_table)")
    idx = np.arange(mul.shape[0])
    zero = mul == 0
    both = zero & zero.T
    inv = np.argmax(both, axis=1)
    if not both[idx, inv].all():
        raise NoInverse(int(np.argmin(both[idx, inv])))
    left = mul[inv[:, None], mul] != idx  # a^-1 (a y) != y = (a^-1 a) y
    if left.any():
        a, y = np.argwhere(left)[0]
        raise NonAssociative((int(inv[a]), int(a), int(y)))
    right = mul[mul, inv] != idx[:, None]  # (y a) a^-1 != y = y (a a^-1)
    if right.any():
        y, a = np.argwhere(right)[0]
        raise NonAssociative((int(y), int(a), int(inv[a])))
    for a in greedy_generators(mul):
        bad = mul[mul[:, a]] != mul[:, mul[a]]  # (x a) y != x (a y)
        if bad.any():
            x, y = np.argwhere(bad)[0]
            raise NonAssociative((int(x), a, int(y)))
    return inv.astype(np.int32)


def greedy_generators(mul: np.ndarray):
    """Yield generators of the table's closure of {0}: each is the least
    element outside the closure of 0 and those yielded before it.  In a
    Latin square with identity each one at least doubles that closure, so
    there are at most log2(n) + 1 of them."""
    reached = np.zeros(mul.shape[0], dtype=bool)
    reached[0] = True
    elems = np.zeros(1, dtype=np.intp)
    while elems.size < reached.size:
        a = int(np.argmin(reached))
        yield a
        reached[a] = True
        while True:  # square until closed
            grown = np.flatnonzero(reached)
            if grown.size == elems.size:
                break
            elems = grown
            reached[mul[elems[:, None], elems]] = True


def _powers(mul: np.ndarray, x: np.ndarray, m: int) -> np.ndarray:
    """x^m, m >= 1, for every element in the array x, by square and multiply."""
    if m == 1:
        return x
    half = _powers(mul, mul[x, x], m // 2)
    return mul[half, x] if m & 1 else half


class FiniteGroup:
    """A finite group given by its full multiplication table.

    Index 0 is the identity.  Instances are immutable; derived data is cached.
    """

    def __init__(self, table, labels=None, name: str | None = None,
                 _validated: bool = False):
        mul = _as_table(table)
        n = mul.shape[0]
        if n == 0:
            raise NoIdentity("empty table")
        if mul.min() < 0 or mul.max() >= n:
            raise NotASubgroup("table entries out of range")
        if _validated:
            inv = np.argmax(mul == 0, axis=1).astype(np.int32)
        else:
            inv = _check_axioms(mul)
        self.order = n
        mul.setflags(write=False)
        self.mul = mul
        inv.setflags(write=False)
        self.inv = inv
        self.labels = tuple(labels) if labels is not None else tuple(str(i) for i in range(n))
        if len(self.labels) != n:
            raise NotASubgroup("label count must match order")
        self.name = name or f"group{n}"

    # -- basic arithmetic ---------------------------------------------------

    def op(self, a: int, b: int) -> int:
        return int(self.mul[a, b])

    def inverse(self, a: int) -> int:
        return int(self.inv[a])

    def element_order(self, a: int) -> int:
        return self.element_orders[a]

    @cached_property
    def element_orders(self) -> tuple[int, ...]:
        """Every order at once.  For each prime power q^v exactly dividing |G|,
        x^(|G| / q^v) has order the q-part of o(x), counted by the q-th powers
        that take it to 1: O(log|G|) gathers per prime, not o(x) steps."""
        orders = np.ones(self.order, dtype=np.int64)
        for q, v in factorize(self.order).items():
            power = _powers(self.mul, np.arange(self.order), self.order // q ** v)
            while power.any():
                orders[power != 0] *= q
                power = _powers(self.mul, power, q)
        return tuple(orders.tolist())

    @cached_property
    def exponent(self) -> int:
        return lcm(*set(self.element_orders))

    @cached_property
    def is_abelian(self) -> bool:
        return bool(np.array_equal(self.mul, self.mul.T))

    # -- conjugacy ----------------------------------------------------------

    @cached_property
    def class_of(self) -> np.ndarray:
        """Class index of every element, classes numbered by minimal member."""
        conj = self.mul[self.mul, self.inv[:, None]]  # conj[g, x] = g x g^-1
        _, out = np.unique(conj.min(axis=0), return_inverse=True)
        out = out.astype(np.int32)
        out.setflags(write=False)
        return out

    @cached_property
    def conjugacy_classes(self) -> tuple[tuple[int, ...], ...]:
        """Classes ordered by minimal member; the identity class comes first."""
        members = np.argsort(self.class_of, kind="stable").tolist()
        ends = np.cumsum(np.bincount(self.class_of)).tolist()
        return tuple(tuple(members[s:e]) for s, e in zip([0] + ends, ends))

    @cached_property
    def class_reps(self) -> tuple[int, ...]:
        return tuple(cls[0] for cls in self.conjugacy_classes)

    @cached_property
    def inverse_class(self) -> tuple[int, ...]:
        """Index of the class containing the inverses of class k."""
        return tuple(self.class_of[self.inv[list(self.class_reps)]].tolist())

    # -- identity and hashing -------------------------------------------------

    @cached_property
    def table_digest(self) -> str:
        h = hashlib.sha256()
        h.update(str(self.order).encode())
        h.update(np.ascontiguousarray(self.mul, dtype=np.int32).tobytes())
        return h.hexdigest()

    def label_index(self, token: str) -> int:
        """Element lookup by label, falling back to integer indices."""
        try:
            return self.labels.index(token)
        except ValueError:
            pass
        try:
            i = int(token)
        except ValueError:
            raise NotASubgroup(f"unknown element {token!r} of {self.name}") from None
        if not 0 <= i < self.order:
            raise NotASubgroup(f"element index {i} out of range for {self.name}")
        return i

    def __repr__(self) -> str:
        return f"<FiniteGroup {self.name} order={self.order}>"


# -- homomorphisms ------------------------------------------------------------


class GroupHom:
    """A homomorphism given by its full value list, validated on construction."""

    def __init__(self, source: FiniteGroup, target: FiniteGroup, mapping,
                 _validated: bool = False):
        m = np.asarray(mapping, dtype=np.int32)
        if m.shape != (source.order,):
            raise SourceMismatch("mapping length must equal source order")
        if m.min() < 0 or m.max() >= target.order:
            raise SourceMismatch("mapping values out of range")
        if not _validated:
            if m[0] != 0:
                raise SourceMismatch("homomorphism must preserve the identity")
            lhs = m[source.mul]
            rhs = target.mul[np.ix_(m, m)]
            if not np.array_equal(lhs, rhs):
                a, b = np.argwhere(lhs != rhs)[0]
                raise SourceMismatch(f"not multiplicative at ({int(a)}, {int(b)})")
        m.setflags(write=False)
        self.source = source
        self.target = target
        self.mapping = m

    def __call__(self, a: int) -> int:
        return int(self.mapping[a])

    @cached_property
    def is_injective(self) -> bool:
        return len(set(self.mapping.tolist())) == self.source.order

    @cached_property
    def image(self) -> tuple[int, ...]:
        return tuple(sorted(set(int(v) for v in self.mapping)))

    def require_injective(self) -> None:
        if not self.is_injective:
            raise NotInjective(f"kernel of {self} is nontrivial")

    def __repr__(self) -> str:
        return f"<GroupHom {self.source.name} -> {self.target.name}>"


# -- subgroups ----------------------------------------------------------------


def reachable(seeds, step) -> set:
    """Every state reachable from `seeds` by repeated `step`.

    `step(x)` returns the successors of x.  There is no cap: callers pass
    steps that stay inside a finite set (a group, its subgroups, a set of
    indices), so the search ends.
    """
    seen = set(seeds)
    frontier = list(seen)
    while frontier:
        for y in step(frontier.pop()):
            if y not in seen:
                seen.add(y)
                frontier.append(y)
    return seen


class Subgroup:
    """A subgroup handle: parent group plus a closed element set."""

    def __init__(self, parent: FiniteGroup, elements: tuple[int, ...]):
        self.parent = parent
        self.elements = tuple(sorted(set(int(x) for x in elements)))
        if self.elements and (self.elements[0] < 0
                              or self.elements[-1] >= parent.order):
            raise NotASubgroup(f"elements must lie in range({parent.order})")
        if not self.elements or self.elements[0] != 0:
            raise NotASubgroup("subgroup must contain the identity")
        # a finite set closed under the product is closed under inverses too
        sub = parent.mul[np.ix_(self.elements, self.elements)]
        if not np.isin(sub, self.elements).all():
            raise NotASubgroup("not closed under multiplication")

    @property
    def order(self) -> int:
        return len(self.elements)

    def materialize(self) -> tuple[FiniteGroup, GroupHom]:
        """Standalone group on the sorted elements plus the inclusion map."""
        elems = np.array(self.elements)
        table = np.searchsorted(elems, self.parent.mul[np.ix_(elems, elems)])
        labels = [self.parent.labels[e] for e in self.elements]
        grp = FiniteGroup(table, labels=labels,
                          name=f"{self.parent.name}.sub{len(elems)}", _validated=True)
        incl = GroupHom(grp, self.parent, elems, _validated=True)
        return grp, incl

    def __repr__(self) -> str:
        return f"<Subgroup order={self.order} of {self.parent.name}>"


# -- constructors --------------------------------------------------------------


def group_from_table(table, labels=None, name: str | None = None) -> FiniteGroup:
    """Validate an untrusted table, relocating the identity to index 0 if needed."""
    mul = _as_table(table)
    n = mul.shape[0]
    if mul.min() < 0 or mul.max() >= n:
        raise NotASubgroup("table entries out of range")
    e = _find_identity(mul)
    if e != 0:
        perm = np.arange(n)
        perm[0], perm[e] = e, 0  # swap labels 0 <-> e, its own inverse
        mul = perm[mul[np.ix_(perm, perm)]]
        if labels is not None:
            labels = list(labels)
            labels[0], labels[e] = labels[e], labels[0]
    return FiniteGroup(mul, labels=labels, name=name)


def trivial_group() -> FiniteGroup:
    return FiniteGroup([[0]], labels=["e"], name="1", _validated=True)


def cyclic(n: int, labels=None, name: str | None = None) -> FiniteGroup:
    if not 1 <= n <= config.GROUP_MAX_ORDER:
        raise SizeLimit(f"cyclic group order must be in 1..{config.GROUP_MAX_ORDER}")
    idx = np.arange(n, dtype=np.int32)
    table = np.add.outer(idx, idx)  # built in place: no n^2 int64 temporary
    np.subtract(table, n, out=table, where=table >= n)
    if labels is None:
        labels = ["e"] + [f"g{i}" if i > 1 else "g" for i in range(1, n)]
    return FiniteGroup(table, labels=labels, name=name or f"Z{n}", _validated=True)


def _permutation_group(n: int, even: bool) -> FiniteGroup:
    """S_n, or A_n if even, on the permutations of range(n) in lexicographic
    order.  p q is the composition k -> p[q[k]]; every product is ranked at
    once by its base-n code, through a lookup array indexed by the codes."""
    if not 1 <= n <= config.SYMMETRIC_MAX_N:
        raise SizeLimit(f"symmetric(n) supports 1 <= n <= {config.SYMMETRIC_MAX_N}")
    perms = np.array(list(itertools.permutations(range(n))), dtype=np.int8)
    if even:
        i, j = np.triu_indices(n, 1)
        perms = perms[(perms[:, i] > perms[:, j]).sum(axis=1) % 2 == 0]
    m = len(perms)
    code = np.zeros((m, m), dtype=np.int32)
    for k in range(n):  # base-n digits of p q, most significant first
        code = code * n + perms[:, perms[:, k]]
    rank = np.zeros(n ** n, dtype=np.int32)
    rank[perms @ n ** np.arange(n - 1, -1, -1)] = np.arange(m)
    labels = ["".join(map(str, p)) for p in perms.tolist()]
    return FiniteGroup(rank[code], labels=labels,
                       name=("A" if even else "S") + str(n), _validated=True)


def symmetric(n: int) -> FiniteGroup:
    return _permutation_group(n, even=False)


def alternating(n: int) -> FiniteGroup:
    return _permutation_group(n, even=True)


def direct_product(a: FiniteGroup, b: FiniteGroup) -> FiniteGroup:
    na, nb = a.order, b.order
    if na * nb > config.GROUP_MAX_ORDER:
        raise SizeLimit(f"direct product of order {na * nb} exceeds "
                        f"{config.GROUP_MAX_ORDER}")
    ia, ib = np.divmod(np.arange(na * nb), nb)
    table = a.mul[np.ix_(ia, ia)] * nb + b.mul[np.ix_(ib, ib)]
    labels = [f"({a.labels[x]},{b.labels[y]})" for x in range(na) for y in range(nb)]
    return FiniteGroup(table, labels=labels, name=f"{a.name}x{b.name}", _validated=True)


def validate_action(normal: FiniteGroup, acting: FiniteGroup, action) -> np.ndarray:
    """Check that action is a homomorphism acting -> Aut(normal).

    Takes one index permutation of N per acting element, as an (|A|, |N|)
    array or nested lists, and returns it as an int32 array.  An entry
    outside range(|N|), however large, is refused with its position (a, x).
    Only the greedy generators g of A are checked to act by automorphisms
    with act[g] o act[a] = act[g a] for every a; by induction on word length
    every act[a] is then a product of automorphisms and the action
    multiplicative, at O(log|A| (|A||N| + |N|^2)) cost.
    """
    act = np.asarray(action)  # entries past int64 come as Python ints
    if act.shape != (acting.order, normal.order):
        raise NotAnAction(act.shape, "wrong shape")
    # before the int32 cast, which would overflow, and any gather: -1 wraps
    outside = (act < 0) | (act >= normal.order)
    if outside.any():
        a, x = np.argwhere(outside)[0]
        raise NotAnAction((int(a), int(x)), "entries out of range")
    act = act.astype(np.int32)
    idx = np.arange(normal.order)
    if not np.array_equal(act[0], idx):
        raise NotAnAction(0, "identity must act trivially")
    for g in greedy_generators(acting.mul):
        row = act[g]
        if not np.array_equal(np.sort(row), idx):
            raise NotAnAction(g, "not a permutation")
        lhs = row[normal.mul]
        rhs = normal.mul[np.ix_(row, row)]
        if not np.array_equal(lhs, rhs):
            x, y = np.argwhere(lhs != rhs)[0]
            raise NotAnAction((g, int(x), int(y)), "not an automorphism")
        bad = (row[act] != act[acting.mul[g]]).any(axis=1)
        if bad.any():  # act[g] o act[a] != act[g a]
            raise NotAnAction((g, int(np.argmax(bad))),
                              "not multiplicative in the acting group")
    return act


def semidirect(normal: FiniteGroup, acting: FiniteGroup, action,
               name: str | None = None) -> tuple[FiniteGroup, GroupHom, GroupHom]:
    """Semidirect product N x| A; returns the group and both embeddings.

    Element (n, a) has index n*|A| + a, so (0, 0) is the identity.
    """
    na, nn = acting.order, normal.order
    total = nn * na
    if total > config.GROUP_MAX_ORDER:
        raise SizeLimit(f"semidirect product of order {total} exceeds "
                        f"{config.GROUP_MAX_ORDER}")
    act = validate_action(normal, acting, action)
    n1, a1 = np.divmod(np.arange(total), na)
    # (n1, a1) * (n2, a2) = (n1 * act[a1](n2), a1 a2)
    n2, a2 = n1, a1
    left_n = normal.mul[n1[:, None], act[a1[:, None], n2[None, :]]]
    left_a = acting.mul[a1[:, None], a2[None, :]]
    table = left_n * na + left_a
    labels = [f"({normal.labels[n]},{acting.labels[a]})"
              for n in range(nn) for a in range(na)]
    grp = FiniteGroup(table, labels=labels,
                      name=name or f"{normal.name}:{acting.name}", _validated=True)
    emb_n = GroupHom(normal, grp, np.arange(nn) * na, _validated=True)
    emb_a = GroupHom(acting, grp, np.arange(na), _validated=True)
    return grp, emb_n, emb_a


def dihedral(n: int) -> FiniteGroup:
    """Dihedral group of order 2n."""
    zn = cyclic(n)
    z2 = cyclic(2)
    invert = np.stack([np.arange(n), (-np.arange(n)) % n])
    grp, _, _ = semidirect(zn, z2, invert, name=f"D{n}")
    return grp


def klein_four() -> FiniteGroup:
    grp = direct_product(cyclic(2), cyclic(2))
    grp.name = "V4"
    return grp


def heisenberg(level: int) -> FiniteGroup:
    """Upper unitriangular 3x3 matrices over Z/2^level.

    Element (a, b, c) is the matrix with a, b on the superdiagonal and c in the
    corner; the index is (a*q + b)*q + c, so the center {(0,0,c)} occupies
    indices 0..q-1.
    """
    if not 1 <= level <= config.HEISENBERG_MAX_LEVEL:
        raise SizeLimit(f"heisenberg level must be in 1..{config.HEISENBERG_MAX_LEVEL}")
    q = 1 << level
    m = q - 1
    # (a1, b1, c1)(a2, b2, c2) = (a1 + a2, b1 + b2, c1 + c2 + a1 b2) mod q, in
    # int32 bit fields (mod q is & m).  With h = a q + b the table is
    # [h1, c1, h2, c2], and its a and b fields depend on h1 and h2 alone.
    h = np.arange(q * q, dtype=np.int32)
    a, b = h >> level, h & m
    fields = ((a[:, None] + a & m) << level | (b[:, None] + b & m)) << level
    c = h[:q]
    table = (a[:, None, None, None] * b[:, None] + c[:, None, None] + c) & m
    table |= fields[:, None, :, None]
    table = table.reshape(q ** 3, q ** 3)
    labels = [f"({x},{y},{z})" for x in range(q) for y in range(q) for z in range(q)]
    return FiniteGroup(table, labels=labels, name=f"H{q}", _validated=True)


# -- abelian invariants and torus points ---------------------------------------


def factorize(n: int) -> dict[int, int]:
    """{prime: exponent} for the positive integer n, by trial division."""
    out: dict[int, int] = {}
    q = 2
    while q * q <= n:
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
        q += 1
    if n > 1:
        out[n] = 1
    return out


@dataclass(frozen=True)
class FiniteAbelian:
    """Finite abelian group by invariant factors d_1 | d_2 | ... (each > 1)."""

    invariant_factors: tuple[int, ...]

    def __post_init__(self):
        fs = tuple(int(d) for d in self.invariant_factors)
        object.__setattr__(self, "invariant_factors", fs)
        for d in fs:
            if d < 2:
                raise NotASubgroup("invariant factors must be > 1")
        for a, b in zip(fs, fs[1:]):
            if b % a:
                raise NotASubgroup("invariant factors must form a divisibility chain")

    @property
    def order(self) -> int:
        return prod(self.invariant_factors)

    @property
    def is_trivial(self) -> bool:
        return not self.invariant_factors

    def p_partition(self, p: int) -> tuple[int, ...]:
        """Exponent partition of the p-primary part, largest first."""
        return tuple(sorted((e for d in self.invariant_factors
                             if (e := factorize(d).get(p))), reverse=True))

    def primes(self) -> tuple[int, ...]:
        return tuple(sorted({q for d in self.invariant_factors for q in factorize(d)}))

    def __str__(self) -> str:
        if not self.invariant_factors:
            return "1"
        return " x ".join(f"Z/{d}" for d in self.invariant_factors)


def abelian_from_orders(orders) -> FiniteAbelian:
    """Invariant factors of a direct sum of cyclic groups of the given orders.

    Z/a + Z/b = Z/gcd + Z/lcm, so each order d is inserted into the chain of
    factors so far, largest first: past the prefix it divides, by bisection,
    it leaves lcms and carries gcds, proper divisors, so it takes at most
    log2(d) steps, and nothing is factored.
    """
    chain: list[int] = []
    for d in map(int, orders):
        j = 0
        while d > 1:
            j = bisect.bisect_left(chain, True, lo=j, key=lambda f: f % d != 0)
            if j == len(chain):
                chain.append(d)
                break
            chain[j], d = lcm(chain[j], d), gcd(chain[j], d)
    return FiniteAbelian(tuple(reversed(chain)))
