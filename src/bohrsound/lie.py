"""Checks for compact connected Lie groups presented as (T^r x prod S_i)/D.

The group is described by its central torus rank, a list of simple factor
types, and a finite gluing subgroup D given as the graph of a map from a
subgroup of the product of simple centers into the torus.  Everything here
is exact: centers come from the classification table, a torus point is a
tuple of Fractions reduced into [0, 1), written in D's rows as integer
numerators over N, the common denominator of the generators' torus images,
and D is held once, as integer rows, on which the center and the
glued torus subgroup are counted as q-torsion at prime powers q.  The center
automorphisms are homomorphisms, and D's generators generate its support,
so support preservation and the joint sign are checked on the generators
alone; only kernel preservation is checked on all the kernel's rows, by one
gather.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import factorial, gcd, lcm, prod

import numpy as np

from . import config
from .errors import (
    DoesNotCommute,
    InvalidDelta,
    InvariantViolation,
    SchemaError,
    SizeLimit,
    WrongOrder,
)
from .groups import FiniteAbelian, abelian_from_orders, factorize
from .zmat import (
    abelian_embeds,
    element_order,
    fixed_subgroup_structure,
    mat,
    mat_inv_unimodular,
    mat_mul,
    row_keys,
)


# -- simple factor types -----------------------------------------------------------------

_RANK_FLOOR = {"A": 1, "B": 2, "C": 3, "D": 3}
_FIXED_RANK = {"E": (6, 7, 8), "F": (4,), "G": (2,)}


@dataclass(frozen=True)
class SimpleType:
    """One simple compact factor, identified by series letter and rank."""

    series: str
    rank: int

    def __post_init__(self):
        s, l = self.series, self.rank
        if s in _RANK_FLOOR:
            if l < _RANK_FLOOR[s]:
                raise SchemaError(f"{s}-series rank must be >= {_RANK_FLOOR[s]}")
        elif s in _FIXED_RANK:
            if l not in _FIXED_RANK[s]:
                raise SchemaError(f"{s}-series rank {l} does not exist")
        else:
            raise SchemaError(f"unknown series {s!r}")

    @property
    def center_orders(self) -> tuple[int, ...]:
        """Cyclic decomposition of the factor's center."""
        s, l = self.series, self.rank
        if s == "A":
            return (l + 1,)
        if s in ("B", "C"):
            return (2,)
        if s == "D":
            return (2, 2) if l % 2 == 0 else (4,)
        if s == "E":
            return {6: (3,), 7: (2,), 8: ()}[l]
        return ()

    @property
    def inversion_achievable(self) -> bool:
        """Whether some group automorphism inverts the center.

        Complex conjugation handles A_l (l >= 2), an outer swap handles
        D_odd, and E6 has an inverting outer automorphism; the remaining
        centers are elementary 2-groups where inversion is the identity.
        """
        s, l = self.series, self.rank
        return (s == "A" and l >= 2) or (s == "D" and l % 2 == 1) or \
            (s == "E" and l == 6)

    def __str__(self) -> str:
        return f"{self.series}{self.rank}"


def simple_type(token) -> SimpleType:
    text = token.strip() if isinstance(token, str) else ""
    if len(text) < 2 or not text[0].isalpha() or not text[1:].isdecimal():
        raise SchemaError(f"cannot parse simple type {token!r}")
    return SimpleType(text[0].upper(), int(text[1:]))


# -- the datum ----------------------------------------------------------------------------


class LieDatum:
    """(T^torus_rank x prod factors) / D with D the graph of a gluing map.

    Generators give pairs (simple center part, rational torus image), held
    reduced: the simple part modulo the center orders, the torus image as a
    tuple of Fractions in [0, 1).  The generated subgroup must project
    injectively to the simple part.  D is held once, as `elements`: one row
    per element, the simple coordinates modulo the center orders, then the
    torus numerators over N, the lcm of the torus images' denominators,
    modulo N (int64 below 2^62); `row_of` finds the row of a simple part by
    its zmat.row_keys key.  Each generator adds one coset of its multiples
    at a time, refused once |D| would pass G = config.GROUP_MAX_ORDER or its
    |D| (c + z) cells G^2, the largest table the builders accept; N past G is
    refused up front (N <= |D|).
    """

    def __init__(self, torus_rank: int, factors, generators=()):
        if torus_rank < 0:
            raise InvalidDelta("torus rank must be nonnegative")
        if torus_rank > config.MINKOWSKI_MAX_RANK:  # as for GL(k, Z) in zmat
            raise SizeLimit(f"torus rank must be at most {config.MINKOWSKI_MAX_RANK}")
        self.torus_rank = torus_rank
        self.factors = tuple(factors)
        self.block_widths = tuple(len(f.center_orders) for f in self.factors)
        self.block_offsets = tuple(
            itertools.accumulate(self.block_widths, initial=0))[:-1]
        self.center_orders = tuple(
            m for f in self.factors for m in f.center_orders)
        c = len(self.center_orders)
        gens = []
        for simple, torus in generators:
            if len(simple) != c:
                raise InvalidDelta(
                    f"simple part needs {c} coordinates, got {len(simple)}")
            if len(torus) != torus_rank:
                raise InvalidDelta(
                    f"torus part needs {torus_rank} coordinates, got {len(torus)}")
            simple = tuple(int(v) % m for v, m in zip(simple, self.center_orders))
            gens.append((simple, tuple(Fraction(a) % 1 for a in torus)))
        self.generators = tuple(gens)
        n = self.denominator = lcm(*(a.denominator for _, t in gens for a in t))
        limit = config.GROUP_MAX_ORDER
        if n > limit:
            raise SizeLimit(f"gluing subgroup of order at least {n} exceeds {limit}")
        moduli = self.center_orders + (n,) * torus_rank
        dtype = np.int64 if max(moduli, default=1) < 1 << 62 else object
        moduli = np.array(moduli, dtype)
        elements = np.zeros((1, len(moduli)), dtype)
        for s, t in gens:
            g = step = np.array(s + tuple(int(a * n) for a in t), dtype)
            cosets = [elements]
            while not (elements == step).all(axis=1).any():
                size = (len(cosets) + 1) * len(elements)
                if size > limit or size * len(moduli) > limit * limit:
                    raise SizeLimit(f"gluing subgroup exceeds {limit} elements "
                                    f"or {limit}^2 cells")
                cosets.append((elements + step) % moduli)
                step = (step + g) % moduli
            elements = np.concatenate(cosets)
        self.elements = elements
        self.row_of = dict(zip(row_keys(elements[:, :c]), range(len(elements))))
        if len(self.row_of) < len(elements):
            raise InvalidDelta(
                f"gluing subgroup is not a graph at simple part {(0,) * c}")


def _primary_orders(torsion, primes) -> list[int]:
    """Cyclic orders of the l-primary parts of a finite abelian A, l in
    primes, from torsion(q) = |A[q]|: log_l |A[l^j]| / |A[l^(j-1)]| cyclic
    factors have order at least l^j."""
    out = []
    for l in primes:
        at_least, prev = [], 1
        while (count := torsion(l ** (len(at_least) + 1))) != prev:
            ratio, prev = count // prev, count
            at_least.append(next(i for i in itertools.count() if l ** i >= ratio))
        out += [l ** sum(r > k for r in at_least)
                for k in range(max(at_least, default=0))]
    return out


def lie_center(datum: LieDatum) -> tuple[int, FiniteAbelian]:
    """Center of the quotient group: torus rank plus component group C/S.

    C is the product of simple centers and S = D's simple parts, so S only
    meets the primes dividing |S| = |D|.  There |(C/S)[q]| is |C[q]| times
    #{s in S : s in qC} / |S|, with s in qC when each s_i is a multiple of
    gcd(q, m_i); the rest of each center order m_i passes through.
    """
    orders, size = datum.center_orders, len(datum.elements)
    simple = datum.elements[:, :len(orders)]

    def torsion(q):
        g = [gcd(q, m) for m in orders]
        in_qc = (simple % np.array(g, simple.dtype) == 0).all(axis=1)
        return prod(g) * int(np.count_nonzero(in_qc)) // size

    rest = [m // gcd(m, size ** m.bit_length()) for m in orders]  # |D|'s primes out
    return datum.torus_rank, abelian_from_orders(
        rest + _primary_orders(torsion, factorize(size)))


def torus_image_invariants(datum: LieDatum) -> FiniteAbelian:
    """The glued torus subgroup Delta_0, D modulo its kernel K (zero torus
    part), of exponent dividing N: |Delta_0[q]| = |{d : q t(d) = 0}| / |K|."""
    torus, n = datum.elements[:, len(datum.center_orders):], datum.denominator

    def count(q):
        return int(np.count_nonzero((torus * q % n == 0).all(axis=1)))

    return abelian_from_orders(
        _primary_orders(lambda q: count(q) // count(1), factorize(n)))


# -- achievable automorphisms of the product of centers -------------------------------------


def achievable_center_autos(factors) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Automorphisms of the product of centers known to come from the group.

    Each entry is (factor permutation, per-factor sign): permutations of
    identical factors and center inversion on factors that support it.
    The diagram swap of D_n, n even, exchanging the two half-spin elements
    of its center Z/2 x Z/2, and D4's triality are left out, so the list
    can only under-approximate; `_rigidity` answers None on such factors.
    """
    factors = tuple(factors)
    n = len(factors)
    equal = {}  # each distinct factor -> its indices, in one pass
    for i, f in enumerate(factors):
        equal.setdefault(f, []).append(i)
    # one element per equal-factor permutation and sign choice: count first
    size = prod(factorial(len(idx)) for idx in equal.values()) \
        << sum(f.inversion_achievable for f in factors)
    if size > config.GROUP_MAX_ORDER:
        raise SizeLimit(f"{size} center automorphisms exceed {config.GROUP_MAX_ORDER}")
    perms = []
    for images in itertools.product(*map(itertools.permutations, equal.values())):
        sigma = list(range(n))
        for idx, image in zip(equal.values(), images):
            for i, j in zip(idx, image):
                sigma[i] = j
        perms.append(tuple(sigma))
    signs = [(1, -1) if f.inversion_achievable else (1,) for f in factors]
    return sorted(itertools.product(perms, itertools.product(*signs)))


def _preserved_autos(datum: LieDatum):
    """(cols, signs, eps) per achievable auto mapping the support onto
    itself (the generators decide): it maps simple rows by one gather,
    rows[:, cols] * signs % orders, and eps is the joint sign it acts as on
    the generators, or None."""
    dtype, c = datum.elements.dtype, len(datum.center_orders)
    orders = np.array(datum.center_orders, dtype)
    offsets = np.array(datum.block_offsets, np.intp)
    gens = np.array([s for s, _ in datum.generators], dtype)
    gens = gens.reshape(len(gens), c)
    for sigma, sign in achievable_center_autos(datum.factors):
        src = np.argsort(sigma)
        cols = np.repeat(offsets[src] - offsets, datum.block_widths) + np.arange(c)
        signs = np.repeat(np.array(sign, dtype)[src], datum.block_widths)
        images = gens[:, cols] * signs % orders
        if None not in map(datum.row_of.get, row_keys(images)):
            yield cols, signs, next(
                (eps for eps in (1, -1) if (images == gens * eps % orders).all()), None)


def _rigidity(datum: LieDatum) -> bool | None:
    """Do all relevant achievable automorphisms act as a joint sign?

    Quantifies over automorphisms preserving both the gluing support and
    its kernel (the only ones that can intertwine with an injective torus
    automorphism).  The joint sign is tested on the generators, and one
    maps the kernel onto itself; any other auto preserves the kernel when
    the gather of its rows lands on kernel rows, as many distinct ones.  A
    listed automorphism that is no joint sign settles False; otherwise a
    D_n factor with n even leaves it undecided (None).
    """
    c, rows = len(datum.center_orders), datum.elements
    orders = np.array(datum.center_orders, rows.dtype)
    kernel = np.flatnonzero((rows[:, c:] == 0).all(axis=1))[:, None]
    for cols, signs, eps in _preserved_autos(datum):
        if eps is None:
            image = rows[kernel, cols] * signs % orders
            image = [datum.row_of.get(k) for k in row_keys(image)]
            if None not in image and (rows[image, c:] == 0).all():
                return False
    even_d = any(f.series == "D" and f.rank % 2 == 0 for f in datum.factors)
    return None if even_d else True


# -- torsion classes of GL(2, Z) and the largest-compact verdict -----------------------------

TORSION_CLASSES: tuple[tuple[str, tuple[tuple[int, int], tuple[int, int]]], ...] = (
    ("reflection-split", ((1, 0), (0, -1))),
    ("reflection-nonsplit", ((-1, 1), (0, 1))),
    ("rotation-3", ((0, 1), (-1, -1))),
    ("rotation-4", ((0, -1), (1, 0))),
    ("rotation-6", ((0, -1), (1, 1))),
)


@dataclass(frozen=True)
class LargestCompactVerdict:
    kind: str
    witness_label: str | None
    witness: tuple | None
    delta0: FiniteAbelian
    fixed_profiles: tuple[tuple[str, str, int | None], ...]
    reason: str
    inversion_only: bool | None


def largest_compact_verdict(datum: LieDatum) -> LargestCompactVerdict:
    """Decide existence of a largest compact subgroup of the automorphisms.

    Rank <= 1 always has one.  At rank 2 the question reduces, for data
    whose relevant center automorphisms act as a joint sign, to whether
    any non-central torsion class of GL(2,Z) has fixed points large enough
    to swallow the glued torus subgroup; a hit denies the largest compact
    subgroup, a full sweep of misses confirms it.  The joint-sign answer
    is kept as `inversion_only` at every rank.  Past rank 2 the verdict
    is Unknown.
    """
    z = datum.torus_rank
    delta0 = torus_image_invariants(datum)
    rigid = _rigidity(datum)
    profiles = []

    def verdict(kind, reason, label=None, rep=None):
        return LargestCompactVerdict(kind, label, rep, delta0, tuple(profiles),
                                     reason, rigid)

    if z <= 1:
        return verdict("HasLargest", "automorphism group is compact")
    if z >= 3:
        return verdict("Unknown",
                       f"verdict implemented for torus rank <= 2, got {z}")
    if rigid is not True:
        return verdict("Unknown",
                       "achievable automorphism list is an under-approximation"
                       if rigid is None else
                       "a relevant center automorphism is not a joint sign")
    for label, rep in TORSION_CLASSES:
        fs = fixed_subgroup_structure(rep)
        profiles.append((label, str(fs), fs.finite_order))
        if abelian_embeds(delta0, fs.circle_rank, fs.torsion):
            return verdict("NoLargest", "glued subgroup embeds into the fixed "
                           f"points of {label}", label, rep)
    return verdict("HasLargest",
                   "no torsion class fixes a subgroup as large as the glued one")


@dataclass(frozen=True)
class ConditionsReport:
    center: tuple[int, FiniteAbelian]
    no_central_2torus: bool
    dual_rank_le_1: bool
    aut_compact: bool
    has_largest_compact: bool | None
    inversion_only: bool | None
    verdict: LargestCompactVerdict


def compactness_conditions(datum: LieDatum) -> ConditionsReport:
    """The equivalent compactness conditions plus the follow-up verdicts.

    The first is read off the presentation, the second off the center,
    which the report keeps as (torus dimension, finite part).  `lie_center`
    returns the datum's torus rank itself, so the two agree; the check that
    they do is an invariant.  The largest-compact verdict is decided once
    and kept in the report; compact automorphisms (rank <= 1) always leave a
    largest compact subgroup, and past rank 2 it is Unknown.
    """
    a = datum.torus_rank <= 1
    center = lie_center(datum)
    b = center[0] <= 1
    if a != b:
        raise InvariantViolation("presentation and center computations disagree")
    verdict = largest_compact_verdict(datum)
    return ConditionsReport(
        center=center, no_central_2torus=a, dual_rank_le_1=b, aut_compact=a,
        has_largest_compact={"HasLargest": True, "NoLargest": False,
                             "Unknown": None}[verdict.kind],
        inversion_only=verdict.inversion_only, verdict=verdict)


# -- explicit witness families over the 2-torus ------------------------------------------------


@dataclass(frozen=True)
class TorusFamilyWitness:
    witnesses: tuple
    degenerate: bool


def torus2_automorphism_family_witness(alpha, b1, b2,
                                       n_max: int) -> TorusFamilyWitness:
    """Conjugates of one involution by powers of a commuting matrix.

    Validates that b1 and b2 commute with alpha and that b1 is an
    involution, then walks b2^n b1 b2^-n for n = 0..n_max: involutions that
    commute with alpha, as b1, b2 and b2^-1 do, so not checked again.  The
    family is degenerate when conjugation repeats a matrix.
    """
    alpha, b1, b2 = mat(alpha), mat(b1), mat(b2)
    for name, m in (("b1", b1), ("b2", b2)):
        if mat_mul(m, alpha) != mat_mul(alpha, m):
            raise DoesNotCommute(name)
    if element_order(b1) != 2:
        raise WrongOrder(element_order(b1), 2)
    b2_inv = mat_inv_unimodular(b2)
    seen = []
    current = b1
    for _ in range(n_max + 1):
        if current not in seen:
            seen.append(current)
        current = mat_mul(b2, mat_mul(current, b2_inv))
    return TorusFamilyWitness(witnesses=tuple(seen),
                              degenerate=len(seen) < n_max + 1)
