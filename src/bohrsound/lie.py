"""Checks for compact connected Lie groups presented as (T^r x prod S_i)/D.

The group is described by its central torus rank, a list of simple factor
types, and a finite gluing subgroup D given as the graph of a map from a
subgroup of the product of simple centers into the torus.  Everything here
is exact: centers come from the classification table, torus parts are
integer numerators over N, the common denominator of the generators' torus
images, and verdicts reduce to integer matrix computations.  The center
automorphisms and the gluing map are homomorphisms, and D's generators
generate its support, so support preservation, the joint sign and the
intertwining with a torus automorphism are checked on the generators
alone; only kernel preservation is checked element by element.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import factorial, gcd, lcm, prod

from . import config
from .errors import (
    DimensionMismatch,
    DoesNotCommute,
    InvalidDelta,
    InvariantViolation,
    NotMember,
    NotUnimodular,
    SchemaError,
    SizeLimit,
    UnsupportedRank,
    WrongOrder,
)
from .groups import FiniteAbelian, TorusPoint, abelian_from_orders, reachable
from .zmat import (
    MatrixGroupResult,
    element_order,
    embeds_into_fixed,
    fixed_subgroup_structure,
    mat,
    mat_det,
    mat_inv_unimodular,
    mat_mul,
    smith_normal_form,
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


def _quotient_orders(moduli, vectors) -> list[int]:
    """Orders of cyclic groups whose direct sum is (Z/m_1 x ... x Z/m_k) /
    <vectors>.  A coordinate no vector touches passes its modulus through;
    the rest is the Smith normal form of their moduli's diagonal stacked on
    the vectors' entries there, so no vectors means no Smith normal form."""
    touched = [any(v[j] for v in vectors) for j in range(len(moduli))]
    support = [j for j, t in enumerate(touched) if t]
    free = [m for m, t in zip(moduli, touched) if not t]
    if not support:
        return free
    rows = [[moduli[i] if i == j else 0 for j in support] for i in support]
    _, s, _ = smith_normal_form(rows + [[v[j] for j in support] for v in vectors])
    return free + [s[i][i] for i in range(len(support))]


class LieDatum:
    """(T^torus_rank x prod factors) / D with D the graph of a gluing map.

    Generators give pairs (simple center part, rational torus image); the
    generated subgroup must project injectively to the simple part, so the
    torus coordinate is a function of the simple coordinate.  D is
    enumerated once, as integer vectors modulo (center orders, N, ..., N)
    with N the common denominator of the torus images, and `torus_part_of`
    maps each simple part to its torus numerators over N.  Its order, the
    product of the moduli over the order of their quotient by D, is checked
    against config.GROUP_MAX_ORDER first.
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
            sum(self.block_widths[:i]) for i in range(len(self.factors)))
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
            gens.append((simple, TorusPoint(torus)))
        self.generators = tuple(gens)
        n = self.denominator = lcm(*(t.den for _, t in gens))
        moduli = self.center_orders + (n,) * torus_rank
        vectors = [s + t.numerators_over(n) for s, t in gens]
        order = prod(moduli) // prod(_quotient_orders(moduli, vectors))
        if order > config.GROUP_MAX_ORDER:
            raise SizeLimit(f"gluing subgroup of order {order} exceeds "
                            f"{config.GROUP_MAX_ORDER}")

        def step(v):
            return [tuple((a + b) % m for a, b, m in zip(v, g, moduli))
                    for g in vectors]

        torus_part_of: dict = {}
        for v in reachable([(0,) * len(moduli)], step):
            s, t = v[:c], v[c:]
            if torus_part_of.setdefault(s, t) != t:
                raise InvalidDelta(
                    f"gluing subgroup is not a graph at simple part {s}")
        self.torus_part_of = torus_part_of
        self.simple_parts = frozenset(torus_part_of)
        self.kernel_parts = frozenset(
            s for s, t in torus_part_of.items() if not any(t))


def lie_center(datum: LieDatum) -> tuple[int, FiniteAbelian]:
    """Center of the quotient group: torus rank plus component group.

    The component group of the center is the product of simple centers
    modulo the simple support of the gluing subgroup, computed by Smith
    normal form on the stacked relation matrix.
    """
    orders = _quotient_orders(datum.center_orders,
                              [s for s, _ in datum.generators])
    return datum.torus_rank, abelian_from_orders(orders)


def torus_image_invariants(datum: LieDatum) -> FiniteAbelian:
    """Structure of the gluing subgroup's image inside the torus.

    Over N the image is the generators' row lattice modulo N Z^z, so each
    invariant factor d of that lattice gives a cyclic factor N / gcd(d, N).
    """
    z = datum.torus_rank
    if z == 0 or not datum.generators:
        return FiniteAbelian(())
    n = datum.denominator
    _, s, _ = smith_normal_form(
        [t.numerators_over(n) for _, t in datum.generators])
    orders = []
    for i in range(min(len(datum.generators), z)):
        d = n // gcd(int(s[i][i]), n)
        if d > 1:
            orders.append(d)
    return abelian_from_orders(orders)


# -- achievable automorphisms of the product of centers -------------------------------------


def achievable_center_autos(factors) -> list[tuple[tuple[int, ...], tuple[int, ...]]]:
    """Automorphisms of the product of centers known to come from the group.

    Each entry is (factor permutation, per-factor sign): permutations of
    identical factors and center inversion on factors that support it.
    Triality on D4 is deliberately left out, so the list can only
    under-approximate; callers treat it accordingly.
    """
    factors = tuple(factors)
    n = len(factors)
    # one element per equal-factor permutation and sign choice: count first
    size = prod(factorial(factors.count(f)) for f in set(factors)) \
        << sum(f.inversion_achievable for f in factors)
    if size > config.GROUP_MAX_ORDER:
        raise SizeLimit(f"{size} center automorphisms exceed {config.GROUP_MAX_ORDER}")
    ident = (tuple(range(n)), (1,) * n)
    gens = []
    for i, f in enumerate(factors):
        if f.inversion_achievable:
            signs = tuple(-1 if j == i else 1 for j in range(n))
            gens.append((ident[0], signs))
    for i, j in itertools.combinations(range(n), 2):
        if factors[i] == factors[j]:
            perm = list(range(n))
            perm[i], perm[j] = j, i
            gens.append((tuple(perm), (1,) * n))

    def step(a):
        # apply each generator b after a
        sigma_a, signs_a = a
        return [(tuple(sigma_b[sigma_a[i]] for i in range(n)),
                 tuple(signs_a[i] * signs_b[sigma_a[i]] for i in range(n)))
                for sigma_b, signs_b in gens]

    return sorted(reachable([ident], step))


def apply_center_auto(datum: LieDatum, auto, simple: tuple[int, ...]) -> tuple[int, ...]:
    sigma, signs = auto
    offsets = datum.block_offsets
    orders = datum.center_orders
    out = [0] * len(orders)
    for src, width, dst_block, sign in zip(offsets, datum.block_widths,
                                           sigma, signs):
        dst = offsets[dst_block]
        for k in range(width):
            out[dst + k] = (sign * simple[src + k]) % orders[dst + k]
    return tuple(out)


def _scaled(datum: LieDatum, simple: tuple[int, ...], factor: int) -> tuple[int, ...]:
    return tuple((factor * v) % m for v, m in zip(simple, datum.center_orders))


def _preserved_autos(datum: LieDatum):
    """(auto, generator images) for each achievable auto mapping the support
    onto itself; a generator check suffices for an automorphism."""
    support = datum.simple_parts
    for auto in achievable_center_autos(datum.factors):
        images = [apply_center_auto(datum, auto, s) for s, _ in datum.generators]
        if all(image in support for image in images):
            yield auto, images


def liftable(datum: LieDatum, alpha0) -> bool:
    """Whether the torus automorphism extends over the whole quotient.

    True iff some achievable automorphism of the simple centers preserves
    the gluing support and intertwines the gluing map with alpha0; both
    sides of the intertwining are homomorphisms, so the generators decide.
    """
    alpha0 = mat(alpha0)
    z = datum.torus_rank
    if len(alpha0) != z or any(len(r) != z for r in alpha0):
        raise DimensionMismatch(f"matrix must be {z}x{z}")
    if mat_det(alpha0) not in (1, -1):
        raise NotUnimodular(mat_det(alpha0))
    n = datum.denominator
    moved = [t.act(alpha0).numerators_over(n) for _, t in datum.generators]
    return any(
        all(datum.torus_part_of[image] == m for image, m in zip(images, moved))
        for _, images in _preserved_autos(datum))


def _rigidity(datum: LieDatum) -> bool | None:
    """Do all relevant achievable automorphisms act as a joint sign?

    Quantifies over automorphisms preserving both the gluing support and
    its kernel (the only ones that can intertwine with an injective torus
    automorphism).  The joint sign is tested on the generators, the kernel
    on its elements.  None means undecided: the achievable list is an
    under-approximation whenever a D4 factor is present.
    """
    kernel = datum.kernel_parts
    for auto, images in _preserved_autos(datum):
        if {apply_center_auto(datum, auto, s) for s in kernel} != kernel:
            continue
        if not any(all(image == _scaled(datum, s, eps)
                       for image, (s, _) in zip(images, datum.generators))
                   for eps in (1, -1)):
            return False
    if any(f.series == "D" and f.rank == 4 for f in datum.factors):
        return None
    return True


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
    is kept as `inversion_only` at every rank.
    """
    z = datum.torus_rank
    if z >= 3:
        raise UnsupportedRank(f"verdict implemented for torus rank <= 2, got {z}")
    delta0 = torus_image_invariants(datum)
    rigid = _rigidity(datum)
    profiles = []

    def verdict(kind, reason, label=None, rep=None):
        return LargestCompactVerdict(kind, label, rep, delta0, tuple(profiles),
                                     reason, rigid)

    if z <= 1:
        return verdict("HasLargest", "automorphism group is compact")
    if rigid is not True:
        return verdict("Unknown",
                       "achievable automorphism list is an under-approximation"
                       if rigid is None else
                       "a relevant center automorphism is not a joint sign")
    for label, rep in TORSION_CLASSES:
        fs = fixed_subgroup_structure(rep)
        profiles.append((label, str(fs), fs.finite_order))
        if embeds_into_fixed(delta0, fs):
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
    verdict: LargestCompactVerdict | None


def compactness_conditions(datum: LieDatum) -> ConditionsReport:
    """The equivalent compactness conditions plus the follow-up verdicts.

    The first is read off the presentation, the second recomputed through
    the center, which the report keeps as (torus dimension, finite part);
    they must agree.  Up to torus rank 2 the largest-compact
    verdict is decided once and kept in the report; compact automorphisms
    (rank <= 1) always leave a largest compact subgroup.
    """
    a = datum.torus_rank <= 1
    center = lie_center(datum)
    b = center[0] <= 1
    if a != b:
        raise InvariantViolation("presentation and center computations disagree")
    if datum.torus_rank <= 2:
        verdict = largest_compact_verdict(datum)
        largest = {"HasLargest": True, "NoLargest": False,
                   "Unknown": None}[verdict.kind]
        rigid = verdict.inversion_only
    else:
        verdict, largest, rigid = None, None, _rigidity(datum)
    return ConditionsReport(
        center=center, no_central_2torus=a, dual_rank_le_1=b, aut_compact=a,
        has_largest_compact=largest, inversion_only=rigid, verdict=verdict)


# -- explicit witness families over the 2-torus ------------------------------------------------


@dataclass(frozen=True)
class TorusFamilyWitness:
    witnesses: tuple
    degenerate: bool


def torus2_automorphism_family_witness(alpha, b1, b2,
                                       n_max: int) -> TorusFamilyWitness:
    """Conjugates of one involution by powers of a commuting matrix.

    Validates that b1 and b2 commute with alpha and that b1 is an
    involution, then walks b2^n b1 b2^-n for n = 0..n_max, checking each
    conjugate stays an involution commuting with alpha.  The family is
    degenerate when conjugation repeats a matrix.
    """
    alpha, b1, b2 = mat(alpha), mat(b1), mat(b2)
    for name, m in (("b1", b1), ("b2", b2)):
        if mat_mul(m, alpha) != mat_mul(alpha, m):
            raise DoesNotCommute(name)
    if element_order(b1) != 2:
        raise WrongOrder(2, element_order(b1))
    b2_inv = mat_inv_unimodular(b2)
    seen = []
    current = b1
    for _ in range(n_max + 1):
        if element_order(current) != 2:
            raise WrongOrder(2, element_order(current))
        if mat_mul(current, alpha) != mat_mul(alpha, current):
            raise DoesNotCommute("conjugate")
        if current not in seen:
            seen.append(current)
        current = mat_mul(b2, mat_mul(current, b2_inv))
    return TorusFamilyWitness(witnesses=tuple(seen),
                              degenerate=len(seen) < n_max + 1)


def centralizer_in_finite_group(m, ambient: MatrixGroupResult) -> frozenset:
    """Elements of a finite matrix group commuting with a given member."""
    m = mat(m)
    if not ambient.finite:
        raise NotMember("ambient group is not finite")
    if m not in ambient.elements:
        raise NotMember(f"{m} is outside the ambient group")
    out = frozenset(g for g in ambient.elements
                    if mat_mul(g, m) == mat_mul(m, g))
    for a in out:
        for b in out:
            if mat_mul(a, b) not in out:
                raise InvariantViolation("centralizer is not closed under products")
    return out
