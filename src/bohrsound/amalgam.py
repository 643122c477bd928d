"""Word machinery for free products amalgamated over a finite subgroup.

Normal forms use right-coset transversals: every element is uniquely
head * t_1 * ... * t_n with the head in the amalgamated group, every t_k a
non-identity coset representative, and adjacent letters from distinct
factors.  The word problem, homomorphism evaluation and the coproduct
pseudometric all ride on that uniqueness.  A split family needs no word
machine: split_decomposition_check decides it exactly by checking that
every action is a homomorphism.

The coproduct pseudometric is an interval dynamic program in numpy: a
segment of the word keeps one integer cost per element of each factor (the
identity entry, "reduces to the empty word", shared by all factors), and
two segments combine by a min-plus convolution over the factor, batched
over every interval and split point of one width.  Costs are exact
integers over the lengths' common denominator with a finite "unreachable"
sentinel; they live in int64 arrays while twice the sentinel fits, and in
arrays of Python ints otherwise.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import config
from .errors import (
    AmalgamNotTrivial,
    DimensionMismatch,
    DisagreeOnAmalgam,
    InvalidLetter,
    NonzeroAtIdentity,
    NotClassFunction,
    NotSubadditive,
    NotSymmetric,
    SizeLimit,
    SourceMismatch,
)
from .groups import (
    FiniteGroup,
    GroupHom,
    trivial_group,
    validate_action,
)
from .zmat import identity as mat_identity
from .zmat import mat, mat_mul


# -- the amalgam itself ---------------------------------------------------------------


class AmalgamSpec:
    """A free product of finite factors amalgamated over a common subgroup.

    Coset representatives are deterministic: the minimal element index in
    each right coset, so the identity always represents the trivial coset
    and normal forms are reproducible across runs.
    """

    def __init__(self, h: FiniteGroup, factors, injections):
        self.h = h
        self.factors = list(factors)
        self.injections = list(injections)
        if not self.factors:
            raise SourceMismatch("an amalgam needs at least one factor")
        if len(self.factors) != len(self.injections):
            raise SourceMismatch("one injection per factor required")
        self.rep_of = []
        self.head_of = []
        for fac, emb in zip(self.factors, self.injections):
            if emb.source is not h or emb.target is not fac:
                raise SourceMismatch("injection endpoints do not match the spec")
            emb.require_injective()
            # column x of mul[image] is the right coset H x; x = iota(h) rep
            # gives h by x rep^-1 through the injection's inverse
            rep = fac.mul[emb.mapping].min(axis=0)
            pre = np.empty(fac.order, np.int64)
            pre[emb.mapping] = np.arange(h.order)
            head = pre[fac.mul[np.arange(fac.order), fac.inv[rep]]]
            self.rep_of.append(rep.tolist())
            self.head_of.append(head.tolist())

    @property
    def n_factors(self) -> int:
        return len(self.factors)

    def check_word(self, word) -> tuple[tuple[int, int], ...]:
        out = []
        for letter in word:
            i, x = letter
            if not 0 <= i < len(self.factors):
                raise InvalidLetter(f"no factor {i}")
            if not 0 <= x < self.factors[i].order:
                raise InvalidLetter(f"element {x} outside factor {i}")
            out.append((int(i), int(x)))
        return tuple(out)


def free_product(factors) -> AmalgamSpec:
    """Coproduct of the factors: amalgamation over the trivial group."""
    one = trivial_group()
    return AmalgamSpec(one, list(factors),
                       [GroupHom(one, f, [0]) for f in factors])


@dataclass(frozen=True)
class NormalForm:
    """head * t_1 * ... * t_n with coset-representative tail letters."""

    head: int
    tail: tuple[tuple[int, int], ...]

    @property
    def is_identity(self) -> bool:
        return self.head == 0 and not self.tail

    def as_word(self, spec: AmalgamSpec) -> tuple[tuple[int, int], ...]:
        out = []
        if self.head != 0:
            out.append((0, int(spec.injections[0](self.head))))
        out.extend(self.tail)
        return tuple(out)


def normal_form(spec: AmalgamSpec, word) -> NormalForm:
    """Unique normal form, built by prepending letters right to left.

    Each prepend merges into the current leading tail letter when factors
    coincide, re-splits as iota(h) * t, and pushes h further left, so the
    invariant (non-identity representatives, alternating factors) holds at
    every step.
    """
    letters = spec.check_word(word)
    head = 0
    tail: deque = deque()
    for i, x in reversed(letters):
        fac = spec.factors[i]
        emb = spec.injections[i]
        g = fac.op(x, emb(head))
        if tail and tail[0][0] == i:
            g = fac.op(g, tail.popleft()[1])
        t = spec.rep_of[i][g]
        head = spec.head_of[i][g]
        if t != 0:
            tail.appendleft((i, t))
    return NormalForm(head, tuple(tail))


def word_equal(spec: AmalgamSpec, w1, w2) -> bool:
    return normal_form(spec, w1) == normal_form(spec, w2)


def word_inverse(spec: AmalgamSpec, word) -> tuple[tuple[int, int], ...]:
    letters = spec.check_word(word)
    return tuple((i, spec.factors[i].inverse(x)) for i, x in reversed(letters))


@dataclass(frozen=True)
class IntersectionReport:
    ok: bool
    order: int


def intersection_check(spec: AmalgamSpec) -> IntersectionReport:
    """Verify the two factors meet exactly in the amalgamated subgroup.

    Compares normal forms of every G_0 element against those of all G_1
    elements; a match must happen exactly on the injected copy of H.
    """
    if spec.n_factors != 2:
        raise SourceMismatch("intersection check requires exactly two factors")
    forms1 = {normal_form(spec, ((1, x),)) for x in range(spec.factors[1].order)}
    image0 = {int(spec.injections[0](hx)) for hx in range(spec.h.order)}
    ok = True
    count = 0
    for g in range(spec.factors[0].order):
        match = normal_form(spec, ((0, g),)) in forms1
        if match:
            count += 1
        if match != (g in image0):
            ok = False
    return IntersectionReport(ok=ok, order=count)


# -- homomorphism evaluation ----------------------------------------------------------


class FiniteTarget:
    """Per-factor maps into one finite group."""

    def __init__(self, group: FiniteGroup, maps):
        self.group = group
        self.maps = [list(m) for m in maps]

    def identity(self):
        return 0

    def multiply(self, a, b):
        return self.group.op(a, b)

    def image(self, i: int, x: int):
        return self.maps[i][x]


class MatrixTarget:
    """Per-factor maps into integer matrices, optionally reduced mod m."""

    def __init__(self, dim: int, maps, modulus: int | None = None):
        self.dim = dim
        self.modulus = modulus
        self.maps = [[self._reduce(mat(m)) for m in factor_maps]
                     for factor_maps in maps]
        if any(len(m) != dim or len(m[0]) != dim for f in self.maps for m in f):
            raise DimensionMismatch(f"target matrices must be {dim} x {dim}")

    def _reduce(self, m):
        if self.modulus is None:
            return m
        q = self.modulus
        return tuple(tuple(v % q for v in row) for row in m)

    def identity(self):
        return mat_identity(self.dim)

    def multiply(self, a, b):
        return self._reduce(mat_mul(a, b))

    def image(self, i: int, x: int):
        return self.maps[i][x]


class TorusSemidirectTarget:
    """Per-factor maps into (Q/Z)^k semidirect an integer matrix group.

    Elements are (point, matrix) pairs, a point being a tuple of k Fractions
    reduced into [0, 1), multiplying as (t1, m1)(t2, m2) = (t1 + m1 t2 mod 1,
    m1 m2); all arithmetic exact.
    """

    def __init__(self, rank: int, maps):
        self.rank = rank
        self.maps = [[(tuple(Fraction(a) % 1 for a in tp), mat(m))
                      for tp, m in factor_maps]
                     for factor_maps in maps]
        for factor_maps in self.maps:
            for tp, m in factor_maps:
                if len(tp) != rank or len(m) != rank or len(m[0]) != rank:
                    raise DimensionMismatch(f"torus targets must have rank {rank}")

    def identity(self):
        return (Fraction(0),) * self.rank, mat_identity(self.rank)

    def multiply(self, a, b):
        t1, m1 = a
        t2, m2 = b
        return (tuple((x + sum(m * y for m, y in zip(row, t2))) % 1
                      for x, row in zip(t1, m1)), mat_mul(m1, m2))

    def image(self, i: int, x: int):
        return self.maps[i][x]


def eval_hom(spec: AmalgamSpec, word, target):
    """Evaluate a word under per-factor maps into a common target.

    The maps must agree on the amalgamated subgroup; that is checked on
    every call, with the offending (factor, subgroup element) as witness.
    """
    letters = spec.check_word(word)
    for i, fac in enumerate(spec.factors):
        if len(target.maps) <= i or len(target.maps[i]) != fac.order:
            raise SourceMismatch(f"target map {i} does not cover factor {i}")
    for hx in range(spec.h.order):
        base = target.image(0, int(spec.injections[0](hx)))
        for i in range(1, spec.n_factors):
            if target.image(i, int(spec.injections[i](hx))) != base:
                raise DisagreeOnAmalgam((i, hx))
    acc = target.identity()
    for i, x in letters:
        acc = target.multiply(acc, target.image(i, x))
    return acc


# -- length functions ------------------------------------------------------------------

ROUND_GRID = 1 << 20


@dataclass(frozen=True)
class LengthFunction:
    """Nonnegative rational distance-to-identity on one finite group."""

    group: FiniteGroup
    values: tuple[Fraction, ...]


def length_function_validate(lf: LengthFunction) -> LengthFunction:
    """Exhaustively check the four axioms; failures carry a witness.

    Values are exact integers over their common denominator (int64 while a
    sum of two fits), checked one block of rows x at a time.  The witness is
    the first failing (x, y) in row-major order, a class-function failure
    ahead of a subadditivity failure.
    """
    g, vals, n = lf.group, lf.values, lf.group.order
    if len(vals) != n:
        raise DimensionMismatch("one value per group element required")
    if vals[0] != 0:
        raise NonzeroAtIdentity(f"identity has length {vals[0]}")
    denom = math.lcm(*(v.denominator for v in vals))
    scaled = [v.numerator * (denom // v.denominator) for v in vals]
    v = np.array(scaled, np.int64 if max(map(abs, scaled)) < 1 << 62 else object)
    asymmetric = np.flatnonzero(v[g.inv] != v)
    if asymmetric.size:
        raise NotSymmetric(int(asymmetric[0]))
    rows = max(1, (1 << 20) // n)
    for start in range(0, n, rows):
        xs = np.arange(start, min(start + rows, n))
        not_class = v[g.mul[g.mul[:, xs].T, g.inv]] != v[xs, None]  # y x y^-1
        not_sub = v[g.mul[xs]] > v[xs, None] + v
        hits = np.flatnonzero(not_class | not_sub)
        if hits.size:
            x, y = divmod(int(hits[0]), n)
            if not_class[x, y]:
                raise NotClassFunction((start + x, y))
            raise NotSubadditive((start + x, y))
    return lf


def discrete_length(group: FiniteGroup) -> LengthFunction:
    # valid by construction, so not validated: 0 at the identity, 1 elsewhere
    values = (Fraction(0),) + (Fraction(1),) * (group.order - 1)
    return LengthFunction(group, values)


def padded_regular_representation(group: FiniteGroup, dim: int) -> np.ndarray:
    """Left-multiplication permutation matrices, identity-padded to dim."""
    n = group.order
    if dim < n:
        raise DimensionMismatch(f"dimension {dim} below group order {n}")
    out = np.zeros((n, dim, dim), dtype=np.int64)
    out[:, np.arange(n, dim), np.arange(n, dim)] = 1
    out[np.arange(n)[:, None], group.mul, np.arange(n)] = 1
    return out


def _cycle_length_bound(c: int) -> Fraction:
    # |lambda - 1| maximized over c-th roots of unity, rounded up to a grid
    # so values stay rational and subadditivity survives the rounding.
    if c == 1:
        return Fraction(0)
    if c % 2 == 0:
        return Fraction(2)
    exact = 2.0 * math.sin(math.pi * (c // 2) / c)
    return Fraction(math.ceil(exact * ROUND_GRID), ROUND_GRID)


def matrix_pullback_length(group: FiniteGroup, rep: np.ndarray) -> LengthFunction:
    """Length pulled back from a permutation representation.

    l(g) is the operator-norm distance of the permutation matrix to the
    identity: the largest |lambda - 1| over eigenvalues, determined by the
    cycle lengths, rounded upward onto a fixed rational grid.
    """
    rep = np.asarray(rep)
    n = group.order
    if rep.shape[0] != n or rep.shape[1] != rep.shape[2]:
        raise DimensionMismatch("need one square matrix per group element")
    points = np.arange(rep.shape[1])
    values = []
    for g, m in enumerate(rep):
        if not (np.all((m == 0) | (m == 1))
                and np.all(m.sum(axis=0) == 1) and np.all(m.sum(axis=1) == 1)):
            raise DimensionMismatch(f"matrix for element {g} is not a permutation")
        perm = cur = np.argmax(m, axis=0)
        cycle = np.ones_like(points)  # the cycle length through each point
        while (moving := cur != points).any():
            cur = np.where(moving, perm[cur], cur)
            cycle += moving
        values.append(max(map(_cycle_length_bound, set(cycle.tolist())),
                          default=Fraction(0)))
    return length_function_validate(LengthFunction(group, tuple(values)))


def regular_pullback_length(group: FiniteGroup) -> LengthFunction:
    """`matrix_pullback_length` of the regular representation, built from
    element orders alone: left multiplication by g is |G| / o(g) cycles of
    length o(g).  Valid by construction, so not validated: a value depends
    on the element order alone, 0 at the identity and in [sqrt(3), 2]
    elsewhere, so any two nonzero values sum past every value."""
    bound = {o: _cycle_length_bound(o) for o in set(group.element_orders)}
    return LengthFunction(group, tuple(bound[o] for o in group.element_orders))


# -- the coproduct pseudometric --------------------------------------------------------


def coproduct_pseudometric(spec: AmalgamSpec, lengths, word) -> Fraction:
    """Cheapest letterwise replacement that trivializes the word.

    Minimizes sum_k l_{i_k}(g_k e_k^{-1}) over tuples (e_k), e_k in the
    same factor as letter k, whose product is trivial in the coproduct.
    Interval dynamic program: a segment reduces either to the empty word or
    to one surviving letter, so its state V[m][a,b] is one cost per element
    z of each factor m, entry z = 0 (the empty word) equal in every factor.
    Segments combine by a min-plus convolution over the factor,
        V[m][a,b][z] = min over c in (a,b), x in G_m of
                       V[m][a,c][x] + V[m][c,b][x^-1 z],
    after which the least entry 0 over all m is written back into each.
    One width at a time, all its intervals and split points form one numpy
    batch; x runs in chunks that keep every temporary within the size of
    the state.  A state past GROUP_MAX_ORDER^2 cells, sum |G_m| (n + 1)^2,
    is refused with SizeLimit before anything is allocated.  Costs are
    integers over the common denominator, and "unreachable" is the finite
    sentinel top = n * max + 1; each width starts from top, so no entry
    exceeds it and no sum exceeds 2 * top.  The arrays are int64 while
    2 * top < 2^63 and hold Python ints otherwise.  Completeness of the two
    state kinds is checked against exhaustive enumeration in the test
    suite, not assumed.
    """
    if spec.h.order != 1:
        raise AmalgamNotTrivial("the pseudometric construction needs a coproduct")
    if len(lengths) != spec.n_factors:
        raise DimensionMismatch("one length function per factor required")
    for lf, fac in zip(lengths, spec.factors):
        if lf.group is not fac:
            raise SourceMismatch("length function group mismatch")
    letters = spec.check_word(word)
    n = len(letters)
    if n == 0:
        return Fraction(0)
    sizes = [fac.order for fac in spec.factors]
    total = sum(sizes)
    limit = config.GROUP_MAX_ORDER
    if total * (n + 1) ** 2 > limit * limit:
        raise SizeLimit(f"pseudometric state of {total} x {n + 1}^2 cells "
                        f"exceeds {limit}^2")

    denom = math.lcm(*(v.denominator for lf in lengths for v in lf.values))
    scaled = [v.numerator * (denom // v.denominator)
              for lf in lengths for v in lf.values]
    top = n * max(scaled) + 1
    dtype = np.int64 if 2 * top < 1 << 63 else object
    costs = np.array(scaled + [top], dtype=dtype)
    # factor m's elements sit at offsets[m] + x of the stacked state; letter
    # (i, g) costs the position of g z^-1 (factor i) or of g (z = 0), and the
    # sentinel `total` (cost top) at every other z
    offsets = [sum(sizes[:m]) for m in range(len(sizes))]
    factor, element = np.array(letters).T
    letter_cost = np.full((n, total), total, dtype=np.intp)
    letter_cost[:, offsets] = (np.array(offsets)[factor] + element)[:, None]
    for m, (off, fac) in enumerate(zip(offsets, spec.factors)):
        mine = factor == m
        letter_cost[mine, off:off + fac.order] = \
            off + fac.mul[element[mine]][:, fac.inv]
    v = np.empty((total, n + 1, n + 1), dtype=dtype)
    starts = np.arange(n)
    v[:, starts, starts + 1] = costs[letter_cost].T
    for width in range(2, n + 1):
        a = starts[:n - width + 1, None]
        c = a + starts[1:width]
        left, right = v[:, a, c], v[:, c, a + width]
        best = np.full(right.shape[:2], top, dtype=dtype)
        for off, fac in zip(offsets, spec.factors):
            order = fac.order
            part = best[off:off + order]
            step = max(1, v.size // (order * c.size))
            for x in range(0, order, step):
                x_end = min(x + step, order)
                pairs = (left[off + x:off + x_end, None]
                         + right[off + fac.mul[fac.inv[x:x_end]]])
                np.minimum(part, pairs.min(axis=(0, 3)), out=part)
        best[offsets] = best[offsets].min(axis=0)
        v[:, a[:, 0], a[:, 0] + width] = best
    return Fraction(int(v[0, 0, n]), denom)


def pseudometric_distance(spec: AmalgamSpec, lengths, w1, w2) -> Fraction:
    combined = tuple(spec.check_word(w1)) + word_inverse(spec, w2)
    return coproduct_pseudometric(spec, lengths, combined)


# -- comparison against the Bohr side ---------------------------------------------------


@dataclass(frozen=True)
class BohrLipschitzRecord:
    delta: Fraction
    vacuous: bool
    opnorm: float | None
    bound: float | None
    holds: bool | None


def bohr_lipschitz_check(spec: AmalgamSpec, reps, w1, w2,
                         tol: float = 1e-9) -> BohrLipschitzRecord:
    """Check the operator-norm bound delta/(1-delta) between two words.

    delta is the pseudometric distance under lengths pulled back from the
    given permutation representations; the same representations evaluate
    both words in a common dimension.  For delta >= 1 the bound carries no
    content and the record says Vacuous.  Otherwise opnorm is the largest
    singular value of the difference, and holds allows it tol over the bound.
    """
    reps = [np.asarray(r) for r in reps]
    dims = {r.shape[1] for r in reps}
    if len(dims) != 1:
        raise DimensionMismatch(f"representations span dimensions {sorted(dims)}")
    lengths = [matrix_pullback_length(fac, rep)
               for fac, rep in zip(spec.factors, reps)]
    delta = pseudometric_distance(spec, lengths, w1, w2)
    if delta >= 1:
        return BohrLipschitzRecord(delta=delta, vacuous=True,
                                   opnorm=None, bound=None, holds=None)

    def evaluate(word):
        dim = next(iter(dims))
        acc = np.eye(dim)
        for i, x in spec.check_word(word):
            acc = acc @ reps[i][x]
        return acc

    diff = evaluate(w1) - evaluate(w2)
    opnorm = float(np.linalg.norm(diff, 2))
    bound = float(delta / (1 - delta))
    return BohrLipschitzRecord(delta=delta, vacuous=False, opnorm=opnorm,
                               bound=bound, holds=opnorm <= bound + tol)


# -- split families ---------------------------------------------------------------------


def split_decomposition_check(h: FiniteGroup, members) -> None:
    """Decide a split family exactly; raises NotAnAction if it is not one.

    Each member (N_i, action) stands for N_i x| H.  Once every action is a
    homomorphism H -> Aut(N_i), the pushout of the family over H is
    (*N_i) x| H, a free product of finite groups extended by a finite group.
    That group is residually finite (Gruenberg, Proc. LMS 7, 1957), so it
    embeds in its Bohr compactification: the family is sound.
    """
    for normal, action in members:
        validate_action(normal, h, action)


# -- the canonical worked example --------------------------------------------------------


def sl2z_amalgam() -> AmalgamSpec:
    """Z/4 amalgamated with Z/6 over the shared Z/2.

    The generator of Z/4 squares to the shared involution; the generator of
    Z/6 cubes to it.  Words over this spec multiply out to 2x2 integer
    matrices under sl2z_matrix_target.
    """
    from .groups import cyclic

    z2 = cyclic(2)
    z4 = cyclic(4)
    z6 = cyclic(6)
    return AmalgamSpec(z2, [z4, z6],
                       [GroupHom(z2, z4, [0, 2]), GroupHom(z2, z6, [0, 3])])


def sl2z_matrix_target(modulus: int | None = None) -> MatrixTarget:
    alpha = ((0, -1), (1, 0))
    beta = ((0, -1), (1, 1))
    powers_a = [mat_identity(2)]
    powers_b = [mat_identity(2)]
    for _ in range(3):
        powers_a.append(mat_mul(powers_a[-1], alpha))
    for _ in range(5):
        powers_b.append(mat_mul(powers_b[-1], beta))
    return MatrixTarget(2, [powers_a, powers_b], modulus=modulus)
