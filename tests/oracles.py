"""Independent brute-force oracles for cross-checking the fast implementations.

Everything here favors a different computational route over speed: numeric
regular-representation decomposition instead of mod-p tables, backtracking
subgroup search instead of partition dominance, exhaustive tuple enumeration
instead of dynamic programming, dict-keyed loops instead of vectorised
min-plus convolutions, minor gcds instead of elimination,
one-product-at-a-time tuple searches instead of batched numpy closures,
hand-written breadth-first loops instead of the shared `reachable` closure,
per-pair and per-element group loops instead of whole-table numpy passes,
every triple instead of Light's associativity test, every element of the
gluing subgroup over Fractions instead of its generators over integers,
two word machines related by von Dyck's theorem instead of one action check,
Smith normal forms instead of torsion counts on the gluing subgroup's rows,
one family-wide prime instead of each group's own prime and matched labels,
one power, coset, coefficient, root or pair at a time instead of the table
engine's whole-array passes, Dixon's first round on the whole class space
instead of the characters of G/Z(G) read off its dual group.
"""

from __future__ import annotations

import functools
import itertools
import math
import random
from fractions import Fraction
from math import gcd

import numpy as np

from bohrsound import characters
from bohrsound.characters import character_table, restriction_matrix, splitting_prime
from bohrsound.errors import (
    AmalgamNotTrivial,
    DimensionMismatch,
    NonzeroAtIdentity,
    NotClassFunction,
    NotNormal,
    NotSubadditive,
    NotSymmetric,
    SchemaError,
    SourceMismatch,
)
from bohrsound.amalgam import AmalgamSpec, free_product, normal_form, word_equal
from bohrsound.groups import (
    FiniteAbelian,
    GroupHom,
    Subgroup,
    abelian_from_orders,
    factorize,
    greedy_generators,
    reachable,
    semidirect,
    validate_action,
)
from bohrsound.lie import LieDatum, SimpleType
from bohrsound.zmat import (
    MatrixGroupResult,
    OrbitResult,
    identity,
    mat,
    mat_inv_unimodular,
    mat_mul,
    minkowski_bound,
    smith_normal_form,
)


# -- group primitives by per-pair and per-element loops ---------------------------


@functools.lru_cache(maxsize=None)
def symmetric_table_loop(n: int) -> tuple[np.ndarray, list[str]]:
    """Table and labels of S_n, one tuple composition p . q per pair."""
    perms = list(itertools.permutations(range(n)))
    rank = {p: i for i, p in enumerate(perms)}
    table = np.empty((len(perms), len(perms)), dtype=np.int32)
    for i, p in enumerate(perms):
        for j, q in enumerate(perms):
            table[i, j] = rank[tuple(p[q[k]] for k in range(n))]
    return table, ["".join(str(v) for v in p) for p in perms]


def alternating_table_loop(n: int) -> tuple[np.ndarray, list[str]]:
    """Table and labels of A_n: the even rows of the S_n loop, re-indexed."""
    table, labels = symmetric_table_loop(n)
    perms = list(itertools.permutations(range(n)))
    evens = [i for i, p in enumerate(perms)
             if sum(p[i] > p[j] for i in range(n) for j in range(i + 1, n)) % 2 == 0]
    pos = {e: k for k, e in enumerate(evens)}
    sub = [[pos[int(table[a, b])] for b in evens] for a in evens]
    return np.array(sub, dtype=np.int32), [labels[e] for e in evens]


def element_orders_stepping(group) -> tuple[int, ...]:
    """Every order at once, stepping all unfinished powers x^k -> x^(k+1):
    as many steps as the largest order."""
    orders = np.ones(group.order, dtype=np.int64)
    todo = power = np.arange(1, group.order)
    while todo.size:
        power = group.mul[power, todo]
        orders[todo] += 1
        todo, power = todo[power != 0], power[power != 0]
    return tuple(orders.tolist())


def group_element_order_loop(group, a: int) -> int:
    """Order of a, multiplying by a until the identity."""
    o, x = 1, a
    while x != 0:
        x = group.op(x, a)
        o += 1
    return o


def conjugacy_classes_loop(group) -> tuple[tuple[int, ...], ...]:
    """Classes by minimal member, one conjugation orbit per unseen element."""
    n = group.order
    seen = np.zeros(n, dtype=bool)
    rng = np.arange(n)
    classes = []
    for x in range(n):
        if seen[x]:
            continue
        orbit = np.unique(group.mul[group.mul[rng, x], group.inv[rng]])
        seen[orbit] = True
        classes.append(tuple(int(v) for v in orbit))
    return tuple(classes)


def associativity_failures(mul) -> np.ndarray:
    """Every triple (a, b, c) with (a b) c != a (b c), row-major."""
    mul = np.asarray(mul)
    bad = [np.argwhere(mul[mul[a], :] != mul[a][mul]) for a in range(len(mul))]
    return np.array([(a, int(b), int(c)) for a, rows in enumerate(bad)
                     for b, c in rows], dtype=np.int64).reshape(-1, 3)


def length_function_validate_loop(lf):
    """The four length-function axioms pair by pair over Fractions, raising
    at the first failing element, then at the first failing (x, y)."""
    g, vals = lf.group, lf.values
    if len(vals) != g.order:
        raise DimensionMismatch("one value per group element required")
    if vals[0] != 0:
        raise NonzeroAtIdentity(f"identity has length {vals[0]}")
    for x in range(g.order):
        if vals[g.inverse(x)] != vals[x]:
            raise NotSymmetric(x)
    for x in range(g.order):
        for y in range(g.order):
            if vals[g.mul[g.mul[y, x], g.inv[y]]] != vals[x]:
                raise NotClassFunction((x, y))
            if vals[g.op(x, y)] > vals[x] + vals[y]:
                raise NotSubadditive((x, y))
    return lf


# -- character tables via the regular representation -----------------------------


def regular_rep_matrices(group) -> np.ndarray:
    """Left regular permutation matrices, rho[g][i, j] = 1 iff g*j = i."""
    n = group.order
    rho = np.zeros((n, n, n))
    for g in range(n):
        rho[g, group.mul[g, np.arange(n)], np.arange(n)] = 1.0
    return rho


def regular_character_data(group, seed: int = 7):
    """Degrees and character values recovered numerically from the regular rep.

    Symmetrizes a random Hermitian matrix over the group; a generic commutant
    element has, per irreducible of degree d, exactly d eigenvalues of
    multiplicity d, and each eigenprojection traces out the character.
    Returns (sorted degree list, list of complex value vectors per class).
    """
    n = group.order
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    x = x + x.conj().T
    rho = regular_rep_matrices(group)
    avg = np.einsum("gij,jk,glk->il", rho, x, rho) / n
    evals, evecs = np.linalg.eigh(avg)
    clusters = []
    start = 0
    for i in range(1, n + 1):
        if i == n or evals[i] - evals[i - 1] > 1e-6:
            clusters.append((start, i))
            start = i
    reps = list(group.class_reps)
    chars = []
    for a, b in clusters:
        basis = evecs[:, a:b]
        proj = basis @ basis.conj().T
        vec = np.array([np.trace(proj @ rho[r]) for r in reps])
        chars.append(vec)
    # deduplicate clusters belonging to the same isotypic component
    distinct: list[np.ndarray] = []
    for vec in chars:
        if not any(np.allclose(vec, w, atol=1e-6) for w in distinct):
            distinct.append(vec)
    degrees = sorted(int(round(vec[0].real)) for vec in distinct)
    return degrees, distinct


def check_orthonormal(group, chars, tol: float = 1e-6) -> bool:
    sizes = np.array([len(c) for c in group.conjugacy_classes])
    n = group.order
    for i, u in enumerate(chars):
        for j, v in enumerate(chars):
            ip = np.sum(sizes * u * v.conj()) / n
            if abs(ip - (1.0 if i == j else 0.0)) > tol:
                return False
    return True


# -- abelian groups by primary decomposition -----------------------------------------


def invariant_factors_by_primes(orders) -> tuple[int, ...]:
    """Invariant factors of a direct sum of cyclic groups, through the
    primary parts: the i-th largest power of every prime multiplies into the
    i-th largest factor."""
    primary: dict[int, list[int]] = {}
    for d in orders:
        for q, e in factorize(d).items() if d > 1 else ():
            primary.setdefault(q, []).append(e)
    depth = max(map(len, primary.values()), default=0)
    factors = [math.prod(q ** sorted(es, reverse=True)[i]
                         for q, es in primary.items() if i < len(es))
               for i in range(depth)]
    return tuple(sorted(factors))


def abelian_from_orders_pairwise(orders) -> tuple[int, ...]:
    """Invariant factors by Z/a + Z/b = Z/gcd + Z/lcm: pairing each order with
    every later one leaves it dividing them all, in O(n^2) pairs."""
    ds = [int(d) for d in orders if int(d) > 1]
    for i in range(len(ds)):
        for j in range(i + 1, len(ds)):
            ds[i], ds[j] = gcd(ds[i], ds[j]), math.lcm(ds[i], ds[j])
    return tuple(d for d in ds if d > 1)


# -- abelian embedding by backtracking generator-image search ----------------------


def _tuple_add(a, b, moduli):
    return tuple((x + y) % m for x, y, m in zip(a, b, moduli))


def _tuple_order(a, moduli) -> int:
    o = 1
    for x, m in zip(a, moduli):
        if x:
            d = m // gcd(x, m)
            o = o * d // gcd(o, d)
    return o


def _span_size(gens, moduli) -> int:
    zero = (0,) * len(moduli)
    seen = {zero}
    frontier = [zero]
    while frontier:
        v = frontier.pop()
        for g in gens:
            w = _tuple_add(v, g, moduli)
            if w not in seen:
                seen.add(w)
                frontier.append(w)
    return len(seen)


def abelian_embeds_oracle(d_factors, circle_rank: int, a_factors) -> bool:
    """Does the abelian group with invariant factors d_factors embed into
    T^circle_rank x (product of a_factors)?  Backtracking over generator images.

    The circle factors are truncated at the exponent of the source, which is
    harmless: any finite subgroup of T has order dividing any large enough n.
    """
    d_factors = [int(x) for x in d_factors]
    if not d_factors:
        return True
    exp = d_factors[-1]
    moduli = [exp] * circle_rank + [int(x) for x in a_factors]
    if not moduli:
        return False
    target_order = 1
    for f in d_factors:
        target_order *= f
    space = list(itertools.product(*[range(m) for m in moduli]))
    by_order: dict[int, list] = {}
    for v in space:
        by_order.setdefault(_tuple_order(v, moduli), []).append(v)

    def place(i, chosen):
        if i == len(d_factors):
            return _span_size(chosen, moduli) == target_order
        for v in by_order.get(d_factors[i], ()):
            if place(i + 1, chosen + [v]):
                return True
        return False

    return place(0, [])


# -- free products: reduction and pseudometric by tuple enumeration -----------------


def free_reduce(factors, letters):
    """Reduced form of a word over a free product, as ((factor, element), ...)."""
    stack: list[tuple[int, int]] = []
    for i, g in letters:
        g = int(g)
        if g == 0:
            continue
        if stack and stack[-1][0] == i:
            merged = factors[i].op(stack[-1][1], g)
            stack.pop()
            if merged != 0:
                stack.append((i, merged))
        else:
            stack.append((i, g))
    return tuple(stack)


def pseudometric_oracle(factors, lengths, letters) -> Fraction:
    """Exhaustive minimum over all tuples multiplying to 1 in the free product.

    lengths[i] maps an element of factors[i] to a Fraction.  Letters that are
    identity elements are kept: their replacement still ranges over the factor.
    """
    letters = [(int(i), int(g)) for i, g in letters]
    if not letters:
        return Fraction(0)
    best = None
    ranges = [range(factors[i].order) for i, _ in letters]
    for choice in itertools.product(*ranges):
        word = [(letters[k][0], choice[k]) for k in range(len(letters))]
        if free_reduce(factors, word):
            continue
        cost = Fraction(0)
        for k, (i, g) in enumerate(letters):
            cost += lengths[i][factors[i].op(g, factors[i].inv[choice[k]])]
        if best is None or cost < best:
            best = cost
    if best is None:
        raise AssertionError("no tuple multiplies to the identity")
    return best


def coproduct_pseudometric_dict(spec: AmalgamSpec, lengths, word) -> Fraction:
    """Cheapest letterwise replacement that trivializes the word, by dicts.

    The interval DP over Python dicts, one `FiniteGroup.op` per merge of
    two surviving letters; the vectorised DP in `amalgam` must agree.
    Minimizes sum_k l_{i_k}(g_k e_k^{-1}) over tuples (e_k), e_k in the
    same factor as letter k, whose product is trivial in the coproduct.
    Interval dynamic program: a segment either reduces to the empty word
    or to one surviving letter; segments combine CYK-style.  Completeness
    of these two state kinds is checked against exhaustive enumeration in
    the test suite, not assumed.
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

    denom = 1
    for lf in lengths:
        for v in lf.values:
            denom = denom * v.denominator // math.gcd(denom, v.denominator)
    scaled = [[int(v * denom) for v in lf.values] for lf in lengths]

    INF = math.inf
    empty: list[list] = [[INF] * (n + 1) for _ in range(n + 1)]
    single: list[list] = [[None] * (n + 1) for _ in range(n + 1)]
    for a in range(n):
        i, g = letters[a]
        fac = spec.factors[i]
        lv = scaled[i]
        empty[a][a + 1] = lv[g]
        single[a][a + 1] = {
            (i, x): lv[fac.op(g, fac.inverse(x))]
            for x in range(1, fac.order)
        }
    for width in range(2, n + 1):
        for a in range(n - width + 1):
            b = a + width
            best_e = INF
            best_s: dict = {}
            for c in range(a + 1, b):
                le, re = empty[a][c], empty[c][b]
                ls, rs = single[a][c], single[c][b]
                if le + re < best_e:
                    best_e = le + re
                if re < INF:
                    for key, cost in ls.items():
                        t = cost + re
                        if t < best_s.get(key, INF):
                            best_s[key] = t
                if le < INF:
                    for key, cost in rs.items():
                        t = le + cost
                        if t < best_s.get(key, INF):
                            best_s[key] = t
                for (m, y), cy in ls.items():
                    fac = spec.factors[m]
                    for (m2, z), cz in rs.items():
                        if m2 != m:
                            continue
                        prod = fac.op(y, z)
                        t = cy + cz
                        if prod == 0:
                            if t < best_e:
                                best_e = t
                        elif t < best_s.get((m, prod), INF):
                            best_s[(m, prod)] = t
            empty[a][b] = best_e
            single[a][b] = best_s
    return Fraction(int(empty[0][n]), denom)


# -- split families by von Dyck's theorem ---------------------------------------------


def automorphisms_loop(group) -> list[tuple[int, ...]]:
    """Every automorphism of `group`: each permutation fixing 0, kept when it
    preserves every product."""
    n = group.order
    mul = group.mul.tolist()
    out = []
    for rest in itertools.permutations(range(1, n)):
        perm = (0,) + rest
        if all(perm[mul[x][y]] == mul[perm[x]][perm[y]]
               for x in range(n) for y in range(n)):
            out.append(perm)
    return out


def is_action_loop(acting, act, auts) -> bool:
    """The definition of a homomorphism acting -> Aut(N), on every element
    and every pair: each act[a] in `auts` (the automorphisms of N, from
    automorphisms_loop) and act[a] o act[b] = act[ab]."""
    act = [tuple(row) for row in act]
    mul = acting.mul.tolist()
    return all(row in auts for row in act) and all(
        tuple(act[a][y] for y in act[b]) == act[mul[a][b]]
        for a in range(acting.order) for b in range(acting.order))


def actions_loop(normal, acting) -> list[tuple[tuple[int, ...], ...]]:
    """Every homomorphism acting -> Aut(normal), by trying every tuple of
    automorphisms whose identity row is the identity."""
    auts = automorphisms_loop(normal)
    aut_set = set(auts)
    ident = tuple(range(normal.order))
    tuples = ((ident,) + rest
              for rest in itertools.product(auts, repeat=acting.order - 1))
    return [act for act in tuples if is_action_loop(acting, act, aut_set)]


def split_machines_agree(h, members) -> bool:
    """Whether the two word machines of a split family present one group.

    Machine A amalgamates the products N_i x| H over H.  Machine B is the
    coproduct *N_i extended by H acting letterwise; an element is a pair
    (coproduct normal form, element of H).  phi: A -> B sends the letter
    (n, a) of factor i to (n in N_i, a); psi: B -> A sends n in N_i into
    factor i and a in H into factor 0.  By von Dyck's theorem phi is a
    homomorphism once the Cayley relations s g = (sg) of every N_i x| H, s
    over a greedy generating set, hold in B, and psi is one once those of
    each N_i and of H and the action relations a n a^-1 = act_a(n) hold in
    A; both send the amalgamated H to H by construction.  Composites that
    fix every generator are then identities, so phi and psi are inverse
    isomorphisms: the check is exact, not sampled.
    """
    members = list(members)
    if not members:
        return True
    acts = [validate_action(fac, h, action) for fac, action in members]
    built = [semidirect(fac, h, act)
             for (fac, _), act in zip(members, acts)]
    spec_a = AmalgamSpec(h, [grp for grp, _, _ in built],
                         [emb_h for _, _, emb_h in built])
    spec_b = free_product([fac for fac, _ in members])
    emb_n = [emb for _, emb, _ in built]
    emb_h0 = built[0][2]

    def b_mul(e1, e2):
        (w1, h1), (w2, h2) = e1, e2
        moved = tuple((i, int(acts[i][h1][x])) for i, x in w2)
        return normal_form(spec_b, w1 + moved).tail, h.op(h1, h2)

    def phi(word):
        out = ((), 0)
        for i, g in word:
            x, a = divmod(g, h.order)
            out = b_mul(out, (normal_form(spec_b, ((i, x),)).tail, a))
        return out

    def psi(element):
        letters, a = element
        return tuple((i, int(emb_n[i](x))) for i, x in letters) + (
            (0, int(emb_h0(a))),)

    def a_equal(w1, w2):
        return word_equal(spec_a, w1, w2)

    for i, ((fac, _), (grp, _, _)) in enumerate(zip(members, built)):
        if phi(((i, 0),)) != ((), 0):
            return False
        for s in greedy_generators(grp.mul):
            if any(phi(((i, s), (i, g))) != phi(((i, grp.op(s, g)),))
                   for g in range(grp.order)):
                return False
            if not a_equal(psi(phi(((i, s),))), ((i, s),)):
                return False
        for s in greedy_generators(fac.mul):
            if any(not a_equal(((i, emb_n[i](s)), (i, emb_n[i](x))),
                               ((i, emb_n[i](fac.op(s, x))),))
                   for x in range(fac.order)):
                return False
            if phi(psi((((i, s),), 0))) != (((i, s),), 0):
                return False
        for a in range(h.order):
            left, right = (0, emb_h0(a)), (0, emb_h0(h.inverse(a)))
            if any(not a_equal((left, (i, emb_n[i](x)), right),
                               ((i, emb_n[i](acts[i][a][x])),))
                   for x in range(fac.order)):
                return False
    for s in greedy_generators(h.mul):
        if any(not a_equal(((0, emb_h0(s)), (0, emb_h0(a))),
                           ((0, emb_h0(h.op(s, a))),))
               for a in range(h.order)):
            return False
        if phi(psi(((), s))) != ((), s):
            return False
    return True


# -- exact linear algebra oracles ----------------------------------------------------


def det_cofactor(a) -> int:
    a = [list(map(int, row)) for row in a]
    n = len(a)
    if n == 1:
        return a[0][0]
    total = 0
    for j in range(n):
        minor = [row[:j] + row[j + 1:] for row in a[1:]]
        total += (-1) ** j * a[0][j] * det_cofactor(minor)
    return total


def snf_invariants_oracle(a) -> tuple[int, ...]:
    """Invariant factors via gcds of k x k minors (determinantal divisors)."""
    rows = len(a)
    cols = len(a[0])
    out = []
    prev = 1
    for k in range(1, min(rows, cols) + 1):
        g = 0
        for rsel, csel in itertools.product(
                itertools.combinations(range(rows), k),
                itertools.combinations(range(cols), k)):
            minor = [[a[r][c] for c in csel] for r in rsel]
            g = gcd(g, det_cofactor(minor))
            if g == 1:  # no later minor can lower the gcd
                break
        if g == 0:
            break
        out.append(g // prev)
        prev = g
    return tuple(out)


def quotient_orders_snf(moduli, vectors) -> list[int]:
    """Orders of cyclic groups whose direct sum is (Z/m_1 x ... x Z/m_k) /
    <vectors>.  A coordinate no vector touches passes its modulus through;
    the rest is the Smith normal form of their moduli's diagonal stacked on
    the vectors' entries there."""
    touched = [any(v[j] for v in vectors) for j in range(len(moduli))]
    support = [j for j, t in enumerate(touched) if t]
    free = [m for m, t in zip(moduli, touched) if not t]
    if not support:
        return free
    rows = [[moduli[i] if i == j else 0 for j in support] for i in support]
    _, s, _ = smith_normal_form(rows + [[v[j] for j in support] for v in vectors])
    return free + [s[i][i] for i in range(len(support))]


def torus_image_invariants_snf(datum) -> FiniteAbelian:
    """The glued torus subgroup from the generators' row lattice over N:
    each invariant factor d of it gives a cyclic factor N / gcd(d, N)."""
    z = datum.torus_rank
    if z == 0 or not datum.generators:
        return FiniteAbelian(())
    n = datum.denominator
    _, s, _ = smith_normal_form(
        [[int(a * n) for a in t] for _, t in datum.generators])
    return abelian_from_orders(n // gcd(s[i][i], n)
                               for i in range(min(len(datum.generators), z)))


def charpoly_eval_oracle(a, p: int, x: int) -> int:
    """det(xI - A) mod p at one point: by exact cofactor expansion up to 6
    rows, by Gaussian elimination over GF(p) on Python integers above."""
    n = len(a)
    m = [[(x if i == j else 0) - int(a[i][j]) for j in range(n)] for i in range(n)]
    if n <= 6:
        return det_cofactor(m) % p
    det = 1
    for c in range(n):
        r = next((r for r in range(c, n) if m[r][c] % p), None)
        if r is None:
            return 0
        if r != c:
            m[c], m[r] = m[r], m[c]
            det = -det
        det = det * m[c][c] % p
        inv = pow(m[c][c], p - 2, p)
        for r in range(c + 1, n):
            f = m[r][c] * inv % p
            if f:
                m[r] = [(u - f * v) % p for u, v in zip(m[r], m[c])]
    return det % p


def roots_by_horner(f, p: int) -> list[int]:
    """Roots of f (low degree first) in GF(p): Horner's rule at every point,
    three numpy steps per coefficient."""
    f = [int(c) % p for c in f]
    x = np.arange(p, dtype=np.int64)
    acc = np.full(p, f[-1], dtype=np.int64)
    for c in reversed(f[:-1]):
        acc = (acc * x + c) % p
    return np.flatnonzero(acc == 0).tolist()


def quotients_by_division(roots, p: int) -> np.ndarray:
    """numer[t, j], the coefficient of x^t in s / (x - lam_j) for s = prod
    (x - lam_j): s multiplied out one root at a time, then synthetic division
    one coefficient at a time."""
    m = len(roots)
    s = np.zeros(m + 1, dtype=np.int64)  # low degree first
    s[0] = 1
    for lam in roots:
        s[1:] = (s[:-1] - lam * s[1:]) % p
        s[0] = -lam * s[0] % p
    lams = np.array(roots, dtype=np.int64)
    numer = np.empty((m, m), dtype=np.int64)
    numer[m - 1] = 1
    for t in range(m - 1, 0, -1):
        numer[t - 1] = (s[t] + lams * numer[t]) % p
    return numer


def central_characters_whole_space(g, p: int) -> np.ndarray:
    """characters._central_characters with no block found before the first
    round: every round, from the first, splits the whole class space."""
    r = len(g.conjugacy_classes)
    rng = random.Random(p)
    cls = g.class_of
    reps = np.array(g.class_reps)
    cells = (cls[g.mul[g.inv[:, None], reps]] * r + np.arange(r)).ravel()
    cell_class = np.repeat(cls, r)
    found = []
    pending = [(None, None, None)]
    for _ in range(64):
        if not pending:
            return np.concatenate(found, axis=1)
        coeffs = np.array([rng.randrange(p) for _ in range(r)], dtype=np.float64)
        comb = np.bincount(cells, weights=coeffs[cell_class], minlength=r * r)
        comb = (comb % p).astype(np.int64).reshape(r, r)
        refined = []
        for basis, rows, start in pending:
            rest = comb if basis is None else characters._matmul_mod(comb[rows], basis, p)
            for vecs, sub_rows, sub_start in characters._eigenspaces(rest, p, rng, start):
                if basis is not None:
                    vecs = characters._matmul_mod(basis, vecs, p)
                    sub_rows = None if sub_rows is None else [rows[i] for i in sub_rows]
                if vecs.shape[1] == 1:
                    found.append(vecs)
                else:
                    refined.append((vecs, sub_rows, sub_start))
        pending = refined
    raise AssertionError("class matrices did not separate the characters")


def dual_group_table_by_cosets(g, p: int):
    """The abelian table along the same chain of subgroups as
    characters._dual_group_table, stepping x^k until it enters H and
    updating the exponents one coset H x^k at a time."""
    n, e, mul = g.order, g.exponent, g.mul
    exps = np.zeros((1, n), dtype=np.int64)
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
        m = len(cosets)
        at_x = (exps[:, power, None] // m + np.arange(m) * (e // m)).ravel()
        exps = np.repeat(exps, m, axis=0)
        for k, coset in enumerate(cosets[1:], 1):
            exps[:, coset] = (exps[:, elems] + k * at_x[:, None]) % e
        elems = np.concatenate(cosets)
        in_h[elems] = True
    return characters._sorted_table(g, p, np.ones(n, dtype=np.int64),
                                    characters._unity_powers(e, p)[exps])


# -- integer matrix groups by tuple breadth-first search ----------------------------


def _steps(gens):
    step = []
    for g in gens:
        step.append(g)
        step.append(mat_inv_unimodular(g))
    return step


def generated_group_bfs(gens, bound=None) -> MatrixGroupResult:
    """Closure of unimodular generators, one Python product per BFS edge."""
    gens = [mat(g) for g in gens]
    k = len(gens[0])
    if bound is None:
        bound = minkowski_bound(k)
    step = _steps(gens)
    seen = {identity(k)}
    frontier = [identity(k)]
    while frontier:
        nxt = []
        for x in frontier:
            for g in step:
                y = mat_mul(x, g)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > bound:
                        return MatrixGroupResult(finite=False, rank=k,
                                                 witness_count=len(seen))
                    nxt.append(y)
        frontier = nxt
    return MatrixGroupResult(finite=True, rank=k, order=len(seen),
                             matrices=np.array(sorted(seen), dtype=object))


def char_orbit_bfs(vector, gens, cap) -> OrbitResult:
    """Orbit of an integer vector, one matrix-vector product per BFS edge."""
    step = _steps([mat(g) for g in gens])
    v = tuple(int(x) for x in vector)
    seen = {v}
    frontier = [v]
    while frontier:
        nxt = []
        for x in frontier:
            for g in step:
                y = mat_vec(g, x)
                if y not in seen:
                    seen.add(y)
                    if len(seen) > cap:
                        return OrbitResult(finite=False, cap=cap)
                    nxt.append(y)
        frontier = nxt
    return OrbitResult(finite=True, size=len(seen),
                       elements=np.array(sorted(seen), dtype=object))


def group_key(res: MatrixGroupResult) -> tuple:
    """A matrix group result as comparable values, its matrices as a set of
    nested tuples."""
    matrices = None if res.matrices is None else frozenset(
        tuple(map(tuple, m)) for m in res.matrices.tolist())
    return res.finite, res.rank, res.order, res.witness_count, matrices


def orbit_key(res: OrbitResult) -> tuple:
    """An orbit result as comparable values, its vectors as a set of tuples."""
    vectors = None if res.elements is None else frozenset(
        map(tuple, res.elements.tolist()))
    return res.finite, res.size, res.cap, vectors


def element_order_loop(m, bound=None):
    """Order by multiplying m until the identity or past the bound."""
    m = mat(m)
    k = len(m)
    if bound is None:
        bound = minkowski_bound(k)
    ident = identity(k)
    x = m
    for o in range(1, bound + 1):
        if x == ident:
            return o
        x = mat_mul(x, m)
    return None


# -- achievable center automorphisms by a hand-written breadth-first loop -----------


def achievable_center_autos_bfs(factors):
    """Closure of the inversion and swap generators, one tuple composition per edge."""
    factors = tuple(factors)
    n = len(factors)
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
    autos = {ident}
    frontier = [ident]
    while frontier:
        sigma_a, signs_a = frontier.pop()
        for sigma_b, signs_b in gens:
            # apply b after a
            sigma = tuple(sigma_b[sigma_a[i]] for i in range(n))
            signs = tuple(signs_a[i] * signs_b[sigma_a[i]] for i in range(n))
            cand = (sigma, signs)
            if cand not in autos:
                autos.add(cand)
                frontier.append(cand)
    return sorted(autos)


# -- gluing checks element by element over Fraction coordinates --------------------


def apply_center_auto(datum, auto, simple: tuple[int, ...]) -> tuple[int, ...]:
    """One (factor permutation, per-factor sign) auto on one simple part,
    block by block; `lie` maps whole blocks of rows by one gather instead."""
    # permuted blocks belong to equal factors, so they share their orders
    offsets, orders, out = datum.block_offsets, datum.center_orders, list(simple)
    for src, width, dst, sign in zip(offsets, datum.block_widths, *auto):
        out[offsets[dst]:offsets[dst] + width] = [
            sign * v % m for v, m in zip(simple[src:src + width], orders[src:])]
    return tuple(out)


def graph_of_rows(datum) -> dict:
    """Simple part -> torus numerators over N, read off D's rows."""
    c = len(datum.center_orders)
    return {tuple(row[:c]): tuple(row[c:]) for row in datum.elements.tolist()}


def gluing_graph_oracle(datum) -> dict:
    """Simple part -> rational torus part for every element of the gluing
    subgroup, by a hand-written closure over Fraction coordinates."""
    orders = datum.center_orders
    gens = datum.generators
    zero = ((0,) * len(orders), (Fraction(0),) * datum.torus_rank)
    seen = {zero}
    frontier = [zero]
    while frontier:
        s0, t0 = frontier.pop()
        for s1, t1 in gens:
            cand = (tuple((a + b) % m for a, b, m in zip(s0, s1, orders)),
                    tuple((a + b) % 1 for a, b in zip(t0, t1)))
            if cand not in seen:
                seen.add(cand)
                frontier.append(cand)
    graph = dict(seen)
    assert len(graph) == len(seen), "gluing subgroup is not a graph"
    return graph


def _preserved_images(datum, graph):
    support = set(graph)
    for auto in achievable_center_autos_bfs(datum.factors):
        image = {s: apply_center_auto(datum, auto, s) for s in support}
        if set(image.values()) == support:
            yield image


def liftable_elementwise(datum, alpha0) -> bool:
    """Whether the torus automorphism alpha0 extends over the quotient: some
    achievable center automorphism preserving the gluing support
    intertwines the gluing map with alpha0, tested at every element of D."""
    graph = gluing_graph_oracle(datum)
    for image in _preserved_images(datum, graph):
        if all(tuple(sum((Fraction(a) * v for a, v in zip(row, graph[s])),
                         Fraction(0)) % 1 for row in alpha0)
               == graph[image[s]] for s in graph):
            return True
    return False


def rigidity_elementwise(datum) -> bool | None:
    """`lie._rigidity` with support, kernel and joint sign tested at every
    element of D."""
    graph = gluing_graph_oracle(datum)
    kernel = {s for s, t in graph.items() if not any(t)}
    orders = datum.center_orders
    for image in _preserved_images(datum, graph):
        if {image[s] for s in kernel} != kernel:
            continue
        if not any(all(image[s] == tuple((eps * v) % m for v, m in zip(s, orders))
                       for s in graph) for eps in (1, -1)):
            return False
    if any(f.series == "D" and f.rank % 2 == 0 for f in datum.factors):
        return None
    return True


# -- helpers only the tests use ------------------------------------------------------


def identity_hom(g):
    return GroupHom(g, g, np.arange(g.order), _validated=True)


def compose(outer: GroupHom, inner: GroupHom) -> GroupHom:
    if inner.target is not outer.source:
        raise SourceMismatch("homomorphisms do not compose")
    return GroupHom(inner.source, outer.target,
                    outer.mapping[inner.mapping], _validated=True)


def closure(g, gens) -> tuple[int, ...]:
    """Subgroup generated by gens, as a sorted element tuple."""
    gens = [int(x) for x in gens]
    products = g.mul[:, gens].tolist()  # products[x] = [x * s for s in gens]
    return tuple(sorted(reachable([0, *gens], products.__getitem__)))


def center(g) -> Subgroup:
    mask = (g.mul == g.mul.T).all(axis=1)
    return Subgroup(g, tuple(int(v) for v in np.nonzero(mask)[0]))


def derived_subgroup(g) -> Subgroup:
    m, inv = g.mul, g.inv
    comms = m[m[m, inv[:, None]], inv]  # [a, b] = a b a^-1 b^-1
    return Subgroup(g, closure(g, np.unique(comms)))


def iso_signature(g) -> tuple:
    """Cheap isomorphism invariant: order, class sizes, element-order profile."""
    sizes = tuple(sorted(len(c) for c in g.conjugacy_classes))
    return (g.order, sizes, tuple(sorted(g.element_orders)), g.is_abelian)


def preimage(hom) -> dict[int, int]:
    """Target index -> source index of an injective homomorphism."""
    hom.require_injective()
    return {int(v): i for i, v in enumerate(hom.mapping)}


def is_normal(sub) -> bool:
    """Normal iff every conjugate g h g^-1 of every element h lies in it."""
    g, elems = sub.parent, list(sub.elements)
    return bool(np.isin(g.mul[g.mul[:, elems], g.inv[:, None]], elems).all())


def require_normal(sub) -> None:
    if not is_normal(sub):
        raise NotNormal(sub.elements)


def all_subgroups(g) -> list[tuple[int, ...]]:
    """Every subgroup, as sorted element tuples (BFS over generated extensions).

    Each found subgroup keeps the generating chain that produced it; a proper
    extension at least doubles the order, so chains stay short and closures fast.
    """
    trivial = (0,)
    found = {trivial: ()}
    queue = [trivial]
    while queue:
        base = queue.pop()
        base_set = set(base)
        gens = found[base]
        for x in range(1, g.order):
            if x in base_set:
                continue
            new_gens = gens + (x,)
            ext = closure(g, new_gens)
            if ext not in found:
                found[ext] = new_gens
                queue.append(ext)
    return sorted(found, key=lambda t: (len(t), t))


def normal_subgroups(g) -> list[tuple[int, ...]]:
    """Every normal subgroup: joins of normal closures of conjugacy classes."""
    closures = set()
    for cls in g.conjugacy_classes:
        closures.add(closure(g, cls))
    found = reachable(closures, lambda a: [closure(g, set(a) | set(b))
                                           for b in closures])
    return sorted(found | {(0,)}, key=lambda t: (len(t), t))


def common_prime(groups) -> int:
    """One prime valid for every group in the family: p = 1 mod the lcm of
    their exponents, p > 2 max |G|."""
    return splitting_prime(math.lcm(*(g.exponent for g in groups)),
                           max(g.order for g in groups))


def fin_check_common_prime(embs):
    """fin_check's report rows with every table at common_prime of the
    family, and the kernel's table at that prime, whose rows the reports index.
    Orbits come from conjugating each kernel class by each ambient element,
    one at a time, and a hand-written breadth-first search."""
    h = embs[0].source
    th = character_table(h, prime=common_prime([h] + [e.target for e in embs]))
    rows = {tuple(row): i for i, row in enumerate(th.values.tolist())}
    perms = set()
    restrictions = []
    for e in embs:
        g = e.target
        tg = character_table(g, prime=th.prime)
        restrictions.append(restriction_matrix(tg, th, e))
        pre = {int(y): x for x, y in enumerate(e.mapping)}
        for x in range(g.order):
            cols = []
            for rep in h.class_reps:
                y = int(g.mul[g.mul[x, e.mapping[rep]], g.inv[x]])
                if y not in pre:
                    raise NotNormal((x, rep))
                cols.append(int(h.class_of[pre[y]]))
            perms.add(tuple(rows[tuple(row)] for row in th.values[:, cols].tolist()))
    reports = []
    for rho in range(th.n_irreducibles):
        orbit, queue = {rho}, [rho]
        while queue:
            r = queue.pop()
            for perm in perms:
                if perm[r] not in orbit:
                    orbit.add(perm[r])
                    queue.append(perm[r])
        per = {str(i): int(min(v for v in m[:, rho] if v > 0))
               for i, m in enumerate(restrictions)}
        reports.append({
            "rho": rho, "degree": th.degrees[rho], "class_members": sorted(orbit),
            "class_size": len(orbit), "per_member": per,
            "sup_multiplicity": max(per.values())})
    return th, reports


def mat_vec(a, v: tuple[int, ...]) -> tuple[int, ...]:
    if len(a[0]) != len(v):
        raise DimensionMismatch("matrix/vector dimensions differ")
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def su2_datum() -> LieDatum:
    return LieDatum(0, [SimpleType("A", 1)])


def bare_torus_datum(rank: int = 2) -> LieDatum:
    return LieDatum(rank, [])


def glued_torus_su_datum(k: int, l: int) -> LieDatum:
    """T^2 times SU(3^k) times SU(3^l), glued along the full centers.

    The first center generator maps to (1/3^k, 0), the second to
    (1/3^l, 1/3^(l-1)); the image is then Z/3^k x Z/3^(l-1).
    """
    if not k > l >= 2:
        raise SchemaError("need k > l >= 2")
    a, b = 3 ** k, 3 ** l
    factors = [SimpleType("A", a - 1), SimpleType("A", b - 1)]
    generators = [
        ((1, 0), (Fraction(1, a), Fraction(0))),
        ((0, 1), (Fraction(1, b), Fraction(3, b))),
    ]
    return LieDatum(2, factors, generators)


def distinct_b_descriptor(n: int, z: int) -> dict:
    """A lie-datum over the n distinct factors B2 .. B(n+1), with 12
    generators of simple bits drawn by random.Random(1), each glued to the
    zero torus point: all of D is the kernel, and |D| = 4096 for n >= 200."""
    rng = random.Random(1)
    names = [f"B{k}" for k in range(2, n + 2)]
    gens = [[rng.randrange(2) for _ in names] for _ in range(12)]
    return {"schema": 1, "kind": "lie-datum", "z": z, "factors": names,
            "delta": {"simple_part_generators": gens,
                      "phi_images": [[[0, 1]] * z for _ in gens]}}
