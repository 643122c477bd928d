"""Seeded request decks for the three benchmark workloads.

A deck is one pass over a workload's request mix.  Its composition is fixed
per workload; the seed only draws the free parameters of each request
(conjugating matrices, words, subgroups, member order) and the order of the
requests in each pass.  Keeping the composition fixed keeps the latency
percentiles comparable across seeds.

Every request carries an answer known without the code under test: a golden
file, a closed-form value, a brute-force computation done here, or (for
equalizer witnesses) the re-check the acceptance suite applies.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple


class CliResult(NamedTuple):
    code: int
    out: str


@dataclass
class Request:
    """One call into bohrsound plus the answer it must produce.

    `judge(result, expect)` returns True when the result is right; a judge
    that raises counts as a wrong answer.
    """

    label: str
    call: Callable[[], Any]
    expect: Any
    judge: Callable[[Any, Any], bool]


@dataclass
class Workload:
    deck: list[Request]
    warmup: Request
    prepare: Callable[[], None] = lambda: None


# -- closed forms ---------------------------------------------------------------

# Minkowski's bound M(k) on the order of a finite subgroup of GL(k, Z)
# (OEIS A053657); an infinite group is certified after M(k) + 1 elements.
MINKOWSKI = {2: 24, 3: 48, 4: 5760, 5: 11520}

S5_DEGREES = [1, 1, 4, 4, 5, 5, 6]
A5_DEGREES = [1, 3, 3, 4, 5]
S4_DEGREES = [1, 1, 2, 3, 3]


def dihedral_degrees(n: int) -> list[int]:
    """Irreducible degrees of the dihedral group of order 2n."""
    if n % 2:
        return [1] * 2 + [2] * ((n - 1) // 2)
    return [1] * 4 + [2] * (n // 2 - 1)


def heisenberg_degrees(level: int) -> list[int]:
    """Degrees for unitriangular 3x3 matrices over Z/q, q = 2^level.

    q^2 linear characters, and phi(d) * (q/d)^2 characters of degree d for
    each central character of order d = 2^j > 1.
    """
    q = 1 << level
    out = [1] * (q * q)
    for j in range(1, level + 1):
        d = 1 << j
        out += [d] * ((d // 2) * (q // d) ** 2)
    return out


def table_ok(order: int, degrees, n_classes: int, expect_degrees) -> bool:
    degrees = list(degrees)
    return (sum(d * d for d in degrees) == order
            and len(degrees) == n_classes
            and sorted(degrees) == sorted(expect_degrees))


# -- helpers shared by the workloads --------------------------------------------


def run_cli(cli_module, argv: list[str]) -> CliResult:
    """In-process `bohrsound.cli.main(argv)` with stdout captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli_module.main(argv)
    return CliResult(code, buf.getvalue())


def matmul(a, b):
    return [[sum(x * y for x, y in zip(row, col)) for col in zip(*b)]
            for row in a]


def signed_permutation(rng: random.Random, k: int) -> tuple[list, list]:
    """A seeded signed permutation matrix and its inverse (the transpose).

    It is unimodular, so conjugating by it keeps every order and witness
    count; its entries are 0 and +-1, so the enumeration cost, which grows
    with the size of the entries, does not depend on the seed.
    """
    perm = rng.sample(range(k), k)
    u = [[0] * k for _ in range(k)]
    for j in range(k):
        u[perm[j]][j] = rng.choice((-1, 1))
    return u, [list(col) for col in zip(*u)]


def permutation_matrix(k: int, perm) -> list[list[int]]:
    return [[int(perm[j] == i) for j in range(k)] for i in range(k)]


def padded_block(k: int, m) -> list[list[int]]:
    out = [[int(i == j) for j in range(k)] for i in range(k)]
    for i in range(2):
        for j in range(2):
            out[i][j] = m[i][j]
    return out


def cyclic_descriptor(n: int) -> dict:
    return {"kind": "cyclic", "n": n}


def dihedral_descriptor(n: int) -> dict:
    return {"kind": "semidirect", "normal": cyclic_descriptor(n),
            "acting": cyclic_descriptor(2),
            "action": [list(range(n)), [(-x) % n for x in range(n)]]}


def multiplication_action(n: int, c: int, acting_order: int) -> list:
    """Z/acting_order acting on Z/n, the generator multiplying by c."""
    rows, f = [], 1
    for _ in range(acting_order):
        rows.append([(f * x) % n for x in range(n)])
        f = f * c % n
    return rows


def closure(mul, gens) -> tuple[int, ...]:
    """Subgroup generated by gens, from the multiplication table alone."""
    seen = {0}
    frontier = [0]
    while frontier:
        nxt = []
        for x in frontier:
            for g in gens:
                y = int(mul[x][g])
                if y not in seen:
                    seen.add(y)
                    nxt.append(y)
        frontier = nxt
    return tuple(sorted(seen))


# -- the free product Z3 * S3, evaluated without bohrsound -----------------------

S3_PERMS = list(itertools.permutations(range(3)))
S3_INDEX = {p: i for i, p in enumerate(S3_PERMS)}
FACTORS = [
    {"labels": ["e", "g", "g2"], "order": 3,
     "op": lambda a, b: (a + b) % 3},
    # composition of permutations as functions, the convention of symmetric(n)
    {"labels": ["".join(map(str, p)) for p in S3_PERMS], "order": 6,
     "op": lambda a, b: S3_INDEX[tuple(S3_PERMS[a][S3_PERMS[b][k]]
                                       for k in range(3))]},
]
Z3_S3_SPEC = json.dumps({
    "schema": 1, "kind": "amalgam", "amalgam": cyclic_descriptor(1),
    "factors": [{"group": cyclic_descriptor(3), "injection": ["e"]},
                {"group": {"kind": "symmetric", "n": 3},
                 "injection": ["012"]}]})


def _inverse(f: int, x: int) -> int:
    fac = FACTORS[f]
    return next(y for y in range(fac["order"]) if fac["op"](x, y) == 0)


def _is_trivial(word) -> bool:
    stack: list[tuple[int, int]] = []
    for f, x in word:
        if x == 0:
            continue
        if stack and stack[-1][0] == f:
            y = FACTORS[f]["op"](stack.pop()[1], x)
            if y:
                stack.append((f, y))
        else:
            stack.append((f, x))
    return not stack


def brute_force_length(word) -> int:
    """Fewest letters to replace so the word becomes trivial (discrete lengths)."""
    choices = [range(FACTORS[f]["order"]) for f, _ in word]
    return min(sum(e != x for e, (_, x) in zip(es, word))
               for es in itertools.product(*choices)
               if _is_trivial(list(zip((f for f, _ in word), es))))


def random_letters(rng: random.Random, n: int) -> list[tuple[int, int]]:
    out = []
    for _ in range(n):
        f = rng.randrange(2)
        out.append((f, rng.randrange(1, FACTORS[f]["order"])))
    return out


def render(word) -> str:
    return " ".join(f"{f}:{FACTORS[f]['labels'][x]}" for f, x in word)


# -- cli-mix ---------------------------------------------------------------------

GOLDEN_CASES = [
    (("soundness", "--request", "torus-collapse.json"),
     "torus-collapse.verdict.json", 0),
    (("soundness", "--request", "heisenberg-prefix.json"),
     "heisenberg-prefix.verdict.json", 2),
    (("soundness", "--request", "split-inversion.json"),
     "split-inversion.verdict.json", 0),
    (("soundness", "--request", "split-growing-orbit.json"),
     "split-growing-orbit.verdict.json", 0),
    (("equalizer", "--spec", "a3-in-s3.json"), "a3-in-s3.witness.json", 0),
    (("equalizer", "--spec", "z2-in-z4.json"), "z2-in-z4.witness.json", 0),
    (("liecheck", "--datum", "glued-su-3-2.json"),
     "glued-su-3-2.report.json", 0),
    (("liecheck", "--datum", "bare-t2.json"), "bare-t2.report.json", 0),
]


def _judge_golden(result, expect) -> bool:
    if result != expect:
        return False
    # a split certificate whose corroboration failed is wrong even if Sound
    cert = json.loads(result[1]).get("certificate", {})
    return cert.get("decomposition_passed", True) is True


def _judge_json(check: Callable[[dict, Any], bool]):
    def judge(result, expect) -> bool:
        code, out = result
        return code == 0 and check(json.loads(out), expect)
    return judge


def _judge_text(result, expect) -> bool:
    code, out = result
    return code == 0 and out.strip() == expect


def _torus_check(data: dict, expect: dict) -> bool:
    cert = data["certificate"]
    joint = cert["joint"]
    if (data["verdict"], data["criterion"]) != expect["verdict"]:
        return False
    if cert["factor_orders"] != expect["factor_orders"]:
        return False
    if joint["finite"]:
        return joint["order"] == expect["order"] \
            and len(joint.get("elements", [])) == expect["order"]
    return joint["witness_count"] == expect["witness_count"]


def _torus_requests(rng, mods) -> list[Request]:
    out = []
    for k in range(2, 6):
        u, u_inv = signed_permutation(rng, k)

        def conj(m):
            return matmul(matmul(u, m), u_inv)

        # hyperoctahedral B_k: S_k by permutation matrices, then one sign flip
        cycle = permutation_matrix(k, [(i + 1) % k for i in range(k)])
        swap = permutation_matrix(k, [1, 0] + list(range(2, k)))
        sign = [[-1 if i == j == 0 else int(i == j) for j in range(k)]
                for i in range(k)]
        finite = {"schema": 1, "kind": "torus-family", "rank": k,
                  "factor_generators": [[conj(cycle), conj(swap)],
                                        [conj(sign)]]}
        out.append(_cli_request(
            mods, f"torus-finite-{k}",
            ["soundness", "--request", json.dumps(finite), "--format", "json"],
            {"verdict": ("Sound", "torus-joint-action-finite"),
             "factor_orders": [math.factorial(k), 2],
             "order": 2 ** k * math.factorial(k)},
            _judge_json(_torus_check)))
        # SL(2, Z) on a 2x2 block: orders 4 and 6, jointly infinite
        infinite = {"schema": 1, "kind": "torus-family", "rank": k,
                    "factor_generators": [
                        [conj(padded_block(k, [[0, -1], [1, 0]]))],
                        [conj(padded_block(k, [[0, -1], [1, 1]]))]]}
        out.append(_cli_request(
            mods, f"torus-infinite-{k}",
            ["soundness", "--request", json.dumps(infinite),
             "--format", "json"],
            {"verdict": ("Unsound", "torus-joint-action-infinite"),
             "factor_orders": [4, 6], "witness_count": MINKOWSKI[k] + 1},
            _judge_json(_torus_check)))
    return out


def _cli_request(mods, label, argv, expect, judge) -> Request:
    return Request(label, lambda: run_cli(mods.cli, argv), expect, judge)


def _lie_check(data: dict, expect: dict) -> bool:
    return all(data[k] == v for k, v in expect["fields"].items()) and (
        "glued_order" not in expect
        or (data["verdict"]["glued_order"] == expect["glued_order"]
            and data["verdict"]["glued_subgroup"] == expect["invariants"]))


def _clifford_check(data: dict, expect: dict) -> bool:
    reports = {r["rho"]: r for r in data["reports"]}
    return (data["member_orders"] == expect["member_orders"]
            and all(r["class_size"] == 1 for r in reports.values())
            and [reports[1]["per_member"][str(i)] for i in range(3)]
            == expect["growth"]
            and set(reports[0]["per_member"].values()) == {1})


def _chartable_check(data: dict, expect: dict) -> bool:
    return data["order"] == expect["order"] and table_ok(
        data["order"], data["degrees"], len(data["class_reps"]),
        expect["degrees"])


def _distance_check(data: dict, expect) -> bool:
    return data["distance"] == expect


def _matrix_check(data: dict, expect) -> bool:
    return data["matrix"] == expect


def _fixture_requests(rng, mods, fixtures: Path) -> list[Request]:
    sl2z = json.loads((fixtures / "sl2z.json").read_text())
    mats = json.loads((fixtures / "sl2z-matrices.json").read_text())["factors"]
    labels = [f["group"]["labels"] for f in sl2z["factors"]]
    word = [(f, rng.randrange(1, len(labels[f])))
            for f in (rng.randrange(2) for _ in range(8))]
    product = [[1, 0], [0, 1]]
    for f, x in word:
        product = matmul(product, mats[f][x])
    text = " ".join(f"{f}:{labels[f][x]}" for f, x in word)
    glued = {"no_central_2torus": False, "dual_rank_le_1": False,
             "aut_compact": False, "has_largest_compact": True,
             "inversion_only": True}
    nf, eq, dist = (["amalgam", c, "--spec"] for c in ("nf", "eq", "dist"))
    return [
        _cli_request(mods, "amalgam-nf-identity",
                     nf + ["sl2z.json", "--word", "0:a 0:a 1:b 1:b 1:b"],
                     "identity", _judge_text),
        _cli_request(mods, "amalgam-nf",
                     nf + ["sl2z.json", "--word", "1:b 1:b 1:b 1:b"],
                     "0:a2 1:b", _judge_text),
        _cli_request(mods, "amalgam-eq",
                     eq + ["sl2z.json", "--word", "0:a 0:a",
                           "--word2", "1:b 1:b 1:b"], "equal", _judge_text),
        _cli_request(mods, "amalgam-neq",
                     eq + ["sl2z.json", "--word", "0:a", "--word2", "1:b"],
                     "distinct", _judge_text),
        _cli_request(mods, "amalgam-dist-fixture",
                     dist + ["z2-free-z2.json", "--word", "0:x 1:y 0:x"],
                     "1", _judge_text),
        _cli_request(mods, "amalgam-dist-pair",
                     dist + ["z2-free-z2.json", "--word", "0:x 1:y 0:x",
                             "--word2", "0:x", "--format", "json"],
                     {"num": 2, "den": 1}, _judge_json(_distance_check)),
        _cli_request(mods, "amalgam-eval",
                     ["amalgam", "eval", "--spec", "sl2z.json", "--word", text,
                      "--targets", "sl2z-matrices.json", "--format", "json"],
                     product, _judge_json(_matrix_check)),
        _cli_request(mods, "liecheck-su2",
                     ["liecheck", "--datum", "su2.json", "--format", "json"],
                     {"fields": {"aut_compact": True,
                                 "center": {"torus_dimension": 0,
                                            "finite_part": [2]}}},
                     _judge_json(_lie_check)),
        # glued SU(k) data: the glued subgroup has order 3^(k+l-1)
        _cli_request(mods, "liecheck-glued-4-2",
                     ["liecheck", "--datum", "glued-su-4-2.json",
                      "--format", "json"],
                     {"fields": glued, "glued_order": 3 ** 5,
                      "invariants": [3, 81]}, _judge_json(_lie_check)),
        _cli_request(mods, "liecheck-glued-4-3",
                     ["liecheck", "--datum", "glued-su-4-3.json",
                      "--format", "json"],
                     {"fields": glued, "glued_order": 3 ** 6,
                      "invariants": [9, 81]}, _judge_json(_lie_check)),
        # Z2 in the centers of H2, H4, H8: multiplicities 2, 4, 8
        _cli_request(mods, "clifford-heisenberg",
                     ["clifford", "--spec", "heisenberg-prefix.json",
                      "--format", "json"],
                     {"member_orders": [8, 64, 512], "growth": [2, 4, 8]},
                     _judge_json(_clifford_check)),
    ]


def _distance_requests(rng, mods) -> list[Request]:
    out = []
    # |u| = 3, 7, 15, 31 and |x| = 3 give words of length 9, 17, 33, 65
    for half in (3, 7, 15, 31):
        u = random_letters(rng, half)
        x = random_letters(rng, 3)
        u_inv = [(f, _inverse(f, y)) for f, y in reversed(u)]
        word = render(u + x + u_inv)
        # bi-invariance: the distance of u x u^-1 is the length of x
        out.append(_cli_request(
            mods, f"amalgam-dist-{2 * half + 3}",
            ["amalgam", "dist", "--spec", Z3_S3_SPEC, "--word", word],
            str(brute_force_length(x)), _judge_text))
    return out


# groups whose tables set-up stores in the run-private cache
CACHED_GROUPS = [
    (cyclic_descriptor(24), 24, [1] * 24),
    (dihedral_descriptor(12), 24, dihedral_degrees(12)),
    ({"kind": "symmetric", "n": 4}, 24, S4_DEGREES),
    ({"kind": "heisenberg", "level": 2}, 64, heisenberg_degrees(2)),
]


DOUBLED = {"chartable-cyclic", "chartable-semidirect", "chartable-symmetric",
           "chartable-heisenberg", "torus-finite-2", "torus-infinite-2",
           "amalgam-nf", "amalgam-eq", "amalgam-neq", "liecheck-su2"}


def cli_mix(rng: random.Random, mods, root: Path) -> Workload:
    golden_dir = root / "tests" / "golden"
    fixtures = root / "src" / "bohrsound" / "fixtures"
    deck = [
        _cli_request(mods, f"golden-{name.split('.')[0]}",
                     list(argv) + ["--format", "json"],
                     (code, (golden_dir / name).read_text()), _judge_golden)
        for argv, name, code in GOLDEN_CASES]
    deck += _fixture_requests(rng, mods, fixtures)
    deck += _torus_requests(rng, mods)
    deck += _distance_requests(rng, mods)
    deck += [_cli_request(mods, f"chartable-{d['kind']}",
                          ["chartable", "--group", json.dumps(d),
                           "--format", "json"],
                          {"order": order, "degrees": degrees},
                          _judge_json(_chartable_check))
             for d, order, degrees in CACHED_GROUPS]
    # Second copies of ten light requests make a deck of 45.  Its slowest
    # 10% is then the three requests above 1 s and half of the next three
    # (about 0.4 s each), so the 90th percentile falls in the middle of that
    # group rather than at its top; the median stays among the light ones.
    deck += [r for r in deck if r.label in DOUBLED]

    def warm_cache():
        argv = ["cache", "warm"]
        for d, _, _ in CACHED_GROUPS:
            argv += ["--group", json.dumps(d)]
        code, _ = run_cli(mods.cli, argv)
        if code != 0:
            raise RuntimeError("cache warm failed")

    return Workload(deck=deck, warmup=deck[0], prepare=warm_cache)


# -- chartable-ladder ------------------------------------------------------------


def _table_judge(table, expect) -> bool:
    order, degrees = expect
    return table.group.order == order and table_ok(
        order, table.degrees, table.n_classes, degrees)


def chartable_ladder(rng: random.Random, mods, root: Path) -> Workload:
    g = mods.groups
    rungs = [(f"Z{n}", (lambda n=n: g.cyclic(n)), n, [1] * n)
             for n in (32, 48, 64, 80, 96)]
    rungs += [(f"D{n}", (lambda n=n: g.dihedral(n)), 2 * n,
               dihedral_degrees(n)) for n in (64, 80, 96, 112, 128)]
    rungs += [(f"H{1 << lv}", (lambda lv=lv: g.heisenberg(lv)), 8 ** lv,
               heisenberg_degrees(lv)) for lv in (2, 3)]
    rungs += [
        ("S5", lambda: g.symmetric(5), 120, S5_DEGREES),
        ("A5", lambda: g.alternating(5), 60, A5_DEGREES),
        ("Z8xS4", lambda: g.direct_product(g.cyclic(8), g.symmetric(4)),
         192, S4_DEGREES * 8),
    ]
    # Extra copies of cheaper rungs make a deck of 30: the slowest 10% is
    # Z96, Z80 and one of the equally slow Z64/D128 pair, so the 90th
    # percentile falls in the middle of that pair's samples, and the median
    # falls in the middle of the seven D64 requests (with Z32, as costly).
    # Neither percentile sits on a boundary between requests of different
    # cost.
    extra = {"S5": 3, "A5": 3, "Z8xS4": 3, "D64": 6}
    chosen = rungs + [r for r in rungs for _ in range(extra.get(r[0], 0))]

    def request(name, build, order, degrees):
        # a freshly built group each call, so no in-process memo can hit
        return Request(f"table-{name}",
                       lambda: mods.characters.character_table(build()),
                       (order, degrees), _table_judge)

    deck = [request(*r) for r in chosen]
    warmup = request(*next(r for r in rungs if r[0] == "S5"))
    return Workload(deck=deck, warmup=warmup)


# -- normal-families -------------------------------------------------------------

# Z2 into cyclic members, each family in seeded member orders.  Common
# primes: 13, 6007, 46411 and 4084081.  The last is the p ~ 4e6 request
# whose O(p) root scan and p-sized arrays dominate the workload; it stays in.
#
# The deck is laid out so that neither percentile sits on a boundary
# between requests of different cost.  The 90th percentile falls among the
# seven similar requests after the six-member family (three Heisenberg
# towers, four [6, 10, 14, 26, 34] families), and the median in the middle
# of the five [6, 14, 22, 26] requests.  The tiny requests, whose latency
# varies most with machine load, stay below the median.
CYCLIC_FAMILIES = ([[6], [6, 10, 14, 22, 26, 34]]
                   + [[6, 10, 14, 26, 34]] * 4 + [[6, 14, 22, 26]] * 5)
HEISENBERG_TOWERS = [[1, 2, 3], [2, 3], [1, 3]]
DIHEDRAL_FAMILIES = [[4, 6], [6, 8, 10]]


def _family(kind: str, kernel: dict, members: list[tuple[dict, list]]) -> dict:
    return {"schema": 1, "kind": kind, "kernel": kernel,
            "embeddings": [{"group": d, "mapping": m} for d, m in members]}


def _verdict_judge(verdict, expect) -> bool:
    cert = verdict.certificate
    if (verdict.verdict, verdict.criterion) != expect["verdict"] \
            or cert["member_orders"] != expect["member_orders"]:
        return False
    reports = {r["rho"]: r for r in cert["reports"]}
    for rho, per in expect["per_member"].items():
        r = reports[rho]
        if r["class_members"] != [rho] \
                or r["per_member"] != {str(i): v for i, v in enumerate(per)}:
            return False
    return "sequences" not in expect or (
        cert["multiplicity_sequences"] == expect["sequences"]
        and cert["growing_classes"] == [1])


def _witness_judge(result, expect) -> bool:
    """The re-check of the acceptance suite's equalizer criterion."""
    emb, w = result
    ch = expect
    tg = ch.character_table(emb.target, prime=w.prime)
    th = ch.character_table(emb.source, prime=w.prime)
    if w.kind == "split":
        (pi,) = w.indices
        res = ch.restricted_values(tg, pi, emb, th)
        return th.inner(res, res) == w.self_intersection >= 2
    i, j = w.indices
    return w.kind == "collision" and i != j and list(
        ch.restricted_values(tg, i, emb, th)) == list(
        ch.restricted_values(tg, j, emb, th))


def _equalizer_requests(rng, mods) -> list[Request]:
    g = mods.groups
    ambients = [
        ("D12", lambda: g.dihedral(12)),
        ("D20", lambda: g.dihedral(20)),
        ("S4", lambda: g.symmetric(4)),
        ("A4", lambda: g.alternating(4)),
        ("Z5:Z4", lambda: g.semidirect(g.cyclic(5), g.cyclic(4),
                                       multiplication_action(5, 2, 4))[0]),
        ("Z7:Z3", lambda: g.semidirect(g.cyclic(7), g.cyclic(3),
                                       multiplication_action(7, 2, 3))[0]),
    ]
    out = []
    for name, build in ambients:
        mul = build().mul.tolist()
        order = len(mul)
        while True:
            gens = rng.sample(range(1, order), rng.choice((1, 2)))
            elems = closure(mul, gens)
            if len(elems) < order:
                break

        def call(build=build, elems=elems):
            ambient = build()
            _, emb = mods.groups.Subgroup(ambient, elems).materialize()
            return emb, mods.characters.equalizer_witness(emb)

        out.append(Request(f"equalizer-{name}", call, mods.characters,
                           _witness_judge))
    return out


def normal_families(rng: random.Random, mods, root: Path) -> Workload:
    z2 = cyclic_descriptor(2)
    deck = []

    def verdict_request(label, request, expect):
        return Request(label,
                       lambda: mods.soundness.soundness_verdict(request),
                       expect, _verdict_judge)

    for ns in CYCLIC_FAMILIES:
        ns = rng.sample(ns, len(ns))
        req = _family("finite-normal-family", z2,
                      [(cyclic_descriptor(n), [0, n // 2]) for n in ns])
        # abelian members: singleton classes, every multiplicity 1
        deck.append(verdict_request(
            "cyclic-" + "-".join(map(str, sorted(ns))), req,
            {"verdict": ("Sound", "compact-automorphism-group"),
             "member_orders": ns,
             "per_member": {0: [1] * len(ns), 1: [1] * len(ns)}}))
    for levels in HEISENBERG_TOWERS:
        req = _family("normal-family-prefix", z2,
                      [({"kind": "heisenberg", "level": lv}, [0, 1 << (lv - 1)])
                       for lv in levels])
        growth = [1 << lv for lv in levels]
        deck.append(verdict_request(
            f"heisenberg-{'-'.join(map(str, levels))}", req,
            {"verdict": ("UnknownPrefixOnly", None),
             "member_orders": [8 ** lv for lv in levels],
             "per_member": {0: [1] * len(levels), 1: growth},
             "sequences": {"0": [1] * len(levels), "1": growth}}))
    for ns in DIHEDRAL_FAMILIES:
        ns = rng.sample(ns, len(ns))
        # the rotation by n/2 has index n in the semidirect numbering
        req = _family("finite-normal-family", z2,
                      [(dihedral_descriptor(n), [0, n]) for n in ns])
        # a linear character is -1 on the central rotation iff n = 2 mod 4;
        # otherwise the smallest carrier is a degree-2 character
        deck.append(verdict_request(
            "dihedral-" + "-".join(map(str, sorted(ns))), req,
            {"verdict": ("Sound", "compact-automorphism-group"),
             "member_orders": [2 * n for n in ns],
             "per_member": {0: [1] * len(ns),
                            1: [1 if n % 4 == 2 else 2 for n in ns]}}))
    deck += _equalizer_requests(rng, mods)
    return Workload(deck=deck, warmup=deck[0])


WORKLOADS = {
    "cli-mix": cli_mix,
    "chartable-ladder": chartable_ladder,
    "normal-families": normal_families,
}
