"""Every character table the corpus gives, pinned by digest.

tests/golden/table-digests.json holds, for each corpus group and for H8,
D128, S5, A5 and Z8xS4, the sha256 of its (degrees, values) at two primes:
the group's canonical prime and the first admissible prime above 10**6.  A
change to the table engine that changes any table byte fails here.

Regenerate (only when a table change is intended):

    PYTHONPATH=src:tests python tests/test_table_digests.py > tests/golden/table-digests.json
"""

import hashlib
import json
import sys
from pathlib import Path

from bohrsound import characters
from bohrsound.characters import character_table, splitting_prime
from bohrsound.groups import alternating, cyclic, dihedral, direct_product, heisenberg, symmetric

from conftest import build_corpus

GOLDEN = Path(__file__).parent / "golden" / "table-digests.json"


def _groups():
    return build_corpus() + [heisenberg(3), dihedral(128), symmetric(5),
                             alternating(5), direct_product(cyclic(8), symmetric(4))]


def table_digest(table) -> str:
    body = json.dumps([list(table.degrees), table.values.tolist()], separators=(",", ":"))
    return hashlib.sha256(body.encode()).hexdigest()


def digests() -> dict[str, str]:
    out = {}
    for g in _groups():
        for prime in (None, splitting_prime(g.exponent, 500_000)):
            table = character_table(g, prime)
            out[f"{g.name}@{table.prime}"] = table_digest(table)
    return out


def test_tables_match_pinned_digests():
    want = json.loads(GOLDEN.read_text())
    got = digests()
    assert sorted(got) == sorted(want)
    assert [k for k in want if got[k] != want[k]] == []


def test_fewer_baby_powers_give_the_same_tables(monkeypatch):
    # past 523 classes the power table holds fewer than isqrt(d) + 1 babies;
    # a small budget takes that route here: 3 babies for H8, 5 for D128
    monkeypatch.setattr(characters, "_POWER_TABLE_WORDS", 3 * 92 * 92)
    want = json.loads(GOLDEN.read_text())
    for g in (heisenberg(3), dihedral(128), symmetric(5)):
        table = character_table(g)
        assert table_digest(table) == want[f"{g.name}@{table.prime}"]


if __name__ == "__main__":
    json.dump(digests(), sys.stdout, indent=1)
    sys.stdout.write("\n")
