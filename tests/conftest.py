"""Shared fixtures: a private table cache for every test, and the
finite-group corpus the property tests sweep over."""

from __future__ import annotations

import numpy as np
import pytest

from bohrsound import config
from bohrsound.groups import (
    FiniteGroup,
    alternating,
    cyclic,
    dihedral,
    heisenberg,
    semidirect,
    symmetric,
)


@pytest.fixture(autouse=True)
def private_cache_dir(monkeypatch, tmp_path):
    """Point the table cache at the test's own directory, so no test reads or
    writes the user's cache, ~/.cache/bohrsound by default."""
    monkeypatch.setenv(config.CACHE_ENV_VAR, str(tmp_path / "cache"))


def multiplication_action(n: int, c: int, acting_order: int) -> np.ndarray:
    """Z/acting_order acting on Z/n, the generator multiplying by c."""
    rows = []
    f = 1
    for _ in range(acting_order):
        rows.append([(f * x) % n for x in range(n)])
        f = (f * c) % n
    return np.array(rows)


def semidirect_fixtures() -> list[FiniteGroup]:
    z3_by_z4, _, _ = semidirect(cyclic(3), cyclic(4),
                                multiplication_action(3, 2, 4), name="Z3:Z4")
    z5_by_z4, _, _ = semidirect(cyclic(5), cyclic(4),
                                multiplication_action(5, 2, 4), name="Z5:Z4")
    z7_by_z3, _, _ = semidirect(cyclic(7), cyclic(3),
                                multiplication_action(7, 2, 3), name="Z7:Z3")
    return [z3_by_z4, z5_by_z4, z7_by_z3]


def build_corpus() -> list[FiniteGroup]:
    groups: list[FiniteGroup] = []
    groups.extend(cyclic(n) for n in range(2, 49))
    groups.extend(dihedral(n) for n in range(3, 25))
    groups.append(symmetric(3))
    groups.append(symmetric(4))
    groups.append(alternating(4))
    groups.append(heisenberg(1))
    groups.append(heisenberg(2))
    groups.extend(semidirect_fixtures())
    return groups


@pytest.fixture(scope="session")
def corpus() -> list[FiniteGroup]:
    return build_corpus()


@pytest.fixture(scope="session")
def corpus_small(corpus) -> list[FiniteGroup]:
    """Corpus members of order at most 48."""
    return [g for g in corpus if g.order <= 48]
