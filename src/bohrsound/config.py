"""Size limits and environment knobs.

All limits are module constants so tests can monkeypatch them; the CLI reads
the cache directory from the environment at call time.  Table validation has
no knob: it is exact at every order (see groups).
"""

from __future__ import annotations

import os

# character tables refuse larger groups (Dixon cost grows fast past this)
CHARTABLE_MAX_ORDER = 1024
PRIME_SEARCH_LIMIT = 1 << 31

HEISENBERG_MAX_LEVEL = 4
SYMMETRIC_MAX_N = 6

# builders refuse larger groups before allocating their O(n^2) table, and
# LieDatum a larger gluing subgroup D while enumerating it, as soon as the
# next coset would pass the limit; 4096 = 16^3 is the order of
# heisenberg(HEISENBERG_MAX_LEVEL)
GROUP_MAX_ORDER = 4096

# Minkowski's bound is astronomically large past small rank; refuse above this
MINKOWSKI_MAX_RANK = 8

DEFAULT_ORBIT_CAP = 10**6

# finite results serialize full element lists up to this order
SERIALIZE_ELEMENTS_MAX = 10**4

CACHE_ENV_VAR = "BOHRSOUND_CACHE_DIR"


def cache_dir() -> str:
    base = os.environ.get(CACHE_ENV_VAR)
    if base:
        return base
    return os.path.join(os.path.expanduser("~"), ".cache", "bohrsound")
