"""Smoke check of the benchmark itself, at reduced size (about two minutes).

    python3 perfbench/selfcheck.py

For every workload it runs one untraced and one traced short run and checks
that every metric BENCHMARK.json names is emitted with its unit, and that
every answer is right.  Then it gives one request a deliberately wrong
expected answer and checks that each issue of it is counted as failed.
Exits non-zero on the first check that does not hold.
"""

from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

import run

# One request per workload gets a plausible but wrong expected answer.  Each
# label is unique in its deck, so every pass must count exactly one failure.
TAMPERED = {
    "cli-mix": ("golden-torus-collapse",
                lambda e: (e[0], e[1].replace("Unsound", "Sound"))),
    "chartable-ladder": ("table-Z96", lambda e: (e[0], [1] * 92 + [2])),
    "normal-families": ("cyclic-6-10-14-22-26-34",
                        lambda e: {**e, "per_member": {0: [1] * 6,
                                                       1: [2] * 6}}),
}


def check(condition: bool, what: str) -> None:
    if not condition:
        raise SystemExit(f"selfcheck failed: {what}")
    print(f"ok  {what}")


def main() -> int:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    want = run.units()
    sys.path.insert(0, str(run.SRC))
    run.WORK.mkdir(parents=True, exist_ok=True)
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=run.WORK))
    os.environ["BOHRSOUND_CACHE_DIR"] = str(cache_dir)
    try:
        small = {"seconds": 0, "min_requests": 1, "min_passes": 1,
                 "setup_repeats": 1, "cache_dir": cache_dir}
        for name in [w["name"] for w in spec["workloads"]]:
            for trace in (False, True):
                out = run.run_workload(name, 7, trace=trace, **small)
                got = {k: m["unit"] for k, m in out["metrics"].items()}
                check(got == want[trace],
                      f"{name} trace={int(trace)} emits every metric with "
                      f"its unit")
                check(out["failed"] == 0,
                      f"{name} trace={int(trace)} answers all "
                      f"{out['attempted']} requests correctly")
        for name, tamper in TAMPERED.items():
            out = run.run_workload(name, 7, trace=False, tamper=tamper,
                                   **small)
            check(out["failed"] == out["passes"] >= 1,
                  f"{name}: a wrong expected answer for {tamper[0]} counts "
                  f"as failed ({out['failed']}/{out['attempted']})")
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
