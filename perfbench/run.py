"""bohrsound benchmark: one workload per run, a closed loop with one client.

Run from the repository root:

    python3 perfbench/run.py --workload cli-mix --seed 1 --seconds 30 --trace 0

Each request is issued only after the previous one returned and its answer
was checked.  Requests come in whole passes over the workload's deck (see
workloads.py).  A run makes at least MIN_PASSES untraced passes and
MIN_REQUESTS untraced requests, so the 90th percentile has ten samples
beyond it, and past that starts no pass that would end more than half a
pass after `--seconds`.  `setup_s` is the median of SETUP_REPEATS cold
set-ups, each in a fresh Python process.

Times are normalised to the host's speed.  On a shared host the same
request runs at speeds up to 2x apart, switching every few seconds and
drifting over minutes.  After every request the runner collects garbage and
trims the heap (settle), then times one round of a fixed calibration kernel
(Calibration) that does the kinds of work bohrsound does: scatter-adds
through fancy indexes on small integer arrays, closing integer matrices
under multiplication as tuples, and sorting and grouping tuples.  Each
request's wall time is scaled by CALIBRATION_S over the mean of the rounds
just before and after it, and each set-up time by CALIBRATION_S over the
median of the rounds its process times after set-up.  The end-to-end times
thus read as times on a host where one round takes CALIBRATION_S.  The
wall-clock throughput and percentiles are printed beside them.

`--trace 0` prints the end-to-end metrics.  `--trace 1` alternates untraced
and traced passes, prints the per-layer metrics of the traced passes and the
tracing overhead, and writes the spans to .bench_build/perfbench/; an
untraced run writes every request's raw and normalised time there.

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Without src/bohrsound and tests/golden next
to this directory the run exits with status 2 and prints no result.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()  # a set-up probe counts from here (see probe_setup)

import os  # noqa: E402

# one thread for numpy and every BLAS it may load; must precede their import
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import ctypes  # noqa: E402
import dataclasses  # noqa: E402
import gc  # noqa: E402
import importlib  # noqa: E402
import importlib.util  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import random  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import numpy  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_build" / "perfbench"

MIN_REQUESTS = 100
MIN_PASSES = 2
SETUP_REPEATS = 7
SETUP_ROUNDS = 5  # calibration rounds after each cold set-up
PROBE_TIMEOUT_S = 60.0
# no new pass starts after this much wall time, so a run ends well within
# three minutes even on a much slower build
PASS_DEADLINE_S = 120.0
# nominal seconds of one calibration round; normalised times are wall
# times rescaled to a host on which a round takes this long
CALIBRATION_S = 0.005

MODULES = ("groups", "characters", "zmat", "amalgam", "lie", "descriptors",
           "soundness", "cache", "cli")


def units() -> dict[bool, dict[str, str]]:
    """Metric units by trace flag, as BENCHMARK.json names them."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
            True: {m["name"]: m["unit"] for m in spec["per_layer"]}}


try:  # glibc only; elsewhere settle() just collects garbage
    _MALLOC_TRIM = ctypes.CDLL(None).malloc_trim
except (OSError, AttributeError):
    _MALLOC_TRIM = None


def settle() -> None:
    """Free what the last request left behind, between two requests.

    Collects garbage and hands free heap pages back to the OS, so each
    request starts about as clean as in a fresh CLI process, no collection
    left over from one request lands in the next or in a calibration round,
    and peak_rss_mb is the largest request's footprint rather than the
    fragmentation earlier requests left.
    """
    gc.collect()
    if _MALLOC_TRIM is not None:
        _MALLOC_TRIM(0)


# generators of the signed permutation matrices of rank 3 (order 48)
SIGNED_PERMUTATIONS = (((0, 1, 0), (0, 0, 1), (1, 0, 0)),
                       ((0, 1, 0), (1, 0, 0), (0, 0, 1)),
                       ((-1, 0, 0), (0, 1, 0), (0, 0, 1)))


class Calibration:
    """A fixed round of work like bohrsound's, timed between requests.

    One round scatter-adds through fancy indexes into a small count table
    (as the class matrices do), closes three integer matrices under
    multiplication as tuples (as the matrix-group closure does), and sorts
    and groups tuples.  Its inputs come from a constant seed, never from
    the workload seed, and it calls nothing of bohrsound, so a change to
    the program leaves it alone while a change in host speed moves it.
    """

    def __init__(self):
        rng = numpy.random.default_rng(0)
        self.table = rng.integers(0, 256, size=(256, 256))
        self.rows = rng.integers(0, 256, size=4000)
        self.cols = rng.integers(0, 256, size=4000)
        self.keys = rng.integers(0, 64, size=4000)
        self.pairs = [(int(a), i) for i, a in
                      enumerate(rng.integers(0, 1000, size=2000))]

    def round(self) -> float:
        """Seconds one round takes now."""
        start = time.perf_counter()
        counts = numpy.zeros((256, 64), dtype=numpy.int64)
        for _ in range(12):
            numpy.add.at(counts, (self.table[self.rows, self.cols],
                                  self.keys), 1)
        seen = {SIGNED_PERMUTATIONS[0]}
        frontier = [SIGNED_PERMUTATIONS[0]]
        while frontier:
            grown = []
            for x in frontier:
                for g in SIGNED_PERMUTATIONS:
                    y = tuple(tuple(sum(x[i][k] * g[k][j] for k in range(3))
                                    for j in range(3)) for i in range(3))
                    if y not in seen:
                        seen.add(y)
                        grown.append(y)
            frontier = grown
        groups: dict[int, list[int]] = {}
        for a, b in sorted(self.pairs):
            groups.setdefault(a % 97, []).append(b)
        took = time.perf_counter() - start
        if (int(counts.sum()), len(seen), len(groups)) != (48000, 48, 97):
            raise RuntimeError("calibration round computed a wrong answer")
        return took


def set_up(name: str, seed: int, cache_dir: Path):
    """Import bohrsound, build the seeded inputs, warm the cache, warm up.

    Returns (workload, rng, whether the warm-up answer was right).
    """
    shutil.rmtree(cache_dir, ignore_errors=True)
    cache_dir.mkdir(parents=True)
    mods = SimpleNamespace(**{m: importlib.import_module(f"bohrsound.{m}")
                              for m in MODULES})
    rng = random.Random(seed)
    workload = workloads.WORKLOADS[name](rng, mods, ROOT)
    workload.prepare()
    warm_ok, _, _ = execute(workload.warmup)
    return workload, rng, warm_ok


def probe_setup(name: str, seed: int, cache_dir: Path) -> float:
    """Normalised seconds one cold set-up takes, in a fresh Python process.

    The child counts from the first statement of this file, so the time
    covers importing numpy, bohrsound and the benchmark's own modules, then
    everything set_up does.  Interpreter start-up itself is not counted.
    The child then times a few calibration rounds, which scale its set-up
    time like every request time.
    """
    env = dict(os.environ, BOHRSOUND_CACHE_DIR=str(cache_dir))
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", name,
         "--seed", str(seed), "--seconds", "0", "--setup-probe"],
        cwd=ROOT, env=env, capture_output=True, text=True,
        timeout=PROBE_TIMEOUT_S)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
    took, round_s = map(float, proc.stdout.split()[-2:])
    return took * CALIBRATION_S / round_s


def execute(req: workloads.Request, tracer=None, request_id=None):
    """Issue one request; returns (answer correct, seconds, result)."""
    start = time.perf_counter()
    try:
        if tracer is None:
            result = req.call()
        else:
            result = tracer.request(request_id, req.label, req.call)
    except (Exception, SystemExit) as exc:  # argparse exits on bad argv
        elapsed = time.perf_counter() - start
        print(f"request {req.label} raised {exc!r}", file=sys.stderr)
        return False, elapsed, None
    elapsed = time.perf_counter() - start
    try:
        ok = bool(req.judge(result, req.expect))
    except Exception as exc:
        print(f"request {req.label}: check raised {exc!r}", file=sys.stderr)
        ok = False
    if not ok:
        print(f"request {req.label}: wrong answer", file=sys.stderr)
    return ok, elapsed, result


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 cache_dir: Path, min_requests: int = MIN_REQUESTS,
                 min_passes: int = MIN_PASSES,
                 setup_repeats: int = SETUP_REPEATS,
                 tamper=None) -> dict:
    """Set up, run the closed loop, and return metrics and counts.

    `tamper`, a (label, change) pair, replaces the expected answer of the
    requests with that label by change(expected); selfcheck.py uses it.
    """
    setups = [] if trace else [probe_setup(name, seed, cache_dir)
                               for _ in range(setup_repeats)]
    workload, rng, warm_ok = set_up(name, seed, cache_dir)
    deck = workload.deck
    if tamper is not None:
        label, change = tamper
        deck = [dataclasses.replace(r, expect=change(r.expect))
                if r.label == label else r for r in deck]
    tracer = None
    if trace:
        tracer = tracing.Tracer()
        tracer.install()
    calibration = Calibration()

    # (raw, normalised) seconds of each deck position, untraced passes only
    samples: list[list[tuple[float, float]]] = [[] for _ in deck]
    busy = {False: 0.0, True: 0.0}  # normalised seconds inside requests
    done = {False: 0, True: 0}
    failed = 0 if warm_ok else 1
    attempted = 0 if warm_ok else 1
    passes = {False: 0, True: 0}
    settle()
    rounds = [calibration.round()]
    wall = time.perf_counter()
    pass_s = 0.0
    while True:
        elapsed = time.perf_counter() - wall
        enough = (passes[False] >= min_passes
                  and passes[False] * len(deck) >= min_requests
                  and passes[True] >= int(trace)
                  and elapsed + pass_s / 2 >= seconds)
        if enough or (elapsed >= PASS_DEADLINE_S and sum(passes.values())):
            break
        # alternate untraced and traced passes when tracing
        traced = trace and passes[False] > passes[True]
        order = list(range(len(deck)))
        rng.shuffle(order)
        for i in order:
            ok, took, result = execute(deck[i], tracer if traced else None,
                                       attempted)
            settle()
            rounds.append(calibration.round())
            scaled = took * 2 * CALIBRATION_S / (rounds[-2] + rounds[-1])
            attempted += 1
            busy[traced] += scaled
            if ok:
                done[traced] += 1
            else:
                failed += 1
            if not traced:
                samples[i].append((took, scaled))
            elif isinstance(result, workloads.CliResult):
                tracer.counts["cli.stdout_bytes"] += len(
                    result.out.encode("utf-8"))
        passes[traced] += 1
        pass_s = (time.perf_counter() - wall) / sum(passes.values())

    # throughput counts correct answers only
    correct_share = done[False] / sum(map(len, samples))
    raw = latency_metrics([[s[0] for s in p] for p in samples])
    raw["throughput_rps"] *= correct_share
    if trace:
        metrics = tracer.metrics(passes[True])
        traced_rps = done[True] / busy[True]
        plain_rps = done[False] / busy[False]
        metrics["trace.throughput_rps"] = traced_rps
        metrics["trace.untraced_throughput_rps"] = plain_rps
        metrics["trace.overhead_pct"] = (plain_rps / traced_rps - 1.0) * 100.0
        tracer.write(WORK / f"spans-{name}-seed{seed}.jsonl")
    else:
        metrics = latency_metrics([[s[1] for s in p] for p in samples])
        metrics["throughput_rps"] *= correct_share
        metrics["setup_s"] = statistics.median(setups)
        metrics["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0
        (WORK / f"latencies-{name}-seed{seed}.json").write_text(json.dumps(
            {"labels": [r.label for r in deck], "seconds": samples,
             "calibration_seconds": rounds}))
    unit = units()[trace]
    return {
        "attempted": attempted,
        "failed": failed,
        "passes": sum(passes.values()),
        "raw": raw,
        "calibration_ms": statistics.median(rounds) * 1000.0,
        "metrics": {k: {"value": v, "unit": unit[k]}
                    for k, v in metrics.items()},
    }


def latency_metrics(samples: list[list[float]]) -> dict[str, float]:
    """Throughput and percentiles from each deck position's seconds.

    Throughput is one deck's worth of requests over the sum of each
    request's median time, so it weighs every request once, however many
    passes a run made.  The percentiles are over every sample.
    """
    latencies = [t * 1000.0 for s in samples for t in s]
    deciles = statistics.quantiles(latencies, n=10)
    return {
        "throughput_rps": len(samples) / sum(statistics.median(s)
                                             for s in samples),
        "latency_p50_ms": statistics.median(latencies),
        "latency_p90_ms": deciles[8],
    }


def git_commit() -> str:
    """HEAD of the enclosing checkout, read without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # internal: time one cold set-up in this process and print the seconds
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "bohrsound" / "__init__.py").is_file() \
            or not (ROOT / "tests" / "golden").is_dir():
        print(f"error: no bohrsound source tree at {ROOT}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    spec = importlib.util.find_spec("bohrsound")
    if spec is None or not str(spec.origin).startswith(str(SRC)):
        print("error: bohrsound does not resolve to this checkout",
              file=sys.stderr)
        return 2

    if args.setup_probe:
        cache_dir = Path(os.environ["BOHRSOUND_CACHE_DIR"])
        _, _, warm_ok = set_up(args.workload, args.seed, cache_dir)
        took = time.perf_counter() - T0
        if not warm_ok:
            return 1
        calibration = Calibration()
        rounds = [calibration.round() for _ in range(SETUP_ROUNDS)]
        print(took, statistics.median(rounds))
        return 0

    WORK.mkdir(parents=True, exist_ok=True)
    # run-private table cache: `cache clear` unlinks every *.json in it
    cache_dir = Path(tempfile.mkdtemp(prefix="cache-", dir=WORK))
    os.environ["BOHRSOUND_CACHE_DIR"] = str(cache_dir)
    try:
        out = run_workload(args.workload, args.seed, args.seconds,
                           bool(args.trace), cache_dir)
    finally:
        shutil.rmtree(cache_dir, ignore_errors=True)

    for name, m in out["metrics"].items():
        print(f"{args.workload}  {name} = {m['value']:.6g} {m['unit']}")
    print(f"{args.workload}  wall clock, not normalised: " + ", ".join(
        f"{k} = {v:.6g}" for k, v in out["raw"].items())
        + f"; calibration round {out['calibration_ms']:.4g} ms "
        f"(nominal {CALIBRATION_S * 1000:g} ms)")
    print(f"{args.workload}  failed_frac = "
          f"{out['failed'] / out['attempted']:.6g} ratio "
          f"({out['failed']}/{out['attempted']}, {out['passes']} passes)")
    print("meta " + json.dumps({
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": numpy.__version__, "commit": git_commit()}))
    print(json.dumps({
        "correct": out["failed"] == 0,
        "attempted": out["attempted"],
        "failed": out["failed"],
        "metrics": out["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
