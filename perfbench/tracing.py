"""Spans around bohrsound's public functions, installed from outside the package.

Nothing under src/ is touched: each function named in LAYERS is wrapped, and
every bohrsound module namespace that holds the original (the defining
module, the package, and every module that imported it by name, such as
`soundness.fin_check` or `cli.character_table`) is rebound to the wrapper.
Spans stay in memory as (id, parent, name, start, end, request) and are
written out once, at the end of the run.

A layer's self time is the duration of its spans minus the time covered by
their child spans, so nested layers are never counted twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types
from collections import Counter, defaultdict
from pathlib import Path

# layer -> (module, wrapped functions)
LAYERS = {
    "cli.main": ("cli", ["main"]),
    "descriptors.parse": ("descriptors", [
        "group_from_descriptor", "hom_from_descriptor",
        "amalgam_from_descriptor", "target_from_descriptor",
        "lie_datum_from_descriptor"]),
    "groups.build": ("groups", [
        "cyclic", "dihedral", "symmetric", "alternating", "heisenberg",
        "semidirect", "direct_product", "group_from_table"]),
    "characters.table": ("characters", ["character_table"]),
    "characters.fin_check": ("characters", ["fin_check"]),
    "characters.restriction": ("characters", [
        "restriction_matrix", "restriction_multiplicity",
        "clifford_multiplicity"]),
    "characters.equalizer": ("characters", ["equalizer_witness"]),
    "zmat.closure": ("zmat", ["generated_group"]),
    "zmat.snf": ("zmat", ["smith_normal_form", "element_order"]),
    "amalgam.pseudometric": ("amalgam", ["coproduct_pseudometric"]),
    "amalgam.normal_form": ("amalgam", ["normal_form"]),
    "amalgam.split_check": ("amalgam", ["split_decomposition_check"]),
    "lie.verdict": ("lie", [
        "lie_center", "compactness_conditions", "largest_compact_verdict"]),
    "soundness.verdict": ("soundness", ["soundness_verdict"]),
    "cache.load": ("cache", ["load_table"]),
}

def _table_done(tracer, args, kwargs, table):
    tracer.counts["characters.classes"] += table.n_classes
    tracer.prime_max = max(tracer.prime_max, table.prime)


def _closure_done(tracer, args, kwargs, result):
    tracer.counts["zmat.closure_elements"] += (
        result.order if result.finite else result.witness_count)


def _pseudometric_done(tracer, args, kwargs, result):
    word = args[2] if len(args) > 2 else kwargs["word"]
    n = len(word)
    tracer.counts["amalgam.dp_intervals"] += n * (n + 1) // 2


def _load_done(tracer, args, kwargs, table):
    tracer.counts["cache.hits"] += table is not None


HOOKS = {
    "characters.table": _table_done,
    "zmat.closure": _closure_done,
    "amalgam.pseudometric": _pseudometric_done,
    "cache.load": _load_done,
}


class Tracer:
    """In-memory spans; inactive (one branch per call) unless `enabled`."""

    def __init__(self):
        self.enabled = False
        self.request_id = None
        self.spans: list[tuple] = []
        self.self_seconds: dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.prime_max = 0
        self._stack: list[list] = []  # [span id, seconds covered by children]
        self._next_id = 0

    def install(self) -> None:
        """Wrap every LAYERS function and rebind it in every bohrsound module."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None
                   and (name == "bohrsound" or name.startswith("bohrsound."))]
        by_name = {m.__name__: m for m in modules}
        wrappers = {}
        for layer, (module, names) in LAYERS.items():
            mod = by_name[f"bohrsound.{module}"]
            for name in names:
                original = getattr(mod, name)
                wrappers[original] = self._wrap(layer, f"{module}.{name}",
                                                original, HOOKS.get(layer))
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if isinstance(value, types.FunctionType) and value in wrappers:
                    setattr(mod, attr, wrappers[value])

    def _wrap(self, layer, name, fn, hook):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tracer.enabled:
                return fn(*args, **kwargs)
            result = tracer._span(layer, name, fn, args, kwargs)
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return traced

    def _span(self, layer, name, fn, args, kwargs):
        parent = self._stack[-1] if self._stack else None
        frame = [self._next_id, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._stack.pop()
            if parent is not None:
                parent[1] += end - start
            if layer is not None:
                self.self_seconds[layer] += end - start - frame[1]
                self.calls[layer] += 1
            self.spans.append((frame[0], parent[0] if parent else None, name,
                               start, end, self.request_id))

    def request(self, request_id: int, label: str, call):
        """Run one request under a root span that its layer spans share."""
        self.request_id = request_id
        self.enabled = True
        try:
            return self._span(None, f"request:{label}", call, (), {})
        finally:
            self.enabled = False

    def metrics(self, passes: int) -> dict[str, float]:
        """Self times and counts per traced pass over the deck, averaged
        over the traced passes (without the trace.* throughput rows); a
        layer the workload never calls reads 0."""
        def ms(layer):
            return self.self_seconds[layer] * 1000.0 / passes

        def per_pass(value):
            return value / passes

        loads = self.calls["cache.load"]
        return {
            "cli.main_ms": ms("cli.main"),
            "cli.stdout_bytes": per_pass(self.counts["cli.stdout_bytes"]),
            "descriptors.parse_ms": ms("descriptors.parse"),
            "groups.build_ms": ms("groups.build"),
            "groups.build_calls": per_pass(self.calls["groups.build"]),
            "characters.table_ms": ms("characters.table"),
            "characters.table_calls": per_pass(self.calls["characters.table"]),
            "characters.classes": per_pass(self.counts["characters.classes"]),
            "characters.prime_max": self.prime_max,
            "characters.fin_check_ms": ms("characters.fin_check"),
            "characters.restriction_ms": ms("characters.restriction"),
            "characters.equalizer_ms": ms("characters.equalizer"),
            "zmat.closure_ms": ms("zmat.closure"),
            "zmat.closure_elements": per_pass(
                self.counts["zmat.closure_elements"]),
            "zmat.snf_ms": ms("zmat.snf"),
            "amalgam.pseudometric_ms": ms("amalgam.pseudometric"),
            "amalgam.dp_intervals": per_pass(
                self.counts["amalgam.dp_intervals"]),
            "amalgam.normal_form_ms": ms("amalgam.normal_form"),
            "amalgam.normal_form_calls": per_pass(
                self.calls["amalgam.normal_form"]),
            "amalgam.split_check_ms": ms("amalgam.split_check"),
            "lie.verdict_ms": ms("lie.verdict"),
            "soundness.verdict_ms": ms("soundness.verdict"),
            "cache.load_ms": ms("cache.load"),
            "cache.hit_ratio": (self.counts["cache.hits"] / loads
                                if loads else 0.0),
        }

    def write(self, path: Path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            for span_id, parent, name, start, end, request in self.spans:
                fh.write(json.dumps({"id": span_id, "parent": parent,
                                     "name": name, "start": start, "end": end,
                                     "request": request}) + "\n")
