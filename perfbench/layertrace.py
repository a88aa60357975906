"""Layer tracing from outside the program.

`Tracer.install` wraps public functions of `qsteenrod` and rebinds every
module namespace that holds them, so calls made through any import path are
seen.  Layer entry points record spans (name, start, end, parent, operation);
the hot helpers record only a call count and summed time, because a span per
call would cost more than the call.  Spans stay in memory until `dump`.

A span's self time is its duration minus its child spans and minus the hot
helpers called directly inside it (nested hot calls are not subtracted twice).
"""

from __future__ import annotations

import json
import os
import sys
from collections import defaultdict
from time import perf_counter

# metric prefix -> (module, attribute path) of the wrapped callable
SPANS = {
    "specialize.minor_gcd": ("qsteenrod.specialize", "minor_gcd"),
    "specialize.sparse_rank": ("qsteenrod.linalg", "sparse_rank"),
    "specialize.rational_roots": ("qsteenrod.specialize", "rational_roots"),
    "specialize.factor_over_z": ("qsteenrod.specialize", "factor_over_z"),
    "specialize.specialized_dimension": ("qsteenrod.specialize", "specialized_dimension"),
    "specialize.content_free_basis": ("qsteenrod.specialize", "content_free_basis"),
    "linalg.forward_eliminate": ("qsteenrod.linalg", "forward_eliminate"),
    "linalg.reduced_echelon": ("qsteenrod.linalg", "reduced_echelon"),
    "linalg.echelonize": ("qsteenrod.linalg", "echelonize"),
    "representations.graded_character": ("qsteenrod.representations", "graded_character"),
    "weyl.weyl_apply": ("qsteenrod.weyl", "weyl_apply"),
    "weyl.weyl_compose": ("qsteenrod.weyl", "weyl_compose"),
    "steenrod.operator_span_rank": ("qsteenrod.steenrod", "operator_span_rank"),
    "steenrod.make_pk": ("qsteenrod.steenrod", "make_pk"),
    "steenrod.dual_pk": ("qsteenrod.steenrod", "dual_pk"),
    "spaces.harm_component": ("qsteenrod.spaces", "harm_component"),
    "spaces.hit_component": ("qsteenrod.spaces", "hit_component"),
    "spaces.truncated_hit_component": ("qsteenrod.spaces", "truncated_hit_component"),
    "spaces.staircase_report": ("qsteenrod.spaces", "staircase_report"),
    "spaces.weighted_complement": ("qsteenrod.spaces", "weighted_complement"),
    "schubert.commutant_search": ("qsteenrod.schubert", "commutant_search"),
    "cli.cache.load": ("qsteenrod.cli", "SubspaceCache.load"),
    "cli.cache.store": ("qsteenrod.cli", "SubspaceCache.store"),
    "cli.render": ("qsteenrod.cli", "Report.rendered"),
}
HOT = {
    "scalars.qp_gcd": ("qsteenrod.scalars", "qp_gcd"),
    "scalars.make": ("qsteenrod.scalars", "RationalFunction.make"),
    "linalg.strip_row_gcd": ("qsteenrod.linalg", "strip_row_gcd"),
}

# Every per-layer metric, in the order BENCHMARK.json lists them.
METRICS = [
    "specialize.minor_gcd.calls", "specialize.minor_gcd.s", "specialize.minor_gcd.cells",
    "linalg.forward_eliminate.calls", "linalg.forward_eliminate.s",
    "linalg.forward_eliminate.self_s", "linalg.forward_eliminate.cells",
    "linalg.forward_eliminate.out_max_qdeg", "linalg.forward_eliminate.out_max_bits",
    "linalg.reduced_echelon.self_s",
    "linalg.strip_row_gcd.calls", "linalg.strip_row_gcd.s",
    "linalg.echelonize.calls",
    "scalars.qp_gcd.calls", "scalars.qp_gcd.s", "scalars.make.calls",
    "representations.graded_character.s",
    "weyl.weyl_apply.calls", "weyl.weyl_apply.s",
    "weyl.weyl_compose.calls", "weyl.weyl_compose.s",
    "steenrod.operator_span_rank.s", "steenrod.make_pk.calls", "steenrod.dual_pk.calls",
    "spaces.harm_component.calls", "spaces.harm_component.s",
    "spaces.hit_component.calls", "spaces.hit_component.s",
    "spaces.truncated_hit_component.s", "spaces.staircase_report.s",
    "spaces.weighted_complement.s",
    "specialize.sparse_rank.s", "specialize.rational_roots.s",
    "specialize.factor_over_z.s", "specialize.specialized_dimension.s",
    "specialize.content_free_basis.s", "schubert.commutant_search.s",
    "cli.cache.load.calls", "cli.cache.load.s", "cli.cache.store.s",
    "cli.cache.hits", "cli.cache.misses", "cli.cache.bytes", "cli.render.s",
]


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *parents, name = path.split(".")
    for part in parents:
        owner = getattr(owner, part)
    return owner, name


def _max_qdeg_bits(rows) -> tuple[int, int]:
    qdeg = bits = 0
    for row in rows:
        for value in row.values():
            qdeg = max(qdeg, len(value) - 1)
            for c in value:
                bits = max(bits, abs(c).bit_length())
    return qdeg, bits


class Tracer:
    def __init__(self):
        # span: [op, id, parent id, name, start, end, child seconds]
        self.spans: list[list] = []
        self.op = 0
        self._stack: list[list] = []
        self._hot_depth = [0]
        self.hot = {name: [0, 0.0] for name in HOT}  # name -> [calls, seconds]
        self.tallies: dict[str, int] = defaultdict(int)  # sizes and cache counts
        self._patched: list[tuple[object, str, object]] = []

    # -- wrappers --------------------------------------------------------

    def _span(self, name, fn, after=None):
        spans, stack = self.spans, self._stack

        def wrapper(*args, **kwargs):
            rec = [self.op, len(spans), stack[-1][1] if stack else None, name, 0.0, 0.0, 0.0]
            spans.append(rec)
            stack.append(rec)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                rec[4], rec[5] = start, end
                if stack:
                    stack[-1][6] += end - start
            if after is not None:
                after(args, result)
            return result

        return wrapper

    def _hot(self, name, fn):
        acc, depth, stack = self.hot[name], self._hot_depth, self._stack

        def wrapper(*args, **kwargs):
            depth[0] += 1
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = perf_counter() - start
                depth[0] -= 1
                acc[0] += 1
                acc[1] += elapsed
                if depth[0] == 0 and stack:
                    stack[-1][6] += elapsed

        return wrapper

    # -- size and cache counters, taken after the wrapped call returns ----

    def _after_eliminate(self, args, result):
        rows, ncols = args[0], args[1]
        t = self.tallies
        t["linalg.forward_eliminate.cells"] += len(rows) * ncols
        qdeg, bits = _max_qdeg_bits(result[1])
        t["linalg.forward_eliminate.out_max_qdeg"] = max(t["linalg.forward_eliminate.out_max_qdeg"], qdeg)
        t["linalg.forward_eliminate.out_max_bits"] = max(t["linalg.forward_eliminate.out_max_bits"], bits)

    def _after_minor_gcd(self, args, result):
        rows, ncols = args[0], args[1]
        self.tallies["specialize.minor_gcd.cells"] += len(rows) * ncols

    def _after_load(self, args, result):
        self.tallies["cli.cache.misses" if result is None else "cli.cache.hits"] += 1

    def _after_store(self, args, result):
        cache, key = args[0], args[1]
        self.tallies["cli.cache.bytes"] += os.path.getsize(cache._path(key))

    # -- installation ----------------------------------------------------

    def install(self) -> None:
        """Wrap every listed callable wherever a qsteenrod module binds it."""
        after = {
            "linalg.forward_eliminate": self._after_eliminate,
            "specialize.minor_gcd": self._after_minor_gcd,
            "cli.cache.load": self._after_load,
            "cli.cache.store": self._after_store,
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "qsteenrod" or name.startswith("qsteenrod.")]
        targets = [(n, t, False) for n, t in SPANS.items()] + [(n, t, True) for n, t in HOT.items()]
        for name, (module, path), hot in targets:
            owner, attr = _resolve(module, path)
            raw = vars(owner)[attr]
            static = isinstance(raw, staticmethod)
            fn = raw.__func__ if static else raw
            wrapped = self._hot(name, fn) if hot else self._span(name, fn, after.get(name))
            if isinstance(owner, type):  # a method: patch the class only
                self._patch(owner, attr, staticmethod(wrapped) if static else wrapped)
                continue
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is fn:
                        self._patch(mod, key, wrapped)

    def _patch(self, owner, key: str, value) -> None:
        self._patched.append((owner, key, owner.__dict__[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        """Put every original callable back."""
        while self._patched:
            owner, key, original = self._patched.pop()
            setattr(owner, key, original)

    # -- results ---------------------------------------------------------

    def reset_round(self) -> None:
        """Start counting a new round; spans stay for `dump`."""
        for acc in self.hot.values():
            acc[0], acc[1] = 0, 0.0
        self.tallies.clear()

    def round_metrics(self, ops: set[int]) -> dict[str, float]:
        """Per-layer metrics over the spans of the given operations."""
        spans = [s for s in self.spans if s[0] in ops]
        by_id = {s[1]: s for s in spans}
        calls: dict[str, int] = defaultdict(int)
        total: dict[str, float] = defaultdict(float)
        self_s: dict[str, float] = defaultdict(float)
        for s in spans:
            name, duration = s[3], s[5] - s[4]
            calls[name] += 1
            self_s[name] += duration - s[6]
            parent = by_id.get(s[2])
            while parent is not None and parent[3] != name:
                parent = by_id.get(parent[2])
            if parent is None:  # outermost span of this name: no double count
                total[name] += duration
        out: dict[str, float] = {}
        for metric in METRICS:
            layer, quantity = metric.rsplit(".", 1)
            if layer in self.hot and quantity in ("calls", "s"):
                out[metric] = self.hot[layer][0 if quantity == "calls" else 1]
            elif quantity == "calls":
                out[metric] = calls[layer]
            elif quantity == "s":
                out[metric] = total[layer]
            elif quantity == "self_s":
                out[metric] = self_s[layer]
            else:
                out[metric] = self.tallies[metric]
        return out

    def root_seconds(self, op: int) -> float:
        """Time of an operation covered by its outermost spans."""
        return sum(s[5] - s[4] for s in self.spans if s[0] == op and s[2] is None)

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump({"fields": ["op", "id", "parent", "name", "start", "end", "child_s"],
                       "spans": self.spans}, handle)
