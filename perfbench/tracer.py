"""In-memory span tracer that wraps matchturan's public functions at every
binding site.

`solver`, `verifier`, `constructions` and the rest bind functions with
`from .x import f`, so patching only the defining module would miss most
calls.  `Tracer.install` replaces the function object wherever a matchturan
module holds it.  Each call becomes a span (name, parent span, start, end);
spans stay in memory and `summary()` turns them into per-layer numbers at the
end.  A span's self time is its duration minus the durations of the spans it
caused.

`enumerate_free` is a generator: its span is every resumption of the
generator, not the call that creates it, which returns at once.  Calls made
inside pool workers run in other processes and are not seen here.
"""

from __future__ import annotations

import functools
import importlib
import resource
import time

MODULES = [
    "graphs", "containment", "covering", "invariants",
    "constructions", "solver", "verifier", "cli",
]

# layer -> public functions traced in the full mode
FULL = {
    "graphs": ["canonical_form"],
    "containment": ["contains_subgraph_using_edge", "contains_subgraph", "minimalize"],
    "covering": ["family_fp", "covering_report", "p_of_f", "is_color_critical"],
    "invariants": [
        "count_cliques", "matching_number", "chromatic_number", "tutte_berge_certificate",
    ],
    "constructions": ["build_g_n_s", "build_forest_extremal", "realize"],
    "solver": ["enumerate_free", "ex_general", "ex_profile"],
    "verifier": [
        "verify_erdos_gallai", "verify_ma_hou", "verify_main_theorem_exact",
        "verify_gerbner_slope", "verify_forest_theorem", "verify_tutte_berge",
        "verify_color_critical_components", "verify_cover_family_example",
    ],
    "cli": ["main"],
}
# the enumeration-only mode, cheap enough to compare worker counts
ENUM_ONLY = {"solver": ["enumerate_free"]}

GENERATORS = {"solver.enumerate_free"}
# calls made directly by a verifier function, split by side of the comparison
BRUTE_SIDE = {"solver.ex_general", "solver.enumerate_free"}
FORMULA_SIDE = {
    "solver.ex_profile", "constructions.build_g_n_s", "constructions.build_forest_extremal",
    "covering.family_fp", "covering.covering_report", "covering.p_of_f",
    "covering.is_color_critical",
}
TRACER_SPAN = "trace.bookkeeping"


def _cpu() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Tracer:
    def __init__(self) -> None:
        # span: [name, parent index, start, end]
        self.spans: list[list] = []
        self.stack: list[int] = [-1]
        self.calls: dict[str, int] = {}
        self.hits: dict[str, int] = {}
        self.points = 0
        # one record per enumerate_free call: key, seconds, cpu, classes
        self.enumerations: list[dict] = []

    # -- spans --------------------------------------------------------------

    def _enter(self, name: str) -> int:
        idx = len(self.spans)
        self.spans.append([name, self.stack[-1], time.perf_counter(), 0.0])
        self.stack.append(idx)
        return idx

    def _exit(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        del self.stack[self.stack.index(idx):]

    def unwind(self) -> None:
        """Drop open spans after an interrupted call (a deadline)."""
        now = time.perf_counter()
        for idx in self.stack[1:]:
            self.spans[idx][3] = now
        del self.stack[1:]

    # -- wrappers -----------------------------------------------------------

    def _wrap_call(self, name: str, fn):
        calls, hits = self.calls, self.hits

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            idx = self._enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._exit(idx)
            if result is True:
                hits[name] = hits.get(name, 0) + 1
            if name.startswith("verifier."):
                self.points += len(result.points)
            return result

        return wrapper

    def _wrap_generator(self, name: str, fn, contains):
        from matchturan.graphs import to_graph6

        calls = self.calls

        def family_key(n, family):
            # (n, minimalized family) with the untraced containment test, so
            # computing the key adds no spans
            members = [m for m in family if m.n <= n]
            kept = [
                to_graph6(m) for i, m in enumerate(members)
                if not any(j != i and contains(m, o) for j, o in enumerate(members))
            ]
            return n, tuple(kept)

        @functools.wraps(fn)
        def wrapper(n, family, *args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            idx = self._enter(TRACER_SPAN)
            try:
                key = family_key(n, family)
            finally:
                self._exit(idx)
            record = {"key": key, "seconds": 0.0, "cpu": 0.0, "classes": 0}
            self.enumerations.append(record)
            it = fn(n, family, *args, **kwargs)
            try:
                while True:
                    cpu0 = _cpu()
                    idx = self._enter(name)
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._exit(idx)
                        span = self.spans[idx]
                        record["seconds"] += span[3] - span[2]
                        record["cpu"] += _cpu() - cpu0
                    record["classes"] += 1
                    yield item
            finally:
                it.close()

        return wrapper

    def install(self, layers: dict[str, list[str]]) -> None:
        modules = [importlib.import_module(f"matchturan.{m}") for m in MODULES]
        modules.append(importlib.import_module("matchturan"))
        contains = importlib.import_module("matchturan.containment").contains_subgraph
        originals = {
            f"{layer}.{fname}": getattr(importlib.import_module(f"matchturan.{layer}"), fname)
            for layer, names in layers.items()
            for fname in names
        }
        for span, original in originals.items():
            if span in GENERATORS:
                wrapped = self._wrap_generator(span, original, contains)
            else:
                wrapped = self._wrap_call(span, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, attr, wrapped)

    # -- results ------------------------------------------------------------

    def summary(self) -> dict:
        """Per-span-name calls, total and self seconds, plus the derived
        numbers the benchmark reports."""
        child = [0.0] * len(self.spans)
        for name, parent, start, end in self.spans:
            if parent >= 0:
                child[parent] += end - start
        total: dict[str, float] = {}
        self_s: dict[str, float] = {}
        brute = formula = 0.0
        under_enum_cf = 0
        for i, (name, parent, start, end) in enumerate(self.spans):
            dur = end - start
            total[name] = total.get(name, 0.0) + dur
            self_s[name] = self_s.get(name, 0.0) + dur - child[i]
            if parent >= 0 and self.spans[parent][0].startswith("verifier."):
                if name in BRUTE_SIDE:
                    brute += dur
                elif name in FORMULA_SIDE:
                    formula += dur
            if name == "graphs.canonical_form" and self._under(i, "solver.enumerate_free"):
                under_enum_cf += 1
        seen = set()
        repeats = 0
        repeat_s = 0.0
        for rec in self.enumerations:
            if rec["key"] in seen:
                repeats += 1
                repeat_s += rec["seconds"]
            seen.add(rec["key"])
        return {
            "calls": dict(self.calls),
            "hits": dict(self.hits),
            "total_s": total,
            "self_s": self_s,
            "verifier_points": self.points,
            "brute_side_s": brute,
            "formula_side_s": formula,
            "enum_calls": len(self.enumerations),
            "enum_repeats": repeats,
            "enum_repeat_s": repeat_s,
            "enum_s": sum(r["seconds"] for r in self.enumerations),
            "enum_cpu_s": sum(r["cpu"] for r in self.enumerations),
            "classes": sum(r["classes"] for r in self.enumerations),
            "enum_canonical_calls": under_enum_cf,
            "spans": len(self.spans),
        }

    def _under(self, idx: int, name: str) -> bool:
        parent = self.spans[idx][1]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][1]
        return False
