"""Spans and counters recorded around calls into frobring, from outside it.

``Tracer.install()`` swaps the library's public functions for wrappers
that open a span per call, and its hot inner calls (ring kernels,
cyclotomic reduction, generating checks) for wrappers that only count
calls and time.  Counts are attributed to the innermost open span.
Nothing under ``src/`` is edited, and with the tracer not installed the
library runs untouched.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import sys
from contextlib import contextmanager
from time import perf_counter

# (module, function, span name).  Each function is replaced in every
# frobring module that holds a reference to it, so calls through names
# imported with ``from .x import y`` are traced too.
SPANNED = [
    ("rings", "build_zmod", "rings.build"),
    ("rings", "build_gf", "rings.build"),
    ("rings", "build_matrix_ring", "rings.build"),
    ("rings", "build_product", "rings.build"),
    ("rings", "build_table_ring", "rings.build"),
    ("rings", "load_table_spec", "rings.build"),
    ("rings", "validate_tables", "rings.validate_tables"),
    ("characters", "canonical_generating_character", "characters.canonical"),
    ("characters", "search_generating_character", "characters.search"),
    ("characters", "all_generating_characters", "characters.all_generating"),
    ("weights", "weight_table", "weights.table"),
    ("partitions", "hom_partition", "partitions.build"),
    ("partitions", "partition_from_weight", "partitions.build"),
    ("partitions", "rank_partition", "partitions.build"),
    ("partitions", "symmetrized_power_partition", "partitions.build"),
    ("partitions", "is_invariant", "partitions.invariant"),
    ("duality", "krawtchouk_table", "duality.krawtchouk"),
    ("duality", "dual_partition", "duality.group"),
    ("duality", "is_reflexive", "duality.reflexive"),
    ("cli", "main", "cli.main"),
]
KERNEL_METHODS = ("mul_row", "mul_col", "add_row")


class Tracer:
    """In-memory span tree plus counters, for one traced pass at a time."""

    def __init__(self):
        self._kernel_depth = 0
        self._undo: list = []
        self.reset()

    # -- recording ---------------------------------------------------------

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1]["id"] if self._stack else None
        rec = {"id": len(self.spans), "name": name, "parent": parent,
               "start": perf_counter(), "end": None, "counts": {}}
        self.spans.append(rec)
        self._stack.append(rec)
        try:
            yield rec
        finally:
            rec["end"] = perf_counter()
            self._stack.pop()

    def count(self, key: str, n: float = 1) -> None:
        counts = self._stack[-1]["counts"] if self._stack else self._loose
        counts[key] = counts.get(key, 0) + n

    def reset(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[dict] = []
        self._loose: dict = {}

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        """Wrap the library; undone by :meth:`uninstall`."""
        import frobring.cli  # noqa: F401  (loads every library module)
        import frobring.cyclotomic
        import frobring.rings

        self.reset()
        for mod, fn, name in SPANNED:
            orig = getattr(sys.modules[f"frobring.{mod}"], fn)
            self._replace(orig, self._spanned(orig, name))
        self._replace(frobring.cyclotomic.from_exponent_counts,
                      self._timed_counter(frobring.cyclotomic.from_exponent_counts,
                                          "cyclotomic.reduce"))
        chars = sys.modules["frobring.characters"]
        self._replace(chars.is_generating, self._generating_counter(chars.is_generating))
        ring_cls = frobring.rings.FiniteRing
        self._patch_attr(ring_cls, "describe",
                         self._spanned(ring_cls.describe, "rings.structure"))
        for meth in KERNEL_METHODS:
            self._patch_attr(ring_cls, meth, self._kernel(getattr(ring_cls, meth)))

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _patch_attr(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _replace(self, orig, wrapper) -> None:
        for modname, module in list(sys.modules.items()):
            if modname != "frobring" and not modname.startswith("frobring."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    self._patch_attr(module, attr, wrapper)

    def _spanned(self, fn, name):
        tracer = self

        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        wrapper.__wrapped__ = fn
        return wrapper

    def _timed_counter(self, fn, key):
        tracer = self

        def wrapper(*args, **kwargs):
            start = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                tracer.count(key + "_s", perf_counter() - start)
                tracer.count(key + "_calls")

        wrapper.__wrapped__ = fn
        return wrapper

    def _kernel(self, method):
        tracer = self

        def wrapper(ring, *args, **kwargs):
            # product rings call their factors' kernels: count the outer call only
            if tracer._kernel_depth:
                return method(ring, *args, **kwargs)
            tracer._kernel_depth += 1
            start = perf_counter()
            try:
                return method(ring, *args, **kwargs)
            finally:
                tracer._kernel_depth -= 1
                tracer.count("rings.kernel_s", perf_counter() - start)
                tracer.count("rings.kernel_calls")

        wrapper.__wrapped__ = method
        return wrapper

    def _generating_counter(self, fn):
        tracer = self

        def wrapper(char):
            fresh = getattr(char, "_generating", None) is None
            result = fn(char)
            if fresh:
                tracer.count("characters.generating_checks")
                if result:
                    tracer.count("characters.generating_hits")
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    # -- summaries ---------------------------------------------------------

    def duration(self, rec: dict) -> float:
        return rec["end"] - rec["start"]

    def inclusive_s(self, name: str) -> float:
        """Time in spans of this name, counting nested same-name spans once."""
        by_id = {s["id"]: s for s in self.spans}
        total = 0.0
        for s in self.spans:
            if s["name"] != name:
                continue
            parent = s["parent"]
            nested = False
            while parent is not None:
                if by_id[parent]["name"] == name:
                    nested = True
                    break
                parent = by_id[parent]["parent"]
            if not nested:
                total += self.duration(s)
        return total

    def self_s(self, name: str) -> float:
        """Time in spans of this name not covered by their child spans."""
        child_time: dict[int, float] = {}
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] = child_time.get(s["parent"], 0.0) + self.duration(s)
        return sum((self.duration(s) - child_time.get(s["id"], 0.0)
                    for s in self.spans if s["name"] == name), 0.0)

    def counted(self, key: str, prefix: str = "") -> float:
        """Sum of a counter over spans whose name starts with ``prefix``."""
        total = sum(s["counts"].get(key, 0) for s in self.spans
                    if s["name"].startswith(prefix))
        if not prefix:
            total += self._loose.get(key, 0)
        return total

    def krawtchouk_reductions(self) -> list[int]:
        """Reduction calls of each Krawtchouk table computed (cache misses)."""
        return [s["counts"]["cyclotomic.reduce_calls"] for s in self.spans
                if s["name"] == "duality.krawtchouk"
                and s["counts"].get("cyclotomic.reduce_calls")]

    def layer_metrics(self) -> dict[str, float]:
        """The per-layer metrics of one traced pass, keyed by metric name."""
        search_tries = self.counted("characters.generating_checks", "characters.search")
        search_hits = self.counted("characters.generating_hits", "characters.search")
        return {
            "rings.build_s": self.inclusive_s("rings.build"),
            "rings.validate_tables_s": self.inclusive_s("rings.validate_tables"),
            "rings.structure_s": self.inclusive_s("rings.structure"),
            "rings.kernel_calls": self.counted("rings.kernel_calls"),
            "rings.kernel_s": self.counted("rings.kernel_s"),
            "rings.structure.kernel_calls": self.counted("rings.kernel_calls",
                                                         "rings.structure"),
            "characters.kernel_calls": self.counted("rings.kernel_calls", "characters."),
            "weights.kernel_calls": self.counted("rings.kernel_calls", "weights."),
            "partitions.kernel_calls": self.counted("rings.kernel_calls", "partitions."),
            "duality.kernel_calls": self.counted("rings.kernel_calls", "duality."),
            "characters.canonical_s": self.inclusive_s("characters.canonical"),
            "characters.generating_checks": self.counted("characters.generating_checks"),
            "characters.search_s": self.inclusive_s("characters.search"),
            "characters.search_tries": search_tries,
            "characters.search_hit_ratio": search_hits / search_tries if search_tries else 0.0,
            "characters.all_generating_s": self.inclusive_s("characters.all_generating"),
            "weights.table_s": self.inclusive_s("weights.table"),
            "partitions.build_s": self.inclusive_s("partitions.build"),
            "partitions.invariant_s": self.inclusive_s("partitions.invariant"),
            "duality.krawtchouk_s": self.inclusive_s("duality.krawtchouk"),
            "duality.tables": len(self.krawtchouk_reductions()),
            "duality.group_s": self.self_s("duality.group"),
            "duality.reflexive_s": self.inclusive_s("duality.reflexive"),
            "cyclotomic.reduce_calls": self.counted("cyclotomic.reduce_calls"),
            "cyclotomic.reduce_s": self.counted("cyclotomic.reduce_s"),
            "cli.self_s": self.self_s("cli.main"),
        }

    def export(self, origin: float) -> list[dict]:
        """Spans with times in seconds from ``origin``, for the trace file."""
        return [
            {"id": s["id"], "name": s["name"], "parent": s["parent"],
             "start": s["start"] - origin, "end": s["end"] - origin,
             "counts": s["counts"]}
            for s in self.spans
        ]
