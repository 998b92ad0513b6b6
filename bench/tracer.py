"""Span tracer for the benchmark's traced run, installed from outside gvgraph.

``Tracer.install`` wraps the public functions of each gvgraph layer module
in every module namespace that holds them, so that callers which imported a
function by name (``cli`` imports ``run_algorithm1``, ``codewords`` and
``read_pchk``; ``codes`` imports ``rank`` and ``kernel_basis``) call the
wrapper too.  The two spectrum methods that dominate the descent,
``SpectrumTable.min_eigenvalue`` and ``SpectrumTable.densify``, are wrapped
on their class.  ``FqVector`` constructions are counted but not timed: a
span per vector would cost more than the vector.  The memoised
``combinat.binomial`` is not a plain function and stays unwrapped, so its
time counts toward its callers in ``combinat``.

Each call records a span ``[name, start, end, parent]`` in memory; a layer's
self time is its spans' duration minus the time covered by their child
spans.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import importlib
import inspect
import json
import time
from collections import Counter, defaultdict
from typing import Callable

LAYERS = ("cli", "bounds", "descent", "spectrum", "codes", "modq", "combinat", "vectors")

ENTRY_BYTES = 8  # computed bytes per dense table entry: one 8-byte reference


def self_times(spans: list[list]) -> dict[str, float]:
    """Total self time per span name: duration minus the child spans it covers.

    Spans come from one thread, so children nest inside their parent and do
    not overlap each other.
    """
    covered = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            covered[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for (name, start, end, _), child in zip(spans, covered):
        out[name] += end - start - child
    return out


class Tracer:
    def __init__(self, clock: Callable[[], float] = time.perf_counter) -> None:
        self.clock = clock
        self.spans: list[list] = []
        self.counts: Counter[str] = Counter()
        self.max_dense = 0
        self._stack = [-1]
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, name: str, fn: Callable, on_return: Callable | None = None) -> Callable:
        spans, stack, clock = self.spans, self._stack, self.clock

        def traced(*args, **kwargs):
            idx = len(spans)
            rec = [name, 0.0, 0.0, stack[-1]]
            spans.append(rec)
            stack.append(idx)
            rec[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = clock()
                stack.pop()
            if on_return is not None:
                on_return(args, result)
            return result

        return traced

    def _patch(self, owner: object, attr: str, value: object) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def _dense_built(self, table) -> None:
        self.counts["spectrum.dense_entries"] += len(table.values)
        self.max_dense = max(self.max_dense, len(table.values))

    def _on_scan(self, args, result) -> None:
        table = args[0]
        scanned = table.values if table.values is not None else table.weight_values
        self.counts["spectrum.entries_scanned"] += len(scanned) - 1

    def _on_densify(self, args, result) -> None:
        if result is not args[0]:
            self._dense_built(result)

    def _on_descend(self, args, result) -> None:
        self.counts["descent.entries_averaged"] += args[0].size
        self._dense_built(result)

    def _on_codewords(self, args, result) -> None:
        self.counts["codes.words_enumerated"] += len(result)

    def install(self) -> None:
        modules = {layer: importlib.import_module(f"gvgraph.{layer}") for layer in LAYERS}
        namespaces = list(modules.values()) + [importlib.import_module("gvgraph")]
        hooks = {
            "descent.spectrum_descend": self._on_descend,
            "codes.codewords": self._on_codewords,
        }
        for layer, module in modules.items():
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                traced = self.wrap(f"{layer}.{attr}", fn, hooks.get(f"{layer}.{attr}"))
                for ns in namespaces:
                    for name, value in list(vars(ns).items()):
                        if value is fn:
                            self._patch(ns, name, traced)
        table_cls = modules["spectrum"].SpectrumTable
        self._patch(table_cls, "min_eigenvalue", self.wrap("spectrum.scan", table_cls.min_eigenvalue, self._on_scan))
        self._patch(table_cls, "densify", self.wrap("spectrum.densify", table_cls.densify, self._on_densify))

        vector_cls = modules["vectors"].FqVector
        post_init, counts = vector_cls.__post_init__, self.counts

        def counted_post_init(vec) -> None:
            counts["vectors.fqvector_created"] += 1
            post_init(vec)

        self._patch(vector_cls, "__post_init__", counted_post_init)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            for rec in self.spans:
                handle.write(json.dumps(rec) + "\n")

    def layer_metrics(self, passes: int) -> dict[str, tuple[float, str]]:
        """Per-pass layer metrics as {name: (value, unit)}."""
        own = self_times(self.spans)
        calls = Counter(rec[0] for rec in self.spans)

        def secs(*names: str) -> float:
            return sum(own.get(n, 0.0) for n in names) / passes

        def count(value: int) -> float:
            return value / passes

        metrics = {
            "descent.average_s": (secs("descent.spectrum_descend"), "s"),
            "descent.pivot_s": (secs("descent.select_pivot"), "s"),
            "descent.run_s": (secs("descent.run_algorithm1"), "s"),
            "descent.levels": (count(calls["descent.spectrum_descend"]), "count"),
            "descent.entries_averaged": (count(self.counts["descent.entries_averaged"]), "count"),
            "spectrum.scan_s": (secs("spectrum.scan", "spectrum.min_eigenvalue"), "s"),
            "spectrum.scan_calls": (count(calls["spectrum.scan"]), "count"),
            "spectrum.entries_scanned": (count(self.counts["spectrum.entries_scanned"]), "count"),
            "spectrum.densify_s": (secs("spectrum.densify"), "s"),
            "spectrum.level0_s": (secs("spectrum.build_spectrum_level0", "spectrum.eigenvalue_level0"), "s"),
            "spectrum.dense_entries": (count(self.counts["spectrum.dense_entries"]), "count"),
            "spectrum.dense_bytes": (float(ENTRY_BYTES * self.max_dense), "B-computed"),
            "codes.enumerate_s": (secs("codes.codewords"), "s"),
            "codes.words_enumerated": (count(self.counts["codes.words_enumerated"]), "count"),
            "codes.min_distance_s": (secs("codes.min_distance"), "s"),
            "codes.pchk_read_s": (secs("codes.read_pchk", "codes.parse_pchk"), "s"),
            "codes.pchk_write_s": (secs("codes.write_pchk", "codes.format_pchk"), "s"),
            "vectors.fqvector_created": (count(self.counts["vectors.fqvector_created"]), "count"),
            "modq.rref_s": (secs("modq.rref"), "s"),
            "modq.rref_calls": (count(calls["modq.rref"]), "count"),
            "modq.kernel_basis_s": (secs("modq.kernel_basis"), "s"),
            "combinat.is_prime_s": (secs("combinat.is_prime"), "s"),
            "combinat.is_prime_calls": (count(calls["combinat.is_prime"]), "count"),
            "combinat.krawtchouk_s": (secs("combinat.krawtchouk"), "s"),
            "combinat.ball_volume_s": (secs("combinat.ball_volume"), "s"),
            "combinat.entropy_q_s": (secs("combinat.entropy_q"), "s"),
            "bounds.report_s": (secs("bounds.build_bound_report"), "s"),
            "bounds.asymptotic_gv_s": (secs("bounds.asymptotic_gv"), "s"),
            "cli.ops": (count(calls["cli.main"]), "count"),
        }
        for layer in LAYERS[:-1]:
            metrics[f"{layer}.self_s"] = (secs(*(n for n in own if n.startswith(layer + "."))), "s")
        return metrics
