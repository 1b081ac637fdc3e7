"""Per-layer attribution for the traced run, from outside the program.

The tracer wraps the public callables that ``repro.api.engine`` calls into
and records, per layer, how often they ran and their *self time*: the span's
duration minus the part covered by nested spans of any layer.  Wrappers are
installed only around the traced sweep and removed right after it, so the
untraced sweeps run the program's own code objects.

``api.engine`` is not wrapped: it is the remainder of the sweep wall that no
named layer accounts for (job plumbing, instance building, record assembly,
chunk merging), and ``trace.coverage`` is the share the named layers cover.
"""

from __future__ import annotations

import functools
import time
from contextlib import contextmanager

#: Named layers, in report order.
LAYERS = (
    "core.metrics",
    "core.validation",
    "simulator.kernel",
    "heuristics.order",
    "api.results",
    "api.registry",
    "flowshop.omim",
)

#: Names bound in ``repro.api.engine`` and the layer each one enters.
ENGINE_BINDINGS = (
    ("evaluate", "core.metrics"),
    ("check_schedule", "core.validation"),
    ("simulate_batched_outcomes", "simulator.kernel"),
    ("omim_makespan", "flowshop.omim"),
    ("resolve_solvers", "api.registry"),
)

#: Result-container methods the sweep engine calls, in memory and spilled.
RESULT_METHODS = (
    ("ResultSet", "concat"),
    ("ResultSet", "extend"),
    ("ResultSet", "append"),
    ("ResultSet", "open_spill"),
    ("SpilledResultSet", "append"),
    ("SpilledResultSet", "flush"),
)


def _heuristic_targets():
    """(class, method, layer) for every heuristic class of the line-up.

    ``kernel_policy`` resolves a heuristic's order (static sorts, the
    Gilmore-Gomory no-wait order, corrected start orders); ``simulate``
    runs the kernel around it.  The abstract base's ``kernel_policy``
    stays unwrapped: ``runs_on_kernel`` compares against it.
    """
    from repro.api.registry import resolve_solvers
    from repro.heuristics.base import Heuristic

    seen = set()
    for solver in resolve_solvers():
        for cls in type(solver).__mro__:
            for name, layer in (
                ("kernel_policy", "heuristics.order"),
                ("simulate", "simulator.kernel"),
            ):
                if name not in cls.__dict__ or (cls, name) in seen:
                    continue
                if cls is Heuristic and name == "kernel_policy":
                    continue
                seen.add((cls, name))
                yield cls, name, layer


class LayerTracer:
    """Call counts and self time per layer for the sweeps run while installed."""

    def __init__(self) -> None:
        self.calls = dict.fromkeys(LAYERS, 0)
        self.self_s = dict.fromkeys(LAYERS, 0.0)
        #: Child seconds of each open span, innermost last.
        self._open: list[float] = []
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, layer: str, fn):
        clock = time.perf_counter
        open_spans, calls, self_s = self._open, self.calls, self.self_s

        @functools.wraps(fn)
        def timed(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                self_s[layer] += elapsed - open_spans.pop()
                calls[layer] += 1
                if open_spans:
                    open_spans[-1] += elapsed

        return timed

    def _patch(self, owner, name: str, layer: str) -> None:
        raw = owner.__dict__[name]
        if isinstance(raw, classmethod):
            wrapped = classmethod(self._span(layer, raw.__func__))
        else:
            wrapped = self._span(layer, raw)
        self._patches.append((owner, name, raw))
        setattr(owner, name, wrapped)

    @contextmanager
    def installed(self):
        """Wrap every layer's callables for the duration of the block."""
        from repro.api import engine, results

        targets = list(_heuristic_targets())
        try:
            for name, layer in ENGINE_BINDINGS:
                self._patch(engine, name, layer)
            for cls_name, name in RESULT_METHODS:
                self._patch(getattr(results, cls_name), name, "api.results")
            for cls, name, layer in targets:
                self._patch(cls, name, layer)
            yield self
        finally:
            for owner, name, raw in reversed(self._patches):
                setattr(owner, name, raw)
            self._patches.clear()

    def report(self, wall_s: float) -> dict[str, float]:
        """Per-layer calls and self seconds, plus the engine remainder."""
        named = sum(self.self_s.values())
        out: dict[str, float] = {}
        for layer in LAYERS:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["api.engine.self_s"] = wall_s - named
        out["trace.coverage"] = named / wall_s
        return out
