"""Span recorder for the traced benchmark run.

The recorder wraps the layer functions of ttpack at the place their
callers look them up (the from-imports in ``ttpack.cli`` and
``ttpack.pipeline``, and ``ttpack.packing.enumerate_copies``, which
``max_packing_exact`` reads from its own module).  Spans stay in memory
and are written as JSONL once the run ends.  Only the traced run
installs the wrappers; end-to-end figures are always taken unwrapped.
"""

from __future__ import annotations

import functools
import json
from time import perf_counter

# Function names wrapped in each module; a span is named
# "<defining module>.<function>", e.g. "tournament.census".  Cheap helpers
# such as edge_index are left alone: their per-call work is smaller than a
# wrapper's, so wrapping them would mostly measure the tracer.
WRAPPED = {
    "ttpack.cli": (
        "enumerate_codes",
        "max_packing_exact",
        "verify_packing",
        "census",
        "f_min",
        "verify_t7_thresholds",
        "decomposition_pipeline",
    ),
    "ttpack.pipeline": ("enumerate_codes", "max_packing_exact", "verify_packing", "census", "induced"),
    "ttpack.packing": ("enumerate_copies",),
}


def _attrs(name: str, args: tuple, result) -> dict | None:
    """Exact counts read off a layer call, kept on its span."""
    if name == "enumeration.enumerate_codes":
        return {"n": args[0], "codes": len(result)}
    if name == "packing.max_packing_exact":
        return {"nodes": result.nodes_explored, "optimal": result.optimal}
    if name == "packing.enumerate_copies":
        return {"copies": len(result.copies)}
    return None


class Tracer:
    """Records one span per wrapped call: name, start, end, ids and command."""

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self.command = 0
        self._stack: list[int] = []
        self._next_id = 1
        self._installed: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, *args, **kwargs):
        """Call fn inside a span named name and return its result."""
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1] if self._stack else 0
        self._stack.append(sid)
        record = {"name": name, "start": perf_counter(), "span": sid, "parent": parent, "command": self.command}
        try:
            result = fn(*args, **kwargs)
            record.update(_attrs(name, args, result) or {})
            return result
        finally:
            record["end"] = perf_counter()
            self._stack.pop()
            self.spans.append(record)

    def install(self, modules: dict) -> None:
        for module_name, functions in WRAPPED.items():
            module = modules[module_name]
            for fn_name in functions:
                original = getattr(module, fn_name)
                span_name = f"{original.__module__.rsplit('.', 1)[-1]}.{fn_name}"
                setattr(module, fn_name, self._wrap(span_name, original))
                self._installed.append((module, fn_name, original))

    def uninstall(self) -> None:
        for module, fn_name, original in reversed(self._installed):
            setattr(module, fn_name, original)
        self._installed.clear()

    def _wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.span(name, fn, *args, **kwargs)

        return traced

    def write_jsonl(self, path: str) -> None:
        origin = min((s["start"] for s in self.spans), default=0.0)
        with open(path, "w", encoding="utf-8") as fh:
            for s in self.spans:
                fh.write(json.dumps({**s, "start": s["start"] - origin, "end": s["end"] - origin}) + "\n")


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the part of it covered by child spans."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        children.setdefault(s["parent"], []).append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered = 0.0
        reach = s["start"]
        for start, end in sorted(children.get(s["span"], ())):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["span"]] = (s["end"] - s["start"]) - covered
    return out
