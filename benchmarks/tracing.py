"""Span tracer for the benchmark, installed around saranfk's layers from outside.

Spans nest as workload -> (identity, q) -> point -> side -> engine call.  The
benchmark opens the outer spans itself; engine-call spans come from wrappers
that replace every function of the engine modules (series, qkernels,
measures, core) in every saranfk module namespace, plus the public methods
of the classes those modules define.  A call from one engine layer into the
same layer passes straight through, so each span is an entry into a layer
from outside it and counts are not inflated by internal recursion.

Engine-call spans are aggregated into per-layer counters and per-span child
totals as they close; the outer spans are kept whole and written out by
`Tracer.dump`.
"""

from __future__ import annotations

import functools
import json
import sys
import time
import types

import numpy as np

LAYERS = ("series", "qkernels", "measures", "core")


def _terms_and_convergence(result):
    """(terms, converged) for an engine result, or None for other returns.

    Public engines return a SeriesResult; the routing helpers the identity
    evaluators call directly return (value, terms, converged, est) tuples.
    """
    if hasattr(result, "terms_used") and hasattr(result, "converged"):
        return int(result.terms_used), bool(result.converged)
    if (
        isinstance(result, tuple)
        and len(result) == 4
        and isinstance(result[1], (int, np.integer))
        and isinstance(result[2], (bool, np.bool_))
    ):
        return int(result[1]), bool(result[2])
    return None


def _node_count(result) -> int:
    """Quadrature nodes in a measures result: a (nodes, weights) pair or a
    QuadratureRule."""
    nodes = getattr(result, "nodes", None)
    if nodes is not None:
        return int(np.size(nodes))
    if isinstance(result, tuple) and len(result) == 2 and isinstance(result[0], np.ndarray):
        return int(result[0].size)
    return 0


class Tracer:
    """In-memory span recorder with per-layer counters."""

    def __init__(self):
        self.spans: list[dict] = []
        # Active frames: [span dict or None, layer or None, start, child seconds].
        self._stack: list[list] = []
        self.layer = {
            name: {"calls": 0, "self_s": 0.0, "terms": 0, "unconverged": 0, "nodes": 0}
            for name in LAYERS
        }
        self.registry = {"sample_s": 0.0, "points": 0}
        self._patched: list[tuple[object, str, object]] = []

    # -- outer spans -------------------------------------------------------

    def open(self, name: str, **attrs) -> dict:
        parent = self._stack[-1][0]["id"] if self._stack else None
        span = {"id": len(self.spans), "parent": parent, "name": name, **attrs,
                "start": time.perf_counter(), "end": None, "engine": {}}
        self.spans.append(span)
        self._stack.append([span, None, span["start"], 0.0])
        return span

    def close(self, span: dict) -> None:
        frame = self._stack.pop()
        if frame[0] is not span:
            raise RuntimeError(f"span {span['name']} closed out of order")
        span["end"] = time.perf_counter()
        if self._stack:
            self._stack[-1][3] += span["end"] - span["start"]

    # -- engine calls ------------------------------------------------------

    def _call(self, layer: str, fn, args, kwargs):
        start = time.perf_counter()
        frame = [None, layer, start, 0.0]
        self._stack.append(frame)
        try:
            result = fn(*args, **kwargs)
        finally:
            self._stack.pop()
            dur = time.perf_counter() - start
            stats = self.layer[layer]
            stats["calls"] += 1
            stats["self_s"] += dur - frame[3]
            if self._stack:
                parent = self._stack[-1]
                parent[3] += dur
                if parent[0] is not None:
                    agg = parent[0]["engine"].setdefault(layer, [0, 0.0])
                    agg[0] += 1
                    agg[1] += dur
        tc = _terms_and_convergence(result)
        if tc is not None and layer in ("series", "qkernels"):
            stats["terms"] += tc[0]
            stats["unconverged"] += not tc[1]
        if layer == "measures":
            stats["nodes"] += _node_count(result)
        return result

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == layer:
                return fn(*args, **kwargs)
            return tracer._call(layer, fn, args, kwargs)

        return traced

    def _wrap_sampler(self, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            start = time.perf_counter()
            points = fn(*args, **kwargs)
            tracer.registry["sample_s"] += time.perf_counter() - start
            tracer.registry["points"] += len(points)
            return points

        return traced

    def _set(self, owner, name: str, value) -> None:
        self._patched.append((owner, name, getattr(owner, name)))
        setattr(owner, name, value)

    def install(self) -> None:
        """Replace the engine functions and the registry sampler with traced
        wrappers wherever saranfk modules reference them."""
        modules = {n: m for n, m in sys.modules.items()
                   if n == "saranfk" or n.startswith("saranfk.")}
        layer_of = {f"saranfk.{name}": name for name in LAYERS}
        wrappers: dict[int, object] = {}
        for mod in modules.values():
            for name, value in list(vars(mod).items()):
                if not isinstance(value, types.FunctionType) or name.startswith("__"):
                    continue
                layer = layer_of.get(value.__module__)
                if layer is None:
                    continue
                if id(value) not in wrappers:
                    wrappers[id(value)] = self._wrap(layer, value)
                self._set(mod, name, wrappers[id(value)])
        for modname, layer in layer_of.items():
            for cls in list(vars(modules[modname]).values()):
                if not isinstance(cls, type) or cls.__module__ != modname:
                    continue
                for name, value in list(vars(cls).items()):
                    if isinstance(value, types.FunctionType) and (
                        not name.startswith("_") or name == "__call__"
                    ):
                        self._set(cls, name, self._wrap(layer, value))
        registry = modules["saranfk.registry"]
        sampler = self._wrap_sampler(registry.sample_parameters)
        for mod in modules.values():
            if getattr(mod, "sample_parameters", None) is registry.sample_parameters:
                self._set(mod, "sample_parameters", sampler)

    def uninstall(self) -> None:
        for owner, name, value in reversed(self._patched):
            setattr(owner, name, value)
        self._patched.clear()

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False

    # -- results -----------------------------------------------------------

    def layer_metrics(self) -> dict:
        out = {}
        for layer, stats in self.layer.items():
            out[f"{layer}.calls"] = (stats["calls"], "count")
            out[f"{layer}.self_s"] = (stats["self_s"], "s")
            if layer in ("series", "qkernels"):
                out[f"{layer}.terms"] = (stats["terms"], "count")
                out[f"{layer}.unconverged"] = (stats["unconverged"], "count")
            if layer == "measures":
                out["measures.nodes"] = (stats["nodes"], "count")
        out["registry.sample_s"] = (self.registry["sample_s"], "s")
        out["registry.points"] = (self.registry["points"], "count")
        return out

    def side_ms(self) -> dict:
        """Median milliseconds per point for each (module, identity, side)."""
        times: dict[str, list[float]] = {}
        for span in self.spans:
            if span["name"] in ("lhs", "rhs"):
                key = f"{span['module']}.{span['identity']}.{span['name']}_ms"
                times.setdefault(key, []).append((span["end"] - span["start"]) * 1e3)
        return {key: float(np.median(v)) for key, v in times.items()}

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump({"layers": self.layer, "registry": self.registry,
                       "spans": self.spans}, fh)
