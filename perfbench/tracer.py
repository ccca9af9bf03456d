"""Trace propgraph's layers from outside the program.

``Tracer.install`` swaps every public function, and every public method of a
public class, defined in a layer module for a wrapper that records a span.
The swap happens in every ``propgraph`` namespace that holds the function
(``propgraph.pooling.recursive_ncut`` as well as
``propgraph.spectral.recursive_ncut``), so calls reach the wrapper however
the caller imported the name. ``uninstall`` puts the originals back.

Spans stay in memory until ``write``. A few functions carry a probe that
records work counts from their arguments and results; the two functions in
``MEMORY_SPANS`` also record their tracemalloc peak when the tracer was built
with ``memory=True``.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import os
import sys
import time
import tracemalloc
from typing import Callable, Optional

# Module -> layer. geometry serves the IoU graph build, so it counts as graph.
LAYERS = {
    "propgraph.io": "io",
    "propgraph.geometry": "graph",
    "propgraph.graph": "graph",
    "propgraph.spectral": "spectral",
    "propgraph.pooling": "pooling",
    "propgraph.attention": "attention",
    "propgraph.pipeline": "pipeline",
    "propgraph.cli": "cli",
}
MEMORY_SPANS = frozenset({"graph.build_graph", "attention.multi_head_attend"})
MEMORY_METRICS = ("graph.build_peak_mb", "attention.peak_mb")


class Span:
    __slots__ = ("id", "name", "layer", "parent", "op", "start", "end", "info")

    def __init__(self, span_id: int, name: str, layer: str, parent: Optional[int], op) -> None:
        self.id = span_id
        self.name = name
        self.layer = layer
        self.parent = parent
        self.op = op
        self.start = 0.0
        self.end = 0.0
        self.info: dict = {}

    @property
    def duration(self) -> float:
        return self.end - self.start


def _probe_eigensolve(info, args, result) -> None:
    n = len(args["matrix"])
    info["n3"] = n ** 3


def _probe_recursive_ncut(info, args, result) -> None:
    info["stop_ncut"] = float(args["stop_ncut"])
    info["min_part"] = int(args["min_part"])
    info["sets"] = int(result.set_count)


def _probe_two_way_ncut(info, args, result) -> None:
    partition, report = result
    side_a = int((partition.labels == 0).sum())
    info["ncut"] = float(report.ncut_value)
    info["smaller_side"] = min(side_a, len(partition.labels) - side_a)


def _probe_build_graph(info, args, result) -> None:
    m = result.num_nodes
    info["pairs"] = m * (m - 1) // 2
    info["edges"] = int(result.num_edges)


def _probe_attendable_mask(info, args, result) -> None:
    info["pairs"] = int(result.sum())


def _probe_save_features(info, args, result) -> None:
    info["bytes"] = os.path.getsize(args["path"])


PROBES: dict[str, Callable] = {
    "spectral.symmetric_eigendecomposition": _probe_eigensolve,
    "spectral.recursive_ncut": _probe_recursive_ncut,
    "spectral.two_way_ncut": _probe_two_way_ncut,
    "graph.build_graph": _probe_build_graph,
    "attention.attendable_mask": _probe_attendable_mask,
    "io.save_features": _probe_save_features,
}


def _traceable(module_name: str):
    """Yield (span name, owner, attribute, function) for each public callable."""
    module = sys.modules[module_name]
    short = module_name.rsplit(".", 1)[1]
    for attr, value in list(vars(module).items()):
        if attr.startswith("_") or getattr(value, "__module__", None) != module_name:
            continue
        if inspect.isfunction(value):
            yield f"{short}.{attr}", None, attr, value
        elif inspect.isclass(value):
            for method, fn in list(vars(value).items()):
                if not method.startswith("_") and inspect.isfunction(fn):
                    yield f"{short}.{attr}.{method}", value, method, fn


class Tracer:
    """Records spans of the calls into propgraph's layers while installed."""

    def __init__(self, workload: str, memory: bool = False) -> None:
        self.workload = workload
        self.memory = memory
        self.spans: list[Span] = []
        self.op = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, name: str, layer: str, fn: Callable) -> Callable:
        tracer = self
        probe = PROBES.get(name)
        signature = inspect.signature(fn) if probe else None
        measure_memory = self.memory and name in MEMORY_SPANS

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            span = Span(len(tracer.spans), name, layer, stack[-1] if stack else None, tracer.op)
            tracer.spans.append(span)
            stack.append(span.id)
            if measure_memory:
                tracemalloc.start()
            span.start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if measure_memory:
                    span.info["peak_bytes"] = tracemalloc.get_traced_memory()[1]
                    tracemalloc.stop()
                stack.pop()
            if probe is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                probe(span.info, bound.arguments, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._undo:
            raise RuntimeError("tracer already installed")
        for module_name in LAYERS:
            importlib.import_module(module_name)
        namespaces = [
            module for name, module in list(sys.modules.items())
            if name == "propgraph" or name.startswith("propgraph.")
        ]
        for module_name, layer in LAYERS.items():
            for name, owner, attr, fn in list(_traceable(module_name)):
                wrapper = self._wrap(name, layer, fn)
                if owner is not None:
                    self._undo.append((owner, attr, fn))
                    setattr(owner, attr, wrapper)
                    continue
                for namespace in namespaces:
                    for key, value in list(vars(namespace).items()):
                        if value is fn:
                            self._undo.append((namespace, key, fn))
                            setattr(namespace, key, wrapper)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)

    def __enter__(self) -> "Tracer":
        self.install()
        return self

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def op_spans(self, op) -> list[Span]:
        return [span for span in self.spans if span.op == op]

    def write(self, path: str) -> None:
        """Write every span as one JSON object per line."""
        with open(path, "w", encoding="utf-8") as stream:
            for span in self.spans:
                stream.write(json.dumps({
                    "id": span.id, "name": span.name, "layer": span.layer,
                    "start": span.start, "end": span.end, "parent": span.parent,
                    "workload": self.workload, "op": span.op, **span.info,
                }) + "\n")


# ----------------------------------------------------------------------
# Per-layer metrics of one op
# ----------------------------------------------------------------------

class OpProfile:
    """Self times, inclusive times and probe counts of one op's spans."""

    def __init__(self, spans: list[Span]) -> None:
        self.spans = spans
        self._by_id = {span.id: span for span in spans}
        child_time = {span.id: 0.0 for span in spans}
        for span in spans:
            if span.parent in child_time:
                child_time[span.parent] += span.duration
        self.self_time = {span.id: span.duration - child_time[span.id] for span in spans}

    def named(self, names) -> list[Span]:
        return [span for span in self.spans if span.name in names]

    def ancestors(self, span: Span):
        parent = self._by_id.get(span.parent)
        while parent is not None:
            yield parent
            parent = self._by_id.get(parent.parent)

    def inclusive(self, *names: str) -> float:
        """Wall time inside the named functions, counting nested calls once."""
        return sum((
            span.duration for span in self.named(names)
            if not any(a.name in names for a in self.ancestors(span))
        ), 0.0)

    def self_of(self, *names: str) -> float:
        return sum((self.self_time[span.id] for span in self.named(names)), 0.0)

    def layer_self(self, layer: str) -> float:
        return sum((self.self_time[span.id] for span in self.spans if span.layer == layer), 0.0)

    def calls(self, name: str) -> int:
        return len(self.named((name,)))

    def total(self, name: str, key: str) -> int:
        return sum(span.info.get(key, 0) for span in self.named((name,)))

    def peak_mb(self, name: str) -> float:
        return max((span.info.get("peak_bytes", 0) for span in self.named((name,))),
                   default=0) / 2 ** 20

    def accepted_splits(self) -> int:
        """two_way_ncut results that their enclosing recursive_ncut keeps."""
        accepted = 0
        for span in self.named(("spectral.two_way_ncut",)):
            owner = next((a for a in self.ancestors(span)
                          if a.name == "spectral.recursive_ncut"), None)
            if owner is not None and span.info["ncut"] <= owner.info["stop_ncut"] \
                    and span.info["smaller_side"] >= owner.info["min_part"]:
                accepted += 1
        return accepted


def layer_metrics(profile: OpProfile) -> dict[str, float]:
    """Per-layer metrics of one traced op, keyed by metric name."""
    p = profile
    pairs = p.total("graph.build_graph", "pairs")
    cuts = p.calls("spectral.two_way_ncut")
    masks = p.calls("attention.attendable_mask")
    metrics = {
        "io.load_s": p.inclusive("io.load_proposals", "io.load_params"),
        "io.write_s": p.inclusive("io.save_features"),
        "io.bytes_written": p.total("io.save_features", "bytes"),
        "graph.build_s": p.inclusive("graph.build_graph"),
        "graph.build_peak_mb": p.peak_mb("graph.build_graph"),
        "graph.pairs_evaluated": pairs,
        "graph.pair_yield": p.total("graph.build_graph", "edges") / pairs if pairs else 0.0,
        "graph.components_s": p.inclusive("graph.connected_components",
                                          "graph.filter_components"),
        "graph.components_calls": p.calls("graph.connected_components"),
        "spectral.eig_s": p.self_of("spectral.symmetric_eigendecomposition"),
        "spectral.eig_calls": p.calls("spectral.symmetric_eigendecomposition"),
        "spectral.eig_n3": p.total("spectral.symmetric_eigendecomposition", "n3"),
        "spectral.sweep_s": p.self_of("spectral.two_way_ncut", "spectral.recursive_ncut"),
        "spectral.cut_calls": cuts,
        "spectral.split_accept_ratio": p.accepted_splits() / cuts if cuts else 0.0,
        "pooling.gcpool_s": p.self_of("pooling.gcpool"),
        "pooling.augment_s": p.inclusive("pooling.augment_with_coarse"),
        "attention.attend_s": p.inclusive("attention.multi_head_attend"),
        "attention.weights_s": p.inclusive("attention.attention_weights"),
        "attention.pairs": p.total("attention.attendable_mask", "pairs") / masks if masks else 0.0,
        "attention.peak_mb": p.peak_mb("attention.multi_head_attend"),
        "pipeline.forward_s": p.self_of("pipeline.forward"),
        "pipeline.normalize_s": p.inclusive("pipeline.identical_normalize"),
    }
    # attention's and pipeline's layer self time equal the metrics above.
    for layer in ("io", "graph", "spectral", "pooling", "cli"):
        metrics[f"{layer}.self_s"] = p.layer_self(layer)
    return metrics
