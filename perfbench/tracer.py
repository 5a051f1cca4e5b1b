"""Per-layer spans recorded from outside the program.

A `Tracer` replaces each layer's public function under every name it is
looked up by (for example `cli.realize` and `optimize.parts_density`) with a
wrapper that records a span, and restores the originals on exit. Spans stay
in memory. Each thread keeps its own stack of open spans, so a span's self
time is its duration minus the durations of the spans it called on the same
thread; spans run by the thread pool's workers are attributed to their own
layer and do not reduce the self time of the `rho` call that waits for them.
"""

from __future__ import annotations

import importlib
import threading
import time
from dataclasses import dataclass, field
from math import comb

# (layer, object the name is looked up on, attribute name)
TARGETS = [
    ("partitions.parts_density", "rtdensity.partitions", "parts_density"),
    ("partitions.parts_density", "rtdensity.optimize", "parts_density"),
    ("partitions.spec_density", "rtdensity.optimize", "spec_density"),
    ("optimize.class_poly", "rtdensity.optimize", "class_poly"),
    ("optimize.optimize_spec", "rtdensity.optimize", "optimize_spec"),
    ("optimize.rho", "rtdensity.optimize", "rho"),
    ("optimize.rho", "rtdensity.cli", "rho"),
    ("verify.brute_force_extremal", "rtdensity.cli", "brute_force_extremal"),
    ("freeness.score_from_masks", "rtdensity.verify", "score_from_masks"),
    ("freeness.score_from_masks", "rtdensity.freeness", "score_from_masks"),
    ("graphs.max_clique", "rtdensity.graphs", "max_clique"),
    ("graphs.max_clique", "rtdensity.freeness", "max_clique"),
    ("graphs.max_clique", "rtdensity.sphere", "max_clique"),
    ("graphs.maximal_cliques", "rtdensity.freeness", "maximal_cliques"),
    ("graphs.greedy", "rtdensity.sphere", "greedy_independent_set"),
    ("graphs.greedy", "rtdensity.sphere", "greedy_clique_cover"),
    ("sphere.realize", "rtdensity.cli", "realize"),
    ("sphere.graph_stats", "rtdensity.cli", "graph_stats"),
    ("sphere.to_edge_text", "rtdensity.sphere:RealizedGraph", "to_edge_text"),
    ("serialize.dumps", "rtdensity.cli", "dumps"),
]
# Counted, not timed: a span here would move time out of sphere.realize.
COUNTED = [("sphere.random_rotation", "rtdensity.sphere", "random_rotation")]


def _owner(path: str):
    module, _, cls = path.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def _certified_bits(args, result, parent):
    return result.certified.numerator.bit_length() + result.certified.denominator.bit_length()


def _search_counts(args, result, parent):
    cfg = args[0]
    return len(cfg.edge_alphabet) ** comb(cfg.n, 2), result.searched


def _half_pairs(args, result, parent):
    sizes = result.part_sizes
    return sum(
        1
        for i, row in enumerate(result.provenance)
        for j in range(i + 1, len(row))
        if row[j] == "BE-rotated" and sizes[i] and sizes[j]
    )


def _is_free(args, result, parent):
    # only scores taken inside brute_force_extremal know their t
    if parent is None or parent.layer != "verify.brute_force_extremal":
        return None
    return result[0] < parent.args[0].t


# what each layer's span keeps from its arguments and result
INFO = {
    "optimize.optimize_spec": _certified_bits,
    "verify.brute_force_extremal": _search_counts,
    "sphere.realize": _half_pairs,
    "freeness.score_from_masks": _is_free,
}


@dataclass
class _Frame:
    layer: str
    args: tuple
    child_s: float = 0.0


@dataclass
class Span:
    layer: str
    parent: str | None
    duration_s: float
    self_s: float
    info: object = None


@dataclass
class Tracer:
    spans: list = field(default_factory=list)
    counts: dict = field(default_factory=dict)
    _local: threading.local = field(default_factory=threading.local)
    _saved: list = field(default_factory=list)
    _lock: threading.Lock = field(default_factory=threading.Lock)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, layer: str, fn, args=(), kwargs=None):
        """Run fn(*args) inside a span of `layer` and return its result."""
        stack = self._stack()
        parent = stack[-1] if stack else None
        frame = _Frame(layer, args)
        stack.append(frame)
        t0 = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            duration = time.perf_counter() - t0
            stack.pop()
            if parent is not None:
                parent.child_s += duration
        hook = INFO.get(layer)
        info = hook(args, result, parent) if hook else None
        # list.append is atomic, so worker threads may record concurrently
        self.spans.append(
            Span(layer, parent.layer if parent else None, duration, duration - frame.child_s, info)
        )
        return result

    def _wrap(self, layer: str, fn):
        def traced(*args, **kwargs):
            return self.call(layer, fn, args, kwargs)

        return traced

    def _counter(self, name: str, fn):
        def counted(*args, **kwargs):
            with self._lock:
                self.counts[name] = self.counts.get(name, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def __enter__(self) -> "Tracer":
        for layer, path, attr in TARGETS:
            owner = _owner(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._wrap(layer, fn))
        for name, path, attr in COUNTED:
            owner = _owner(path)
            fn = getattr(owner, attr)
            self._saved.append((owner, attr, fn))
            setattr(owner, attr, self._counter(name, fn))
        return self

    def __exit__(self, *exc) -> None:
        for owner, attr, fn in reversed(self._saved):
            setattr(owner, attr, fn)
        self._saved.clear()


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, cpu_s: float) -> dict[str, float]:
    """Per-layer metrics of one traced pass (all but trace.overhead_s).

    Self times are summed over threads, so layers run by the thread pool's
    workers can add up to more than the pass's wall time."""
    calls: dict[str, int] = {}
    self_s: dict[str, float] = {}
    for sp in tracer.spans:
        calls[sp.layer] = calls.get(sp.layer, 0) + 1
        self_s[sp.layer] = self_s.get(sp.layer, 0.0) + sp.self_s
    by = lambda layer: [sp for sp in tracer.spans if sp.layer == layer]  # noqa: E731

    specs = by("optimize.optimize_spec")
    certified = [sp for sp in by("partitions.spec_density") if sp.parent == "optimize.optimize_spec"]
    searches = by("verify.brute_force_extremal")
    scored = [sp.info for sp in by("freeness.score_from_masks") if sp.info is not None]
    out = {
        "partitions.parts_density.calls": calls.get("partitions.parts_density", 0),
        "optimize.optimize_spec.calls": len(specs),
        "optimize.certified_per_skeleton": _ratio(len(certified), len(specs)),
        "optimize.certified_bits": _ratio(sum(sp.info for sp in specs), len(specs)),
        "verify.searched": sum(sp.info[1] for sp in searches),
        "verify.dedup_ratio": _ratio(len(scored), sum(sp.info[0] for sp in searches)),
        "freeness.score_from_masks.calls": calls.get("freeness.score_from_masks", 0),
        "freeness.free_ratio": _ratio(sum(scored), len(scored)),
        "graphs.max_clique.calls": calls.get("graphs.max_clique", 0),
        "sphere.resamples": tracer.counts.get("sphere.random_rotation", 0)
        - sum(sp.info for sp in by("sphere.realize")),
        "process.cpu_s": cpu_s,
    }
    for layer, seconds in self_s.items():
        out[f"{layer}.self_s"] = seconds
    return out
