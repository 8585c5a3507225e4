"""Per-layer spans and counts, recorded from outside qdlab.

Each layer is a set of public qdlab functions.  `Tracer.install` replaces
every binding of those functions in the loaded qdlab modules (the defining
module and every module that imported the name) with a timing wrapper, and
`Tracer.uninstall` puts the originals back.  Spans nest: a layer's self time
is its span minus the spans of the layers it called.

A function that no longer exists marks its layer as absent; the run goes on
and the layer reports zeros.
"""

from __future__ import annotations

import sys
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np


def _size(a) -> int:
    return int(np.size(a))


def _faddeev_points(args, kwargs) -> int:
    return _size(args[0])  # log_phi_theta(z, theta, spec)


def _transform_points(args, kwargs) -> int:
    return _size(args[1])  # log_forward_transform(charges, z, n, params, spec)


def _kernel_points(args, kwargs) -> int:
    # weight_kernel_many(wkp, xr, xn, yr, yn, spec)
    return int(np.broadcast(np.asarray(args[1]), np.asarray(args[3])).size)


def _grid_points(args, kwargs) -> int:
    # partition_function(X, spec, target): one grid at M and one at M/2
    X = args[0]
    spec = args[1] if len(args) > 1 else kwargs["spec"]
    E = len(X.edge_classes)
    return len(X.tets) * (spec.M**E + (spec.M // 2) ** E)


# layer -> (qdlab functions that delimit it, input size of one call or None)
LAYERS = {
    "faddeev": ([("qdlab.faddeev", "log_phi_theta")], _faddeev_points),
    "qdilog": ([("qdlab.qdilog", "log_dtheta")], None),
    "charged.transform": ([("qdlab.charged", "log_forward_transform")], _transform_points),
    "charged.kernel": ([("qdlab.charged", "weight_kernel_many")], _kernel_points),
    "pentagon": (
        [("qdlab.pentagon", "check_charged_beta_pentagon"), ("qdlab.pentagon", "check_faddeev_type")],
        None,
    ),
    "partition": ([("qdlab.partition", "partition_function")], _grid_points),
    "triangulation": (
        [("qdlab.triangulation", "builtin_census"), ("qdlab.triangulation", "pachner_23")],
        None,
    ),
}


@dataclass
class LayerStats:
    calls: int = 0
    points: int = 0
    self_s: float = 0.0


@dataclass
class Tracer:
    """Collects spans and per-layer totals while installed."""

    clock: Callable[[], float] = time.perf_counter  # span start and end times
    stats: dict = field(default_factory=lambda: {name: LayerStats() for name in LAYERS})
    spans: list = field(default_factory=list)  # [layer, start, end, parent span index]
    absent: list = field(default_factory=list)
    _stack: list = field(default_factory=list)  # [span index, child time]
    _patched: list = field(default_factory=list)  # (module, attribute, original)

    def _wrap(self, layer, fn, points):
        def traced(*args, **kwargs):
            stats = self.stats[layer]
            if points is not None:
                try:
                    stats.points += points(args, kwargs)
                except (IndexError, KeyError, TypeError, AttributeError, ValueError):
                    pass  # a changed signature loses the count, not the run
            parent = self._stack[-1][0] if self._stack else -1
            idx = len(self.spans)
            start = self.clock()
            self.spans.append([layer, start, None, parent])
            self._stack.append([idx, 0.0])
            try:
                return fn(*args, **kwargs)
            finally:
                end = self.clock()
                _, child = self._stack.pop()
                dur = end - start
                self.spans[idx][2] = end
                stats.calls += 1
                stats.self_s += dur - child
                if self._stack:
                    self._stack[-1][1] += dur

        traced.__wrapped__ = fn
        return traced

    def install(self) -> None:
        """Wrap every binding of every layer function in the loaded qdlab modules."""
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "qdlab" or name.startswith("qdlab."))]
        self.absent = []
        for layer, (targets, points) in LAYERS.items():
            found = False
            for modname, fname in targets:
                original = getattr(sys.modules.get(modname), fname, None)
                if original is None:
                    continue
                found = True
                wrapper = self._wrap(layer, original, points)
                for m in modules:
                    for attr, val in list(vars(m).items()):
                        if val is original:
                            setattr(m, attr, wrapper)
                            self._patched.append((m, attr, original))
            if not found:
                self.absent.append(layer)

    def uninstall(self) -> None:
        for m, attr, original in reversed(self._patched):
            setattr(m, attr, original)
        self._patched = []

    def reset(self) -> None:
        self.stats = {name: LayerStats() for name in LAYERS}
        self.spans = []
