"""Layer spans recorded from outside the program.

Tracing wraps the public entry points of each levilab module. A function is
replaced in every levilab module namespace that bound it by name (for
example `radial_roots` is bound in `surfaces` and in `quadrature`, and
`sigma_batch` in `hermitian` and in `verify`); wrapping only the defining
module would silently miss the calls made through the other names.

Spans are kept in memory: (layer, function, start, end, parent index). A
layer's self time is the sum over its spans of the span's duration minus the
durations of its direct child spans. The stack assumes one thread, which
the benchmark pins with LEVILAB_THREADS=1.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

LAYERS = ("quadrature", "roots", "jets", "curvature", "hermitian", "verify", "wirtinger", "reinhardt")


def _rows(a) -> int:
    a = np.asarray(a)
    return 1 if a.ndim < 2 else int(a.shape[0])


def _matrices(a) -> int:
    return int(np.prod(np.asarray(a).shape[:-2], dtype=np.int64))


# (layer, module, function, counter). The counter receives the call's
# positional arguments and the layers of the open spans, and returns
# {count name: increment}. It runs only for the outermost span of its layer,
# so nested calls in one layer count once.
ENTRY_POINTS = (
    ("quadrature", "levilab.quadrature", "surface_integral", None),
    ("quadrature", "levilab.quadrature", "volume", None),
    ("quadrature", "levilab.quadrature", "bulk_integral", None),
    ("quadrature", "levilab.quadrature", "scan_boundary", None),
    ("quadrature", "levilab.quadrature", "scan_bulk", None),
    ("quadrature", "levilab.quadrature", "sphere_grid", None),
    ("quadrature", "levilab.quadrature", "mc_directions", None),
    ("roots", "levilab.surfaces", "radial_roots", lambda a, open_: {"roots.rays": _rows(a[1])}),
    ("jets", "levilab.surfaces", "eval_jets", lambda a, open_: {"jets.points": _rows(a[1])}),
    ("jets", "levilab.surfaces", "eval_values", lambda a, open_: {"jets.value_points": _rows(a[1])}),
    ("jets", "levilab.surfaces", "eval_ray",
     lambda a, open_: {"jets.ray_points": _rows(a[2]), "roots.ray_evals": int("roots" in open_)}),
    ("curvature", "levilab.curvature", "levi", None),
    ("curvature", "levilab.curvature", "mean_curvature", None),
    ("curvature", "levilab.curvature", "complex_hessian", None),
    ("hermitian", "levilab.hermitian", "sigma_batch", lambda a, open_: {"hermitian.matrices": _matrices(a[0])}),
    ("hermitian", "levilab.hermitian", "newton_gap_batch", lambda a, open_: {"hermitian.matrices": _matrices(a[0])}),
    ("verify", "levilab.verify", "verify_integral_formula", None),
    ("verify", "levilab.verify", "isoperimetric_ratio", None),
    ("verify", "levilab.verify", "minkowski_residual", None),
    ("verify", "levilab.verify", "alexandrov_check", None),
    ("verify", "levilab.verify", "dirichlet_chain", None),
    ("verify", "levilab.verify", "newton_sweep", None),
    ("wirtinger", "levilab.wirtinger", "run_identity_suite", None),
    ("wirtinger", "levilab.wirtinger", "check_null_lagrangian", None),
    ("wirtinger", "levilab.wirtinger", "check_lemma_identity", None),
    ("wirtinger", "levilab.wirtinger", "check_euler_sigma", None),
    ("reinhardt", "levilab.reinhardt", "reinhardt_profile", None),
)


@dataclass
class Span:
    layer: str
    function: str
    start: float
    end: float
    parent: int  # index of the enclosing span, -1 at the top


class Tracer:
    """Collects spans and counts while installed; install() is a context manager."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    def _wrap(self, layer: str, qualname: str, fn, counter):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if counter is not None:
                open_layers = {tracer.spans[i].layer for i in tracer._stack}
                if layer not in open_layers:
                    for key, inc in counter(args, open_layers).items():
                        tracer.counts[key] += inc
            index = len(tracer.spans)
            parent = tracer._stack[-1] if tracer._stack else -1
            span = Span(layer, qualname, time.perf_counter(), 0.0, parent)
            tracer.spans.append(span)
            tracer._stack.append(index)
            try:
                return fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                tracer._stack.pop()

        return traced

    def install(self):
        return _Installed(self)

    def self_times(self) -> dict[str, float]:
        """Seconds per layer: span durations minus direct children's durations."""
        out = {layer: 0.0 for layer in LAYERS}
        for span in self.spans:
            out[span.layer] += span.end - span.start
            if span.parent >= 0:
                out[self.spans[span.parent].layer] -= span.end - span.start
        return out

    def function_times(self, function: str) -> float:
        """Inclusive seconds in every span of one wrapped function."""
        return sum((s.end - s.start for s in self.spans if s.function == function), 0.0)


class _Installed:
    """Replaces every binding of each entry point while the block runs."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self.saved: list[tuple[object, str, object]] = []

    def __enter__(self):
        from levilab import curvature

        modules = [m for name, m in sorted(sys.modules.items()) if name == "levilab" or name.startswith("levilab.")]
        for layer, modname, fname, counter in ENTRY_POINTS:
            original = getattr(sys.modules[modname], fname)
            wrapped = self.tracer._wrap(layer, f"{modname.split('.')[-1]}.{fname}", original, counter)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        self.saved.append((module, attr, value))
                        setattr(module, attr, wrapped)
        # FrameBatch.at_points is a classmethod: it is wrapped on the class itself
        frame_cls = curvature.FrameBatch
        original = frame_cls.__dict__["at_points"]
        wrapped = self.tracer._wrap(
            "curvature", "curvature.FrameBatch.at_points", original.__func__,
            lambda a, open_: {"curvature.frames": _rows(a[2])},
        )
        self.saved.append((frame_cls, "at_points", original))
        frame_cls.at_points = classmethod(wrapped)
        return self.tracer

    def __exit__(self, *exc):
        for owner, attr, value in reversed(self.saved):
            setattr(owner, attr, value)
        self.saved.clear()
        return False
