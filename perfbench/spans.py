"""Outside-in tracing of hullkit's layers for the traced benchmark run.

hullkit modules call each other through module-level names (``hull``,
``ConvexHull``, ``point_hull_values`` ...) and build every 3-polytope through
``Polytope3.__init__``.  ``Tracer.install`` rebinds each of those names, in
every loaded ``hullkit`` module that holds it, to a wrapper that records a
span; ``Tracer.restore`` puts the originals back.  No file of the program is
edited, and timed runs never install the tracer.

Spans stay in memory as (name, start, end, parent, op, attrs) until the run
writes them out as JSON at exit.  Their clock is the thread's CPU time, the
clock the benchmark times ops with.  A span's parent is the innermost traced
span open when it started; self time is its duration minus that of its direct
children, which the single-threaded program always nests inside it.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

from hullkit import bodies, errors, extensions, fileio, hullfun, illumination, projection

OP_SPAN = "bench.op"


def _hull_name(args, kwargs):
    pts = args[0] if args else kwargs["points"]
    return "bodies.hull3" if np.shape(pts)[-1] == 3 else "bodies.hull2"


def _hull_attrs(args, kwargs, result):
    pts = args[0] if args else kwargs["points"]
    return {"points_in": len(pts), "vertices_out": len(result)}


def _phv_attrs(args, kwargs, result):
    return {"points": len(result)}


# (owner, attribute, span name or a function of the call's arguments, attrs)
_TARGETS = (
    (bodies, "hull", _hull_name, _hull_attrs),
    (bodies, "ConvexHull", "bodies.qhull", None),
    (bodies.Polytope3, "__init__", "bodies.polytope3_init", None),
    (bodies, "polar", "bodies.polar", None),
    (bodies, "difference_body", "bodies.difference_body", None),
    (illumination, "illumination_body", "illumination.illumination_body", None),
    (illumination, "homothety_fit", "illumination.homothety_fit", None),
    (hullfun, "point_hull_values", "hullfun.point_hull_values", _phv_attrs),
    (hullfun, "convex_hull_function", "hullfun.convex_hull_function", None),
    (hullfun, "homothetic_hull_function", "hullfun.homothetic_hull_function", None),
    (projection, "projection_body", "projection.projection_body", None),
    (projection, "tcvp_check", "projection.tcvp_check", None),
    (extensions, "extension_homothety_check", "extensions.extension_homothety_check", None),
    (fileio, "parse_body", "fileio.parse_body", None),
)


class Tracer:
    """Records nested spans of the wrapped hullkit calls."""

    def __init__(self):
        self.names = []
        self.starts = []
        self.ends = []
        self.parents = []
        self.ops = []
        self.attrs = {}
        self.errors = {}
        self._stack = []
        self._op = None
        self._saved = []

    def _open(self, name):
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._stack[-1] if self._stack else -1)
        self.ops.append(self._op)
        self.ends.append(None)
        self._stack.append(idx)
        self.starts.append(time.thread_time())
        return idx

    def _close(self, idx):
        self.ends[idx] = time.thread_time()
        self._stack.pop()

    def _wrap(self, fn, name, attrs):
        def traced(*args, **kwargs):
            idx = self._open(name(args, kwargs) if callable(name) else name)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.errors[idx] = type(exc).__name__
                raise
            finally:
                self._close(idx)
            if attrs is not None:
                self.attrs[idx] = attrs(args, kwargs, result)
            return result

        # updated=() keeps a wrapped class's attributes off the wrapper
        return functools.update_wrapper(traced, fn, updated=())

    def op(self, index, fn, *args):
        """Run one benchmark op traced, under a root span whose index the
        spans inside it share; the benchmark's own checks stay untraced."""
        self._op = index
        self.install()
        idx = self._open(OP_SPAN)
        try:
            return fn(*args)
        finally:
            self._close(idx)
            self.restore()
            self._op = None

    def install(self):
        """Rebind every target name in every loaded hullkit module."""
        modules = [m for key, m in sys.modules.items() if key == "hullkit" or key.startswith("hullkit.")]
        for owner, attr, name, attrs in _TARGETS:
            original = owner.__dict__[attr]
            wrapper = self._wrap(original, name, attrs)
            holders = [owner] if isinstance(owner, type) else [
                m for m in modules if m.__dict__.get(attr) is original
            ]
            for holder in holders:
                self._saved.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def restore(self):
        for holder, attr, original in reversed(self._saved):
            setattr(holder, attr, original)
        self._saved.clear()

    # -- reporting -----------------------------------------------------------

    def spans(self):
        """Every span as a JSON-ready dict; ``parent`` indexes this list."""
        return [
            {
                "name": self.names[i],
                "start": self.starts[i],
                "end": self.ends[i],
                "parent": self.parents[i],
                "op": self.ops[i],
                **self.attrs.get(i, {}),
                **({"error": self.errors[i]} if i in self.errors else {}),
            }
            for i in range(len(self.names))
        ]

    def layer_metrics(self, scale):
        """Per-layer counts and times, keyed by the names in BENCHMARK.json.

        ``scale`` maps an op index (None outside ops) to the factor that
        rescales the times of that op's spans.
        """
        n = len(self.names)
        dur = [(self.ends[i] - self.starts[i]) * scale[self.ops[i]] for i in range(n)]
        child_time = [0.0] * n
        for i in range(n):
            if self.parents[i] >= 0:
                child_time[self.parents[i]] += dur[i]
        calls = defaultdict(int)
        busy = defaultdict(float)
        self_s = defaultdict(float)
        for i, name in enumerate(self.names):
            calls[name] += 1
            busy[name] += dur[i]
            self_s[name] += dur[i] - child_time[i]

        def total(name, key, parent=None):
            return sum(
                a[key]
                for i, a in self.attrs.items()
                if self.names[i] == name and (parent is None or self.names[self.parents[i]] == parent)
            )

        def ratio(num, den):
            return num / den if den else 0.0

        illum = "illumination.illumination_body"
        candidates = total("bodies.hull3", "points_in", illum) + total("bodies.hull2", "points_in", illum)
        yielded = total("bodies.hull3", "vertices_out", illum) + total("bodies.hull2", "vertices_out", illum)
        ext = "extensions.extension_homothety_check"
        missing = sum(
            1 for i, e in self.errors.items()
            if self.names[i] == ext and e == errors.MissingIntersection.__name__
        )
        hulls = ("bodies.hull2", "bodies.hull3")
        return {
            "bodies.hull3.calls": calls["bodies.hull3"],
            "bodies.hull3.points_in": total("bodies.hull3", "points_in"),
            "bodies.hull3.vertices_out": total("bodies.hull3", "vertices_out"),
            "bodies.hull3.busy_s": busy["bodies.hull3"],
            "bodies.hull3.self_s": self_s["bodies.hull3"],
            "bodies.hull3.overhead_x": ratio(busy["bodies.hull3"], busy["bodies.qhull"]),
            "bodies.qhull.calls": calls["bodies.qhull"],
            "bodies.qhull.busy_s": busy["bodies.qhull"],
            "bodies.qhull.reruns": calls["bodies.qhull"] - calls["bodies.hull3"],
            "bodies.polytope3_init.calls": calls["bodies.polytope3_init"],
            "bodies.polytope3_init.busy_s": busy["bodies.polytope3_init"],
            "bodies.hull2.calls": calls["bodies.hull2"],
            "bodies.hull2.busy_s": busy["bodies.hull2"],
            "bodies.polar.busy_s": busy["bodies.polar"],
            "bodies.difference_body.busy_s": busy["bodies.difference_body"],
            "illumination.illumination_body.busy_s": busy[illum],
            "illumination.illumination_body.self_s": self_s[illum],
            "illumination.homothety_fit.busy_s": busy["illumination.homothety_fit"],
            "illumination.candidates": candidates,
            "illumination.vertex_yield": ratio(yielded, candidates),
            "hullfun.point_hull_values.calls": calls["hullfun.point_hull_values"],
            "hullfun.point_hull_values.points": total("hullfun.point_hull_values", "points"),
            "hullfun.point_hull_values.busy_s": busy["hullfun.point_hull_values"],
            "hullfun.convex_hull_function.busy_s": busy["hullfun.convex_hull_function"],
            "hullfun.homothetic_hull_function.busy_s": busy["hullfun.homothetic_hull_function"],
            "projection.projection_body.busy_s": busy["projection.projection_body"],
            "projection.projection_body.hull_calls": sum(
                1 for i, name in enumerate(self.names)
                if name in hulls and self.parents[i] >= 0
                and self.names[self.parents[i]] == "projection.projection_body"
            ),
            "projection.tcvp_check.busy_s": busy["projection.tcvp_check"],
            f"{ext}.calls": calls[ext],
            f"{ext}.busy_s": busy[ext],
            "extensions.missing_pair_ratio": ratio(missing, calls[ext]),
            "fileio.parse_body.busy_s": busy["fileio.parse_body"],
            "bodies.hull3.op_share": ratio(busy["bodies.hull3"], busy[OP_SPAN]),
        }
