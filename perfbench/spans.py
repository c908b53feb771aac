"""Span recorder for the traced benchmark run.

The recorder wraps public functions of the ``rollsym`` layers from the
outside: it replaces each one in every module or class namespace that binds
it (``from ... import`` copies a function into the importing module, so
``tangent_curve`` is wrapped in ``rolling``, ``brackets`` and ``symmetry``).
A span records name, start, end, parent span and op id; spans stay in
memory and are saved when the run ends.  Hot functions whose only metric is
a call count get a counter instead of a span.  Nothing is wrapped unless
``install`` is called, so untraced runs measure the plain program.
"""

from __future__ import annotations

import functools
import time
from array import array

import numpy as np

# (module, owner inside the module or None, attribute, metric name)
SPANS = [
    ("spaces", "SpaceForm", "frame", "spaces.frame"),
    ("spaces", "*", "geodesic_flow", "spaces.geodesic_flow"),
    ("spaces", "*", "transport_along_geodesic", "spaces.transport_along_geodesic"),
    ("curvature", None, "rolling_curvature", "curvature.rolling_curvature"),
    ("rolling", None, "roll_along", "rolling.roll_along"),
    ("rolling", None, "tangent_curve", "rolling.tangent_curve"),
    ("rolling", None, "det_transport_matrix", "rolling.det_transport_matrix"),
    ("rolling", None, "directional_derivative", "rolling.directional_derivative"),
    ("rolling", "RollingCurve", "write_csv", "rolling.write_csv"),
    ("brackets", None, "flag_ranks", "brackets.flag_ranks"),
    ("brackets", None, "bracket_structured", "brackets.bracket_structured"),
    ("brackets", None, "stencil_data_derivative", "brackets.stencil_data_derivative"),
    ("brackets", None, "frame_field_derivative", "brackets.frame_field_derivative"),
    ("symmetry", None, "symmetry_residual", "symmetry.symmetry_residual"),
    ("symmetry", None, "vertical_compatibility_residual",
     "symmetry.vertical_compatibility_residual"),
    ("symmetry", "KillingField", "nabla_matrix", "symmetry.KillingField.nabla_matrix"),
    ("symmetry", None, "sym0_dimension_probe", "symmetry.sym0_dimension_probe"),
    ("nilpotent", None, "verify_structure", "nilpotent.verify_structure"),
]
COUNTERS = [
    ("spaces", "*", "transport_rhs", "spaces.transport_rhs"),
    ("rolling", "RollingState", "__post_init__", "rolling.RollingState"),
    ("rolling", None, "expm", "rolling.expm"),
    ("nilpotent", None, "nil_bracket", "nilpotent.nil_bracket"),
]
ROOT = "cli.main"
# GeodesicPath.velocity calls made directly by roll_along's right-hand side
RHS_VELOCITY = "rolling.roll_along.velocity"
SVD = "linalg.svd"


class Recorder:
    """Spans and counters of one traced run, held in flat arrays."""

    def __init__(self):
        self.names = [ROOT]
        self.start = array("q")
        self.end = array("q")
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.cur = -1
        self.op_id = -1
        self.counter_names = []
        self.counts = []
        self._undo = []

    # -- recording ---------------------------------------------------------

    def _name_id(self, name):
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def _counter_id(self, name):
        if name not in self.counter_names:
            self.counter_names.append(name)
            self.counts.append(0)
        return self.counter_names.index(name)

    def call(self, name_id, fn, *args, **kwargs):
        idx = len(self.start)
        parent = self.cur
        self.name.append(name_id)
        self.parent.append(parent)
        self.op.append(self.op_id)
        self.end.append(0)
        self.cur = idx
        self.start.append(time.perf_counter_ns())
        try:
            return fn(*args, **kwargs)
        finally:
            self.end[idx] = time.perf_counter_ns()
            self.cur = parent

    def run_op(self, op_id, fn, *args):
        """Run one op as a root span; returns (result, counter deltas)."""
        self.op_id = op_id
        before = list(self.counts)
        try:
            return self.call(0, fn, *args), [a - b for a, b in zip(self.counts, before)]
        finally:
            self.op_id = -1

    def _span_wrapper(self, fn, metric):
        name_id = self._name_id(metric)
        call = self.call

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            return call(name_id, fn, *args, **kwargs)

        return wrapper

    def _counter_wrapper(self, fn, metric):
        cid = self._counter_id(metric)
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[cid] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _velocity_wrapper(self, fn):
        cid = self._counter_id(RHS_VELOCITY)
        roll_id = self._name_id("rolling.roll_along")
        counts, names = self.counts, self.name

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self.cur >= 0 and names[self.cur] == roll_id:
                counts[cid] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- installing --------------------------------------------------------

    def _patch(self, owner, attr, new):
        old = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        self._undo.append((owner, attr, old))
        setattr(owner, attr, new)

    def install(self, package):
        """Wrap the traced functions of ``package`` (the imported rollsym)."""
        modules = {name: getattr(package, name) for name in
                   ("spaces", "curvature", "rolling", "brackets", "symmetry", "nilpotent", "cli")}
        for specs, make in ((SPANS, self._span_wrapper), (COUNTERS, self._counter_wrapper)):
            for mod_name, owner, attr, metric in specs:
                mod = modules[mod_name]
                if owner == "*":
                    for cls in _classes(mod):
                        if attr in cls.__dict__:
                            self._patch(cls, attr, make(cls.__dict__[attr], metric))
                elif owner is not None:
                    cls = getattr(mod, owner)
                    self._patch(cls, attr, make(cls.__dict__[attr], metric))
                else:
                    fn = getattr(mod, attr)
                    wrapped = make(fn, metric)
                    for other in modules.values():
                        for key, value in list(vars(other).items()):
                            if value is fn:
                                self._patch(other, key, wrapped)
        path_cls = modules["spaces"].GeodesicPath
        self._patch(path_cls, "velocity", self._velocity_wrapper(path_cls.__dict__["velocity"]))
        self._patch(np.linalg, "svd", self._counter_wrapper(np.linalg.svd, SVD))

    def uninstall(self):
        while self._undo:
            owner, attr, old = self._undo.pop()
            setattr(owner, attr, old)

    # -- reading -----------------------------------------------------------

    def arrays(self):
        return {
            "start": np.array(self.start, dtype=np.int64),
            "end": np.array(self.end, dtype=np.int64),
            "name": np.array(self.name, dtype=np.int32),
            "parent": np.array(self.parent, dtype=np.int32),
            "op": np.array(self.op, dtype=np.int32),
        }

    def save(self, path):
        np.savez(path, names=np.array(self.names), **self.arrays())


def _classes(mod):
    return [v for v in vars(mod).values()
            if isinstance(v, type) and v.__module__ == mod.__name__]


class SpanTable:
    """Per-name span statistics over a chosen set of ops."""

    def __init__(self, rec: Recorder, ops):
        a = rec.arrays()
        self.names = rec.names
        dur = a["end"] - a["start"]
        has_parent = a["parent"] >= 0
        child = np.bincount(a["parent"][has_parent], weights=dur[has_parent],
                            minlength=len(dur))
        keep = np.isin(a["op"], np.asarray(sorted(ops), dtype=np.int32))
        self.name = a["name"][keep]
        self.dur = dur[keep]
        self.self_ns = (dur - child)[keep]
        parent_name = np.where(has_parent, a["name"][np.maximum(a["parent"], 0)], -1)
        self.parent_name = parent_name[keep]

    def _id(self, name):
        return self.names.index(name) if name in self.names else -1

    def calls(self, name, parent=None):
        mask = self.name == self._id(name)
        if parent is not None:
            mask &= self.parent_name == self._id(parent)
        return int(mask.sum())

    def self_s(self, name):
        return float(self.self_ns[self.name == self._id(name)].sum()) / 1e9

    def total_s(self, name):
        return float(self.dur[self.name == self._id(name)].sum()) / 1e9
