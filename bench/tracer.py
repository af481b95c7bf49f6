"""Spans and counters around the public functions of each mconvex layer.

The program has no tracing of its own, so the benchmark wraps functions from
outside: ``Tracer.install`` replaces every binding of each wrapped function in
the ``mconvex`` modules (``barrier`` imports several geometry functions by
name) and on the classes that define the wrapped methods, and
``Tracer.uninstall`` puts the originals back.  A span records its name, thread,
start, end, parent span and counts; spans stay in memory until the run ends.

``verify_barrier`` evaluates chunks on worker threads.  A span opened on a
thread with no open span of its own takes the installing thread's innermost
open span as its parent, which is the ``verify_barrier`` span waiting for it.
"""
from __future__ import annotations

import functools
import sys
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


class Span:
    __slots__ = ("name", "tid", "parent", "start", "end", "counts", "error")

    def __init__(self, name, tid, parent):
        self.name = name
        self.tid = tid
        self.parent = parent
        self.counts = {}
        self.error = None


def _points(x):
    """Number of points in a ``(..., n)`` batch."""
    shape = np.shape(x)
    return int(np.prod(shape[:-1])) if len(shape) > 1 else 1


def _count_arg(key, index, size=_points):
    def before(span, args):
        span.counts[key] = size(args[index])
    return before


def _count_result(key, size):
    def after(span, result):
        span.counts[key] = size(result)
    return after


class Tracer:
    def __init__(self):
        self.spans = []
        self._local = threading.local()
        self._owner_stack = None
        self._patches = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, before=None, after=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == name:
                # tube_eval calls itself for a single point: one span
                return fn(*args, **kwargs)
            if stack:
                parent = stack[-1]
            else:
                owner = tracer._owner_stack
                parent = owner[-1] if owner else None
            span = Span(name, threading.get_ident(), parent)
            if before is not None:
                before(span, args)
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                span.error = type(exc).__name__
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if after is not None:
                after(span, result)
            return result

        return wrapper

    def _counter(self, fn, span_name, key):
        """Count calls of ``fn`` made directly inside a ``span_name`` span."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack()
            if stack and stack[-1].name == span_name:
                counts = stack[-1].counts
                counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return wrapper

    def _patch(self, owner, attr, wrapper_of):
        if isinstance(owner, type):
            original = owner.__dict__[attr]
            wrapper = wrapper_of(original)
            self._patches.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        original = getattr(owner, attr)
        wrapper = wrapper_of(original)
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "mconvex" or modname.startswith("mconvex.")):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    self._patches.append((module, key, original))
                    setattr(module, key, wrapper)
        if getattr(owner, attr) is not wrapper:
            raise RuntimeError(f"{owner.__name__}.{attr} was not wrapped")

    def install(self):
        from mconvex import barrier as bar
        from mconvex import cli, exprfield
        from mconvex import geometry as geo
        from mconvex import harness as hz
        from mconvex import minimizer as mz
        from mconvex import varifold as vf

        if self._patches:
            raise RuntimeError("tracer already installed")
        self._owner_stack = self._stack()

        def span(owner, attr, name, before=None, after=None):
            self._patch(owner, attr, lambda fn: self._wrap(name, fn, before, after))

        def points(index):
            return _count_arg("points", index)

        span(cli, "main", "cli.main")
        span(exprfield.Expression, "eval_at", "exprfield.eval_at", points(1))

        span(geo, "levelset_shape", "geometry.levelset_shape", points(1))
        span(geo, "bilinear_form_Q", "geometry.bilinear_form_Q", points(1))
        span(geo, "top_m_eigensum", "geometry.top_m_eigensum",
             _count_arg("points", 0, lambda S: int(np.prod(np.shape(S)[:-2]))))
        span(geo, "christoffel", "geometry.christoffel", points(1))
        span(geo, "newton_level_project", "geometry.newton_level_project")

        span(bar, "build_barrier", "barrier.build_barrier")
        span(bar.SigmaSurface, "project", "barrier.project", points(1),
             _count_result("unconverged", lambda r: int(np.size(r[1]) - np.count_nonzero(r[1]))))
        # one Hessian of w per Newton iteration of the projection
        self._patch(geo.SumField, "hessian",
                    lambda fn: self._counter(fn, "barrier.project", "newton_iters"))
        span(bar, "tube_eval", "barrier.tube_eval", points(1),
             _count_result("invalid", lambda d: int(np.size(d.valid) - np.count_nonzero(d.valid))))
        span(bar.BarrierVectorField, "value", "barrier.field.value", points(1))
        span(bar.BarrierVectorField, "jacobian", "barrier.field.jacobian", points(1))

        def verify_counts(span_, report):
            span_.counts["grid_points"] = report.n_grid
            span_.counts["live_points"] = report.n_tube
        span(bar, "verify_barrier", "barrier.verify_barrier", after=verify_counts)

        atoms_of = _count_arg("atoms", 0, lambda V: len(V.points))
        span(vf, "varifold_from_mesh", "varifold.varifold_from_mesh",
             after=_count_result("atoms", lambda V: len(V.points)))
        span(vf, "first_variation", "varifold.first_variation", atoms_of)
        span(vf, "check_bounded_mc", "varifold.check_bounded_mc", atoms_of)
        span(vf, "area_vertex_gradient", "varifold.area_vertex_gradient")
        span(vf, "decompose_integral", "varifold.decompose_integral")
        span(vf, "support_distance", "varifold.support_distance")

        span(mz, "minimize", "minimizer.minimize",
             after=_count_result("iterations", lambda r: r[1].iterations))
        span(mz, "area_gradient", "minimizer.area_gradient")
        span(mz, "area", "minimizer.area")
        span(mz, "project_to_domain", "minimizer.project_to_domain")
        span(mz, "flip_bad_edges", "minimizer.flip_bad_edges",
             after=_count_result("flips", lambda r: r[1]))
        span(mz, "stationarity_residual", "minimizer.stationarity_residual")

        for k in (1, 3, 4, 5, 6):
            span(hz, f"scenario_theorem{k}", f"harness.theorem{k}")
        span(hz, "hausdorff_distance", "harness.hausdorff_distance")

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []
        self._owner_stack = None


# --------------------------------------------------------------------------
# per-layer metrics


def _self_time(span, children):
    """Span duration minus the part of it that its child spans cover."""
    intervals = sorted((max(c.start, span.start), min(c.end, span.end))
                       for c in children.get(id(span), ()))
    covered = 0.0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return (span.end - span.start) - covered


def _ratio(num, den):
    return num / den if den else 0.0


def _enclosing(span, names):
    parent = span.parent
    while parent is not None and parent.name not in names:
        parent = parent.parent
    return parent


def layer_metrics(spans):
    """Per-layer metrics (name -> value) from the spans of one traced pass.

    ``s`` is the summed span time of a function, so it counts both threads
    inside ``verify_barrier``; ``self_s`` subtracts child spans.  Layers a
    workload never enters read 0.
    """
    by_name = defaultdict(list)
    children = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
        if s.parent is not None:
            children[id(s.parent)].append(s)

    def calls(name):
        return len(by_name[name])

    def total(name, key=None):
        if key is None:
            return sum(s.end - s.start for s in by_name[name])
        return sum(s.counts.get(key, 0) for s in by_name[name])

    def self_s(*names):
        return sum(_self_time(s, children) for n in names for s in by_name[n])

    m = {}
    m["cli.main.calls"] = calls("cli.main")
    m["cli.main.self_s"] = self_s("cli.main")
    m["exprfield.eval_at.calls"] = calls("exprfield.eval_at")
    m["exprfield.eval_at.points"] = total("exprfield.eval_at", "points")
    m["exprfield.eval_at.s"] = total("exprfield.eval_at")

    for fn in ("levelset_shape", "top_m_eigensum", "christoffel"):
        name = f"geometry.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.points"] = total(name, "points")
        m[f"{name}.s"] = total(name)
    m["geometry.bilinear_form_Q.calls"] = calls("geometry.bilinear_form_Q")
    m["geometry.bilinear_form_Q.points"] = total("geometry.bilinear_form_Q", "points")
    m["geometry.bilinear_form_Q.self_s"] = self_s("geometry.bilinear_form_Q")
    m["geometry.newton_level_project.calls"] = calls("geometry.newton_level_project")
    m["geometry.newton_level_project.s"] = total("geometry.newton_level_project")

    m["barrier.build_barrier.calls"] = calls("barrier.build_barrier")
    m["barrier.build_barrier.s"] = total("barrier.build_barrier")
    m["barrier.project.calls"] = calls("barrier.project")
    m["barrier.project.points"] = total("barrier.project", "points")
    m["barrier.project.s"] = total("barrier.project")
    m["barrier.project.newton_iters"] = total("barrier.project", "newton_iters")
    m["barrier.project.unconverged"] = total("barrier.project", "unconverged")
    m["barrier.tube_eval.calls"] = calls("barrier.tube_eval")
    m["barrier.tube_eval.points"] = total("barrier.tube_eval", "points")
    m["barrier.tube_eval.self_s"] = self_s("barrier.tube_eval")
    m["barrier.tube_eval.invalid"] = total("barrier.tube_eval", "invalid")

    # tube points evaluated per point a query was asked about
    queries = {"barrier.verify_barrier": "grid_points", "varifold.check_bounded_mc": "atoms"}
    tube_points = defaultdict(int)
    for s in by_name["barrier.tube_eval"]:
        q = _enclosing(s, queries)
        if q is not None:
            tube_points[q.name] += s.counts["points"]
    asked = {name: total(name, key) for name, key in queries.items()}
    m["barrier.tube_eval.per_query"] = _ratio(sum(tube_points.values()), sum(asked.values()))
    m["barrier.tube_eval.per_query.verify_barrier"] = _ratio(
        tube_points["barrier.verify_barrier"], asked["barrier.verify_barrier"])
    m["barrier.tube_eval.per_query.check_bounded_mc"] = _ratio(
        tube_points["varifold.check_bounded_mc"], asked["varifold.check_bounded_mc"])

    for fn in ("value", "jacobian"):
        name = f"barrier.field.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.points"] = total(name, "points")
        m[f"{name}.s"] = total(name)
    m["barrier.verify_barrier.calls"] = calls("barrier.verify_barrier")
    m["barrier.verify_barrier.s"] = total("barrier.verify_barrier")
    m["barrier.verify_barrier.grid_points"] = total("barrier.verify_barrier", "grid_points")
    m["barrier.verify_barrier.live_points"] = total("barrier.verify_barrier", "live_points")

    for fn, count in (("varifold_from_mesh", "atoms"), ("first_variation", "atoms")):
        name = f"varifold.{fn}"
        m[f"{name}.calls"] = calls(name)
        m[f"{name}.{count}"] = total(name, count)
        m[f"{name}.s"] = total(name)
    for fn in ("check_bounded_mc", "area_vertex_gradient", "support_distance"):
        m[f"varifold.{fn}.calls"] = calls(f"varifold.{fn}")
        m[f"varifold.{fn}.s"] = total(f"varifold.{fn}")
    m["varifold.decompose_integral.s"] = total("varifold.decompose_integral")

    iterations = total("minimizer.minimize", "iterations")
    area_calls = calls("minimizer.area")
    # minimize computes the area once at the start, once per Armijo trial and
    # once after each accepted step that flipped edges; flip_bad_edges runs
    # once per accepted step
    accepted = calls("minimizer.flip_bad_edges")
    reareas = sum(1 for s in by_name["minimizer.flip_bad_edges"] if s.counts.get("flips"))
    trials = area_calls - calls("minimizer.minimize") - reareas
    m["minimizer.minimize.calls"] = calls("minimizer.minimize")
    m["minimizer.minimize.s"] = total("minimizer.minimize")
    m["minimizer.minimize.iterations"] = iterations
    m["minimizer.area_gradient.calls"] = calls("minimizer.area_gradient")
    m["minimizer.area_gradient.s"] = total("minimizer.area_gradient")
    m["minimizer.area.calls_per_iter"] = _ratio(area_calls, iterations)
    m["minimizer.armijo.accept_ratio"] = _ratio(accepted, trials)
    m["minimizer.degenerate_retries"] = sum(
        1 for s in by_name["minimizer.area"] if s.error == "DegenerateSimplexError")
    m["minimizer.project_to_domain.calls"] = calls("minimizer.project_to_domain")
    m["minimizer.project_to_domain.s"] = total("minimizer.project_to_domain")
    m["minimizer.flip_bad_edges.calls"] = accepted
    m["minimizer.flip_bad_edges.flips"] = total("minimizer.flip_bad_edges", "flips")
    m["minimizer.stationarity_residual.s"] = total("minimizer.stationarity_residual")

    theorems = [f"harness.theorem{k}" for k in (1, 3, 4, 5, 6)]
    for name in theorems:
        m[f"{name}.s"] = total(name)
    m["harness.self_s"] = self_s(*theorems)
    m["harness.hausdorff_distance.calls"] = calls("harness.hausdorff_distance")
    m["harness.hausdorff_distance.s"] = total("harness.hausdorff_distance")
    return m


def _layer(prefix, *fields):
    units = {"s": "s", "self_s": "s"}
    return [(f"{prefix}.{f}", units.get(f, "count")) for f in fields]


# Every per-layer metric of a traced run, in report order, with its unit.
PER_LAYER = (
    _layer("cli.main", "calls", "self_s")
    + _layer("exprfield.eval_at", "calls", "points", "s")
    + _layer("geometry.levelset_shape", "calls", "points", "s")
    + _layer("geometry.bilinear_form_Q", "calls", "points", "self_s")
    + _layer("geometry.top_m_eigensum", "calls", "points", "s")
    + _layer("geometry.christoffel", "calls", "points", "s")
    + _layer("geometry.newton_level_project", "calls", "s")
    + _layer("barrier.build_barrier", "calls", "s")
    + _layer("barrier.project", "calls", "points", "s", "newton_iters", "unconverged")
    + _layer("barrier.tube_eval", "calls", "points", "self_s", "invalid")
    + [("barrier.tube_eval.per_query", "1"),
       ("barrier.tube_eval.per_query.verify_barrier", "1"),
       ("barrier.tube_eval.per_query.check_bounded_mc", "1")]
    + _layer("barrier.field.value", "calls", "points", "s")
    + _layer("barrier.field.jacobian", "calls", "points", "s")
    + _layer("barrier.verify_barrier", "calls", "s", "grid_points", "live_points")
    + [("barrier.verify_barrier.speedup_2t", "1")]
    + _layer("varifold.varifold_from_mesh", "calls", "atoms", "s")
    + _layer("varifold.first_variation", "calls", "atoms", "s")
    + _layer("varifold.check_bounded_mc", "calls", "s")
    + _layer("varifold.area_vertex_gradient", "calls", "s")
    + _layer("varifold.decompose_integral", "s")
    + _layer("varifold.support_distance", "calls", "s")
    + _layer("minimizer.minimize", "calls", "s", "iterations")
    + _layer("minimizer.area_gradient", "calls", "s")
    + [("minimizer.area.calls_per_iter", "1"),
       ("minimizer.armijo.accept_ratio", "1"),
       ("minimizer.degenerate_retries", "count")]
    + _layer("minimizer.project_to_domain", "calls", "s")
    + _layer("minimizer.flip_bad_edges", "calls", "flips")
    + _layer("minimizer.stationarity_residual", "s")
    + [(f"harness.theorem{k}.s", "s") for k in (1, 3, 4, 5, 6)]
    + [("harness.self_s", "s")]
    + _layer("harness.hausdorff_distance", "calls", "s")
    + [("import.mconvex_s", "s"), ("import.scipy_spatial_s", "s"),
       ("import.jsonschema_s", "s"), ("trace.overhead_s", "s")]
)
