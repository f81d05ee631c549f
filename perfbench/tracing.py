"""Spans around qmlab's layers, recorded from outside the package.

``Tracer.install()`` replaces the listed functions and methods with timing
wrappers (in every qmlab module that binds them), and ``uninstall()`` puts
the originals back, so untraced rounds run the unmodified code.  A span
is (id, parent id, operation id, name, start, end); spans are kept in
memory and written out by the caller at exit.  A call nested directly in
a span of the same name (a SumField part, for instance) gets no span of
its own, so call and point counts count the outermost evaluation only.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from collections import defaultdict

import numpy as np

from qmlab import cli, hamflow, harness, hypgeo, meshes, reeb, symplectic

_MODULES = (cli, hamflow, harness, hypgeo, meshes, reeb, symplectic)


class Tracer:
    def __init__(self):
        self._stack: list[list] = []   # open spans: [id, name, start, child time]
        self._next_id = 0
        self._installed: list[tuple[object, str, object]] = []
        self.op_id = -1
        self.keep_spans = False
        self.spans: list[tuple] = []
        self.reset()

    def reset(self):
        """Start a new aggregation window (one round of operations)."""
        self.time = defaultdict(float)        # name -> inclusive seconds
        self.self_time = defaultdict(float)   # name -> seconds minus child spans
        self.count = defaultdict(int)         # name -> calls, plus exact work counters
        self.newton_iters_max = 0

    # ------------------------------------------------------------ spans

    def _open(self, name):
        frame = [self._next_id, name, time.perf_counter(), 0.0]
        self._next_id += 1
        self._stack.append(frame)
        return frame

    def _close(self, frame):
        end = time.perf_counter()
        self._stack.pop()
        span_id, name, start, child = frame
        dur = end - start
        self.time[name] += dur
        self.self_time[name] += dur - child
        self.count[name] += 1
        parent = self._stack[-1] if self._stack else None
        if parent is not None:
            parent[3] += dur
        if self.keep_spans:
            self.spans.append((span_id, parent[0] if parent else None, self.op_id,
                               name, start, end))

    def span(self, name, fn, before=None, after=None):
        """Wrap ``fn`` in a span; ``before`` may rewrite the call, ``after`` counts work."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = tracer._stack
            if stack and stack[-1][1] == name:
                return fn(*args, **kwargs)
            state = before(tracer, args, kwargs) if before else None
            if state is not None:
                args, kwargs = state[0], state[1]
            frame = tracer._open(name)
            try:
                out = fn(*args, **kwargs)
            finally:
                tracer._close(frame)
            if after:
                after(tracer, args, kwargs, out, state)
            return out

        return wrapper

    @contextlib.contextmanager
    def op_span(self, op_id, name):
        """Root span of one benchmark operation; its spans carry ``op_id``."""
        self.op_id = op_id
        frame = self._open(f"op.{name}")
        try:
            yield
        finally:
            self._close(frame)

    # ------------------------------------------------------------ patching

    def _patch_function(self, module, attr, name, **hooks):
        original = getattr(module, attr)
        wrapped = self.span(name, original, **hooks)
        for mod in _MODULES + (sys.modules["qmlab"],):
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._installed.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def _patch_method(self, cls, attr, name, **hooks):
        original = cls.__dict__[attr]
        self._installed.append((cls, attr, original))
        setattr(cls, attr, self.span(name, original, **hooks))

    def install(self):
        if self._installed:
            return
        for cls in (hamflow.SeparableField, hamflow.SumField, hamflow.ConcatField,
                    hamflow.ConjugatedField):
            for attr in ("value", "grad", "hess"):
                name = f"hamflow.field_{attr}"
                self._patch_method(cls, attr, name, after=_points_counter(name))
        for cls in (hamflow.StandardForm, hamflow.HyperbolicForm):
            self._patch_method(cls, "rho", "hamflow.form_rho")
        self._patch_method(hamflow.FlowMap, "evolve", "hamflow.evolve",
                           before=_evolve_before, after=_evolve_after)
        self._patch_function(hamflow, "calabi", "hamflow.calabi",
                             before=_calabi_before, after=_calabi_after)
        for attr in ("tau_ball", "birkhoff_average", "jacobian_path"):
            self._patch_function(hamflow, attr, f"hamflow.{attr}")
        self._patch_method(hypgeo._LiftState, "hook", "hypgeo.lift")
        self._patch_method(hypgeo.DiskIsotopy, "mean_zero_constant", "hypgeo.mean_zero_constant")
        for attr in ("transport_rate_points", "geodesic_line_integral", "cal_s_estimate",
                     "angle_estimate", "gg_quasimorphism_estimate"):
            self._patch_function(hypgeo, attr, f"hypgeo.{attr}")
        self._patch_function(symplectic, "phi_lag", "symplectic.phi_lag", after=_count_samples)
        for attr in ("concat_power", "phi_homog"):
            self._patch_function(symplectic, attr, f"symplectic.{attr}")
        for attr in ("homogenize", "estimate_defect"):
            self._patch_function(harness, attr, f"harness.{attr}")
        self._patch_function(reeb, "build_reeb", "reeb.build_reeb", after=_count_vertices)
        for attr in ("prune", "theorem2_value", "random_morse_field", "read_off"):
            self._patch_function(reeb, attr, f"reeb.{attr}")
        self._patch_function(meshes, "genus_chain_mesh", "meshes.genus_chain_mesh")
        self._patch_function(cli, "run", "cli.run")

    def uninstall(self):
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()


# ---------------------------------------------------------------- counters

def _points_counter(name):
    key = name + ".points"

    def count(tracer, args, kwargs, out, state):
        tracer.count[key] += int(np.shape(args[1])[0])

    return count


def _evolve_before(tracer, args, kwargs):
    engine = args[0]
    periods = kwargs.get("periods", args[2] if len(args) > 2 else 1)
    hook = kwargs.get("step_hook", args[4] if len(args) > 4 else None)
    if hook is not None:
        args = args[:4]
        kwargs = dict(kwargs, step_hook=tracer.span("hamflow.step_hook", hook))
    points = int(np.atleast_2d(np.asarray(args[1])).shape[0])
    steps = periods * engine.steps_per_period
    return args, kwargs, points, steps, tracer.count["hamflow.field_hess"]


def _evolve_after(tracer, args, kwargs, out, state):
    _, _, points, steps, hess_before = state
    tracer.count["hamflow.steps"] += steps
    tracer.count["hamflow.point_steps"] += points * steps
    tracer.count["hamflow.evolve_hess"] += tracer.count["hamflow.field_hess"] - hess_before
    tracer.newton_iters_max = max(tracer.newton_iters_max, args[0].max_newton_iters)


def _calabi_before(tracer, args, kwargs):
    return args, kwargs, tracer.count["hamflow.field_grad.points"]


def _calabi_after(tracer, args, kwargs, out, state):
    tracer.count["hamflow.calabi.nodes"] += tracer.count["hamflow.field_grad.points"] - state[2]


def _count_samples(tracer, args, kwargs, out, state):
    tracer.count["symplectic.phi_lag.samples"] += int(args[0].matrices.shape[0])


def _count_vertices(tracer, args, kwargs, out, state):
    tracer.count["reeb.build_reeb.vertices"] += int(args[0].n_vertices)
