"""Span tracing of bdsde from outside the package.

``Tracer.installed()`` replaces public functions of each layer with timing
wrappers at the names their callers look up (module globals and class
attributes), and puts the originals back on exit.  Every wrapped call records
one span (name, start, end, parent span, op id) in memory and adds the
layer's counts for the current op.  Spans are written out once, at the end
of a run.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

MB = 1e6

# Per-layer metrics reported by a traced run: name -> unit.  Times are the
# summed span durations of one op; counts are per op; every value is the
# median over the traced ops of a run.
PER_LAYER = {
    "model.sample_noise.s": "s",
    "model.gaussians": "count",
    "model.noise_mb": "MB",
    "forward.simulate_stopped.s": "s",
    "forward.shift_width.s": "s",
    "forward.shift_width.points": "count",
    "forward.path_steps": "count",
    "forward.exit_fraction": "ratio",
    "forward.states_mb": "MB",
    "regression.cell_index.s": "s",
    "regression.cell_index.calls": "count",
    "regression.cell_index.points": "count",
    "regression.cell_index.calls_per_step": "1/step",
    "regression.project.s": "s",
    "regression.project.calls": "count",
    "regression.project.samples": "count",
    "regression.evaluate.s": "s",
    "regression.evaluate.calls": "count",
    "regression.empty_cells": "count",
    "regression.out_of_range": "count",
    "solver.backward_induction.s": "s",
    "solver.backward_induction.self_s": "s",
    "solver.z_step.s": "s",
    "solver.y_step.s": "s",
    "solver.terminal_values.s": "s",
    "solver.eval_g.calls": "count",
    "solver.eval_g.calls_per_step": "1/step",
    "solver.eval_g.s": "s",
    "solver.eval_f.calls": "count",
    "solver.eval_f.s": "s",
    "solver.steps": "count",
    "solver.picard_residual_max": "abs",
    "oracles.spde_point.s": "s",
    "oracles.spde_point.calls": "count",
    "oracles.restart_solves": "count",
    "oracles.gaussians_regenerated": "count",
    "oracles.collar_fallbacks": "count",
    "experiments.load_config.s": "s",
    "experiments.build_problem.s": "s",
    "cli.main.s": "s",
    "cli.main.self_s": "s",
    "trace.spans": "count",
    "trace.overhead_s": "s",
}

# Spans whose summed duration is reported as "<name>.s" and, for the names
# in SELF_TIMED, whose self time (span minus children) as "<name>.self_s".
TIMED = (
    "model.sample_noise", "forward.simulate_stopped", "forward.shift_width",
    "regression.cell_index", "regression.project", "regression.evaluate",
    "solver.backward_induction", "solver.z_step", "solver.y_step",
    "solver.terminal_values", "solver.eval_g", "solver.eval_f",
    "oracles.spde_point", "experiments.load_config",
    "experiments.build_problem", "cli.main",
)
SELF_TIMED = ("solver.backward_induction", "cli.main")
CALLED = ("regression.cell_index", "regression.project", "regression.evaluate",
          "solver.eval_g", "solver.eval_f", "oracles.spde_point")


# ------------------------------ layer counts ------------------------------- #

def _noise(counts, args, out):
    counts["model.gaussians"] += out.forward.size + out.backward.size
    counts["model.noise_mb"] += (out.forward.nbytes + out.backward.nbytes) / MB


def _regenerated_noise(counts, args, out):
    _noise(counts, args, out)
    counts["oracles.gaussians_regenerated"] += out.forward.size + out.backward.size


def _paths(counts, args, out):
    counts["forward.path_steps"] += int(out.exit_index.sum())
    counts["forward.states_mb"] += out.states.nbytes / MB
    counts["forward.exits"] += int(out.exit_detected.sum())
    counts["forward.paths"] += out.M


def _shift_points(counts, args, out):
    counts["forward.shift_width.points"] += np.shape(args[1])[0]


def _cell_points(counts, args, out):
    counts["regression.cell_index.points"] += np.shape(args[1])[0]


def _fit(counts, args, out):
    counts["regression.project.samples"] += np.shape(args[1])[0]
    counts["regression.empty_cells"] += out.empty_cells
    counts["regression.out_of_range"] += out.out_of_range_samples


def _backward(counts, args, out):
    counts["solver.steps"] += args[1].N
    res = out.diagnostics.picard_residuals
    if res.size:
        last = float(res[:, -1].max())
        counts["solver.picard_residual_max"] = max(
            counts["solver.picard_residual_max"], last)


def _restart(counts, args, out):
    counts["oracles.restart_solves"] += 1


def hooks(bdsde):
    """(owner, attribute, span name, counter) for every traced call site."""
    cli, forward, model, oracles = bdsde.cli, bdsde.forward, bdsde.model, bdsde.oracles
    regression, solver = bdsde.regression, bdsde.solver
    return [
        # calls made by the benchmark itself through the package namespace
        (bdsde, "sample_noise", "model.sample_noise", _noise),
        (bdsde, "simulate_stopped", "forward.simulate_stopped", _paths),
        (bdsde, "solve", "solver.solve", None),
        (bdsde, "load_config", "experiments.load_config", None),
        (bdsde, "build_problem", "experiments.build_problem", None),
        (cli, "main", "cli.main", None),
        # calls made inside the package
        (cli, "load_config", "experiments.load_config", None),
        (cli, "build_problem", "experiments.build_problem", None),
        (cli, "sample_noise", "model.sample_noise", _noise),
        (cli, "spde_point", "oracles.spde_point", None),
        (oracles, "sample_noise", "model.sample_noise", _regenerated_noise),
        (oracles, "solve", "solver.solve", _restart),
        (solver, "simulate_stopped", "forward.simulate_stopped", _paths),
        (solver, "backward_induction", "solver.backward_induction", _backward),
        (solver, "terminal_values", "solver.terminal_values", None),
        (solver, "z_step", "solver.z_step", None),
        (solver, "y_step", "solver.y_step", None),
        (solver, "project", "regression.project", _fit),
        (forward, "shift_width", "forward.shift_width", _shift_points),
        (regression.HypercubePartition, "cell_index", "regression.cell_index", _cell_points),
        (regression.CellFunction, "evaluate", "regression.evaluate", None),
        (model.CoefficientSet, "eval_f", "solver.eval_f", None),
        (model.CoefficientSet, "eval_g", "solver.eval_g", None),
    ]


# --------------------------------- tracer ---------------------------------- #

class Tracer:
    """In-memory span recorder for one single-threaded benchmark process."""

    def __init__(self, bdsde):
        self._bdsde = bdsde
        self.spans = []                      # [name, start, end, parent, op]
        self.raised = defaultdict(Counter)   # op -> span name -> exceptions
        self.counts = defaultdict(Counter)   # op -> count name -> value
        self.op = None
        self._stack = []

    def _wrap(self, name, fn, count):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, tracer._stack[-1] if tracer._stack else None,
                    tracer.op]
            index = len(tracer.spans)
            tracer.spans.append(span)
            tracer._stack.append(index)
            span[1] = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            except Exception:
                tracer.raised[tracer.op][name] += 1
                raise
            finally:
                span[2] = time.perf_counter()
                tracer._stack.pop()
            if count is not None:
                count(tracer.counts[tracer.op], args, out)
            return out

        return traced

    @contextlib.contextmanager
    def installed(self, op):
        """Trace every hooked call made inside the block as part of ``op``."""
        saved = []
        try:
            for owner, attr, name, count in hooks(self._bdsde):
                original = owner.__dict__[attr]
                saved.append((owner, attr, original))
                setattr(owner, attr, self._wrap(name, original, count))
            self.op = op
            yield self
        finally:
            self.op = None
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def op_metrics(self, op):
        """Per-layer metrics of one traced op (every PER_LAYER name but the
        overhead, which needs untraced ops too)."""
        spans = [s for s in self.spans if s[4] == op]
        total = Counter()
        self_time = Counter()
        calls = Counter()
        for s in spans:
            total[s[0]] += s[2] - s[1]
            self_time[s[0]] += s[2] - s[1]
            calls[s[0]] += 1
            if s[3] is not None:
                self_time[self.spans[s[3]][0]] -= s[2] - s[1]

        counts = self.counts[op]
        steps = counts["solver.steps"]
        m = {f"{name}.s": total[name] for name in TIMED}
        m.update({f"{name}.self_s": self_time[name] for name in SELF_TIMED})
        m.update({f"{name}.calls": calls[name] for name in CALLED})
        for key in ("model.gaussians", "model.noise_mb", "forward.shift_width.points",
                    "forward.path_steps", "forward.states_mb",
                    "regression.cell_index.points", "regression.project.samples",
                    "regression.empty_cells", "regression.out_of_range",
                    "solver.steps", "solver.picard_residual_max",
                    "oracles.restart_solves", "oracles.gaussians_regenerated"):
            m[key] = counts[key]
        paths = counts["forward.paths"]
        m["forward.exit_fraction"] = counts["forward.exits"] / paths if paths else 0.0
        m["regression.cell_index.calls_per_step"] = (
            calls["regression.cell_index"] / steps if steps else 0.0)
        m["solver.eval_g.calls_per_step"] = calls["solver.eval_g"] / steps if steps else 0.0
        m["oracles.collar_fallbacks"] = self.raised[op]["oracles.spde_point"]
        m["trace.spans"] = len(spans)
        return m

    def summary(self, ops, overhead_s):
        """Median over ``ops`` of each per-layer metric, plus the overhead."""
        per_op = [self.op_metrics(op) for op in ops]
        out = {name: statistics.median(m[name] for m in per_op)
               for name in PER_LAYER if name != "trace.overhead_s"}
        out["trace.overhead_s"] = overhead_s
        return out

    def write(self, path: Path) -> None:
        """Write every span as a JSON list of [name, start, end, parent, op]."""
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"fields": ["name", "start", "end", "parent", "op"],
                       "spans": self.spans}, fh, separators=(",", ":"))
