"""The benchmark's span tracer wraps package functions by name; every name
it wraps must still be an attribute of its module or class."""

import importlib.util
import json
from pathlib import Path

import bdsde
import bdsde.cli

SPANS = Path(__file__).resolve().parents[1] / "perfbench" / "spans.py"


def load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_name_exists():
    hooks = load_spans().hooks(bdsde)
    assert hooks
    missing = [f"{getattr(owner, '__name__', owner)}.{attr}"
               for owner, attr, _, _ in hooks if attr not in owner.__dict__]
    assert missing == []


def test_traced_commands_fill_every_layer(tmp_path):
    # the counters read positional arguments of the wrapped calls, so a
    # traced run fails if a wrapped signature moves
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(
        mu=0.05, sigma_coef=0.2, r=0.01, R=0.06, K=115.0, x0=100.0, T=0.25,
        domain_lower=90.0, domain_upper=110.0, N=3, M=64, delta=5.0,
        g_choice="g1", mode="bdsde-random-terminal", seed=7, spatial_points=2)))
    tracer = load_spans().Tracer(bdsde)
    with tracer.installed(0):
        for command in ("run", "spde-grid"):
            assert bdsde.cli.main([command, "--config", str(config),
                                   "--out", str(tmp_path / "out.csv")]) == 0
    m = tracer.op_metrics(0)
    for name in ("regression.cell_index.calls", "regression.project.calls",
                 "solver.eval_g.calls", "solver.eval_f.calls",
                 "oracles.spde_point.calls", "oracles.restart_solves",
                 "forward.shift_width.points", "forward.path_steps"):
        assert m[name] > 0, name
