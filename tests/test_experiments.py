"""Config loading, repetition statistics, table/sweep rows, CSV emission."""

import csv
import dataclasses
import json
import re
from concurrent.futures import Future
from unittest import mock

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bdsde import experiments, model, solver
from bdsde import (
    MODES,
    CoefficientSet,
    ConfigError,
    Domain,
    EvaluationError,
    ExperimentConfig,
    InvalidParameterError,
    TABLE_M_GRID,
    build_problem,
    emit_csv,
    load_config,
    make_driver,
    make_g,
    repeat_runs,
    run_convergence,
    run_table,
    sample_noise,
    solve,
    spde_point,
)


def base_kwargs(**overrides):
    kw = dict(mu=0.05, sigma_coef=0.2, r=0.01, R=0.06, K=115.0, x0=100.0,
              T=0.25, domain_lower=60.0, domain_upper=200.0, N=6, M=256,
              delta=5.0, g_choice="g1", mode="bdsde-random-terminal", seed=7,
              R_runs=3)
    kw.update(overrides)
    return kw


def write_config(path, **overrides):
    path.write_text(json.dumps(base_kwargs(**overrides)))
    return str(path)


# ------------------------------ model presets ------------------------------ #

def test_g_presets_frozen_values():
    x = np.array([[100.0]])
    y = np.array([[2.0]])
    z = np.array([[[3.0]]])
    log100 = np.log(100.0)
    assert make_g("g1")(0.0, x, y, z)[0, 0, 0] == pytest.approx(
        0.3 + 1.0 + log100, rel=1e-15)
    assert make_g("g2")(0.0, x, y, z)[0, 0, 0] == pytest.approx(1.3, rel=1e-15)
    assert make_g("g3")(0.0, x, y, z)[0, 0, 0] == pytest.approx(
        log100 + 1.0, rel=1e-15)
    assert make_g("none") is None
    with pytest.raises(InvalidParameterError, match="custom"):
        make_g("custom")


def test_driver_at_oracle_point():
    f = make_driver(0.05, 0.2, 0.01, 0.06)
    x = np.array([[100.0]])
    y = np.array([[14.712859075707911]])
    z = np.array([[[-20.0]]])
    # y - z/sigma > 0 there, so only the linear terms contribute
    expect = 0.2 * 20.0 - 0.01 * 14.712859075707911
    assert f(0.0, x, y, z)[0, 0] == pytest.approx(expect, rel=1e-15)
    # borrowing branch: y - z/sigma < 0 switches the rate
    y2 = np.array([[-1.0]])
    z2 = np.array([[[0.0]]])
    assert f(0.0, x, y2, z2)[0, 0] == pytest.approx(0.01 + 0.05, rel=1e-14)


@st.composite
def driver_problems(draw):
    rate = st.floats(-0.5, 0.5) | st.sampled_from([0.0, -0.0])
    params = (draw(rate), draw(st.floats(0.01, 2.0) | st.sampled_from([-0.3])),
              draw(rate), draw(rate))
    M, k = draw(st.integers(1, 8)), draw(st.integers(1, 3))
    value = st.floats(-1e6, 1e6) | st.sampled_from([0.0, -0.0])
    y = np.array(draw(st.lists(value, min_size=M * k, max_size=M * k))).reshape(M, k)
    z = np.array(draw(st.lists(value, min_size=M * k, max_size=M * k))).reshape(M, k, 1)
    return params, y, z


@settings(max_examples=300, deadline=None)
@given(driver_problems())
def test_driver_equals_its_expression_form(problem):
    # the in-place driver gives the bytes of the expression it computes,
    # signed zeros included, on read-only arguments as the solver hands them
    (mu, sigma_coef, r, R), y, z = problem
    theta = (mu - r) / sigma_coef
    zs = z[:, :, 0]
    want = -theta * zs - r * y + np.maximum(-(y - zs / sigma_coef), 0.0) * (R - r)
    for a in (y, z):
        a.setflags(write=False)
    got = make_driver(mu, sigma_coef, r, R)(0.0, np.ones((len(y), 1)), y, z)
    assert got.tobytes() == want.tobytes()


def test_payoff_preset():
    phi = build_problem(ExperimentConfig(**base_kwargs(K=115.0)))[0].phi
    x = np.array([[100.0], [130.0]])
    assert np.array_equal(phi(0.0, x), np.array([[15.0], [-15.0]]))


# ------------------------------ configuration ------------------------------ #

def test_load_reference_config():
    cfg = load_config("configs/reference.json")
    assert cfg.K == 115.0 and cfg.x0 == 100.0 and cfg.T == 0.25
    assert cfg.N == 20 and cfg.M == 32768 and cfg.delta == 1.0
    assert cfg.mode == "bdsde-random-terminal" and cfg.g_choice == "g1"
    assert cfg.seed == 42 and cfg.R_runs == 50 and cfg.shift_enabled


def test_defaults_fill_in(tmp_path):
    raw = base_kwargs()
    del raw["R_runs"]
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw))
    cfg = load_config(str(p))
    assert cfg.I == 3 and cfg.R_runs == 50 and cfg.shift_enabled
    assert cfg.basis_lower is None and cfg.out is None
    assert cfg.j_max == 5 and cfg.spatial_points == 29


@pytest.mark.parametrize("field,value,fragment", [
    ("delta", 0.0, "delta"),
    ("sigma_coef", -0.2, "sigma_coef"),
    ("N", 0, "N"),
    ("x0", 59.0, "x0"),
    ("domain_upper", 50.0, "domain_lower"),
    ("g_choice", "g9", "g_choice"),
    ("g_choice", "custom", "g_choice must be one of"),
    ("mode", "forward", "mode"),
    ("R_runs", 1, "R_runs"),
    ("seed", -1, "seed"),
    ("T", 0.0, "T"),
    ("T", float("inf"), "T must be finite"),
])
def test_constraint_violations_name_the_field(tmp_path, field, value, fragment):
    path = write_config(tmp_path / "c.json", **{field: value})
    with pytest.raises(ConfigError, match=fragment):
        load_config(path)


def test_unknown_key_rejected(tmp_path):
    raw = base_kwargs()
    raw["sigma"] = 0.2
    p = tmp_path / "c.json"
    p.write_text(json.dumps(raw))
    with pytest.raises(ConfigError, match="sigma"):
        load_config(str(p))


def test_type_errors_name_the_field(tmp_path):
    path = write_config(tmp_path / "c.json", N=6.5)
    with pytest.raises(ConfigError, match="N must be an integer"):
        load_config(path)
    path = write_config(tmp_path / "d.json", mu="zero")
    with pytest.raises(ConfigError, match="mu"):
        load_config(path)
    path = write_config(tmp_path / "e.json", shift_enabled="yes")
    with pytest.raises(ConfigError, match="shift_enabled"):
        load_config(path)


# one value of a wrong JSON type per field
WRONG_TYPE = {
    "mu": "0.05", "sigma_coef": True, "r": [0.01], "R": None, "K": "115",
    "x0": {}, "T": True, "domain_lower": "60", "domain_upper": None, "N": 6.0,
    "M": "256", "delta": None, "g_choice": 1, "mode": None, "seed": True,
    "I": 3.5, "R_runs": "3", "shift_enabled": 1, "basis_lower": "40",
    "basis_upper": True, "out": 5, "j_max": None, "spatial_points": 2.0,
}


def test_wrong_type_table_covers_every_field():
    assert set(WRONG_TYPE) == {f.name for f in dataclasses.fields(ExperimentConfig)}


@pytest.mark.parametrize("field", sorted(WRONG_TYPE))
def test_every_field_rejects_a_wrong_json_type(tmp_path, field):
    # files, direct construction and dataclasses.replace share one check
    wrong = {field: WRONG_TYPE[field]}
    path = write_config(tmp_path / "c.json", **wrong)
    with pytest.raises(ConfigError, match=rf"^{field} must be "):
        load_config(path)
    with pytest.raises(ConfigError, match=rf"^{field} must be "):
        ExperimentConfig(**base_kwargs(**wrong))
    with pytest.raises(ConfigError, match=rf"^{field} must be "):
        dataclasses.replace(ExperimentConfig(**base_kwargs()), **wrong)


# per ruled field: a value one step past the rule declared beside it, and the rule
PAST_THE_RULE = {
    "sigma_coef": (0.0, "positive"), "T": (0.0, "positive"),
    "delta": (0.0, "positive"), "N": (0, "at least 1"), "M": (0, "at least 1"),
    "j_max": (0, "at least 1"), "spatial_points": (0, "at least 1"),
    "I": (-1, "at least 0"), "R_runs": (1, "at least 2"),
    "g_choice": ("g4", f"one of {experiments.G_CHOICES}"),
    "mode": ("backward", f"one of {MODES}"),
    "seed": (2 ** 64, "an unsigned 64-bit integer"),
}


def test_rule_table_covers_every_ruled_field():
    ruled = {f.name for f in dataclasses.fields(ExperimentConfig) if "rule" in f.metadata}
    assert set(PAST_THE_RULE) == ruled


@pytest.mark.parametrize("field", sorted(PAST_THE_RULE))
def test_every_ruled_field_refuses_a_value_past_its_rule(tmp_path, field):
    value, rule = PAST_THE_RULE[field]
    message = "^" + re.escape(f"{field} must be {rule}, got {value!r}") + "$"
    path = write_config(tmp_path / "c.json", **{field: value})
    with pytest.raises(ConfigError, match=message):
        load_config(path)
    with pytest.raises(ConfigError, match=message):
        ExperimentConfig(**base_kwargs(**{field: value}))
    with pytest.raises(ConfigError, match=message):
        dataclasses.replace(ExperimentConfig(**base_kwargs()), **{field: value})


def test_an_int_given_for_a_float_is_stored_as_a_float():
    cfg = dataclasses.replace(ExperimentConfig(**base_kwargs()), T=1)
    assert type(cfg.T) is float and cfg.T == 1.0


@pytest.mark.parametrize("field", ["basis_lower", "basis_upper", "out"])
def test_optional_fields_accept_null(tmp_path, field):
    path = write_config(tmp_path / "c.json", **{field: None})
    assert getattr(load_config(path), field) is None


def test_parse_error_reports_line(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text('{\n  "mu": 0.05,\n  oops\n}')
    with pytest.raises(ConfigError, match="line 3"):
        load_config(str(p))
    missing = tmp_path / "missing.json"
    with pytest.raises(ConfigError, match="missing.json"):
        load_config(str(missing))
    arr = tmp_path / "arr.json"
    arr.write_text("[1, 2]")
    with pytest.raises(ConfigError, match="flat JSON object"):
        load_config(str(arr))


def test_mode_requires_g():
    with pytest.raises(ConfigError, match="g"):
        ExperimentConfig(**base_kwargs(g_choice="none"))
    # bsde alone is fine without a coupling
    ExperimentConfig(**base_kwargs(g_choice="none", mode="bsde"))


def test_basis_bounds_come_in_pairs():
    with pytest.raises(ConfigError, match="basis"):
        ExperimentConfig(**base_kwargs(basis_lower=40.0))
    with pytest.raises(ConfigError, match="basis_lower must be below basis_upper"):
        ExperimentConfig(**base_kwargs(basis_lower=180.0, basis_upper=40.0))
    cfg = ExperimentConfig(**base_kwargs(basis_lower=40.0, basis_upper=180.0))
    _, _, _, partition, _ = build_problem(cfg)
    assert partition.d1[0] == 40.0 and partition.d2[0] == 180.0


def test_build_problem_wires_the_config():
    cfg = ExperimentConfig(**base_kwargs())
    coeffs, grid, domain, partition, scfg = build_problem(cfg)
    assert coeffs.g is not None and coeffs.d == 1
    assert grid.N == 6 and grid.times[-1] == 0.25
    assert domain.lower[0] == 60.0 and domain.upper[0] == 200.0
    assert partition.d1[0] == 60.0 and scfg.mode == cfg.mode
    assert scfg.picard_iterations == 3


def test_no_solve_builds_the_state_grid(monkeypatch):
    # a solve reads the path record through at(n), steps and exit_state, so
    # PathSet.states, the (N+1)·M·d stack, is built only when a caller asks.
    # Each solve keeps its record and runs one forward pass: one face scan
    # for the start and one per step, N + 1 on its grid
    made, scans = [], []
    simulate, scan = solver.simulate_stopped, Domain.nearest_face
    monkeypatch.setattr(solver, "simulate_stopped",
                        lambda *args, **kw: made.append(simulate(*args, **kw)) or made[-1])
    monkeypatch.setattr(Domain, "nearest_face",
                        lambda self, x: scans.append(len(x)) or scan(self, x))
    cfg = ExperimentConfig(**base_kwargs(domain_lower=90.0, domain_upper=110.0, delta=1.0))
    problem = build_problem(cfg)
    coeffs, grid, domain, partition, scfg = problem
    assert experiments._solve_seed(cfg, problem, cfg.seed).paths.exit_detected.any()
    experiments._run_set(cfg, 1, problem, [0, 3])
    wpath = sample_noise(1, 1, grid, 1, 1).backward
    # 90.01 lies in the shift collar; at t_N every restart has no step left
    for t_n in (0.0, grid.times[-1]):
        spde_point(coeffs, grid, domain, wpath, t_n, [[90.01], [100.0]], 256,
                   partition, scfg, 5)
    assert len(made) == 1 + cfg.R_runs + 2 * 2
    assert not any("states" in vars(paths) for paths in made)
    assert all(paths.rerun is None for paths in made)
    assert len(scans) == sum(paths.grid.N + 1 for paths in made)


# --------------------------- repetition statistics ------------------------- #

def constant_solution_coeffs(c):
    return CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: np.zeros_like(x),
        sigma=lambda x: np.zeros(x.shape + (1,)),
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: np.full(x.shape[:-1] + (1,), c),
    )


def test_repeat_runs_requires_two():
    cfg = ExperimentConfig(**base_kwargs())
    # the override goes through the config's own check
    with pytest.raises(ConfigError, match="R_runs"):
        repeat_runs(cfg, 1)
    for threads in (0, 1.5, np.nan, "2", True):
        with pytest.raises(InvalidParameterError, match="threads"):
            repeat_runs(cfg, 2, threads=threads)


def test_repeat_runs_degenerate_coefficients_are_exact():
    cfg = ExperimentConfig(**base_kwargs(g_choice="none", mode="bsde"))
    problem = (constant_solution_coeffs(2.5),) + build_problem(cfg)[1:]
    stats = experiments._run_set(cfg, 1, problem, (0,))[0]
    assert stats.values == (2.5, 2.5, 2.5)
    assert stats.mean == 2.5 and stats.std == 0.0 and len(stats.values) == 3


def test_seed_discipline_matches_standalone_solve():
    cfg = ExperimentConfig(**base_kwargs(M=128))
    stats = repeat_runs(cfg, 3)
    coeffs, grid, domain, partition, scfg = build_problem(cfg)
    noise = sample_noise(cfg.seed + 2, cfg.M, grid, 1, 1)
    sol = solve(coeffs, grid, domain, noise, [cfg.x0], partition, scfg)
    assert stats.values[2] == sol.Y0[0]


def test_repeat_runs_thread_count_never_changes_values():
    cfg = ExperimentConfig(**base_kwargs(M=128))
    serial = repeat_runs(cfg, 4)
    pooled = repeat_runs(cfg, 4, threads=3)
    assert serial.values == pooled.values


def test_repetition_pool_is_clamped_to_tasks_and_cpus(monkeypatch):
    # a stand-in pool records its size and runs serially: no thread starts
    sizes = []

    class SerialPool:
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def submit(self, fn, *args):
            future = Future()
            future.set_result(fn(*args))
            return future

    monkeypatch.setattr(model, "ThreadPoolExecutor", SerialPool)
    cfg = ExperimentConfig(**base_kwargs(M=64))
    serial = repeat_runs(cfg, 3)
    monkeypatch.setattr(model, "_cpus", lambda: 4)
    for threads in (10 ** 9, 2, 3):
        assert repeat_runs(cfg, 3, threads=threads).values == serial.values
    assert repeat_runs(cfg, 6, threads=10 ** 9).values[:3] == serial.values
    assert sizes == [2, 1, 2, 3]


def test_without_an_affinity_call_an_unknown_cpu_count_is_one_worker(monkeypatch):
    # where the platform has no sched_getaffinity and os.cpu_count knows
    # nothing, repetitions and noise chunks run in the calling thread
    sizes = []

    class RecordingPool(model.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    cfg = ExperimentConfig(**base_kwargs(M=64))
    serial = repeat_runs(cfg, 3)
    monkeypatch.setattr(model, "ThreadPoolExecutor", RecordingPool)
    monkeypatch.delattr(model.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(model.os, "cpu_count", lambda: None)
    monkeypatch.setattr(model, "_SCRATCH_WORDS", 64)
    assert model._cpus() == 1
    assert repeat_runs(cfg, 3, threads=8).values == serial.values
    assert sizes == []


def test_the_calling_threads_error_comes_first(monkeypatch):
    # on 2 CPUs the calling thread runs seeds seed+0 and seed+2, the worker
    # seed+1 and seed+3; seed+2's error is raised, not seed+1's
    cfg = ExperimentConfig(**base_kwargs(M=64))
    real = experiments._solve_seed

    def failing(config, problem, seed):
        if seed - cfg.seed in (1, 2):
            raise EvaluationError(f"injected failure at seed+{seed - cfg.seed}")
        return real(config, problem, seed)

    monkeypatch.setattr(experiments, "_solve_seed", failing)
    monkeypatch.setattr(model, "_cpus", lambda: 2)
    with pytest.raises(EvaluationError, match=r"seed\+2"):
        repeat_runs(cfg, 4, threads=2)


@settings(max_examples=12, deadline=None)
@given(seed=st.integers(0, 2 ** 32), reps=st.integers(2, 4),
       threads=st.sampled_from([1, 2, 3]))
def test_y0_does_not_depend_on_batching_across_threads(seed, reps, threads):
    # 4 CPUs, so 3 repetitions really run at once, and a 64-word noise
    # scratch, so every repetition fills its noise on a pool nested in its
    # own thread
    cfg = ExperimentConfig(**base_kwargs(M=64, seed=seed))
    serial = repeat_runs(cfg, reps)
    with mock.patch.object(model, "_cpus", lambda: 4), \
            mock.patch.object(model, "_SCRATCH_WORDS", 64):
        assert repeat_runs(cfg, reps, threads=threads).values == serial.values


def test_std_matches_two_pass_formula():
    cfg = ExperimentConfig(**base_kwargs(M=128))
    stats = repeat_runs(cfg, 5)
    mean = sum(stats.values) / 5
    two_pass = (sum((v - mean) ** 2 for v in stats.values) / 4) ** 0.5
    assert stats.std == pytest.approx(two_pass, rel=1e-12)
    assert stats.mean == pytest.approx(mean, rel=1e-14)


def test_doubling_reps_keeps_mean_in_clt_band():
    cfg = ExperimentConfig(**base_kwargs(M=128, mode="bsde", g_choice="none"))
    small = repeat_runs(cfg, 6)
    big = repeat_runs(cfg, 12)
    assert abs(big.mean - small.mean) <= 2.0 * small.std / np.sqrt(6)


# ------------------------------ table and sweep ---------------------------- #

def test_table_structure_and_sorting():
    cfg = ExperimentConfig(**base_kwargs(R_runs=2))
    rows = run_table(cfg)
    assert rows[0] == ("time_index", "mode", "g_choice", "M", "mean", "std")
    data = rows[1:]
    assert len(data) == 3 * len(TABLE_M_GRID) * 3    # times x M x modes
    keys = [(r[0], r[1], r[3]) for r in data]
    assert keys == sorted(keys)
    assert {r[0] for r in data} == {0, 4, 5}          # N=6: 0, 3N//4, N-1
    for r in data:
        assert r[2] == ("none" if r[1] == "bsde" else "g1")
        assert r[5] >= 0.0


def test_table_bsde_rows_ignore_g_choice():
    cfg_g1 = ExperimentConfig(**base_kwargs(seed=21, R_runs=2))
    cfg_off = ExperimentConfig(**base_kwargs(seed=21, R_runs=2, g_choice="none",
                                             mode="bsde"))
    bsde_rows = [r for r in run_table(cfg_g1)[1:] if r[1] == "bsde"]
    off_rows = run_table(cfg_off)[1:]
    assert bsde_rows == off_rows


def test_table_t0_row_agrees_with_repeat_runs():
    cfg = ExperimentConfig(**base_kwargs(R_runs=2))
    rows = run_table(cfg)
    row = next(r for r in rows[1:]
               if r[0] == 0 and r[1] == cfg.mode and r[3] == 128)
    stats = repeat_runs(dataclasses.replace(cfg, M=128), 2)
    assert row[4] == stats.mean and row[5] == stats.std


def test_table_rejects_single_rep():
    cfg = ExperimentConfig(**base_kwargs())
    with pytest.raises(ConfigError, match="R_runs"):
        run_table(dataclasses.replace(cfg, R_runs=1))


def test_convergence_rows_realize_the_schedule():
    cfg = ExperimentConfig(**base_kwargs(R_runs=2))
    rows = run_convergence(dataclasses.replace(cfg, j_max=5))
    assert rows[0] == ("j", "N", "M", "delta", "mode", "mean", "std")
    data = rows[1:]
    assert len(data) == 5 * 3
    schedule = {r[0]: (r[1], r[2], r[3]) for r in data}
    assert schedule[1][:2] == (2, 2) and schedule[1][2] == pytest.approx(50.0)
    assert schedule[2][:2] == (3, 6)
    assert schedule[2][2] == pytest.approx(50.0 / np.sqrt(2.0), rel=1e-14)
    assert schedule[3][:2] == (4, 16) and schedule[3][2] == pytest.approx(25.0)
    assert schedule[4][:2] == (6, 45)
    assert schedule[5][:2] == (8, 128) and schedule[5][2] == pytest.approx(12.5)
    with pytest.raises(ConfigError, match="j_max"):
        run_convergence(dataclasses.replace(cfg, j_max=0))


def test_convergence_uses_config_j_max_and_modes():
    cfg = ExperimentConfig(**base_kwargs(R_runs=2, j_max=2, g_choice="none",
                                         mode="bsde"))
    rows = run_convergence(cfg)
    assert len(rows) == 1 + 2          # bsde only, j in {1, 2}
    assert all(r[4] == "bsde" for r in rows[1:])


# --------------------------------- emission -------------------------------- #

def test_emit_csv_formatting_and_round_trip(tmp_path):
    rows = [("a", "b", "c"),
            (1, "bsde", 14.712859075707911),
            (2, "bdsde-fixed-horizon", 0.25)]
    path = tmp_path / "t.csv"
    emit_csv(rows, str(path))
    text = path.read_text()
    assert text == "a,b,c\n1,bsde,14.71285908\n2,bdsde-fixed-horizon,0.25\n"
    with open(path, newline="") as fh:
        parsed = list(csv.reader(fh))
    assert parsed == [["a", "b", "c"],
                      ["1", "bsde", "14.71285908"],
                      ["2", "bdsde-fixed-horizon", "0.25"]]


def test_emit_csv_header_only_and_determinism(tmp_path):
    p1, p2 = tmp_path / "a.csv", tmp_path / "b.csv"
    emit_csv([("x", "y")], str(p1))
    assert p1.read_text() == "x,y\n"
    rows = [("x", "y"), (0.1, -2), (1e-15, 3.5)]
    emit_csv(rows, str(p1))
    emit_csv(rows, str(p2))
    assert p1.read_bytes() == p2.read_bytes()


def test_emit_csv_errors(tmp_path):
    with pytest.raises(InvalidParameterError, match="header"):
        emit_csv([], str(tmp_path / "x.csv"))
    target = str(tmp_path / "no" / "dir" / "x.csv")
    with pytest.raises(ConfigError, match="x.csv"):
        emit_csv([("a",)], target)
