"""Entry-point behavior: subcommands, flag overrides, exit codes."""

import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import pytest

import bdsde
from bdsde import build_grid, build_problem, load_config, repeat_runs, sample_noise, solve
from bdsde.cli import main


def module_env():
    """Environment in which ``python -m bdsde`` imports the package under test."""
    env = dict(os.environ)
    src = str(Path(bdsde.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


def small_config(tmp_path, **overrides):
    raw = dict(mu=0.05, sigma_coef=0.2, r=0.01, R=0.06, K=115.0, x0=100.0,
               T=0.25, domain_lower=60.0, domain_upper=200.0, N=6, M=128,
               delta=5.0, g_choice="g1", mode="bdsde-random-terminal", seed=7,
               R_runs=2, spatial_points=5)
    raw.update(overrides)
    path = tmp_path / "config.json"
    path.write_text(json.dumps(raw))
    return str(path)


def test_run_prints_solution(tmp_path, capsys):
    assert main(["run", "--config", small_config(tmp_path)]) == 0
    out = capsys.readouterr().out
    assert "Y0 = " in out and "Z0 = " in out
    assert "exit_fraction" in out and "empty_cells_y" in out
    # the narrow box freezes exited paths outside the basis [90, 110); the
    # printed totals are those of the solve's diagnostics
    cfg = small_config(tmp_path, domain_lower=90.0, domain_upper=110.0)
    config = load_config(cfg)
    coeffs, grid, domain, partition, scfg = build_problem(config)
    noise = sample_noise(config.seed, config.M, grid, coeffs.d, coeffs.l)
    diag = solve(coeffs, grid, domain, noise, [config.x0], partition, scfg).diagnostics
    assert diag.out_of_range.sum() > 0
    assert main(["run", "--config", cfg]) == 0
    # y's totals include the terminal fit, z's stop at step N-1
    assert (f"empty_cells_y = {diag.empty_cells.sum()}, "
            f"empty_cells_z = {diag.empty_cells[:-1].sum()}\n"
            f"out_of_range_y = {diag.out_of_range.sum()}, "
            f"out_of_range_z = {diag.out_of_range[:-1].sum()}\n") in capsys.readouterr().out


def test_run_seed_override_changes_the_answer(tmp_path, capsys):
    cfg = small_config(tmp_path)
    main(["run", "--config", cfg])
    first = capsys.readouterr().out
    main(["run", "--config", cfg, "--seed", "7"])
    same = capsys.readouterr().out
    main(["run", "--config", cfg, "--seed", "8"])
    other = capsys.readouterr().out
    assert first == same
    assert first.splitlines()[1] != other.splitlines()[1]


def test_run_reps_and_diagnostics_out(tmp_path, capsys):
    cfg = small_config(tmp_path)
    diag = tmp_path / "diag.csv"
    assert main(["run", "--config", cfg, "--reps", "2",
                 "--out", str(diag)]) == 0
    out = capsys.readouterr().out
    assert "mean = " in out and "std = " in out
    lines = diag.read_text().splitlines()
    assert lines[0] == "n,picard_iter,residual,empty_cells"
    assert len(lines) == 1 + 6 * 3        # N steps x I sweeps


def test_run_out_without_picard_sweeps_writes_one_row_per_step(tmp_path, capsys):
    # with I = 0 there is no residual, but the fit empty-cell counts of
    # every step are still written, as sweep 0 with an empty residual
    cfg = small_config(tmp_path, I=0, domain_lower=90.0, domain_upper=110.0)
    config = load_config(cfg)
    coeffs, grid, domain, partition, scfg = build_problem(config)
    noise = sample_noise(config.seed, config.M, grid, coeffs.d, coeffs.l)
    empty = solve(coeffs, grid, domain, noise, [config.x0], partition,
                  scfg).diagnostics.empty_cells
    diag = tmp_path / "diag.csv"
    assert main(["run", "--config", cfg, "--out", str(diag)]) == 0
    assert diag.read_text().splitlines() == (
        ["n,picard_iter,residual,empty_cells"] + [f"{n},0,,{empty[n]}" for n in range(6)])
    assert empty[:6].any()  # the counts are not all zero


def test_run_reps_solves_each_seed_once(tmp_path, capsys, monkeypatch):
    # the printed solve is repetition 0, so --reps R makes R solves on
    # seeds seed..seed+R-1, with the statistics of repeat_runs
    cfg = small_config(tmp_path)
    seeds = []

    def recording(coeffs, grid, domain, noise, *args, **kwargs):
        seeds.append(noise.seed)
        return solve(coeffs, grid, domain, noise, *args, **kwargs)

    monkeypatch.setattr(bdsde.experiments, "solve", recording)
    assert main(["run", "--config", cfg, "--reps", "3"]) == 0
    assert seeds == [7, 8, 9]
    seeds.clear()
    assert main(["run", "--config", cfg, "--reps", "3", "--threads", "2"]) == 0
    assert sorted(seeds) == [7, 8, 9]
    stats = repeat_runs(load_config(cfg), 3)
    line = f"repetitions = 3: mean = {stats.mean:.10g}, std = {stats.std:.10g}\n"
    assert capsys.readouterr().out.count(line) == 2


def test_run_reps_prints_nothing_when_a_repetition_fails(tmp_path, capsys, monkeypatch):
    # every repetition runs before the first report line is printed
    cfg = small_config(tmp_path)
    failing_seed = load_config(cfg).seed + 1

    def failing(coeffs, grid, domain, noise, *args, **kwargs):
        if noise.seed == failing_seed:
            raise bdsde.EvaluationError("injected failure")
        return solve(coeffs, grid, domain, noise, *args, **kwargs)

    monkeypatch.setattr(bdsde.experiments, "solve", failing)
    assert main(["run", "--config", cfg, "--reps", "3"]) == 3
    captured = capsys.readouterr()
    assert captured.out == "" and "injected failure" in captured.err


def test_run_reps_builds_the_problem_once(tmp_path, capsys, monkeypatch):
    # the printed solve and the repetitions share one build_problem
    cfg = small_config(tmp_path)
    builds = []

    def counting(*args, **kwargs):
        builds.append(1)
        return build_problem(*args, **kwargs)

    monkeypatch.setattr(bdsde.cli, "build_problem", counting)
    monkeypatch.setattr(bdsde.experiments, "build_problem", counting)
    assert main(["run", "--config", cfg, "--reps", "3"]) == 0
    assert len(builds) == 1


def test_table_writes_sorted_csv(tmp_path):
    cfg = small_config(tmp_path, N=4)
    out = tmp_path / "table.csv"
    assert main(["table", "--config", cfg, "--reps", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "time_index,mode,g_choice,M,mean,std"
    assert len(lines) == 1 + 2 * 5 * 3    # N=4 collapses t to {0, 3}


def test_table_stdout_when_no_out(tmp_path, capsys):
    cfg = small_config(tmp_path, N=4, g_choice="none", mode="bsde")
    assert main(["table", "--config", cfg, "--reps", "2"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "time_index,mode,g_choice,M,mean,std"
    assert len(lines) == 1 + 2 * 5


def test_converge_row_schedule(tmp_path):
    cfg = small_config(tmp_path, j_max=3)
    out = tmp_path / "conv.csv"
    assert main(["converge", "--config", cfg, "--reps", "2",
                 "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "j,N,M,delta,mode,mean,std"
    assert len(lines) == 1 + 3 * 3
    assert lines[1].startswith("1,2,2,50,")


def test_spde_grid_export(tmp_path):
    cfg = small_config(tmp_path, N=4, M=64)
    out = tmp_path / "grid.csv"
    assert main(["spde-grid", "--config", cfg, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,x,u,v"
    assert len(lines) == 1 + 5 * 5        # (N+1) times x spatial_points
    # terminal rows carry the payoff and a zero v
    t, x, u, v = lines[-1].split(",")
    assert float(t) == 0.25 and float(v) == 0.0
    assert float(u) == pytest.approx(115.0 - float(x))


SMALL = str(Path(__file__).resolve().parent / "golden" / "small.json")


def no_fork():
    raise AssertionError("os.fork called")


def no_children_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_spde_grid_bytes_do_not_depend_on_the_cpu_count(tmp_path, monkeypatch):
    # small.json has 7 time rows, so every count below forks at most 2 children
    csv = {}
    for cpus in (1, 2, 3):
        monkeypatch.setattr(bdsde.model, "_cpus", lambda: cpus)
        if cpus == 1:
            monkeypatch.setattr(bdsde.cli.os, "fork", no_fork)
        out = tmp_path / f"grid{cpus}.csv"
        threads = set(threading.enumerate())
        assert main(["spde-grid", "--config", SMALL, "--reps", "2",
                     "--out", str(out)]) == 0
        monkeypatch.undo()
        no_children_left()
        assert set(threading.enumerate()) == threads    # the pool is shut down
        csv[cpus] = out.read_bytes()
    assert csv[1] == csv[2] == csv[3]


@pytest.mark.parametrize("bad_row", [3, 4])     # a child's share, the parent's
def test_spde_grid_row_error_exits_3_and_reaps(capfd, monkeypatch, bad_row):
    real = bdsde.cli.spde_point

    def failing(coeffs, grid, domain, wpath, t_n, *args, **kwargs):
        if t_n == grid.times[bad_row]:
            raise bdsde.EvaluationError(f"injected failure at row {bad_row}")
        return real(coeffs, grid, domain, wpath, t_n, *args, **kwargs)

    monkeypatch.setattr(bdsde.cli, "spde_point", failing)
    monkeypatch.setattr(bdsde.model, "_cpus", lambda: 2)
    print("before the field")
    assert main(["spde-grid", "--config", SMALL, "--reps", "2"]) == 3
    no_children_left()
    captured = capfd.readouterr()
    assert captured.out == "before the field\n"
    assert captured.err == f"error: injected failure at row {bad_row}\n"


def test_spde_grid_lowest_failing_share_error_wins_with_its_type(capfd, monkeypatch):
    # at 3 CPUs the worker shares are rows [1, 4] and [2, 5]
    real = bdsde.cli.spde_point
    errors = {1: bdsde.ConfigError, 2: bdsde.EvaluationError}

    def failing(coeffs, grid, domain, wpath, t_n, *args, **kwargs):
        for row, error in errors.items():
            if t_n == grid.times[row]:
                raise error(f"injected failure at row {row}")
        return real(coeffs, grid, domain, wpath, t_n, *args, **kwargs)

    monkeypatch.setattr(bdsde.cli, "spde_point", failing)
    monkeypatch.setattr(bdsde.model, "_cpus", lambda: 3)
    assert main(["spde-grid", "--config", SMALL, "--reps", "2"]) == 2
    no_children_left()
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == "config error: injected failure at row 1\n"


def test_spde_grid_worker_without_a_result_is_an_error(capfd, monkeypatch):
    # the child's share ends with exit status 0 but sends no rows
    parent = os.getpid()
    real = bdsde.cli.spde_point

    def vanishing(*args, **kwargs):
        if os.getpid() != parent:
            os._exit(0)
        return real(*args, **kwargs)

    monkeypatch.setattr(bdsde.cli, "spde_point", vanishing)
    monkeypatch.setattr(bdsde.model, "_cpus", lambda: 2)
    assert main(["spde-grid", "--config", SMALL]) == 3
    no_children_left()
    captured = capfd.readouterr()
    assert captured.out == ""
    assert captured.err == ("error: the worker of share [1, 3, 5] "
                            "ended without a result\n")


def test_spde_grid_worker_needs_nothing_it_inherited():
    # a spawned worker starts from a fresh interpreter: its row task must
    # pickle and rebuild everything it uses from the config
    code = ("import multiprocessing, sys\n"
            "from bdsde import cli, model\n"
            "spawn = multiprocessing.get_context('spawn')\n"
            "multiprocessing.get_context = lambda method=None: spawn\n"
            "model._cpus = lambda: 2\n"
            f"sys.exit(cli.main(['spde-grid', '--config', {SMALL!r}, '--reps', '2']))\n")
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True,
                          env=module_env())
    assert (proc.returncode, proc.stderr) == (0, b"")
    assert proc.stdout == (Path(SMALL).parent / "spde_grid_small.csv").read_bytes()


def test_workers_count_the_cpus_the_process_may_use(capsys, monkeypatch):
    # a process masked to one CPU of an 8-CPU host forks no field worker
    # and starts no noise pool
    sizes = []

    class RecordingPool(bdsde.model.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "fork", no_fork)
    monkeypatch.setattr(bdsde.model, "ThreadPoolExecutor", RecordingPool)
    assert main(["spde-grid", "--config", SMALL, "--reps", "2"]) == 0
    assert capsys.readouterr().out == (Path(SMALL).parent / "spde_grid_small.csv").read_text()
    sample_noise(5, 8195, build_grid(1.0, 256), 1, 1)
    assert sizes == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"),
                    reason="counts threads through /proc")
def test_import_leaves_one_thread_to_fork_from():
    # numpy's and scipy's OpenBLAS each start a thread unless told otherwise;
    # a count that the user set wins over the package default
    env = module_env()
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env.pop(var, None)
    code = ("import bdsde, os; print(len(os.listdir('/proc/self/task')), "
            "os.environ.get('OPENBLAS_NUM_THREADS'), os.environ.get('OMP_NUM_THREADS'))")
    out = [subprocess.run([sys.executable, "-c", code], capture_output=True,
                          text=True, env=run_env, check=True).stdout
           for run_env in (env, dict(env, OMP_NUM_THREADS="2"))]
    assert out == ["1 1 1\n", "1 1 2\n"]


def test_config_errors_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"mu": 0.05}')
    assert main(["run", "--config", str(bad)]) == 2
    assert "sigma_coef" in capsys.readouterr().err
    bad.write_text("{broken")
    assert main(["run", "--config", str(bad)]) == 2
    assert "line 1" in capsys.readouterr().err
    cfg = small_config(tmp_path, delta=-1.0)
    assert main(["run", "--config", cfg]) == 2
    missing = str(tmp_path / "no" / "such" / "d.csv")
    assert main(["run", "--config", small_config(tmp_path), "--out", missing]) == 2
    assert "config error: cannot write" in capsys.readouterr().err


def test_custom_g_choice_fails_its_rule(tmp_path, capsys):
    # a coupling without a preset is refused by the g_choice rule itself
    assert main(["run", "--config", small_config(tmp_path, g_choice="custom")]) == 2
    captured = capsys.readouterr()
    assert "g_choice must be one of" in captured.err and captured.out == ""


def test_reps_below_two_is_a_config_error(tmp_path, capsys):
    # run, table and converge take --reps as R_runs, refused by the config
    cfg = small_config(tmp_path)
    for command in ("run", "table", "converge"):
        assert main([command, "--config", cfg, "--reps", "1"]) == 2
        captured = capsys.readouterr()
        assert "R_runs must be at least 2" in captured.err and captured.out == ""


def test_seed_out_of_range_exits_2(tmp_path, capsys):
    cfg = small_config(tmp_path, seed=2 ** 64)
    assert main(["run", "--config", cfg]) == 2
    assert "seed" in capsys.readouterr().err
    cfg = small_config(tmp_path)
    assert main(["run", "--config", cfg, "--seed", str(2 ** 64)]) == 2
    assert "seed" in capsys.readouterr().err


def test_seed_plus_repetitions_overflow_exits_2(tmp_path, capsys, monkeypatch):
    cfg = small_config(tmp_path, N=4, seed=2 ** 64 - 1)
    assert main(["table", "--config", cfg, "--reps", "2"]) == 2
    assert "2**64" in capsys.readouterr().err
    assert main(["run", "--config", cfg, "--reps", "2"]) == 2
    captured = capsys.readouterr()
    assert "2**64" in captured.err and captured.out == ""
    # spde-grid refuses the seeds before it forks its row shares
    monkeypatch.setattr(bdsde.model, "_cpus", lambda: 2)
    monkeypatch.setattr(bdsde.cli.os, "fork", no_fork)
    assert main(["spde-grid", "--config", cfg, "--reps", "2"]) == 2
    assert "2**64" in capsys.readouterr().err
    monkeypatch.undo()
    # one repetition at the largest seed is fine
    last = small_config(tmp_path, N=2, M=16, seed=2 ** 64 - 1, spatial_points=1)
    assert main(["spde-grid", "--config", last]) == 0


def test_runtime_errors_exit_3(tmp_path, capsys):
    # a positive delta passes config checks; a basis of more than 2**53
    # cells fails when the problem is built
    assert main(["run", "--config", small_config(tmp_path, delta=1e-300)]) == 3
    assert "2**53" in capsys.readouterr().err
    # a start inside the exit-shift collar stops at t_0: the payoff, Z0 = 0
    assert main(["run", "--config", small_config(tmp_path, x0=60.5)]) == 0
    out = capsys.readouterr().out
    assert "Y0 = 54.5\nZ0 = 0\nexit_fraction = 1\n" in out


def test_usage_errors_exit_2(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["run"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["spde-grid", "--config", small_config(tmp_path), "--reps", "0"])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["run", "--config", small_config(tmp_path), "--threads", "0"])
    assert exc.value.code == 2
    # spde-grid shares its rows over the CPUs and has no thread flag
    with pytest.raises(SystemExit) as exc:
        main(["spde-grid", "--config", small_config(tmp_path), "--threads", "2"])
    assert exc.value.code == 2


def test_module_entry_point(tmp_path):
    cfg = small_config(tmp_path)
    proc = subprocess.run(
        [sys.executable, "-m", "bdsde", "run", "--config", cfg, "--seed", "3"],
        capture_output=True, text=True, env=module_env(),
    )
    assert proc.returncode == 0
    assert "Y0 = " in proc.stdout


def test_closed_stdout_exits_1_quietly(tmp_path):
    cfg = small_config(tmp_path, N=2)
    with subprocess.Popen(
        [sys.executable, "-m", "bdsde", "table", "--config", cfg, "--reps", "2"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=module_env(),
    ) as proc:
        proc.stdout.close()
        err = proc.stderr.read()
        assert proc.wait(timeout=120) == 1
    assert err == b""
