"""Backward recursion: terminal handling, z/y steps, modes, error metric."""

import dataclasses

import numpy as np
import pytest

from bdsde import (
    MODES,
    CoefficientSet,
    Domain,
    EvaluationError,
    InvalidParameterError,
    PathSet,
    SolverConfig,
    backward_induction,
    build_grid,
    build_partition,
    dump_diagnostics,
    sample_noise,
    simulate_stopped,
    solve,
    strong_error,
    terminal_values,
    y_step,
    z_step,
)
from bdsde.regression import project

MU, VOL, RATE, RATE_HI, STRIKE = 0.05, 0.2, 0.01, 0.06, 115.0
THETA = (MU - RATE) / VOL


def reference_driver(t, x, y, z):
    zs = z[:, :, 0]
    neg = np.maximum(-(y - zs / VOL), 0.0)
    return -THETA * zs - RATE * y + neg * (RATE_HI - RATE)


def reference_coeffs(g=None):
    return CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: MU * x,
        sigma=lambda x: VOL * x[..., None],
        f=reference_driver,
        phi=lambda t, x: STRIKE - x,
        g=g,
    )


def g_linear(t, x, y, z):
    return (0.1 * z[:, :, 0] + 0.5 * y + np.log(x))[:, :, None]


def trivial_coeffs(c=7.0, g=None):
    return CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: np.zeros_like(x),
        sigma=lambda x: np.ones(x.shape + (1,)),
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: np.full(x.shape[:-1] + (1,), c),
        g=g,
    )


# ------------------------------ configuration ------------------------------ #

def test_solver_config_validation():
    SolverConfig(mode="bsde", picard_iterations=0)
    with pytest.raises(InvalidParameterError):
        SolverConfig(mode="implicit")
    with pytest.raises(InvalidParameterError):
        SolverConfig(mode="bsde", picard_iterations=-1)


def test_bdsde_mode_requires_g():
    g = build_grid(0.25, 4)
    nb = sample_noise(1, 8, g, 1, 1)
    part = build_partition([60.0], [200.0], 10.0)
    with pytest.raises(InvalidParameterError, match="g"):
        solve(reference_coeffs(), g, Domain.box([60.0], [200.0]), nb, [100.0],
              part, SolverConfig(mode="bdsde-random-terminal"))


# ------------------------------ terminal values ---------------------------- #

def test_terminal_values_payoff():
    g = build_grid(0.25, 20)
    nb = sample_noise(31, 512, g, 1, 1)
    c = reference_coeffs()
    ps = simulate_stopped(c, g, Domain.box([90.0], [110.0]), nb, [100.0])
    term = terminal_values(ps, c)
    assert term.shape == (512, 1)
    expected = STRIKE - ps.exit_state[:, 0]
    assert np.allclose(term[:, 0], expected, atol=1e-12)
    # constant payoff
    term_c = terminal_values(ps, trivial_coeffs(3.5))
    assert (term_c == 3.5).all()


def test_terminal_values_reports_path_index():
    g = build_grid(0.25, 2)
    nb = sample_noise(2, 4, g, 1, 1)
    c = trivial_coeffs()
    ps = simulate_stopped(c, g, Domain.whole_space(1), nb, [0.0])
    bad = CoefficientSet(
        d=1, k=1, l=1, b=c.b, sigma=c.sigma, f=c.f,
        phi=lambda t, x: np.where(np.arange(x.shape[0])[:, None] == 2, np.nan, 1.0),
    )
    with pytest.raises(EvaluationError, match=r"phi .*index \(2, 0\)"):
        terminal_values(ps, bad)


# ------------------------------ z and y steps ------------------------------ #

def _two_path_set(dB):
    """Two stationary paths in one cell with prescribed increments."""
    g = build_grid(1.0, 1)
    states = np.full((2, 2, 1), 0.5)
    states[:, 1, 0] = 0.5  # dynamics irrelevant; regression uses states[:, 0]
    return g, PathSet(
        grid=g, states=states,
        exit_index=np.array([1, 1]), exit_detected=np.array([False, False]),
    )


def test_z_step_antithetic_increments_cancel():
    a = 0.37
    grid, ps = _two_path_set(a)
    part = build_partition([0.0], [1.0], 1.0)
    y_next = np.full((2, 1), 4.25)
    cells = part.cell_index(ps.states[:, 0])
    z_fn, realized = z_step(0, ps, cells, y_next, np.array([[a], [-a]]), part)
    assert z_fn.coefficients[0, 0, 0] == 0.0   # exact cancellation
    assert (realized == 0.0).all()


def test_y_step_zero_iterations_skips_driver():
    grid, ps = _two_path_set(0.1)
    part = build_partition([0.0], [1.0], 1.0)

    def poisoned(t, x, y, z):
        raise AssertionError("driver must not be called with I = 0")

    c = CoefficientSet(d=1, k=1, l=1,
                       b=lambda x: np.zeros_like(x),
                       sigma=lambda x: np.ones(x.shape + (1,)),
                       f=poisoned, phi=lambda t, x: x)
    y_next = np.array([[2.0], [6.0]])
    cells = part.cell_index(ps.states[:, 0])
    y_fn, realized, res = y_step(0, ps, cells, y_next, np.zeros((2, 1, 1)),
                                 c, part, 0)
    assert y_fn.coefficients[0, 0] == pytest.approx(4.0)
    assert res.shape == (0,)
    assert realized[:, 0] == pytest.approx([4.0, 4.0])


# --------------------- single-pass step vs per-step reference --------------- #

def reference_backward(coeffs, grid, paths, noise, partition, mode, I):
    """The per-step algorithm that backward_induction must reproduce bitwise.

    Every fit is a project() at the time-n states, every read an evaluate(),
    and the g-term is computed twice per step: once for the z-target and
    once for the y-target.
    """
    if mode == "bsde":
        coeffs = dataclasses.replace(coeffs, g=None)
    N, M, k, d = grid.N, paths.M, coeffs.k, coeffs.d
    states = paths.states
    y_values = np.empty((N + 1, M, k))
    z_values = np.zeros((N + 1, M, k, d))
    y_values[N] = terminal_values(paths, coeffs)
    empty_y = [project(partition, states[:, N], y_values[N]).empty_cells]
    empty_z = []
    residuals = np.zeros((N, I))

    def g_term(n, live, z_next):
        out = np.zeros((M, k))
        if coeffs.g is None or not live.any():
            return out
        xs = states[live, n + 1]
        zv = np.zeros((xs.shape[0], k, d)) if z_next is None else z_next.evaluate(xs)
        gv = coeffs.eval_g(float(grid.times[n + 1]), xs, y_values[n + 1][live], zv)
        out[live] = gv @ noise.backward[n]
        return out

    z_next = None
    for n in range(N - 1, -1, -1):
        live = paths.live_mask(n)
        x_n = states[:, n]
        y_next = y_values[n + 1]
        g_z = g_term(n, live, z_next)
        targets = np.zeros((M, k, d))
        targets[live] = ((y_next[live] + g_z[live])[:, :, None]
                         * noise.forward[:, n][live, None, :] / grid.h)
        z_fn = project(partition, x_n, targets, mask=live)
        if live.any():
            z_values[n][live] = z_fn.evaluate(x_n[live])
        base = y_next.copy()
        base[live] += g_term(n, live, z_next)[live]
        if I == 0:
            y_fn = project(partition, x_n, base)
        else:
            y_prev = np.zeros((M, k))
            prev = np.zeros((partition.total_cells, k))
            for it in range(I):
                tgt = base.copy()
                if live.any():
                    tgt[live] += grid.h * coeffs.eval_f(
                        float(grid.times[n]), x_n[live], y_prev[live], z_values[n][live])
                y_fn = project(partition, x_n, tgt)
                residuals[n, it] = np.max(np.abs(y_fn.coefficients - prev))
                prev = y_fn.coefficients
                y_prev = y_fn.evaluate(x_n)
        y_values[n] = y_next
        if live.any():
            y_values[n][live] = y_fn.evaluate(x_n[live])
        empty_y.append(y_fn.empty_cells)
        empty_z.append(z_fn.empty_cells)
        z_next = z_fn
    x0 = states[:1, 0]
    return dict(Y0=y_fn.evaluate(x0)[0], Z0=z_fn.evaluate(x0)[0],
                y_values=y_values, z_values=z_values, residuals=residuals,
                empty_y=np.array(empty_y[::-1]), empty_z=np.array(empty_z[::-1]))


def two_asset_coeffs():
    """d=2, k=2, l=2: every fit has k*d = 4 or k = 2 target columns."""
    return CoefficientSet(
        d=2, k=2, l=2,
        b=lambda x: MU * x,
        sigma=lambda x: VOL * x[..., :, None] * np.eye(2),
        f=lambda t, x, y, z: -RATE * y + 0.05 * z.sum(axis=-1) - 0.02 * y[:, ::-1],
        phi=lambda t, x: np.stack([STRIKE - x[..., 0], x[..., 1] - 95.0], axis=-1),
        g=lambda t, x, y, z: np.stack(
            [0.5 * y + 0.1 * z[:, :, 0], 0.05 * np.log(x) + 0.1 * z[:, :, 1]], axis=-1),
    )


def assert_matches_reference(coeffs, grid, domain, noise, x0, partition, mode, I):
    sim_domain = domain if mode == "bdsde-random-terminal" else Domain.whole_space(coeffs.d)
    paths = simulate_stopped(coeffs, grid, sim_domain, noise, x0)
    sol = backward_induction(coeffs, grid, paths, noise, partition,
                             SolverConfig(mode=mode, picard_iterations=I))
    ref = reference_backward(coeffs, grid, paths, noise, partition, mode, I)
    assert np.array_equal(sol.Y0, ref["Y0"])
    assert np.array_equal(sol.Z0, ref["Z0"])
    assert np.array_equal(sol.y_values, ref["y_values"])
    assert np.array_equal(sol.z_values, ref["z_values"])
    assert np.array_equal(sol.diagnostics.picard_residuals, ref["residuals"])
    assert np.array_equal(sol.diagnostics.empty_cells_y, ref["empty_y"])
    assert np.array_equal(sol.diagnostics.empty_cells_z, ref["empty_z"])
    return paths


@pytest.mark.parametrize("I", [0, 3])
@pytest.mark.parametrize("bounds", [(60.0, 200.0), (90.0, 110.0)])
@pytest.mark.parametrize("mode", MODES)
def test_single_pass_matches_per_step_reference_bitwise(mode, bounds, I):
    g = build_grid(0.25, 20)
    nb = sample_noise(2024, 4096, g, 1, 1)
    lo, hi = bounds
    paths = assert_matches_reference(
        reference_coeffs(g=g_linear), g, Domain.box([lo], [hi]), nb, [100.0],
        build_partition([lo], [hi], 1.0), mode, I)
    if mode == "bdsde-random-terminal" and lo == 90.0:
        assert paths.exit_detected.mean() > 0.3


def test_single_pass_matches_reference_with_matrix_targets():
    g = build_grid(0.25, 10)
    nb = sample_noise(77, 2048, g, 2, 2)
    dom = Domain.box([90.0, 90.0], [110.0, 110.0])
    paths = assert_matches_reference(
        two_asset_coeffs(), g, dom, nb, [100.0, 100.0],
        build_partition([90.0, 90.0], [110.0, 110.0], 2.0),
        "bdsde-random-terminal", 3)
    assert paths.exit_detected.any()


def test_out_of_range_counts_reported_per_step():
    g = build_grid(0.25, 20)
    nb = sample_noise(42, 4096, g, 1, 1)
    dom = Domain.box([90.0], [110.0])
    # the domain itself, then a basis narrower than the domain so that live
    # paths fall outside it too
    for lo, hi in ((90.0, 110.0), (95.0, 105.0)):
        part = build_partition([lo], [hi], 1.0)
        sol = solve(reference_coeffs(g=g_linear), g, dom, nb, [100.0], part,
                    SolverConfig(mode="bdsde-random-terminal"))
        diag = sol.diagnostics
        outside = np.stack([part.cell_index(sol.paths.states[:, n]) < 0
                            for n in range(21)])
        live = np.stack([sol.paths.live_mask(n) for n in range(20)])
        assert np.array_equal(diag.out_of_range_y, outside.sum(axis=1))
        assert np.array_equal(diag.out_of_range_z, (live & outside[:20]).sum(axis=1))
        assert diag.out_of_range_y.sum() > 0
    assert diag.out_of_range_z.sum() > 0


# ------------------------------ whole recursion ---------------------------- #

def test_constants_propagate():
    g = build_grid(0.5, 8)
    nb = sample_noise(5, 64, g, 1, 1)
    part = build_partition([-1e6], [1e6], 1e5)
    c = 3.25
    sol = solve(trivial_coeffs(c), g, Domain.whole_space(1), nb, [0.0],
                part, SolverConfig(mode="bsde"))
    assert sol.Y0[0] == pytest.approx(c, abs=1e-13)
    assert np.allclose(sol.y_values, c, atol=1e-13)
    # the uncentered regression leaves z with its c*mean(dB)/h sampling
    # noise; only the exact conditional expectation is zero
    assert np.max(np.abs(sol.z_values)) < 5.0 * c / np.sqrt(g.h * nb.M)


def test_constant_g_reproduces_backward_integral():
    c_g = 0.5
    g = build_grid(0.25, 20)
    nb = sample_noise(77, 16, g, 1, 1)
    part = build_partition([-1e6], [1e6], 1e5)
    coeffs = trivial_coeffs(10.0, g=lambda t, x, y, z: np.full(y.shape + (1,), c_g))
    sol = solve(coeffs, g, Domain.whole_space(1), nb, [0.0], part,
                SolverConfig(mode="bdsde-fixed-horizon"))
    w_tail = np.concatenate([np.cumsum(nb.backward[::-1, 0])[::-1], [0.0]])
    for n in range(21):
        expected = 10.0 + c_g * w_tail[n]
        assert np.max(np.abs(sol.y_values[n][:, 0] - expected)) < 1e-12


def test_bsde_mode_ignores_backward_path_bitwise():
    g = build_grid(0.25, 10)
    part = build_partition([60.0], [200.0], 2.0)
    nb = sample_noise(9, 256, g, 1, 1)
    nb0 = nb.with_backward(np.zeros((10, 1)))
    cfg = SolverConfig(mode="bsde")
    dom = Domain.box([60.0], [200.0])
    a = solve(reference_coeffs(g=g_linear), g, dom, nb, [100.0], part, cfg)
    b = solve(reference_coeffs(g=g_linear), g, dom, nb0, [100.0], part, cfg)
    assert np.array_equal(a.y_values, b.y_values)
    assert np.array_equal(a.Y0, b.Y0)


def test_mode_consistency_whole_space_bitwise():
    g = build_grid(0.25, 10)
    part = build_partition([-1e3], [1e3], 25.0)
    nb = sample_noise(13, 128, g, 1, 1)
    ws = Domain.whole_space(1)
    co = trivial_coeffs(2.0, g=lambda t, x, y, z: (0.5 * y + 0.1 * t)[:, :, None])
    fixed = solve(co, g, ws, nb, [0.0], part, SolverConfig(mode="bdsde-fixed-horizon"))
    random = solve(co, g, ws, nb, [0.0], part, SolverConfig(mode="bdsde-random-terminal"))
    assert np.array_equal(fixed.y_values, random.y_values)
    assert np.array_equal(fixed.z_values, random.z_values)


def test_exited_paths_frozen_and_zeroed():
    g = build_grid(0.25, 20)
    nb = sample_noise(21, 2048, g, 1, 1)
    part = build_partition([88.0], [112.0], 1.0)
    c = reference_coeffs(g=g_linear)
    sol = solve(c, g, Domain.box([88.0], [112.0]), nb, [100.0], part,
                SolverConfig(mode="bdsde-random-terminal"))
    paths = sol.paths
    assert paths.exit_detected.any()
    term = terminal_values(paths, c)
    assert np.array_equal(sol.y_values[20], term)
    for m in np.nonzero(paths.exit_detected)[0][:100]:
        e = paths.exit_index[m]
        assert (sol.y_values[e:, m] == term[m]).all()
        assert (sol.z_values[e:, m] == 0.0).all()


def test_picard_residuals_contract_on_reference_setup():
    g = build_grid(0.25, 20)
    nb = sample_noise(404, 8192, g, 1, 1)
    part = build_partition([60.0], [200.0], 1.0)
    sol = solve(reference_coeffs(), g, Domain.box([60.0], [200.0]), nb, [100.0],
                part, SolverConfig(mode="bsde"))
    res = sol.diagnostics.picard_residuals
    assert res.shape == (20, 3)
    assert np.isfinite(res).all()
    scale = res[:, 0].max()
    assert res[:, 2].max() <= 1e-6 * max(scale, 1.0)


def test_reference_value_single_run_band():
    g = build_grid(0.25, 20)
    nb = sample_noise(512, 8192, g, 1, 1)
    part = build_partition([60.0], [200.0], 1.0)
    sol = solve(reference_coeffs(), g, Domain.box([60.0], [200.0]), nb, [100.0],
                part, SolverConfig(mode="bsde"))
    assert abs(sol.Y0[0] - 14.712859075707911) < 0.5
    assert abs(sol.Z0[0, 0] - (-20.0)) < 5.0


def test_terminal_override():
    g = build_grid(0.25, 4)
    nb = sample_noise(3, 32, g, 1, 1)
    part = build_partition([-1e3], [1e3], 50.0)
    c = trivial_coeffs(1.0)
    ps = simulate_stopped(c, g, Domain.whole_space(1), nb, [0.0])
    override = np.full((32, 1), -2.5)
    sol = backward_induction(c, g, ps, nb, part, SolverConfig(mode="bsde"),
                             terminal=override)
    assert (sol.y_values[4] == -2.5).all()
    with pytest.raises(InvalidParameterError):
        backward_induction(c, g, ps, nb, part, SolverConfig(mode="bsde"),
                           terminal=np.zeros((5, 1)))


def test_strong_error_self_reference_is_zero():
    g = build_grid(0.25, 8)
    nb = sample_noise(6, 256, g, 1, 1)
    part = build_partition([60.0], [200.0], 5.0)
    sol = solve(reference_coeffs(), g, Domain.box([60.0], [200.0]), nb, [100.0],
                part, SolverConfig(mode="bsde"))
    ref_y = lambda t, x: sol.y_funcs[g.index_of(t)].evaluate(x)
    ref_z = lambda t, x: sol.z_funcs[g.index_of(t)].evaluate(x)
    assert strong_error(sol, ref_y, ref_z) == 0.0


def test_step_errors_carry_time_index():
    g = build_grid(0.25, 4)
    nb = sample_noise(8, 16, g, 1, 1)
    part = build_partition([-1e3], [1e3], 50.0)

    def exploding(t, x, y, z):
        return np.full_like(y, np.inf) if t == 0.0 else np.zeros_like(y)

    c = CoefficientSet(d=1, k=1, l=1,
                       b=lambda x: np.zeros_like(x),
                       sigma=lambda x: np.ones(x.shape + (1,)),
                       f=exploding, phi=lambda t, x: x)
    with pytest.raises(EvaluationError, match="n=0"):
        solve(c, g, Domain.whole_space(1), nb, [0.0], part, SolverConfig(mode="bsde"))


def test_dump_diagnostics_format(tmp_path):
    g = build_grid(0.25, 2)
    nb = sample_noise(19, 16, g, 1, 1)
    part = build_partition([60.0], [200.0], 5.0)
    sol = solve(reference_coeffs(), g, Domain.box([60.0], [200.0]), nb, [100.0],
                part, SolverConfig(mode="bsde", picard_iterations=2))
    out = tmp_path / "diag.csv"
    dump_diagnostics(sol, str(out))
    lines = out.read_text().splitlines()
    assert lines[0] == "n,picard_iter,residual,empty_cells"
    res = sol.diagnostics.picard_residuals
    empty = sol.diagnostics.empty_cells_y
    assert lines[1:] == [f"{n},{it + 1},{res[n, it]:.10g},{empty[n]}"
                         for n in range(2) for it in range(2)]
