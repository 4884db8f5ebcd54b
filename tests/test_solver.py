"""Backward recursion: terminal handling, z/y steps, modes, error metric."""

import dataclasses
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import assume, given, settings

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
from bdsde import regression, solver
from bdsde.regression import CellFunction, HypercubePartition, fit_plan, project
from test_regression import column_fit

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


def test_noise_with_the_wrong_l_is_rejected():
    g = build_grid(0.25, 4)
    nb = sample_noise(1, 8, g, 1, 2)
    part = build_partition([60.0], [200.0], 10.0)
    with pytest.raises(InvalidParameterError, match="l=2"):
        solve(reference_coeffs(g=g_linear), g, Domain.box([60.0], [200.0]), nb,
              [100.0], part, SolverConfig(mode="bdsde-random-terminal"))


def test_paths_and_noise_must_lie_on_the_solver_grid():
    g = build_grid(0.25, 20)
    nb = sample_noise(1, 64, g, 1, 1)
    c = reference_coeffs(g=g_linear)
    part = build_partition([60.0], [200.0], 10.0)
    ps = simulate_stopped(c, g, Domain.box([60.0], [200.0]), nb, [100.0])
    cfg = SolverConfig(mode="bdsde-random-terminal")
    # a coarser grid would pair steps with the wrong states and noise, a
    # finer one would index past their ends
    for N in (10, 40):
        with pytest.raises(InvalidParameterError, match="time grid"):
            backward_induction(c, build_grid(0.25, N), ps, nb, part, cfg)
    with pytest.raises(InvalidParameterError, match="time grid"):
        backward_induction(c, g, ps, sample_noise(1, 64, build_grid(0.5, 20), 1, 1), part, cfg)
    # a grid built separately with the same times is the same grid
    same = backward_induction(c, build_grid(0.25, 20), ps, nb, part, cfg)
    assert same.Y0 == backward_induction(c, g, ps, nb, part, cfg).Y0


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
    x = np.full((2, 1), 0.5)  # dynamics irrelevant: no record, only the states at t_0 are read
    return g, PathSet(
        grid=g, start=np.array([0.5]),
        exit_index=np.array([1, 1]), exit_detected=np.array([False, False]), exit_state=x,
    )


def test_z_step_antithetic_increments_cancel():
    a = 0.37
    grid, ps = _two_path_set(a)
    part = build_partition([0.0], [1.0], 1.0)
    y_next = np.full((2, 1), 4.25)
    cells = part.cell_index(ps.at(0))
    z_fn, realized = z_step(ps, fit_plan(part, cells), cells, y_next, np.array([[a], [-a]]))
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
    cells = part.cell_index(ps.at(0))
    live = ps.live_mask(0)
    y_fn, realized, res = y_step(0, ps, fit_plan(part, cells), np.flatnonzero(live),
                                 ps.at(0), cells, y_next, np.zeros((2, 1, 1)), c, 0)
    assert y_fn.coefficients[0, 0] == pytest.approx(4.0)
    assert res.shape == (0,)
    assert realized[:, 0] == pytest.approx([4.0, 4.0])


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 6), st.integers(1, 3), st.integers(1, 3), st.data())
def test_g_term_equals_the_matmul(M, k, l, data):
    # at l = 1 the g-term is an elementwise product plus 0.0; its bytes are
    # matmul's, also where a factor is -0.0 or +0.0
    value = st.floats(-1e100, 1e100) | st.sampled_from([0.0, -0.0])
    gv = np.array(data.draw(st.lists(value, min_size=M * k * l, max_size=M * k * l)))
    w = np.array(data.draw(st.lists(value, min_size=l, max_size=l)))
    gv = gv.reshape(M, k, l)
    assert solver._g_times(gv, w).tobytes() == (gv @ w).tobytes()


def test_one_live_mask_per_backward_step(monkeypatch):
    # one mask per step from the first exit down to t_0, none on the steps
    # before it, where every path is live
    g = build_grid(0.25, 20)
    nb = sample_noise(3, 512, g, 1, 1)
    coeffs = reference_coeffs(g=g_linear)
    calls, first_exits = [], []
    live_mask = PathSet.live_mask
    monkeypatch.setattr(PathSet, "live_mask",
                        lambda self, i: calls.append(i) or live_mask(self, i))
    for lo, hi in ((60.0, 200.0), (90.0, 110.0)):  # all live; with exits
        paths = simulate_stopped(coeffs, g, Domain.box([lo], [hi]), nb, [100.0])
        first_exits.append(int(paths.exit_index.min()))
        calls.clear()
        backward_induction(coeffs, g, paths, nb, build_partition([lo], [hi], 1.0),
                           SolverConfig(mode="bdsde-random-terminal"))
        assert sorted(calls) == list(range(first_exits[-1], 20))
    assert first_exits[0] == 20 and 0 < first_exits[1] < 20


def test_one_plan_per_population_and_one_lookup_per_step(monkeypatch):
    # per step one plan over exactly the live rows, shared by the z-fit and
    # every Picard sweep, plus the terminal fit over all M exit states:
    # N + 1 plans; one cell lookup per step plus the terminal one: N + 1
    g = build_grid(0.25, 20)
    nb = sample_noise(3, 512, g, 1, 1)
    plans, lookups, first_exits = [], [], []
    fit_plan, cell_index = regression.fit_plan, HypercubePartition.cell_index

    def counting_plan(partition, cells):
        plans.append(cells.shape[0])
        return fit_plan(partition, cells)

    monkeypatch.setattr(regression, "fit_plan", counting_plan)
    monkeypatch.setattr(solver, "fit_plan", counting_plan)
    monkeypatch.setattr(HypercubePartition, "cell_index",
                        lambda self, x: lookups.append(1) or cell_index(self, x))
    for lo, hi in ((60.0, 200.0), (90.0, 110.0)):  # all live; with exits
        plans.clear()
        lookups.clear()
        sol = solve(reference_coeffs(g=g_linear), g, Domain.box([lo], [hi]), nb, [100.0],
                    build_partition([lo], [hi], 1.0),
                    SolverConfig(mode="bdsde-random-terminal", picard_iterations=3))
        first_exits.append(int(sol.paths.exit_index.min()))
        assert (len(plans), len(lookups)) == (20 + 1, 20 + 1)
        # the terminal fit, then per step the live paths' plan
        assert plans == [512] + [int(sol.paths.live_mask(n).sum()) for n in range(19, -1, -1)]
    assert first_exits[0] == 20 and 0 < first_exits[1] < 20


@pytest.mark.parametrize("I", [0, 3])
def test_g_term_reads_the_carried_z_without_a_gather(monkeypatch, I):
    # per step one gather of the z-fit (every path, carried to the next
    # step's g-term), one per Picard sweep and one realized y: N (I + 2)
    g = build_grid(0.25, 20)
    nb = sample_noise(3, 512, g, 1, 1)
    calls = []
    gather = solver.gather
    monkeypatch.setattr(solver, "gather", lambda *a: calls.append(1) or gather(*a))
    for lo, hi in ((60.0, 200.0), (90.0, 110.0)):  # all live; with exits
        calls.clear()
        solve(reference_coeffs(g=g_linear), g, Domain.box([lo], [hi]), nb, [100.0],
              build_partition([lo], [hi], 1.0),
              SolverConfig(mode="bdsde-random-terminal", picard_iterations=I))
        assert len(calls) == 20 * (I + 2)


@pytest.mark.parametrize("bounds", [(60.0, 200.0), (90.0, 110.0)])
@pytest.mark.parametrize("target", ["g_x", "g_y", "f_x", "f_z", "b_x", "sigma_x", "phi_x"])
def test_coefficients_cannot_write_into_the_solution(bounds, target):
    # on an all-live step the live rows are views of the states, y_{n+1}
    # and z_n, and b first sees a view of the start states[0]; every array
    # handed to a coefficient is read-only, views or not
    name, arg = target.split("_")
    c = reference_coeffs(g=g_linear)
    honest = getattr(c, name)

    def writing(*args):
        out = honest(*args)
        names = {1: "x", 2: "tx", 4: "txyz"}[len(args)]  # b and sigma, phi, f and g
        args[names.index(arg)][...] = 0.0
        return out

    c = dataclasses.replace(c, **{name: writing})
    g = build_grid(0.25, 4)
    nb = sample_noise(5, 256, g, 1, 1)
    lo, hi = bounds
    with pytest.raises(ValueError, match="read-only"):
        solve(c, g, Domain.box([lo], [hi]), nb, [100.0], build_partition([lo], [hi], 1.0),
              SolverConfig(mode="bdsde-random-terminal"))


def test_no_zero_row_call_when_every_path_exits_before_maturity():
    sizes = {"f": [], "g": []}

    def recording(name, fn):
        return lambda t, x, y, z: sizes[name].append(x.shape[0]) or fn(t, x, y, z)

    c = reference_coeffs(g=g_linear)
    c = dataclasses.replace(c, f=recording("f", c.f), g=recording("g", g_linear))
    g = build_grid(0.25, 20)
    sol = solve(c, g, Domain.box([98.0], [102.0]), sample_noise(4, 256, g, 1, 1), [100.0],
                build_partition([98.0], [102.0], 1.0),
                SolverConfig(mode="bdsde-random-terminal"))
    last = sol.paths.exit_index.max()
    assert sol.paths.exit_detected.all() and last < g.N
    # steps n < last have a live path: one g call each and I = 3 f calls
    assert (len(sizes["g"]), len(sizes["f"])) == (last, 3 * last)
    assert min(sizes["f"] + sizes["g"]) > 0


# --------------------- single-pass step vs per-step reference --------------- #

def z_at(sol, n):
    """Realized z at t_n, (M, k, d): z_funcs[n] at the paths live after t_n,
    zero at exited ones and everywhere at t_N, where no path is live."""
    x = sol.paths.at(n)
    if n == sol.paths.grid.N:
        return np.zeros(sol.terminal.shape + x.shape[1:])
    return np.where(sol.paths.live_mask(n)[:, None, None], sol.z_funcs[n].evaluate(x), 0.0)


def z_values(sol):
    """(N+1, M, k, d) stack of z_at over every step."""
    return np.stack([z_at(sol, n) for n in range(sol.paths.grid.N + 1)])


def reference_backward(coeffs, grid, paths, noise, partition, mode, I):
    """The per-step algorithm that backward_induction must reproduce bitwise.

    Every read is an evaluate(), and the g-term is computed twice per step:
    once for the z-target and once for the y-target.  Below step N the z-
    and every y-fit are masked cell means over all M paths (``column_fit``)
    with the live paths as the mask, not fits over the live rows, so the
    solver's compacted population is checked against the mask bitwise.
    """
    if mode == "bsde":
        coeffs = dataclasses.replace(coeffs, g=None)
    N, M, k, d = grid.N, paths.M, coeffs.k, coeffs.d
    states = paths.states.transpose(1, 0, 2)  # path-major, as the old loop read it
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

    def masked_fit(cells, targets, live):
        coef, empty, _ = column_fit(cells, targets.reshape(M, -1), live, partition.total_cells)
        return CellFunction(partition, coef.reshape((-1,) + targets.shape[1:]), empty)

    z_next = None
    for n in range(N - 1, -1, -1):
        live = paths.live_mask(n)
        x_n = states[:, n]
        cells = partition.cell_index(x_n)
        y_next = y_values[n + 1]
        g_z = g_term(n, live, z_next)
        targets = np.zeros((M, k, d))
        targets[live] = ((y_next[live] + g_z[live])[:, :, None]
                         * noise.forward[n][live, None, :] / grid.h)
        z_fn = masked_fit(cells, targets, live)
        if live.any():
            z_values[n][live] = z_fn.evaluate(x_n[live])
        base = y_next.copy()
        base[live] += g_term(n, live, z_next)[live]
        if I == 0:
            y_fn = masked_fit(cells, base, live)
        else:
            y_prev = np.zeros((M, k))
            prev = np.zeros((partition.total_cells, k))
            for it in range(I):
                tgt = base.copy()
                if live.any():
                    tgt[live] += grid.h * coeffs.eval_f(
                        float(grid.times[n]), x_n[live], y_prev[live], z_values[n][live])
                y_fn = masked_fit(cells, tgt, live)
                residuals[n, it] = np.max(np.abs(y_fn.coefficients - prev))
                prev = y_fn.coefficients
                y_prev = y_fn.evaluate(x_n)
        y_values[n] = y_next
        if live.any():
            y_values[n][live] = y_fn.evaluate(x_n[live])
        empty_y.append(y_fn.empty_cells)
        empty_z.append(z_fn.empty_cells)
        z_next = z_fn
    # the t=0 readout is path 0's realized value: phi at a start in the
    # shift collar or on a grid without steps, z = 0 there
    return dict(Y0=y_values[0, 0], Z0=z_values[0, 0],
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
    assert np.array_equal(z_values(sol), ref["z_values"])
    for n in range(grid.N + 1):
        assert sol.y_at(n).tobytes() == ref["y_values"][n].tobytes()
        assert z_at(sol, n).tobytes() == ref["z_values"][n].tobytes()
    for bad in (-1, grid.N + 1, 0.5):  # a negative n would wrap around the steps
        with pytest.raises(InvalidParameterError, match="step index"):
            sol.y_at(bad)
    assert np.array_equal(sol.diagnostics.picard_residuals, ref["residuals"])
    # the reference fits z and y separately; the solver's one plan per step
    # holds the counts of both
    assert np.array_equal(sol.diagnostics.empty_cells, ref["empty_y"])
    assert np.array_equal(sol.diagnostics.empty_cells[:-1], ref["empty_z"])
    return sol


@pytest.mark.parametrize("I", [0, 3])
@pytest.mark.parametrize("bounds", [
    # domain, basis, steps
    ((60.0, 200.0), (60.0, 200.0), 20),  # every path live
    ((90.0, 110.0), (90.0, 110.0), 20),  # exits
    ((99.0, 200.0), (99.0, 200.0), 20),  # a start in the shift collar
    ((90.0, 110.0), (95.0, 105.0), 20),  # live samples outside the basis
    ((90.0, 110.0), (90.0, 110.0), 0),   # the tail grid {T} of spde_point
])
@pytest.mark.parametrize("mode", MODES)
def test_single_pass_matches_per_step_reference_bitwise(mode, bounds, I):
    (lo, hi), basis, steps = bounds
    g = build_grid(0.25, 20)
    g = dataclasses.replace(g, times=g.times[20 - steps:])
    nb = sample_noise(2024, 4096, g, 1, 1)
    part = build_partition(*basis, 1.0)
    sol = assert_matches_reference(reference_coeffs(g=g_linear), g, Domain.box([lo], [hi]),
                                   nb, [100.0], part, mode, I)
    paths = sol.paths
    stopping = mode == "bdsde-random-terminal"
    if stopping and lo == 90.0 and steps:
        assert paths.exit_detected.mean() > 0.3
    if stopping and lo == 99.0:  # every path stops at t_0 with y = phi, z = 0
        assert (paths.exit_index == 0).all()
        assert sol.Y0[0] == STRIKE - 100.0 and sol.Z0[0, 0] == 0.0
    if basis == (95.0, 105.0):  # z reads 0 at live samples outside the basis
        out = [paths.live_mask(n) & (part.cell_index(paths.states[n]) < 0) for n in range(20)]
        assert sum(o.sum() for o in out) > 0
        assert all((z_at(sol, n)[o] == 0.0).all() for n, o in enumerate(out))
    if not steps:
        assert sol.Y0[0] == STRIKE - 100.0 and sol.Z0[0, 0] == 0.0


def test_single_pass_matches_reference_with_matrix_targets():
    g = build_grid(0.25, 10)
    nb = sample_noise(77, 2048, g, 2, 2)
    dom = Domain.box([90.0, 90.0], [110.0, 110.0])
    sol = assert_matches_reference(
        two_asset_coeffs(), g, dom, nb, [100.0, 100.0],
        build_partition([90.0, 90.0], [110.0, 110.0], 2.0),
        "bdsde-random-terminal", 3)
    assert sol.paths.exit_detected.any()


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
        outside = np.stack([part.cell_index(sol.paths.states[n]) < 0
                            for n in range(21)])
        live = np.stack([sol.paths.live_mask(n) for n in range(20)])
        # below step N the step's plan counts the live paths, at N every exit state
        live_outside = (live & outside[:20]).sum(axis=1)
        assert np.array_equal(diag.out_of_range, np.append(live_outside, outside[20].sum()))
    assert diag.out_of_range[:-1].sum() > 0


@settings(max_examples=40, deadline=None)
@given(lo=st.integers(88, 98), hi=st.integers(102, 112), pad=st.integers(-1, 4),
       delta=st.sampled_from([0.5, 1.0, 2.5]), N=st.integers(1, 12), M=st.integers(16, 300),
       I=st.sampled_from([0, 3]), seed=st.integers(0, 2 ** 32))
def test_fit_counts_are_those_of_each_steps_live_rows(lo, hi, pad, delta, N, M, I, seed):
    # a basis wider or narrower than the box: empty cells and out-of-range rows
    g = build_grid(0.25, N)
    part = build_partition([lo - pad], [hi + pad], delta)
    sol = solve(reference_coeffs(g=g_linear), g, Domain.box([lo], [hi]),
                sample_noise(seed, M, g, 1, 1), [100.0], part,
                SolverConfig(mode="bdsde-random-terminal", picard_iterations=I))
    diag, paths = sol.diagnostics, sol.paths
    assume(paths.exit_detected.any())

    def counts(cells):
        inside = cells[cells >= 0]
        return part.total_cells - np.unique(inside).size, cells.size - inside.size

    want = [counts(part.cell_index(paths.at(n))[paths.live_mask(n)]) for n in range(N)]
    want.append(counts(part.cell_index(paths.exit_state)))
    assert diag.empty_cells.shape == diag.out_of_range.shape == (N + 1,)
    assert list(zip(diag.empty_cells.tolist(), diag.out_of_range.tolist())) == want


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
    assert np.max(np.abs(z_values(sol))) < 5.0 * c / np.sqrt(g.h * nb.M)


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
    nb0 = dataclasses.replace(nb, backward=np.zeros((10, 1)))
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
    assert np.array_equal(z_values(fixed), z_values(random))


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
    z = z_values(sol)
    for m in np.nonzero(paths.exit_detected)[0][:100]:
        e = paths.exit_index[m]
        assert (sol.y_values[e:, m] == term[m]).all()
        assert (z[e:, m] == 0.0).all()


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


def test_backward_pass_memory_does_not_scale_with_the_step_count():
    # the pass keeps only y_{n+1} and z_n, and the solution the fitted
    # functions (140 cells a step), so 40 steps instead of 10 add no
    # (N+1)·M history, which at M = 4096 is 64 KB a step, 1.97 MB for the
    # 30 extra steps.  Measured growth of the peak and of what the solution
    # retains: 0.05-0.10 MB over seeds and domains (1.97 MB for both while
    # the histories were stored); the bound, 1/8 of the history, leaves a
    # margin of 2.5x over the largest
    traced = []
    for N in (10, 40):
        g = build_grid(0.25, N)
        nb = sample_noise(1, 4096, g, 1, 1)
        c = reference_coeffs(g=g_linear)
        # the path record is the pass's input, kept before tracing starts
        paths = simulate_stopped(c, g, Domain.box([60.0], [200.0]), nb, [100.0],
                                 keep_steps=True)
        part = build_partition([60.0], [200.0], 1.0)
        tracemalloc.start()
        try:
            sol = backward_induction(c, g, paths, nb, part,
                                     SolverConfig(mode="bdsde-random-terminal"))
            traced.append(tracemalloc.get_traced_memory())
        finally:
            tracemalloc.stop()
        assert len(sol.y_funcs) == N + 1
    (kept10, peak10), (kept40, peak40) = traced
    history = 30 * 4096 * (1 + 1) * 8
    assert peak40 - peak10 <= history / 8
    assert kept40 - kept10 <= history / 8


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
    # the solution keeps a read-only copy; the caller's array stays as it was
    assert not sol.terminal.flags.writeable and not np.shares_memory(sol.terminal, override)
    assert override.flags.writeable and (override == -2.5).all()
    override[0, 0] = 1.0
    assert sol.terminal[0, 0] == -2.5 and sol.y_at(4)[0, 0] == -2.5
    with pytest.raises(InvalidParameterError):
        backward_induction(c, g, ps, nb, part, SolverConfig(mode="bsde"),
                           terminal=np.zeros((5, 1)))
    override[3, 0] = np.nan
    with pytest.raises(InvalidParameterError, match="non-finite"):
        backward_induction(c, g, ps, nb, part, SolverConfig(mode="bsde"),
                           terminal=override)


def test_strong_error_self_reference_is_zero():
    g = build_grid(0.25, 8)
    nb = sample_noise(6, 256, g, 1, 1)
    part = build_partition([60.0], [200.0], 5.0)
    sol = solve(reference_coeffs(), g, Domain.box([60.0], [200.0]), nb, [100.0],
                part, SolverConfig(mode="bsde"))
    ref_y = lambda t, x: sol.y_funcs[g.index_of(t)].evaluate(x)
    ref_z = lambda t, x: sol.z_funcs[g.index_of(t)].evaluate(x)
    assert strong_error(sol, ref_y, ref_z) == 0.0


def test_strong_error_reads_each_row_once(monkeypatch):
    # one at(n) per step, and the bytes of the readers y_at/z_at at the live paths
    g = build_grid(0.25, 20)
    nb = sample_noise(4, 2048, g, 1, 1)
    sol = solve(reference_coeffs(g=g_linear), g, Domain.box([90.0], [110.0]), nb, [100.0],
                build_partition([90.0], [110.0], 1.0),
                SolverConfig(mode="bdsde-random-terminal"))
    assert sol.paths.exit_detected.any() and sol.paths.exit_index.max() == g.N
    ref_y = lambda t, x: np.full((x.shape[0], 1), 7.0) + x
    ref_z = lambda t, x: 0.1 * x[:, :, None]
    expected = worst = 0.0
    for n in range(g.N):
        live, t = sol.paths.live_mask(n), float(g.times[n])
        x = sol.paths.at(n)[live]
        dy = ref_y(t, x) - sol.y_at(n)[live]
        dz = ref_z(t, x) - z_at(sol, n)[live]
        worst = max(worst, float(np.mean(np.sum(dy * dy, axis=-1))))
        expected += g.h * float(np.mean(np.sum(dz * dz, axis=(-2, -1))))
    expected += worst
    reads = []
    at = PathSet.at
    monkeypatch.setattr(PathSet, "at", lambda self, n: reads.append(n) or at(self, n))
    assert strong_error(sol, ref_y, ref_z) == expected
    assert reads == list(range(g.N))


def test_strong_error_skips_steps_without_a_live_path():
    g = build_grid(4.0, 8)
    nb = sample_noise(5, 16, g, 1, 1)
    c = trivial_coeffs(g=lambda t, x, y, z: np.zeros(y.shape + (1,)))
    sol = solve(c, g, Domain.box([-0.5], [0.5]), nb, [0.0],
                build_partition([-1.0], [1.0], 0.25),
                SolverConfig(mode="bdsde-random-terminal"))
    assert sol.paths.exit_index.max() == 2  # no path is live after t_1
    seen = []

    def ref_y(t, x):
        seen.append(g.index_of(t))
        return np.full((x.shape[0], 1), 7.0)

    err = strong_error(sol, ref_y, lambda t, x: np.zeros((x.shape[0], 1, 1)))
    assert seen == [0, 1] and np.isfinite(err)


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
    empty = sol.diagnostics.empty_cells
    assert lines[1:] == [f"{n},{it + 1},{res[n, it]:.10g},{empty[n]}"
                         for n in range(2) for it in range(2)]
