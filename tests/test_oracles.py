"""Closed-form oracle, plain-BSDE reduction, field evaluation and metric."""

import dataclasses

import numpy as np
import pytest

from bdsde import (
    MODES,
    CoefficientSet,
    Domain,
    InvalidParameterError,
    InvalidStartError,
    SolverConfig,
    TimeGrid,
    backward_induction,
    build_grid,
    build_partition,
    forward_contract_oracle,
    midpoint_lattice,
    sample_noise,
    solve,
    spde_error,
    spde_point,
    transform_to_bsde,
)

MU, VOL, RATE, RATE_HI, STRIKE = 0.05, 0.2, 0.01, 0.06, 115.0
THETA = (MU - RATE) / VOL
U0 = 14.712859075707911  # STRIKE * exp(-RATE * 0.25) - 100


def reference_driver(t, x, y, z):
    zs = z[:, :, 0]
    neg = np.maximum(-(y - zs / VOL), 0.0)
    return -THETA * zs - RATE * y + neg * (RATE_HI - RATE)


def gbm_sigma(x):
    return VOL * x[..., None]


def reference_coeffs(g=None):
    return CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: MU * x,
        sigma=gbm_sigma,
        f=reference_driver,
        phi=lambda t, x: STRIKE - x,
        g=g,
    )


# ------------------------------ closed form -------------------------------- #

def test_oracle_values():
    o = forward_contract_oracle(STRIKE, RATE, 0.25, gbm_sigma)
    x = np.array([[100.0]])
    assert o.u(0.25, x)[0, 0] == pytest.approx(15.0, abs=1e-14)
    assert o.u(0.0, x)[0, 0] == pytest.approx(U0, rel=1e-15)
    assert o.z(0.1, x)[0, 0, 0] == pytest.approx(-20.0, rel=1e-15)


def test_oracle_matches_terminal_payoff_everywhere():
    o = forward_contract_oracle(STRIKE, RATE, 0.25, gbm_sigma)
    xs = np.linspace(60.0, 200.0, 29)[:, None]
    assert np.allclose(o.u(0.25, xs)[:, 0], STRIKE - xs[:, 0], atol=1e-12)


@pytest.mark.parametrize("N", [20, 40])
def test_oracle_satisfies_discrete_driver_balance(N):
    # one-step balance |u(t,x) - u(t+h, x + b h) - h f(t,x,u,z)| = O(h^2)
    T = 0.25
    grid = build_grid(T, N)
    o = forward_contract_oracle(STRIKE, RATE, T, gbm_sigma)
    xs = np.linspace(70.0, 150.0, 17)[:, None]
    worst = 0.0
    for n in range(N):
        t = float(grid.times[n])
        u = o.u(t, xs)
        z = o.z(t, xs)
        drifted = xs + MU * xs * grid.h
        ahead = o.u(float(grid.times[n + 1]), drifted)
        f = reference_driver(t, xs, u, z)
        worst = max(worst, float(np.max(np.abs(u - ahead - grid.h * f))))
    assert worst <= 0.02 * grid.h ** 2


def test_oracle_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        forward_contract_oracle(-1.0, RATE, 0.25, gbm_sigma)
    with pytest.raises(InvalidParameterError):
        forward_contract_oracle(STRIKE, RATE, 0.0, gbm_sigma)


# --------------------------- reduction to plain BSDE ----------------------- #

def test_transform_identity_for_zero_g():
    grid = build_grid(0.25, 8)
    nb = sample_noise(3, 4, grid, 1, 1)
    c = reference_coeffs()
    tp = transform_to_bsde(lambda t: 0.0, c, grid, nb.backward)
    assert (tp.offsets == 0.0).all()
    term = np.arange(4.0)[:, None]
    assert np.array_equal(tp.shift_terminal(term, np.full(4, 8)), term)
    x = np.full((4, 1), 100.0)
    y = np.linspace(1.0, 2.0, 4)[:, None]
    z = np.full((4, 1, 1), 0.3)
    t1 = float(grid.times[3])
    assert np.array_equal(tp.coeffs.f(t1, x, y, z), c.f(t1, x, y, z))
    assert tp.coeffs.g is None


def test_transform_constant_g_integrates_backward_path():
    c_g = 0.75
    grid = build_grid(0.25, 10)
    nb = sample_noise(11, 32, grid, 1, 1)
    c = CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: np.zeros_like(x),
        sigma=lambda x: np.ones(x.shape + (1,)),
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: np.full(x.shape[:-1] + (1,), 4.0),
    )
    tp = transform_to_bsde(lambda t: c_g, c, grid, nb.backward)
    w_total = nb.backward[:, 0].sum()
    assert tp.offsets[10, 0] == pytest.approx(c_g * w_total, rel=1e-14)
    # whole-space solve of the reduced problem recovers phi + c*W_T at t=0
    part = build_partition([-1e6], [1e6], 1e5)
    ps_noise = nb
    from bdsde import simulate_stopped
    paths = simulate_stopped(c, grid, Domain.whole_space(1), ps_noise, [0.0])
    shifted = tp.shift_terminal(np.full((32, 1), 4.0), paths.exit_index)
    sol = backward_induction(tp.coeffs, grid, paths, ps_noise, part,
                             SolverConfig(mode="bsde"), terminal=shifted)
    assert sol.Y0[0] == pytest.approx(4.0 + c_g * w_total, abs=1e-12)


def test_transform_rejects_state_dependent_g():
    grid = build_grid(0.25, 4)
    nb = sample_noise(1, 2, grid, 1, 1)
    with pytest.raises(InvalidParameterError, match="time"):
        transform_to_bsde(lambda t, x: 0.0, reference_coeffs(), grid, nb.backward)


def test_transform_round_trip_matches_direct_solve():
    # f reads (t, x) only, so both routes reduce to identical projections
    grid = build_grid(0.25, 10)
    nb = sample_noise(29, 256, grid, 1, 1)
    part = build_partition([60.0], [200.0], 5.0)

    def f_tx(t, x, y, z):
        return 0.3 * np.cos(t) + 0.001 * x

    g_fn = lambda t: 0.5 * t
    direct = CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: MU * x, sigma=gbm_sigma, f=f_tx,
        phi=lambda t, x: STRIKE - x,
        g=lambda t, x, y, z: np.full(y.shape + (1,), g_fn(t)),
    )
    sol_direct = solve(direct, grid, Domain.whole_space(1), nb, [100.0], part,
                       SolverConfig(mode="bdsde-fixed-horizon"))

    tp = transform_to_bsde(g_fn, direct, grid, nb.backward)
    shifted = tp.shift_terminal(
        115.0 - sol_direct.paths.exit_state, sol_direct.paths.exit_index
    )
    sol_red = backward_induction(tp.coeffs, grid, sol_direct.paths, nb, part,
                                 SolverConfig(mode="bsde"), terminal=shifted)
    assert abs(sol_red.Y0[0] - sol_direct.Y0[0]) < 1e-10
    recovered = tp.unshift(sol_red.y_values)
    assert np.max(np.abs(recovered - sol_direct.y_values)) < 1e-10


# --------------------------- pointwise field values ------------------------ #

def _field_setup(N=10, M=256):
    grid = build_grid(0.25, N)
    part = build_partition([60.0], [200.0], 5.0)
    dom = Domain.box([60.0], [200.0])
    return grid, part, dom


def test_spde_point_terminal_slice():
    grid, part, dom = _field_setup()
    wpath = np.zeros((10, 1))
    u, v = spde_point(reference_coeffs(), grid, dom, wpath, 0.25, [[87.0], [150.0]],
                      64, part, SolverConfig(mode="bsde"), seed=5)
    assert u.shape == (2, 1) and v.shape == (2, 1, 1)
    assert u[:, 0] == pytest.approx([115.0 - 87.0, 115.0 - 150.0])
    assert (v == 0.0).all()


def test_spde_point_at_origin_equals_plain_solve():
    grid, part, dom = _field_setup()
    nb = sample_noise(77, 256, grid, 1, 1)
    cfg = SolverConfig(mode="bdsde-random-terminal")
    c = reference_coeffs(g=lambda t, x, y, z: (0.5 * y + np.log(x))[:, :, None])
    sol = solve(c, grid, dom, nb, [100.0], part, cfg)
    u, v = spde_point(c, grid, dom, nb.backward, 0.0, [[100.0]], 256, part, cfg,
                      seed=77)
    assert np.array_equal(u[0], sol.Y0)
    assert np.array_equal(v[0], sol.Z0)


def test_spde_point_interior_restart_near_oracle():
    grid, part, dom = _field_setup()
    wpath = np.zeros((10, 1))
    u, v = spde_point(reference_coeffs(), grid, dom, wpath,
                      float(grid.times[4]), [[100.0]], 4096, part,
                      SolverConfig(mode="bsde"), seed=6)
    # oracle at (t_4, 100): K e^{-r (T - t_4)} - 100
    t4 = float(grid.times[4])
    expect = STRIKE * np.exp(-RATE * (0.25 - t4)) - 100.0
    assert abs(u[0, 0] - expect) < 0.5


def test_spde_point_shares_backward_path():
    grid, part, dom = _field_setup()
    c = reference_coeffs(g=lambda t, x, y, z: (0.5 * y)[:, :, None])
    cfg = SolverConfig(mode="bdsde-fixed-horizon")
    w1 = sample_noise(1, 1, grid, 1, 1).backward
    w2 = np.zeros((10, 1))
    t_mid = float(grid.times[5])
    a1, _ = spde_point(c, grid, dom, w1, t_mid, [[100.0]], 128, part, cfg, seed=9)
    a2, _ = spde_point(c, grid, dom, w1, t_mid, [[100.0]], 128, part, cfg, seed=9)
    b, _ = spde_point(c, grid, dom, w2, t_mid, [[100.0]], 128, part, cfg, seed=9)
    assert np.array_equal(a1, a2)           # deterministic in (wpath, seed)
    assert not np.array_equal(a1, b)        # and sensitive to the shared path


def test_spde_point_rejects_off_grid_time():
    grid, part, dom = _field_setup()
    with pytest.raises(InvalidParameterError):
        spde_point(reference_coeffs(), grid, dom, np.zeros((10, 1)), 0.013,
                   [[100.0]], 16, part, SolverConfig(mode="bsde"), seed=1)


def per_point_restart(coeffs, grid, domain, wpath, n, x, M, partition, config,
                      seed):
    """Reference field value at one lattice point from its own restart: a
    grid shifted to start at 0 with coefficients wrapped to t + t_n, a fresh
    noise draw per point, and (phi, 0) at T or where the solve refuses a
    start in the exit-shift collar."""
    x = np.asarray(x, dtype=np.float64)
    zero = np.zeros((coeffs.k, coeffs.d))
    if n == grid.N:
        return coeffs.eval_phi(float(grid.times[-1]), x[None, :])[0], zero
    if n == 0:
        sub_grid, sub_coeffs = grid, coeffs
    else:
        times = grid.times[n:] - grid.times[n]
        sub_grid = TimeGrid(N=grid.N - n, h=grid.h, times=times)
        t0 = float(grid.times[n])
        f, g, phi = coeffs.f, coeffs.g, coeffs.phi
        sub_coeffs = dataclasses.replace(
            coeffs,
            f=lambda t, xs, y, z: f(t + t0, xs, y, z),
            g=None if g is None else (lambda t, xs, y, z: g(t + t0, xs, y, z)),
            phi=lambda t, xs: phi(t + t0, xs),
        )
    noise = sample_noise(seed, M, sub_grid, coeffs.d, coeffs.l)
    noise = noise.with_backward(wpath[n:])
    try:
        sol = solve(sub_coeffs, sub_grid, domain, noise, x, partition, config)
    except InvalidStartError:
        return coeffs.eval_phi(float(grid.times[n]), x[None, :])[0], zero
    return sol.Y0, sol.Z0


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("lower,upper", [(60.0, 200.0), (90.0, 110.0)])
def test_spde_point_row_matches_per_point_restart_bitwise(mode, lower, upper):
    grid = build_grid(0.25, 6)
    dom = Domain.box([lower], [upper])
    part = build_partition([lower], [upper], 2.0)
    c = reference_coeffs(g=lambda t, x, y, z: (0.1 * z[:, :, 0] + 0.5 * y
                                               + np.log(x))[:, :, None])
    cfg = SolverConfig(mode=mode)
    # the outer points lie in the exit-shift collar (width about 1.4 at 60,
    # 2.4 at 90 and 2.7 at 110 for this step)
    points = np.array([[lower + 0.5], [lower + 0.3 * (upper - lower)], [100.0],
                       [upper - 0.5]])
    wpath = sample_noise(31, 1, grid, 1, 1).backward
    collar = 0
    for n in range(grid.N + 1):
        u, v = spde_point(c, grid, dom, wpath, float(grid.times[n]), points,
                          256, part, cfg, seed=31)
        for p, x in enumerate(points):
            u_ref, v_ref = per_point_restart(c, grid, dom, wpath, n, x, 256,
                                             part, cfg, seed=31)
            assert np.array_equal(u[p], u_ref), (n, p)
            assert np.array_equal(v[p], v_ref), (n, p)
            collar += n < grid.N and not v_ref.any()
    if mode == "bdsde-random-terminal":
        assert collar == 2 * grid.N      # both outer points, every t < T


def test_spde_point_collar_and_outside_points():
    grid, part, dom = _field_setup()
    cfg = SolverConfig(mode="bdsde-random-terminal")
    c = reference_coeffs(g=lambda t, x, y, z: (0.5 * y)[:, :, None])
    wpath = np.zeros((10, 1))
    u, v = spde_point(c, grid, dom, wpath, float(grid.times[3]),
                      [[60.5], [100.0]], 64, part, cfg, seed=2)
    assert u[0, 0] == 115.0 - 60.5 and (v[0] == 0.0).all()
    assert (v[1] != 0.0).all()
    with pytest.raises(InvalidStartError, match="outside"):
        spde_point(c, grid, dom, wpath, float(grid.times[3]), [[100.0], [59.0]],
                   64, part, cfg, seed=2)
    with pytest.raises(InvalidParameterError, match="points shape"):
        spde_point(c, grid, dom, wpath, 0.0, [100.0], 64, part, cfg, seed=2)


def test_spde_point_passes_grid_times_to_coefficients():
    # a shifted clock t + t_n lands one ulp off some grid times at T=0.25, N=20
    grid = build_grid(0.25, 20)
    seen = []

    def record(t):
        seen.append(np.asarray(t, dtype=np.float64).ravel())

    def f(t, x, y, z):
        record(t)
        return reference_driver(t, x, y, z)

    def g(t, x, y, z):
        record(t)
        return (0.5 * y + 0.01 * t)[:, :, None]

    def phi(t, x):
        record(t)
        return STRIKE - x + 0.0 * np.reshape(t, (-1, 1))

    c = CoefficientSet(d=1, k=1, l=1, b=lambda x: MU * x, sigma=gbm_sigma,
                       f=f, g=g, phi=phi)
    part = build_partition([90.0], [110.0], 2.0)
    dom = Domain.box([90.0], [110.0])
    wpath = sample_noise(4, 1, grid, 1, 1).backward
    for n in range(grid.N + 1):
        spde_point(c, grid, dom, wpath, float(grid.times[n]), [[100.0]], 64, part,
                   SolverConfig(mode="bdsde-random-terminal", picard_iterations=1),
                   seed=4)
    seen = np.concatenate(seen)
    assert seen.size > 0
    assert np.isin(seen, grid.times).all()


def test_index_of_on_tail_grid():
    grid = build_grid(0.25, 20)
    tail = dataclasses.replace(grid, N=grid.N - 7, times=grid.times[7:])
    assert [tail.index_of(float(t)) for t in grid.times[7:]] == list(range(14))
    with pytest.raises(InvalidParameterError):
        tail.index_of(float(grid.times[7] + 0.5 * grid.h))


# ------------------------------ error metric ------------------------------- #

def test_midpoint_lattice_geometry():
    points, weights = midpoint_lattice(Domain.box([60.0], [200.0]))
    assert points.shape == (29, 1)
    assert points[0, 0] == pytest.approx(60.0 + 0.5 * 140.0 / 29)
    assert weights.sum() == pytest.approx(140.0)
    p2, w2 = midpoint_lattice(Domain.box([0.0, 0.0], [1.0, 2.0]), 3)
    assert p2.shape == (9, 2)
    assert w2.sum() == pytest.approx(2.0)
    with pytest.raises(InvalidParameterError):
        midpoint_lattice(Domain.whole_space(1))


def test_spde_error_trivial_cases():
    grid = build_grid(0.25, 4)
    points, weights = midpoint_lattice(Domain.box([60.0], [200.0]), 5)
    u_ref = lambda t, x: (0.01 * t + x[:, :1]) * 0.1
    v_ref = lambda t, x: np.full((x.shape[0], 1, 1), -2.0)
    u_num = np.stack([u_ref(float(t), points) for t in grid.times])
    v_num = np.stack([v_ref(float(t), points) for t in grid.times[:-1]])
    assert spde_error(u_num, v_num, u_ref, v_ref, None, grid, points, weights) == 0.0
    # rho annihilates any error
    off_u = u_num + 3.0
    err = spde_error(off_u, v_num, u_ref, v_ref, lambda x: np.zeros(len(x)),
                     grid, points, weights)
    assert err == 0.0
    # and without rho the u-gap alone is 9 * total weight
    err = spde_error(off_u, v_num, u_ref, v_ref, None, grid, points, weights)
    assert err == pytest.approx(9.0 * weights.sum())


def test_spde_error_shape_validation():
    grid = build_grid(0.25, 4)
    points, weights = midpoint_lattice(Domain.box([60.0], [200.0]), 5)
    ok_u = np.zeros((5, 5, 1))
    ok_v = np.zeros((4, 5, 1, 1))
    ref = lambda t, x: np.zeros((5, 1))
    refv = lambda t, x: np.zeros((5, 1, 1))
    with pytest.raises(InvalidParameterError):
        spde_error(np.zeros((4, 5, 1)), ok_v, ref, refv, None, grid, points, weights)
    with pytest.raises(InvalidParameterError):
        spde_error(ok_u, np.zeros((3, 5, 1, 1)), ref, refv, None, grid, points, weights)
    with pytest.raises(InvalidParameterError):
        spde_error(ok_u, ok_v, ref, refv, None, grid, points, np.ones(3))


def test_spde_error_decreases_under_refinement():
    # Refine all three discretization knobs at once and evaluate on an
    # interior window so restarted paths stay inside the regression basis.
    o = forward_contract_oracle(STRIKE, RATE, 0.25, gbm_sigma)
    dom = Domain.box([60.0], [200.0])
    points, weights = midpoint_lattice(Domain.box([80.0], [140.0]), 5)
    cfg = SolverConfig(mode="bsde")
    errs = {}
    for N, M, delta in ((4, 512, 25.0), (8, 4096, 6.25)):
        grid = build_grid(0.25, N)
        part = build_partition([60.0], [200.0], delta)
        u_runs, v_runs = [], []
        for rep in range(3):
            wpath = sample_noise(900 + rep, 1, grid, 1, 1).backward
            u_grid = np.zeros((N + 1, len(points), 1))
            v_grid = np.zeros((N, len(points), 1, 1))
            for n in range(N + 1):
                u, v = spde_point(reference_coeffs(), grid, dom, wpath,
                                  float(grid.times[n]), points, M, part, cfg,
                                  seed=900 + rep)
                u_grid[n] = u
                if n < N:
                    v_grid[n] = v
            u_runs.append(u_grid)
            v_runs.append(v_grid)
        errs[N] = spde_error(np.stack(u_runs), np.stack(v_runs), o.u, o.z,
                             None, grid, points, weights)
    assert errs[8] < errs[4]
