"""Stopped Euler simulation: step arithmetic, exit rules, boundary shift."""

import dataclasses

import numpy as np
import pytest

from bdsde import (
    CoefficientSet,
    Domain,
    EvaluationError,
    InvalidStartError,
    build_grid,
    euler_step,
    sample_noise,
    shift_width,
    simulate_stopped,
)


def gbm_coeffs(mu=0.05, vol=0.2):
    return CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: mu * x,
        sigma=lambda x: vol * x[..., None],
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: 115.0 - x,
    )


# ------------------------------ shift width -------------------------------- #

def test_shift_width_reference_value():
    # 1-d box (60, 200) with sigma(x) = 0.2 x at the lower boundary:
    # 0.5826 * sqrt(0.0125) * 0.2 * 60
    dom = Domain.box([60.0], [200.0])
    w = shift_width(dom, np.array([[60.0]]), gbm_coeffs().sigma, 0.0125)
    assert w[0] == pytest.approx(0.7816399222148265, rel=1e-13)


def test_shift_width_degenerate_cases():
    dom = Domain.box([0.0], [1.0])
    x = np.array([[0.3], [0.9]])
    zero_sigma = lambda x: np.zeros(x.shape + (1,))
    assert shift_width(dom, x, zero_sigma, 0.01) == pytest.approx([0.0, 0.0])
    ws = Domain.whole_space(2)
    w = shift_width(ws, np.zeros((3, 2)), lambda x: np.broadcast_to(np.eye(2), (3, 2, 2)), 0.01)
    assert w == pytest.approx([0.0, 0.0, 0.0])


# ------------------------------ euler step --------------------------------- #

def test_euler_step_reference_value():
    out = euler_step(gbm_coeffs(), np.array([[100.0]]), 0.0125, np.array([[0.1]]))
    assert out[0, 0] == pytest.approx(102.0625, rel=1e-14)


def test_euler_step_degenerate_dynamics():
    still = CoefficientSet(
        d=2, k=1, l=1,
        b=lambda x: np.zeros_like(x),
        sigma=lambda x: np.zeros(x.shape + (x.shape[-1],)),
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: x[:, :1],
    )
    x = np.array([[3.0, -1.0]])
    out = euler_step(still, x, 0.5, np.array([[9.0, 9.0]]))
    assert np.array_equal(out, x)
    drift = euler_step(gbm_coeffs(), np.array([[100.0]]), 0.0125, np.array([[0.0]]))
    assert drift[0, 0] == pytest.approx(100.0625)


def test_euler_step_reports_offending_coefficient():
    bad = dataclasses.replace(gbm_coeffs(), b=lambda x: np.full_like(x, np.nan))
    with pytest.raises(EvaluationError, match="coefficient b"):
        euler_step(bad, np.array([[1.0]]), 0.1, np.array([[0.0]]))


# ------------------------------ simulation --------------------------------- #

def test_whole_space_never_exits():
    g = build_grid(0.25, 20)
    nb = sample_noise(7, 50, g, 1, 1)
    ps = simulate_stopped(gbm_coeffs(), g, Domain.whole_space(1), nb, [100.0])
    assert (ps.exit_index == 20).all()
    assert not ps.exit_detected.any()
    assert (ps.exit_time == 0.25).all()
    # no freezing: consecutive states differ almost surely
    assert (np.diff(ps.states[:, :, 0], axis=1) != 0.0).all()


def test_constant_path_survives():
    g = build_grid(1.0, 4)
    nb = sample_noise(1, 8, g, 1, 1)
    c = CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: np.zeros_like(x),
        sigma=lambda x: np.zeros(x.shape + (1,)),
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: x,
    )
    ps = simulate_stopped(c, g, Domain.box([0.0], [1.0]), nb, [0.5])
    assert (ps.states == 0.5).all()
    assert (ps.exit_index == 4).all()


def test_states_frozen_after_exit_bit_exactly():
    g = build_grid(0.25, 20)
    nb = sample_noise(11, 4096, g, 1, 1)
    # tight box so a sizeable fraction exits
    ps = simulate_stopped(gbm_coeffs(), g, Domain.box([90.0], [110.0]), nb, [100.0])
    assert ps.exit_detected.any() and not ps.exit_detected.all()
    for m in np.nonzero(ps.exit_detected)[0][:200]:
        e = ps.exit_index[m]
        assert (ps.states[m, e:] == ps.states[m, e]).all()
        assert np.array_equal(ps.exit_state[m], ps.states[m, e])


def test_pre_exit_states_clear_the_shift_collar():
    g = build_grid(0.25, 20)
    nb = sample_noise(13, 2048, g, 1, 1)
    dom = Domain.box([90.0], [110.0])
    c = gbm_coeffs()
    ps = simulate_stopped(c, g, dom, nb, [100.0], shift_enabled=True)
    for i in range(1, 20):
        live = ps.exit_index > i
        x = ps.states[live, i]
        w = shift_width(dom, x, c.sigma, g.h)
        assert (dom.boundary_distance(x) > w).all()


def test_disabling_shift_never_shortens_paths():
    g = build_grid(0.25, 20)
    nb = sample_noise(17, 2048, g, 1, 1)
    dom = Domain.box([90.0], [110.0])
    on = simulate_stopped(gbm_coeffs(), g, dom, nb, [100.0], shift_enabled=True)
    off = simulate_stopped(gbm_coeffs(), g, dom, nb, [100.0], shift_enabled=False)
    assert (off.exit_index >= on.exit_index).all()
    assert (off.exit_index > on.exit_index).any()


def test_path_permutation_equivariance():
    g = build_grid(0.25, 10)
    nb = sample_noise(23, 64, g, 1, 1)
    dom = Domain.box([90.0], [110.0])
    base = simulate_stopped(gbm_coeffs(), g, dom, nb, [100.0])
    perm = np.random.default_rng(0).permutation(64)
    nb_p = dataclasses.replace(nb, forward=nb.forward[perm])
    shuffled = simulate_stopped(gbm_coeffs(), g, dom, nb_p, [100.0])
    assert np.array_equal(shuffled.states, base.states[perm])
    assert np.array_equal(shuffled.exit_index, base.exit_index[perm])


def test_invalid_starts():
    g = build_grid(0.25, 20)
    nb = sample_noise(3, 4, g, 1, 1)
    dom = Domain.box([60.0], [200.0])
    with pytest.raises(InvalidStartError):
        simulate_stopped(gbm_coeffs(), g, dom, nb, [60.0])
    with pytest.raises(InvalidStartError):
        simulate_stopped(gbm_coeffs(), g, dom, nb, [250.0])
    # inside the box but inside the collar: message names the width
    with pytest.raises(InvalidStartError, match="shift"):
        simulate_stopped(gbm_coeffs(), g, dom, nb, [60.5])
    # same point is fine once the shift is disabled
    ps = simulate_stopped(gbm_coeffs(), g, dom, nb, [60.5], shift_enabled=False)
    assert ps.M == 4


def test_wide_box_exit_probability_is_small():
    # reference experiment scale: (60, 200) box barely binds over T = 0.25
    g = build_grid(0.25, 20)
    nb = sample_noise(101, 32768, g, 1, 1)
    ps = simulate_stopped(gbm_coeffs(), g, Domain.box([60.0], [200.0]), nb, [100.0])
    assert ps.exit_detected.mean() < 0.01
