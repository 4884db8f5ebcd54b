"""Stopped Euler simulation: step arithmetic, exit rules, boundary shift."""

import dataclasses

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import bdsde.forward
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


def test_whole_space_refuses_a_non_finite_start():
    g = build_grid(0.25, 4)
    nb = sample_noise(3, 4, g, 1, 1)
    for x0 in ([np.inf], [np.nan]):
        with pytest.raises(InvalidStartError, match="outside the open domain"):
            simulate_stopped(gbm_coeffs(), g, Domain.whole_space(1), nb, x0)


def test_wide_box_exit_probability_is_small():
    # reference experiment scale: (60, 200) box barely binds over T = 0.25
    g = build_grid(0.25, 20)
    nb = sample_noise(101, 32768, g, 1, 1)
    ps = simulate_stopped(gbm_coeffs(), g, Domain.box([60.0], [200.0]), nb, [100.0])
    assert ps.exit_detected.mean() < 0.01


# --------------------- one exit test, checked against the old loop ---------- #

def reference_stopped(coeffs, grid, domain, noise, x0, shift_enabled=True):
    """Test-only copy of the earlier simulation loop: index arrays of alive
    and frozen paths, a start-point collar check of its own, and a membership
    helper with a whole-space branch."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    x0row = x0[None, :]
    if not domain.contains(x0row)[0]:
        raise InvalidStartError("outside the open domain")
    if shift_enabled and not domain.is_whole_space:
        w0 = shift_width(domain, x0row, coeffs.sigma, grid.h)[0]
        if not domain.boundary_distance(x0row)[0] > w0:
            raise InvalidStartError("boundary shift")

    def inside_shifted(x):
        if domain.is_whole_space:
            return np.ones(x.shape[0], dtype=bool)
        width = shift_width(domain, x, coeffs.sigma, grid.h) if shift_enabled else 0.0
        return domain.boundary_distance(x) > width

    M, N = noise.M, grid.N
    states = np.empty((M, N + 1, coeffs.d))
    states[:, 0] = x0
    exit_index = np.full(M, N, dtype=np.int64)
    exit_detected = np.zeros(M, dtype=bool)
    alive = np.ones(M, dtype=bool)
    test_exits = not domain.is_whole_space
    for i in range(N):
        idx = np.nonzero(alive)[0]
        frozen = np.nonzero(~alive)[0]
        if idx.size:
            states[idx, i + 1] = euler_step(coeffs, states[idx, i], grid.h,
                                            noise.forward[idx, i])
        if frozen.size:
            states[frozen, i + 1] = states[frozen, i]
        if test_exits and idx.size:
            left = idx[~inside_shifted(states[idx, i + 1])]
            exit_index[left] = i + 1
            exit_detected[left] = True
            alive[left] = False
    return states, exit_index, exit_detected


def coupled_coeffs(mix, vol=0.2):
    """d=2 GBM-like dynamics with sigma(x) = vol * diag(x) @ mix."""
    mix = np.asarray(mix, dtype=np.float64)
    return CoefficientSet(
        d=2, k=1, l=1,
        b=lambda x: 0.05 * x,
        sigma=lambda x: vol * x[..., :, None] * mix,
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: x[:, :1],
    )


# equal rows keep both coordinates equal, so every state sits on the
# diagonal and the nearest face is always a tie between the two coordinates
_DIAGONAL = coupled_coeffs([[1.0, 0.0], [1.0, 0.0]])
_FORWARD_CASES = {
    "d1-box": (gbm_coeffs(), Domain.box([90.0], [110.0]), [100.0]),
    "d1-all-exit": (gbm_coeffs(vol=0.3), Domain.box([97.0], [103.0]), [100.0]),
    "d1-whole": (gbm_coeffs(), Domain.whole_space(1), [100.0]),
    "d2-box": (coupled_coeffs([[1.0, 0.3], [-0.2, 0.8]]),
               Domain.box([90.0, 95.0], [110.0, 105.0]), [100.0, 100.0]),
    "d2-corner-ties": (_DIAGONAL, Domain.box([92.0, 92.0], [108.0, 108.0]),
                       [100.0, 100.0]),
    "d2-whole": (_DIAGONAL, Domain.whole_space(2), [100.0, 100.0]),
}


@pytest.mark.parametrize("shift", [True, False])
@pytest.mark.parametrize("case", sorted(_FORWARD_CASES))
def test_simulation_matches_alive_frozen_reference_bitwise(case, shift):
    coeffs, dom, x0 = _FORWARD_CASES[case]
    g = build_grid(0.25, 40)
    nb = sample_noise(31, 1000, g, coeffs.d, 1)
    ps = simulate_stopped(coeffs, g, dom, nb, x0, shift_enabled=shift)
    states, exit_index, exit_detected = reference_stopped(coeffs, g, dom, nb, x0, shift)
    assert np.array_equal(ps.states, states)
    assert np.array_equal(ps.exit_index, exit_index)
    assert np.array_equal(ps.exit_detected, exit_detected)
    if case == "d1-all-exit":
        assert exit_detected.all() and exit_index.max() < g.N
    elif "whole" in case:
        assert not exit_detected.any()
    else:
        assert exit_detected.any() and not exit_detected.all()


def test_start_on_the_shifted_boundary_is_refused():
    # constant sigma: the width w does not depend on x, and with the lower
    # face at 0 the start x0 = w sits exactly on the shrunken boundary
    coeffs = dataclasses.replace(gbm_coeffs(), sigma=lambda x: np.full(x.shape + (1,), 0.3))
    dom = Domain.box([0.0], [10.0])
    g = build_grid(0.25, 4)
    nb = sample_noise(3, 4, g, 1, 1)
    w = shift_width(dom, np.array([[1.0]]), coeffs.sigma, g.h)[0]
    assert dom.boundary_distance(np.array([[w]]))[0] == w
    with pytest.raises(InvalidStartError, match="boundary shift"):
        simulate_stopped(coeffs, g, dom, nb, [w])
    simulate_stopped(coeffs, g, dom, nb, [np.nextafter(w, 1.0)])


def test_no_coefficient_call_once_every_path_exited():
    coeffs, dom, x0 = _FORWARD_CASES["d1-all-exit"]
    sizes = []

    def b(x):
        sizes.append(x.shape[0])
        return coeffs.b(x)

    g = build_grid(0.25, 40)
    nb = sample_noise(31, 1000, g, 1, 1)
    ps = simulate_stopped(dataclasses.replace(coeffs, b=b), g, dom, nb, x0)
    assert len(sizes) == ps.exit_index.max() and min(sizes) > 0


class ShiftComputed(Exception):
    pass


def test_whole_space_computes_no_shift(monkeypatch):
    def refuse(*args, **kwargs):
        raise ShiftComputed

    monkeypatch.setattr(bdsde.forward, "shift_width", refuse)
    coeffs, dom, x0 = _FORWARD_CASES["d2-whole"]
    g = build_grid(0.25, 10)
    nb = sample_noise(5, 64, g, 2, 1)
    ps = simulate_stopped(coeffs, g, dom, nb, x0, shift_enabled=True)
    assert not ps.exit_detected.any()
    # the patch is seen where a boundary exists
    with pytest.raises(ShiftComputed):
        simulate_stopped(coeffs, g, Domain.box([90.0, 90.0], [110.0, 110.0]),
                         nb, x0, shift_enabled=True)


@settings(max_examples=200, deadline=None)
@given(
    d=st.integers(1, 2),
    lo=st.floats(-50.0, 50.0),
    span=st.floats(0.5, 50.0),
    frac=st.lists(st.floats(0.001, 0.999), min_size=2, max_size=2),
    vol=st.floats(0.0, 2.0),
    N=st.integers(1, 400),
    shift=st.booleans(),
)
def test_start_refused_exactly_within_the_shift(d, lo, span, frac, vol, N, shift):
    dom = Domain.box([lo] * d, [lo + span] * d)
    x0 = lo + span * np.array(frac[:d])
    coeffs = CoefficientSet(
        d=d, k=1, l=1,
        b=lambda x: np.zeros_like(x),
        sigma=lambda x: vol * np.abs(x)[..., :, None] * np.eye(d),
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: x[:, :1],
    )
    g = build_grid(1.0, N)
    nb = sample_noise(0, 1, g, d, 1)
    assert dom.contains(x0[None, :])[0]
    width = shift_width(dom, x0[None, :], coeffs.sigma, g.h)[0]
    if shift and dom.boundary_distance(x0[None, :])[0] <= width:
        with pytest.raises(InvalidStartError, match="boundary shift"):
            simulate_stopped(coeffs, g, dom, nb, x0, shift_enabled=shift)
    else:
        simulate_stopped(coeffs, g, dom, nb, x0, shift_enabled=shift)
