"""Stopped Euler simulation: step arithmetic, exit rules, boundary shift."""

import dataclasses
import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import bdsde.forward
from bdsde import (
    C0,
    CoefficientSet,
    Domain,
    EvaluationError,
    InvalidParameterError,
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
    x = np.array([[60.0]])
    w = shift_width(dom.nearest_face(x)[1], x, gbm_coeffs(), 0.0125)
    assert w[0] == pytest.approx(0.7816399222148265, rel=1e-13)


def test_shift_width_degenerate_cases():
    dom = Domain.box([0.0], [1.0])
    x = np.array([[0.3], [0.9]])
    zero_sigma = dataclasses.replace(gbm_coeffs(), sigma=lambda x: np.zeros(x.shape + (1,)))
    assert shift_width(dom.nearest_face(x)[1], x, zero_sigma, 0.01) == pytest.approx([0.0, 0.0])
    for h in (0.0, -0.01, np.nan, np.inf):
        with pytest.raises(InvalidParameterError, match="step must be positive"):
            shift_width(dom.nearest_face(x)[1], x, gbm_coeffs(), h)


@st.composite
def sigma_rows(draw):
    d = draw(st.integers(1, 3))
    M = draw(st.integers(0, 12))
    entry = st.floats(-1e150, 1e150) | st.sampled_from([0.0, -0.0, 1e-300, -1e-300])
    s = np.array(draw(st.lists(entry, min_size=M * d * d, max_size=M * d * d))).reshape(M, d, d)
    axis = np.array(draw(st.lists(st.integers(0, d - 1), min_size=M, max_size=M)), dtype=np.intp)
    return s, axis, draw(st.booleans())


@settings(max_examples=300, deadline=None)
@given(sigma_rows(), st.floats(1e-6, 10.0))
def test_shift_width_equals_the_indexed_norm(problem, h):
    # one flat take and the sum of squares give the bytes of the 2-D fancy
    # index and np.linalg.norm, also for a sigma returned transposed
    s, axis, transposed = problem
    M, d = s.shape[:2]
    out = s.transpose(0, 2, 1).copy().transpose(0, 2, 1) if transposed else s
    coeffs = dataclasses.replace(gbm_coeffs(), d=d, sigma=lambda x: out)
    want = C0 * np.sqrt(h) * np.linalg.norm(s[np.arange(M), axis], axis=-1)
    assert shift_width(axis, np.zeros((M, d)), coeffs, h).tobytes() == want.tobytes()


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
    assert (np.diff(ps.states[:, :, 0], axis=0) != 0.0).all()


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
        assert (ps.states[e:, m] == ps.states[e, m]).all()
        assert np.array_equal(ps.exit_state[m], ps.states[e, m])


@pytest.mark.parametrize("case", ["d1-box", "d2-box", "d2-corner-ties"])
def test_states_are_time_major_and_frozen_after_exit(case):
    coeffs, dom, x0 = _FORWARD_CASES[case]
    g = build_grid(0.25, 40)
    nb = sample_noise(37, 500, g, coeffs.d, 1)
    ps = simulate_stopped(coeffs, g, dom, nb, x0)
    assert ps.states.shape == (41, 500, coeffs.d) and ps.M == 500
    assert ps.states[0].flags.c_contiguous
    frozen = np.arange(41)[:, None] >= ps.exit_index[None, :]
    held = np.broadcast_to(ps.states[ps.exit_index, np.arange(500)], ps.states.shape)
    assert np.array_equal(ps.states[frozen], held[frozen])
    assert np.array_equal(ps.exit_state, held[0])
    assert ps.exit_detected.any()


def test_path_record_memory_falls_with_the_exit_times():
    # the record keeps each step's states for the paths that took it and
    # one block of exit states, never the (N+1)·M·d grid of frozen copies.
    # On (97, 103) at vol 0.3 every path exits, after 8.3 of N = 200 steps
    # on average, so at M = 4096 the 6.6 MB grid shrinks to about 0.37 MB.
    # Measured over seeds 1-5 and 31: kept 0.056-0.058 and peak 0.070 of
    # the grid (1.007 and 1.055 while the grid was stored); the bound, 1/8
    # of the grid, leaves a margin of 1.8x over the largest
    coeffs, dom, x0 = _FORWARD_CASES["d1-all-exit"]
    g = build_grid(0.25, 200)
    nb = sample_noise(1, 4096, g, 1, 1)
    tracemalloc.start()
    try:
        ps = simulate_stopped(coeffs, g, dom, nb, x0, keep_steps=True)
        kept, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert ps.exit_detected.all() and ps.exit_index.mean() < 10
    grid = (g.N + 1) * 4096 * 1 * 8
    assert kept <= grid / 8 and peak <= grid / 8
    assert "states" not in vars(ps)


def test_default_run_keeps_no_per_step_record():
    # a box far wider than the paths spread: every path runs all N = 50
    # steps, so a kept record would hold 50·M·d words.  Without it the
    # PathSet keeps the exit index, flags and states, about M·(d + 1.125)
    # words; the bound is 3·M·(d + 2) words, 0.29 MB against the record's
    # 1.6 MB
    g = build_grid(0.25, 50)
    nb = sample_noise(3, 4096, g, 1, 1)
    tracemalloc.start()
    try:
        ps = simulate_stopped(gbm_coeffs(), g, Domain.box([1.0], [1000.0]), nb, [100.0])
        kept, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert not ps.exit_detected.any()
    assert kept <= 3 * 4096 * (1 + 2) * 8
    assert ps.rerun is not None and "steps" not in vars(ps)


def test_pre_exit_states_clear_the_shift_collar():
    g = build_grid(0.25, 20)
    nb = sample_noise(13, 2048, g, 1, 1)
    dom = Domain.box([90.0], [110.0])
    c = gbm_coeffs()
    ps = simulate_stopped(c, g, dom, nb, [100.0], shift_enabled=True)
    for i in range(1, 20):
        live = ps.exit_index > i
        x = ps.states[i, live]
        dist, axis = dom.nearest_face(x)
        assert (dist > shift_width(axis, x, c, g.h)).all()


def test_one_face_scan_per_step(monkeypatch):
    # a box far wider than the paths spread: every path runs all N steps, and
    # each step's exit test and shift share one scan, as does the start check
    calls = []
    scan = Domain.nearest_face

    def counted(self, x):
        calls.append(np.shape(x)[0])
        return scan(self, x)

    monkeypatch.setattr(Domain, "nearest_face", counted)
    g = build_grid(0.25, 20)
    nb = sample_noise(13, 64, g, 1, 1)
    ps = simulate_stopped(gbm_coeffs(), g, Domain.box([1.0], [1000.0]), nb, [100.0],
                          shift_enabled=True)
    assert not ps.exit_detected.any()
    assert calls == [1] + [64] * 20


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
    nb_p = dataclasses.replace(nb, forward=nb.forward[:, perm])
    shuffled = simulate_stopped(gbm_coeffs(), g, dom, nb_p, [100.0])
    assert np.array_equal(shuffled.states, base.states[:, perm])
    assert np.array_equal(shuffled.exit_index, base.exit_index[perm])


def test_invalid_starts():
    g = build_grid(0.25, 20)
    nb = sample_noise(3, 4, g, 1, 1)
    dom = Domain.box([60.0], [200.0])
    for x0 in (60.0, 250.0):
        with pytest.raises(InvalidStartError, match="outside the open domain"):
            simulate_stopped(gbm_coeffs(), g, dom, nb, [x0])
    # inside the box but inside the collar: every path stops at t_0
    ps = simulate_stopped(gbm_coeffs(), g, dom, nb, [60.5])
    assert (ps.exit_index == 0).all() and ps.exit_detected.all()
    assert (ps.states == 60.5).all()
    # same point runs once the shift is disabled
    ps = simulate_stopped(gbm_coeffs(), g, dom, nb, [60.5], shift_enabled=False)
    assert (ps.exit_index > 0).all()


def test_domain_of_another_dimension_is_refused():
    # a 1-d domain would scan only coordinate 0 of 2-d states, so paths
    # could leave through coordinate 1 unstopped
    g = build_grid(0.25, 4)
    nb = sample_noise(3, 4, g, 1, 1)
    with pytest.raises(InvalidParameterError, match="domain dimension 2"):
        simulate_stopped(gbm_coeffs(), g, Domain.box([60.0] * 2, [200.0] * 2),
                         nb, [100.0])


def test_noise_of_another_grid_and_misshapen_starts_are_refused():
    g = build_grid(0.25, 4)
    dom = Domain.box([60.0], [200.0])
    nb = sample_noise(3, 4, build_grid(0.5, 4), 1, 1)
    with pytest.raises(InvalidParameterError, match="different time grid"):
        simulate_stopped(gbm_coeffs(), g, dom, nb, [100.0])
    nb = sample_noise(3, 4, g, 1, 1)
    for x0 in ([100.0, 100.0], []):
        with pytest.raises(InvalidParameterError, match=r"start point must have shape \(1,\)"):
            simulate_stopped(gbm_coeffs(), g, dom, nb, x0)


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

def reference_distance(domain, x):
    """Test-only copy of the earlier face scan: min over the concatenated
    gaps of the 2d faces."""
    return np.min(np.concatenate([x - domain.lower, domain.upper - x], axis=-1), axis=-1)


def reference_width(domain, x, sigma, h):
    """Test-only copy of the earlier shift: the inward normal built from the
    argmin face, then |n^T sigma(x)| through an einsum."""
    gaps = np.concatenate([x - domain.lower, domain.upper - x], axis=-1)
    face = np.argmin(gaps, axis=-1)
    d = domain.d
    normal = np.zeros(x.shape)
    sign = np.where(face < d, 1.0, -1.0)
    np.put_along_axis(normal, (face % d)[:, None], sign[:, None], axis=-1)
    row = np.einsum("mi,mij->mj", normal, sigma(x))
    return C0 * np.sqrt(h) * np.linalg.norm(row, axis=-1)


def reference_stopped(coeffs, grid, domain, noise, x0, shift_enabled=True):
    """Test-only copy of the earlier simulation loop: path-major (M, N+1, d)
    states, index arrays of alive and frozen paths, a start-point collar
    check of its own, and a membership helper with a whole-space branch."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    x0row = x0[None, :]
    M, N = noise.M, grid.N
    if not domain.contains(x0row)[0]:
        raise InvalidStartError("outside the open domain")
    if shift_enabled and not domain.is_whole_space:
        w0 = reference_width(domain, x0row, coeffs.sigma, grid.h)[0]
        if not reference_distance(domain, x0row)[0] > w0:   # stop at t_0
            return (np.broadcast_to(x0, (M, N + 1, coeffs.d)),
                    np.zeros(M, dtype=np.int64), np.ones(M, dtype=bool))

    def inside_shifted(x):
        if domain.is_whole_space:
            return np.ones(x.shape[0], dtype=bool)
        width = reference_width(domain, x, coeffs.sigma, grid.h) if shift_enabled else 0.0
        return reference_distance(domain, x) > width

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
                                            noise.forward[i, idx])
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


def same_bytes(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def matches_reference(coeffs, grid, dom, x0, shift=True, seed=31, M=1000):
    """simulate_stopped against reference_stopped, bitwise: every row at(n),
    the exit states, the stacked states and the exit bookkeeping.  The
    default run's record, rebuilt on first read, has the bytes of the
    record a keep_steps run kept."""
    nb = sample_noise(seed, M, grid, coeffs.d, 1)
    ps = simulate_stopped(coeffs, grid, dom, nb, x0, shift_enabled=shift)
    kept = simulate_stopped(coeffs, grid, dom, nb, x0, shift_enabled=shift, keep_steps=True)
    assert kept.rerun is None and ps.rerun is not None and "steps" not in vars(ps)
    assert len(ps.steps) == len(kept.steps) == grid.N
    assert all(same_bytes(a, b) for a, b in zip(ps.steps, kept.steps))
    states, exit_index, exit_detected = reference_stopped(coeffs, grid, dom, nb, x0, shift)
    ref = states.transpose(1, 0, 2)
    for n in range(grid.N + 1):
        assert np.array_equal(ps.at(n), ref[n]) and same_bytes(ps.at(n), kept.at(n))
    assert np.array_equal(ps.exit_state, ref[grid.N])
    assert np.array_equal(ps.states, ref) and same_bytes(ps.states, kept.states)
    assert np.array_equal(ps.exit_index, exit_index)
    assert np.array_equal(ps.exit_detected, exit_detected)
    return ps


@pytest.mark.parametrize("shift", [True, False])
@pytest.mark.parametrize("case", sorted(_FORWARD_CASES))
def test_simulation_matches_alive_frozen_reference_bitwise(case, shift):
    coeffs, dom, x0 = _FORWARD_CASES[case]
    g = build_grid(0.25, 40)
    # a tail grid with no step left, as spde_point builds at t_N
    matches_reference(coeffs, dataclasses.replace(g, times=g.times[40:]), dom, x0, shift)
    ps = matches_reference(coeffs, g, dom, x0, shift)
    exit_index, exit_detected = ps.exit_index, ps.exit_detected
    if case == "d1-all-exit":
        assert exit_detected.all() and exit_index.max() < g.N
    elif "whole" in case:
        assert not exit_detected.any()
    else:
        assert exit_detected.any() and not exit_detected.all()


def test_record_is_rebuilt_once_and_not_for_the_start():
    coeffs, dom, x0 = _FORWARD_CASES["d1-box"]
    sizes = []

    def b(x):
        sizes.append(x.shape[0])
        return coeffs.b(x)

    g = build_grid(0.25, 40)
    nb = sample_noise(31, 1000, g, 1, 1)
    ps = simulate_stopped(dataclasses.replace(coeffs, b=b), g, dom, nb, x0)
    one_pass = list(sizes)
    assert len(one_pass) == g.N and ps.exit_detected.any()
    ps.at(0)
    assert sizes == one_pass
    steps = ps.steps
    assert sizes == one_pass * 2
    for n in range(g.N + 1):
        ps.at(n)
    assert ps.states.shape == (g.N + 1, 1000, 1)
    assert ps.steps is steps and sizes == one_pass * 2


def test_rebuild_refuses_a_coefficient_that_changed():
    coeffs, dom, x0 = _FORWARD_CASES["d1-box"]
    vol = [0.2]
    changing = dataclasses.replace(coeffs, sigma=lambda x: vol[0] * x[..., None])
    g = build_grid(0.25, 40)
    nb = sample_noise(31, 1000, g, 1, 1)
    ps = simulate_stopped(changing, g, dom, nb, x0)
    vol[0] = 0.3
    with pytest.raises(EvaluationError, match="path record"):
        ps.steps
    with pytest.raises(EvaluationError, match="path record"):
        ps.at(1)


def test_start_on_the_shifted_boundary_stops_at_t0():
    # constant sigma: the width w does not depend on x, and with the lower
    # face at 0 the start x0 = w sits exactly on the shrunken boundary
    coeffs = dataclasses.replace(gbm_coeffs(), sigma=lambda x: np.full(x.shape + (1,), 0.3))
    dom = Domain.box([0.0], [10.0])
    g = build_grid(0.25, 4)
    x = np.array([[1.0]])
    w = shift_width(dom.nearest_face(x)[1], x, coeffs, g.h)[0]
    assert dom.nearest_face(np.array([[w]]))[0][0] == w
    for x0, stops in ((w, True), (np.nextafter(w, 1.0), False)):
        ps = matches_reference(coeffs, g, dom, [x0], seed=3, M=4)
        assert (ps.exit_index == 0).all() == stops


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


# ---------------- batched drops, checked against the compacting loop ------- #

def compacting_stopped(coeffs, grid, domain, noise, x0, shift_enabled=True):
    """Test-only copy of the loop before batched drops: it compacts the
    running paths at every step with exits, evaluates sigma twice per state
    (Euler step and exit test) and reads the shift's row by a fancy index
    and np.linalg.norm.  Returns the exit index, flags and states and the
    per-step record."""
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    M, N, h = noise.M, grid.N, grid.h
    test_exits = not domain.is_whole_space

    def inside(x):
        dist, axis = domain.nearest_face(x)
        if not shift_enabled:
            return dist > 0.0
        row = coeffs.eval_sigma(x)[np.arange(x.shape[0]), axis]
        return dist > C0 * np.sqrt(h) * np.linalg.norm(row, axis=-1)

    live = np.arange(M if not test_exits or inside(x0[None, :])[0] else 0)
    exit_index = np.zeros(M, dtype=np.int64)
    exit_state = np.tile(x0, (M, 1))
    x, steps = exit_state[live], []
    for i in range(N):
        x = x + coeffs.eval_b(x) * h + np.einsum("mij,mj->mi", coeffs.eval_sigma(x),
                                                  noise.forward[i][live])
        steps.append(x)
        if test_exits:
            ok = inside(x)
            exit_index[live[~ok]], exit_state[live[~ok]] = i + 1, x[~ok]
            live, x = live[ok], x[ok]
    exit_detected = np.ones(M, dtype=bool)
    exit_index[live], exit_state[live], exit_detected[live] = N, x, False
    return exit_index, exit_detected, exit_state, steps


def mixed_coeffs(d, vol, mix):
    """GBM-like dynamics in d coordinates, sigma(x) = vol * diag(x) @ A,
    with A the identity plus ``mix`` times the first off-diagonals."""
    A = np.eye(d) + mix * (np.eye(d, k=1) - np.eye(d, k=-1))
    return CoefficientSet(
        d=d, k=1, l=1,
        b=lambda x: 0.05 * x,
        sigma=lambda x: vol * x[..., :, None] * A,
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: x[:, :1],
    )


def carried_rows(coeffs, grid, dom, nb, x0, shift):
    """simulate_stopped with keep_steps, checked bitwise against the
    compacting loop, and the number of rows handed to b at each step,
    which is the number of carried rows."""
    sizes = []
    counted = dataclasses.replace(coeffs, b=lambda x: sizes.append(x.shape[0]) or coeffs.b(x))
    ps = simulate_stopped(counted, grid, dom, nb, x0, shift_enabled=shift, keep_steps=True)
    exit_index, exit_detected, exit_state, steps = compacting_stopped(
        coeffs, grid, dom, nb, x0, shift)
    assert same_bytes(ps.exit_index, exit_index)
    assert same_bytes(ps.exit_detected, exit_detected)
    assert same_bytes(ps.exit_state, exit_state)
    assert len(ps.steps) == len(steps) == grid.N
    assert all(same_bytes(a, b) for a, b in zip(ps.steps, steps))
    return ps, sizes


@settings(max_examples=150, deadline=None)
@given(
    d=st.integers(1, 3),
    start=st.sampled_from(["centre", "collar", "whole"]),
    shift=st.booleans(),
    M=st.integers(1, 120),
    N=st.integers(1, 40),
    half=st.floats(4.0, 16.0),
    vol=st.floats(0.05, 0.3),
    mix=st.floats(-0.5, 0.5),
    seed=st.integers(0, 2 ** 16),
)
def test_batched_drops_match_the_compacting_loop(d, start, shift, M, N, half, vol, mix, seed):
    coeffs = mixed_coeffs(d, vol, mix)
    dom = (Domain.whole_space(d) if start == "whole"
           else Domain.box([100.0 - half] * d, [100.0 + half] * d))
    x0 = [100.0] * d
    if start == "collar":  # inside the box, within the shift of the lower face
        x0[0] = 100.0 - half + 1e-3
    g = build_grid(0.25, N)
    ps, _ = carried_rows(coeffs, g, dom, sample_noise(seed, M, g, d, 1), x0, shift)
    if start == "collar" and shift:
        assert (ps.exit_index == 0).all()


@pytest.mark.parametrize("shift", [True, False])
@pytest.mark.parametrize("d", [1, 2, 3])
def test_stopped_rows_are_dropped_in_batches(d, shift):
    # M = 100 paths on (88, 112)^d over N = 40 steps at seed 12: 47-87% of
    # the paths exit, the carried rows shrink in three or more drops, and
    # stopped rows are still carried after the last step
    coeffs = mixed_coeffs(d, 0.2, 0.3)
    g = build_grid(0.25, 40)
    ps, sizes = carried_rows(coeffs, g, Domain.box([88.0] * d, [112.0] * d),
                             sample_noise(12, 100, g, d, 1), [100.0] * d, shift)
    running = [int((ps.exit_index > i).sum()) for i in range(g.N)]
    assert len(sizes) == g.N and sizes[0] == 100
    assert all(carried >= run for carried, run in zip(sizes, running))
    assert sum(b < a for a, b in zip(sizes, sizes[1:])) >= 3  # drops
    assert sizes != running  # some step carried stopped rows
    survivors = int((~ps.exit_detected).sum())
    assert 0 < sizes[-1] - survivors <= bdsde.forward._DROP_SHARE * sizes[-1]


def test_a_stopped_path_stops_once():
    # a stopped row holds x0, which passed the start test.  A sigma whose
    # value at x0 depends on the other rows of the call, as the rounding of
    # a batched product may, can fail x0 in a later test; that test must
    # not stop the path again
    base, x0 = gbm_coeffs(), 100.0

    def sigma(x):
        s = base.sigma(x)
        at_start = (x == x0).all(axis=-1)
        if not at_start.all():
            s[at_start] = 1e6
        return s

    g = build_grid(0.25, 40)
    ps, sizes = carried_rows(dataclasses.replace(base, sigma=sigma), g, Domain.box([90.0], [110.0]),
                             sample_noise(31, 1000, g, 1, 1), [x0], True)
    assert ps.exit_detected.any() and sizes != [1000] * g.N


def recording(coeffs, calls):
    """coeffs whose b and sigma append (name, a copy of x) to calls."""
    def record(name, fn):
        return lambda x: calls.append((name, np.array(x))) or fn(x)

    return dataclasses.replace(coeffs, b=record("b", coeffs.b),
                               sigma=record("sigma", coeffs.sigma))


def off_start(rows, x0):
    return rows[(rows != x0).any(axis=-1)]


@pytest.mark.parametrize("shift", [True, False])
@pytest.mark.parametrize("case", ["d1-box", "d1-all-exit", "d2-box", "d2-corner-ties"])
def test_coefficients_see_running_states_and_the_start_only(case, shift):
    # b at step i sees x_i and sigma x_i or x_{i+1} of the paths that take
    # step i, in path order, and x0 in every other row: never the state of
    # a path that stopped at an earlier step.  With the shift on, the exit
    # test's sigma(x_{i+1}) serves step i+1's Euler update, so sigma is
    # called once per carried row and step, plus the start test and step
    # 0's Euler update
    coeffs, dom, x0 = _FORWARD_CASES[case]
    x0 = np.asarray(x0, dtype=np.float64)
    g = build_grid(0.25, 40)
    calls = []
    ps = simulate_stopped(recording(coeffs, calls), g, dom, sample_noise(31, 1000, g, coeffs.d, 1),
                          x0, shift_enabled=shift, keep_steps=True)
    assert ps.exit_detected.any()
    if shift:
        name, rows = calls.pop(0)
        assert name == "sigma" and same_bytes(rows, x0[None, :])
    b_rows = [rows for name, rows in calls if name == "b"]
    steps = len(b_rows)
    # (name, whether the call reads x_i rather than the exit test's x_{i+1})
    per_step = ([("b", True), ("sigma", True)] * steps if not shift
                else [("b", True), ("sigma", True), ("sigma", False)]
                + [("b", True), ("sigma", False)] * (steps - 1))
    assert [name for name, _ in calls] == [name for name, _ in per_step]
    i = -1
    for (name, rows), (_, euler) in zip(calls, per_step):
        i += name == "b"
        running = ps.at(i if euler else i + 1)[ps.exit_index > i]
        assert rows.shape[0] >= running.shape[0]
        assert np.array_equal(off_start(rows, x0), off_start(running, x0)), (name, i)
        if shift and name == "sigma" and not euler:
            assert rows.shape[0] == b_rows[i].shape[0]
    sigma_rows = sum(rows.shape[0] for name, rows in calls if name == "sigma")
    assert sigma_rows == (ps.M if shift else 0) + sum(r.shape[0] for r in b_rows)
    assert steps == (g.N if case != "d1-all-exit" else ps.exit_index.max())


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
def test_start_stops_at_t0_exactly_within_the_shift(d, lo, span, frac, vol, N, shift):
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
    dist, axis = dom.nearest_face(x0[None, :])
    width = shift_width(axis, x0[None, :], coeffs, g.h)[0]
    ps = simulate_stopped(coeffs, g, dom, nb, x0, shift_enabled=shift)
    assert (ps.exit_index == 0).all() == (shift and dist[0] <= width)


# --------------- first order of the shifted exit test, closed form ---------- #

def brownian_mean_exit(d, T, K=500):
    """E[tau ^ T] for a standard Brownian motion from 0 in (-1, 1)^d, d <= 2.

    In 1-d the survival function is S(t) = sum_k c_k exp(-lam_k t) with
    c_k = 4 (-1)^k / (pi (2k+1)) and lam_k = (2k+1)^2 pi^2 / 8.  The
    coordinates exit independently, so the square survives with S(t)^2.
    E[tau ^ T] integrates the survival function over [0, T]."""
    k = np.arange(K)
    c, lam = 4.0 * (-1.0) ** k / (np.pi * (2 * k + 1)), (2 * k + 1) ** 2 * np.pi ** 2 / 8
    if d == 2:
        c, lam = np.outer(c, c), np.add.outer(lam, lam)
    return float(np.sum(c * -np.expm1(-lam * T) / lam))


def mean_exit_bias(d, T, N, M, seed, shift):
    """Bias of the mean discrete exit time tau_N ^ T against the closed form.

    |X_i|^2 - d t_i is a martingale of the driftless unit-volatility Euler
    walk, so by optional stopping Q = |X_tau|^2 - d tau_N has mean 0 exactly,
    whatever the stopping rule; as a control variate it cuts the variance of
    the mean 2-5 fold."""
    g = build_grid(T, N)
    coeffs = CoefficientSet(
        d=d, k=1, l=1,
        b=lambda x: np.zeros_like(x),
        sigma=lambda x: np.broadcast_to(np.eye(d), x.shape + (d,)),
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: x[:, :1],
    )
    ps = simulate_stopped(coeffs, g, Domain.box([-1.0] * d, [1.0] * d),
                          sample_noise(seed, M, g, d, 1), [0.0] * d,
                          shift_enabled=shift)
    tau = ps.exit_time
    q = np.sum(ps.exit_state ** 2, axis=-1) - d * tau
    beta = np.cov(tau, q)[0, 1] / np.var(q, ddof=1)
    return float(np.mean(tau - beta * q)) - brownian_mean_exit(d, T)


def test_brownian_mean_exit_closed_form():
    assert abs(brownian_mean_exit(1, 1.0) - 0.699455) < 1e-6
    assert abs(brownian_mean_exit(2, 0.5) - 0.398221) < 1e-6


@pytest.mark.parametrize("d, T, Ns, M", [(1, 1.0, (10, 20, 40), 65536),
                                         (2, 0.5, (5, 10, 20), 32768)])
def test_shifted_exit_test_is_first_order(d, T, Ns, M):
    # Fitted log-log slope of the bias against h.  Over 40 seed sets the
    # shifted fit gave 1.00 +- 0.10 in 1-d and 1.01 +- 0.09 in 2-d (ranges
    # 0.87-1.27 and 0.82-1.25), the unshifted one 0.47 +- 0.008 and
    # 0.46 +- 0.009; the bands sit 4 seed-sds from the shifted mean and
    # about 10 from the unshifted one, and do not overlap
    order = {}
    for shift in (True, False):
        bias = [mean_exit_bias(d, T, N, M, seed=N, shift=shift) for N in Ns]
        assert min(bias) > 0, (shift, bias)      # discrete tests see exits late
        order[shift] = np.polyfit(np.log(T / np.array(Ns)), np.log(bias), 1)[0]
    print(f"d={d}: fitted exit-time order {order[True]:.3f} shifted, "
          f"{order[False]:.3f} unshifted")
    assert 0.6 < order[True] < 1.4, order
    assert 0.38 < order[False] < 0.55, order
