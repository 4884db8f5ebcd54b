"""Grid, domain, coefficient and noise-layer contracts, and the package
export list."""

import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

import bdsde
from bdsde import (
    CoefficientSet,
    Domain,
    EvaluationError,
    InvalidParameterError,
    build_grid,
    sample_noise,
)
from bdsde.model import _BACKWARD_STREAM, _FORWARD_STREAM, _gaussian_words


# ------------------------------ time grid --------------------------------- #

def test_grid_reference_case():
    g = build_grid(0.25, 20)
    assert g.h == pytest.approx(0.0125, abs=0)
    assert g.times[20] == 0.25  # endpoint exact, no accumulation drift
    assert g.times[0] == 0.0
    assert np.all(np.abs(np.diff(g.times) - g.h) < 1e-15)


def test_grid_single_step_and_refinement():
    g1 = build_grid(1.0, 1)
    assert list(g1.times) == [0.0, 1.0]
    g2 = build_grid(0.25, 40)
    assert g2.h == pytest.approx(0.00625)
    assert g2.times[40] == 0.25


def test_grid_rejects_bad_parameters():
    with pytest.raises(InvalidParameterError):
        build_grid(0.0, 10)
    with pytest.raises(InvalidParameterError):
        build_grid(-1.0, 10)
    with pytest.raises(InvalidParameterError):
        build_grid(1.0, 0)


def test_index_of():
    g = build_grid(0.25, 20)
    assert g.index_of(g.times[15]) == 15
    with pytest.raises(InvalidParameterError):
        g.index_of(0.013)


# -------------------------------- domain ---------------------------------- #

def test_box_membership_is_open():
    dom = Domain.box([60.0], [200.0])
    x = np.array([[60.0], [60.0001], [130.0], [200.0], [250.0]])
    assert list(dom.contains(x)) == [False, True, True, False, False]


def test_whole_space_distance_infinite():
    dom = Domain.whole_space(2)
    x = np.array([[1.0, -3.0]])
    assert dom.contains(x).all()
    assert np.isinf(dom.nearest_face(x)[0]).all()


def test_whole_space_is_the_box_with_infinite_bounds():
    ws = Domain.whole_space(2)
    assert ws.is_whole_space and not Domain.box([0.0, 0.0], [1.0, 1.0]).is_whole_space
    assert (ws.lower == -np.inf).all() and (ws.upper == np.inf).all()
    # the box formulas: every finite point is inside, a non-finite one is not
    x = np.array([[1e308, -1e308], [np.inf, 0.0], [0.0, np.nan]])
    assert list(ws.contains(x)) == [True, False, False]
    # every face gap is +inf, so the strict scan never moves off face 0
    dist, axis = ws.nearest_face(x[:1])
    assert dist[0] == np.inf and axis[0] == 0


def test_boundary_distance_and_normal_2d():
    dom = Domain.box([0.0, 0.0], [10.0, 4.0])
    x = np.array([[1.0, 2.0], [9.5, 2.0], [5.0, 3.9], [5.0, 0.5]])
    dist, axis = dom.nearest_face(x)
    assert dist == pytest.approx([1.0, 0.5, 0.1, 0.5])
    # near the lower x-face, the upper x-face, the upper and the lower y-face
    assert list(axis) == [0, 0, 1, 1]
    assert dom.nearest_face(np.array([[-1.0, 2.0], [5.0, 4.5]]))[0] == pytest.approx([-1.0, -0.5])


def test_corner_tie_breaks_to_lowest_coordinate():
    dom = Domain.box([0.0, 0.0], [4.0, 4.0])
    assert dom.nearest_face(np.array([[1.0, 1.0]]))[1][0] == 0  # equidistant corner
    # dead centre: every face ties, lower face of coordinate 0 wins
    assert dom.nearest_face(np.array([[2.0, 2.0]]))[1][0] == 0
    # lower faces come first: the lower y-face beats the tied upper x-face
    assert dom.nearest_face(np.array([[3.0, 1.0]]))[1][0] == 1


@settings(max_examples=200, deadline=None)
@given(d=st.integers(1, 3), data=st.data())
def test_nearest_face_matches_the_concatenated_scan(d, data):
    # a coarse lattice makes ties between faces common
    coords = st.integers(-2, 10).map(float)
    x = np.array(data.draw(st.lists(st.lists(coords, min_size=d, max_size=d),
                                    min_size=1, max_size=20)))
    dom = Domain.box([0.0] * d, [float(data.draw(st.integers(1, 8)))] * d)
    gaps = np.concatenate([x - dom.lower, dom.upper - x], axis=-1)
    dist, axis = dom.nearest_face(x)
    assert np.array_equal(dist, np.min(gaps, axis=-1))
    assert np.array_equal(axis, np.argmin(gaps, axis=-1) % d)


def test_domain_and_grid_compare_by_identity():
    for make in (lambda: Domain.box([0.0, 0.0], [1.0, 1.0]),
                 lambda: Domain.whole_space(2), lambda: build_grid(0.25, 4)):
        a, b = make(), make()
        assert a == a and a != b
        assert len({a, b, a}) == 2


def test_box_rejects_bad_bounds():
    with pytest.raises(InvalidParameterError):
        Domain.box([1.0], [1.0])
    with pytest.raises(InvalidParameterError):
        Domain.box([0.0, 5.0], [1.0, 2.0])


# ----------------------------- coefficients -------------------------------- #

def _gbm_coeffs():
    return CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: 0.05 * x,
        sigma=lambda x: 0.2 * x[..., None],
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: 115.0 - x,
    )


def test_coefficient_shapes_checked():
    c = _gbm_coeffs()
    x = np.full((5, 1), 100.0)
    assert c.eval_b(x).shape == (5, 1)
    assert c.eval_sigma(x).shape == (5, 1, 1)
    assert c.eval_phi(0.25, x).shape == (5, 1)
    bad = CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: x[..., 0],  # drops the coordinate axis
        sigma=lambda x: 0.2 * x[..., None],
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: 115.0 - x,
    )
    with pytest.raises(EvaluationError, match="b"):
        bad.eval_b(x)


@pytest.mark.filterwarnings("ignore:invalid value encountered in log")
def test_non_finite_evaluation_is_lazy_error():
    c = CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: np.log(x),  # non-finite at x <= 0 only
        sigma=lambda x: x[..., None],
        f=lambda t, x, y, z: np.zeros_like(y),
        phi=lambda t, x: -x,
    )
    assert np.isfinite(c.eval_b(np.array([[2.0]]))).all()
    with pytest.raises(EvaluationError, match=r"b returned a non-finite value at index \(1, 0\)"):
        c.eval_b(np.array([[2.0], [-1.0]]))


def test_missing_g_is_an_error():
    c = _gbm_coeffs()
    with pytest.raises(InvalidParameterError):
        c.eval_g(0.0, np.zeros((2, 1)), np.zeros((2, 1)), np.zeros((2, 1, 1)))


# -------------------------------- noise ------------------------------------ #

def test_noise_determinism_and_seed_sensitivity():
    g = build_grid(0.25, 20)
    a = sample_noise(42, 64, g, 1, 1)
    b = sample_noise(42, 64, g, 1, 1)
    c = sample_noise(43, 64, g, 1, 1)
    assert np.array_equal(a.forward, b.forward)
    assert np.array_equal(a.backward, b.backward)
    assert not np.array_equal(a.forward, c.forward)
    assert not np.array_equal(a.backward, c.backward)


def forward_increment(nb, m, i):
    """dB[m, i] regenerated from its own words of the (m, i, coordinate)
    layout on the forward stream."""
    start = (m * nb.grid.N + i) * nb.d
    return _gaussian_words(nb.seed, _FORWARD_STREAM, start, nb.d) * np.sqrt(nb.grid.h)


def backward_increment(nb, i):
    """dW[i] regenerated from its own words of the (i, coordinate) layout on
    the backward stream."""
    return _gaussian_words(nb.seed, _BACKWARD_STREAM, i * nb.l, nb.l) * np.sqrt(nb.grid.h)


def test_noise_isolated_regeneration_bit_exact():
    g = build_grid(0.5, 8)
    nb = sample_noise(2024, 37, g, 3, 2)
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = int(rng.integers(0, 37))
        i = int(rng.integers(0, 8))
        assert np.array_equal(forward_increment(nb, m, i), nb.forward[m, i])
    for i in range(8):
        assert np.array_equal(backward_increment(nb, i), nb.backward[i])


def test_chunked_noise_equals_one_shot_draw():
    # 8195 * 256 words = 2 chunks of 2^20 plus a ragged tail of 768
    g = build_grid(1.0, 256)
    nb = sample_noise(5, 8195, g, 1, 1)
    whole = _gaussian_words(5, _FORWARD_STREAM, 0, 8195 * 256) * np.sqrt(g.h)
    assert nb.forward.shape == (8195, 256, 1)
    assert nb.forward.tobytes() == whole.tobytes()


def test_noise_temporaries_do_not_scale_with_the_draw():
    # 16384 * 256 words = 32 MB of forward noise; a one-shot draw holds
    # twice that in temporaries, the chunked one a fixed ~24 MB
    g = build_grid(1.0, 256)
    tracemalloc.start()
    try:
        nb = sample_noise(1, 16384, g, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - nb.forward.nbytes - nb.backward.nbytes <= 32 * 2 ** 20


def test_backward_path_independent_of_path_count():
    g = build_grid(0.25, 20)
    small = sample_noise(9, 4, g, 2, 3)
    big = sample_noise(9, 4000, g, 2, 3)
    assert np.array_equal(small.backward, big.backward)


def test_noise_moments():
    # law-of-large-numbers band: per-step mean within 4*sqrt(h/M) of zero,
    # per-step variance within 5% of h
    g = build_grid(0.25, 20)
    nb = sample_noise(123, 100_000, g, 1, 1)
    band = 4.0 * np.sqrt(g.h / 100_000)
    assert np.abs(nb.forward.mean(axis=0)).max() < band
    v = nb.forward.var(axis=0, ddof=1)
    assert np.abs(v / g.h - 1.0).max() < 0.05


def test_noise_rejects_bad_arguments():
    g = build_grid(0.25, 20)
    with pytest.raises(InvalidParameterError):
        sample_noise(1, 0, g, 1, 1)
    with pytest.raises(InvalidParameterError):
        sample_noise(-1, 4, g, 1, 1)
    with pytest.raises(InvalidParameterError):
        sample_noise(1, 4, g, 0, 1)


def test_with_backward_injects_and_validates():
    g = build_grid(0.25, 4)
    nb = sample_noise(5, 3, g, 1, 1)
    w = np.full((4, 1), 0.5)
    nb2 = nb.with_backward(w)
    assert np.array_equal(nb2.backward, w)
    assert np.array_equal(nb2.forward, nb.forward)
    with pytest.raises(InvalidParameterError):
        nb.with_backward(np.zeros((3, 1)))


# ------------------------------- exports ----------------------------------- #

def test_package_exports_the_union_of_submodule_all():
    modules = (bdsde.model, bdsde.forward, bdsde.regression, bdsde.solver,
               bdsde.oracles, bdsde.experiments)
    assert bdsde.__all__ == sorted(set().union(*(m.__all__ for m in modules)))
    for name in bdsde.__all__:
        owner = next(m for m in modules if name in m.__all__)
        assert getattr(bdsde, name) is getattr(owner, name), name
    assert {"fit_cells", "gather"} <= set(bdsde.__all__)
