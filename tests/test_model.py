"""Grid, domain, coefficient and noise-layer contracts, and the package
export list."""

import tracemalloc

import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import example, given, settings
from scipy.special import ndtri

import bdsde
from bdsde import model
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


def reference_gaussians(seed, stream, start, count):
    """The word-to-Gaussian mapping written out with its temporaries:
    u = ((w >> 11) + 0.5) * 2^-53, then the inverse normal CDF."""
    block, offset = divmod(start, 4)
    bg = np.random.Philox(key=seed + (stream << 64), counter=block)
    raw = bg.random_raw(offset + count)[offset:]
    return ndtri(((raw >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       stream=st.sampled_from([_FORWARD_STREAM, _BACKWARD_STREAM]),
       start=st.integers(0, 2 ** 40), count=st.integers(1, 600))
@example(seed=0, stream=_FORWARD_STREAM, start=3, count=1)
@example(seed=2 ** 64 - 1, stream=_BACKWARD_STREAM, start=4 * 2 ** 38 + 1, count=7)
def test_gaussian_words_equal_the_reference_transform(seed, stream, start, count):
    got = _gaussian_words(seed, stream, start, count)
    assert got.tobytes() == reference_gaussians(seed, stream, start, count).tobytes()


def test_generator_random_reads_the_same_philox_words():
    key = 12345 + (_BACKWARD_STREAM << 64)
    raw = np.random.Philox(key=key, counter=7).random_raw(1001)
    u = np.random.Generator(np.random.Philox(key=key, counter=7)).random(1001)
    assert u.tobytes() == ((raw >> np.uint64(11)).astype(np.float64) * 2.0 ** -53).tobytes()


def test_half_ulp_offset_rounds_like_the_reference_on_crafted_words():
    # no key is known to emit these words, so the two float steps of the fill
    # (Generator.random's k * 2^-53, then + 2^-54) are applied to them directly;
    # k = w >> 11 sits where k + 0.5 stops being exact (2^52) and at the top
    k = np.array([0, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 1], dtype=np.uint64)
    words = (k << np.uint64(11)) | np.uint64(2 ** 11 - 1)  # the low bits are dropped
    ref = ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)
    u = (words >> np.uint64(11)).astype(np.float64) * 2.0 ** -53
    u += 2.0 ** -54
    assert ndtri(u).tobytes() == ref.tobytes()
    assert np.isfinite(ref[:-1]).all() and ref[-1] == np.inf  # top k rounds to u = 1


def test_chunked_noise_equals_one_shot_draw():
    # 8195 * 256 words = 8 chunks of 2^18 plus a ragged tail of 768
    g = build_grid(1.0, 256)
    nb = sample_noise(5, 8195, g, 1, 1)
    whole = _gaussian_words(5, _FORWARD_STREAM, 0, 8195 * 256) * np.sqrt(g.h)
    assert nb.forward.shape == (8195, 256, 1)
    assert nb.forward.tobytes() == whole.tobytes()


@pytest.mark.parametrize("M, N, d, l", [(8195, 256, 1, 1), (3001, 100, 3, 2)])
def test_noise_bytes_do_not_depend_on_the_worker_count(monkeypatch, M, N, d, l):
    # the stand-in records its size and is the real pool, so chunks are
    # filled concurrently, up to 8 threads on however many CPUs there are
    sizes = []

    class RecordingPool(model.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(model, "ThreadPoolExecutor", RecordingPool)
    g = build_grid(1.0, N)
    words = M * N * d
    chunks = -(-words // model._CHUNK_WORDS)
    assert chunks > 2 and words % model._CHUNK_WORDS  # a ragged tail
    fwd = (reference_gaussians(5, _FORWARD_STREAM, 0, words) * np.sqrt(g.h)).tobytes()
    bwd = (reference_gaussians(5, _BACKWARD_STREAM, 0, N * l) * np.sqrt(g.h)).tobytes()
    for cpus in (None, 1, 2, 8):
        monkeypatch.setattr(model.os, "cpu_count", lambda: cpus)
        nb = sample_noise(5, M, g, d, l)
        assert nb.forward.tobytes() == fwd and nb.backward.tobytes() == bwd
    # one worker (no CPU count, 1 CPU, or one chunk even with 8 CPUs) fills
    # in the calling thread: no pool starts
    small = sample_noise(5, 64, g, d, l)
    assert small.forward.tobytes() == fwd[:small.forward.nbytes]
    assert sizes == [2, min(chunks, 8)]


def test_noise_temporaries_do_not_scale_with_the_draw():
    # 16384 * 256 words = 32 MB of forward noise, transformed in place: what
    # is left is a generator and a few small objects per chunk
    g = build_grid(1.0, 256)
    tracemalloc.start()
    try:
        nb = sample_noise(1, 16384, g, 1, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - nb.forward.nbytes - nb.backward.nbytes <= 2 ** 20


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
