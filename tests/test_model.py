"""Grid, domain, coefficient and noise-layer contracts, and the package
export list."""

import dataclasses
import sys
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
    SolverConfig,
    backward_induction,
    build_grid,
    build_partition,
    lsq_oracle,
    midpoint_lattice,
    project,
    sample_noise,
    simulate_stopped,
    solve,
    spde_point,
    strong_error,
    transform_to_bsde,
)
from bdsde.model import _BACKWARD_STREAM, _FORWARD_STREAM, _fill_gaussians


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


@settings(max_examples=300, deadline=None)
@given(T=st.floats(1e-6, 1e6), N=st.integers(1, 5000))
@example(T=0.1, N=3)  # (3 * 0.1) / 3 is 1 ulp above 0.1
def test_grid_ends_exactly_at_T(T, N):
    g = build_grid(T, N)
    assert g.times[0] == 0.0 and g.times[N] == T
    assert g.index_of(T) == N and np.all(np.diff(g.times) > 0)


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
    for t in (0.013, np.nan, np.inf, -np.inf):
        with pytest.raises(InvalidParameterError, match="not a grid time"):
            g.index_of(t)


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


def _small_solve():
    g = build_grid(0.25, 4)
    c = CoefficientSet(d=2, k=1, l=1, b=lambda x: 0.05 * x,
                       sigma=lambda x: 0.2 * x[..., :, None] * np.eye(2),
                       f=lambda t, x, y, z: -0.01 * y, phi=lambda t, x: x[:, :1],
                       g=lambda t, x, y, z: 0.1 * y[..., None])
    return solve(c, g, Domain.box([90.0, 90.0], [110.0, 110.0]), sample_noise(3, 64, g, 2, 1),
                 [100.0, 100.0], build_partition([90.0, 90.0], [110.0, 110.0], 5.0),
                 SolverConfig(mode="bdsde-random-terminal"))


_CELLS = np.array([0, 1, 1, -1])
_ARRAY_HOLDERS = {
    "BackwardSolution": _small_solve,
    "SolverDiagnostics": lambda: _small_solve().diagnostics,
    "PathSet": lambda: _small_solve().paths,
    "NoiseBundle": lambda: sample_noise(3, 64, build_grid(0.25, 4), 2, 1),
    "HypercubePartition": lambda: build_partition([0.0, 0.0], [1.0, 1.0], 0.5),
    "FitPlan": lambda: bdsde.regression.fit_plan(build_partition([0.0], [1.0], 0.5), _CELLS),
    "CellFunction": lambda: project(build_partition([0.0], [1.0], 0.5),
                                    np.array([[0.2], [0.7], [0.8], [1.5]]), np.ones((4, 1))),
}


@pytest.mark.parametrize("name", sorted(_ARRAY_HOLDERS))
def test_array_holders_compare_by_identity(name):
    # equal-valued instances compare unequal instead of comparing their
    # arrays, which raises, and each one hashes
    a, b = _ARRAY_HOLDERS[name](), _ARRAY_HOLDERS[name]()
    assert type(a).__name__ == name
    assert a == a and a != b
    assert len({a, b, a}) == 2


def test_box_rejects_bad_bounds():
    with pytest.raises(InvalidParameterError):
        Domain.box([1.0], [1.0])
    with pytest.raises(InvalidParameterError):
        Domain.box([0.0, 5.0], [1.0, 2.0])
    with pytest.raises(InvalidParameterError, match=r"upper bounds must have shape \(2,\)"):
        Domain.box([0.0, 0.0], [1.0])
    with pytest.raises(InvalidParameterError, match="finite"):
        Domain.box([0.0], [np.inf])
    with pytest.raises(InvalidParameterError, match="lower < upper"):
        Domain.box([], [])  # no dimension


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


def test_no_coefficient_call_on_zero_rows():
    def refuse(*args):
        raise AssertionError("coefficient called on zero rows")

    c = CoefficientSet(d=2, k=3, l=4, b=refuse, sigma=refuse, f=refuse, phi=refuse, g=refuse)
    x, y, z = np.zeros((0, 2)), np.zeros((0, 3)), np.zeros((0, 3, 2))
    for out, shape in ((c.eval_b(x), (0, 2)), (c.eval_sigma(x), (0, 2, 2)),
                       (c.eval_f(0.0, x, y, z), (0, 3)), (c.eval_g(0.0, x, y, z), (0, 3, 4)),
                       (c.eval_phi(np.zeros(0), x), (0, 3))):
        assert out.shape == shape and out.dtype == np.float64


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


def gaussian_words(seed, stream, start, count):
    """``count`` Gaussians from word positions start..start+count-1."""
    return _fill_gaussians(np.empty(count), seed, stream, start)


def forward_increment(nb, m, i):
    """dB[i, m] regenerated from its own words of the path-major
    (m, i, coordinate) numbering on the forward stream."""
    start = (m * nb.grid.N + i) * nb.d
    return gaussian_words(nb.seed, _FORWARD_STREAM, start, nb.d) * np.sqrt(nb.grid.h)


def backward_increment(nb, i):
    """dW[i] regenerated from its own words of the (i, coordinate) layout on
    the backward stream."""
    return gaussian_words(nb.seed, _BACKWARD_STREAM, i * nb.l, nb.l) * np.sqrt(nb.grid.h)


def test_noise_isolated_regeneration_bit_exact():
    g = build_grid(0.5, 8)
    nb = sample_noise(2024, 37, g, 3, 2)
    rng = np.random.default_rng(0)
    for _ in range(25):
        m = int(rng.integers(0, 37))
        i = int(rng.integers(0, 8))
        assert np.array_equal(forward_increment(nb, m, i), nb.forward[i, m])
    for i in range(8):
        assert np.array_equal(backward_increment(nb, i), nb.backward[i])


def reference_transform(words):
    """The word-to-Gaussian mapping written out with its temporaries:
    u = ((w >> 11) + 0.5) * 2^-53, then the inverse normal CDF."""
    return ndtri(((words >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53)


def reference_gaussians(seed, stream, start, count):
    """reference_transform of the Philox words start..start+count-1."""
    block, offset = divmod(start, 4)
    bg = np.random.Philox(key=seed + (stream << 64), counter=block)
    return reference_transform(bg.random_raw(offset + count)[offset:])


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 64 - 1),
       stream=st.sampled_from([_FORWARD_STREAM, _BACKWARD_STREAM]),
       start=st.integers(0, 2 ** 40), count=st.integers(1, 600))
@example(seed=0, stream=_FORWARD_STREAM, start=3, count=1)
@example(seed=2 ** 64 - 1, stream=_BACKWARD_STREAM, start=4 * 2 ** 38 + 1, count=7)
def test_gaussian_words_equal_the_reference_transform(seed, stream, start, count):
    got = gaussian_words(seed, stream, start, count)
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


def test_fill_keeps_the_top_word_finite(monkeypatch):
    # a stand-in generator hands the fill Generator.random's k * 2^-53 for
    # crafted k = w >> 11; only the top k, which rounds to u = 1, is clamped
    k = np.array([0, 2 ** 52 - 1, 2 ** 52, 2 ** 52 + 1, 2 ** 53 - 1], dtype=np.uint64)

    class CraftedGenerator:
        def __init__(self, bit_generator):
            pass

        def random(self, out):
            out[:] = k.astype(np.float64) * 2.0 ** -53

    monkeypatch.setattr(np.random, "Generator", CraftedGenerator)
    got = _fill_gaussians(np.empty(k.size), 0, _FORWARD_STREAM, 0)
    assert np.isfinite(got).all()
    assert got[:-1].tobytes() == reference_transform(k[:-1] << np.uint64(11)).tobytes()
    assert got[-1] == ndtri(1.0 - 2.0 ** -53)


def time_major(words, M, N, d):
    """Path-major words (m, i, coordinate) as the time-major (N, M, d) bytes."""
    return words.reshape(M, N, d).transpose(1, 0, 2).tobytes()


def test_chunked_backward_noise_equals_one_shot_draw(monkeypatch):
    # an 8-word scratch on one CPU: the 25 * 3 backward words, one path,
    # are longer than a chunk and so a chunk of their own; 3-word forward
    # paths go 2 to a chunk, the last of the 4 chunks ragged
    monkeypatch.setattr(model, "_SCRATCH_WORDS", 8)
    monkeypatch.setattr(model, "_cpus", lambda: 1)
    g = build_grid(1.0, 25)
    nb = sample_noise(11, 7, dataclasses.replace(g, times=g.times[:2]), 3, 3)
    whole = reference_gaussians(11, _FORWARD_STREAM, 0, 7 * 3) * np.sqrt(g.h)
    assert nb.forward.tobytes() == time_major(whole, 7, 1, 3)
    nb = sample_noise(11, 2, g, 1, 3)
    whole = reference_gaussians(11, _BACKWARD_STREAM, 0, 25 * 3) * np.sqrt(g.h)
    assert nb.backward.shape == (25, 3)
    assert nb.backward.tobytes() == whole.tobytes()


def test_chunked_noise_equals_one_shot_draw():
    # 8195 paths of 256 words: chunks of whole paths, the last one ragged
    # (8195 is odd), written transposed into the time-major bundle
    g = build_grid(1.0, 256)
    nb = sample_noise(5, 8195, g, 1, 1)
    whole = gaussian_words(5, _FORWARD_STREAM, 0, 8195 * 256) * np.sqrt(g.h)
    assert nb.forward.shape == (256, 8195, 1)
    assert nb.forward.tobytes() == time_major(whole, 8195, 256, 1)


def test_zero_step_grid_draws_empty_noise():
    # a tail grid at t_n = T, as spde_point draws it, holds no step
    g = build_grid(0.25, 4)
    nb = sample_noise(3, 5, dataclasses.replace(g, times=g.times[4:]), 2, 3)
    assert nb.forward.shape == (0, 5, 2) and nb.backward.shape == (0, 3)


@pytest.mark.parametrize("M, N, d, l", [(8195, 256, 1, 1), (3001, 100, 3, 2)])
def test_noise_bytes_do_not_depend_on_the_worker_count(monkeypatch, M, N, d, l):
    # the stand-in records its size and is the real pool, so chunks are
    # filled concurrently into column blocks of one shared array, up to 8
    # threads on however many CPUs there are; a 1 us switch interval makes
    # the threads interleave as finely as the interpreter allows
    sizes = []

    class RecordingPool(model.ThreadPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

    monkeypatch.setattr(model, "ThreadPoolExecutor", RecordingPool)
    g = build_grid(1.0, N)
    words = M * N * d
    paths = model._SCRATCH_WORDS // (8 * N * d)   # per chunk with 8 workers
    chunks = -(-M // paths)
    assert chunks >= 16 and M % paths  # a ragged tail
    assert M % (model._SCRATCH_WORDS // (2 * N * d))   # with 2 workers too
    fwd = reference_gaussians(5, _FORWARD_STREAM, 0, words) * np.sqrt(g.h)
    bwd = (reference_gaussians(5, _BACKWARD_STREAM, 0, N * l) * np.sqrt(g.h)).tobytes()
    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for cpus in (1, 2, 8):
            monkeypatch.setattr(model, "_cpus", lambda: cpus)
            nb = sample_noise(5, M, g, d, l)
            assert nb.forward.tobytes() == time_major(fwd, M, N, d)
            assert nb.backward.tobytes() == bwd
    finally:
        sys.setswitchinterval(switch)
    # one worker (1 CPU, or one chunk even with 8 CPUs) fills in the calling
    # thread: no pool starts
    small = sample_noise(5, 16, g, d, l)
    assert small.forward.tobytes() == time_major(fwd[:16 * N * d], 16, N, d)
    assert sizes == [1, 7]


def test_noise_temporaries_do_not_scale_with_the_draw():
    # 16384 * 256 words = 32 MB of forward noise, filled through scratch
    # blocks of at most 2^16 words (512 KB) for all workers together: what
    # is left is the scratch, a generator and a few small objects per chunk
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
    assert np.abs(nb.forward.mean(axis=1)).max() < band
    v = nb.forward.var(axis=1, ddof=1)
    assert np.abs(v / g.h - 1.0).max() < 0.05


def test_noise_rejects_bad_arguments():
    g = build_grid(0.25, 20)
    with pytest.raises(InvalidParameterError):
        sample_noise(1, 0, g, 1, 1)
    with pytest.raises(InvalidParameterError):
        sample_noise(-1, 4, g, 1, 1)
    with pytest.raises(InvalidParameterError):
        sample_noise(1, 4, g, 0, 1)
    with pytest.raises(InvalidParameterError):
        sample_noise(2 ** 64, 4, g, 1, 1)
    assert sample_noise(2 ** 64 - 1, 4, g, 1, 1).seed == 2 ** 64 - 1


def test_noise_bundle_refuses_arrays_that_do_not_fit_it():
    nb = sample_noise(1, 8, build_grid(0.25, 4), 1, 1)
    for swap in (dict(backward=nb.backward[1:]),
                 dict(backward=np.zeros((4, 2))),
                 dict(forward=nb.forward[1:])):
        with pytest.raises(InvalidParameterError, match="noise must have shape"):
            dataclasses.replace(nb, **swap)
    w = np.ones((4, 1))
    assert dataclasses.replace(nb, backward=w).backward is w


# ----------------------------- whole numbers ------------------------------- #

def _dims(**dims) -> CoefficientSet:
    unused = lambda *args: None
    return CoefficientSet(**{"d": 1, "k": 1, "l": 1, **dims},
                          b=unused, sigma=unused, f=unused, phi=unused)


# every count argument: its floor, and a call that reads back the stored value
_COUNT_SITES = {
    "build_grid N": (1, lambda v: build_grid(1.0, v).N),
    "CoefficientSet d": (1, lambda v: _dims(d=v).d),
    "CoefficientSet k": (1, lambda v: _dims(k=v).k),
    "CoefficientSet l": (1, lambda v: _dims(l=v).l),
    "sample_noise M": (1, lambda v: sample_noise(1, v, build_grid(1.0, 2), 1, 1).M),
    "sample_noise seed": (0, lambda v: sample_noise(v, 1, build_grid(1.0, 2), 1, 1).seed),
    "sample_noise d": (1, lambda v: sample_noise(1, 1, build_grid(1.0, 2), v, 1).d),
    "sample_noise l": (1, lambda v: sample_noise(1, 1, build_grid(1.0, 2), 1, v).l),
    "Domain.whole_space d": (1, lambda v: Domain.whole_space(v).d),
    "SolverConfig picard_iterations":
        (0, lambda v: SolverConfig("bsde", picard_iterations=v).picard_iterations),
    "midpoint_lattice count": (1, lambda v: len(midpoint_lattice(Domain.box([0.0], [1.0]), v))),
}


@pytest.mark.parametrize("site", sorted(_COUNT_SITES))
def test_every_count_argument_is_a_whole_number(site):
    floor, stored = _COUNT_SITES[site]
    for bad in (np.nan, np.inf, -np.inf, 1.5, "3", 10 ** 400, floor - 1, True, False):
        with pytest.raises(InvalidParameterError, match="whole number"):
            stored(bad)
    out = stored(2.0)
    assert type(out) is int and out == 2


# ------------------------------ array shapes -------------------------------- #

# one small problem on [60, 200): 8 paths, 4 steps
_BOX = ([60.0], [200.0])


def _shape_noise():
    return sample_noise(1, 8, build_grid(0.25, 4), 1, 1)


def _strong_error(**refs):
    nb = _shape_noise()
    sol = solve(_gbm_coeffs(), nb.grid, Domain.box(*_BOX), nb, [100.0],
                build_partition(*_BOX, 20.0), SolverConfig("bsde"))
    return strong_error(sol, **{"reference_y": lambda t, x: np.zeros((len(x), 1)),
                                "reference_z": lambda t, x: np.zeros((len(x), 1, 1)), **refs})


def _spde_point(points=((100.0,),), wpath=np.zeros((4, 1))):
    return spde_point(_gbm_coeffs(), build_grid(0.25, 4), Domain.box(*_BOX), wpath, 0.0,
                      points, 8, build_partition(*_BOX, 20.0), SolverConfig("bsde"), seed=1)


def _terminal(terminal):
    nb = _shape_noise()
    paths = simulate_stopped(_gbm_coeffs(), nb.grid, Domain.whole_space(1), nb, [100.0])
    return backward_induction(_gbm_coeffs(), nb.grid, paths, nb, build_partition(*_BOX, 20.0),
                              SolverConfig("bsde"), terminal=terminal)


_XS = np.zeros((3, 1))

# every shape-checked array argument: a call that passes it misshapen, and
# the message it raises
_SHAPE_SITES = {
    "cell_index points": (lambda: build_partition(*_BOX, 20.0).cell_index([100.0]),
                          "points must have shape (M, 1), got (1,)"),
    "build_partition d1": (lambda: build_partition([[60.0]], [[200.0]], 20.0),
                           "lower bounds d1 must have shape (d,), got (1, 1)"),
    "build_partition d2": (lambda: build_partition([60.0, 60.0], [200.0], 20.0),
                           "upper bounds d2 must have shape (2,), got (1,)"),
    "Domain.box lower": (lambda: Domain.box([[60.0]], [[200.0]]),
                         "lower bounds must have shape (d,), got (1, 1)"),
    "Domain.box upper": (lambda: Domain.box([60.0, 60.0], [200.0]),
                         "upper bounds must have shape (2,), got (1,)"),
    "NoiseBundle forward": (lambda: dataclasses.replace(_shape_noise(), forward=np.zeros((4, 8, 2))),
                            "forward noise must have shape (4, 8, 1), got (4, 8, 2)"),
    "NoiseBundle backward": (lambda: dataclasses.replace(_shape_noise(), backward=np.zeros(4)),
                             "backward noise must have shape (4, 1), got (4,)"),
    "simulate_stopped x0": (lambda: simulate_stopped(_gbm_coeffs(), build_grid(0.25, 4),
                                                     Domain.box(*_BOX), _shape_noise(), [100.0, 100.0]),
                            "start point must have shape (1,), got (2,)"),
    "backward_induction terminal": (lambda: _terminal(np.zeros(8)),
                                    "terminal override must have shape (8, 1), got (8,)"),
    "project samples": (lambda: project(build_partition(*_BOX, 20.0), 1.0, np.zeros(3)),
                        "samples must have shape (M, d), got ()"),
    "project targets": (lambda: project(build_partition(*_BOX, 20.0), _XS, 5.0),
                        "targets must have shape (3,), got ()"),
    "lsq_oracle samples": (lambda: lsq_oracle(build_partition(*_BOX, 20.0), 1.0, np.zeros(3)),
                           "samples must have shape (M, d), got ()"),
    "lsq_oracle targets": (lambda: lsq_oracle(build_partition(*_BOX, 20.0), _XS, 5.0),
                           "targets must have shape (3,), got ()"),
    "transform_to_bsde W": (lambda: transform_to_bsde(lambda t: 0.5, _gbm_coeffs(),
                                                      build_grid(0.25, 4), np.zeros((3, 1))),
                            "backward path W must have shape (4, 1), got (3, 1)"),
    "spde_point points": (lambda: _spde_point(points=[100.0]),
                          "points must have shape (P, 1), got (1,)"),
    "spde_point W": (lambda: _spde_point(wpath=np.zeros(4)),
                     "backward path W must have shape (4, 1), got (4,)"),
    "strong_error reference_y": (lambda: _strong_error(reference_y=lambda t, x: np.zeros(len(x))),
                                 "reference_y(t, x) must have shape (8, 1), got (8,)"),
    "strong_error reference_z": (lambda: _strong_error(reference_z=lambda t, x: np.zeros((len(x), 1))),
                                 "reference_z(t, x) must have shape (8, 1, 1), got (8, 1)"),
}


@pytest.mark.parametrize("site", sorted(_SHAPE_SITES))
def test_every_array_argument_has_one_shape_rule(site):
    call, message = _SHAPE_SITES[site]
    with pytest.raises(InvalidParameterError) as err:
        call()
    assert str(err.value) == message


# ------------------------------- exports ----------------------------------- #

def test_package_exports_the_union_of_submodule_all():
    modules = (bdsde.model, bdsde.forward, bdsde.regression, bdsde.solver,
               bdsde.oracles, bdsde.experiments)
    assert bdsde.__all__ == sorted(set().union(*(m.__all__ for m in modules)))
    for name in bdsde.__all__:
        owner = next(m for m in modules if name in m.__all__)
        assert getattr(bdsde, name) is getattr(owner, name), name
    assert "fit_plan" in bdsde.__all__ and not hasattr(bdsde, "gather")
