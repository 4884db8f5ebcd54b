"""Partition geometry, cell-mean projection and its normal-equations oracle."""

import hypothesis.extra.numpy as hnp
import hypothesis.strategies as st
import numpy as np
import pytest
from hypothesis import given, settings

from bdsde import EvaluationError, InvalidParameterError
from bdsde.regression import (
    build_partition, fit_plan, gather, lsq_oracle, project,
)


# ------------------------------- partition --------------------------------- #

def test_cell_counts():
    assert build_partition([60.0], [200.0], 1.0).total_cells == 140
    assert build_partition([0.0], [1.0], 1.0).total_cells == 1
    # truncated last cell: 140 / (50/sqrt(2)) = 3.96 -> 4 cells
    assert build_partition([40.0], [180.0], 50.0 / np.sqrt(2.0)).total_cells == 4


def test_single_cell_maps_everything():
    p = build_partition([0.0], [1.0], 1.0)
    x = np.array([[0.0], [0.5], [0.999999]])
    assert list(p.cell_index(x)) == [0, 0, 0]
    assert list(p.cell_index(np.array([[1.0], [-0.1]]))) == [-1, -1]


def test_half_open_cells_and_truncation():
    p = build_partition([40.0], [180.0], 50.0 / np.sqrt(2.0))
    edges = 40.0 + p.delta * np.arange(4)
    assert p.cell_index(edges[:, None]).tolist() == [0, 1, 2, 3]
    # last cell is truncated: its left edge is ~146.066, right edge 180
    assert p.cell_index(np.array([[179.999]]))[0] == 3
    assert p.cell_index(np.array([[180.0]]))[0] == -1


def test_far_and_non_finite_points_index_without_a_cast_warning():
    # a coordinate more than 2**63 cells from d1 used to reach the int cast
    # and raise "invalid value encountered in cast" (an error under the
    # suite's warning filter)
    p = build_partition([60.0], [200.0], 1.0)
    x = np.array([[1e300], [-1e300], [np.inf], [-np.inf], [np.nan], [100.5]])
    assert p.cell_index(x).tolist() == [-1, -1, -1, -1, -1, 40]
    q = build_partition([0.0, 0.0], [2.0, 3.0], 1.0)
    assert q.cell_index(np.array([[0.5, 1e300], [1e300, 0.5], [1.5, 2.5]])).tolist() == [-1, -1, 5]


def test_multidimensional_c_order():
    p = build_partition([0.0, 0.0], [2.0, 3.0], 1.0)
    assert p.total_cells == 6
    assert list(p.L_per_dim) == [2, 3]
    x = np.array([[0.5, 0.5], [0.5, 2.5], [1.5, 0.5], [1.5, 2.5]])
    assert p.cell_index(x).tolist() == [0, 2, 3, 5]
    for bad in (x[0], x[:, :1], x[None]):
        with pytest.raises(InvalidParameterError, match=r"shape \(M, 2\)"):
            p.cell_index(bad)


def test_build_partition_errors():
    with pytest.raises(InvalidParameterError):
        build_partition([1.0], [1.0], 0.5)
    with pytest.raises(InvalidParameterError, match="strictly below"):
        build_partition([], [], 1.0)  # no dimension
    for d1, d2 in (([0.0, 0.0], [1.0]), ([[0.0]], [[1.0]])):
        with pytest.raises(InvalidParameterError, match="bounds d[12] must have shape"):
            build_partition(d1, d2, 0.5)
    # flat ids are exact floats, so the cell count stops at 2**53
    with pytest.raises(InvalidParameterError, match="2\\*\\*53"):
        build_partition([0.0] * 3, [1e6] * 3, 0.1)
    with pytest.raises(InvalidParameterError):
        build_partition([0.0], [1.0], 0.0)
    with pytest.raises(InvalidParameterError):
        build_partition([0.0], [1.0], -1.0)
    # an infinite cell count is refused before the int cast (no cast warning,
    # no one-cell partition): infinite bounds, and an extent or an extent
    # over delta that overflows
    for d1, d2, delta in (([-np.inf], [0.0], 1.0), ([0.0], [np.inf], 1.0),
                          ([-np.inf, 0.0], [np.inf, 1.0], 1.0),
                          ([0.0], [1e300], 1e-300), ([-1e308], [1e308], 1.0)):
        with pytest.raises(InvalidParameterError, match="2\\*\\*53"):
            build_partition(d1, d2, delta)


def test_build_partition_freezes_its_own_bounds_not_the_callers():
    d1, d2 = np.array([0.0]), np.array([1.0])
    p = build_partition(d1, d2, 0.5)
    assert d1.flags.writeable and d2.flags.writeable
    assert not (p.d1.flags.writeable or p.d2.flags.writeable or p.L_per_dim.flags.writeable)
    d1[0] = -1.0
    assert p.d1[0] == 0.0


# ------------------------------- projection -------------------------------- #

def test_cell_mean_basic():
    p = build_partition([0.0], [1.0], 1.0)
    fn = project(p, np.array([[0.2], [0.7]]), np.array([[1.0], [3.0]]))
    assert fn.coefficients[0, 0] == pytest.approx(2.0)
    assert fn.evaluate(np.array([[0.5]]))[0, 0] == pytest.approx(2.0)
    assert fn.empty_cells == 0
    # 1-D targets are fitted as one column
    flat = project(p, np.array([[0.2], [0.7]]), np.array([1.0, 3.0]))
    assert flat.coefficients.shape == (1, 1)
    assert flat.coefficients.tobytes() == fn.coefficients.tobytes()


def test_projection_reproduces_indicator_targets():
    p = build_partition([0.0], [5.0], 1.0)
    rng = np.random.default_rng(1)
    xs = rng.uniform(0.0, 5.0, size=(50, 1))
    cells = p.cell_index(xs)
    vs = (cells == 2).astype(float)[:, None]
    fn = project(p, xs, vs)
    assert np.allclose(fn.coefficients[:, 0], np.eye(5)[2], atol=1e-15)


def test_empty_cells_zero_and_counted():
    p = build_partition([0.0], [4.0], 1.0)
    xs = np.array([[0.5], [2.5]])
    fn = project(p, xs, np.array([[7.0], [9.0]]))
    assert fn.empty_cells == 2
    assert fn.coefficients[1, 0] == 0.0
    assert fn.evaluate(np.array([[1.5]]))[0, 0] == 0.0


def test_out_of_range_evaluation_is_zero():
    p = build_partition([0.0], [1.0], 1.0)
    fn = project(p, np.array([[0.5]]), np.array([[4.0]]))
    out = fn.evaluate(np.array([[-3.0], [0.5], [2.0]]))
    assert out[:, 0] == pytest.approx([0.0, 4.0, 0.0])


def test_out_of_range_samples_dropped_and_counted():
    p = build_partition([0.0], [1.0], 1.0)
    fn = project(p, np.array([[0.5], [3.0]]), np.array([[4.0], [100.0]]))
    assert fn.coefficients[0, 0] == pytest.approx(4.0)
    assert fn.out_of_range_samples == 1


def test_projection_linearity():
    p = build_partition([0.0], [3.0], 1.0)
    rng = np.random.default_rng(2)
    xs = rng.uniform(0.0, 3.0, size=(40, 1))
    v = rng.normal(size=(40, 1))
    w = rng.normal(size=(40, 1))
    left = project(p, xs, 2.5 * v + w).coefficients
    right = 2.5 * project(p, xs, v).coefficients + project(p, xs, w).coefficients
    assert np.allclose(left, right, atol=1e-12)


def test_projection_idempotent_and_bounded():
    p = build_partition([0.0], [3.0], 1.0)
    rng = np.random.default_rng(3)
    xs = rng.uniform(0.0, 3.0, size=(60, 1))
    vs = rng.normal(size=(60, 1))
    fn = project(p, xs, vs)
    again = project(p, xs, fn.evaluate(xs))
    assert np.allclose(fn.coefficients, again.coefficients, atol=1e-12)
    cells = p.cell_index(xs)
    for j in range(3):
        sel = vs[cells == j, 0]
        if sel.size:
            assert sel.min() - 1e-12 <= fn.coefficients[j, 0] <= sel.max() + 1e-12


def test_matrix_valued_targets():
    p = build_partition([0.0], [2.0], 1.0)
    xs = np.array([[0.5], [0.6], [1.5]])
    vs = np.array([[[1.0, 2.0]], [[3.0, 4.0]], [[5.0, 6.0]]])  # (M, k=1, d=2)
    fn = project(p, xs, vs)
    assert fn.coefficients.shape == (2, 1, 2)
    assert np.allclose(fn.coefficients[0], [[2.0, 3.0]])
    assert np.allclose(fn.evaluate(np.array([[1.1]]))[0], [[5.0, 6.0]])


def test_non_finite_target_reports_sample_index():
    p = build_partition([0.0], [1.0], 1.0)
    xs = np.array([[0.1], [0.2], [0.3]])
    vs = np.array([[1.0], [np.inf], [2.0]])
    with pytest.raises(EvaluationError, match="sample 1"):
        project(p, xs, vs)


def test_empty_sample_set_rejected():
    p = build_partition([0.0], [1.0], 1.0)
    with pytest.raises(InvalidParameterError):
        project(p, np.zeros((0, 1)), np.zeros((0, 1)))


def test_plan_of_no_samples_fits_zero_in_every_cell():
    # the z-fit of a step with no live path, as at a start in the shift
    # collar, is a plan over zero rows
    p = build_partition([0.0, 0.0], [2.0, 3.0], 1.0)
    plan = fit_plan(p, np.empty(0, dtype=np.int64))
    for shape in ((0,), (0, 1), (0, 2, 1)):
        fn = plan.fit(np.empty(shape))
        assert fn.coefficients.shape == (6,) + shape[1:]
        assert not fn.coefficients.any()
        assert (fn.empty_cells, fn.out_of_range_samples) == (6, 0)


def test_target_count_must_match_the_samples():
    p = build_partition([0.0], [1.0], 1.0)
    xs = np.array([[0.1], [0.2], [0.3]])
    with pytest.raises(InvalidParameterError, match=r"targets must have shape \(3, 1\), got \(2, 1\)"):
        project(p, xs, np.ones((2, 1)))


# ------------------------------- lsq oracle -------------------------------- #

def test_oracle_single_cell_mean():
    p = build_partition([0.0], [1.0], 1.0)
    c = lsq_oracle(p, np.array([[0.2], [0.7]]), np.array([[1.0], [3.0]]))
    assert c[0, 0] == pytest.approx(2.0, abs=1e-12)


def test_oracle_empty_cell_is_zero():
    p = build_partition([0.0], [2.0], 1.0)
    c = lsq_oracle(p, np.array([[0.5]]), np.array([[4.0]]))
    assert c[1, 0] == pytest.approx(0.0, abs=1e-12)


def test_project_agrees_with_oracle_on_random_instances():
    rng = np.random.default_rng(4)
    for _ in range(100):
        d = int(rng.integers(1, 3))
        L = int(rng.integers(1, 6))
        M = int(rng.integers(1, 51))
        p = build_partition(np.zeros(d), np.full(d, float(L)), 1.0)
        xs = rng.uniform(-0.5, L + 0.5, size=(M, d))  # some out of range
        vs = rng.normal(size=(M, int(rng.integers(1, 3))))
        rows = np.flatnonzero(rng.random(M) < 0.8)  # a random subset of the rows
        if not rows.size:
            rows = np.array([0])
        fn = project(p, xs[rows], vs[rows])
        oracle = lsq_oracle(p, xs[rows], vs[rows])
        assert np.max(np.abs(fn.coefficients - oracle)) < 1e-10


# ------------------------- id-based fit properties ------------------------- #

def column_fit(cells, flat, mask, total):
    """Column-by-column cell means: the per-column bincount loop that the
    single flat-offset bincount of FitPlan.fit must reproduce bitwise."""
    use = mask & (cells >= 0)
    counts = np.bincount(cells[use], minlength=total)
    occupied = counts > 0
    coeffs = np.zeros((total, flat.shape[1]))
    for col in range(flat.shape[1]):
        sums = np.bincount(cells[use], weights=flat[use, col], minlength=total)
        coeffs[occupied, col] = sums[occupied] / counts[occupied]
    return coeffs, int(total - occupied.sum()), int((mask & (cells < 0)).sum())


@st.composite
def fit_problems(draw):
    d = draw(st.integers(1, 2))
    L = draw(st.integers(1, 5))
    M = draw(st.integers(1, 60))
    vshape = draw(st.sampled_from([(1,), (3,), (2, 2), (1, 3)]))
    coord = st.floats(-0.5, L + 0.5, allow_nan=False)
    xs = draw(hnp.arrays(np.float64, (M, d), elements=coord))
    vs = draw(hnp.arrays(np.float64, (M,) + vshape,
                         elements=st.floats(-10.0, 10.0, allow_nan=False)))
    keep = draw(hnp.arrays(np.bool_, (M,)))
    probes = draw(hnp.arrays(np.float64, (draw(st.integers(0, 20)), d), elements=coord))
    return build_partition(np.zeros(d), np.full(d, float(L)), 1.0), xs, vs, keep, probes


@settings(max_examples=150, deadline=None)
@given(fit_problems())
def test_project_is_the_id_based_fit(problem):
    # the fit of a random subset of the rows equals the cell means of every
    # row with the others masked out, bitwise
    p, xs, vs, keep, probes = problem
    rows = np.flatnonzero(keep)
    cells = p.cell_index(xs)
    fn = fit_plan(p, cells.take(rows)).fit(vs[rows])
    coeffs, empty, out = column_fit(cells, vs.reshape(len(xs), -1), keep, p.total_cells)
    assert np.array_equal(fn.coefficients.reshape(p.total_cells, -1), coeffs)
    assert fn.coefficients.shape == (p.total_cells,) + vs.shape[1:]
    assert (fn.empty_cells, fn.out_of_range_samples) == (empty, out)
    if rows.size:
        same = project(p, xs[rows], vs[rows])
        assert np.array_equal(same.coefficients, fn.coefficients)
    # evaluation is the gather at the probes' ids, zero outside [d1, d2)
    ids = p.cell_index(probes)
    expected = np.where((ids >= 0).reshape((-1,) + (1,) * (vs.ndim - 1)),
                        fn.coefficients[np.maximum(ids, 0)], 0.0)
    assert np.array_equal(fn.evaluate(probes), expected)
    assert np.array_equal(gather(fn.coefficients, ids), expected)
    if rows.size:
        oracle = lsq_oracle(p, xs[rows], vs[rows])
        assert np.max(np.abs(fn.coefficients - oracle)) < 1e-10


# ----------------------- plans and the lean cell lookup --------------------- #

def reference_fit_cells(partition, cells, vs, mask=None):
    """The per-call fit as it was before fit plans: keys, counts and the
    occupied mask rebuilt on every call; returns (coefficients, empty, out
    of range)."""
    vs = np.asarray(vs, dtype=np.float64)
    flat = vs.reshape(cells.shape[0], -1)
    C = flat.shape[1]
    if mask is None:
        mask = np.ones(cells.shape[0], dtype=bool)
    total = partition.total_cells
    keys = np.where(mask & (cells >= 0), cells, total)
    counts = np.bincount(keys, minlength=total + 1)[:total]
    sums = np.bincount((keys * C + np.arange(C)[:, None]).ravel(),
                       weights=flat.T.ravel(), minlength=(total + 1) * C)
    occupied = counts > 0
    coeffs = np.zeros((total, C))
    coeffs[occupied] = sums[:total * C].reshape(total, C)[occupied] / counts[occupied, None]
    return (coeffs.reshape((total,) + vs.shape[1:]),
            int(total - np.count_nonzero(occupied)),
            int(np.count_nonzero(mask) - counts.sum()))


def reference_cell_index(partition, x):
    """cell_index as it was before the lean lookup: np.all over the axes and
    ravel_multi_index, with the clip applied after the int cast."""
    inside = np.all((x >= partition.d1) & (x < partition.d2), axis=1)
    j = np.floor((x - partition.d1) / partition.delta).astype(np.int64)
    np.clip(j, 0, partition.L_per_dim - 1, out=j)
    flat = np.ravel_multi_index(tuple(j.T), tuple(partition.L_per_dim))
    return np.where(inside, flat, np.int64(-1))


@st.composite
def plan_problems(draw):
    total = draw(st.integers(1, 8))
    M = draw(st.integers(1, 60))
    cells = draw(hnp.arrays(np.int64, (M,), elements=st.integers(-1, total - 1)))
    keep = draw(st.none() | hnp.arrays(np.bool_, (M,)))
    vshape = draw(st.sampled_from([(1,), (2,), (2, 2)]))  # C = 1, 2, 4
    values = st.floats(-1e6, 1e6, allow_nan=False)
    targets = [draw(hnp.arrays(np.float64, (M,) + vshape, elements=values))
               for _ in range(draw(st.integers(1, 3)))]
    return build_partition([0.0], [float(total)], 1.0), cells, keep, targets


@settings(max_examples=200, deadline=None)
@given(plan_problems())
def test_plan_fits_equal_the_per_call_fit_bitwise(problem):
    # a plan over a random subset of the rows (all of them, some or none)
    # fits what the per-call fit over every row with the others masked out does
    p, cells, keep, targets = problem
    rows = np.arange(cells.shape[0]) if keep is None else np.flatnonzero(keep)
    plan = fit_plan(p, cells.take(rows))
    for vs in targets:  # one plan serves every fit over its population
        coeffs, empty, out = reference_fit_cells(p, cells, vs, keep)
        for fn in (plan.fit(vs[rows]), fit_plan(p, cells.take(rows)).fit(vs[rows])):
            assert fn.coefficients.shape == coeffs.shape
            assert fn.coefficients.tobytes() == coeffs.tobytes()
            assert (fn.empty_cells, fn.out_of_range_samples) == (empty, out)
    assert (plan.empty_cells, plan.out_of_range_samples) == (empty, out)


@st.composite
def index_problems(draw):
    d = draw(st.integers(1, 3))
    d1 = np.array(draw(st.lists(st.floats(-100.0, 100.0), min_size=d, max_size=d)))
    extent = np.array(draw(st.lists(st.floats(0.5, 50.0), min_size=d, max_size=d)))
    p = build_partition(d1, d1 + extent, draw(st.floats(0.05, 20.0)))

    def coordinate(a):
        lo, hi = p.d1[a], p.d2[a]
        edges = [lo, np.nextafter(lo, -np.inf), hi, np.nextafter(hi, -np.inf)]
        return (st.floats(lo - extent[a], hi + extent[a])
                | st.sampled_from(edges)
                | st.integers(0, int(p.L_per_dim[a])).map(lambda k: lo + k * p.delta))

    M = draw(st.integers(0, 30))
    x = np.array([[draw(coordinate(a)) for a in range(d)] for _ in range(M)])
    return p, x.reshape(M, d)


@settings(max_examples=300, deadline=None)
@given(index_problems())
def test_cell_index_equals_the_ravel_multi_index_lookup(problem):
    # covers d2 - ulp, where floor can reach L and the clip puts the point in
    # the last cell, exact cell edges and points outside the basis
    p, x = problem
    ids = p.cell_index(x)
    assert ids.dtype == np.int64
    assert np.array_equal(ids, reference_cell_index(p, x))


def clip_cell_index(p, x):
    """The cell lookup as written with np.clip and a boolean mask, summing
    the flat id axis by axis in floats."""
    flat, inside = 0.0, True
    for a in range(p.d):
        col = x[:, a]
        inside = inside & (col >= p.d1[a]) & (col < p.d2[a])
        j = col - p.d1[a]
        j /= p.delta
        np.clip(np.floor(j, out=j), 0, p.L_per_dim[a] - 1, out=j)
        j += flat * p.L_per_dim[a]
        flat = j
    flat[~inside] = -1.0
    return flat.astype(np.int64)


@settings(max_examples=300, deadline=None)
@given(index_problems())
def test_cell_index_equals_the_clip_formula(problem):
    # in-place clamps and a masked copy give the clip formula's ids, at d1,
    # d2, d2 - ulp and outside the basis, in 1 to 3 dimensions
    p, x = problem
    x = np.concatenate([x, np.full((1, p.d), np.inf), np.full((1, p.d), -np.inf),
                        np.full((1, p.d), np.nan)])
    with np.errstate(invalid="ignore"):
        want = clip_cell_index(p, x)
    assert p.cell_index(x).tobytes() == want.tobytes()
