"""Hypercube indicator basis and empirical least-squares projection.

Conditional expectations in the backward scheme are approximated by
projecting Monte Carlo targets onto indicator functions of a hypercube
partition of [d1, d2).  Because the indicators are orthogonal under the
empirical scalar product, the projection coefficients reduce to per-cell
arithmetic means; ``lsq_oracle`` recomputes them through the assembled
normal equations as an independent cross-check.  A fit is one table with a
zero row after the cells', which the id -1 of a point outside [d1, d2)
reads, so any read of a fit is one take.
"""

from __future__ import annotations

import dataclasses
import math

import numpy as np

from .model import EvaluationError, InvalidParameterError, _frozen, _shaped

Array = np.ndarray

__all__ = [
    "HypercubePartition",
    "CellFunction",
    "build_partition",
    "FitPlan",
    "fit_plan",
    "project",
    "lsq_oracle",
]


# ------------------------------- partition --------------------------------- #

@dataclasses.dataclass(frozen=True, eq=False)
class HypercubePartition:
    """Axis-aligned grid of half-open cells covering [d1, d2).

    Cell k along each axis is [d1 + k*delta, d1 + (k+1)*delta), except the
    last, which is truncated at d2 when the extent is not a multiple of
    delta.  Cells are numbered in C order.
    """

    d1: Array            # (d,)
    d2: Array            # (d,)
    delta: float
    L_per_dim: Array     # (d,) int64
    total_cells: int

    @property
    def d(self) -> int:
        return self.d1.shape[0]

    def cell_index(self, x: Array) -> Array:
        """Flat cell index for each row of x, or -1 outside [d1, d2)."""
        x = _shaped("points", x, ("M", self.d))
        # C-order flat id, summed axis by axis in floats (exact: at most 2**53
        # cells) and cast once, after outside points are set to -1
        for a in range(self.d):
            col = x[:, a]
            ok = col >= self.d1[a]
            ok &= col < self.d2[a]
            j = col - self.d1[a]
            j /= self.delta
            # float roundoff near d2 can push floor to L; the last cell takes it
            np.floor(j, out=j)
            np.maximum(j, 0, out=j)
            np.minimum(j, self.L_per_dim[a] - 1, out=j)
            if a == 0:
                flat, inside = j, ok
            else:
                flat *= self.L_per_dim[a]
                flat += j
                inside &= ok
        np.copyto(flat, -1.0, where=~inside)
        return flat.astype(np.int64)


def build_partition(d1, d2, delta: float) -> HypercubePartition:
    """Partition [d1, d2) into ceil((d2 - d1)/delta) cells per dimension."""
    d1 = _shaped("lower bounds d1", np.atleast_1d(d1), ("d",)).copy()
    d2 = _shaped("upper bounds d2", np.atleast_1d(d2), d1.shape).copy()
    if not (d1.size and np.all(d1 < d2)):
        raise InvalidParameterError("lower bounds must be strictly below upper bounds")
    if not (np.isfinite(delta) and delta > 0.0):
        raise InvalidParameterError(f"cell edge must be positive, got delta={delta}")
    with np.errstate(over="ignore"):  # an overflow gives inf, refused below
        L = np.maximum(np.ceil((d2 - d1) / delta), 1.0)
        total = np.prod(L)
    if not total <= 2.0 ** 53:  # an infinite bound too, before the int cast
        raise InvalidParameterError(f"{total:g} cells: flat cell ids are exact up to 2**53")
    return HypercubePartition(d1=_frozen(d1), d2=_frozen(d2), delta=float(delta),
                              L_per_dim=_frozen(L.astype(np.int64)), total_cells=int(total))


# ------------------------------ cell function ------------------------------ #

@dataclasses.dataclass(frozen=True, eq=False)
class CellFunction:
    """Piecewise-constant function with one coefficient vector per cell.

    Evaluation outside [d1, d2) reads the table's zero last row; no
    clamping, so a point that escapes the basis range shows up as a hard
    zero rather than a silently extrapolated value.  empty_cells and
    out_of_range_samples record how the fit was built and are carried into
    solver diagnostics.
    """

    partition: HypercubePartition
    table: Array                 # (total_cells + 1, *target shape)
    empty_cells: int = 0
    out_of_range_samples: int = 0

    @property
    def coefficients(self) -> Array:
        """The cells' rows of ``table``, (total_cells, *target shape)."""
        return self.table[:-1]

    def evaluate(self, x: Array) -> Array:
        return self.table.take(self.partition.cell_index(x), axis=0)


# ------------------------------- projection -------------------------------- #

def _validate_samples(xs: Array, vs: Array) -> tuple:
    xs = _shaped("samples", xs, ("M", "d"))
    M = xs.shape[0]
    if M < 1:
        raise InvalidParameterError("projection needs at least one sample")
    vs = _shaped("targets", vs, (M,) + np.shape(vs)[1:])
    if vs.ndim < 2:
        vs = vs[:, None]
    return xs, vs


def _check_finite(flat: Array) -> None:
    if not np.isfinite(flat).all():
        m = int(np.nonzero(~np.isfinite(flat).all(axis=1))[0][0])
        raise EvaluationError(f"non-finite regression target at sample {m}")


@dataclasses.dataclass(frozen=True, eq=False)
class FitPlan:
    """One fit population's cell bookkeeping, shared by every fit over it.
    ``bins`` is 1 + each sample's cell id, so a sample outside [d1, d2)
    has bin 0, whose sum the fit drops; ``divisor`` is the per-cell sample
    count, 1 for an empty cell (whose sum is 0)."""

    partition: HypercubePartition
    bins: Array                  # (M,) int64
    divisor: Array               # (total_cells,)
    empty_cells: int
    out_of_range_samples: int

    def fit(self, vs: Array) -> CellFunction:
        """Per-cell means of targets vs in one bincount: column c of sample m
        goes to bin ``bins[m]*C + c``, and bincount adds a bin's samples in
        sample order, so the means equal a column-by-column fit bitwise.
        A plan of no samples fits zero in every cell."""
        vs = np.asarray(vs, dtype=np.float64)
        flat = vs.reshape(self.bins.shape[0], math.prod(vs.shape[1:]))
        C, total = flat.shape[1], self.partition.total_cells
        _check_finite(flat)
        bins = self.bins if C == 1 else (self.bins * C + np.arange(C)[:, None]).ravel()
        sums = np.bincount(bins, weights=flat.T.ravel(), minlength=(total + 1) * C)
        table = np.zeros((total + 1, C))
        np.divide(sums[C:].reshape(total, C), self.divisor[:, None], out=table[:-1])
        return CellFunction(self.partition, table.reshape((total + 1,) + vs.shape[1:]),
                            self.empty_cells, self.out_of_range_samples)


def fit_plan(partition: HypercubePartition, cells: Array) -> FitPlan:
    """The plan of the samples at flat cell ids ``cells``; a sample with
    id -1 is dropped and counted as out of range."""
    bins = cells + 1
    counts = np.bincount(bins, minlength=partition.total_cells + 1)
    in_cells = counts[1:]
    return FitPlan(partition, bins, np.maximum(in_cells, 1).astype(np.float64),
                   int(in_cells.size - np.count_nonzero(in_cells)), int(counts[0]))


def project(partition: HypercubePartition, xs: Array, vs: Array) -> CellFunction:
    """Empirical least-squares fit of targets vs onto the indicator basis:
    the ``fit_plan`` of the cell ids of xs, then its fit of vs."""
    xs, vs = _validate_samples(xs, vs)
    return fit_plan(partition, partition.cell_index(xs)).fit(vs)


def lsq_oracle(
    partition: HypercubePartition,
    xs: Array,
    vs: Array,
) -> Array:
    """Indicator-basis least squares via assembled normal equations.

    Builds the dense M x L design matrix, forms the Gram matrix and
    right-hand side explicitly and solves with a min-norm SVD fallback so
    empty cells come out zero.  Quadratic in the cell count; intended for
    cross-checking ``project`` on small instances, not production fits.
    """
    xs, vs = _validate_samples(xs, vs)
    flat = vs.reshape(xs.shape[0], -1)
    _check_finite(flat)

    cells = partition.cell_index(xs)
    design = (cells[:, None] == np.arange(partition.total_cells)[None, :]).astype(np.float64)
    gram = design.T @ design
    rhs = design.T @ flat
    sol, *_ = np.linalg.lstsq(gram, rhs, rcond=None)
    return sol.reshape((partition.total_cells,) + vs.shape[1:])
