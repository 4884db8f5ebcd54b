"""Forward Euler paths of a diffusion stopped at a discrete exit time.

The state evolves on a uniform grid by

    X_{i+1} = X_i + b(X_i) h + sigma(X_i) dB_i

and is frozen at the first index i >= 0 (0: a start in the shift collar)
where it lies outside a shrunken copy of the open domain.  The shrinkage,

    shift(x) = C0 * sqrt(h) * | n(x)^T sigma(x) |,        C0 = 0.5826,

with n(x) the inward unit normal of the nearest face, compensates the
systematic late detection of discrete-time exit tests: between grid points
the continuous path can cross the boundary and return unseen, so the raw
test overestimates the exit time by O(sqrt(h)).  Testing against the
shrunken domain restores first-order accuracy of exit-time functionals.

The loop evaluates sigma once per state, and a stopped path keeps its row,
held at x0, until one take drops a batch of them: b and sigma see running
states and x0 only.

A PathSet keeps the exit states, and each step's output for the paths that
took it only when asked to; otherwise the first read of that record runs
the loop once more.  ``at(n)`` rebuilds t_n, and the ``states`` grid is
built on first access.
"""

from __future__ import annotations

import dataclasses
import functools
from typing import Callable, Optional

import numpy as np

from .model import (
    CoefficientSet,
    Domain,
    EvaluationError,
    InvalidParameterError,
    InvalidStartError,
    NoiseBundle,
    TimeGrid,
    _frozen,
    _shaped,
    _whole,
)

Array = np.ndarray

__all__ = [
    "C0",
    "PathSet",
    "euler_step",
    "shift_width",
    "simulate_stopped",
]

# Boundary-shift constant for discrete exit-time correction.  The value is
# -zeta(1/2)/sqrt(2*pi) rounded to four decimals, the standard correction
# for continuity-monitored barriers observed at discrete times.
C0 = 0.5826

# stopped rows are dropped once they are more than this share of the carried rows
_DROP_SHARE = 1 / 8


# ------------------------------ path container ----------------------------- #

@dataclasses.dataclass(frozen=True, eq=False)
class PathSet:
    """Stopped Euler paths with per-path exit bookkeeping.

    exit_state, an array of its own, is each path's state at its exit
    index, which lies in {0..N}: 0 means the start lay in the shift collar,
    and N doubles as the no-exit sentinel, so exit_detected distinguishes a
    genuine last-step exit from plain survival to maturity.  ``steps``, the
    per-step record, is kept only when asked for: ``rerun`` is None then,
    else the call that runs the loop again to rebuild it, which keeps the
    noise bundle alive.  Every array is read-only; ``states`` stacks ``at``
    over t_0..t_N on first access.
    """

    grid: TimeGrid
    start: Array           # (d,)
    exit_index: Array      # (M,) int64
    exit_detected: Array   # (M,) bool
    exit_state: Array      # (M, d)
    rerun: Optional[Callable[[], "PathSet"]] = dataclasses.field(default=None, repr=False)

    @property
    def M(self) -> int:
        return self.exit_index.shape[0]

    @property
    def exit_time(self) -> Array:
        return self.grid.times[self.exit_index]

    def live_mask(self, i: int) -> Array:
        """Boolean mask of paths still inside the domain strictly after t_i."""
        return self.exit_index > i

    @functools.cached_property
    def steps(self) -> tuple:
        """Length N: steps[i] is step i's Euler output for the paths with
        exit_index > i, in path order.  Without a kept record the first read
        runs the loop once more, and raises if that run stopped the paths
        differently (a coefficient that is not a function of its input)."""
        again = self.rerun()
        if not all(np.array_equal(getattr(again, name), getattr(self, name))
                   for name in ("exit_index", "exit_detected", "exit_state")):
            raise EvaluationError("rebuilding the path record gave other exits: "
                                  "the coefficients returned different values for the same states")
        return again.steps

    def at(self, n: int) -> Array:
        """The states at t_n, (M, d), read-only: steps[n-1] itself when
        every path took step n-1, else the exit states with steps[n-1]
        scattered over the paths that took it (exit_index >= n)."""
        n = _whole("step index n", n, 0, self.grid.N + 1)
        if n == 0:
            return _frozen(np.tile(self.start, (self.M, 1)))
        if self.steps[n - 1].shape[0] == self.M:
            return self.steps[n - 1]
        row = self.exit_state.copy()
        row[np.flatnonzero(self.exit_index >= n)] = self.steps[n - 1]  # 3x faster than a mask
        return _frozen(row)

    @functools.cached_property
    def states(self) -> Array:
        """(N+1, M, d) stack of ``at``, read-only, built on first access."""
        return _frozen(np.stack([self.at(n) for n in range(self.grid.N + 1)]))


# ------------------------------ elementary ops ----------------------------- #

def shift_width(
    axis: Array,
    x: Array,
    coeffs: CoefficientSet,
    h: float,
    s: Optional[Array] = None,
) -> Array:
    """Half-width of the exit-test boundary shift at each state in x.

    Parameters
    ----------
    axis : (M,) int array
        Axis of the nearest face of each state, from ``Domain.nearest_face``.
    x : (M, d) array
        States at which to evaluate the shift.
    coeffs : CoefficientSet
        Its sigma is read through ``eval_sigma``, which checks shape and
        finiteness, unless s is given.
    h : float
        Grid step.
    s : (M, d, d) array, optional
        sigma(x), when the caller holds it already.

    Returns
    -------
    (M,) array of C0 * sqrt(h) * ||sigma(x)[j, :]||, with j = axis.  The
    nearest face's normal is +-e_j, so the row is |n(x)^T sigma(x)|.
    """
    if not 0.0 < h < np.inf:
        raise InvalidParameterError(f"step must be positive and finite, got h={h}")
    x = np.asarray(x, dtype=np.float64)
    M, d = x.shape
    s = coeffs.eval_sigma(x) if s is None else s
    if d == 1:  # every face lies on axis 0, and a sum of one square is that square
        row = s[:, 0, 0]
        return C0 * np.sqrt(h) * np.sqrt(row * row)
    # row axis[m] of each s[m], read with one flat take; the norm is the
    # sum of squares np.linalg.norm forms
    row = s.reshape(M * d, d).take(np.arange(0, M * d, d) + axis, axis=0)
    return C0 * np.sqrt(h) * np.sqrt((row * row).sum(-1))


def euler_step(coeffs: CoefficientSet, x: Array, h: float, dB: Array,
               s: Optional[Array] = None) -> Array:
    """One explicit Euler update x + b(x) h + sigma(x) dB of (M, d) states,
    with s = sigma(x) when the caller holds it already.

    Coefficient outputs are shape- and finiteness-checked, with failures
    reported against the offending coefficient.
    """
    return x + coeffs.eval_b(x) * h + np.einsum(
        "mij,mj->mi", coeffs.eval_sigma(x) if s is None else s, dB)


# ------------------------------ simulation --------------------------------- #

def simulate_stopped(
    coeffs: CoefficientSet,
    grid: TimeGrid,
    domain: Domain,
    noise: NoiseBundle,
    x0: Array,
    *,
    shift_enabled: bool = True,
    keep_steps: bool = False,
) -> PathSet:
    """Evolve M Euler paths from x0 and stop each at its first discrete exit.

    One test decides membership in the shrunken open domain, for the start
    point and after every step: the nearest-face distance of x (negative
    outside the box) exceeds shift_width(x), strictly, with width 0 when the
    shift is off.  Paths stop where they fail it, so a start in the shift
    collar stops every path at t_0; a start outside the open domain, or a
    non-finite one, raises InvalidStartError.  The whole space (the box with
    infinite bounds) is never left, so neither test nor shift is computed
    there.  The loop carries an index of paths, their states and, with the
    shift on, the exit test's sigma(x_{i+1}), which step i+1's Euler update
    reuses.  A step reads noise.forward[i] whole until the first drop.  A
    path that stops gets its exit_state row, and its carried row holds x0,
    reset after every Euler update, until more than _DROP_SHARE of the
    carried rows have stopped and one take drops them.  The survivors' rows
    of exit_state are written after the last step.  With keep_steps each
    step's output for the running paths is kept as PathSet.steps[i];
    without it the PathSet keeps its inputs, the noise bundle too, and
    rebuilds the record by running this loop once more on its first read.
    """
    if not noise.d == domain.d == coeffs.d:
        raise InvalidParameterError(
            f"noise dimension {noise.d} and domain dimension {domain.d} must "
            f"match coefficient dimension {coeffs.d}"
        )
    if noise.grid is not grid and not np.array_equal(noise.grid.times, grid.times):
        raise InvalidParameterError("noise was sampled on a different time grid")
    x0 = _shaped("start point", np.reshape(x0, -1), (coeffs.d,)).copy()
    if not domain.contains(x0[None, :])[0]:
        raise InvalidStartError(f"start point {x0} lies outside the open domain")
    test_exits = not domain.is_whole_space
    test_sigma = test_exits and shift_enabled  # the exit test reads sigma(x)

    def shifted_test(x: Array, s: Optional[Array] = None) -> Array:
        """Which rows of x lie strictly inside the shrunken domain; one face
        scan gives both the distance and the shift's axis."""
        dist, axis = domain.nearest_face(x)
        return dist > (shift_width(axis, x, coeffs, grid.h, s) if shift_enabled else 0.0)

    M, N = noise.M, grid.N
    # the carried paths' indices, states and the exit test's sigma; a
    # collar start carries none.  The rows at ``stopped`` hold x0
    live = np.arange(M if not test_exits or shifted_test(x0[None, :])[0] else 0)
    exit_index = np.zeros(M, dtype=np.int64)
    exit_state = np.tile(x0, (M, 1))
    x, s = exit_state.take(live, axis=0), None
    stopped = np.arange(0)
    steps = []

    for i in range(N):
        dB = noise.forward[i] if live.size == M else noise.forward[i].take(live, axis=0)
        x = euler_step(coeffs, x, grid.h, dB, s)
        x[stopped] = x0
        if keep_steps:
            steps.append(_frozen(np.delete(x, stopped, axis=0) if stopped.size else x))
        s = coeffs.eval_sigma(x) if test_sigma else None
        if test_exits:
            inside = shifted_test(x, s)
            inside[stopped] = True  # a stopped path stops once
            out = np.flatnonzero(~inside)
            if out.size:
                exit_index[live[out]] = i + 1
                exit_state[live[out]] = x.take(out, axis=0)
                stopped = np.concatenate((stopped, out))
                if stopped.size > _DROP_SHARE * live.size:
                    keep = np.delete(np.arange(live.size), stopped)
                    live, x, stopped = live.take(keep), x.take(keep, axis=0), stopped[:0]
                    s = None if s is None else s.take(keep, axis=0)
                else:
                    x = x if x.flags.writeable else x.copy()  # x itself is steps[i]
                    x[out] = x0
    keep = np.delete(np.arange(live.size), stopped)  # the survivors' rows
    alive = live.take(keep)
    exit_detected = np.ones(M, dtype=bool)
    exit_index[alive], exit_state[alive], exit_detected[alive] = N, x.take(keep, axis=0), False

    rerun = None if keep_steps else functools.partial(
        simulate_stopped, coeffs, grid, domain, noise, x0,
        shift_enabled=shift_enabled, keep_steps=True)
    paths = PathSet(grid=grid, start=_frozen(x0), exit_index=_frozen(exit_index),
                    exit_detected=_frozen(exit_detected), exit_state=_frozen(exit_state),
                    rerun=rerun)
    if keep_steps:
        vars(paths)["steps"] = tuple(steps)  # the kept record fills the cache
    return paths
