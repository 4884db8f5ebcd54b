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
"""

from __future__ import annotations

import dataclasses

import numpy as np

from .model import (
    CoefficientSet,
    Domain,
    InvalidParameterError,
    InvalidStartError,
    NoiseBundle,
    TimeGrid,
    _shaped,
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


# ------------------------------ path container ----------------------------- #

@dataclasses.dataclass(frozen=True)
class PathSet:
    """Stopped Euler paths with per-path exit bookkeeping.

    states is time-major, (N+1, M, d), so the states at t_i are the
    contiguous block states[i].  Paths are frozen after exit:
    states[i, m] == states[exit_index[m], m] for every i >= exit_index[m].
    exit_index lies in {0..N}: 0 means the start lay in the shift collar,
    and N doubles as the no-exit sentinel, so exit_detected distinguishes a
    genuine last-step exit from plain survival to maturity.
    """

    grid: TimeGrid
    states: Array          # (N+1, M, d)
    exit_index: Array      # (M,) int64
    exit_detected: Array   # (M,) bool

    @property
    def M(self) -> int:
        return self.states.shape[1]

    @property
    def exit_state(self) -> Array:
        return self.states[self.exit_index, np.arange(self.M)]

    @property
    def exit_time(self) -> Array:
        return self.grid.times[self.exit_index]

    def live_mask(self, i: int) -> Array:
        """Boolean mask of paths still inside the domain strictly after t_i."""
        return self.exit_index > i


# ------------------------------ elementary ops ----------------------------- #

def shift_width(
    axis: Array,
    x: Array,
    coeffs: CoefficientSet,
    h: float,
) -> Array:
    """Half-width of the exit-test boundary shift at each state in x.

    Parameters
    ----------
    axis : (M,) int array
        Axis of the nearest face of each state, from ``Domain.nearest_face``.
    x : (M, d) array
        States at which to evaluate the shift.
    coeffs : CoefficientSet
        Its sigma is read through ``eval_sigma``, which checks shape and finiteness.
    h : float
        Grid step.

    Returns
    -------
    (M,) array of C0 * sqrt(h) * ||sigma(x)[j, :]||, with j = axis.  The
    nearest face's normal is +-e_j, so the row is |n(x)^T sigma(x)|.
    """
    if not 0.0 < h < np.inf:
        raise InvalidParameterError(f"step must be positive and finite, got h={h}")
    x = np.asarray(x, dtype=np.float64)
    M, d = x.shape
    s = coeffs.eval_sigma(x)
    # row axis[m] of each s[m], read with one flat take; the norm is the
    # sum of squares np.linalg.norm forms
    row = s.reshape(M * d, d).take(np.arange(0, M * d, d) + axis, axis=0)
    return C0 * np.sqrt(h) * np.sqrt((row * row).sum(-1))


def euler_step(coeffs: CoefficientSet, x: Array, h: float, dB: Array) -> Array:
    """One explicit Euler update x + b(x) h + sigma(x) dB of (M, d) states.

    Coefficient outputs are shape- and finiteness-checked, with failures
    reported against the offending coefficient.
    """
    return x + coeffs.eval_b(x) * h + np.einsum("mij,mj->mi",
                                                coeffs.eval_sigma(x), dB)


# ------------------------------ simulation --------------------------------- #

def simulate_stopped(
    coeffs: CoefficientSet,
    grid: TimeGrid,
    domain: Domain,
    noise: NoiseBundle,
    x0: Array,
    *,
    shift_enabled: bool = True,
) -> PathSet:
    """Evolve M Euler paths from x0 and stop each at its first discrete exit.

    One test decides membership in the shrunken open domain, for the start
    point and after every step: the nearest-face distance of x (negative
    outside the box) exceeds shift_width(x), strictly, with width 0 when the
    shift is off.  Paths stop where they fail it, so a start in the shift
    collar stops every path at t_0; a start outside the open domain, or a
    non-finite one, raises InvalidStartError.  The whole space (the box with
    infinite bounds) is never left, so neither test nor shift is computed
    there.  While every path runs, a step reads the block noise.forward[i]
    and writes states[i+1] whole; after the first exit the running paths are
    carried compactly with their indices, and a step copies the block
    states[i] to states[i+1] and scatters the running paths over it.
    """
    if not noise.d == domain.d == coeffs.d:
        raise InvalidParameterError(
            f"noise dimension {noise.d} and domain dimension {domain.d} must "
            f"match coefficient dimension {coeffs.d}"
        )
    if noise.grid is not grid and not np.array_equal(noise.grid.times, grid.times):
        raise InvalidParameterError("noise was sampled on a different time grid")
    x0 = _shaped("start point", np.reshape(x0, -1), (coeffs.d,))
    if not domain.contains(x0[None, :])[0]:
        raise InvalidStartError(f"start point {x0} lies outside the open domain")
    test_exits = not domain.is_whole_space

    def shifted_test(x: Array) -> Array:
        """Which rows of x lie strictly inside the shrunken domain; one face
        scan gives both the distance and the shift's axis."""
        dist, axis = domain.nearest_face(x)
        return dist > (shift_width(axis, x, coeffs, grid.h) if shift_enabled else 0.0)

    M, N, d = noise.M, grid.N, coeffs.d
    states = np.empty((N + 1, M, d))
    states[0] = x0
    start_inside = not test_exits or shifted_test(x0[None, :])[0]
    exit_index = np.full(M, N if start_inside else 0, dtype=np.int64)
    live = None if start_inside else np.arange(0)   # None while every path runs
    x = states[0, :M if start_inside else 0]        # the running paths' states

    for i in range(N):
        if live is None:
            x = euler_step(coeffs, x, grid.h, noise.forward[i])
            states[i + 1] = x
        else:
            x = euler_step(coeffs, x, grid.h, noise.forward[i].take(live, axis=0))
            states[i + 1] = states[i]
            states[i + 1, live] = x
        if test_exits:
            inside = shifted_test(x)
            if not inside.all():
                rows = np.arange(M) if live is None else live
                exit_index[rows[~inside]] = i + 1
                keep = np.flatnonzero(inside)
                live, x = rows.take(keep), x.take(keep, axis=0)
    exit_detected = np.ones(M, dtype=bool)
    exit_detected[slice(None) if live is None else live] = False

    for a in (states, exit_index, exit_detected):
        a.setflags(write=False)
    return PathSet(grid=grid, states=states, exit_index=exit_index,
                   exit_detected=exit_detected)
