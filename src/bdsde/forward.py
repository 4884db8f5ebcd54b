"""Forward Euler paths of a diffusion stopped at a discrete exit time.

The state evolves on a uniform grid by

    X_{i+1} = X_i + b(X_i) h + sigma(X_i) dB_i

and is frozen at the first index i >= 1 where it leaves a shrunken copy of
the open domain.  The shrinkage,

    shift(x) = C0 * sqrt(h) * | n(x)^T sigma(x) |,        C0 = 0.5826,

with n(x) the inward unit normal of the nearest face, compensates the
systematic late detection of discrete-time exit tests: between grid points
the continuous path can cross the boundary and return unseen, so the raw
test overestimates the exit time by O(sqrt(h)).  Testing against the
shrunken domain restores first-order accuracy of exit-time functionals.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from .model import (
    CoefficientSet,
    Domain,
    InvalidParameterError,
    InvalidStartError,
    NoiseBundle,
    TimeGrid,
    _checked,
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

    states holds the full (M, N+1, d) array; rows are frozen after exit,
    so states[m, i] == states[m, exit_index[m]] for every i >= exit_index[m].
    exit_index lies in {1..N}; N doubles as the no-exit sentinel, and
    exit_detected distinguishes a genuine last-step exit from plain
    survival to maturity.
    """

    grid: TimeGrid
    domain: Domain
    states: Array          # (M, N+1, d)
    exit_index: Array      # (M,) int64
    exit_detected: Array   # (M,) bool
    shift_enabled: bool

    @property
    def M(self) -> int:
        return self.states.shape[0]

    @property
    def exit_state(self) -> Array:
        return self.states[np.arange(self.M), self.exit_index]

    @property
    def exit_time(self) -> Array:
        return self.grid.times[self.exit_index]

    def live_mask(self, i: int) -> Array:
        """Boolean mask of paths still inside the domain strictly after t_i."""
        return self.exit_index > i


# ------------------------------ elementary ops ----------------------------- #

def shift_width(
    domain: Domain,
    x: Array,
    sigma: Callable[[Array], Array],
    h: float,
) -> Array:
    """Half-width of the exit-test boundary shift at each state in x.

    Parameters
    ----------
    domain : Domain
        Axis-box or whole-space domain; the whole space needs no shift.
    x : (M, d) array
        States at which to evaluate the shift.
    sigma : callable
        Diffusion coefficient map, (M, d) -> (M, d, d).
    h : float
        Grid step.

    Returns
    -------
    (M,) array of C0 * sqrt(h) * |n(x)^T sigma(x)|, zero for the whole space.
    """
    if h <= 0.0:
        raise InvalidParameterError(f"step must be positive, got h={h}")
    x = np.asarray(x, dtype=np.float64)
    if domain.is_whole_space:
        return np.zeros(x.shape[0])
    n = domain.inward_normal(x)
    s = _checked("sigma", sigma(x), x.shape[:-1] + (x.shape[-1],) * 2, x)
    row = np.einsum("mi,mij->mj", n, s)
    return C0 * np.sqrt(h) * np.linalg.norm(row, axis=-1)


def euler_step(coeffs: CoefficientSet, x: Array, h: float, dB: Array) -> Array:
    """One explicit Euler update x + b(x) h + sigma(x) dB of (M, d) states.

    Coefficient outputs are shape- and finiteness-checked, with failures
    reported against the offending coefficient.
    """
    return x + coeffs.eval_b(x) * h + np.einsum("mij,mj->mi",
                                                coeffs.eval_sigma(x), dB)


# ------------------------------ simulation --------------------------------- #

def _inside_shifted(
    domain: Domain,
    x: Array,
    sigma: Callable[[Array], Array],
    h: float,
    shift_enabled: bool,
) -> Array:
    """Strict membership in the (optionally shrunken) open domain.

    Points on the shrunken boundary count as outside.  boundary_distance
    is negative outside the box, so a single strict comparison covers both
    "left the box" and "entered the shift collar".
    """
    if domain.is_whole_space:
        return np.ones(x.shape[0], dtype=bool)
    width = shift_width(domain, x, sigma, h) if shift_enabled else 0.0
    return domain.boundary_distance(x) > width


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

    The exit test runs at indices i >= 1 only; the start point must lie
    strictly inside the shrunken domain, which is checked up front.  Exited
    paths carry their exit state forward unchanged so that downstream
    regression can index states[:, i] uniformly.
    """
    if noise.d != coeffs.d:
        raise InvalidParameterError(
            f"noise dimension {noise.d} does not match coefficient dimension {coeffs.d}"
        )
    if noise.grid is not grid and not np.array_equal(noise.grid.times, grid.times):
        raise InvalidParameterError("noise was sampled on a different time grid")
    x0 = np.asarray(x0, dtype=np.float64).reshape(-1)
    if x0.shape != (coeffs.d,):
        raise InvalidParameterError(
            f"start point must have shape ({coeffs.d},), got {x0.shape}"
        )
    x0row = x0[None, :]
    if not domain.contains(x0row)[0]:
        raise InvalidStartError(f"start point {x0} lies outside the open domain")
    if shift_enabled and not domain.is_whole_space:
        w0 = shift_width(domain, x0row, coeffs.sigma, grid.h)[0]
        if not domain.boundary_distance(x0row)[0] > w0:
            raise InvalidStartError(
                f"start point {x0} is inside the domain but within the "
                f"boundary shift {w0:.6g} of its boundary"
            )

    M, N, d = noise.M, grid.N, coeffs.d
    states = np.empty((M, N + 1, d))
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
            inside = _inside_shifted(
                domain, states[idx, i + 1], coeffs.sigma, grid.h, shift_enabled
            )
            left = idx[~inside]
            exit_index[left] = i + 1
            exit_detected[left] = True
            alive[left] = False

    states.setflags(write=False)
    exit_index.setflags(write=False)
    exit_detected.setflags(write=False)
    return PathSet(
        grid=grid,
        domain=domain,
        states=states,
        exit_index=exit_index,
        exit_detected=exit_detected,
        shift_enabled=shift_enabled,
    )
