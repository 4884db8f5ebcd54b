"""Validation oracles and the pointwise stochastic-field evaluation layer.

Three independent consistency routes for the backward solver:

* a closed-form solution of the reference pricing model whose driver
  nonlinearity vanishes identically on the solution,
* an exact algebraic reduction of the doubly stochastic equation to an
  ordinary backward equation when g depends on time only, and
* the Feynman-Kac evaluation u(t, x) = Y_t started at (t, x), which turns
  the solver into a field evaluator on a space-time lattice.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable

import numpy as np

from .model import (
    CoefficientSet,
    Domain,
    EvaluationError,
    InvalidParameterError,
    TimeGrid,
    _shaped,
    _whole,
    sample_noise,
)
from .regression import HypercubePartition
from .solver import SolverConfig, solve

Array = np.ndarray

__all__ = [
    "OracleSolution",
    "forward_contract_oracle",
    "TransformedProblem",
    "transform_to_bsde",
    "spde_point",
    "midpoint_lattice",
]


# ------------------------------ closed form -------------------------------- #

@dataclasses.dataclass(frozen=True)
class OracleSolution:
    """Exact (value, gradient-proxy) pair for validation runs.

    u maps (t, states (M, d)) to (M, k); z maps (t, states) to (M, k, d),
    the sigma-weighted spatial gradient the scheme's z approximates.
    """

    u: Callable[[float, Array], Array]
    z: Callable[[float, Array], Array]


def forward_contract_oracle(
    K: float,
    r: float,
    T: float,
    sigma_fn: Callable[[Array], Array],
) -> OracleSolution:
    """Exact solution u(t, x) = K e^{-r (T - t)} - x of the reference model.

    The reference driver -theta z - r y + (y - z/sigma)^- (R - r) is linear
    on this solution: y - z/sigma = K e^{-r(T-t)} > 0 kills the kink, so
    the pair (u, -sigma) solves the scheme's continuous limit exactly.
    Scalar state only.  Under the payoff K - x it needs exits to be
    impossible or negligible; under phi = u at each path's exit time, with
    g = 0, Y_t = u(t, X_t) at every stopping time, so it is exact with exits.
    """
    if not (0 < K < np.inf and 0 < T < np.inf):
        raise InvalidParameterError(f"need finite K > 0 and T > 0, got K={K}, T={T}")

    def u(t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        return K * np.exp(-r * (T - t)) - x[:, :1]

    def z(t: float, x: Array) -> Array:
        x = np.asarray(x, dtype=np.float64)
        return -np.asarray(sigma_fn(x), dtype=np.float64)

    return OracleSolution(u=u, z=z)


# ------------------------- reduction to plain BSDE ------------------------- #

@dataclasses.dataclass(frozen=True)
class TransformedProblem:
    """Plain-BSDE equivalent of a doubly stochastic problem with time-only g.

    offsets[n] accumulates sum_{j<n} g(t_{j+1}) dW_j, a run constant per
    time index since the backward path is shared.  The transformed
    coefficients drop g and absorb the offset into the driver's y slot;
    terminal values must be shifted per path by the offset at the exit
    index, and solved values un-shift back by offsets[n].
    """

    coeffs: CoefficientSet
    offsets: Array            # (N+1, k)

    def shift_terminal(self, terminal: Array, exit_index: Array) -> Array:
        terminal = np.asarray(terminal, dtype=np.float64)
        return terminal + self.offsets[np.asarray(exit_index, dtype=np.int64)]


def transform_to_bsde(
    g_time_only: Callable[[float], Array],
    coeffs: CoefficientSet,
    grid: TimeGrid,
    wpath: Array,
) -> TransformedProblem:
    """Absorb a time-only g into terminal and driver, eliminating dW terms.

    With G_n = sum_{j<n} g(t_{j+1}) dW_j the substitution ybar = y + G
    turns the doubly stochastic recursion into a plain backward one with
    driver fbar(t, x, y, z) = f(t, x, y - G_{n(t)}, z) and terminal
    shifted by G at the exit index.  The empirical round trip is exact
    (identical projections) when f has no y or z feedback; with feedback
    it agrees up to Picard and z-regression resolution.
    """
    params = [
        p for p in inspect.signature(g_time_only).parameters.values()
        if p.kind in (p.POSITIONAL_ONLY, p.POSITIONAL_OR_KEYWORD)
        and p.default is p.empty
    ]
    if len(params) != 1:
        raise InvalidParameterError(
            "the transformation needs g as a function of time alone; "
            f"got a callable with {len(params)} required arguments"
        )
    wpath = _shaped("backward path W", wpath, (grid.N, coeffs.l))

    offsets = np.zeros((grid.N + 1, coeffs.k))
    for n in range(grid.N):
        gv = np.asarray(g_time_only(float(grid.times[n + 1])), dtype=np.float64)
        try:
            gv = np.broadcast_to(gv, (coeffs.k, coeffs.l))
        except ValueError:
            raise InvalidParameterError(
                f"g({grid.times[n + 1]}) has shape {gv.shape}, "
                f"expected ({coeffs.k}, {coeffs.l})"
            ) from None
        with np.errstate(invalid="ignore", over="ignore"):  # refused below
            offsets[n + 1] = offsets[n] + gv @ wpath[n]
    if not np.isfinite(offsets).all():
        raise EvaluationError("time-only g produced non-finite offsets")
    offsets.setflags(write=False)

    inner_f = coeffs.f

    def fbar(t: float, x: Array, y: Array, z: Array) -> Array:
        n = grid.index_of(t)
        return inner_f(t, x, y - offsets[n], z)

    return TransformedProblem(
        coeffs=dataclasses.replace(coeffs, f=fbar, g=None),
        offsets=offsets,
    )


# --------------------------- pointwise field values ------------------------ #

def spde_point(
    coeffs: CoefficientSet,
    grid: TimeGrid,
    domain: Domain,
    wpath: Array,
    t_n: float,
    points: Array,
    M: int,
    partition: HypercubePartition,
    config: SolverConfig,
    seed: int,
    *,
    shift_enabled: bool = True,
) -> tuple:
    """Field values (u, v) on a row of lattice points via restarted solves.

    Restarts the diffusion at (t_n, x) for every row x of ``points`` (P, d)
    on the tail grid {t_n, ..., T}, which keeps the absolute grid times, and
    returns the stacked (Y0, Z0) as u (P, k) and v (P, k, d).  Where the
    stopped scheme stops at once (at t_n = T, whose tail grid has no step,
    or in the exit-shift collar) that solve gives u = phi(t_n, x) and v = 0.
    The whole W (N, l) is checked, then frozen and sliced to W[n:], never
    resampled; the forward noise is drawn once per call, shared by all points.
    """
    n = grid.index_of(t_n)
    points = _shaped("points", points, ("P", coeffs.d))
    wpath = _shaped("backward path W", wpath, (grid.N, coeffs.l)).copy()
    if not np.isfinite(wpath).all():
        raise InvalidParameterError("backward path W must be finite")
    wpath.setflags(write=False)
    u = np.empty((points.shape[0], coeffs.k))
    v = np.empty((points.shape[0], coeffs.k, coeffs.d))

    tail = dataclasses.replace(grid, times=grid.times[n:])
    noise = sample_noise(seed, M, tail, coeffs.d, coeffs.l)
    noise = dataclasses.replace(noise, backward=wpath[n:])
    for p, x in enumerate(points):
        sol = solve(coeffs, tail, domain, noise, x, partition, config,
                    shift_enabled=shift_enabled)
        u[p], v[p] = sol.Y0, sol.Z0
        del sol  # release this restart's paths before the next one
    return u, v


def midpoint_lattice(domain: Domain, count: int = 29) -> Array:
    """Midpoint lattice (P, d) on an axis-box domain: count nodes per
    dimension at cell centers, P = count**d."""
    if not (np.isfinite(domain.lower).all() and np.isfinite(domain.upper).all()):
        raise InvalidParameterError("a bounded box is needed for the spatial lattice")
    count = _whole("lattice resolution", count, 1)
    axes = [
        lo + (np.arange(count) + 0.5) * (hi - lo) / count
        for lo, hi in zip(domain.lower, domain.upper)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    return np.stack([m.ravel() for m in mesh], axis=-1)
