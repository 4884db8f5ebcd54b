"""Validation oracles and the pointwise stochastic-field evaluation layer.

Three independent consistency routes for the backward solver:

* a closed-form solution of the reference pricing model whose driver
  nonlinearity vanishes identically on the solution,
* an exact algebraic reduction of the doubly stochastic equation to an
  ordinary backward equation when g depends on time only, and
* the Feynman-Kac evaluation u(t, x) = Y_t started at (t, x), which turns
  the solver into a field evaluator on a space-time lattice, with a
  weighted L^2-in-space, sup-in-time error metric.
"""

from __future__ import annotations

import dataclasses
import inspect
from typing import Callable, Optional

import numpy as np

from .model import (
    CoefficientSet,
    Domain,
    EvaluationError,
    InvalidParameterError,
    InvalidStartError,
    TimeGrid,
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
    "spde_error",
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
    Scalar state only; valid when exits are impossible or negligible.
    """
    if K <= 0 or T <= 0:
        raise InvalidParameterError(f"need K > 0 and T > 0, got K={K}, T={T}")

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

    def unshift(self, y_values: Array) -> Array:
        """Map transformed realized y back to the original equation's y.

        Exact when no path exits before maturity (the offset is then the
        same for every path at each index).
        """
        return np.asarray(y_values, dtype=np.float64) - self.offsets[:, None, :]


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
    wpath = np.asarray(wpath, dtype=np.float64)
    if wpath.shape != (grid.N, coeffs.l):
        raise InvalidParameterError(
            f"backward path shape {wpath.shape}, expected {(grid.N, coeffs.l)}"
        )

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
    returns the stacked (Y0, Z0) as u (P, k) and v (P, k, d).  The backward
    path is sliced, never resampled, and the forward noise is drawn once per
    call, so every point of the row sees the same noise.
    """
    n = grid.index_of(t_n)
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2 or points.shape[1] != coeffs.d:
        raise InvalidParameterError(f"points shape {points.shape}, expected (P, {coeffs.d})")
    wpath = np.asarray(wpath, dtype=np.float64)
    if wpath.shape != (grid.N, coeffs.l):
        raise InvalidParameterError(
            f"backward path shape {wpath.shape}, expected {(grid.N, coeffs.l)}"
        )
    # where the stopped scheme stops at once (at T, or inside the exit-shift
    # collar) the field takes the boundary payoff: u = phi(t_n, x), v = 0
    u = np.array(coeffs.eval_phi(float(grid.times[n]), points))
    v = np.zeros((points.shape[0], coeffs.k, coeffs.d))
    if n == grid.N:
        return u, v

    tail = dataclasses.replace(grid, N=grid.N - n, times=grid.times[n:])
    noise = sample_noise(seed, M, tail, coeffs.d, coeffs.l).with_backward(wpath[n:])
    for p, x in enumerate(points):
        try:
            sol = solve(coeffs, tail, domain, noise, x, partition, config,
                        shift_enabled=shift_enabled)
        except InvalidStartError:
            if not domain.contains(x):
                raise  # outside the open domain: no field value
            continue   # inside the collar
        u[p], v[p] = sol.Y0, sol.Z0
        del sol  # release this restart's paths before the next one
    return u, v


def midpoint_lattice(domain: Domain, count: int = 29) -> tuple:
    """Midpoint quadrature nodes and weights on an axis-box domain.

    count nodes per dimension at cell centers; weights are the uniform
    cell volumes, so sum(w f(x)) approximates the integral over the box.
    """
    if domain.is_whole_space:
        raise InvalidParameterError("a bounded box is needed for the spatial lattice")
    if int(count) != count or count < 1:
        raise InvalidParameterError(f"lattice resolution must be >= 1, got {count!r}")
    count = int(count)
    axes = [
        lo + (np.arange(count) + 0.5) * (hi - lo) / count
        for lo, hi in zip(domain.lower, domain.upper)
    ]
    mesh = np.meshgrid(*axes, indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=-1)
    cell_volume = float(np.prod((domain.upper - domain.lower) / count))
    weights = np.full(points.shape[0], cell_volume)
    return points, weights


def spde_error(
    u_num: Array,
    v_num: Array,
    u_ref: Callable[[float, Array], Array],
    v_ref: Callable[[float, Array], Array],
    rho: Optional[Callable[[Array], Array]],
    grid: TimeGrid,
    points: Array,
    weights: Optional[Array] = None,
) -> float:
    """Sup-in-time weighted spatial error on u plus time-summed error on v.

    u_num has shape (R, N+1, P, k) over R repeated runs (a single run may
    omit the leading axis), v_num has shape (R, N, P, k, d).  The run axis
    realizes the expectation over the external noise; rho defaults to 1
    and weights default to a plain average over the lattice.
    """
    points = np.asarray(points, dtype=np.float64)
    if points.ndim != 2:
        raise InvalidParameterError(f"points must be (P, d), got {points.shape}")
    P = points.shape[0]
    u_num = np.asarray(u_num, dtype=np.float64)
    v_num = np.asarray(v_num, dtype=np.float64)
    if u_num.ndim == 3:
        u_num = u_num[None]
    if v_num.ndim == 4:
        v_num = v_num[None]
    if u_num.ndim != 4 or u_num.shape[1] != grid.N + 1 or u_num.shape[2] != P:
        raise InvalidParameterError(
            f"u values have shape {u_num.shape}, expected (R, {grid.N + 1}, {P}, k)"
        )
    if (v_num.ndim != 5 or v_num.shape[0] != u_num.shape[0]
            or v_num.shape[1] != grid.N or v_num.shape[2] != P):
        raise InvalidParameterError(
            f"v values have shape {v_num.shape}, expected "
            f"({u_num.shape[0]}, {grid.N}, {P}, k, d)"
        )
    if weights is None:
        w = np.full(P, 1.0 / P)
    else:
        w = np.asarray(weights, dtype=np.float64)
        if w.shape != (P,):
            raise InvalidParameterError(f"weights shape {w.shape}, expected ({P},)")
    rw = w if rho is None else w * np.asarray(rho(points), dtype=np.float64)

    worst_u = 0.0
    for i in range(grid.N + 1):
        ref = np.asarray(u_ref(float(grid.times[i]), points), dtype=np.float64)
        gap = np.sum((u_num[:, i] - ref) ** 2, axis=-1)      # (R, P)
        worst_u = max(worst_u, float(np.mean(gap @ rw)))
    v_sum = 0.0
    for n in range(grid.N):
        ref = np.asarray(v_ref(float(grid.times[n]), points), dtype=np.float64)
        gap = np.sum((v_num[:, n] - ref) ** 2, axis=(-2, -1))  # (R, P)
        v_sum += grid.h * float(np.mean(gap @ rw))
    return worst_u + v_sum
