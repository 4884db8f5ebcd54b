"""Backward induction for the discrete doubly stochastic scheme.

With per-path forward increments dB and one shared backward increment
path dW, the recursion over n = N-1..0 reads

    y_N = phi(exit_time, exit_state)                        (all paths)
    z_n = E_n[ (y_{n+1} + g_{n+1} dW_n) dB_n^T ] / h        (live paths)
    y_n = E_n[ y_{n+1} ] + 1_live ( h E_n[ f_n ] + E_n[ g_{n+1} dW_n ] )

where g_{n+1} = g(t_{n+1}, X_{n+1}, y_{n+1}, z_{n+1}(X_{n+1})) and
f_n = f(t_n, X_n, y_n, z_n(X_n)).  E_n is the hypercube regression at
the time-n states; z is explicit while the implicit y equation is run
through a short Picard loop started at zero.  Paths that exited carry
their frozen terminal value through the y-regression population but are
excluded from the z- and driver-regressions, and their realized z is
zero.
"""

from __future__ import annotations

import dataclasses
from typing import Callable, Optional

import numpy as np

from .forward import PathSet, simulate_stopped
from .model import (
    BdsdeError,
    CoefficientSet,
    Domain,
    InvalidParameterError,
    NoiseBundle,
    TimeGrid,
)
from .regression import HypercubePartition, fit_cells, gather, project

Array = np.ndarray

__all__ = [
    "MODES",
    "SolverConfig",
    "SolverDiagnostics",
    "BackwardSolution",
    "terminal_values",
    "z_step",
    "y_step",
    "backward_induction",
    "solve",
    "strong_error",
]

MODES = ("bsde", "bdsde-fixed-horizon", "bdsde-random-terminal")


# ------------------------------ configuration ------------------------------ #

@dataclasses.dataclass(frozen=True)
class SolverConfig:
    """Mode and Picard depth of the backward pass.

    bsde drops the backward noise term entirely (g is forced off the data
    path, so results cannot depend on dW even bitwise); bdsde-fixed-horizon
    keeps g but never stops paths; bdsde-random-terminal stops paths at the
    domain exit.
    """

    mode: str
    picard_iterations: int = 3

    def __post_init__(self):
        if self.mode not in MODES:
            raise InvalidParameterError(
                f"unknown mode {self.mode!r}, expected one of {MODES}"
            )
        if int(self.picard_iterations) != self.picard_iterations or self.picard_iterations < 0:
            raise InvalidParameterError(
                f"picard_iterations must be a nonnegative integer, got {self.picard_iterations!r}"
            )


@dataclasses.dataclass(frozen=True)
class SolverDiagnostics:
    empty_cells_y: Array       # (N+1,) per-step empty-cell count of the y fit
    empty_cells_z: Array       # (N,)
    out_of_range_y: Array      # (N+1,) per-step fit samples outside [d1, d2)
    out_of_range_z: Array      # (N,)
    picard_residuals: Array    # (N, I) sup-norm coefficient moves per iteration
    exit_fraction: float


@dataclasses.dataclass(frozen=True)
class BackwardSolution:
    """Fitted cell functions, realized per-path values, and t=0 readout."""

    paths: PathSet
    y_funcs: tuple               # length N+1
    z_funcs: tuple               # length N
    y_values: Array              # (N+1, M, k)
    z_values: Array              # (N+1, M, k, d); index N is identically zero
    Y0: Array                    # (k,)
    Z0: Array                    # (k, d)
    diagnostics: SolverDiagnostics


# ------------------------------ scheme pieces ------------------------------ #

def terminal_values(paths: PathSet, coeffs: CoefficientSet) -> Array:
    """Payoff at each path's stopping point, phi(exit_time, exit_state),
    in one call with the per-path exit times."""
    return coeffs.eval_phi(paths.exit_time, paths.exit_state)


def z_step(
    n: int,
    paths: PathSet,
    cells: Array,
    base: Array,
    dB_n: Array,
    partition: HypercubePartition,
) -> tuple:
    """Explicit regression for z at step n.

    Live-path targets base dB_n^T / h, with base = y_{n+1} + g dW_n, are
    fitted at the time-n cell ids; the fit population is live paths only.
    Returns the fitted CellFunction and realized values (zero rows for
    exited paths).
    """
    live = paths.live_mask(n)
    targets = (base[:, :, None]
               * np.asarray(dB_n, dtype=np.float64)[:, None, :] / paths.grid.h)
    z_fn = fit_cells(partition, cells, targets, mask=live)
    return z_fn, gather(z_fn.coefficients, np.where(live, cells, -1))


def y_step(
    n: int,
    paths: PathSet,
    cells: Array,
    base: Array,
    z_n: Array,
    coeffs: CoefficientSet,
    partition: HypercubePartition,
    picard_iterations: int,
) -> tuple:
    """Implicit regression for y at step n via Picard iteration from zero.

    Every path contributes to the fit population: live paths carry the
    full target base + h f with base = y_{n+1} + g dW_n, exited paths carry
    their frozen value so the conditional-mean term survives for their
    cells.  The iterates live as coefficient arrays and are read back at
    the live paths' cell ids.  With zero iterations the projection of base
    is returned and f never enters.  Returns (CellFunction, realized
    values, residuals).
    """
    live = paths.live_mask(n)
    rows = np.flatnonzero(live)
    residuals = np.zeros(picard_iterations)
    if picard_iterations == 0:
        y_fn = fit_cells(partition, cells, base)
    else:
        x_live, z_live, cells_live = paths.states[rows, n], z_n[rows], cells[rows]
        t_n = float(paths.grid.times[n])
        coef = np.zeros((partition.total_cells, coeffs.k))
        hf = np.zeros_like(base)
        for it in range(picard_iterations):
            if rows.size:
                fv = coeffs.eval_f(t_n, x_live, gather(coef, cells_live), z_live)
                hf[rows] = paths.grid.h * fv
            y_fn = fit_cells(partition, cells, base + hf)
            residuals[it] = float(np.max(np.abs(y_fn.coefficients - coef)))
            coef = y_fn.coefficients
    realized = np.where(live[:, None], gather(y_fn.coefficients, cells), base)
    return y_fn, realized, residuals


# ------------------------------ full recursion ----------------------------- #

def backward_induction(
    coeffs: CoefficientSet,
    grid: TimeGrid,
    paths: PathSet,
    noise: NoiseBundle,
    partition: HypercubePartition,
    config: SolverConfig,
    *,
    terminal: Optional[Array] = None,
) -> BackwardSolution:
    """Run the full backward pass over an existing PathSet.

    ``terminal`` overrides the payoff-based terminal values with an
    arbitrary per-path vector; the equivalence transformation to an
    ordinary backward equation relies on this hook.
    """
    if noise.M != paths.M:
        raise InvalidParameterError(
            f"noise holds {noise.M} paths but the path set holds {paths.M}"
        )
    if config.mode != "bsde" and coeffs.g is None:
        raise InvalidParameterError(
            f"mode {config.mode!r} needs a g coefficient; none was supplied"
        )
    run_coeffs = dataclasses.replace(coeffs, g=None) if config.mode == "bsde" else coeffs

    N, M, k, d = grid.N, paths.M, coeffs.k, coeffs.d
    I = int(config.picard_iterations)

    if terminal is None:
        term = terminal_values(paths, run_coeffs)
    else:
        term = np.asarray(terminal, dtype=np.float64)
        if term.shape != (M, k):
            raise InvalidParameterError(
                f"terminal override shape {term.shape}, expected {(M, k)}"
            )
        if not np.isfinite(term).all():
            raise InvalidParameterError("terminal override contains non-finite entries")

    y_values = np.empty((N + 1, M, k))
    z_values = np.zeros((N + 1, M, k, d))
    y_values[N] = term
    y_funcs: list = [None] * (N + 1)
    z_funcs: list = [None] * N
    residuals = np.zeros((N, I))
    y_funcs[N] = project(partition, paths.states[:, N], term)

    # cell ids of the time-n states, computed once per step; the ids of
    # step n+1 are kept one step longer to read z_{n+1} at X_{n+1}
    cells_next: Optional[Array] = None
    for n in range(N - 1, -1, -1):
        live = paths.live_mask(n)
        cells = partition.cell_index(paths.states[:, n])
        try:
            # base = y_{n+1} + g(t_{n+1}, X_{n+1}, y_{n+1}, z_{n+1}(X_{n+1})) dW_n
            # on live paths, shared by the z- and the y-regression
            base = y_values[n + 1].copy()
            rows = np.flatnonzero(live)
            if run_coeffs.g is not None and rows.size:
                z_next = (np.zeros((rows.size, k, d)) if n == N - 1
                          else gather(z_funcs[n + 1].coefficients, cells_next[rows]))
                gv = run_coeffs.eval_g(float(grid.times[n + 1]), paths.states[rows, n + 1],
                                       y_values[n + 1][rows], z_next)
                base[rows] += gv @ noise.backward[n]
            z_funcs[n], z_values[n] = z_step(n, paths, cells, base,
                                             noise.forward[:, n], partition)
            y_funcs[n], y_values[n], residuals[n] = y_step(
                n, paths, cells, base, z_values[n], run_coeffs, partition, I)
        except BdsdeError as err:
            raise type(err)(f"backward step n={n}: {err}") from err
        cells_next = cells

    # row 0 of the time-0 states is the start point x0
    Y0 = gather(y_funcs[0].coefficients, cells[:1])[0]
    Z0 = gather(z_funcs[0].coefficients, cells[:1])[0]

    # empty_cells_y, empty_cells_z, out_of_range_y, out_of_range_z
    per_step = [np.array([getattr(fn, attr) for fn in funcs])
                for attr in ("empty_cells", "out_of_range_samples")
                for funcs in (y_funcs, z_funcs)]
    for a in (y_values, z_values, residuals, *per_step):
        a.setflags(write=False)
    diagnostics = SolverDiagnostics(
        *per_step, picard_residuals=residuals,
        exit_fraction=float(paths.exit_detected.mean()),
    )
    return BackwardSolution(
        paths=paths,
        y_funcs=tuple(y_funcs), z_funcs=tuple(z_funcs),
        y_values=y_values, z_values=z_values,
        Y0=Y0, Z0=Z0, diagnostics=diagnostics,
    )


def solve(
    coeffs: CoefficientSet,
    grid: TimeGrid,
    domain: Domain,
    noise: NoiseBundle,
    x0,
    partition: HypercubePartition,
    config: SolverConfig,
    *,
    shift_enabled: bool = True,
) -> BackwardSolution:
    """Simulate forward paths and run the backward recursion.

    Only bdsde-random-terminal stops paths at the domain boundary; the
    other modes simulate in the whole space, which makes fixed-horizon
    runs with a whole-space domain bitwise identical to random-terminal
    ones.
    """
    if config.mode == "bdsde-random-terminal":
        sim_domain = domain
    else:
        sim_domain = Domain.whole_space(coeffs.d)
    paths = simulate_stopped(coeffs, grid, sim_domain, noise, x0,
                             shift_enabled=shift_enabled)
    return backward_induction(coeffs, grid, paths, noise, partition, config)


# ------------------------------ error metric ------------------------------- #

def strong_error(
    solution: BackwardSolution,
    reference_y: Callable[[float, Array], Array],
    reference_z: Callable[[float, Array], Array],
) -> float:
    """Empirical squared strong error against reference (t, x) maps.

    max over time steps of the pre-exit sample mean of |y_ref - y_n|^2,
    plus the Riemann sum h * sum_n of the pre-exit mean of the squared
    Frobenius gap in z.  Steps with no pre-exit path are skipped.
    """
    paths = solution.paths
    grid = paths.grid
    worst_y = 0.0
    z_sum = 0.0
    for n in range(grid.N):
        live = paths.live_mask(n)
        if not live.any():
            continue
        x = paths.states[live, n]
        t = float(grid.times[n])
        dy = np.asarray(reference_y(t, x), dtype=np.float64) - solution.y_values[n][live]
        worst_y = max(worst_y, float(np.mean(np.sum(dy * dy, axis=-1))))
        dz = np.asarray(reference_z(t, x), dtype=np.float64) - solution.z_values[n][live]
        z_sum += grid.h * float(np.mean(np.sum(dz * dz, axis=(-2, -1))))
    return worst_y + z_sum
