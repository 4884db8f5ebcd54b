"""Backward induction for the discrete doubly stochastic scheme.

With per-path forward increments dB and one shared backward increment
path dW, the recursion over n = N-1..0 reads

    y_N = phi(exit_time, exit_state)                        (all paths)
    z_n = E_n[ (y_{n+1} + g_{n+1} dW_n) dB_n^T ] / h        (live paths)
    y_n = E_n[ y_{n+1} + h f_n + g_{n+1} dW_n ]             (live paths)

where g_{n+1} = g(t_{n+1}, X_{n+1}, y_{n+1}, z_{n+1}(X_{n+1})) and
f_n = f(t_n, X_n, y_n, z_n(X_n)).  E_n is the hypercube regression at
the time-n states; z is explicit while the implicit y equation is run
through a short Picard loop started at zero.  E_n conditions on F_{t_n},
which knows whether a path has exited, so each step's one fit population
is the paths live after t_n: the z-fit and every y-fit run over their
rows alone, and the driver reads only them.  An exited path keeps its
frozen terminal value as y and has realized z zero.  The pass carries
y_{n+1} and z_{n+1}(X_{n+1}) of every path; the solution reads realized
values back from the fits and terminal values.  Every read of a fit is one
take of its table at the time-n cell ids.
"""

from __future__ import annotations

import dataclasses
import functools
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
    _frozen,
    _shaped,
    _whole,
)
from .regression import FitPlan, HypercubePartition, fit_plan, project

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
            raise InvalidParameterError(f"unknown mode {self.mode!r}, expected one of {MODES}")
        object.__setattr__(self, "picard_iterations",
                           _whole("picard_iterations", self.picard_iterations, 0))


@dataclasses.dataclass(frozen=True, eq=False)
class SolverDiagnostics:
    """Per-step counts of the fit plans: entry n < N is step n's one plan,
    shared by its z- and y-fits; entry N is the terminal fit's."""

    empty_cells: Array         # (N+1,) empty cells of each plan
    out_of_range: Array        # (N+1,) fit samples outside [d1, d2)
    picard_residuals: Array    # (N, I) sup-norm coefficient moves per iteration
    exit_fraction: float


@dataclasses.dataclass(frozen=True, eq=False)
class BackwardSolution:
    """Fitted cell functions y_n(.), z_n(.) over the stopped paths, the
    terminal values and the t=0 readout.  ``y_at(n)`` reads the realized y
    at t_n back on every call: the fitted function at paths live after t_n,
    the frozen terminal value at exited ones.  ``y_values`` stacks it over
    every step on first access, read-only, and keeps that (N+1)·M history."""

    paths: PathSet
    y_funcs: tuple               # length N+1
    z_funcs: tuple               # length N
    terminal: Array              # (M, k), read-only
    Y0: Array                    # (k,)
    Z0: Array                    # (k, d)
    diagnostics: SolverDiagnostics

    def y_at(self, n: int) -> Array:
        """Realized y at t_n, (M, k)."""
        n = _whole("step index n", n, 0, self.paths.grid.N + 1)
        live = self.paths.live_mask(n)[:, None]
        return np.where(live, self.y_funcs[n].evaluate(self.paths.at(n)), self.terminal)

    @functools.cached_property
    def y_values(self) -> Array:
        """(N+1, M, k) history of ``y_at``."""
        return _frozen(np.stack([self.y_at(n) for n in range(self.paths.grid.N + 1)]))


# ------------------------------ scheme pieces ------------------------------ #

def terminal_values(paths: PathSet, coeffs: CoefficientSet) -> Array:
    """Payoff at each path's stopping point, phi(exit_time, exit_state),
    in one call with the per-path exit times."""
    return coeffs.eval_phi(paths.exit_time, paths.exit_state)


def z_step(paths: PathSet, plan: FitPlan, cells: Array, base: Array,
           dB_n: Array) -> tuple:
    """Explicit regression for z at step n.

    Targets base dB_n^T / h, with base = y_{n+1} + g dW_n, are fitted by
    ``plan``, whose population is the live paths: ``base``, ``dB_n`` and
    the plan's cell ids are their rows.  Returns the fitted CellFunction
    and its values at every path's time-n cell id in ``cells``, of which
    only the live paths' rows are read: as z_n(X_n) by the driver and as
    z_{n+1}(X_{n+1}) by the g-term of step n-1.
    """
    targets = base[:, :, None] * np.asarray(dB_n, dtype=np.float64)[:, None, :]
    targets /= paths.grid.h
    z_fn = plan.fit(targets)
    return z_fn, z_fn.table.take(cells, axis=0)


def y_step(n: int, paths: PathSet, plan: FitPlan, rows: slice | Array, x_n: Array,
           cells: Array, base: Array, z_n: Array, coeffs: CoefficientSet,
           picard_iterations: int) -> tuple:
    """Implicit regression for y at step n via Picard iteration from zero.

    The fit population is the live paths, ``rows`` of the states ``x_n`` =
    ``paths.at(n)``, their cell ids ``cells``, ``base`` and the carried
    ``z_n`` (a slice while every path is live); ``plan`` is theirs and
    serves every sweep.  ``base`` holds y_{n+1} + g dW_n at the live rows
    and the frozen terminal value at exited ones.  A sweep fits base + h f
    at the live rows, f read at the previous iterate's table (a zero table
    first); with zero iterations base itself is fitted and f never enters.
    The fitted y overwrites ``base`` at the live rows, which makes it the
    realized y_n of every path.  Returns (CellFunction, base, residuals).
    """
    residuals = np.zeros(picard_iterations)
    cells_live, base_live = cells[rows], base[rows]
    if picard_iterations == 0:
        y_fn = plan.fit(base_live)
    else:
        x_live, z_live = x_n[rows], z_n[rows]
        t_n = float(paths.grid.times[n])
        table = np.zeros((plan.partition.total_cells + 1, coeffs.k))
        for it in range(picard_iterations):
            hf = paths.grid.h * coeffs.eval_f(t_n, x_live, table.take(cells_live, axis=0), z_live)
            hf += base_live
            y_fn = plan.fit(hf)
            # both zero rows add 0 to the max
            residuals[it] = float(np.max(np.abs(y_fn.table - table)))
            table = y_fn.table
    base[rows] = y_fn.table.take(cells_live, axis=0)
    return y_fn, base, residuals


def _g_times(gv: Array, dW_n: Array) -> Array:
    """gv @ dW_n for g values (M, k, l); at l = 1 the elementwise product,
    whose + 0.0 turns -0.0 into the +0.0 that matmul's sum gives."""
    if dW_n.shape[0] > 1:
        return gv @ dW_n
    out = gv[:, :, 0] * dW_n[0]
    out += 0.0
    return out


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
    ordinary backward equation relies on this hook.  The pass reads the
    per-step record, so a PathSet simulated without keep_steps runs its
    forward pass once more here; ``solve`` keeps the record instead.
    """
    if (noise.M, noise.l) != (paths.M, coeffs.l):
        raise InvalidParameterError(
            f"noise holds {noise.M} paths and l={noise.l}, but the path set "
            f"holds {paths.M} paths and the model has l={coeffs.l}"
        )
    if not all(g is grid or np.array_equal(g.times, grid.times) for g in (paths.grid, noise.grid)):
        raise InvalidParameterError("paths and noise must lie on the solver's time grid")
    if config.mode != "bsde" and coeffs.g is None:
        raise InvalidParameterError(
            f"mode {config.mode!r} needs a g coefficient; none was supplied")
    run_coeffs = dataclasses.replace(coeffs, g=None) if config.mode == "bsde" else coeffs

    N, M, k, d = grid.N, paths.M, coeffs.k, coeffs.d
    I = config.picard_iterations

    if terminal is None:
        term = terminal_values(paths, run_coeffs)
    else:
        term = _shaped("terminal override", terminal, (M, k))
        if not np.isfinite(term).all():
            raise InvalidParameterError("terminal override contains non-finite entries")

    # a copy of its own, so freezing it never touches the caller's array
    term = _frozen(term.copy())
    y_funcs: list = [None] * (N + 1)
    z_funcs: list = [None] * N
    residuals = np.zeros((N, I))
    y_funcs[N] = project(partition, paths.exit_state, term)

    # carried: y_{n+1} and z_{n+1}(X_{n+1}) of every path; z_N = 0
    y_next, z_next = term, np.zeros((M, k, d))
    first_exit = int(paths.exit_index.min())
    for n in range(N - 1, -1, -1):
        # the paths live after t_n are the one fit population of the step:
        # a slice, so views, before the first exit and indices after it
        rows = slice(None) if n < first_exit else np.flatnonzero(paths.live_mask(n))
        x_n = paths.at(n)
        cells = partition.cell_index(x_n)
        plan = fit_plan(partition, cells[rows])
        try:
            # base = y_{n+1} + g(t_{n+1}, X_{n+1}, y_{n+1}, z_{n+1}(X_{n+1})) dW_n
            # on live paths, shared by the z- and the y-regression; steps[n]
            # holds X_{n+1} of exactly the live paths
            base = y_next.copy()
            if run_coeffs.g is not None:
                gv = run_coeffs.eval_g(float(grid.times[n + 1]), paths.steps[n],
                                       y_next[rows], z_next[rows])
                base[rows] += _g_times(gv, noise.backward[n])
            z_funcs[n], z_next = z_step(paths, plan, cells, base[rows], noise.forward[n][rows])
            y_funcs[n], y_next, residuals[n] = y_step(
                n, paths, plan, rows, x_n, cells, base, z_next, run_coeffs, I)
        except BdsdeError as err:
            raise type(err)(f"backward step n={n}: {err}") from err

    diagnostics = SolverDiagnostics(
        empty_cells=_frozen(np.array([fn.empty_cells for fn in y_funcs])),
        out_of_range=_frozen(np.array([fn.out_of_range_samples for fn in y_funcs])),
        picard_residuals=_frozen(residuals),
        exit_fraction=float(paths.exit_detected.mean()),
    )
    return BackwardSolution(
        paths=paths,
        y_funcs=tuple(y_funcs), z_funcs=tuple(z_funcs), terminal=term,
        Y0=y_next[0].copy(), Z0=z_next[0].copy(),
        diagnostics=diagnostics,
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
    sim_domain = domain if config.mode == "bdsde-random-terminal" else Domain.whole_space(coeffs.d)
    paths = simulate_stopped(coeffs, grid, sim_domain, noise, x0,
                             shift_enabled=shift_enabled, keep_steps=True)
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
    Frobenius gap in z.  Steps with no pre-exit path are skipped.  Each
    row is read once and both fits are evaluated at its live states, which
    gives the bytes of ``y_at(n)`` and of z_funcs[n] at those paths.
    """
    paths = solution.paths
    grid = paths.grid
    worst_y = z_sum = 0.0
    for n in range(grid.N):
        live = paths.live_mask(n)
        if not live.any():
            continue
        x = paths.at(n)[live]
        t = float(grid.times[n])
        y = solution.y_funcs[n].evaluate(x)
        z = solution.z_funcs[n].evaluate(x)
        dy = _shaped("reference_y(t, x)", reference_y(t, x), y.shape) - y
        worst_y = max(worst_y, float(np.mean(np.sum(dy * dy, axis=-1))))
        dz = _shaped("reference_z(t, x)", reference_z(t, x), z.shape) - z
        z_sum += grid.h * float(np.mean(np.sum(dz * dz, axis=(-2, -1))))
    return worst_y + z_sum
