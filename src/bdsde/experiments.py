"""Bundled reference model, repetition statistics, and table generation.

The reference family is a one-dimensional hedging model: geometric Brownian
motion with a nonlinear interest-rate driver, short payoff K - x, and three
optional backward-noise couplings.  Everything here is plumbing around
``solve``: turning a flat JSON config into a problem instance, repeating runs
over derived seeds, and emitting deterministic CSV summaries.
"""

from __future__ import annotations

import contextlib
import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from typing import (Callable, Dict, List, Optional, Sequence, Tuple, Union,
                    get_args, get_origin, get_type_hints)

import numpy as np

from .model import (
    CoefficientSet,
    ConfigError,
    Domain,
    InvalidParameterError,
    TimeGrid,
    _on_shares,
    _whole,
    build_grid,
    sample_noise,
)
from .regression import HypercubePartition, build_partition
from .solver import MODES, BackwardSolution, SolverConfig, solve

__all__ = [
    "ExperimentConfig",
    "G_CHOICES",
    "RunStats",
    "TABLE_M_GRID",
    "build_problem",
    "dump_diagnostics",
    "emit_csv",
    "load_config",
    "make_driver",
    "make_g",
    "repeat_runs",
    "run_convergence",
    "run_table",
]

G_CHOICES = ("none", "g1", "g2", "g3")
TABLE_M_GRID = (128, 512, 2048, 8192, 32768)

SWEEP_BASIS = (40.0, 180.0)


# ------------------------------ model presets ------------------------------ #

def make_driver(
    mu: float, sigma_coef: float, r: float, R: float
) -> Callable[..., np.ndarray]:
    """Driver f(t,x,y,z) = -theta z - r y + (y - z/sigma)^- (R - r)."""
    theta = (mu - r) / sigma_coef

    def f(t, x, y, z):
        # (-theta z - r y) + max(-(y - z/sigma), 0) (R - r), one operation
        # at a time in that order, on two arrays
        zs = z[:, :, 0]
        out = zs * -theta
        tmp = np.multiply(y, r)
        out -= tmp
        np.divide(zs, sigma_coef, out=tmp)
        np.subtract(y, tmp, out=tmp)
        np.negative(tmp, out=tmp)
        np.maximum(tmp, 0.0, out=tmp)
        tmp *= R - r
        out += tmp
        return out

    return f


def make_g(choice: str) -> Optional[Callable[..., np.ndarray]]:
    """Backward-noise coupling preset, or None when the coupling is off."""
    if choice == "none":
        return None
    if choice == "g1":
        def g(t, x, y, z):
            return (0.1 * z[:, :, 0] + 0.5 * y + np.log(x))[:, :, None]
    elif choice == "g2":
        def g(t, x, y, z):
            return (0.1 * z[:, :, 0] + 0.5 * y)[:, :, None]
    elif choice == "g3":
        def g(t, x, y, z):
            return (np.log(x) + 0.5 * y)[:, :, None]
    else:
        raise InvalidParameterError(f"g choice {choice!r} has no preset")
    return g


# ------------------------------- configuration ----------------------------- #

def _positive() -> dataclasses.Field:
    return dataclasses.field(metadata={"rule": ("positive", lambda v: v > 0.0)})


def _at_least(lo: int, **default) -> dataclasses.Field:
    return dataclasses.field(metadata={"rule": (f"at least {lo}", lambda v: v >= lo)}, **default)


def _one_of(choices: Tuple[str, ...]) -> dataclasses.Field:
    return dataclasses.field(metadata={"rule": (f"one of {choices}", lambda v: v in choices)})


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, validated description of one experiment.

    Construction from a file, in code or by ``dataclasses.replace`` checks
    each field's type (an int given for a float is stored as a float) and rule.

    ``I`` counts Picard sweeps per backward step; ``R_runs`` counts
    repetitions of the full solve; ``basis_lower``/``basis_upper`` default to
    the domain bounds when unset; ``j_max`` and ``spatial_points`` feed the
    convergence sweep and the field-export lattice.
    """

    mu: float
    sigma_coef: float = _positive()
    r: float
    R: float
    K: float
    x0: float
    T: float = _positive()
    domain_lower: float
    domain_upper: float
    N: int = _at_least(1)
    M: int = _at_least(1)
    delta: float = _positive()
    g_choice: str = _one_of(G_CHOICES)
    mode: str = _one_of(MODES)
    seed: int = dataclasses.field(metadata={
        "rule": ("an unsigned 64-bit integer", lambda v: 0 <= v < 2 ** 64)})
    I: int = _at_least(0, default=3)
    R_runs: int = _at_least(2, default=50)
    shift_enabled: bool = True
    basis_lower: Optional[float] = None
    basis_upper: Optional[float] = None
    out: Optional[str] = None
    j_max: int = _at_least(1, default=5)
    spatial_points: int = _at_least(1, default=29)

    def __post_init__(self) -> None:
        for f in dataclasses.fields(self):
            value = _coerced(f.name, getattr(self, f.name))
            object.__setattr__(self, f.name, value)
            if "rule" in f.metadata:
                text, ok = f.metadata["rule"]
                if not ok(value):
                    raise ConfigError(f"{f.name} must be {text}, got {value!r}")
        if not self.domain_lower < self.domain_upper:
            raise ConfigError(
                f"domain_lower must be below domain_upper, got "
                f"[{self.domain_lower}, {self.domain_upper}]"
            )
        if not self.domain_lower < self.x0 < self.domain_upper:
            raise ConfigError(
                f"x0 must lie strictly inside the domain, got {self.x0}"
            )
        if (self.basis_lower is None) != (self.basis_upper is None):
            raise ConfigError(
                "basis_lower and basis_upper must be given together"
            )
        if self.basis_lower is not None and not self.basis_lower < self.basis_upper:
            raise ConfigError(
                f"basis_lower must be below basis_upper, got "
                f"[{self.basis_lower}, {self.basis_upper}]"
            )
        if self.mode != "bsde" and self.g_choice == "none":
            raise ConfigError(
                f"mode {self.mode!r} needs a g coupling; set g_choice"
            )


def derived_seeds(config: ExperimentConfig, reps: int) -> range:
    """Seeds seed+0 .. seed+reps-1 of a repetition set, all below 2**64."""
    if config.seed + reps > 2 ** 64:
        raise ConfigError(
            f"seed + repetitions must stay below 2**64, got seed {config.seed} "
            f"with {reps} repetitions"
        )
    return range(config.seed, config.seed + reps)


_FIELD_TYPES = get_type_hints(ExperimentConfig)


def _coerced(name: str, value):
    """A field value checked against the field's declared type; an Optional
    field accepts None."""
    kind = _FIELD_TYPES[name]
    if get_origin(kind) is Union:
        if value is None:
            return None
        kind = next(t for t in get_args(kind) if t is not type(None))
    if kind is int:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return value
    if kind is float:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        out = float(value)
        if not math.isfinite(out):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        return out
    if kind is bool:
        if not isinstance(value, bool):
            raise ConfigError(f"{name} must be true or false, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a flat JSON experiment description.

    Every constraint failure is a ConfigError naming the offending field.
    """
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(
            f"{path}: invalid JSON at line {err.lineno}: {err.msg}"
        ) from err
    if not isinstance(raw, dict):
        raise ConfigError(f"{path}: config must be a flat JSON object")
    fields = dataclasses.fields(ExperimentConfig)
    unknown = sorted(set(raw) - {f.name for f in fields})
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    missing = [f.name for f in fields
               if f.default is dataclasses.MISSING and f.name not in raw]
    if missing:
        raise ConfigError(f"missing required config key: {missing[0]}")
    return ExperimentConfig(**raw)


def build_problem(
    config: ExperimentConfig,
) -> Tuple[CoefficientSet, TimeGrid, Domain, HypercubePartition, SolverConfig]:
    """Assemble the solver inputs of the bundled d = 1 model described by a
    config: GBM drift and diffusion, the driver and coupling presets, and
    the payoff K - x on the config's domain and basis."""
    mu, sc, K = config.mu, config.sigma_coef, config.K
    coeffs = CoefficientSet(
        d=1, k=1, l=1,
        b=lambda x: mu * x,
        sigma=lambda x: sc * x[..., None],
        f=make_driver(mu, sc, config.r, config.R),
        phi=lambda t, x: K - x,
        g=make_g(config.g_choice),
    )
    grid = build_grid(config.T, config.N)
    domain = Domain.box([config.domain_lower], [config.domain_upper])
    lo = config.domain_lower if config.basis_lower is None else config.basis_lower
    hi = config.domain_upper if config.basis_upper is None else config.basis_upper
    partition = build_partition([lo], [hi], config.delta)
    solver_config = SolverConfig(mode=config.mode, picard_iterations=config.I)
    return coeffs, grid, domain, partition, solver_config


# --------------------------- repetition statistics ------------------------- #

@dataclass(frozen=True)
class RunStats:
    """One scalar estimate per run, with their mean and sample std."""

    values: Tuple[float, ...]

    @property
    def mean(self) -> float:
        return float(np.asarray(self.values, dtype=np.float64).mean())

    @property
    def std(self) -> float:
        return float(np.asarray(self.values, dtype=np.float64).std(ddof=1))


def _solve_seed(config: ExperimentConfig, problem: tuple, seed: int) -> BackwardSolution:
    """Solve ``build_problem``'s output for ``config`` on the noise of ``seed``."""
    coeffs, grid, domain, partition, scfg = problem
    noise = sample_noise(seed, config.M, grid, 1, 1)
    return solve(coeffs, grid, domain, noise, [config.x0], partition,
                 scfg, shift_enabled=config.shift_enabled)


def _run_set(
    config: ExperimentConfig,
    threads: int,
    problem: tuple,
    time_indices: Sequence[int],
    first: Optional[BackwardSolution] = None,
) -> Dict[int, RunStats]:
    """Solve ``problem``, ``build_problem``'s output for ``config``, once per
    seed seed+0 .. seed+R_runs-1, and collect each time index's estimates.

    A run's estimate at time index n is Y0 for n = 0, otherwise the regression
    function averaged over the paths still alive at t_n (over all paths if
    none survived, every value then being a frozen exit payoff).  ``first``,
    if given, is the caller's solve of seed+0 and stands in for it.
    """
    threads = _whole("threads", threads, 1)
    seeds = derived_seeds(config, config.R_runs)

    def one(seed: int) -> List[float]:
        if first is not None and seed == config.seed:
            sol = first
        else:
            sol = _solve_seed(config, problem, seed)
        snap: List[float] = []
        for n in time_indices:
            live = sol.paths.live_mask(n)
            vals = sol.Y0[:1] if n == 0 else sol.y_at(n)[live if live.any() else slice(None), 0]
            snap.append(float(vals.mean()))
        return snap

    shares = _on_shares(lambda share: [one(seed) for seed in share], seeds, threads)
    runs = {seed: snap for share, snaps in shares for seed, snap in zip(share, snaps)}
    return {n: RunStats(values=tuple(runs[seed][i] for seed in seeds))
            for i, n in enumerate(time_indices)}


def repeat_runs(
    config: ExperimentConfig,
    R_runs: Optional[int] = None,
    *,
    threads: int = 1,
) -> RunStats:
    """Repeat the configured solve over derived seeds and summarize Y0.

    Run r regenerates all noise from seed+r, so each repetition is a fresh
    realization of both the forward paths and the shared backward path.
    An ``R_runs`` override goes through the config's own check (>= 2).
    """
    if R_runs is not None:
        config = dataclasses.replace(config, R_runs=R_runs)
    return _run_set(config, threads, build_problem(config), (0,))[0]


# ------------------------------ table and sweep ---------------------------- #

def _table_times(N: int) -> List[int]:
    return sorted({0, (3 * N) // 4, N - 1})


def _active_modes(g_choice: str) -> Tuple[str, ...]:
    if g_choice == "none":
        return ("bsde",)
    return MODES


def run_table(config: ExperimentConfig, *, threads: int = 1) -> List[Tuple]:
    """Repetition statistics, config.R_runs per cell, over the mode x
    path-count x time grid.

    Returns the table header-first, data rows sorted by (time_index, mode, M).
    Every (mode, M) combination reuses the same derived seed range, and one
    run set feeds all three time rows.  The g column reports the coupling
    actually used, so bsde rows always read "none".
    """
    times = _table_times(config.N)
    rows: List[Tuple] = []
    for mode in _active_modes(config.g_choice):
        g_label = "none" if mode == "bsde" else config.g_choice
        for M in TABLE_M_GRID:
            combo = dataclasses.replace(config, mode=mode, M=M)
            stats = _run_set(combo, threads, build_problem(combo), times)
            for n in times:
                rows.append((n, mode, g_label, M, stats[n].mean, stats[n].std))
    rows.sort(key=lambda row: (row[0], row[1], row[3]))
    header = ("time_index", "mode", "g_choice", "M", "mean", "std")
    return [header] + rows


def run_convergence(config: ExperimentConfig, *, threads: int = 1) -> List[Tuple]:
    """Joint refinement sweep N_j, M_j, delta_j = f(j), j = 1..config.j_max,
    with config.R_runs repetitions per row.

    N_j = round(2 sqrt(2)^(j-1)) clamped to >= 1, M_j = round(2 sqrt(2)^(3(j-1))),
    delta_j = 50 / sqrt(2)^(j-1).  The basis defaults to (40, 180) unless the
    config pins its own bounds; realized integer N and M are recorded in the
    output rows.
    """
    lo = SWEEP_BASIS[0] if config.basis_lower is None else config.basis_lower
    hi = SWEEP_BASIS[1] if config.basis_upper is None else config.basis_upper
    root2 = math.sqrt(2.0)
    header = ("j", "N", "M", "delta", "mode", "mean", "std")
    rows: List[Tuple] = []
    for j in range(1, config.j_max + 1):
        N_j = max(1, int(round(2.0 * root2 ** (j - 1))))
        M_j = int(round(2.0 * root2 ** (3 * (j - 1))))
        delta_j = 50.0 / root2 ** (j - 1)
        for mode in _active_modes(config.g_choice):
            combo = dataclasses.replace(
                config, N=N_j, M=M_j, delta=delta_j, mode=mode,
                basis_lower=lo, basis_upper=hi,
            )
            stats = repeat_runs(combo, threads=threads)
            rows.append((j, N_j, M_j, delta_j, mode, stats.mean, stats.std))
    return [header] + rows


# --------------------------------- emission -------------------------------- #

def _format_cell(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.10g}"
    return str(value)


def emit_csv(rows: Sequence[Sequence], path: Optional[str] = None) -> None:
    """Write header-first rows as CSV: '.' decimals, 10 significant digits.

    ``path=None`` writes to stdout; a file that cannot be written is a
    ConfigError.
    """
    rows = list(rows)
    if not rows:
        raise InvalidParameterError("rows must start with a header row")
    try:
        with (contextlib.nullcontext(sys.stdout) if path is None
              else open(path, "w", encoding="utf-8", newline="")) as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow([str(cell) for cell in rows[0]])
            for row in rows[1:]:
                writer.writerow([_format_cell(cell) for cell in row])
    except OSError as err:
        if path is None:
            raise
        raise ConfigError(f"cannot write {path}: {err}") from err


def dump_diagnostics(solution: BackwardSolution, path: str) -> None:
    """Per-step Picard residuals and fit empty-cell counts as CSV; without
    Picard sweeps, one row per step with sweep 0 and an empty residual."""
    res = solution.diagnostics.picard_residuals
    empty = solution.diagnostics.empty_cells
    N, I = res.shape
    rows = ([(n, it + 1, res[n, it], empty[n]) for n in range(N) for it in range(I)]
            or [(n, 0, "", empty[n]) for n in range(N)])
    emit_csv([("n", "picard_iter", "residual", "empty_cells")] + rows, path)
