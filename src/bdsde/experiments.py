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
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from .model import (
    CoefficientSet,
    ConfigError,
    Domain,
    InvalidParameterError,
    TimeGrid,
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
    "make_payoff",
    "repeat_runs",
    "run_convergence",
    "run_table",
]

G_CHOICES = ("none", "g1", "g2", "g3", "custom")
TABLE_M_GRID = (128, 512, 2048, 8192, 32768)

SWEEP_BASIS = (40.0, 180.0)


# ------------------------------ model presets ------------------------------ #

def make_driver(
    mu: float, sigma_coef: float, r: float, R: float
) -> Callable[..., np.ndarray]:
    """Driver f(t,x,y,z) = -theta z - r y + (y - z/sigma)^- (R - r)."""
    theta = (mu - r) / sigma_coef

    def f(t, x, y, z):
        zs = z[:, :, 0]
        neg = np.maximum(-(y - zs / sigma_coef), 0.0)
        return -theta * zs - r * y + neg * (R - r)

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
        raise InvalidParameterError(
            f"g choice {choice!r} has no preset; pass a coefficient set "
            "override to repeat_runs for custom couplings"
        )
    return g


def make_payoff(K: float) -> Callable[..., np.ndarray]:
    def phi(t, x):
        return K - x

    return phi


# ------------------------------- configuration ----------------------------- #

_INT_FIELDS = ("N", "M", "I", "seed", "R_runs", "j_max", "spatial_points")
_FLOAT_FIELDS = ("mu", "sigma_coef", "r", "R", "K", "x0", "T",
                 "domain_lower", "domain_upper", "delta",
                 "basis_lower", "basis_upper")
_REQUIRED = ("mu", "sigma_coef", "r", "R", "K", "x0", "T", "domain_lower",
             "domain_upper", "N", "M", "delta", "g_choice", "mode", "seed")


@dataclass(frozen=True)
class ExperimentConfig:
    """Flat, validated description of one experiment.

    ``I`` counts Picard sweeps per backward step; ``R_runs`` counts
    repetitions of the full solve; ``basis_lower``/``basis_upper`` default to
    the domain bounds when unset; ``j_max`` and ``spatial_points`` feed the
    convergence sweep and the field-export lattice.
    """

    mu: float
    sigma_coef: float
    r: float
    R: float
    K: float
    x0: float
    T: float
    domain_lower: float
    domain_upper: float
    N: int
    M: int
    delta: float
    g_choice: str
    mode: str
    seed: int
    I: int = 3
    R_runs: int = 50
    shift_enabled: bool = True
    basis_lower: Optional[float] = None
    basis_upper: Optional[float] = None
    out: Optional[str] = None
    j_max: int = 5
    spatial_points: int = 29

    def __post_init__(self) -> None:
        if self.sigma_coef <= 0.0:
            raise ConfigError(f"sigma_coef must be positive, got {self.sigma_coef}")
        if self.T <= 0.0:
            raise ConfigError(f"T must be positive, got {self.T}")
        if self.N < 1:
            raise ConfigError(f"N must be at least 1, got {self.N}")
        if self.M < 1:
            raise ConfigError(f"M must be at least 1, got {self.M}")
        if self.delta <= 0.0:
            raise ConfigError(f"delta must be positive, got {self.delta}")
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
        if self.g_choice not in G_CHOICES:
            raise ConfigError(
                f"g_choice must be one of {G_CHOICES}, got {self.g_choice!r}"
            )
        if self.mode not in MODES:
            raise ConfigError(f"mode must be one of {MODES}, got {self.mode!r}")
        if self.mode != "bsde" and self.g_choice == "none":
            raise ConfigError(
                f"mode {self.mode!r} needs a g coupling; set g_choice"
            )
        if not 0 <= self.seed < 2 ** 64:
            raise ConfigError(
                f"seed must be an unsigned 64-bit integer, got {self.seed}"
            )
        if self.I < 0:
            raise ConfigError(f"I must be nonnegative, got {self.I}")
        if self.R_runs < 2:
            raise ConfigError(f"R_runs must be at least 2, got {self.R_runs}")
        if self.j_max < 1:
            raise ConfigError(f"j_max must be at least 1, got {self.j_max}")
        if self.spatial_points < 1:
            raise ConfigError(
                f"spatial_points must be at least 1, got {self.spatial_points}"
            )


def derived_seeds(config: ExperimentConfig, reps: int) -> range:
    """Seeds seed+0 .. seed+reps-1 of a repetition set, all below 2**64."""
    if config.seed + reps > 2 ** 64:
        raise ConfigError(
            f"seed + repetitions must stay below 2**64, got seed {config.seed} "
            f"with {reps} repetitions"
        )
    return range(config.seed, config.seed + reps)


def _coerced(name: str, value):
    if name in _INT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, int):
            raise ConfigError(f"{name} must be an integer, got {value!r}")
        return value
    if name in _FLOAT_FIELDS:
        if isinstance(value, bool) or not isinstance(value, (int, float)):
            raise ConfigError(f"{name} must be a number, got {value!r}")
        out = float(value)
        if not math.isfinite(out):
            raise ConfigError(f"{name} must be finite, got {value!r}")
        return out
    if name == "shift_enabled":
        if not isinstance(value, bool):
            raise ConfigError(f"shift_enabled must be true or false, got {value!r}")
        return value
    if not isinstance(value, str):
        raise ConfigError(f"{name} must be a string, got {value!r}")
    return value


def load_config(path: str) -> ExperimentConfig:
    """Read and validate a flat JSON experiment description.

    Every constraint failure is a ConfigError naming the offending field.
    ``g_choice: custom`` is rejected here because a config file cannot carry
    code; custom couplings go through repeat_runs' coefficient override.
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
    known = {f.name for f in dataclasses.fields(ExperimentConfig)}
    unknown = sorted(set(raw) - known)
    if unknown:
        raise ConfigError(f"unknown config key(s): {', '.join(unknown)}")
    missing = [name for name in _REQUIRED if name not in raw]
    if missing:
        raise ConfigError(f"missing required config key: {missing[0]}")
    coerced = {}
    for name, value in raw.items():
        if value is None and name in ("basis_lower", "basis_upper", "out"):
            continue
        coerced[name] = _coerced(name, value)
    if coerced.get("g_choice") == "custom":
        raise ConfigError(
            "g_choice 'custom' cannot be expressed in a config file; use the "
            "repeat_runs coefficient override instead"
        )
    return ExperimentConfig(**coerced)


def build_problem(
    config: ExperimentConfig,
    coeffs: Optional[CoefficientSet] = None,
) -> Tuple[CoefficientSet, TimeGrid, Domain, HypercubePartition, SolverConfig]:
    """Assemble the solver inputs described by a config.

    An explicit coefficient set replaces the presets wholesale (custom g,
    degenerate diffusions); the grid, domain, basis and solver settings still
    come from the config.
    """
    if coeffs is None:
        if config.g_choice == "custom":
            raise InvalidParameterError(
                "g_choice 'custom' needs an explicit coefficient set"
            )
        mu, sc = config.mu, config.sigma_coef
        coeffs = CoefficientSet(
            d=1, k=1, l=1,
            b=lambda x: mu * x,
            sigma=lambda x: sc * x[..., None],
            f=make_driver(config.mu, config.sigma_coef, config.r, config.R),
            phi=make_payoff(config.K),
            g=make_g(config.g_choice),
        )
    elif not isinstance(coeffs, CoefficientSet):
        raise InvalidParameterError("coeffs override must be a CoefficientSet")
    grid = build_grid(config.T, config.N)
    domain = Domain.box([config.domain_lower], [config.domain_upper])
    lo = config.domain_lower if config.basis_lower is None else config.basis_lower
    hi = config.domain_upper if config.basis_upper is None else config.basis_upper
    partition = build_partition([lo] * coeffs.d, [hi] * coeffs.d, config.delta)
    solver_config = SolverConfig(mode=config.mode, picard_iterations=config.I)
    return coeffs, grid, domain, partition, solver_config


# --------------------------- repetition statistics ------------------------- #

@dataclass(frozen=True)
class RunStats:
    """Per-run first solution components with their mean and sample std."""

    values: Tuple[float, ...]
    mean: float
    std: float
    R_runs: int


def _stats(values: Sequence[float]) -> Tuple[float, float]:
    arr = np.asarray(values, dtype=np.float64)
    return float(arr.mean()), float(arr.std(ddof=1))


def _run_set(
    config: ExperimentConfig,
    R_runs: int,
    threads: int,
    coeffs: Optional[CoefficientSet],
    time_indices: Sequence[int],
    first: Optional[BackwardSolution] = None,
) -> List[Dict[int, float]]:
    """Solve R_runs times with seeds seed+0 .. seed+R_runs-1.

    Each entry maps a time index n to the run's scalar estimate there: Y0 for
    n = 0, otherwise the regression function averaged over the paths still
    alive at t_n (over all paths if none survived, every value then being a
    frozen exit payoff).  ``first``, if given, is the caller's solve of
    seed+0 and stands in for it.
    """
    if R_runs < 2:
        raise InvalidParameterError(
            f"reps (R_runs) must be at least 2 to define a std, got {R_runs}"
        )
    if threads < 1:
        raise InvalidParameterError(f"threads must be positive, got {threads}")
    seeds = derived_seeds(config, R_runs)
    use, grid, domain, partition, scfg = build_problem(config, coeffs)
    x0 = [config.x0] * use.d

    def one(seed: int) -> Dict[int, float]:
        if first is not None and seed == config.seed:
            sol = first
        else:
            noise = sample_noise(seed, config.M, grid, use.d, use.l)
            sol = solve(use, grid, domain, noise, x0, partition, scfg,
                        shift_enabled=config.shift_enabled)
        snap: Dict[int, float] = {}
        for n in time_indices:
            if n == 0:
                snap[0] = float(sol.Y0[0])
            else:
                vals = sol.y_values[n][:, 0]
                live = sol.paths.live_mask(n)
                snap[n] = float(vals[live].mean() if live.any() else vals.mean())
        return snap

    if threads <= 1:
        return [one(seed) for seed in seeds]
    with ThreadPoolExecutor(max_workers=threads) as pool:
        return list(pool.map(one, seeds))


def repeat_runs(
    config: ExperimentConfig,
    R_runs: Optional[int] = None,
    *,
    threads: int = 1,
    coeffs: Optional[CoefficientSet] = None,
) -> RunStats:
    """Repeat the configured solve over derived seeds and summarize Y0.

    Run r regenerates all noise from seed+r, so each repetition is a fresh
    realization of both the forward paths and the shared backward path.
    """
    R = config.R_runs if R_runs is None else R_runs
    snaps = _run_set(config, R, threads, coeffs, (0,))
    values = tuple(s[0] for s in snaps)
    mean, std = _stats(values)
    return RunStats(values=values, mean=mean, std=std, R_runs=R)


# ------------------------------ table and sweep ---------------------------- #

def _table_times(N: int) -> List[int]:
    return sorted({0, (3 * N) // 4, N - 1})


def _active_modes(g_choice: str) -> Tuple[str, ...]:
    if g_choice == "none":
        return ("bsde",)
    return MODES


def run_table(
    config: ExperimentConfig,
    reps: Optional[int] = None,
    *,
    threads: int = 1,
) -> List[Tuple]:
    """Repetition statistics over the mode x path-count x time grid.

    Returns the table header-first, data rows sorted by (time_index, mode, M).
    Every (mode, M) combination reuses the same derived seed range, and one
    run set feeds all three time rows.  The g column reports the coupling
    actually used, so bsde rows always read "none".
    """
    R = config.R_runs if reps is None else reps
    times = _table_times(config.N)
    rows: List[Tuple] = []
    for mode in _active_modes(config.g_choice):
        g_label = "none" if mode == "bsde" else config.g_choice
        for M in TABLE_M_GRID:
            combo = dataclasses.replace(config, mode=mode, M=M)
            snaps = _run_set(combo, R, threads, None, times)
            for n in times:
                mean, std = _stats([s[n] for s in snaps])
                rows.append((n, mode, g_label, M, mean, std))
    rows.sort(key=lambda row: (row[0], row[1], row[3]))
    header = ("time_index", "mode", "g_choice", "M", "mean", "std")
    return [header] + rows


def run_convergence(
    config: ExperimentConfig,
    j_max: Optional[int] = None,
    *,
    threads: int = 1,
) -> List[Tuple]:
    """Joint refinement sweep N_j, M_j, delta_j = f(j) with repetition stats.

    N_j = round(2 sqrt(2)^(j-1)) clamped to >= 1, M_j = round(2 sqrt(2)^(3(j-1))),
    delta_j = 50 / sqrt(2)^(j-1).  The basis defaults to (40, 180) unless the
    config pins its own bounds; realized integer N and M are recorded in the
    output rows.
    """
    jm = config.j_max if j_max is None else j_max
    if jm < 1:
        raise InvalidParameterError(f"j_max must be at least 1, got {jm}")
    lo = SWEEP_BASIS[0] if config.basis_lower is None else config.basis_lower
    hi = SWEEP_BASIS[1] if config.basis_upper is None else config.basis_upper
    root2 = math.sqrt(2.0)
    header = ("j", "N", "M", "delta", "mode", "mean", "std")
    rows: List[Tuple] = []
    for j in range(1, jm + 1):
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
    if isinstance(value, (bool, np.bool_)):
        return str(value)
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
    """Per-step Picard residuals and y-fit empty-cell counts as CSV."""
    res = solution.diagnostics.picard_residuals
    empty = solution.diagnostics.empty_cells_y
    emit_csv([("n", "picard_iter", "residual", "empty_cells")]
             + [(n, it + 1, float(res[n, it]), empty[n])
                for n in range(res.shape[0]) for it in range(res.shape[1])], path)
