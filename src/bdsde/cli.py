"""Command-line front end: single runs, tables, sweeps, and field export."""

from __future__ import annotations

import argparse
import dataclasses
import os
import sys
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .experiments import (
    ExperimentConfig,
    _run_set,
    _stats,
    build_problem,
    derived_seeds,
    dump_diagnostics,
    emit_csv,
    load_config,
    run_convergence,
    run_table,
)
from .model import BdsdeError, ConfigError, sample_noise
from .oracles import midpoint_lattice, spde_point
from .solver import solve


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bdsde",
        description="Monte Carlo solver for backward doubly stochastic "
        "systems with first-exit terminal times",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, reps_help: str) -> None:
        p.add_argument("--config", required=True, help="flat JSON experiment file")
        p.add_argument("--seed", type=int, default=None,
                       help="override the config seed")
        p.add_argument("--reps", type=int, default=None, help=reps_help)
        p.add_argument("--out", default=None,
                       help="output path (default: config 'out', else stdout)")

    p_run = sub.add_parser("run", help="single solve, print Y0/Z0 and diagnostics")
    common(p_run, "if given, also report mean/std over this many repetitions")
    p_table = sub.add_parser("table", help="mode x path-count x time summary table")
    common(p_table, "repetitions per table cell (default: config R_runs)")
    p_conv = sub.add_parser("converge", help="joint N/M/delta refinement sweep")
    common(p_conv, "repetitions per sweep row (default: config R_runs)")
    p_grid = sub.add_parser("spde-grid",
                            help="export u and v on the time grid x midpoint lattice")
    common(p_grid, "average the field over this many noise realizations")
    for p in (p_run, p_table, p_conv):
        p.add_argument("--threads", type=int, default=1,
                       help="repetition worker threads; affects speed only, "
                       "never results")
    return parser


# ------------------------------- subcommands ------------------------------- #

def _cmd_run(config: ExperimentConfig, out: Optional[str], args) -> int:
    if args.reps is not None:
        derived_seeds(config, args.reps)  # fail before printing a partial report
    coeffs, grid, domain, partition, scfg = build_problem(config)
    noise = sample_noise(config.seed, config.M, grid, coeffs.d, coeffs.l)
    sol = solve(coeffs, grid, domain, noise, [config.x0] * coeffs.d, partition,
                scfg, shift_enabled=config.shift_enabled)
    diag = sol.diagnostics
    print(f"mode = {config.mode}, g_choice = {config.g_choice}, "
          f"N = {config.N}, M = {config.M}, delta = {config.delta:g}, "
          f"I = {config.I}, seed = {config.seed}")
    print("Y0 = " + " ".join(f"{v:.10g}" for v in sol.Y0))
    print("Z0 = " + " ".join(f"{v:.10g}" for v in sol.Z0.ravel()))
    print(f"exit_fraction = {diag.exit_fraction:.10g}")
    print(f"empty_cells_y = {int(diag.empty_cells_y.sum())}, "
          f"empty_cells_z = {int(diag.empty_cells_z.sum())}")
    print(f"out_of_range_y = {int(diag.out_of_range_y.sum())}, "
          f"out_of_range_z = {int(diag.out_of_range_z.sum())}")
    if diag.picard_residuals.size:
        print("max_picard_residual_by_sweep = " + " ".join(
            f"{v:.3g}" for v in diag.picard_residuals.max(axis=0)))
    if args.reps is not None:
        # the solve printed above is repetition 0
        runs = _run_set(config, args.reps, args.threads, None, (0,), first=sol)
        mean, std = _stats([run[0] for run in runs])
        print(f"repetitions = {args.reps}: mean = {mean:.10g}, std = {std:.10g}")
    if out is not None:
        dump_diagnostics(sol, out)
        print(f"diagnostics written to {out}")
    return 0


def _cmd_table(config: ExperimentConfig, out: Optional[str], args) -> int:
    rows = run_table(config, args.reps, threads=args.threads)
    emit_csv(rows, out)
    return 0


def _cmd_converge(config: ExperimentConfig, out: Optional[str], args) -> int:
    if args.reps is not None:
        config = dataclasses.replace(config, R_runs=args.reps)
    rows = run_convergence(config, threads=args.threads)
    emit_csv(rows, out)
    return 0


def _cmd_spde_grid(config: ExperimentConfig, out: Optional[str], args) -> int:
    coeffs, grid, domain, partition, scfg = build_problem(config)
    points, _ = midpoint_lattice(domain, config.spatial_points)
    reps = 1 if args.reps is None else args.reps
    P = points.shape[0]
    acc_u = np.zeros((grid.N + 1, P))
    acc_v = np.zeros((grid.N + 1, P))
    for seed in derived_seeds(config, reps):
        wpath = sample_noise(seed, 1, grid, coeffs.d, coeffs.l).backward
        for n, t_n in enumerate(grid.times):
            u, v = spde_point(coeffs, grid, domain, wpath, float(t_n), points,
                              config.M, partition, scfg, seed=seed,
                              shift_enabled=config.shift_enabled)
            acc_u[n] += u[:, 0]
            acc_v[n] += v[:, 0, 0]
    rows: List[Tuple] = [("t", "x", "u", "v")]
    for n in range(grid.N + 1):
        for p in range(P):
            rows.append((float(grid.times[n]), float(points[p, 0]),
                         acc_u[n, p] / reps, acc_v[n, p] / reps))
    emit_csv(rows, out)
    return 0


_DISPATCH = {
    "run": _cmd_run,
    "table": _cmd_table,
    "converge": _cmd_converge,
    "spde-grid": _cmd_spde_grid,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if getattr(args, "threads", 1) < 1:
        parser.error(f"--threads must be positive, got {args.threads}")
    if args.reps is not None:
        floor = 1 if args.command == "spde-grid" else 2
        if args.reps < floor:
            parser.error(f"--reps must be at least {floor} for {args.command}")
    try:
        config = load_config(args.config)
        if args.seed is not None:
            config = dataclasses.replace(config, seed=args.seed)
        out = args.out if args.out is not None else config.out
        code = _DISPATCH[args.command](config, out, args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # stdout was closed early (say, by head); devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 1
    except ConfigError as err:
        print(f"config error: {err}", file=sys.stderr)
        return 2
    except BdsdeError as err:
        print(f"error: {err}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
